//! Layers used by the graph generator: linear, GRU cell, two-layer MLP.
//!
//! Each layer has two forward paths over the same parameters:
//! * `forward` records ops on a [`Tape`] (training and evaluation);
//! * `infer` is forward-only: it reads weights from the [`ParamStore`] by
//!   borrow, writes into caller-owned scratch tensors and records
//!   nothing. It replays the tape's exact f32 operation order —
//!   `matmul_into` on a zeroed output, then the bias add, the shared
//!   `sigmoid`/`relu` definitions, and the GRU blend as
//!   `h + z∘(cand + (−1·h))` — so both paths agree bit for bit.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, TensorRef};
use crate::tensor::{relu, sigmoid, Tensor};
use crate::Result;
use rand::rngs::StdRng;

/// A dense layer `y = x·W + b`.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
}

impl Linear {
    /// Registers a new linear layer's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Linear {
        Linear {
            w: store.xavier(&format!("{name}.w"), in_dim, out_dim, rng),
            b: store.zeros(&format!("{name}.b"), 1, out_dim),
        }
    }

    /// Applies the layer to an n×in matrix.
    pub fn forward(&self, tape: &mut Tape, x: TensorRef) -> Result<TensorRef> {
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        let z = tape.matmul(x, w)?;
        tape.add_bias(z, b)
    }

    /// Forward-only `out = x·W + b` for an n×in `x` (`out` is reshaped to
    /// n×out).
    pub fn infer(&self, store: &ParamStore, x: &Tensor, out: &mut Tensor) -> Result<()> {
        let w = store.value(self.w);
        out.reset_zeros(x.rows(), w.cols());
        x.matmul_into(w, out)?;
        out.add_row_broadcast(store.value(self.b))
    }
}

/// A GRU cell updating node states from aggregated messages, as used for
/// the graph propagation of Li et al. (2018): `h' = GRU(h, m)`.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct GruCell {
    wz: Linear,
    wr: Linear,
    wh: Linear,
}

impl GruCell {
    /// Registers a GRU cell with state dim `hidden` and input dim `input`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> GruCell {
        GruCell {
            wz: Linear::new(store, &format!("{name}.z"), input + hidden, hidden, rng),
            wr: Linear::new(store, &format!("{name}.r"), input + hidden, hidden, rng),
            wh: Linear::new(store, &format!("{name}.h"), input + hidden, hidden, rng),
        }
    }

    /// One step: `h` is n×hidden, `m` (messages/input) is n×input.
    pub fn forward(&self, tape: &mut Tape, h: TensorRef, m: TensorRef) -> Result<TensorRef> {
        let hm = tape.concat_cols(m, h)?;
        let z = self.wz.forward(tape, hm)?;
        let z = tape.sigmoid(z);
        let r = self.wr.forward(tape, hm)?;
        let r = tape.sigmoid(r);
        let rh = tape.mul(r, h)?;
        let mrh = tape.concat_cols(m, rh)?;
        let cand = self.wh.forward(tape, mrh)?;
        let cand = tape.tanh(cand);
        // h' = (1-z)∘h + z∘cand = h + z∘(cand − h)
        let neg_h = tape.scale(h, -1.0);
        let delta = tape.add(cand, neg_h)?;
        let zd = tape.mul(z, delta)?;
        tape.add(h, zd)
    }

    /// Forward-only step: `out = GRU(h, m)` for n×hidden `h` and n×input
    /// `m`, with intermediates in `scratch`.
    pub fn infer(
        &self,
        store: &ParamStore,
        h: &Tensor,
        m: &Tensor,
        scratch: &mut GruScratch,
        out: &mut Tensor,
    ) -> Result<()> {
        let GruScratch { joint, z, r, cand } = scratch;
        Tensor::concat_cols_into(m, h, joint)?;
        self.wz.infer(store, joint, z)?;
        z.map_inplace(sigmoid);
        self.wr.infer(store, joint, r)?;
        r.map_inplace(sigmoid);
        r.mul_assign(h)?;
        Tensor::concat_cols_into(m, r, joint)?;
        self.wh.infer(store, joint, cand)?;
        cand.map_inplace(f32::tanh);
        if z.len() != h.len() || cand.len() != h.len() {
            return Err(crate::NnError::Shape(
                "gru: state/gate width mismatch".into(),
            ));
        }
        out.assign(h);
        for ((o, zv), cv) in out
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice())
            .zip(cand.as_slice())
        {
            let hv = *o;
            // `hv * -1.0`, not `-hv`: the tape's `scale(h, -1.0)`, which
            // differs from a sign flip in the bits of a NaN.
            #[allow(clippy::neg_multiply)]
            let delta = cv + hv * -1.0;
            *o = hv + zv * delta;
        }
        Ok(())
    }
}

/// Reusable intermediates of [`GruCell::infer`]. Buffers grow to the
/// largest batch they have served and are reused across calls.
#[derive(Debug, Clone, Default)]
pub struct GruScratch {
    joint: Tensor,
    z: Tensor,
    r: Tensor,
    cand: Tensor,
}

/// A two-layer MLP with ReLU hidden activation, used for the generator's
/// decision heads.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
}

impl Mlp {
    /// Registers the MLP's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Mlp {
        Mlp {
            l1: Linear::new(store, &format!("{name}.1"), in_dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.2"), hidden, out_dim, rng),
        }
    }

    /// Applies the MLP to an n×in matrix.
    pub fn forward(&self, tape: &mut Tape, x: TensorRef) -> Result<TensorRef> {
        let h = self.l1.forward(tape, x)?;
        let h = tape.relu(h);
        self.l2.forward(tape, h)
    }

    /// Forward-only MLP on an n×in matrix; `hidden` holds the ReLU layer.
    pub fn infer(
        &self,
        store: &ParamStore,
        x: &Tensor,
        hidden: &mut Tensor,
        out: &mut Tensor,
    ) -> Result<()> {
        self.l1.infer(store, x, hidden)?;
        hidden.map_inplace(relu);
        self.l2.infer(store, hidden, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 5, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::zeros(4, 3));
        let y = lin.forward(&mut tape, x).unwrap();
        assert_eq!(tape.value(y).rows(), 4);
        assert_eq!(tape.value(y).cols(), 5);
    }

    #[test]
    fn gru_preserves_state_shape_and_gates_work() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 4, 6, &mut rng);
        let mut tape = Tape::new(&store);
        let h = tape.input(Tensor::full(2, 6, 0.3));
        let m = tape.input(Tensor::full(2, 4, -0.2));
        let h2 = gru.forward(&mut tape, h, m).unwrap();
        assert_eq!(tape.value(h2).rows(), 2);
        assert_eq!(tape.value(h2).cols(), 6);
        // Output stays in (-1, 1): convex combination of h and tanh cand.
        assert!(tape.value(h2).as_slice().iter().all(|v| v.abs() < 1.0));
    }

    fn filled(rows: usize, cols: usize, salt: f32) -> Tensor {
        // Includes exact zeros so the matmul zero-skip path is exercised.
        let data = (0..rows * cols)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    ((i as f32 + salt) * 0.73).sin()
                }
            })
            .collect();
        Tensor::from_vec(data, rows, cols).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn infer_kernels_match_the_tape_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 6, 5, &mut rng);
        let gru = GruCell::new(&mut store, "g", 4, 6, &mut rng);
        let mlp = Mlp::new(&mut store, "m", 6, 7, 3, &mut rng);
        // Non-zero biases so the broadcast add is exercised.
        for i in 0..store.len() {
            let t = store.tensor_at(i).clone();
            if t.rows() == 1 {
                store
                    .load_tensor_at(i, filled(1, t.cols(), i as f32))
                    .unwrap();
            }
        }
        let x = filled(3, 6, 0.5);
        let h = filled(3, 6, 1.5);
        let m = filled(3, 4, 2.5);

        let mut tape = Tape::new(&store);
        let (xr, hr, mr) = (
            tape.input(x.clone()),
            tape.input(h.clone()),
            tape.input(m.clone()),
        );
        let lin_t = lin.forward(&mut tape, xr).unwrap();
        let gru_t = gru.forward(&mut tape, hr, mr).unwrap();
        let mlp_t = mlp.forward(&mut tape, xr).unwrap();

        let mut out = Tensor::default();
        lin.infer(&store, &x, &mut out).unwrap();
        assert_eq!(bits(&out), bits(tape.value(lin_t)));
        gru.infer(&store, &h, &m, &mut GruScratch::default(), &mut out)
            .unwrap();
        assert_eq!(bits(&out), bits(tape.value(gru_t)));
        mlp.infer(&store, &x, &mut Tensor::default(), &mut out)
            .unwrap();
        assert_eq!(bits(&out), bits(tape.value(mlp_t)));

        // Row independence: any row subset through infer equals the
        // matching rows of the full batch.
        let mut sub = Tensor::zeros(1, 6);
        let mut one = Tensor::default();
        for r in 0..3 {
            sub.row_mut(0).copy_from_slice(x.row(r));
            mlp.infer(&store, &sub, &mut Tensor::default(), &mut one)
                .unwrap();
            let full: Vec<u32> = tape
                .value(mlp_t)
                .row(r)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(bits(&one), full);
        }
    }

    #[test]
    fn mlp_trains_xor_with_adam() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", 2, 16, 2, &mut rng);
        let mut adam = Adam::new(0.05);
        let x = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], 4, 2).unwrap();
        let targets = [0usize, 1, 1, 0];
        let mut last_loss = f32::INFINITY;
        for _ in 0..300 {
            let (loss_v, grads) = {
                let mut tape = Tape::new(&store);
                let xi = tape.input(x.clone());
                let logits = mlp.forward(&mut tape, xi).unwrap();
                let loss = tape.softmax_ce(logits, &targets).unwrap();
                (tape.value(loss).get(0, 0), tape.backward(loss).unwrap())
            };
            store.zero_grads();
            for (id, g) in grads {
                store.accumulate_grad(id, &g);
            }
            adam.step(&mut store);
            last_loss = loss_v;
        }
        assert!(
            last_loss < 0.05,
            "XOR should be learned, loss = {last_loss}"
        );
    }
}
