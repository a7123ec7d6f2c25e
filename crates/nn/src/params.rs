//! Parameter storage with gradient accumulation.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Handle to a parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct ParamId(pub(crate) usize);

/// Owns all trainable tensors of a model plus their accumulated gradients.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter initialized with Xavier/Glorot uniform noise.
    pub fn xavier(&mut self, name: &str, rows: usize, cols: usize, rng: &mut StdRng) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        self.register(name, Tensor::from_vec(data, rows, cols).expect("shape"))
    }

    /// Registers a zero-initialized parameter (bias vectors).
    pub fn zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.register(name, Tensor::zeros(rows, cols))
    }

    /// Registers an explicitly initialized parameter.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.to_string());
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Immutable view of a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable view of a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Immutable view of a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Accumulates into a parameter's gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0]
            .add_assign(delta)
            .expect("gradient shape matches parameter shape");
    }

    /// Accumulates `scale * delta` into a parameter's gradient without
    /// materializing a scaled copy. Bit-for-bit equal to scaling `delta`
    /// first and then calling [`ParamStore::accumulate_grad`]: both round
    /// the product once, then the sum once.
    pub fn accumulate_grad_scaled(&mut self, id: ParamId, delta: &Tensor, scale: f32) {
        self.grads[id.0]
            .add_scaled(delta, scale)
            .expect("gradient shape matches parameter shape");
    }

    /// Zeroes all gradients (call between optimizer steps).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.scale_assign(0.0);
        }
    }

    /// Global gradient L2 norm across all parameters.
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Clips all gradients so the global norm is at most `max_norm`.
    pub fn clip_grads(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.scale_assign(s);
            }
        }
    }

    /// Iterates over `(id, name)` pairs.
    pub fn iter_ids(&self) -> impl Iterator<Item = (ParamId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ParamId(i), n.as_str()))
    }

    /// Name of the i-th registered parameter (registration order).
    pub fn name_at(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Value of the i-th registered parameter (registration order).
    pub fn tensor_at(&self, i: usize) -> &Tensor {
        &self.values[i]
    }

    /// Replaces the value of the i-th registered parameter, verifying the
    /// shape matches the registered one. The snapshot-restore path: a
    /// store is rebuilt with the registration sequence of the model
    /// constructor, then each value is overwritten from the snapshot.
    pub fn load_tensor_at(&mut self, i: usize, value: Tensor) -> crate::Result<()> {
        let Some(current) = self.values.get(i) else {
            return Err(crate::NnError::Index(format!(
                "parameter index {i} out of range ({} registered)",
                self.values.len()
            )));
        };
        if current.rows() != value.rows() || current.cols() != value.cols() {
            return Err(crate::NnError::Shape(format!(
                "parameter {} ({}): snapshot shape {}x{} != registered {}x{}",
                i,
                self.names[i],
                value.rows(),
                value.cols(),
                current.rows(),
                current.cols()
            )));
        }
        self.values[i] = value;
        self.grads[i] = Tensor::zeros(self.grads[i].rows(), self.grads[i].cols());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_and_determinism() {
        let mut rng1 = StdRng::seed_from_u64(5);
        let mut rng2 = StdRng::seed_from_u64(5);
        let mut s1 = ParamStore::new();
        let mut s2 = ParamStore::new();
        let a = s1.xavier("w", 4, 6, &mut rng1);
        let b = s2.xavier("w", 4, 6, &mut rng2);
        assert_eq!(s1.value(a), s2.value(b));
        let bound = (6.0f32 / 10.0).sqrt();
        assert!(s1.value(a).as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut s = ParamStore::new();
        let id = s.zeros("b", 1, 3);
        s.accumulate_grad(id, &Tensor::full(1, 3, 2.0));
        s.accumulate_grad(id, &Tensor::full(1, 3, 1.0));
        assert_eq!(s.grad(id).as_slice(), &[3.0, 3.0, 3.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn clip_scales_down_only() {
        let mut s = ParamStore::new();
        let id = s.zeros("b", 1, 2);
        s.accumulate_grad(id, &Tensor::from_vec(vec![3.0, 4.0], 1, 2).unwrap());
        s.clip_grads(10.0);
        assert_eq!(s.grad(id).as_slice(), &[3.0, 4.0], "under limit: untouched");
        s.clip_grads(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn num_scalars_counts_all() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = ParamStore::new();
        s.xavier("w", 2, 3, &mut rng);
        s.zeros("b", 1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 9);
        let names: Vec<&str> = s.iter_ids().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["w", "b"]);
    }
}
