//! The graph generator model: typed-graph GNN with decision heads.
//!
//! The model is deliberately generic over the node-type vocabulary (a
//! `vocab_size` and dense type ids) so that the same machinery trains on
//! both KGpip's filtered pipeline vocabulary and — for the Table 3 ablation
//! — on raw code-graph label vocabularies.

use crate::infer::{Engine, Scratch};
use crate::sequence::{decisions_for, Decision};
use kgpip_codegraph::{OpVocab, PipelineGraph, PipelineOp};
use kgpip_nn::{Adam, GruCell, Linear, Mlp, ParamId, ParamStore, Tape, Tensor, TensorRef};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

/// Decorrelates derived RNG streams (the 64-bit golden-ratio constant of
/// splitmix64): attempt `i` of `generate_top_k` samples from
/// `seed ⊕ (i · GOLDEN)`, so the candidate set is a pure function of the
/// seed and attempt index, independent of worker count.
const RNG_STREAM_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Attempts per sampling wave in [`GraphGenerator::generate_top_k`]. The
/// wave size is a fixed constant (not tied to `parallelism`) so the
/// early-exit check fires after the same attempt prefix at any worker
/// count.
const SAMPLE_WAVE: usize = 8;

/// One training example's contribution: scalar loss plus its parameter
/// gradients, exactly as returned by `Tape::backward`.
type ExampleGrad = (f32, Vec<(ParamId, Tensor)>);

/// A graph over dense type ids — the generator's native representation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TypedGraph {
    /// Node type ids (`types[0]` is the dataset anchor).
    pub types: Vec<usize>,
    /// Directed edges `(from, to)` with `from < to`.
    pub edges: Vec<(usize, usize)>,
}

impl TypedGraph {
    /// Encodes a pipeline graph through the op vocabulary.
    pub fn encode(graph: &PipelineGraph, vocab: &OpVocab) -> TypedGraph {
        TypedGraph {
            types: graph.ops.iter().map(|op| vocab.id(*op)).collect(),
            edges: graph.edges.clone(),
        }
    }

    /// Decodes back into a pipeline graph.
    pub fn decode(&self, vocab: &OpVocab) -> PipelineGraph {
        PipelineGraph {
            ops: self.types.iter().map(|&t| vocab.op(t)).collect(),
            edges: self.edges.clone(),
        }
    }

    /// The standard conditional-generation prefix (paper §3.5): a dataset
    /// node connected to a `read_csv` node.
    pub fn conditioning_prefix(vocab: &OpVocab) -> TypedGraph {
        TypedGraph {
            types: vec![vocab.id(PipelineOp::Dataset), vocab.id(PipelineOp::ReadCsv)],
            edges: vec![(0, 1)],
        }
    }
}

/// Generator hyperparameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GeneratorConfig {
    /// Node-type vocabulary size (decision head emits `vocab_size + 1`
    /// logits; the extra class is STOP).
    pub vocab_size: usize,
    /// Dataset content-embedding input dimension.
    pub embed_dim: usize,
    /// Hidden state width.
    pub hidden: usize,
    /// Message-passing rounds per state computation (paper §3.5: "node
    /// embeddings that are learned throughout the training via graph
    /// propagation rounds").
    pub prop_rounds: usize,
    /// Training epochs (the paper's Table 3 ablation uses 15).
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Hard cap on generated nodes (including the prefix).
    pub max_nodes: usize,
    /// Hard cap on incoming edges per generated node.
    pub max_edges_per_node: usize,
    /// Parameter-init and training-shuffle seed.
    pub seed: u64,
    /// Worker threads for training batches, evaluation, and top-K
    /// sampling (1 = sequential). Results are bit-for-bit identical at
    /// any setting; see the determinism contract in DESIGN.md.
    #[serde(default = "default_parallelism")]
    pub parallelism: usize,
    /// Optional early exit for [`GraphGenerator::generate_top_k`]: stop
    /// sampling at the first wave boundary where this many distinct
    /// graphs have been collected. `None` spends the full attempt budget.
    #[serde(default)]
    pub distinct_target: Option<usize>,
}

fn default_parallelism() -> usize {
    1
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            vocab_size: OpVocab::new().len(),
            embed_dim: 48,
            hidden: 32,
            prop_rounds: 2,
            epochs: 15,
            batch_size: 8,
            learning_rate: 0.01,
            max_nodes: 12,
            max_edges_per_node: 3,
            seed: 0,
            parallelism: 1,
            distinct_target: None,
        }
    }
}

/// One training example: a dataset's content embedding plus one filtered
/// pipeline graph mined for it.
#[derive(Debug, Clone)]
pub struct TrainExample {
    /// Content embedding of the associated dataset (length = `embed_dim`).
    pub dataset_embedding: Vec<f64>,
    /// The pipeline graph in typed form (node 0 = dataset anchor).
    pub graph: TypedGraph,
}

/// A generated graph with its sampling score.
#[derive(Debug, Clone)]
pub struct GeneratedGraph {
    /// The generated typed graph (includes the conditioning prefix).
    pub graph: TypedGraph,
    /// Sum of log-probabilities of all sampled decisions — the "score
    /// (probability) of each graph" of §3.5.
    pub log_prob: f64,
}

/// The deep graph generator.
#[derive(Clone, serde::Serialize)]
pub struct GraphGenerator {
    pub(crate) config: GeneratorConfig,
    pub(crate) store: ParamStore,
    pub(crate) type_emb: ParamId,
    pub(crate) ds_proj: Linear,
    pub(crate) msg_fwd: Mlp,
    pub(crate) msg_bwd: Mlp,
    pub(crate) gru: GruCell,
    pub(crate) graph_proj: Linear,
    pub(crate) head_addnode: Mlp,
    pub(crate) head_addedge: Mlp,
    pub(crate) head_pick: Mlp,
}

impl GraphGenerator {
    /// Creates a generator with freshly initialized parameters.
    pub fn new(config: GeneratorConfig) -> GraphGenerator {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let type_emb = store.xavier("type_emb", config.vocab_size, h, &mut rng);
        let ds_proj = Linear::new(&mut store, "ds_proj", config.embed_dim, h, &mut rng);
        let msg_fwd = Mlp::new(&mut store, "msg_fwd", 2 * h, h, h, &mut rng);
        let msg_bwd = Mlp::new(&mut store, "msg_bwd", 2 * h, h, h, &mut rng);
        let gru = GruCell::new(&mut store, "gru", h, h, &mut rng);
        let graph_proj = Linear::new(&mut store, "graph_proj", h, h, &mut rng);
        let head_addnode = Mlp::new(
            &mut store,
            "addnode",
            2 * h,
            h,
            config.vocab_size + 1,
            &mut rng,
        );
        let head_addedge = Mlp::new(&mut store, "addedge", 3 * h, h, 1, &mut rng);
        let head_pick = Mlp::new(&mut store, "pick", 2 * h, h, 1, &mut rng);
        GraphGenerator {
            config,
            store,
            type_emb,
            ds_proj,
            msg_fwd,
            msg_bwd,
            gru,
            graph_proj,
            head_addnode,
            head_addedge,
            head_pick,
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Total trainable scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Overrides the worker count used by [`GraphGenerator::train`],
    /// [`GraphGenerator::evaluate`], and
    /// [`GraphGenerator::generate_top_k`]. Values below 1 clamp to 1.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.config.parallelism = workers.max(1);
    }

    /// A worker pool when `parallelism > 1`, else `None` (sequential).
    ///
    /// The requested worker count is clamped to the CPUs actually
    /// available: on a 1-CPU host, `parallelism = 2` used to *cost* (pool
    /// threads contending for one core plus per-batch scheduling) without
    /// buying any concurrency. Clamping routes such configs onto the exact
    /// sequential path — a pure cost change; results are bit-for-bit
    /// identical at every worker count by construction. For the same
    /// reason a pool that fails to build also falls back to sequential.
    fn worker_pool(&self) -> Option<ThreadPool> {
        let workers = effective_parallelism(self.config.parallelism);
        if workers > 1 {
            ThreadPoolBuilder::new().num_threads(workers).build().ok()
        } else {
            None
        }
    }

    /// Parameter tensors with their names, in registration order — the
    /// stable layout contract of the binary model snapshot. Registration
    /// order is fixed by [`GraphGenerator::new`], so index `i` here always
    /// denotes the same logical parameter for a given config.
    pub fn params(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.store
            .iter_ids()
            .map(|(id, name)| (name, self.store.value(id)))
    }

    /// Rebuilds a generator from its configuration and a parameter
    /// snapshot (tensors in registration order, as produced by
    /// [`GraphGenerator::params`]). Fails if the tensor count or any shape
    /// disagrees with what the config registers — the guard that a
    /// snapshot written by an incompatible config cannot silently load.
    pub fn from_params(
        config: GeneratorConfig,
        params: Vec<Tensor>,
    ) -> Result<GraphGenerator, String> {
        let mut generator = GraphGenerator::new(config);
        if params.len() != generator.store.len() {
            return Err(format!(
                "parameter snapshot holds {} tensors, config registers {}",
                params.len(),
                generator.store.len()
            ));
        }
        for (i, tensor) in params.into_iter().enumerate() {
            generator
                .store
                .load_tensor_at(i, tensor)
                .map_err(|e| e.to_string())?;
        }
        Ok(generator)
    }

    /// Computes node states for a partial graph: initial embeddings (type
    /// table rows; the dataset anchor uses the projected content
    /// embedding) refined by `prop_rounds` of bidirectional message
    /// passing with GRU updates.
    fn node_states(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let n = graph.types.len();
        let hdim = self.config.hidden;
        let ds_base = self.ds_proj.forward(tape, ds_input)?;
        let h0 = match graph.types.get(1..) {
            Some(rest) if !rest.is_empty() => {
                let table = tape.param(self.type_emb);
                let rest = tape.gather_rows(table, rest)?;
                tape.concat_rows(ds_base, rest)?
            }
            _ => ds_base,
        };
        let mut h = tape.tanh(h0);
        for _ in 0..self.config.prop_rounds {
            let agg = if graph.edges.is_empty() {
                tape.input(Tensor::zeros(n, hdim))
            } else {
                let src: Vec<usize> = graph.edges.iter().map(|(u, _)| *u).collect();
                let dst: Vec<usize> = graph.edges.iter().map(|(_, v)| *v).collect();
                let hs = tape.gather_rows(h, &src)?;
                let hd = tape.gather_rows(h, &dst)?;
                let fwd_in = tape.concat_cols(hs, hd)?;
                let m_f = self.msg_fwd.forward(tape, fwd_in)?;
                let agg_f = tape.scatter_sum_rows(m_f, &dst, n)?;
                let bwd_in = tape.concat_cols(hd, hs)?;
                let m_b = self.msg_bwd.forward(tape, bwd_in)?;
                let agg_b = tape.scatter_sum_rows(m_b, &src, n)?;
                tape.add(agg_f, agg_b)?
            };
            h = self.gru.forward(tape, h, agg)?;
        }
        Ok(h)
    }

    /// Graph-level readout: projected sum of node states.
    fn graph_state(&self, tape: &mut Tape, h: TensorRef) -> kgpip_nn::Result<TensorRef> {
        let s = tape.sum_rows(h);
        let p = self.graph_proj.forward(tape, s)?;
        Ok(tape.tanh(p))
    }

    fn addnode_logits(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let h = self.node_states(tape, graph, ds_input)?;
        let hg = self.graph_state(tape, h)?;
        // Condition the decision directly on the dataset embedding (the
        // conditional-generation modification of §3.5): without this the
        // dataset signal must survive propagation + sum pooling, and in
        // practice the head collapses to the corpus-global mode.
        let ds = self.ds_proj.forward(tape, ds_input)?;
        let joint = tape.concat_cols(hg, ds)?;
        self.head_addnode.forward(tape, joint)
    }

    fn addedge_logit(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let h = self.node_states(tape, graph, ds_input)?;
        let hg = self.graph_state(tape, h)?;
        let newest = graph.types.len() - 1;
        let ht = tape.gather_rows(h, &[newest])?;
        let ds = self.ds_proj.forward(tape, ds_input)?;
        let pair = tape.concat_cols(hg, ht)?;
        let joint = tape.concat_cols(pair, ds)?;
        self.head_addedge.forward(tape, joint)
    }

    /// 1×(n−1) logits over candidate source nodes for an edge into the
    /// newest node.
    fn pick_logits(
        &self,
        tape: &mut Tape,
        graph: &TypedGraph,
        ds_input: TensorRef,
    ) -> kgpip_nn::Result<TensorRef> {
        let h = self.node_states(tape, graph, ds_input)?;
        let newest = graph.types.len() - 1;
        let candidates: Vec<usize> = (0..newest).collect();
        let hu = tape.gather_rows(h, &candidates)?;
        let ht = tape.gather_rows(h, &vec![newest; newest])?;
        let joint = tape.concat_cols(hu, ht)?;
        let scores = self.head_pick.forward(tape, joint)?;
        tape.reshape(scores, 1, newest)
    }

    /// The dataset embedding as a 1 × `embed_dim` input row (truncated or
    /// zero-padded).
    pub(crate) fn ds_tensor(&self, embedding: &[f64]) -> Tensor {
        let mut t = Tensor::zeros(1, self.config.embed_dim);
        for (o, x) in t.as_mut_slice().iter_mut().zip(embedding) {
            *o = *x as f32;
        }
        t
    }

    /// Teacher-forced loss of one example; returns the scalar loss ref.
    fn example_loss(&self, tape: &mut Tape, example: &TrainExample) -> kgpip_nn::Result<TensorRef> {
        let ds_input = tape.input(self.ds_tensor(&example.dataset_embedding));
        let decisions = decisions_for(&example.graph.types, &example.graph.edges);
        let anchor = example
            .graph
            .types
            .first()
            .copied()
            .ok_or_else(|| kgpip_nn::NnError::Shape("training graph has no nodes".into()))?;
        let mut partial = TypedGraph {
            types: vec![anchor],
            edges: Vec::new(),
        };
        let mut losses: Vec<TensorRef> = Vec::new();
        for decision in decisions {
            match decision {
                Decision::AddNode(ty) => {
                    let logits = self.addnode_logits(tape, &partial, ds_input)?;
                    losses.push(tape.softmax_ce(logits, &[ty])?);
                    partial.types.push(ty);
                }
                Decision::Stop => {
                    let logits = self.addnode_logits(tape, &partial, ds_input)?;
                    losses.push(tape.softmax_ce(logits, &[self.config.vocab_size])?);
                }
                Decision::AddEdge(yes) => {
                    let logit = self.addedge_logit(tape, &partial, ds_input)?;
                    losses.push(tape.sigmoid_bce(logit, &[f32::from(yes)])?);
                }
                Decision::PickNode(u) => {
                    let logits = self.pick_logits(tape, &partial, ds_input)?;
                    losses.push(tape.softmax_ce(logits, &[u])?);
                    let newest = partial.types.len() - 1;
                    partial.edges.push((u, newest));
                }
            }
        }
        let count = losses.len();
        let mut terms = losses.into_iter();
        let first = terms
            .next()
            .ok_or_else(|| kgpip_nn::NnError::Shape("training graph has no decisions".into()))?;
        let mut total = first;
        for l in terms {
            total = tape.add(total, l)?;
        }
        Ok(tape.scale(total, 1.0 / count as f32))
    }

    /// Teacher-forced loss and parameter gradients of one example.
    fn example_grad(
        &self,
        tape: &mut Tape,
        example: &TrainExample,
    ) -> kgpip_nn::Result<ExampleGrad> {
        let loss = self.example_loss(tape, example)?;
        let value = tape.value(loss).get(0, 0);
        Ok((value, tape.backward(loss)?))
    }

    /// Teacher-forced loss and parameter gradients for each example index
    /// in `idxs`, computed on one reusable tape. Each example's result is
    /// a pure function of the parameters and the example — independent of
    /// how indices are chunked across workers.
    fn forward_chunk(&self, idxs: &[usize], examples: &[TrainExample]) -> Vec<ExampleGrad> {
        let mut tape = Tape::new(&self.store);
        idxs.iter()
            .filter_map(|&i| examples.get(i))
            .map(|example| {
                tape.reset();
                shapes_hold(self.example_grad(&mut tape, example))
            })
            .collect()
    }

    /// Per-example `(loss, grads)` for one mini-batch, in batch order.
    /// With a pool, the batch is split into contiguous chunks (one tape
    /// per worker) and results are re-flattened in batch-index order, so
    /// the output is identical to the sequential path.
    // xlint: allow(unclamped-rayon): the pool argument is built by worker_pool(), which clamps through effective_parallelism; `None` means sequential
    fn batch_forward(
        &self,
        batch: &[usize],
        examples: &[TrainExample],
        pool: Option<&ThreadPool>,
    ) -> Vec<ExampleGrad> {
        match pool {
            None => self.forward_chunk(batch, examples),
            Some(pool) => {
                let per_worker = batch.len().div_ceil(pool.current_num_threads().max(1));
                let chunks: Vec<&[usize]> = batch.chunks(per_worker.max(1)).collect();
                let per_chunk: Vec<Vec<ExampleGrad>> = pool.install(|| {
                    chunks
                        .par_iter()
                        .map(|c| self.forward_chunk(c, examples))
                        .collect()
                });
                per_chunk.into_iter().flatten().collect()
            }
        }
    }

    /// Trains with Adam over shuffled mini-batches; returns the mean loss
    /// per epoch. With `config.parallelism` > 1 the per-example forward
    /// and backward passes of each batch run on a worker pool; the
    /// gradient reduction always happens afterwards in batch-index order,
    /// so losses and parameters are bit-for-bit identical at any worker
    /// count (proven by `tests/determinism.rs`).
    pub fn train(&mut self, examples: &[TrainExample]) -> Vec<f32> {
        assert!(!examples.is_empty(), "training set must be non-empty");
        let pool = self.worker_pool();
        let mut adam = Adam::new(self.config.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _epoch in 0..self.config.epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            for batch in order.chunks(self.config.batch_size.max(1)) {
                self.store.zero_grads();
                let per_example = self.batch_forward(batch, examples, pool.as_ref());
                let scale = 1.0 / batch.len() as f32;
                for (value, grads) in per_example {
                    epoch_loss += value;
                    for (id, g) in grads {
                        self.store.accumulate_grad_scaled(id, &g, scale);
                    }
                }
                self.store.clip_grads(5.0);
                adam.step(&mut self.store);
            }
            epoch_losses.push(epoch_loss / examples.len() as f32);
        }
        epoch_losses
    }

    /// Mean teacher-forced loss over a set of examples (no training).
    /// Parallelizes over `config.parallelism` workers; per-example losses
    /// are summed in example order, so the result is identical at any
    /// worker count.
    pub fn evaluate(&self, examples: &[TrainExample]) -> f32 {
        let idxs: Vec<usize> = (0..examples.len()).collect();
        let per_example: Vec<f32> = match self.worker_pool() {
            None => self.eval_chunk(&idxs, examples),
            Some(pool) => {
                let per_worker = idxs.len().div_ceil(pool.current_num_threads().max(1));
                let chunks: Vec<&[usize]> = idxs.chunks(per_worker.max(1)).collect();
                let per_chunk: Vec<Vec<f32>> = pool.install(|| {
                    chunks
                        .par_iter()
                        .map(|c| self.eval_chunk(c, examples))
                        .collect()
                });
                per_chunk.into_iter().flatten().collect()
            }
        };
        per_example.iter().sum::<f32>() / examples.len().max(1) as f32
    }

    /// Loss of each example index in `idxs` on one reusable tape.
    fn eval_chunk(&self, idxs: &[usize], examples: &[TrainExample]) -> Vec<f32> {
        let mut tape = Tape::new(&self.store);
        idxs.iter()
            .filter_map(|&i| examples.get(i))
            .map(|example| {
                tape.reset();
                let loss = shapes_hold(self.example_loss(&mut tape, example));
                tape.value(loss).get(0, 0)
            })
            .collect()
    }

    /// Generates one graph conditionally from a prefix subgraph and a
    /// dataset content embedding. `temperature` > 1 flattens the decision
    /// distributions (more exploration); 1.0 samples the model faithfully.
    ///
    /// Runs on the forward-only engine ([`crate::infer`]). Its kernels
    /// cannot fail for a generator built by [`GraphGenerator::new`] or
    /// [`GraphGenerator::from_params`] and a prefix over its vocabulary;
    /// if one does (say, a prefix type id outside the vocabulary), the
    /// prefix comes back unchanged with a `-inf` score.
    pub fn generate(
        &self,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        temperature: f64,
        rng: &mut StdRng,
    ) -> GeneratedGraph {
        let mut scratch = Scratch::default();
        Engine::new(self, dataset_embedding, prefix, &mut scratch)
            .and_then(|engine| engine.sample(&mut scratch, temperature, rng))
            .unwrap_or_else(|_| GeneratedGraph {
                graph: prefix.clone(),
                log_prob: f64::NEG_INFINITY,
            })
    }

    /// Generates `k` graphs (deduplicated by structure, ranked by score) —
    /// the top-K predicted pipelines of §3.6.
    ///
    /// # Sampling budget and determinism
    ///
    /// The budget is `attempts = (k·4).max(8)` sampled candidates. Attempt
    /// `i` draws from its own RNG stream seeded with
    /// `seed ⊕ (i · GOLDEN)`, so each attempt's graph is a pure function
    /// of `(seed, i)` — never of worker count or of which attempts ran
    /// before it. Attempts are processed in fixed waves of [`SAMPLE_WAVE`]
    /// (parallelized over `config.parallelism` workers, merged in attempt
    /// order); when `config.distinct_target` is `Some(t)`, sampling stops
    /// at the first wave boundary with `t` distinct graphs collected,
    /// otherwise the whole budget is spent. Both the candidate set and the
    /// early-exit point are therefore bit-for-bit identical at any worker
    /// count (proven by `tests/determinism.rs`).
    ///
    /// The dataset projection, the prefix's node states and the first
    /// add-node distribution are computed once per call and shared by all
    /// attempts ([`crate::infer`]). An attempt whose kernels fail (see
    /// [`GraphGenerator::generate`]) is dropped, so the result may hold
    /// fewer than `k` graphs. Ranking uses a total order: a NaN score
    /// ranks last instead of aborting the call.
    pub fn generate_top_k(
        &self,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        k: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<GeneratedGraph> {
        let attempts = (k * 4).max(8);
        let mut scratch = Scratch::default();
        let Ok(engine) = Engine::new(self, dataset_embedding, prefix, &mut scratch) else {
            return Vec::new();
        };
        let pool = self.worker_pool();
        let attempt_rng =
            |attempt: u64| StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(RNG_STREAM_GOLDEN));
        let mut out: Vec<GeneratedGraph> = Vec::new();
        let mut next = 0usize;
        while next < attempts {
            let wave: Vec<u64> = (next..(next + SAMPLE_WAVE).min(attempts))
                .map(|i| i as u64)
                .collect();
            next += wave.len();
            let sampled: Vec<kgpip_nn::Result<GeneratedGraph>> = match &pool {
                Some(pool) => pool.install(|| {
                    wave.par_iter()
                        .map(|&i| {
                            engine.sample(&mut Scratch::default(), temperature, &mut attempt_rng(i))
                        })
                        .collect()
                }),
                None => wave
                    .iter()
                    .map(|&i| engine.sample(&mut scratch, temperature, &mut attempt_rng(i)))
                    .collect(),
            };
            for g in sampled.into_iter().flatten() {
                if !out.iter().any(|o| o.graph == g.graph) {
                    out.push(g);
                }
            }
            if self.config.distinct_target.is_some_and(|t| out.len() >= t) {
                break;
            }
        }
        out.sort_by(|a, b| rank_key(b.log_prob).total_cmp(&rank_key(a.log_prob)));
        out.truncate(k);
        out
    }
}

/// The descending-rank key of a graph score: NaN maps to `-inf` (ranked
/// last, ties kept in attempt order by the stable sort) and `-0.0` to
/// `+0.0`, so `total_cmp` on keys orders every non-NaN score exactly as
/// `partial_cmp` does.
fn rank_key(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score + 0.0
    }
}

/// Unwraps a teacher-forced forward pass. Training and evaluation build
/// every tensor from the config that registered the parameters and from
/// graphs whose decisions `decisions_for` derived, so the pass cannot
/// fail on a shape.
fn shapes_hold<T>(pass: kgpip_nn::Result<T>) -> T {
    // xlint: allow(panic-in-serve-path): training/evaluation only (train, evaluate); serving samples through infer.rs, which returns every error
    pass.expect("training graph shapes are internally consistent")
}

// The worker-count clamp moved to the bottom crate so every parallel
// stage (embeddings, trial evaluation, mining) can consult one canonical
// definition; re-exported here under its historical path.
pub use kgpip_tabular::effective_parallelism;

/// The taped sampling loop the forward-only engine replaced, kept only as
/// the test oracle: every decision resets a tape and re-runs the full
/// forward pass over the partial graph.
#[cfg(test)]
impl GraphGenerator {
    fn generate_with_tape<'s>(
        &'s self,
        tape: &mut Tape<'s>,
        ds_tensor: &Tensor,
        prefix: &TypedGraph,
        temperature: f64,
        rng: &mut StdRng,
    ) -> GeneratedGraph {
        use crate::infer::{sample_softmax, sigmoid};
        use rand::Rng;
        let mut graph = prefix.clone();
        let mut log_prob = 0.0f64;
        let stop_class = self.config.vocab_size;
        while graph.types.len() < self.config.max_nodes {
            // Decide the next node type (or stop).
            let (choice, lp) = {
                tape.reset();
                let ds = tape.input_from(ds_tensor);
                let logits = self.addnode_logits(tape, &graph, ds).unwrap();
                sample_softmax(tape.value(logits).row(0), temperature, &mut [], rng).unwrap()
            };
            log_prob += lp;
            if choice == stop_class {
                break;
            }
            graph.types.push(choice);
            let newest = graph.types.len() - 1;
            // Edge loop for the new node.
            let mut edges_added = 0usize;
            while edges_added < self.config.max_edges_per_node {
                let (add, lp) = {
                    tape.reset();
                    let ds = tape.input_from(ds_tensor);
                    let logit = self.addedge_logit(tape, &graph, ds).unwrap();
                    let p = sigmoid(tape.value(logit).get(0, 0) as f64 / temperature);
                    let add = rng.gen::<f64>() < p;
                    (
                        add,
                        if add {
                            p.max(1e-12).ln()
                        } else {
                            (1.0 - p).max(1e-12).ln()
                        },
                    )
                };
                log_prob += lp;
                if !add {
                    break;
                }
                // Pick the source node, masking already-present edges.
                let mut masked: Vec<usize> = graph
                    .edges
                    .iter()
                    .filter(|(_, v)| *v == newest)
                    .map(|(u, _)| *u)
                    .collect();
                let (source, lp) = {
                    tape.reset();
                    let ds = tape.input_from(ds_tensor);
                    let logits = self.pick_logits(tape, &graph, ds).unwrap();
                    sample_softmax(tape.value(logits).row(0), temperature, &mut masked, rng)
                        .unwrap()
                };
                log_prob += lp;
                graph.edges.push((source, newest));
                edges_added += 1;
                if graph.edges.iter().filter(|(_, v)| *v == newest).count() >= newest {
                    break; // connected to every earlier node already
                }
            }
        }
        GeneratedGraph { graph, log_prob }
    }

    /// [`GraphGenerator::generate`] on the tape.
    fn generate_tape(
        &self,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        temperature: f64,
        rng: &mut StdRng,
    ) -> GeneratedGraph {
        let ds = self.ds_tensor(dataset_embedding);
        let mut tape = Tape::new(&self.store);
        self.generate_with_tape(&mut tape, &ds, prefix, temperature, rng)
    }

    /// [`GraphGenerator::generate_top_k`] on the tape, sequentially.
    fn generate_top_k_tape(
        &self,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        k: usize,
        temperature: f64,
        seed: u64,
    ) -> Vec<GeneratedGraph> {
        let attempts = (k * 4).max(8);
        let ds = self.ds_tensor(dataset_embedding);
        let mut out: Vec<GeneratedGraph> = Vec::new();
        let mut next = 0usize;
        while next < attempts {
            let wave_end = (next + SAMPLE_WAVE).min(attempts);
            for attempt in next as u64..wave_end as u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(RNG_STREAM_GOLDEN));
                let mut tape = Tape::new(&self.store);
                let g = self.generate_with_tape(&mut tape, &ds, prefix, temperature, &mut rng);
                if !out.iter().any(|o| o.graph == g.graph) {
                    out.push(g);
                }
            }
            next = wave_end;
            if self.config.distinct_target.is_some_and(|t| out.len() >= t) {
                break;
            }
        }
        out.sort_by(|a, b| b.log_prob.partial_cmp(&a.log_prob).unwrap());
        out.truncate(k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::sample_softmax;

    /// A tiny deterministic corpus: dataset A always uses
    /// [read_csv -> standard_scaler -> xgboost], dataset B always uses
    /// [read_csv -> logistic_regression].
    fn corpus(vocab: &OpVocab) -> Vec<TrainExample> {
        let ds = vocab.id(PipelineOp::Dataset);
        let read = vocab.id(PipelineOp::ReadCsv);
        let scaler = vocab.id(PipelineOp::Transformer(1));
        let xgb = vocab.id(PipelineOp::Estimator(11));
        let logreg = vocab.id(PipelineOp::Estimator(0));
        let mut emb_a = vec![0.0; 48];
        emb_a[0] = 1.0;
        let mut emb_b = vec![0.0; 48];
        emb_b[1] = 1.0;
        let mut out = Vec::new();
        for _ in 0..6 {
            out.push(TrainExample {
                dataset_embedding: emb_a.clone(),
                graph: TypedGraph {
                    types: vec![ds, read, scaler, xgb],
                    edges: vec![(0, 1), (1, 2), (2, 3)],
                },
            });
            out.push(TrainExample {
                dataset_embedding: emb_b.clone(),
                graph: TypedGraph {
                    types: vec![ds, read, logreg],
                    edges: vec![(0, 1), (1, 2)],
                },
            });
        }
        out
    }

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            hidden: 16,
            prop_rounds: 1,
            epochs: 25,
            batch_size: 4,
            learning_rate: 0.02,
            seed: 3,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut generator = GraphGenerator::new(small_config());
        let losses = generator.train(&examples);
        assert!(losses.len() == 25);
        assert!(
            losses[losses.len() - 1] < losses[0] * 0.5,
            "loss {} -> {}",
            losses[0],
            losses[losses.len() - 1]
        );
    }

    #[test]
    fn trained_generator_reproduces_conditioned_pipelines() {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut generator = GraphGenerator::new(small_config());
        generator.train(&examples);
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        // Dataset A should mostly produce pipelines ending in xgboost.
        let mut emb_a = vec![0.0; 48];
        emb_a[0] = 1.0;
        let graphs = generator.generate_top_k(&emb_a, &prefix, 3, 1.0, 7);
        assert!(!graphs.is_empty());
        let xgb = vocab.id(PipelineOp::Estimator(11));
        assert!(
            graphs[0].graph.types.contains(&xgb),
            "top graph for dataset A should contain xgboost: {:?}",
            graphs[0]
                .graph
                .types
                .iter()
                .map(|&t| vocab.op(t).name())
                .collect::<Vec<_>>()
        );
        // Scores are finite and sorted descending.
        for pair in graphs.windows(2) {
            assert!(pair[0].log_prob >= pair[1].log_prob);
        }
        assert!(graphs.iter().all(|g| g.log_prob.is_finite()));
    }

    #[test]
    fn generation_respects_caps_and_prefix() {
        let vocab = OpVocab::new();
        let generator = GraphGenerator::new(GeneratorConfig {
            max_nodes: 5,
            max_edges_per_node: 2,
            hidden: 8,
            prop_rounds: 1,
            ..GeneratorConfig::default()
        });
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let g = generator.generate(&vec![0.1; 48], &prefix, 1.0, &mut rng);
            assert!(g.graph.types.len() <= 5);
            assert_eq!(g.graph.types[0], vocab.id(PipelineOp::Dataset));
            assert_eq!(g.graph.types[1], vocab.id(PipelineOp::ReadCsv));
            assert!(g.graph.edges.contains(&(0, 1)));
            // No duplicate edges.
            let mut edges = g.graph.edges.clone();
            edges.sort_unstable();
            let before = edges.len();
            edges.dedup();
            assert_eq!(edges.len(), before);
            // Per-node incoming cap.
            for t in 0..g.graph.types.len() {
                let incoming = g.graph.edges.iter().filter(|(_, v)| *v == t).count();
                assert!(incoming <= 2 || t == 1);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let vocab = OpVocab::new();
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            ..GeneratorConfig::default()
        });
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        let a = generator.generate_top_k(&vec![0.5; 48], &prefix, 3, 1.0, 42);
        let b = generator.generate_top_k(&vec![0.5; 48], &prefix, 3, 1.0, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph);
        }
    }

    #[test]
    fn typed_graph_encode_decode_roundtrip() {
        let vocab = OpVocab::new();
        let g = PipelineGraph {
            ops: vec![
                PipelineOp::Dataset,
                PipelineOp::ReadCsv,
                PipelineOp::Transformer(3),
                PipelineOp::Estimator(12),
            ],
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        let typed = TypedGraph::encode(&g, &vocab);
        assert_eq!(typed.decode(&vocab), g);
    }

    #[test]
    fn evaluate_matches_training_direction() {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut generator = GraphGenerator::new(small_config());
        let before = generator.evaluate(&examples);
        generator.train(&examples);
        let after = generator.evaluate(&examples);
        assert!(after < before, "eval loss {before} -> {after}");
    }

    #[test]
    fn sample_softmax_masks_and_normalizes() {
        let mut rng = StdRng::seed_from_u64(1);
        // Class 1 has overwhelming logit but is masked.
        let (choice, lp) = sample_softmax(&[0.0, 100.0, 0.1], 1.0, &mut [1], &mut rng).unwrap();
        assert_ne!(choice, 1);
        assert!(lp <= 0.0);
        // Every class masked (or none to draw from): no sample, no panic.
        assert_eq!(
            sample_softmax(&[0.5, 0.2], 1.0, &mut [1, 0], &mut rng),
            None
        );
        assert_eq!(sample_softmax(&[], 1.0, &mut [], &mut rng), None);
    }

    #[test]
    fn malformed_prefixes_degrade_without_panicking() {
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 2,
            ..GeneratorConfig::default()
        });
        let emb = vec![0.1; 48];
        let out_of_vocab = TypedGraph {
            types: vec![0, 10_000],
            edges: vec![(0, 1)],
        };
        let dangling_edge = TypedGraph {
            types: vec![0, 1],
            edges: vec![(0, 5)],
        };
        let empty = TypedGraph {
            types: vec![],
            edges: vec![],
        };
        for prefix in [out_of_vocab, dangling_edge, empty] {
            assert!(generator
                .generate_top_k(&emb, &prefix, 3, 1.0, 1)
                .is_empty());
            let g = generator.generate(&emb, &prefix, 1.0, &mut StdRng::seed_from_u64(0));
            assert_eq!(g.graph, prefix);
            assert_eq!(g.log_prob, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn nan_scores_rank_last_and_keep_finite_order() {
        let scores = [-1.5, f64::NAN, -0.25, -0.0, 0.0, -7.0, f64::NAN];
        let mut ranked: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| rank_key(b.1).total_cmp(&rank_key(a.1)));
        let order: Vec<usize> = ranked.iter().map(|(i, _)| *i).collect();
        // ±0 tie keeps insertion order; NaNs trail in insertion order.
        assert_eq!(order, vec![3, 4, 2, 0, 5, 1, 6]);
        let finite: Vec<(usize, f64)> = scores
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| !s.is_nan())
            .collect();
        let mut by_partial = finite.clone();
        by_partial.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut by_total = finite;
        by_total.sort_by(|a, b| rank_key(b.1).total_cmp(&rank_key(a.1)));
        assert_eq!(by_partial, by_total);
    }

    /// Oracle grid: hidden ∈ {8, 12, 32} × prop_rounds ∈ {1, 2, 3}, each
    /// untrained and trained; node/edge caps and the distinct-target early
    /// exit alternate across the grid so both settings of each meet every
    /// width and depth.
    fn oracle_generators() -> Vec<(String, GraphGenerator)> {
        let vocab = OpVocab::new();
        let examples = corpus(&vocab);
        let mut out = Vec::new();
        let mut i = 0usize;
        for hidden in [8usize, 12, 32] {
            for prop_rounds in [1usize, 2, 3] {
                let small = i.is_multiple_of(2);
                let cfg = GeneratorConfig {
                    hidden,
                    prop_rounds,
                    max_nodes: if small { 6 } else { 12 },
                    max_edges_per_node: if small { 1 } else { 3 },
                    distinct_target: (i % 3 == 1).then_some(3),
                    epochs: 2,
                    batch_size: 4,
                    learning_rate: 0.02,
                    seed: 100 + i as u64,
                    ..GeneratorConfig::default()
                };
                let name = format!("h{hidden}r{prop_rounds}");
                out.push((
                    format!("{name}/untrained"),
                    GraphGenerator::new(cfg.clone()),
                ));
                let mut trained = GraphGenerator::new(cfg);
                trained.train(&examples);
                out.push((format!("{name}/trained"), trained));
                i += 1;
            }
        }
        out
    }

    fn assert_same(engine: &[GeneratedGraph], oracle: &[GeneratedGraph], case: &str) {
        assert_eq!(engine.len(), oracle.len(), "{case}: candidate count");
        for (e, o) in engine.iter().zip(oracle) {
            assert_eq!(e.graph, o.graph, "{case}: graph");
            assert_eq!(
                e.log_prob.to_bits(),
                o.log_prob.to_bits(),
                "{case}: log_prob bits"
            );
        }
    }

    /// The forward-only engine reproduces the taped sampling loop bit for
    /// bit — graphs and `log_prob` bits — across widths, depths, caps,
    /// early exit, training state, seeds, temperatures, K and worker
    /// counts.
    #[test]
    fn oracle_engine_matches_tape_sampling() {
        let vocab = OpVocab::new();
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        let mut one_hot = vec![0.0; 48];
        one_hot[1] = 1.0;
        let dense: Vec<f64> = (0..48).map(|i| ((i as f64) * 0.37).cos()).collect();
        for (name, mut generator) in oracle_generators() {
            for (e, emb) in [&one_hot, &dense].into_iter().enumerate() {
                for seed in [5u64, 2024] {
                    for (k, temperature) in [(1usize, 0.8f64), (3, 1.2)] {
                        let oracle =
                            generator.generate_top_k_tape(emb, &prefix, k, temperature, seed);
                        for workers in [1usize, 2, 3, 8] {
                            generator.set_parallelism(workers);
                            let engine =
                                generator.generate_top_k(emb, &prefix, k, temperature, seed);
                            let case =
                                format!("{name}/e{e}/s{seed}/k{k}/t{temperature}/p{workers}");
                            assert_same(&engine, &oracle, &case);
                        }
                        generator.set_parallelism(1);
                    }
                    let mut rng_engine = StdRng::seed_from_u64(seed);
                    let mut rng_oracle = StdRng::seed_from_u64(seed);
                    for draw in 0..3 {
                        let engine = generator.generate(emb, &prefix, 1.0, &mut rng_engine);
                        let oracle = generator.generate_tape(emb, &prefix, 1.0, &mut rng_oracle);
                        let case = format!("{name}/e{e}/s{seed}/generate#{draw}");
                        assert_same(&[engine], &[oracle], &case);
                    }
                }
            }
        }
    }

    /// A prefix that already fills `max_nodes` samples nothing on either
    /// path, and a single-node prefix (no read_csv) works on both.
    #[test]
    fn oracle_engine_matches_tape_on_edge_case_prefixes() {
        let vocab = OpVocab::new();
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 2,
            max_nodes: 2,
            ..GeneratorConfig::default()
        });
        let full = TypedGraph::conditioning_prefix(&vocab);
        let emb = vec![0.2; 48];
        assert_same(
            &generator.generate_top_k(&emb, &full, 3, 1.0, 1),
            &generator.generate_top_k_tape(&emb, &full, 3, 1.0, 1),
            "full prefix",
        );
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 2,
            ..GeneratorConfig::default()
        });
        let anchor_only = TypedGraph {
            types: vec![vocab.id(PipelineOp::Dataset)],
            edges: Vec::new(),
        };
        assert_same(
            &generator.generate_top_k(&emb, &anchor_only, 3, 1.0, 1),
            &generator.generate_top_k_tape(&emb, &anchor_only, 3, 1.0, 1),
            "anchor-only prefix",
        );
    }

    /// Full forward-only node states equal the taped `node_states` bit for
    /// bit on irregular graphs (repeated types, fan-in, fan-out).
    #[test]
    fn oracle_node_states_match_tape() {
        let graphs = [
            TypedGraph {
                types: vec![0],
                edges: vec![],
            },
            TypedGraph {
                types: vec![0, 1, 4, 4, 9],
                edges: vec![(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (0, 4)],
            },
            TypedGraph {
                types: vec![0, 1, 2, 3, 2, 1, 7],
                edges: vec![(0, 1), (0, 2), (1, 3), (2, 5), (4, 6)],
            },
        ];
        for prop_rounds in 0..=3 {
            let generator = GraphGenerator::new(GeneratorConfig {
                hidden: 12,
                prop_rounds,
                seed: 9,
                ..GeneratorConfig::default()
            });
            let emb: Vec<f64> = (0..48).map(|i| (i as f64 * 0.21).sin()).collect();
            for graph in &graphs {
                let mut tape = Tape::new(&generator.store);
                let ds = tape.input(generator.ds_tensor(&emb));
                let h = generator.node_states(&mut tape, graph, ds).unwrap();
                let states = generator
                    .infer_node_states(&emb, graph, &mut Scratch::default())
                    .unwrap();
                assert_eq!(
                    states.states(),
                    tape.value(h),
                    "rounds {prop_rounds}: {graph:?}"
                );
            }
        }
    }
}
