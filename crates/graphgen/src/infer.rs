//! Forward-only inference engine: the sampling loop behind
//! [`GraphGenerator::generate`] and [`GraphGenerator::generate_top_k`].
//!
//! Training records every op on a `Tape` so it can run backward; sampling
//! needs none of that. This engine evaluates the same model with the
//! layers' `infer` kernels (weights read by borrow, per-worker scratch
//! buffers, no op recording) and skips three kinds of redundant work the
//! taped loop did on every add-node / add-edge / pick decision:
//!
//! * **Hoisting.** The projected dataset row, the prefix graph's node
//!   states and the first add-node distribution are computed once per
//!   request ([`Engine::new`]) and shared by every attempt.
//! * **Memoized node states.** [`NodeStates`] keeps every propagation
//!   round's states in step with its graph and is refreshed only when the
//!   graph changes. The graph-level readout is memoized too, so an
//!   add-node decision that follows a declined add-edge reuses it.
//! * **Incremental refresh.** A new node has no edges, so it only appends
//!   one row. A new edge `(u, t)` recomputes, in round `r` (1-based), only
//!   the rows within `r − 1` hops of `{u, t}`, and only the cached
//!   messages that read a row changed in round `r − 1` (or belong to the
//!   new edge).
//!
//! Every kernel computes each output row from its own input row alone
//! (`Tensor::matmul_into` accumulates ascending `k` per row, with the same
//! zero skip), and messages are summed into each row in global edge-list
//! order. Recomputing a subset of rows therefore reproduces the full
//! recompute — and the taped loop — bit for bit. DESIGN.md ("Forward-only
//! inference") writes the argument out; the `oracle` unit tests in
//! `model.rs`, the golden fixture in `tests/determinism.rs` and the
//! incremental-vs-full property in `tests/props.rs` check it.

use crate::model::{GeneratedGraph, GraphGenerator, TypedGraph};
use kgpip_nn::{GruScratch, NnError, Result, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Node states of one partial graph, for every propagation round, kept in
/// step with the graph they describe.
#[derive(Debug, Clone)]
pub struct NodeStates {
    graph: TypedGraph,
    /// `tanh` of the initial embeddings: the projected dataset row for
    /// node 0, type-table rows for the rest.
    initial: Tensor,
    /// One entry per propagation round, in order.
    rounds: Vec<Round>,
}

/// One propagation round's outputs, cached so that a graph edit
/// recomputes only the messages and states it reaches.
#[derive(Debug, Clone)]
struct Round {
    /// Row `e`: edge `e = (u, v)`'s forward message `msg_fwd([h_u, h_v])`
    /// from the previous round's states (edges × hidden).
    fwd: Tensor,
    /// Row `e`: the backward message `msg_bwd([h_v, h_u])`.
    bwd: Tensor,
    /// Node states after this round (nodes × hidden).
    states: Tensor,
}

/// The graph edit a refresh follows.
#[derive(Clone, Copy)]
enum Edit {
    /// A fresh graph: every message and row.
    All,
    /// Node `i` was appended (no edges yet).
    Node(usize),
    /// The last edge of the edge list was appended.
    Edge,
}

/// Reusable intermediates for one sampling worker. Buffers grow to the
/// largest graph served and are reused for every decision and attempt.
#[derive(Debug, Default)]
pub struct Scratch {
    changed: Vec<bool>,
    rows: Vec<usize>,
    pos: Vec<Option<usize>>,
    msg_edges: Vec<usize>,
    fwd_pairs: Vec<(usize, usize)>,
    bwd_pairs: Vec<(usize, usize)>,
    fwd_edges: Vec<usize>,
    fwd_dst: Vec<usize>,
    bwd_edges: Vec<usize>,
    bwd_src: Vec<usize>,
    pick_pairs: Vec<(usize, usize)>,
    pairs_in: Tensor,
    hidden: Tensor,
    msg: Tensor,
    agg: Tensor,
    agg_bwd: Tensor,
    h_prev: Tensor,
    h_new: Tensor,
    gru: GruScratch,
    pooled: Tensor,
    graph_state: Tensor,
    joint: Tensor,
    head_out: Tensor,
}

impl NodeStates {
    /// The graph these states describe.
    pub fn graph(&self) -> &TypedGraph {
        &self.graph
    }

    /// Final-round node states (n × hidden): what the decision heads read.
    pub fn states(&self) -> &Tensor {
        self.rounds.last().map_or(&self.initial, |r| &r.states)
    }

    /// Full computation for `graph`, anchored on the projected dataset row
    /// `ds_row` (1 × hidden).
    fn compute(
        model: &GraphGenerator,
        ds_row: &Tensor,
        graph: &TypedGraph,
        scratch: &mut Scratch,
    ) -> Result<NodeStates> {
        if graph.types.is_empty() {
            return Err(NnError::Shape(
                "a graph needs its dataset anchor node".into(),
            ));
        }
        let mut initial = ds_row.clone();
        for &ty in graph.types.get(1..).unwrap_or(&[]) {
            initial.push_row(type_row(model, ty)?)?;
        }
        initial.map_inplace(f32::tanh);
        let hdim = initial.cols();
        let round = Round {
            fwd: Tensor::zeros(graph.edges.len(), hdim),
            bwd: Tensor::zeros(graph.edges.len(), hdim),
            states: Tensor::zeros(initial.rows(), hdim),
        };
        let mut states = NodeStates {
            graph: graph.clone(),
            initial,
            rounds: vec![round; model.config.prop_rounds],
        };
        states.refresh(model, Edit::All, scratch)?;
        Ok(states)
    }

    /// Appends a node of type `ty`. It has no edges yet, so no message and
    /// no existing row changes: the new row is its `tanh`-ed type embedding
    /// carried through every round's GRU with a zero message.
    pub fn add_node(
        &mut self,
        model: &GraphGenerator,
        ty: usize,
        scratch: &mut Scratch,
    ) -> Result<()> {
        scratch.h_prev.assign_row_concat(&[type_row(model, ty)?]);
        scratch.h_prev.map_inplace(f32::tanh);
        self.initial.push_row(scratch.h_prev.as_slice())?;
        scratch.h_new.reset_zeros(1, self.initial.cols());
        for round in &mut self.rounds {
            round.states.push_row(scratch.h_new.as_slice())?;
        }
        self.graph.types.push(ty);
        let newest = self.graph.types.len() - 1;
        self.refresh(model, Edit::Node(newest), scratch)
    }

    /// Adds the edge `(u, t)`. In round `r` (1-based) only the rows within
    /// `r − 1` hops of `{u, t}` can change, and only the messages on edges
    /// touching a row that changed in round `r − 1` (plus the new edge's
    /// own); exactly those are recomputed.
    pub fn add_edge(
        &mut self,
        model: &GraphGenerator,
        u: usize,
        t: usize,
        scratch: &mut Scratch,
    ) -> Result<()> {
        let n = self.graph.types.len();
        if u >= n || t >= n {
            return Err(NnError::Index(format!(
                "edge ({u}, {t}) in a {n}-node graph"
            )));
        }
        self.graph.edges.push((u, t));
        scratch.h_new.reset_zeros(1, self.initial.cols());
        for round in &mut self.rounds {
            round.fwd.push_row(scratch.h_new.as_slice())?;
            round.bwd.push_row(scratch.h_new.as_slice())?;
        }
        self.refresh(model, Edit::Edge, scratch)
    }

    /// Brings every round up to date after `edit`. Round by round, the
    /// messages on edges that touch a row changed in the previous round
    /// (or that are new) are recomputed; the rows those messages reach,
    /// plus the changed rows themselves, are recomputed next; all other
    /// messages and rows are kept.
    fn refresh(&mut self, model: &GraphGenerator, edit: Edit, s: &mut Scratch) -> Result<()> {
        let store = &model.store;
        let n = self.graph.types.len();
        let edges = &self.graph.edges;
        let new_edge = match edit {
            Edit::Edge => edges.len().checked_sub(1),
            Edit::All | Edit::Node(_) => None,
        };
        // Rows whose previous-round state differs from before the edit.
        s.changed.clear();
        s.changed.extend((0..n).map(|i| match edit {
            Edit::All => true,
            Edit::Node(j) => i == j,
            Edit::Edge => false,
        }));
        let mut prev: &Tensor = &self.initial;
        for Round { fwd, bwd, states } in &mut self.rounds {
            let hdim = prev.cols();
            // Messages that read a changed row, or that are new.
            s.msg_edges.clear();
            s.fwd_pairs.clear();
            s.bwd_pairs.clear();
            for (e, &(a, b)) in edges.iter().enumerate() {
                if new_edge == Some(e) || is_set(&s.changed, a) || is_set(&s.changed, b) {
                    s.msg_edges.push(e);
                    s.fwd_pairs.push((a, b));
                    s.bwd_pairs.push((b, a));
                }
            }
            if !s.msg_edges.is_empty() {
                prev.gather_pairs_into(&s.fwd_pairs, &mut s.pairs_in)?;
                model
                    .msg_fwd
                    .infer(store, &s.pairs_in, &mut s.hidden, &mut s.msg)?;
                s.msg.copy_rows_to(&s.msg_edges, fwd)?;
                prev.gather_pairs_into(&s.bwd_pairs, &mut s.pairs_in)?;
                model
                    .msg_bwd
                    .infer(store, &s.pairs_in, &mut s.hidden, &mut s.msg)?;
                s.msg.copy_rows_to(&s.msg_edges, bwd)?;
            }
            // Rows to recompute: the changed ones and every endpoint of a
            // recomputed message. They are this round's changed rows.
            for &(a, b) in &s.fwd_pairs {
                set(&mut s.changed, a);
                set(&mut s.changed, b);
            }
            s.rows.clear();
            s.pos.clear();
            for (i, &flag) in s.changed.iter().enumerate() {
                s.pos.push(flag.then_some(s.rows.len()));
                if flag {
                    s.rows.push(i);
                }
            }
            // Each row sums its messages in global edge-list order from a
            // zero row: the order the taped `scatter_sum_rows` adds in.
            s.fwd_edges.clear();
            s.fwd_dst.clear();
            s.bwd_edges.clear();
            s.bwd_src.clear();
            for (e, &(a, b)) in edges.iter().enumerate() {
                if let Some(&Some(k)) = s.pos.get(b) {
                    s.fwd_edges.push(e);
                    s.fwd_dst.push(k);
                }
                if let Some(&Some(k)) = s.pos.get(a) {
                    s.bwd_edges.push(e);
                    s.bwd_src.push(k);
                }
            }
            s.agg.reset_zeros(s.rows.len(), hdim);
            s.msg.reset_zeros(s.fwd_edges.len(), hdim);
            fwd.gather_rows_into(&s.fwd_edges, &mut s.msg)?;
            s.msg.scatter_sum_rows_into(&s.fwd_dst, &mut s.agg)?;
            s.agg_bwd.reset_zeros(s.rows.len(), hdim);
            s.msg.reset_zeros(s.bwd_edges.len(), hdim);
            bwd.gather_rows_into(&s.bwd_edges, &mut s.msg)?;
            s.msg.scatter_sum_rows_into(&s.bwd_src, &mut s.agg_bwd)?;
            s.agg.add_assign(&s.agg_bwd)?;
            s.h_prev.reset_zeros(s.rows.len(), hdim);
            prev.gather_rows_into(&s.rows, &mut s.h_prev)?;
            model
                .gru
                .infer(store, &s.h_prev, &s.agg, &mut s.gru, &mut s.h_new)?;
            s.h_new.copy_rows_to(&s.rows, states)?;
            prev = states;
        }
        Ok(())
    }
}

/// Node type `ty`'s row of the type-embedding table.
fn type_row(model: &GraphGenerator, ty: usize) -> Result<&[f32]> {
    model
        .store
        .value(model.type_emb)
        .get_row(ty)
        .ok_or_else(|| NnError::Index(format!("node type {ty} outside the vocabulary")))
}

fn is_set(flags: &[bool], i: usize) -> bool {
    flags.get(i).copied().unwrap_or(false)
}

fn set(flags: &mut [bool], i: usize) {
    if let Some(flag) = flags.get_mut(i) {
        *flag = true;
    }
}

/// Per-request state shared by every sampling attempt: the projected
/// dataset row, the prefix graph's node states and the first add-node
/// distribution. [`Engine::sample`] runs one attempt; the decision heads
/// are public so benchmarks can time each decision kind on its own.
pub struct Engine<'g> {
    model: &'g GraphGenerator,
    ds_row: Tensor,
    prefix: NodeStates,
    /// Add-node logits for the prefix, or `None` when the prefix already
    /// fills `max_nodes` (no decision is ever sampled).
    first_addnode: Option<Vec<f32>>,
}

impl<'g> Engine<'g> {
    /// Hoists the per-request work out of the sampling loop.
    pub fn new(
        model: &'g GraphGenerator,
        dataset_embedding: &[f64],
        prefix: &TypedGraph,
        scratch: &mut Scratch,
    ) -> Result<Engine<'g>> {
        let ds_row = model.project_dataset(dataset_embedding)?;
        let prefix = NodeStates::compute(model, &ds_row, prefix, scratch)?;
        let mut engine = Engine {
            model,
            ds_row,
            prefix,
            first_addnode: None,
        };
        if engine.prefix.graph.types.len() < model.config.max_nodes {
            engine.readout(&engine.prefix, scratch)?;
            engine.first_addnode = Some(engine.addnode_logits(scratch)?.to_vec());
        }
        Ok(engine)
    }

    /// Node states of the prefix graph, shared by every attempt.
    pub fn prefix_states(&self) -> &NodeStates {
        &self.prefix
    }

    /// Computes the graph-level readout `tanh(graph_proj(Σ rows))` of
    /// `states` into `scratch`, where the add-node and add-edge heads read
    /// it.
    pub fn readout(&self, states: &NodeStates, s: &mut Scratch) -> Result<()> {
        states.states().sum_rows_into(&mut s.pooled);
        self.model
            .graph_proj
            .infer(&self.model.store, &s.pooled, &mut s.graph_state)?;
        s.graph_state.map_inplace(f32::tanh);
        Ok(())
    }

    /// Add-node logits (vocab + 1, the last one STOP) from the readout in
    /// `scratch`.
    pub fn addnode_logits<'s>(&self, s: &'s mut Scratch) -> Result<&'s [f32]> {
        s.joint
            .assign_row_concat(&[s.graph_state.as_slice(), self.ds_row.as_slice()]);
        self.model.head_addnode.infer(
            &self.model.store,
            &s.joint,
            &mut s.hidden,
            &mut s.head_out,
        )?;
        Ok(s.head_out.as_slice())
    }

    /// The add-edge logit for an edge into `newest`, from the readout in
    /// `scratch`.
    pub fn addedge_logit(
        &self,
        states: &NodeStates,
        newest: usize,
        s: &mut Scratch,
    ) -> Result<f32> {
        let h_newest = states
            .states()
            .get_row(newest)
            .ok_or_else(|| NnError::Index(format!("node {newest} has no state row")))?;
        s.joint
            .assign_row_concat(&[s.graph_state.as_slice(), h_newest, self.ds_row.as_slice()]);
        self.model.head_addedge.infer(
            &self.model.store,
            &s.joint,
            &mut s.hidden,
            &mut s.head_out,
        )?;
        s.head_out
            .as_slice()
            .first()
            .copied()
            .ok_or_else(|| NnError::Shape("add-edge head produced no logit".into()))
    }

    /// Logits over source nodes `0..newest` for an edge into `newest`.
    pub fn pick_logits<'s>(
        &self,
        states: &NodeStates,
        newest: usize,
        s: &'s mut Scratch,
    ) -> Result<&'s [f32]> {
        s.pick_pairs.clear();
        s.pick_pairs.extend((0..newest).map(|u| (u, newest)));
        states
            .states()
            .gather_pairs_into(&s.pick_pairs, &mut s.pairs_in)?;
        self.model.head_pick.infer(
            &self.model.store,
            &s.pairs_in,
            &mut s.hidden,
            &mut s.head_out,
        )?;
        Ok(s.head_out.as_slice())
    }

    /// One autoregressive sample from the prefix: the decision sequence
    /// and RNG draws of the taped loop, with states refreshed only when
    /// the graph changes.
    pub fn sample(
        &self,
        s: &mut Scratch,
        temperature: f64,
        rng: &mut StdRng,
    ) -> Result<GeneratedGraph> {
        let cfg = &self.model.config;
        let stop_class = cfg.vocab_size;
        let mut states = self.prefix.clone();
        let mut log_prob = 0.0f64;
        let mut shared_first = self.first_addnode.as_deref();
        // Whether `s.graph_state` describes the current graph.
        let mut readout_fresh = false;
        while states.graph.types.len() < cfg.max_nodes {
            let drawn = match shared_first.take() {
                Some(logits) => sample_softmax(logits, temperature, &mut [], rng),
                None => {
                    // Fresh after a declined add-edge: same graph.
                    if !readout_fresh {
                        self.readout(&states, s)?;
                    }
                    let logits = self.addnode_logits(s)?;
                    sample_softmax(logits, temperature, &mut [], rng)
                }
            };
            let (choice, lp) = drawn.ok_or_else(no_class)?;
            log_prob += lp;
            if choice == stop_class {
                break;
            }
            states.add_node(self.model, choice, s)?;
            readout_fresh = false;
            let newest = states.graph.types.len() - 1;
            let mut edges_added = 0usize;
            while edges_added < cfg.max_edges_per_node {
                if !readout_fresh {
                    self.readout(&states, s)?;
                    readout_fresh = true;
                }
                let logit = self.addedge_logit(&states, newest, s)?;
                let p = sigmoid(logit as f64 / temperature);
                let add = rng.gen::<f64>() < p;
                log_prob += if add {
                    p.max(1e-12).ln()
                } else {
                    (1.0 - p).max(1e-12).ln()
                };
                if !add {
                    break;
                }
                // Pick the source node, masking already-present edges.
                let mut masked: Vec<usize> = states
                    .graph
                    .edges
                    .iter()
                    .filter(|(_, v)| *v == newest)
                    .map(|(u, _)| *u)
                    .collect();
                let logits = self.pick_logits(&states, newest, s)?;
                let (source, lp) =
                    sample_softmax(logits, temperature, &mut masked, rng).ok_or_else(no_class)?;
                log_prob += lp;
                states.add_edge(self.model, source, newest, s)?;
                readout_fresh = false;
                edges_added += 1;
                if states
                    .graph
                    .edges
                    .iter()
                    .filter(|(_, v)| *v == newest)
                    .count()
                    >= newest
                {
                    break; // connected to every earlier node already
                }
            }
        }
        Ok(GeneratedGraph {
            graph: states.graph,
            log_prob,
        })
    }
}

fn no_class() -> NnError {
    NnError::Index("every class of a sampling decision is masked".into())
}

pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Temperature softmax sample over logits with class masking. Returns
/// `(choice, log probability of the choice at temperature 1)`, or `None`
/// when every class is masked.
pub(crate) fn sample_softmax(
    logits: &[f32],
    temperature: f64,
    masked: &mut [usize],
    rng: &mut StdRng,
) -> Option<(usize, f64)> {
    masked.sort_unstable();
    let allowed: Vec<(usize, f64)> = logits
        .iter()
        .enumerate()
        .filter(|(i, _)| masked.binary_search(i).is_err())
        .map(|(i, l)| (i, *l as f64))
        .collect();
    let last = *allowed.last()?;
    let max = allowed
        .iter()
        .map(|&(_, l)| l)
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = allowed
        .iter()
        .map(|&(_, l)| ((l - max) / temperature).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen::<f64>() * total;
    let mut pick = last;
    for (&candidate, w) in allowed.iter().zip(&weights) {
        draw -= w;
        if draw <= 0.0 {
            pick = candidate;
            break;
        }
    }
    // Report the temperature-1 log-prob for comparable scores across
    // temperatures.
    let lse: f64 = {
        let s: f64 = allowed.iter().map(|&(_, l)| (l - max).exp()).sum();
        max + s.ln()
    };
    Some((pick.0, pick.1 - lse))
}

impl GraphGenerator {
    /// The dataset anchor row `ds_proj(embedding)` (1 × hidden); the
    /// embedding is truncated or zero-padded to `embed_dim`.
    fn project_dataset(&self, embedding: &[f64]) -> Result<Tensor> {
        let mut ds_row = Tensor::default();
        self.ds_proj
            .infer(&self.store, &self.ds_tensor(embedding), &mut ds_row)?;
        Ok(ds_row)
    }

    /// Node states of `graph` conditioned on `dataset_embedding`, computed
    /// from scratch with the forward-only kernels. Grow the result with
    /// [`NodeStates::add_node`] / [`NodeStates::add_edge`]: the
    /// incremental refresh equals this full computation bit for bit.
    pub fn infer_node_states(
        &self,
        dataset_embedding: &[f64],
        graph: &TypedGraph,
        scratch: &mut Scratch,
    ) -> Result<NodeStates> {
        let ds_row = self.project_dataset(dataset_embedding)?;
        NodeStates::compute(self, &ds_row, graph, scratch)
    }
}
