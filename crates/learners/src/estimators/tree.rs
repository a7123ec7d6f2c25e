//! CART decision trees and tree ensembles (random forest, extra trees).

use super::{argmax_rows, check_fit_inputs, Estimator, EstimatorKind};
use crate::matrix::Matrix;
use crate::{LearnError, Result};
use kgpip_tabular::Task;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Hyperparameters shared by single trees and per-tree inside ensembles.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Fraction of features considered per split (0, 1].
    pub max_features: f64,
    /// Extra-trees mode: draw one random threshold per candidate feature
    /// instead of scanning all cut points.
    pub random_thresholds: bool,
    /// RNG seed for feature subsampling / random thresholds.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: 1.0,
            random_thresholds: false,
            seed: 0,
        }
    }
}

/// A node of a fitted tree, stored in a flat arena.
#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Class distribution (classification) or `[mean]` (regression).
    Leaf(Vec<f64>),
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
struct FittedTree {
    nodes: Vec<Node>,
    outputs: usize,
}

impl FittedTree {
    fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
                Node::Leaf(v) => return v,
            }
        }
    }

    fn depth_from(&self, at: usize) -> usize {
        match &self.nodes[at] {
            Node::Leaf(_) => 0,
            Node::Split { left, right, .. } => {
                1 + self.depth_from(*left).max(self.depth_from(*right))
            }
        }
    }
}

/// Impurity accumulator: gini for classification, variance for regression.
enum Criterion {
    Gini { classes: usize },
    Mse,
}

impl Criterion {
    /// Leaf value of a node whose targets, in row order, are `ys`.
    fn leaf_value(&self, ys: &[f64]) -> Vec<f64> {
        match self {
            Criterion::Gini { classes } => {
                let mut dist = vec![0.0f64; *classes];
                for &yv in ys {
                    let c = yv as usize;
                    if c < *classes {
                        dist[c] += 1.0;
                    }
                }
                let total: f64 = dist.iter().sum();
                if total > 0.0 {
                    for v in &mut dist {
                        *v /= total;
                    }
                }
                dist
            }
            Criterion::Mse => {
                let mean = ys.iter().sum::<f64>() / ys.len().max(1) as f64;
                vec![mean]
            }
        }
    }

    fn outputs(&self) -> usize {
        match self {
            Criterion::Gini { classes } => *classes,
            Criterion::Mse => 1,
        }
    }
}

/// State for an incremental best-split scan of one feature.
#[derive(Clone)]
struct SplitScan {
    /// Classification: left class counts; regression: (sum, sumsq) packed.
    left: Vec<f64>,
    right: Vec<f64>,
    left_n: usize,
    right_n: usize,
}

impl SplitScan {
    /// Everything on the right: the scan state before the first cut of a
    /// node whose targets, in row order, are `ys`.
    fn init(criterion: &Criterion, ys: &[f64]) -> SplitScan {
        match criterion {
            Criterion::Gini { classes } => {
                let mut right = vec![0.0; *classes];
                for &yv in ys {
                    let c = yv as usize;
                    if c < *classes {
                        right[c] += 1.0;
                    }
                }
                SplitScan {
                    left: vec![0.0; *classes],
                    right,
                    left_n: 0,
                    right_n: ys.len(),
                }
            }
            Criterion::Mse => {
                let sum: f64 = ys.iter().sum();
                let sumsq: f64 = ys.iter().map(|&yv| yv * yv).sum();
                SplitScan {
                    left: vec![0.0, 0.0],
                    right: vec![sum, sumsq],
                    left_n: 0,
                    right_n: ys.len(),
                }
            }
        }
    }

    fn move_left(&mut self, criterion: &Criterion, yv: f64) {
        match criterion {
            Criterion::Gini { classes } => {
                let c = yv as usize;
                if c < *classes {
                    self.left[c] += 1.0;
                    self.right[c] -= 1.0;
                }
            }
            Criterion::Mse => {
                self.left[0] += yv;
                self.left[1] += yv * yv;
                self.right[0] -= yv;
                self.right[1] -= yv * yv;
            }
        }
        self.left_n += 1;
        self.right_n -= 1;
    }

    /// Weighted impurity of the current partition (lower is better).
    fn impurity(&self, criterion: &Criterion) -> f64 {
        match criterion {
            Criterion::Gini { .. } => {
                let gini = |counts: &[f64], n: usize| -> f64 {
                    if n == 0 {
                        return 0.0;
                    }
                    let nf = n as f64;
                    1.0 - counts.iter().map(|c| (c / nf) * (c / nf)).sum::<f64>()
                };
                let total = (self.left_n + self.right_n) as f64;
                (self.left_n as f64 * gini(&self.left, self.left_n)
                    + self.right_n as f64 * gini(&self.right, self.right_n))
                    / total
            }
            Criterion::Mse => {
                let var_part = |acc: &[f64], n: usize| -> f64 {
                    if n == 0 {
                        return 0.0;
                    }
                    let nf = n as f64;
                    // n * variance = sumsq - sum^2/n
                    acc[1] - acc[0] * acc[0] / nf
                };
                let total = (self.left_n + self.right_n) as f64;
                (var_part(&self.left, self.left_n) + var_part(&self.right, self.right_n)) / total
            }
        }
    }
}

fn is_pure(ys: &[f64]) -> bool {
    ys.windows(2).all(|w| w[0] == w[1]) || ys.len() <= 1
}

/// The candidate features of one node: all of them, or a shuffled
/// `max_features` share drawn from `rng`.
fn node_features(d: usize, config: &TreeConfig, rng: &mut StdRng) -> Vec<usize> {
    let n_feats = ((config.max_features * d as f64).ceil() as usize).clamp(1, d);
    let mut feats: Vec<usize> = (0..d).collect();
    if n_feats < d {
        feats.shuffle(rng);
        feats.truncate(n_feats);
    }
    feats
}

/// Dense per-feature ranks of a training matrix, computed once per fit:
/// `ranks[f * n + r]` is the number of distinct values of column `f`
/// below `x[r, f]`. Ties are decided by `==`, so `0.0` and `-0.0` share a
/// rank — exactly the ties a stable sort by `partial_cmp` keeps in place.
struct Ranks {
    rows: usize,
    ranks: Vec<u32>,
    /// Distinct values per feature.
    distinct: Vec<usize>,
}

impl Ranks {
    /// Ranks of `x`, which holds no NaN (`check_fit_inputs`).
    fn new(x: &Matrix) -> Ranks {
        let (n, d) = (x.rows(), x.cols());
        let mut ranks = vec![0u32; n * d];
        let mut distinct = Vec::with_capacity(d);
        let mut column: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..d {
            column.clear();
            column.extend((0..n).map(|r| (x.get(r, f), r as u32)));
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let out = &mut ranks[f * n..(f + 1) * n];
            let mut rank = 0u32;
            for (i, &(v, r)) in column.iter().enumerate() {
                if i > 0 && v != column[i - 1].0 {
                    rank += 1;
                }
                out[r as usize] = rank;
            }
            distinct.push(rank as usize + 1);
        }
        Ranks {
            rows: n,
            ranks,
            distinct,
        }
    }

    fn of(&self, feature: usize, row: usize) -> u32 {
        self.ranks[feature * self.rows + row]
    }
}

/// The presorted CART builder. A tree is grown over *positions*: indices
/// into the tree's row list (the bootstrap draw, or every row), so a row
/// drawn twice occupies two positions. Every node owns one contiguous
/// segment `lo..hi` of `pos`, which lists its positions in ascending
/// order, and the same segment of each feature's block of `sorted`, which
/// lists them by (rank, position). That is exactly the order a stable
/// per-node sort of the node's rows produces, because splitting a node
/// stable-partitions every segment. So no node sorts, and every split,
/// threshold and leaf equals the per-node-sorting builder's to the bit.
///
/// Buffers are reused across the trees of a forest.
struct Builder<'a> {
    x: &'a Matrix,
    config: &'a TreeConfig,
    criterion: Criterion,
    /// Training ranks; `None` on the random-threshold path, which never
    /// scans in value order.
    ranks: Option<Ranks>,
    /// Position → training row.
    rows: Vec<usize>,
    /// Position → target.
    y: Vec<f64>,
    /// Position → rank, one block of `rows.len()` per feature.
    rank: Vec<u32>,
    /// Node segments of positions in ascending order.
    pos: Vec<u32>,
    /// Node segments of positions in (rank, position) order, one block of
    /// `rows.len()` per feature.
    sorted: Vec<u32>,
    /// Position → side of the split being applied.
    goes_left: Vec<bool>,
    /// The current node's targets in position order.
    node_y: Vec<f64>,
    scan: SplitScan,
    scratch: Vec<u32>,
    counts: Vec<usize>,
}

impl<'a> Builder<'a> {
    /// A builder for fits of `config` on `x` under `task`'s criterion:
    /// gini for classification, variance for regression.
    fn new(x: &'a Matrix, config: &'a TreeConfig, task: Task) -> Builder<'a> {
        let criterion = if task.is_classification() {
            Criterion::Gini {
                classes: task.num_classes().max(2),
            }
        } else {
            Criterion::Mse
        };
        Builder {
            x,
            config,
            scan: SplitScan::init(&criterion, &[]),
            criterion,
            ranks: (!config.random_thresholds).then(|| Ranks::new(x)),
            rows: Vec::new(),
            y: Vec::new(),
            rank: Vec::new(),
            pos: Vec::new(),
            sorted: Vec::new(),
            goes_left: Vec::new(),
            node_y: Vec::new(),
            scratch: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Grows one tree over the row list `rows`, drawing feature subsets
    /// and random thresholds from `rng` in the per-node-sorting builder's
    /// order (depth first, left before right).
    fn build(&mut self, rows: Vec<usize>, y: &[f64], rng: &mut StdRng) -> FittedTree {
        let m = rows.len();
        self.y.clear();
        self.y.extend(rows.iter().map(|&r| y[r]));
        self.pos.clear();
        self.pos.extend(0..m as u32);
        self.goes_left.clear();
        self.goes_left.resize(m, false);
        if let Some(ranks) = &self.ranks {
            // Counting sort of the positions by (rank, position), per
            // feature: positions are visited in ascending order, so each
            // rank's bucket fills in position order.
            let d = self.x.cols();
            self.rank.clear();
            self.sorted.clear();
            self.sorted.resize(d * m, 0);
            for f in 0..d {
                self.rank.extend(rows.iter().map(|&r| ranks.of(f, r)));
                let rank = &self.rank[f * m..(f + 1) * m];
                self.counts.clear();
                self.counts.resize(ranks.distinct[f] + 1, 0);
                for &k in rank {
                    self.counts[k as usize + 1] += 1;
                }
                for k in 1..self.counts.len() {
                    self.counts[k] += self.counts[k - 1];
                }
                let block = &mut self.sorted[f * m..(f + 1) * m];
                for (p, &k) in rank.iter().enumerate() {
                    block[self.counts[k as usize]] = p as u32;
                    self.counts[k as usize] += 1;
                }
            }
        }
        self.rows = rows;
        let mut nodes = Vec::new();
        self.node(0, m, 0, rng, &mut nodes);
        FittedTree {
            nodes,
            outputs: self.criterion.outputs(),
        }
    }

    fn leaf(&self, nodes: &mut Vec<Node>) -> usize {
        nodes.push(Node::Leaf(self.criterion.leaf_value(&self.node_y)));
        nodes.len() - 1
    }

    /// Grows the node over segment `lo..hi`; returns its arena index.
    fn node(
        &mut self,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut StdRng,
        nodes: &mut Vec<Node>,
    ) -> usize {
        self.node_y.clear();
        let y = &self.y;
        self.node_y
            .extend(self.pos[lo..hi].iter().map(|&p| y[p as usize]));
        let config = self.config;
        if depth >= config.max_depth || hi - lo < config.min_samples_split || is_pure(&self.node_y)
        {
            return self.leaf(nodes);
        }
        let feats = node_features(self.x.cols(), config, rng);
        let base = SplitScan::init(&self.criterion, &self.node_y);
        let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)
        for &f in &feats {
            let candidate = if config.random_thresholds {
                self.random_threshold_split(lo, hi, f, &base, rng)
            } else {
                self.best_exact_split(lo, hi, f, &base)
            };
            if let Some((imp, thr)) = candidate {
                if best.is_none_or(|(bi, _, _)| imp < bi) {
                    best = Some((imp, f, thr));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            return self.leaf(nodes);
        };
        let mut n_left = 0usize;
        for &p in &self.pos[lo..hi] {
            let left = self.x.get(self.rows[p as usize], feature) <= threshold;
            self.goes_left[p as usize] = left;
            n_left += usize::from(left);
        }
        if n_left < config.min_samples_leaf || hi - lo - n_left < config.min_samples_leaf {
            return self.leaf(nodes);
        }
        self.partition(lo, hi);
        let at = nodes.len();
        nodes.push(Node::Leaf(Vec::new())); // placeholder, patched below
        let left = self.node(lo, lo + n_left, depth + 1, rng, nodes);
        let right = self.node(lo + n_left, hi, depth + 1, rng, nodes);
        nodes[at] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    /// Stable-partitions segment `lo..hi` of `pos` and of every feature's
    /// block of `sorted` by `goes_left`, through one scratch buffer.
    fn partition(&mut self, lo: usize, hi: usize) {
        let m = self.rows.len();
        let blocks = if self.ranks.is_some() {
            self.x.cols()
        } else {
            0
        };
        let goes_left = &self.goes_left;
        let scratch = &mut self.scratch;
        let mut split = |segment: &mut [u32]| {
            scratch.clear();
            let mut kept = 0;
            for i in 0..segment.len() {
                let p = segment[i];
                if goes_left[p as usize] {
                    segment[kept] = p;
                    kept += 1;
                } else {
                    scratch.push(p);
                }
            }
            segment[kept..].copy_from_slice(scratch);
        };
        split(&mut self.pos[lo..hi]);
        for f in 0..blocks {
            split(&mut self.sorted[f * m + lo..f * m + hi]);
        }
    }

    /// Exhaustive scan of all cut points of `feature` over its presorted
    /// segment; returns the best (weighted impurity, threshold) honouring
    /// `min_samples_leaf`.
    fn best_exact_split(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        base: &SplitScan,
    ) -> Option<(f64, f64)> {
        let m = self.rows.len();
        let order = &self.sorted[feature * m + lo..feature * m + hi];
        let rank = &self.rank[feature * m..(feature + 1) * m];
        let (criterion, min_leaf) = (&self.criterion, self.config.min_samples_leaf);
        let scan = &mut self.scan;
        scan.clone_from(base);
        let mut best: Option<(f64, f64)> = None;
        for w in 0..order.len() - 1 {
            let (p, next_p) = (order[w] as usize, order[w + 1] as usize);
            scan.move_left(criterion, self.y[p]);
            if rank[p] == rank[next_p] {
                continue; // can't cut between equal values
            }
            if scan.right_n < min_leaf {
                break; // the right side only shrinks from here
            }
            if scan.left_n < min_leaf {
                continue;
            }
            let imp = scan.impurity(criterion);
            if best.is_none_or(|(bi, _)| imp < bi) {
                let v = self.x.get(self.rows[p], feature);
                let next = self.x.get(self.rows[next_p], feature);
                best = Some((imp, v + (next - v) * 0.5));
            }
        }
        best
    }

    /// Extra-trees split: one uniform random threshold in the feature's
    /// range over the node.
    fn random_threshold_split(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        base: &SplitScan,
        rng: &mut StdRng,
    ) -> Option<(f64, f64)> {
        let value = |p: u32| self.x.get(self.rows[p as usize], feature);
        let positions = &self.pos[lo..hi];
        let mut lo_v = f64::INFINITY;
        let mut hi_v = f64::NEG_INFINITY;
        for &p in positions {
            let v = value(p);
            lo_v = lo_v.min(v);
            hi_v = hi_v.max(v);
        }
        if hi_v <= lo_v {
            return None;
        }
        let thr = rng.gen_range(lo_v..hi_v);
        let scan = &mut self.scan;
        scan.clone_from(base);
        for &p in positions {
            if value(p) <= thr {
                scan.move_left(&self.criterion, self.y[p as usize]);
            }
        }
        let min_leaf = self.config.min_samples_leaf;
        if scan.left_n < min_leaf || scan.right_n < min_leaf {
            return None;
        }
        Some((scan.impurity(&self.criterion), thr))
    }
}

// ---------------------------------------------------------------------------
// DecisionTree estimator
// ---------------------------------------------------------------------------

/// A single CART decision tree for classification (gini) or regression
/// (variance reduction).
#[derive(Debug)]
pub struct DecisionTree {
    config: TreeConfig,
    tree: Option<FittedTree>,
    task: Option<Task>,
}

impl DecisionTree {
    /// Creates an unfitted tree with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTree {
            config,
            tree: None,
            task: None,
        }
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> Option<usize> {
        self.tree.as_ref().map(|t| t.depth_from(0))
    }
}

impl Estimator for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64], task: Task) -> Result<()> {
        check_fit_inputs("decision_tree", x, y)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut builder = Builder::new(x, &self.config, task);
        self.tree = Some(builder.build((0..x.rows()).collect(), y, &mut rng));
        self.task = Some(task);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let task = self.task.ok_or(LearnError::NotFitted("decision_tree"))?;
        if task.is_classification() {
            Ok(argmax_rows(&self.predict_proba(x)?))
        } else {
            let tree = self.tree.as_ref().unwrap();
            Ok((0..x.rows())
                .map(|r| tree.predict_row(x.row(r))[0])
                .collect())
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let task = self.task.ok_or(LearnError::NotFitted("decision_tree"))?;
        if !task.is_classification() {
            return Err(LearnError::UnsupportedTask(
                "decision_tree (regression proba)",
            ));
        }
        let tree = self.tree.as_ref().unwrap();
        let mut out = Matrix::zeros(x.rows(), tree.outputs);
        for r in 0..x.rows() {
            let dist = tree.predict_row(x.row(r));
            for (c, v) in dist.iter().enumerate() {
                out.set(r, c, *v);
            }
        }
        Ok(out)
    }

    fn kind(&self) -> EstimatorKind {
        EstimatorKind::DecisionTree
    }
}

// ---------------------------------------------------------------------------
// Forest ensembles
// ---------------------------------------------------------------------------

/// A bagged ensemble of CART trees: random forest (bootstrap + feature
/// subsets) or extra trees (no bootstrap, random thresholds).
#[derive(Debug)]
pub struct Forest {
    n_estimators: usize,
    config: TreeConfig,
    bootstrap: bool,
    kind: EstimatorKind,
    trees: Vec<FittedTree>,
    task: Option<Task>,
}

impl Forest {
    /// Creates an unfitted forest.
    pub fn new(
        n_estimators: usize,
        config: TreeConfig,
        bootstrap: bool,
        kind: EstimatorKind,
    ) -> Self {
        Forest {
            n_estimators: n_estimators.max(1),
            config,
            bootstrap,
            kind,
            trees: Vec::new(),
            task: None,
        }
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Per-tree raw predictions for each row: regression values, or the
    /// argmax class per tree for classification. Exposes the ensemble's
    /// spread, which SMAC-style surrogates use as an uncertainty estimate.
    pub fn predict_per_tree(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        let task = self.task.ok_or(LearnError::NotFitted("forest"))?;
        Ok(self
            .trees
            .iter()
            .map(|tree| {
                (0..x.rows())
                    .map(|r| {
                        let v = tree.predict_row(x.row(r));
                        if task.is_classification() {
                            v.iter()
                                .enumerate()
                                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                                .map(|(c, _)| c as f64)
                                .unwrap_or(0.0)
                        } else {
                            v[0]
                        }
                    })
                    .collect()
            })
            .collect())
    }

    fn aggregate(&self, x: &Matrix, outputs: usize) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), outputs);
        for tree in &self.trees {
            for r in 0..x.rows() {
                let v = tree.predict_row(x.row(r));
                for (c, p) in v.iter().enumerate() {
                    out.set(r, c, out.get(r, c) + p);
                }
            }
        }
        let k = self.trees.len() as f64;
        for r in 0..out.rows() {
            for v in out.row_mut(r) {
                *v /= k;
            }
        }
        out
    }
}

impl Estimator for Forest {
    fn fit(&mut self, x: &Matrix, y: &[f64], task: Task) -> Result<()> {
        check_fit_inputs("forest", x, y)?;
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut builder = Builder::new(x, &self.config, task);
        self.trees = (0..self.n_estimators)
            .map(|_| {
                let rows: Vec<usize> = if self.bootstrap {
                    (0..n).map(|_| rng.gen_range(0..n)).collect()
                } else {
                    (0..n).collect()
                };
                builder.build(rows, y, &mut rng)
            })
            .collect();
        self.task = Some(task);
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let task = self.task.ok_or(LearnError::NotFitted("forest"))?;
        if task.is_classification() {
            Ok(argmax_rows(&self.predict_proba(x)?))
        } else {
            Ok(self.aggregate(x, 1).col(0))
        }
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Matrix> {
        let task = self.task.ok_or(LearnError::NotFitted("forest"))?;
        if !task.is_classification() {
            return Err(LearnError::UnsupportedTask("forest (regression proba)"));
        }
        Ok(self.aggregate(x, task.num_classes().max(2)))
    }

    fn kind(&self) -> EstimatorKind {
        self.kind
    }
}

/// The per-node-sorting CART builder the presorted [`Builder`] replaced,
/// kept as the oracle it is tested against: every node re-sorts its rows
/// on every candidate feature and partitions them into fresh vectors.
#[cfg(test)]
mod oracle {
    use super::*;

    fn targets(y: &[f64], rows: &[usize]) -> Vec<f64> {
        rows.iter().map(|&r| y[r]).collect()
    }

    pub(super) fn build_tree(
        x: &Matrix,
        y: &[f64],
        rows: Vec<usize>,
        config: &TreeConfig,
        criterion: &Criterion,
        rng: &mut StdRng,
    ) -> FittedTree {
        let mut nodes = Vec::new();
        build_node(x, y, rows, 0, config, criterion, rng, &mut nodes);
        FittedTree {
            nodes,
            outputs: criterion.outputs(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_node(
        x: &Matrix,
        y: &[f64],
        rows: Vec<usize>,
        depth: usize,
        config: &TreeConfig,
        criterion: &Criterion,
        rng: &mut StdRng,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let make_leaf = |nodes: &mut Vec<Node>, rows: &[usize]| -> usize {
            nodes.push(Node::Leaf(criterion.leaf_value(&targets(y, rows))));
            nodes.len() - 1
        };
        if depth >= config.max_depth
            || rows.len() < config.min_samples_split
            || is_pure(&targets(y, &rows))
        {
            return make_leaf(nodes, &rows);
        }
        let feats = node_features(x.cols(), config, rng);
        let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)
        for &f in &feats {
            let candidate = if config.random_thresholds {
                random_threshold_split(x, y, &rows, f, config, criterion, rng)
            } else {
                best_exact_split(x, y, &rows, f, config, criterion)
            };
            if let Some((imp, thr)) = candidate {
                if best.is_none_or(|(bi, _, _)| imp < bi) {
                    best = Some((imp, f, thr));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            return make_leaf(nodes, &rows);
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| x.get(r, feature) <= threshold);
        if left_rows.len() < config.min_samples_leaf || right_rows.len() < config.min_samples_leaf {
            return make_leaf(nodes, &rows);
        }
        let at = nodes.len();
        nodes.push(Node::Leaf(Vec::new())); // placeholder, patched below
        let left = build_node(x, y, left_rows, depth + 1, config, criterion, rng, nodes);
        let right = build_node(x, y, right_rows, depth + 1, config, criterion, rng, nodes);
        nodes[at] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }

    fn best_exact_split(
        x: &Matrix,
        y: &[f64],
        rows: &[usize],
        feature: usize,
        config: &TreeConfig,
        criterion: &Criterion,
    ) -> Option<(f64, f64)> {
        let mut order: Vec<usize> = rows.to_vec();
        order.sort_by(|&a, &b| x.get(a, feature).partial_cmp(&x.get(b, feature)).unwrap());
        let mut scan = SplitScan::init(criterion, &targets(y, rows));
        let mut best: Option<(f64, f64)> = None;
        for w in 0..order.len() - 1 {
            let r = order[w];
            scan.move_left(criterion, y[r]);
            let v = x.get(r, feature);
            let next = x.get(order[w + 1], feature);
            if v == next {
                continue; // can't cut between equal values
            }
            if scan.left_n < config.min_samples_leaf || scan.right_n < config.min_samples_leaf {
                continue;
            }
            let imp = scan.impurity(criterion);
            let thr = v + (next - v) * 0.5;
            if best.is_none_or(|(bi, _)| imp < bi) {
                best = Some((imp, thr));
            }
        }
        best
    }

    fn random_threshold_split(
        x: &Matrix,
        y: &[f64],
        rows: &[usize],
        feature: usize,
        config: &TreeConfig,
        criterion: &Criterion,
        rng: &mut StdRng,
    ) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &r in rows {
            let v = x.get(r, feature);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi <= lo {
            return None;
        }
        let thr = rng.gen_range(lo..hi);
        let mut scan = SplitScan::init(criterion, &targets(y, rows));
        for &r in rows {
            if x.get(r, feature) <= thr {
                scan.move_left(criterion, y[r]);
            }
        }
        if scan.left_n < config.min_samples_leaf || scan.right_n < config.min_samples_leaf {
            return None;
        }
        Some((scan.impurity(criterion), thr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fitted tree as exact bits: node kinds, features, thresholds,
    /// children and leaf values.
    fn tree_bits(tree: &FittedTree) -> Vec<(usize, u64, usize, usize, Vec<u64>)> {
        tree.nodes
            .iter()
            .map(|node| match node {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (*feature, threshold.to_bits(), *left, *right, Vec::new()),
                Node::Leaf(v) => (usize::MAX, 0, 0, 0, v.iter().map(|x| x.to_bits()).collect()),
            })
            .collect()
    }

    /// Grows `trees` trees with the presorted builder and with the oracle
    /// from one seed (bootstrap draws and builder share the rng, as in
    /// `Forest::fit`) and asserts they are identical to the bit.
    fn assert_builders_agree(
        x: &Matrix,
        y: &[f64],
        task: Task,
        config: &TreeConfig,
        bootstrap: bool,
        trees: usize,
    ) {
        let mut builder = Builder::new(x, config, task);
        let mut fast_rng = StdRng::seed_from_u64(config.seed);
        let mut oracle_rng = StdRng::seed_from_u64(config.seed);
        let n = x.rows();
        for t in 0..trees {
            let draw = |rng: &mut StdRng| -> Vec<usize> {
                if bootstrap {
                    (0..n).map(|_| rng.gen_range(0..n)).collect()
                } else {
                    (0..n).collect()
                }
            };
            let fast = builder.build(draw(&mut fast_rng), y, &mut fast_rng);
            let slow = oracle::build_tree(
                x,
                y,
                draw(&mut oracle_rng),
                config,
                &builder.criterion,
                &mut oracle_rng,
            );
            assert_eq!(
                tree_bits(&fast),
                tree_bits(&slow),
                "tree {t} under {config:?}"
            );
        }
        // Both consumed the rng identically.
        assert_eq!(fast_rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }

    /// Cells drawn from a small grid (ties, duplicate rows, both zeros)
    /// or a continuous range.
    fn cell() -> impl Strategy<Value = f64> {
        (0usize..8, -10.0f64..10.0)
            .prop_map(|(k, v)| [-1.0, -0.0, 0.0, 0.5, 2.0].get(k).copied().unwrap_or(v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The presorted builder grows the oracle's trees to the bit, for
        /// Gini and MSE, exact and random thresholds, with and without
        /// bootstrap, under feature subsampling and every leaf/split
        /// minimum.
        #[test]
        fn oracle_presorted_builder_matches_per_node_sorting(
            rows in 2usize..40,
            cols in 1usize..6,
            cells in proptest::collection::vec(cell(), 40 * 6),
            labels in proptest::collection::vec(0usize..4, 40),
            task_pick in 0usize..3,
            max_depth in 1usize..9,
            min_samples_split in 1usize..6,
            min_samples_leaf in 1usize..4,
            max_features in (0usize..2, 0.2f64..1.0).prop_map(|(k, v)| if k == 0 { 1.0 } else { v }),
            random_thresholds in proptest::bool::ANY,
            bootstrap in proptest::bool::ANY,
            seed in 0u64..1000,
        ) {
            let cells = cells[..rows * cols].to_vec();
            let x = Matrix::from_vec(cells, rows, cols).unwrap();
            let task = [Task::Binary, Task::MultiClass(4), Task::Regression][task_pick];
            let y: Vec<f64> = labels[..rows]
                .iter()
                .map(|&l| match task {
                    Task::Binary => (l % 2) as f64,
                    Task::MultiClass(_) => l as f64,
                    Task::Regression => l as f64 * 0.75 - 1.0,
                })
                .collect();
            let config = TreeConfig {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features,
                random_thresholds,
                seed,
            };
            assert_builders_agree(&x, &y, task, &config, bootstrap, 3);
        }
    }

    #[test]
    fn oracle_presorted_builder_matches_on_signed_zeros_and_duplicates() {
        // Columns where -0.0 and 0.0 interleave and whole rows repeat.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let z = if i % 3 == 0 { -0.0 } else { 0.0 };
                let base = (i / 2) as f64;
                vec![if i % 4 < 2 { z } else { base * 0.5 }, (i % 5) as f64, base]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..60).map(|i| f64::from((i / 2) % 3 == 0)).collect();
        for random_thresholds in [false, true] {
            for bootstrap in [false, true] {
                let config = TreeConfig {
                    max_features: 0.67,
                    random_thresholds,
                    seed: 4,
                    ..TreeConfig::default()
                };
                assert_builders_agree(&x, &y, Task::Binary, &config, bootstrap, 5);
                assert_builders_agree(&x, &y, Task::Regression, &config, bootstrap, 5);
            }
        }
    }

    /// XOR-ish data no linear model can fit but a depth-2 tree can.
    fn xor_data() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            // Small jitter so values are not identical.
            rows.push(vec![a + (i % 5) as f64 * 0.01, b + (i % 7) as f64 * 0.01]);
            y.push(f64::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn tree_fits_xor() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, Task::Binary).unwrap();
        assert!(crate::metrics::accuracy(&y, &t.predict(&x).unwrap()) > 0.98);
        assert!(t.depth().unwrap() >= 2);
    }

    #[test]
    fn tree_regression_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        });
        t.fit(&x, &y, Task::Regression).unwrap();
        let pred = t.predict(&x).unwrap();
        assert!(crate::metrics::r2(&y, &pred) > 0.99);
    }

    #[test]
    fn max_depth_limits_tree() {
        let (x, y) = xor_data();
        let mut stump = DecisionTree::new(TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        });
        stump.fit(&x, &y, Task::Binary).unwrap();
        assert!(stump.depth().unwrap() <= 1);
        // A stump cannot solve XOR.
        assert!(crate::metrics::accuracy(&y, &stump.predict(&x).unwrap()) < 0.8);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig {
            min_samples_leaf: 60,
            ..TreeConfig::default()
        });
        t.fit(&x, &y, Task::Binary).unwrap();
        // With 200 rows and 60-per-leaf minimum, depth is strongly limited.
        assert!(t.depth().unwrap() <= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![1.0, 1.0, 1.0];
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, Task::Binary).unwrap();
        assert_eq!(t.depth().unwrap(), 0);
    }

    #[test]
    fn forest_beats_single_stump_and_is_deterministic() {
        let (x, y) = xor_data();
        let config = TreeConfig {
            max_depth: 4,
            max_features: 0.7,
            seed: 9,
            ..TreeConfig::default()
        };
        let mut f1 = Forest::new(20, config.clone(), true, EstimatorKind::RandomForest);
        let mut f2 = Forest::new(20, config, true, EstimatorKind::RandomForest);
        f1.fit(&x, &y, Task::Binary).unwrap();
        f2.fit(&x, &y, Task::Binary).unwrap();
        assert_eq!(f1.num_trees(), 20);
        assert_eq!(f1.predict(&x).unwrap(), f2.predict(&x).unwrap());
        assert!(crate::metrics::accuracy(&y, &f1.predict(&x).unwrap()) > 0.95);
    }

    #[test]
    fn extra_trees_regression() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 40) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] * 0.3).sin() * 5.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut f = Forest::new(
            30,
            TreeConfig {
                max_depth: 8,
                random_thresholds: true,
                seed: 3,
                ..TreeConfig::default()
            },
            false,
            EstimatorKind::ExtraTrees,
        );
        f.fit(&x, &y, Task::Regression).unwrap();
        assert!(crate::metrics::r2(&y, &f.predict(&x).unwrap()) > 0.95);
    }

    #[test]
    fn forest_proba_rows_sum_to_one() {
        let (x, y) = xor_data();
        let mut f = Forest::new(10, TreeConfig::default(), true, EstimatorKind::RandomForest);
        f.fit(&x, &y, Task::Binary).unwrap();
        let p = f.predict_proba(&x).unwrap();
        for r in 0..p.rows() {
            assert!((p.row(r).iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y, Task::Binary).unwrap();
        assert_eq!(t.depth().unwrap(), 0, "no valid split on constant data");
        let p = t.predict_proba(&x).unwrap();
        assert!((p.get(0, 0) - 0.5).abs() < 1e-9);
    }
}
