//! Vector similarity index — the FAISS substitute.
//!
//! Two tiers, auto-selected by catalog size ([`VectorIndex::auto_tune`]):
//! an exact cosine scan below [`VectorIndex::HNSW_AUTO_THRESHOLD`], and a
//! deterministic HNSW graph ([`crate::hnsw`], FAISS's `IndexHNSWFlat`) at
//! and above it. [`VectorIndex::search`] dispatches to the active tier;
//! [`VectorIndex::register`] grows the catalog online without rebuilding
//! it. The on-disk form is the `KGVI` layout of [`crate::mapped`], which
//! model snapshots embed as their index section.

use crate::hnsw::{Hnsw, HnswConfig, SliceSource, VectorSource};
use crate::pq::{AdcSource, Pq, PqCodebook, PqConfig};

/// Which search structure a [`VectorIndex`] currently answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexTier {
    /// Linear scan — trivially correct, fastest below the crossover.
    Exact,
    /// Hierarchical navigable small-world graph.
    Hnsw,
}

impl std::fmt::Display for IndexTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexTier::Exact => write!(f, "exact"),
            IndexTier::Hnsw => write!(f, "hnsw"),
        }
    }
}

/// Resident byte accounting for a vector index, per storage component —
/// so the PQ memory win is a tracked number, not a claim. Reported by
/// `kgpip-cli index stats` and the embeddings bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// The active search tier.
    pub tier: IndexTier,
    /// True when a product-quantized store backs the tier's scans.
    pub quantized: bool,
    /// Catalog size.
    pub count: usize,
    /// Embedding dimensionality (of the first vector; 0 when empty).
    pub dim: usize,
    /// Bytes of the full-precision `f64` vector block.
    pub vector_bytes: usize,
    /// Bytes of the HNSW adjacency (serialized size — the graph stores
    /// no vectors).
    pub hnsw_bytes: usize,
    /// Bytes of the PQ state (code matrix + codebooks) — the block a
    /// quantized scan actually reads.
    pub pq_bytes: usize,
}

impl IndexStats {
    /// Total resident bytes across all components.
    pub fn resident_bytes(&self) -> usize {
        self.vector_bytes + self.hnsw_bytes + self.pq_bytes
    }

    /// Bytes the active tier's candidate scan touches per full pass: the
    /// code matrix when quantized, the `f64` block otherwise.
    pub fn scan_bytes(&self) -> usize {
        if self.quantized {
            self.pq_bytes
        } else {
            self.vector_bytes
        }
    }
}

/// A named-vector index with exact and HNSW-approximate top-k search.
#[derive(Debug, Clone, Default)]
pub struct VectorIndex {
    pub(crate) names: Vec<String>,
    pub(crate) vectors: Vec<Vec<f64>>,
    /// HNSW state: the layered proximity graph (adjacency only; vectors
    /// stay in `vectors`).
    pub(crate) hnsw: Option<Hnsw>,
    /// Product-quantization state: per-subspace codebooks plus the `u8`
    /// code matrix. A storage/scoring layer under the tiers, not a tier —
    /// when present, beam/full scans read codes and the top `rerank × k`
    /// candidates are re-ranked with exact cosine.
    pub(crate) pq: Option<Pq>,
    /// Requested worker count for PQ codebook training and encoding
    /// (clamped through `effective_parallelism`; 0 means sequential).
    /// Ephemeral build-time state — any value produces bit-identical
    /// results, so it is never persisted.
    parallelism: usize,
}

impl VectorIndex {
    /// Catalog size at which [`VectorIndex::auto_tune`] switches from the
    /// exact scan to the HNSW graph: the first measured size where the
    /// graph beat the scan on top-10 queries/sec in every run (32-dim
    /// clustered catalogs; DESIGN.md, "Similarity index tiers"). Below
    /// it the scan is as fast or faster and trivially correct.
    pub const HNSW_AUTO_THRESHOLD: usize = 1024;

    /// Catalog size at which [`VectorIndex::auto_tune`] additionally
    /// quantizes the vector store ([`PqConfig::default`]): below this the
    /// full-`f64` block fits comfortably in cache and PQ's codebook
    /// training isn't worth the build time; at and above it the compact
    /// code matrix keeps beam scans cache-resident.
    pub const PQ_AUTO_THRESHOLD: usize = 100_000;

    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named vector at build time. Invalidates any built HNSW
    /// graph or quantized store — callers retune once after bulk adds.
    /// For online growth that *extends* the current tier instead, use
    /// [`VectorIndex::register`].
    pub fn add(&mut self, name: impl Into<String>, vector: Vec<f64>) {
        self.names.push(name.into());
        self.vectors.push(vector);
        self.hnsw = None;
        self.pq = None;
    }

    /// Sets the requested worker count for PQ codebook training and
    /// encoding (clamped through `effective_parallelism`; 0 or 1 means
    /// sequential). Parallelism changes build *cost* only — results are
    /// bit-identical at any setting.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers;
    }

    /// Registers a named vector online, extending the active tier instead
    /// of invalidating it: HNSW gets an incremental [`Hnsw::insert`]
    /// (bit-identical to a from-scratch rebuild with the same order) and
    /// the exact tier just appends. A quantized store encodes the new
    /// vector against the frozen codebooks — no retrain.
    pub fn register(&mut self, name: impl Into<String>, vector: Vec<f64>) {
        self.names.push(name.into());
        self.vectors.push(vector);
        if let Some(mut hnsw) = self.hnsw.take() {
            hnsw.insert(&SliceSource(&self.vectors));
            self.hnsw = Some(hnsw);
        }
        if let (Some(pq), Some(v)) = (&mut self.pq, self.vectors.last()) {
            pq.append(v);
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when the index stores nothing.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Name of the i-th stored vector, when in range.
    pub fn name(&self, i: usize) -> Option<&str> {
        self.names.get(i).map(String::as_str)
    }

    /// The i-th stored vector, when in range.
    pub fn vector(&self, i: usize) -> Option<&[f64]> {
        self.vectors.get(i).map(Vec::as_slice)
    }

    /// Id of the first entry named `name`, by a linear scan of the
    /// catalog.
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Exact top-k by cosine similarity: `(name, similarity)` descending.
    /// Ties order by insertion id via `(score, id)` `total_cmp`, so equal
    /// scores (and NaN-scored entries) rank identically across rebuilds.
    pub fn top_k(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        self.named(scan_top_k(&SliceSource(&self.vectors), None, query, k))
    }

    /// Maps `(id, score)` hits to `(name, score)`.
    fn named(&self, hits: Vec<(usize, f64)>) -> Vec<(String, f64)> {
        hits.into_iter()
            .filter_map(|(i, s)| self.name(i).map(|n| (n.to_string(), s)))
            .collect()
    }

    /// True when an HNSW graph is currently built.
    pub fn has_hnsw(&self) -> bool {
        self.hnsw.is_some()
    }

    /// The search structure [`VectorIndex::search`] currently dispatches
    /// to: HNSW when built, else the exact scan.
    pub fn tier(&self) -> IndexTier {
        if self.hnsw.is_some() {
            IndexTier::Hnsw
        } else {
            IndexTier::Exact
        }
    }

    /// The HNSW graph, when built — for stats reporting and mapped-file
    /// export.
    pub fn hnsw(&self) -> Option<&Hnsw> {
        self.hnsw.as_ref()
    }

    /// Builds (or rebuilds) the HNSW graph over the current catalog by
    /// inserting vectors in id order, making it the active tier.
    pub fn build_hnsw(&mut self, config: HnswConfig) {
        self.hnsw = Some(Hnsw::build(config, &SliceSource(&self.vectors)));
    }

    /// Selects the search tier for the current catalog size: below
    /// [`VectorIndex::HNSW_AUTO_THRESHOLD`] the index stays exact (any
    /// graph is dropped); at and above it a default-parameter HNSW graph
    /// seeded with `seed` is built. Returns the chosen tier, which
    /// [`VectorIndex::tier`] then reports.
    ///
    /// Orthogonally, catalogs of [`VectorIndex::PQ_AUTO_THRESHOLD`] or
    /// more vectors also get a product-quantized vector store
    /// ([`PqConfig::default`] geometry, this `seed`) so the tier's scans
    /// read compact codes; smaller catalogs drop any quantization.
    pub fn auto_tune(&mut self, seed: u64) -> IndexTier {
        let n = self.vectors.len();
        if n >= Self::HNSW_AUTO_THRESHOLD {
            self.build_hnsw(HnswConfig {
                seed,
                ..HnswConfig::default()
            });
        } else {
            self.hnsw = None;
        }
        self.pq = None;
        if n >= Self::PQ_AUTO_THRESHOLD {
            // Mixed-dimension catalogs cannot quantize (the flat codebook
            // layout needs one geometry); they keep full vectors.
            let _ = self.quantize(PqConfig {
                seed,
                ..PqConfig::default()
            });
        }
        self.tier()
    }

    /// Quantizes the vector store: trains per-subspace codebooks over the
    /// current catalog and encodes every vector into the `u8` code
    /// matrix. The active tier is unchanged — its scans switch to ADC
    /// over codes with an exact re-rank ([`VectorIndex::search`]).
    /// Full-precision vectors are retained for the re-rank, graph
    /// maintenance, and mapped export.
    pub fn quantize(&mut self, config: PqConfig) -> Result<(), String> {
        self.pq = Some(Pq::fit(&self.vectors, &config, self.parallelism)?);
        Ok(())
    }

    /// True when a product-quantized store is active.
    pub fn is_quantized(&self) -> bool {
        self.pq.is_some()
    }

    /// The product-quantized store, when trained — for stats reporting
    /// and mapped-file export.
    pub fn pq(&self) -> Option<&Pq> {
        self.pq.as_ref()
    }

    /// Resident byte accounting per storage component.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            tier: self.tier(),
            quantized: self.pq.is_some(),
            count: self.vectors.len(),
            dim: self.vectors.first().map_or(0, Vec::len),
            vector_bytes: self.vectors.iter().map(|v| v.len() * 8).sum(),
            hnsw_bytes: self.hnsw.as_ref().map_or(0, |h| h.to_bytes().len()),
            pq_bytes: self.pq.as_ref().map_or(0, Pq::resident_bytes),
        }
    }

    /// Top-k through the active tier — the serve-path entry point.
    /// Results are `(name, similarity)` in `(score desc, id asc)` order
    /// for every tier. When the store is quantized, the tier's scan reads
    /// PQ codes and the answer is re-ranked with exact cosine; the
    /// reported similarities are always exact.
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        self.named(self.search_ids(query, k))
    }

    /// [`VectorIndex::search`] answering catalog ids instead of names, so
    /// callers can read the hit's vector ([`VectorIndex::vector`])
    /// without a name lookup.
    pub fn search_ids(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        search_store(
            &SliceSource(&self.vectors),
            self.hnsw.as_ref(),
            self.pq.as_ref().map(|pq| (pq.book(), pq.codes())),
            query,
            k,
        )
    }
}

/// Top-`k` `(id, score)` over one vector store — the search both the
/// owned index and a mapped catalog answer with — in `(score desc, id
/// asc)` order: the HNSW beam when `hnsw` is given, the full scan
/// otherwise.
///
/// With a quantized store (`pq`: codebooks plus the row-major code
/// matrix), the same scan reads codes through one per-query ADC table,
/// then its top `rerank × k` candidates are re-scored with `exact`'s
/// full-precision cosine — compression changes what a query costs, never
/// what it returns, and whenever the rerank window covers the candidate
/// pool the answer is bit-identical to the unquantized store. The graph
/// was built over full-precision vectors either way, so it is the same
/// graph an unquantized store searches.
pub(crate) fn search_store(
    exact: &impl VectorSource,
    hnsw: Option<&Hnsw>,
    pq: Option<(&PqCodebook, &[u8])>,
    query: &[f64],
    k: usize,
) -> Vec<(usize, f64)> {
    let Some((book, codes)) = pq else {
        return scan_top_k(exact, hnsw, query, k);
    };
    let fetch = k.saturating_mul(book.rerank().max(1));
    let candidates = scan_top_k(&AdcSource::new(book, codes, query), hnsw, query, fetch);
    let mut reranked: Vec<(usize, f64)> = candidates
        .into_iter()
        .map(|(i, _)| (i, exact.similarity(i, query)))
        .collect();
    reranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    reranked.truncate(k);
    reranked
}

/// Top-`k` `(id, score)` over `source`: the HNSW beam when a graph is
/// given, the full scan otherwise. Ties (and NaN scores) order by id
/// under `total_cmp`, so equal scores rank identically across rebuilds.
pub(crate) fn scan_top_k(
    source: &impl VectorSource,
    hnsw: Option<&Hnsw>,
    query: &[f64],
    k: usize,
) -> Vec<(usize, f64)> {
    if let Some(hnsw) = hnsw {
        return hnsw.search(query, k, source);
    }
    let mut scored: Vec<(usize, f64)> = (0..source.count())
        .map(|i| (i, source.similarity(i, query)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dir: usize, dim: usize) -> Vec<f64> {
        let mut v = vec![0.0; dim];
        v[dir] = 1.0;
        v
    }

    #[test]
    fn exact_top_k_orders_by_similarity() {
        let mut idx = VectorIndex::new();
        idx.add("x", unit(0, 4));
        idx.add("y", unit(1, 4));
        idx.add("xy", vec![0.7, 0.7, 0.0, 0.0]);
        let hits = idx.top_k(&unit(0, 4), 2);
        assert_eq!(hits[0].0, "x");
        assert!((hits[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(hits[1].0, "xy");
    }

    #[test]
    fn top_k_caps_at_len() {
        let mut idx = VectorIndex::new();
        idx.add("only", unit(0, 2));
        assert_eq!(idx.top_k(&unit(0, 2), 10).len(), 1);
        assert!(VectorIndex::new().top_k(&unit(0, 2), 3).is_empty());
    }

    #[test]
    fn auto_tune_respects_threshold() {
        let mut small = VectorIndex::new();
        for i in 0..VectorIndex::HNSW_AUTO_THRESHOLD - 1 {
            small.add(format!("v{i}"), unit(i % 8, 8));
        }
        small.build_hnsw(HnswConfig::default());
        assert_eq!(
            small.auto_tune(0),
            IndexTier::Exact,
            "below threshold stays exact"
        );
        assert!(!small.has_hnsw(), "auto_tune drops a graph below threshold");
        assert_eq!(small.tier(), IndexTier::Exact);
        small.add("last", unit(0, 8));
        assert_eq!(
            small.auto_tune(0),
            IndexTier::Hnsw,
            "at threshold builds the graph"
        );
        assert!(small.has_hnsw());
        assert_eq!(small.tier(), IndexTier::Hnsw);
    }

    #[test]
    fn search_dispatches_to_built_hnsw() {
        let mut idx = VectorIndex::new();
        for i in 0..60 {
            let mut v = vec![0.05 * (i % 7) as f64; 8];
            v[i % 8] = 1.0;
            idx.add(format!("v{i}"), v);
        }
        assert_eq!(idx.tier(), IndexTier::Exact);
        idx.build_hnsw(HnswConfig::default());
        assert_eq!(idx.tier(), IndexTier::Hnsw);
        let q = unit(3, 8);
        let exact = idx.top_k(&q, 5);
        let approx = idx.search(&q, 5);
        assert_eq!(exact.len(), approx.len());
        for ((na, sa), (nb, sb)) in exact.iter().zip(&approx) {
            assert_eq!(na, nb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "scores must match bitwise");
        }
        let ids = idx.search_ids(&q, 5);
        for ((id, s), (name, s2)) in ids.iter().zip(&approx) {
            assert_eq!(idx.name(*id), Some(name.as_str()));
            assert_eq!(s.to_bits(), s2.to_bits());
        }
    }

    #[test]
    fn names_resolve_to_ids_by_scan() {
        let mut idx = VectorIndex::new();
        idx.add("a", unit(0, 3));
        idx.add("b", unit(1, 3));
        assert_eq!(idx.id_of("b"), Some(1));
        assert_eq!(idx.id_of("c"), None);
        assert_eq!(idx.name(1), Some("b"));
        assert_eq!(idx.name(2), None);
        assert_eq!(idx.vector(idx.id_of("a").unwrap()), Some(&unit(0, 3)[..]));
    }

    #[test]
    fn register_into_hnsw_matches_scratch_build() {
        let n = 50;
        let vecs: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..6).map(|d| ((i * 6 + d) as f64 * 0.61).sin()).collect())
            .collect();
        let mut grown = VectorIndex::new();
        for (i, v) in vecs.iter().take(n - 5).enumerate() {
            grown.add(format!("v{i}"), v.clone());
        }
        grown.build_hnsw(HnswConfig::default());
        for (i, v) in vecs.iter().enumerate().skip(n - 5) {
            grown.register(format!("v{i}"), v.clone());
        }
        let mut scratch = VectorIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            scratch.add(format!("v{i}"), v.clone());
        }
        scratch.build_hnsw(HnswConfig::default());
        let (Some(a), Some(b)) = (grown.hnsw(), scratch.hnsw()) else {
            panic!("both indexes must hold a graph");
        };
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "incremental insertion must equal a from-scratch build bit-for-bit"
        );
    }

    #[test]
    fn equal_scores_break_ties_by_insertion_id() {
        let mut idx = VectorIndex::new();
        for i in 0..6 {
            idx.add(format!("dup{i}"), unit(0, 4));
        }
        idx.add("other", unit(1, 4));
        let names: Vec<String> = idx
            .top_k(&unit(0, 4), 4)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["dup0", "dup1", "dup2", "dup3"]);
        // NaN scores must rank deterministically instead of panicking the
        // comparator (the pre-total_cmp sort unwrapped partial_cmp).
        let nan_hits = idx.top_k(&[f64::NAN; 4], 3);
        assert_eq!(nan_hits.len(), 3);
    }

    #[test]
    fn quantized_search_with_covering_rerank_matches_exact_bitwise() {
        let mut idx = VectorIndex::new();
        for i in 0..90 {
            let v: Vec<f64> = (0..8).map(|d| ((i * 8 + d) as f64 * 0.43).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        // rerank × k covers the whole catalog, so the exact re-rank sees
        // every id the exact scan sees — bit-identity is guaranteed, not
        // merely empirical.
        idx.quantize(PqConfig {
            m: 4,
            rerank: 30,
            seed: 1,
        })
        .unwrap();
        let q: Vec<f64> = (0..8).map(|d| (d as f64 * 0.9).cos()).collect();
        let exact = idx.top_k(&q, 5);
        let quantized = idx.search(&q, 5);
        assert_eq!(exact.len(), quantized.len());
        for ((na, sa), (nb, sb)) in exact.iter().zip(&quantized) {
            assert_eq!(na, nb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "scores must match bitwise");
        }
    }

    #[test]
    fn quantized_byte_roundtrip_is_bitwise() {
        let mut idx = VectorIndex::new();
        for i in 0..60 {
            let v: Vec<f64> = (0..6).map(|d| ((i * 6 + d) as f64 * 0.29).sin()).collect();
            idx.add(format!("v{i}"), v);
        }
        idx.build_hnsw(HnswConfig::default());
        idx.quantize(PqConfig::default()).unwrap();
        let restored = VectorIndex::from_mapped_bytes(idx.to_mapped_bytes().unwrap()).unwrap();
        assert!(restored.is_quantized());
        assert_eq!(restored.to_mapped_bytes(), idx.to_mapped_bytes());
        let q = unit(2, 6);
        let a = idx.search(&q, 5);
        let b = restored.search(&q, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn byte_roundtrip_preserves_hnsw_graph() {
        let mut idx = VectorIndex::new();
        for i in 0..30 {
            let mut v = vec![0.01 * i as f64; 6];
            v[i % 6] = 1.0;
            idx.add(format!("v{i}"), v);
        }
        idx.build_hnsw(HnswConfig::default());
        let restored = VectorIndex::from_mapped_bytes(idx.to_mapped_bytes().unwrap()).unwrap();
        assert!(restored.has_hnsw());
        assert_eq!(restored.to_mapped_bytes(), idx.to_mapped_bytes());
        let q = unit(2, 6);
        assert_eq!(idx.search(&q, 5), restored.search(&q, 5));
    }
}
