//! Product quantization — compressed vector storage with ADC scoring.
//!
//! The paper's serving story is a nearest-dataset lookup over a large
//! embedding catalog; at KGLiDS scale (millions of tables) the full-`f64`
//! vector block becomes the memory and cache-bandwidth ceiling of a serve
//! replica. Product quantization (Jégou et al., the FAISS `IndexPQ`
//! family) shrinks each `dim`-dimensional vector to `m` bytes: the vector
//! is split into `m` contiguous subspaces, each subspace gets a 256-entry
//! codebook trained with the house seeded k-means, and a vector is stored
//! as the `m` codebook ids of its nearest sub-centroids.
//!
//! # Scoring (ADC)
//!
//! Queries stay full-precision. A query builds one asymmetric-distance
//! table per subspace — the dot product and squared norm of every
//! sub-centroid against the query slice — and then scoring a stored vector
//! is `m` table lookups instead of `dim` multiplies: the cosine of the
//! query with the *reconstructed* (decoded) vector, assembled as
//! `Σ dot[s][code] / (|q| · sqrt(Σ norm2[s][code]))` with the same
//! `1e-12` zero guards as [`cosine`].
//!
//! # The rerank invariant
//!
//! PQ is a storage/scoring layer under the existing tiers, not a new
//! tier. Compression changes what a query *costs*, never what `top_k`
//! *returns*: the beam (HNSW descent or the full scan) reads codes, the
//! top `rerank × k` candidates are re-scored with exact [`cosine`] over
//! the retained full-precision vectors, and the final `(score desc, id
//! asc)` order is computed from those exact scores. Whenever the rerank
//! window covers the candidate pool, the answer is bit-identical to the
//! unquantized index.
//!
//! # Determinism
//!
//! Codebook training is bit-reproducible: seeded shuffle init, a fixed
//! iteration cap with early exit on a fixed-point, squared-Euclidean
//! assignment under `total_cmp` with lowest-centroid-id tie-breaks, and
//! (when the catalog exceeds [`TRAIN_SAMPLE`]) a deterministic bottom-k
//! priority sample keyed by SplitMix64 over `(seed, id)`. The parallel
//! assignment path reduces in input order, so any worker count produces
//! the same codebooks bit-for-bit.
//!
//! [`cosine`]: crate::column::cosine

use crate::codec::{write_u32, write_u64, Reader};
use crate::hnsw::VectorSource;
use kgpip_tabular::parallel::effective_parallelism;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// Largest per-subspace codebook — one `u8` code per subspace.
pub const KSUB_MAX: usize = 256;

/// Fixed k-means iteration cap (early exit on a fixed-point keeps the
/// count deterministic — the loop never depends on wall-clock).
const KMEANS_ITERS: usize = 15;

/// Catalogs larger than this train codebooks on a deterministic bottom-k
/// priority sample of this many vectors; every vector is still encoded.
pub const TRAIN_SAMPLE: usize = 16_384;

/// Product-quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqConfig {
    /// Number of subspaces — the compressed size in bytes per vector.
    /// Clamped to `[1, dim]` at fit time.
    pub m: usize,
    /// Re-rank window multiplier: the top `rerank × k` beam candidates
    /// are re-scored with exact cosine. Clamped to at least 1.
    pub rerank: usize,
    /// Seed for codebook k-means init and the training sample.
    pub seed: u64,
}

impl Default for PqConfig {
    fn default() -> Self {
        PqConfig {
            m: 8,
            rerank: 4,
            seed: 0,
        }
    }
}

/// Trained per-subspace codebooks (no codes) — the part of the PQ state
/// a mapped (`KGVI`) reader parses owned while the code matrix stays
/// zero-copy in the file buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct PqCodebook {
    m: usize,
    dim: usize,
    ksub: usize,
    rerank: usize,
    seed: u64,
    /// Flat codebooks, subspace-major: the block for subspace `s` holds
    /// `ksub × sub_len(s)` values, centroid-major within the block.
    /// Total length is always `ksub × dim`.
    codebooks: Vec<f64>,
}

/// Per-query ADC lookup tables: for every `(subspace, centroid)` pair,
/// the dot product with the query slice and the centroid's squared norm.
/// Built once per query by [`PqCodebook::adc_table`]; scoring a stored
/// vector is then `m` additions per table.
#[derive(Debug, Clone)]
pub struct AdcTable {
    qnorm: f64,
    dot: Vec<f64>,
    norm2: Vec<f64>,
}

/// `(start, len)` of each subspace: `dim/m` per subspace, with the first
/// `dim % m` subspaces one wider.
pub(crate) fn sub_bounds(dim: usize, m: usize) -> Vec<(usize, usize)> {
    let m = m.clamp(1, dim.max(1));
    let base = dim / m;
    let rem = dim % m;
    let mut out = Vec::with_capacity(m);
    let mut start = 0usize;
    for s in 0..m {
        let len = base + usize::from(s < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// SplitMix64 — the same mixer the HNSW level hash uses; keyed sampling
/// must not consume the k-means RNG stream.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Squared Euclidean distance over the zipped prefix.
fn l2_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Index of the nearest centroid (squared-Euclidean, `total_cmp`, ties to
/// the lowest centroid id) in a flat centroid block of `len`-wide rows.
fn nearest_centroid(block: &[f64], len: usize, row: &[f64]) -> usize {
    if len == 0 {
        return 0;
    }
    block
        .chunks_exact(len)
        .map(|cent| l2_sq(cent, row))
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map_or(0, |(c, _)| c)
}

/// Runs `f` over `0..n` on a rayon pool clamped by
/// [`effective_parallelism`], collecting results in input order — the
/// reduction is index-ordered, so any worker count (including the
/// sequential fallback) produces bit-identical output. Used by PQ
/// codebook training and encoding.
fn par_map_indices<T, F>(n: usize, requested: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = effective_parallelism(requested);
    if workers <= 1 || n < 2 {
        return (0..n).map(&f).collect();
    }
    let ids: Vec<usize> = (0..n).collect();
    match rayon::ThreadPoolBuilder::new().num_threads(workers).build() {
        Ok(pool) => pool.install(|| ids.par_iter().map(|&i| f(i)).collect()),
        Err(_) => (0..n).map(f).collect(),
    }
}

impl PqCodebook {
    /// Number of subspaces (compressed bytes per vector).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Full-precision dimensionality the codebooks were trained for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-subspace codebook size (≤ 256).
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Re-rank window multiplier.
    pub fn rerank(&self) -> usize {
        self.rerank
    }

    /// Training seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resident bytes of the codebooks themselves.
    pub fn codebook_bytes(&self) -> usize {
        self.codebooks.len() * 8
    }

    /// Builds the per-query ADC tables: for each subspace the dot of the
    /// query slice with every centroid, and every centroid's squared
    /// norm. The query may be any length — slices zip-truncate exactly
    /// like [`cosine`](crate::column::cosine), and the query norm covers
    /// the full query.
    pub fn adc_table(&self, query: &[f64]) -> AdcTable {
        let qnorm = query.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut dot = Vec::with_capacity(self.m * self.ksub);
        let mut norm2 = Vec::with_capacity(self.m * self.ksub);
        let mut offset = 0usize;
        for (start, len) in sub_bounds(self.dim, self.m) {
            let block = self
                .codebooks
                .get(offset..offset + self.ksub * len)
                .unwrap_or(&[]);
            offset += self.ksub * len;
            let q_end = (start + len).min(query.len());
            let q_sub = query.get(start..q_end.max(start)).unwrap_or(&[]);
            for cent in block.chunks_exact(len) {
                dot.push(q_sub.iter().zip(cent).map(|(x, y)| x * y).sum());
                norm2.push(cent.iter().map(|y| y * y).sum());
            }
        }
        AdcTable { qnorm, dot, norm2 }
    }

    /// ADC score of one code row against a query's tables: cosine of the
    /// query with the reconstructed vector, via `m` lookups per table.
    pub fn score_codes(&self, table: &AdcTable, row: &[u8]) -> f64 {
        let mut dot = 0.0f64;
        let mut n2 = 0.0f64;
        for (s, &c) in row.iter().enumerate() {
            let at = s * self.ksub + c as usize;
            dot += table.dot.get(at).copied().unwrap_or(0.0);
            n2 += table.norm2.get(at).copied().unwrap_or(0.0);
        }
        let nb = n2.sqrt();
        if table.qnorm < 1e-12 || nb < 1e-12 {
            0.0
        } else {
            dot / (table.qnorm * nb)
        }
    }

    /// Encodes one vector against the frozen codebooks: the nearest
    /// sub-centroid id per subspace. Never retrains. Vectors of any
    /// length encode deterministically (slices zip-truncate).
    pub fn encode(&self, v: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.m);
        let mut offset = 0usize;
        for (start, len) in sub_bounds(self.dim, self.m) {
            let block = self
                .codebooks
                .get(offset..offset + self.ksub * len)
                .unwrap_or(&[]);
            offset += self.ksub * len;
            let v_end = (start + len).min(v.len());
            let sub = v.get(start..v_end.max(start)).unwrap_or(&[]);
            out.push(nearest_centroid(block, len, sub) as u8);
        }
        out
    }

    /// Decodes one code row back to its reconstructed vector (the
    /// concatenated sub-centroids) — the quantized approximation the ADC
    /// score is the cosine against.
    pub fn reconstruct(&self, row: &[u8]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim);
        let mut offset = 0usize;
        for ((_start, len), c) in sub_bounds(self.dim, self.m).into_iter().zip(row) {
            let base = offset + *c as usize * len;
            let cent = self.codebooks.get(base..base + len).unwrap_or(&[]);
            out.extend_from_slice(cent);
            out.extend(std::iter::repeat_n(0.0, len - cent.len().min(len)));
            offset += self.ksub * len;
        }
        out
    }

    /// Serializes the codebooks (no codes) — the `KGVI` tag-5 payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_u32(&mut out, self.m as u32);
        write_u32(&mut out, self.dim as u32);
        write_u32(&mut out, self.ksub as u32);
        write_u32(&mut out, self.rerank as u32);
        write_u64(&mut out, self.seed);
        write_u64(&mut out, self.codebooks.len() as u64);
        for x in &self.codebooks {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Restores codebooks from [`PqCodebook::to_bytes`] output,
    /// validating the geometry so every later accessor is panic-free.
    pub fn from_bytes(bytes: &[u8]) -> Result<PqCodebook, String> {
        let mut r = Reader::new(bytes);
        let m = r.u32()? as usize;
        let dim = r.u32()? as usize;
        let ksub = r.u32()? as usize;
        let rerank = r.u32()? as usize;
        let seed = r.u64()?;
        if dim == 0 || m == 0 || m > dim {
            return Err(format!("PQ geometry invalid: m={m} dim={dim}"));
        }
        if ksub == 0 || ksub > KSUB_MAX {
            return Err(format!("PQ codebook size {ksub} out of range"));
        }
        let cb_len = r.count(8)?;
        if cb_len != ksub * dim {
            return Err(format!(
                "PQ codebooks hold {cb_len} values, geometry implies {}",
                ksub * dim
            ));
        }
        let mut codebooks = Vec::with_capacity(cb_len);
        for _ in 0..cb_len {
            codebooks.push(r.f64()?);
        }
        r.expect_end("PQ codebook")?;
        Ok(PqCodebook {
            m,
            dim,
            ksub,
            rerank,
            seed,
            codebooks,
        })
    }

    /// Trains per-subspace codebooks over `vectors` with the house seeded
    /// k-means. Deterministic at any `parallelism` (assignment reduces in
    /// input order). Fails on empty, zero-dimensional, or mixed-dimension
    /// catalogs — the same catalogs the mapped format rejects.
    pub fn fit(
        vectors: &[Vec<f64>],
        config: &PqConfig,
        parallelism: usize,
    ) -> Result<PqCodebook, String> {
        let n = vectors.len();
        if n == 0 {
            return Err("cannot quantize an empty catalog".into());
        }
        let dim = vectors.first().map_or(0, Vec::len);
        if dim == 0 {
            return Err("cannot quantize zero-dimensional vectors".into());
        }
        if vectors.iter().any(|v| v.len() != dim) {
            return Err("catalog vectors have mixed dimensions; cannot quantize".into());
        }
        let m = config.m.clamp(1, dim);
        let rerank = config.rerank.max(1);
        // Deterministic training sample: bottom-k SplitMix64 priorities
        // keyed by (seed, id), ids restored to ascending order so the
        // training geometry is stable under any sort implementation.
        let sample: Vec<usize> = if n <= TRAIN_SAMPLE {
            (0..n).collect()
        } else {
            let mut keyed: Vec<(u64, usize)> = (0..n)
                .map(|i| {
                    (
                        splitmix64(config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        i,
                    )
                })
                .collect();
            keyed.sort_unstable();
            let mut ids: Vec<usize> = keyed.iter().take(TRAIN_SAMPLE).map(|&(_, i)| i).collect();
            ids.sort_unstable();
            ids
        };
        let ksub = sample.len().min(KSUB_MAX);
        let mut codebooks: Vec<f64> = Vec::with_capacity(ksub * dim);
        for (s, &(start, len)) in sub_bounds(dim, m).iter().enumerate() {
            // Training matrix for this subspace: one `len`-wide row per
            // sampled vector (dims validated uniform above).
            let rows: Vec<&[f64]> = sample
                .iter()
                .filter_map(|&i| vectors.get(i))
                .map(|v| v.get(start..start + len).unwrap_or(&[]))
                .collect();
            // Seeded shuffle init, per-subspace stream.
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(s as u64));
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.shuffle(&mut rng);
            let mut cents: Vec<f64> = order
                .iter()
                .take(ksub)
                .filter_map(|&i| rows.get(i))
                .flat_map(|r| r.iter().copied())
                .collect();
            let mut assignment = vec![0usize; rows.len()];
            for _iter in 0..KMEANS_ITERS {
                let next: Vec<usize> = par_map_indices(rows.len(), parallelism, |i| {
                    rows.get(i)
                        .map_or(0, |row| nearest_centroid(&cents, len, row))
                });
                let changed = next != assignment;
                assignment = next;
                // Single-pass mean recompute: per-centroid sums accumulate
                // in ascending row order (the house fold order), empty
                // clusters keep their previous centroid.
                let mut sums = vec![0.0f64; ksub * len];
                let mut counts = vec![0usize; ksub];
                for (row, &c) in rows.iter().zip(&assignment) {
                    if let Some(slot) = sums.get_mut(c * len..c * len + len) {
                        for (acc, x) in slot.iter_mut().zip(row.iter()) {
                            *acc += x;
                        }
                    }
                    if let Some(cnt) = counts.get_mut(c) {
                        *cnt += 1;
                    }
                }
                for (c, &cnt) in counts.iter().enumerate() {
                    if cnt == 0 {
                        continue;
                    }
                    if let (Some(dst), Some(src)) = (
                        cents.get_mut(c * len..c * len + len),
                        sums.get(c * len..c * len + len),
                    ) {
                        for (d, sv) in dst.iter_mut().zip(src) {
                            *d = sv / cnt as f64;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            codebooks.extend_from_slice(&cents);
        }
        Ok(PqCodebook {
            m,
            dim,
            ksub,
            rerank,
            seed: config.seed,
            codebooks,
        })
    }
}

/// Trained PQ state for an owned [`VectorIndex`]: the codebooks plus the
/// `n × m` row-major code matrix.
///
/// [`VectorIndex`]: crate::index::VectorIndex
#[derive(Debug, Clone, PartialEq)]
pub struct Pq {
    book: PqCodebook,
    /// `n × m` row-major codes, one byte per `(vector, subspace)`.
    codes: Vec<u8>,
}

impl Pq {
    /// Trains codebooks over the catalog and encodes every vector.
    pub fn fit(vectors: &[Vec<f64>], config: &PqConfig, parallelism: usize) -> Result<Pq, String> {
        let book = PqCodebook::fit(vectors, config, parallelism)?;
        let rows: Vec<Vec<u8>> = par_map_indices(vectors.len(), parallelism, |i| {
            vectors.get(i).map_or_else(Vec::new, |v| book.encode(v))
        });
        let codes = rows.concat();
        Ok(Pq { book, codes })
    }

    /// The trained codebooks.
    pub fn book(&self) -> &PqCodebook {
        &self.book
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        if self.book.m == 0 {
            return 0;
        }
        self.codes.len() / self.book.m
    }

    /// True when no vectors are encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The raw `n × m` code matrix — the `KGVI` tag-6 payload.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The code row of the i-th vector, when in range.
    pub fn code_row(&self, i: usize) -> Option<&[u8]> {
        let m = self.book.m;
        if m == 0 {
            return None;
        }
        self.codes.get(i * m..i * m + m)
    }

    /// Encodes one new vector against the frozen codebooks and appends
    /// its code row — the online `register` path; never retrains.
    pub fn append(&mut self, v: &[f64]) {
        let row = self.book.encode(v);
        self.codes.extend_from_slice(&row);
    }

    /// Resident bytes of the PQ state (code matrix + codebooks).
    pub fn resident_bytes(&self) -> usize {
        self.codes.len() + self.book.codebook_bytes()
    }

    /// Reassembles PQ state from codebooks and a code matrix a decoder
    /// has already validated against them (whole rows of in-range ids).
    pub(crate) fn from_parts(book: PqCodebook, codes: Vec<u8>) -> Pq {
        Pq { book, codes }
    }
}

/// A [`VectorSource`] view of a quantized catalog — an owned [`Pq`]'s
/// code matrix or a mapped file's — for one query: `similarity` scores
/// code rows through the query's prebuilt ADC tables (the query argument
/// is already folded in), so the HNSW beam or full scan reads codes
/// without touching full-precision vectors. Search-only —
/// `pair_similarity` (the insert path) is never called by
/// [`Hnsw::search`] and answers 0.0.
///
/// [`Hnsw::search`]: crate::hnsw::Hnsw::search
pub struct AdcSource<'a> {
    book: &'a PqCodebook,
    codes: &'a [u8],
    table: AdcTable,
}

impl<'a> AdcSource<'a> {
    /// Scores the `n × m` row-major `codes`, encoded against `book`,
    /// for `query`.
    pub fn new(book: &'a PqCodebook, codes: &'a [u8], query: &[f64]) -> AdcSource<'a> {
        AdcSource {
            book,
            codes,
            table: book.adc_table(query),
        }
    }
}

impl VectorSource for AdcSource<'_> {
    fn count(&self) -> usize {
        self.codes.len() / self.book.m.max(1)
    }

    fn similarity(&self, i: usize, _query: &[f64]) -> f64 {
        let m = self.book.m;
        self.codes
            .get(i * m..i * m + m)
            .map_or(0.0, |row| self.book.score_codes(&self.table, row))
    }

    fn pair_similarity(&self, _i: usize, _j: usize) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * dim + d) as f64 * 0.37).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sub_bounds_partition_the_dimension() {
        let bounds = sub_bounds(10, 4);
        assert_eq!(bounds, vec![(0, 3), (3, 3), (6, 2), (8, 2)]);
        assert_eq!(sub_bounds(8, 8).len(), 8);
        // m clamps to dim.
        assert_eq!(sub_bounds(3, 8).len(), 3);
    }

    #[test]
    fn fit_is_deterministic() {
        let v = vecs(300, 12);
        let cfg = PqConfig::default();
        let a = Pq::fit(&v, &cfg, 1).unwrap();
        let b = Pq::fit(&v, &cfg, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_vectors_with_full_codebook_reconstruct_exactly() {
        // When every training row is its own centroid (ksub == n), the
        // reconstruction is exact — singleton means divide by 1.0.
        let v = vecs(40, 8);
        let pq = Pq::fit(
            &v,
            &PqConfig {
                m: 4,
                ..PqConfig::default()
            },
            1,
        )
        .unwrap();
        for (i, orig) in v.iter().enumerate() {
            let row = pq.code_row(i).unwrap();
            let rec = pq.book().reconstruct(row);
            let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(orig), bits(&rec), "vector {i} must round-trip");
        }
    }

    #[test]
    fn adc_score_matches_cosine_of_reconstruction() {
        let v = vecs(120, 9);
        let pq = Pq::fit(
            &v,
            &PqConfig {
                m: 3,
                ..PqConfig::default()
            },
            1,
        )
        .unwrap();
        let query: Vec<f64> = (0..9).map(|d| (d as f64 * 0.71).cos()).collect();
        let codes = AdcSource::new(pq.book(), pq.codes(), &query);
        for i in 0..v.len() {
            let rec = pq.book().reconstruct(pq.code_row(i).unwrap());
            let want = crate::column::cosine(&query, &rec);
            let got = codes.similarity(i, &query);
            assert!(
                (want - got).abs() < 1e-9,
                "vector {i}: adc {got} vs cosine-of-reconstruction {want}"
            );
        }
    }

    #[test]
    fn codebook_byte_roundtrip_is_bitwise() {
        let v = vecs(64, 10);
        let pq = Pq::fit(&v, &PqConfig::default(), 1).unwrap();
        let restored = PqCodebook::from_bytes(&pq.book().to_bytes()).unwrap();
        assert_eq!(&restored, pq.book());
        assert_eq!(restored.to_bytes(), pq.book().to_bytes());
    }

    #[test]
    fn codebook_from_bytes_rejects_malformed_state() {
        let v = vecs(10, 6);
        let pq = Pq::fit(
            &v,
            &PqConfig {
                m: 3,
                ..PqConfig::default()
            },
            1,
        )
        .unwrap();
        let bytes = pq.book().to_bytes();
        assert!(PqCodebook::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(PqCodebook::from_bytes(&trailing).is_err());
        assert!(PqCodebook::from_bytes(&[0u8; 8]).is_err());
    }

    #[test]
    fn fit_rejects_degenerate_catalogs() {
        assert!(Pq::fit(&[], &PqConfig::default(), 1).is_err());
        assert!(Pq::fit(&[vec![]], &PqConfig::default(), 1).is_err());
        assert!(Pq::fit(&[vec![1.0, 2.0], vec![1.0]], &PqConfig::default(), 1).is_err());
    }

    #[test]
    fn append_encodes_without_retraining() {
        let v = vecs(50, 8);
        let mut pq = Pq::fit(
            &v,
            &PqConfig {
                m: 4,
                ..PqConfig::default()
            },
            1,
        )
        .unwrap();
        let book_before = pq.book().to_bytes();
        pq.append(&[0.5; 8]);
        assert_eq!(pq.len(), 51);
        assert_eq!(pq.book().to_bytes(), book_before, "codebooks stay frozen");
    }
}
