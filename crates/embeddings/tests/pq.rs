//! The product-quantization suite, gated by `scripts/check.sh`:
//!
//! * property: with the rerank window covering the catalog, quantized
//!   `search` equals the unquantized exact scan — names, order, and
//!   score bits — for arbitrary catalogs and PQ geometries,
//! * codebook training is bit-identical at any requested worker count,
//! * encode/decode reconstruction error is bounded (and exact when every
//!   training row gets its own centroid),
//! * the mapped (`KGVI`) quantized catalog answers bit-identically to
//!   the owned index, through a disk round-trip.

use kgpip_embeddings::{HnswConfig, MappedIndex, PqConfig, VectorIndex};
use proptest::prelude::*;

fn vectors(n: usize, dim: usize, phase: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * dim + d) as f64 * 0.37 + phase).sin())
                .collect()
        })
        .collect()
}

fn catalog(vecs: &[Vec<f64>]) -> VectorIndex {
    let mut idx = VectorIndex::new();
    for (i, v) in vecs.iter().enumerate() {
        idx.add(format!("v{i}"), v.clone());
    }
    idx
}

fn assert_bitwise_eq(a: &[(String, f64)], b: &[(String, f64)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for ((na, sa), (nb, sb)) in a.iter().zip(b) {
        assert_eq!(na, nb, "{what}: names diverge");
        assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: score bits diverge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rerank invariant, as a guaranteed property rather than an
    /// empirical one: when `rerank × k` covers the whole catalog, the
    /// exact re-rank sees every id the exact scan sees, so quantized
    /// `search` must equal unquantized `top_k` bit-for-bit — at any
    /// subspace count.
    #[test]
    fn quantized_equals_exact_when_rerank_covers_the_catalog(
        n in 1usize..50,
        dim in 2usize..10,
        m in 1usize..6,
        phase in -3.0f64..3.0,
        seed in 0u64..4,
    ) {
        let vecs = vectors(n, dim, phase);
        let mut idx = catalog(&vecs);
        let k = (n / 2).max(1);
        // rerank × k ≥ n guarantees full candidate coverage.
        let rerank = n / k + 1;
        let exact = idx.top_k(&vecs[0], k);
        idx.quantize(PqConfig { m, rerank, seed }).unwrap();
        let quantized = idx.search(&vecs[0], k);
        prop_assert_eq!(exact.len(), quantized.len());
        for ((na, sa), (nb, sb)) in exact.iter().zip(&quantized) {
            prop_assert_eq!(na, nb);
            prop_assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}

/// Codebook training and encoding are bit-identical at any requested
/// worker count — parallelism changes build cost, never build output.
#[test]
fn codebooks_are_bit_identical_across_worker_counts() {
    let vecs = vectors(400, 16, 0.0);
    let config = PqConfig {
        m: 8,
        rerank: 4,
        seed: 3,
    };
    let mut baseline: Option<Vec<u8>> = None;
    for workers in [0usize, 1, 2, 3, 8] {
        let mut idx = catalog(&vecs);
        idx.set_parallelism(workers);
        idx.quantize(config).unwrap();
        let bytes = idx.to_mapped_bytes().unwrap();
        match &baseline {
            None => baseline = Some(bytes),
            Some(b) => assert_eq!(
                b, &bytes,
                "worker count {workers} changed the quantized index bytes"
            ),
        }
    }
}

/// Reconstruction error is bounded: the decoded vector is closer to the
/// original than the zero vector is (i.e. quantization explains most of
/// the energy), and the mean per-dimension squared error is small for a
/// smooth catalog.
#[test]
fn reconstruction_error_is_bounded() {
    let vecs = vectors(600, 16, 0.5);
    let mut idx = catalog(&vecs);
    idx.quantize(PqConfig {
        m: 8,
        rerank: 4,
        seed: 0,
    })
    .unwrap();
    let pq = idx.pq().unwrap();
    let mut err = 0.0f64;
    let mut energy = 0.0f64;
    for (i, v) in vecs.iter().enumerate() {
        let rec = pq.book().reconstruct(pq.code_row(i).unwrap());
        err += v
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
        energy += v.iter().map(|a| a * a).sum::<f64>();
    }
    assert!(
        err < 0.05 * energy,
        "quantization keeps ≥95% of catalog energy (err {err:.4} vs energy {energy:.4})"
    );
}

/// With distinct vectors and a codebook at least as large as the
/// catalog, every training row is its own centroid and reconstruction
/// is exact to the bit.
#[test]
fn small_catalog_reconstructs_exactly() {
    let vecs = vectors(50, 12, 2.0);
    let mut idx = catalog(&vecs);
    idx.quantize(PqConfig {
        m: 6,
        rerank: 2,
        seed: 0,
    })
    .unwrap();
    let pq = idx.pq().unwrap();
    for (i, v) in vecs.iter().enumerate() {
        let rec = pq.book().reconstruct(pq.code_row(i).unwrap());
        let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(v), bits(&rec), "vector {i} must round-trip exactly");
    }
}

/// The `.kgvi` mapped file round-trips a quantized HNSW catalog through
/// disk and answers bit-identically to the owned index.
#[test]
fn mapped_quantized_roundtrip_matches_owned() {
    let vecs = vectors(150, 10, 0.0);
    let mut idx = catalog(&vecs);
    idx.build_hnsw(HnswConfig::default());
    idx.quantize(PqConfig {
        m: 5,
        rerank: 4,
        seed: 1,
    })
    .unwrap();
    let dir = std::env::temp_dir().join("kgpip-pq-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.kgvi");
    idx.write_mapped(&path).unwrap();
    let mapped = MappedIndex::open(&path).unwrap();
    assert!(mapped.is_quantized());
    for q in 0..15 {
        let query = idx.vector(q).unwrap().to_vec();
        assert_bitwise_eq(
            &idx.search(&query, 5),
            &mapped.top_k(&query, 5),
            &format!("disk-mapped query {q}"),
        );
    }
    let stats = mapped.stats();
    assert!(stats.quantized);
    // The code matrix is count × m bytes vs count × dim × 8 for the f64
    // block (the fixed codebook cost amortizes away at catalog scale —
    // the bench asserts the end-to-end ratio at 100K).
    let code_matrix = stats.count * 5;
    assert!(
        code_matrix * 8 <= stats.vector_bytes,
        "codes must be ≤ 1/8 of the f64 block"
    );
    assert_eq!(stats.resident_bytes(), idx.stats().resident_bytes());
    std::fs::remove_file(&path).ok();
}

/// Online `register` on a quantized index encodes against the frozen
/// codebooks: the codebooks stay byte-identical, the new vector is
/// findable, and no retrain happens.
#[test]
fn register_encodes_against_frozen_codebooks() {
    let vecs = vectors(200, 8, 0.0);
    let mut idx = catalog(&vecs);
    idx.build_hnsw(HnswConfig::default());
    idx.quantize(PqConfig {
        m: 4,
        rerank: 6,
        seed: 0,
    })
    .unwrap();
    let book_before = idx.pq().unwrap().book().to_bytes();
    let fresh: Vec<f64> = (0..8).map(|d| (d as f64 * 0.9).cos()).collect();
    idx.register("fresh", fresh.clone());
    let pq = idx.pq().unwrap();
    assert_eq!(pq.len(), 201, "code matrix grew by one row");
    assert_eq!(
        pq.book().to_bytes(),
        book_before,
        "codebooks must stay frozen"
    );
    let hits = idx.search(&fresh, 1);
    assert_eq!(hits[0].0, "fresh");
}
