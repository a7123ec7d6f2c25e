//! Seeded synthetic embedding catalogs and the recall@K harness.
//!
//! The similarity-index tiers in `kgpip-embeddings` (exact / HNSW)
//! are benchmarked on catalogs far larger than any training corpus this
//! repo synthesizes — 100K to 1M table embeddings. [`synthetic_embeddings`]
//! mass-produces those catalogs as a clustered Gaussian mixture: unit-norm
//! cluster centers with Gaussian jitter, L2-normalized like real
//! `table_embedding` output, fully determined by `(n, dim, clusters,
//! seed)`. Clustered data is the adversarial case for approximate search
//! (flat random vectors make every method look good), which is why the
//! mixture — not uniform noise — is the house benchmark input.
//!
//! [`recall_at_k`] scores an approximate tier against the exact scan:
//! the fraction of the exact top-K names the approximate top-K retrieved.
//! Both the criterion benches and the gated recall tests consume these
//! two helpers so no harness hand-rolls vectors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Generates `n` L2-normalized `dim`-dimensional embeddings drawn from a
/// `clusters`-component Gaussian mixture, deterministically from `seed`.
/// Vectors cycle through the clusters (`i % clusters`), so every prefix
/// of the output covers all components — truncating a 1M catalog to 100K
/// keeps the same geometry.
pub fn synthetic_embeddings(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f64>> {
    let clusters = clusters.max(1);
    let dim = dim.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| normalize((0..dim).map(|_| gaussian(&mut rng)).collect()))
        .collect();
    (0..n)
        .map(|i| {
            let center = &centers[i % clusters];
            normalize(
                center
                    .iter()
                    .map(|x| x + 0.15 * gaussian(&mut rng))
                    .collect(),
            )
        })
        .collect()
}

/// Recall@K of an approximate result list against the exact one: the
/// fraction of the exact top-`k` names present in the approximate top-`k`.
/// `k` is capped at the exact list's length; an empty ground truth scores
/// 1.0 (there was nothing to miss).
pub fn recall_at_k(exact: &[(String, f64)], approx: &[(String, f64)], k: usize) -> f64 {
    let k = k.min(exact.len());
    if k == 0 {
        return 1.0;
    }
    let truth: HashSet<&str> = exact.iter().take(k).map(|(n, _)| n.as_str()).collect();
    let found = approx
        .iter()
        .take(k)
        .filter(|(n, _)| truth.contains(n.as_str()))
        .count();
    found as f64 / k as f64
}

fn normalize(v: Vec<f64>) -> Vec<f64> {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm < 1e-12 {
        // A zero draw is measure-zero but must not divide by zero; pin it
        // to the first axis so the output is still unit-norm.
        let mut unit = vec![0.0; v.len()];
        if let Some(first) = unit.first_mut() {
            *first = 1.0;
        }
        return unit;
    }
    v.into_iter().map(|x| x / norm).collect()
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller, as in `generate`.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_deterministic_and_unit_norm() {
        let a = synthetic_embeddings(200, 16, 8, 42);
        let b = synthetic_embeddings(200, 16, 8, 42);
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y));
        }
        for v in &a {
            assert_eq!(v.len(), 16);
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        }
        let c = synthetic_embeddings(200, 16, 8, 43);
        assert_ne!(
            a[0].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            c[0].iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "seed changes the catalog"
        );
    }

    #[test]
    fn same_cluster_vectors_are_closer_than_cross_cluster() {
        let vecs = synthetic_embeddings(400, 24, 4, 7);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        // v[0], v[4], v[8], ... share cluster 0; v[1] is cluster 1.
        let mut same = 0.0;
        let mut cross = 0.0;
        let mut pairs = 0;
        for i in (4..100).step_by(4) {
            same += dot(&vecs[0], &vecs[i]);
            cross += dot(&vecs[1], &vecs[i]);
            pairs += 1;
        }
        assert!(
            same / pairs as f64 > cross / pairs as f64 + 0.2,
            "clusters must be separable: same {same} cross {cross}"
        );
    }

    #[test]
    fn recall_scores_overlap_fraction() {
        let names = |ns: &[&str]| -> Vec<(String, f64)> {
            ns.iter().map(|n| (n.to_string(), 0.0)).collect()
        };
        let exact = names(&["a", "b", "c", "d"]);
        assert_eq!(recall_at_k(&exact, &exact, 4), 1.0);
        let half = names(&["a", "b", "x", "y"]);
        assert_eq!(recall_at_k(&exact, &half, 4), 0.5);
        assert_eq!(recall_at_k(&exact, &names(&[]), 4), 0.0);
        assert_eq!(recall_at_k(&names(&[]), &half, 4), 1.0);
        // k larger than the catalog caps at the exact length.
        assert_eq!(recall_at_k(&exact, &exact, 10), 1.0);
    }
}
