//! Property-based tests for the embedding substrate.

use kgpip_embeddings::column::{column_embedding, column_embedding_parts, cosine, EMBED_DIM};
use kgpip_embeddings::tsne::{tsne, TsneConfig};
use kgpip_embeddings::{table_embedding, VectorIndex};
use kgpip_tabular::{fnv1a, Column, ColumnKind, ColumnStats, DataFrame};
use proptest::prelude::*;

/// The hashed-trigram block of a column embedding (`[12, 44)`) as first
/// written: a fresh `str::to_lowercase` copy of every cell.
fn trigram_sketch_oracle(strings: &[String]) -> Vec<f64> {
    let mut v = vec![0.0f64; 32];
    let mut bump = |h: u64| {
        v[(h % 32) as usize] += if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    };
    let mut count = 0usize;
    for s in strings {
        let lowered = s.to_lowercase();
        let bytes = lowered.as_bytes();
        if bytes.len() < 3 {
            bump(fnv1a(bytes));
            count += 1;
            continue;
        }
        for w in bytes.windows(3) {
            bump(fnv1a(w));
            count += 1;
        }
    }
    if count > 0 {
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Column embeddings are finite and bounded for arbitrary content.
    #[test]
    fn column_embedding_is_finite(
        values in proptest::collection::vec(proptest::option::of(-1e9f64..1e9), 0..60)
    ) {
        let e = column_embedding(&Column::numeric(values));
        prop_assert_eq!(e.len(), EMBED_DIM);
        prop_assert!(e.iter().all(|v| v.is_finite()));
        prop_assert!(e.iter().all(|v| v.abs() <= 2.0), "components are squashed");
    }

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_is_symmetric_and_bounded(
        a in proptest::collection::vec(-10.0f64..10.0, 4),
        b in proptest::collection::vec(-10.0f64..10.0, 4),
    ) {
        let ab = cosine(&a, &b);
        let ba = cosine(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ab));
        prop_assert!((cosine(&a, &a) - 1.0).abs() < 1e-9 || a.iter().all(|v| *v == 0.0));
    }

    /// Table embeddings are unit-norm (or zero for empty tables) whatever
    /// the column mix.
    #[test]
    fn table_embedding_norm(
        nums in proptest::collection::vec(-100.0f64..100.0, 1..40),
        with_cat in proptest::bool::ANY,
    ) {
        let mut frame = DataFrame::new();
        frame.push("n", Column::from_f64(nums.clone())).unwrap();
        if with_cat {
            let cats: Vec<Option<String>> =
                nums.iter().map(|v| Some(format!("c{}", (*v as i64) % 3))).collect();
            frame.push("c", Column::categorical(cats)).unwrap();
        }
        let e = table_embedding(&frame);
        let norm: f64 = e.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    /// The trigram sketch, which lowercases ASCII cells into one reused
    /// buffer, equals the per-cell `to_lowercase` sketch on arbitrary
    /// Unicode: `İ` and `Ⱥ` grow when lowercased, the Kelvin sign
    /// shrinks, and a word-final `Σ` lowercases by context.
    #[test]
    fn trigram_sketch_matches_to_lowercase(
        cells in proptest::collection::vec(
            "[a-zA-Z0-9 İıßΣσςK\u{212a}Ⱥé東\u{3000}-]{0,12}", 0..30
        ),
    ) {
        let stats = ColumnStats::compute(&Column::categorical(cells.iter().map(Some)));
        let e = column_embedding_parts(ColumnKind::Categorical, &stats, &cells);
        let oracle = trigram_sketch_oracle(&cells);
        let got: Vec<u64> = e[12..44].iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = oracle.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got, want, "{:?}", cells);
    }

    /// Exact top-k results are sorted by similarity and unique.
    #[test]
    fn top_k_is_sorted_and_unique(
        vectors in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 6), 1..25
        ),
        k in 1usize..10,
    ) {
        let mut idx = VectorIndex::new();
        for (i, v) in vectors.iter().enumerate() {
            idx.add(format!("v{i}"), v.clone());
        }
        let query = vectors[0].clone();
        let hits = idx.top_k(&query, k);
        prop_assert!(hits.len() <= k.min(vectors.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        let mut names: Vec<&String> = hits.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        prop_assert_eq!(names.len(), hits.len());
    }

    /// t-SNE yields finite coordinates for arbitrary point clouds.
    #[test]
    fn tsne_is_finite(
        points in proptest::collection::vec(
            proptest::collection::vec(-3.0f64..3.0, 4), 2..15
        ),
    ) {
        let layout = tsne(&points, &TsneConfig { iterations: 60, ..TsneConfig::default() });
        prop_assert_eq!(layout.len(), points.len());
        prop_assert!(layout.iter().all(|(x, y)| x.is_finite() && y.is_finite()));
    }
}
