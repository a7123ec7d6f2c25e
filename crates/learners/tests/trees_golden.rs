//! Golden fixture for the tree learners: CART trees, forests (random
//! forest, extra trees, the SMAC surrogate's shape) and histogram GBT on a
//! wide matrix.
//!
//! The fixture (`tests/fixtures/golden_trees.txt`) pins the bits of every
//! `predict`, `predict_proba` and `Forest::predict_per_tree` answer on
//! generated designs that carry tied values, signed zeros and duplicated
//! rows (per-row answers as a length plus an FNV-1a digest of their bits),
//! under Gini and MSE, with and without bootstrap, with feature
//! subsampling, and with `min_samples_leaf` / `min_samples_split` binding.
//! It was recorded before the split search was rewritten for speed, so any
//! change to what a fit computes fails here, independently of the in-crate
//! oracle tests.

use kgpip_learners::estimators::gbt::{GbtConfig, GradientBoosting};
use kgpip_learners::estimators::tree::{DecisionTree, Forest, TreeConfig};
use kgpip_learners::{Estimator, EstimatorKind, Matrix};
use kgpip_tabular::Task;

/// Where the golden lines live.
const GOLDEN_PATH: &str = "tests/fixtures/golden_trees.txt";

/// SplitMix64: a self-contained generator so the designs never depend on
/// another crate's stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `0.0` or `-0.0`, evenly.
    fn signed_zero(&mut self) -> f64 {
        if self.below(2) == 0 {
            0.0
        } else {
            -0.0
        }
    }
}

/// A `rows × cols` design whose columns cycle through four shapes:
/// continuous, a coarse integer grid around zero (ties, and zeros of both
/// signs), mostly-continuous with frequent signed zeros, and a 3-level
/// code. Every ninth row repeats the row before it.
fn design(rng: &mut Mix, rows: usize, cols: usize) -> Matrix {
    let mut data: Vec<Vec<f64>> = Vec::with_capacity(rows);
    for r in 0..rows {
        if r % 9 == 4 {
            let dup = data[r - 1].clone();
            data.push(dup);
            continue;
        }
        let row = (0..cols)
            .map(|c| match c % 4 {
                0 => rng.unit() * 10.0 - 5.0,
                1 => {
                    let v = rng.below(5) as f64 - 2.0;
                    if v == 0.0 {
                        rng.signed_zero()
                    } else {
                        v
                    }
                }
                2 => {
                    if rng.below(4) == 0 {
                        rng.signed_zero()
                    } else {
                        rng.unit() - 0.5
                    }
                }
                _ => rng.below(3) as f64,
            })
            .collect();
        data.push(row);
    }
    Matrix::from_rows(&data).expect("rectangular design")
}

/// Targets for `task` from the design's first columns plus noise; the
/// regression target is rounded to a grid so it ties too.
fn targets(rng: &mut Mix, x: &Matrix, task: Task) -> Vec<f64> {
    (0..x.rows())
        .map(|r| {
            let row = x.row(r);
            let signal = row[0] * 0.4 + row[1] - row[row.len() - 1] * 0.7 + rng.unit() * 1.5;
            match task {
                Task::Binary => f64::from(signal > 0.3),
                Task::MultiClass(k) => {
                    let bucket = ((signal + 4.0) / 8.0 * k as f64).floor();
                    bucket.clamp(0.0, (k - 1) as f64)
                }
                Task::Regression => (signal * 4.0).round() / 4.0,
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Length plus FNV-1a over the exact bits: keeps per-row answers of large
/// designs to one short field.
fn digest(values: &[f64]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{}:{hash:016x}", values.len())
}

fn task_name(task: Task) -> String {
    match task {
        Task::Binary => "binary".to_string(),
        Task::MultiClass(k) => format!("multiclass{k}"),
        Task::Regression => "regression".to_string(),
    }
}

/// The tree configurations every tree learner is fitted under.
fn tree_configs() -> Vec<(&'static str, TreeConfig)> {
    vec![
        ("default", TreeConfig::default()),
        (
            "shallow_half_features",
            TreeConfig {
                max_depth: 3,
                max_features: 0.5,
                seed: 5,
                ..TreeConfig::default()
            },
        ),
        (
            "leaf4_split9_third",
            TreeConfig {
                max_depth: 12,
                min_samples_split: 9,
                min_samples_leaf: 4,
                max_features: 0.34,
                seed: 11,
                ..TreeConfig::default()
            },
        ),
        (
            "depth7_leaf2",
            TreeConfig {
                max_depth: 7,
                min_samples_leaf: 2,
                seed: 3,
                ..TreeConfig::default()
            },
        ),
        (
            "random_thresholds",
            TreeConfig {
                max_depth: 9,
                max_features: 0.5,
                random_thresholds: true,
                seed: 17,
                ..TreeConfig::default()
            },
        ),
        (
            "random_thresholds_leaf3",
            TreeConfig {
                max_depth: 12,
                min_samples_split: 5,
                min_samples_leaf: 3,
                max_features: 1.0,
                random_thresholds: true,
                seed: 23,
            },
        ),
    ]
}

/// Predictions of a fitted estimator: `predict`, plus `predict_proba` for
/// classification.
fn answer_lines(tag: &str, est: &dyn Estimator, x: &Matrix, task: Task) -> Vec<String> {
    let mut lines = vec![format!(
        "{tag}\tpredict\t{}",
        digest(&est.predict(x).expect("fitted estimator predicts"))
    )];
    if task.is_classification() {
        let proba = est
            .predict_proba(x)
            .expect("fitted classifier predicts proba");
        lines.push(format!(
            "{tag}\tpredict_proba\t{}",
            digest(proba.as_slice())
        ));
    }
    lines
}

fn forest_lines(tag: &str, forest: &Forest, x: &Matrix, task: Task) -> Vec<String> {
    let mut lines = answer_lines(tag, forest, x, task);
    for (t, preds) in forest
        .predict_per_tree(x)
        .expect("fitted forest")
        .iter()
        .enumerate()
    {
        lines.push(format!("{tag}\tper_tree\t{t}\t{}", digest(preds)));
    }
    lines
}

/// Tree and forest lines over every design × task × configuration.
fn tree_lines() -> Vec<String> {
    let mut rng = Mix(0x7e3e);
    let designs = [
        ("small", 37usize, 3usize),
        ("mid", 168, 8),
        ("wide", 90, 13),
    ];
    let tasks = [Task::Binary, Task::MultiClass(3), Task::Regression];
    let mut lines = Vec::new();
    for (dname, rows, cols) in designs {
        let x = design(&mut rng, rows, cols);
        for task in tasks {
            let y = targets(&mut rng, &x, task);
            for (cname, config) in tree_configs() {
                let tag = format!("{dname}\t{}\t{cname}", task_name(task));
                let mut tree = DecisionTree::new(config.clone());
                tree.fit(&x, &y, task).expect("tree fits");
                lines.extend(answer_lines(&format!("{tag}\ttree"), &tree, &x, task));
                for bootstrap in [true, false] {
                    let kind = if config.random_thresholds {
                        EstimatorKind::ExtraTrees
                    } else {
                        EstimatorKind::RandomForest
                    };
                    let mut forest = Forest::new(6, config.clone(), bootstrap, kind);
                    forest.fit(&x, &y, task).expect("forest fits");
                    lines.extend(forest_lines(
                        &format!("{tag}\tforest_bootstrap_{bootstrap}"),
                        &forest,
                        &x,
                        task,
                    ));
                }
            }
        }
    }
    lines
}

/// The SMAC surrogate's shape: 12 bootstrapped trees of depth 6 over 70%
/// of the features, fitted on one-hot learner codes plus a padded
/// configuration vector, queried one candidate at a time.
fn surrogate_lines() -> Vec<String> {
    let mut rng = Mix(0x5a5a);
    let mut lines = Vec::new();
    for observed in [4usize, 9, 30] {
        let rows: Vec<Vec<f64>> = (0..observed)
            .map(|_| {
                let mut row = vec![0.0; 17];
                row[rng.below(3)] = 1.0;
                for v in row.iter_mut().skip(11).take(1 + rng.below(6)) {
                    *v = (rng.unit() * 8.0).round() / 8.0;
                }
                row
            })
            .collect();
        let x = Matrix::from_rows(&rows).expect("rectangular");
        let y: Vec<f64> = (0..observed).map(|_| 0.5 + rng.unit() * 0.4).collect();
        for seed in [0u64, 7] {
            let mut surrogate = Forest::new(
                12,
                TreeConfig {
                    max_depth: 6,
                    max_features: 0.7,
                    seed,
                    ..TreeConfig::default()
                },
                true,
                EstimatorKind::RandomForest,
            );
            surrogate
                .fit(&x, &y, Task::Regression)
                .expect("surrogate fits");
            let queries: Vec<Vec<f64>> = (0..8)
                .map(|_| {
                    let mut row = vec![0.0; 17];
                    row[rng.below(3)] = 1.0;
                    for v in row.iter_mut().skip(11) {
                        *v = rng.unit();
                    }
                    row
                })
                .collect();
            for (q, query) in queries.iter().enumerate() {
                let xq = Matrix::from_rows(std::slice::from_ref(query)).expect("one row");
                let per_tree: Vec<f64> = surrogate
                    .predict_per_tree(&xq)
                    .expect("fitted surrogate")
                    .iter()
                    .map(|t| t[0])
                    .collect();
                lines.push(format!(
                    "surrogate\t{observed}\t{seed}\t{q}\t{}",
                    bits(&per_tree)
                ));
            }
        }
    }
    lines
}

/// Histogram GBT (all three families) on a matrix with ≥ 16 columns.
fn gbt_lines() -> Vec<String> {
    let mut rng = Mix(0x6b7);
    let x = design(&mut rng, 140, 20);
    let mut lines = Vec::new();
    for task in [Task::Binary, Task::MultiClass(3), Task::Regression] {
        let y = targets(&mut rng, &x, task);
        for kind in [
            EstimatorKind::GradientBoosting,
            EstimatorKind::XgBoost,
            EstimatorKind::Lgbm,
        ] {
            for (subsample, max_bins) in [(1.0, 256usize), (0.7, 32)] {
                let mut gbt = GradientBoosting::new(GbtConfig {
                    n_estimators: 12,
                    learning_rate: 0.2,
                    max_depth: if kind == EstimatorKind::Lgbm { 16 } else { 4 },
                    subsample,
                    lambda: if kind == EstimatorKind::GradientBoosting {
                        0.0
                    } else {
                        1.0
                    },
                    gamma: 0.0,
                    min_child_weight: 1.0,
                    second_order: kind != EstimatorKind::GradientBoosting,
                    histogram: true,
                    max_bins,
                    max_leaves: if kind == EstimatorKind::Lgbm { 15 } else { 0 },
                    seed: 9,
                    kind,
                });
                gbt.fit(&x, &y, task).expect("gbt fits");
                let tag = format!(
                    "gbt\t{}\t{}\t{subsample}\t{max_bins}",
                    task_name(task),
                    kind
                );
                lines.extend(answer_lines(&tag, &gbt, &x, task));
            }
        }
    }
    lines
}

fn golden_lines() -> Vec<String> {
    let mut lines = tree_lines();
    lines.extend(surrogate_lines());
    lines.extend(gbt_lines());
    lines
}

fn golden_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

/// Rewrites the golden fixture from the current build. Run it only on a
/// commit whose tree-learner answers are the reference:
/// `cargo test -p kgpip-learners --test trees_golden -- --ignored record_golden_fixture`.
#[test]
#[ignore = "rewrites the golden fixture; run by hand on the reference commit"]
fn record_golden_fixture() {
    let path = golden_fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, golden_lines().join("\n") + "\n").expect("write golden fixture");
}

/// Every tree, forest, surrogate and histogram-GBT answer equals the
/// golden fixture to the bit.
#[test]
fn tree_learners_match_golden_fixture() {
    let expected = std::fs::read_to_string(golden_fixture_path()).expect("golden fixture exists");
    let expected: Vec<&str> = expected.lines().collect();
    let got = golden_lines();
    assert_eq!(got.len(), expected.len(), "line count");
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "golden mismatch");
    }
}
