//! Golden fixture for whole HPO searches.
//!
//! The fixture (`tests/fixtures/golden_hpo.txt`) pins, for Auto-Sklearn-
//! and FLAML-style searches on the six catalog datasets the end-to-end
//! `automl_run` workload uses (same scale, same seeds), every trial's spec
//! and score bits (or failure message), the best spec, the validation
//! score bits, the ensemble members and the failure report. It covers
//! cold-start searches (sequential) and skeleton searches (two workers). It was
//! recorded before trial evaluation, ensemble selection and the tree split
//! search were rewritten for speed, so any change to what a search
//! computes fails here.

use kgpip_benchdata::{benchmark, generate_dataset, ScaleConfig};
use kgpip_hpo::{AutoSklearn, Flaml, HpoResult, Optimizer, Skeleton, TimeBudget};
use kgpip_learners::pipeline::PipelineSpec;
use kgpip_learners::{EstimatorKind, Params, TransformerKind};
use kgpip_tabular::{train_test_split, Dataset};

/// Where the golden lines live.
const GOLDEN_PATH: &str = "tests/fixtures/golden_hpo.txt";
/// The `automl_run` datasets, in its order.
const DATASETS: [&str; 6] = [
    "phoneme",
    "higgs",
    "houses",
    "car",
    "pol",
    "spooky-author-identification",
];
/// The `automl_run` dataset scale.
const SCALE: ScaleConfig = ScaleConfig {
    max_rows: 300,
    max_cols: 8,
};
/// Trials per search; the cap binds long before the wall-clock guard.
const TRIAL_CAP: usize = 12;

/// The training part of a catalog dataset, generated and split as the
/// `automl_run` workload does.
fn dataset(name: &str) -> Dataset {
    let entry = benchmark()
        .iter()
        .find(|e| e.name == name)
        .expect("catalog dataset");
    let seed = u64::from(entry.id) * 1000;
    let ds = generate_dataset(entry, &SCALE, seed);
    train_test_split(&ds, 0.3, seed).expect("split").0
}

/// The skeletons searched on each dataset: one for the Auto-Sklearn-style
/// engine, one for the FLAML-style engine.
fn skeletons(name: &str) -> (Skeleton, Skeleton) {
    let bare = Skeleton::bare;
    match name {
        "phoneme" => (
            Skeleton {
                transformers: vec![TransformerKind::StandardScaler],
                estimator: EstimatorKind::RandomForest,
            },
            bare(EstimatorKind::Lgbm),
        ),
        "higgs" => (
            bare(EstimatorKind::ExtraTrees),
            bare(EstimatorKind::GradientBoosting),
        ),
        "houses" => (
            bare(EstimatorKind::RandomForest),
            bare(EstimatorKind::XgBoost),
        ),
        "car" => (
            bare(EstimatorKind::DecisionTree),
            bare(EstimatorKind::ExtraTrees),
        ),
        "pol" => (bare(EstimatorKind::RandomForest), bare(EstimatorKind::Knn)),
        _ => (bare(EstimatorKind::XgBoost), bare(EstimatorKind::Lgbm)),
    }
}

fn params_text(params: &Params) -> String {
    params
        .iter()
        .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(";")
}

fn spec_text(spec: &PipelineSpec) -> String {
    let transformers = spec
        .transformers
        .iter()
        .map(|(k, p)| format!("{}({})", k.name(), params_text(p)))
        .collect::<Vec<_>>()
        .join("+");
    format!(
        "[{transformers}]{}({})",
        spec.estimator.name(),
        params_text(&spec.params)
    )
}

/// Every answer of a search, as exact bits. Trial wall-clock costs and the
/// transform-cache counters (which depend on which concurrent trial
/// reaches the cache first) are left out.
fn result_lines(tag: &str, result: &HpoResult) -> Vec<String> {
    let mut lines: Vec<String> = result
        .history
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let outcome = match (t.score, &t.error) {
                (Some(s), _) => format!("{:016x}", s.to_bits()),
                (None, e) => format!("failed {e:?}"),
            };
            format!("{tag}\ttrial\t{i}\t{}\t{outcome}", spec_text(&t.spec))
        })
        .collect();
    lines.push(format!(
        "{tag}\tbest\t{}\t{:016x}\t{}",
        spec_text(&result.spec),
        result.valid_score.to_bits(),
        result.trials
    ));
    for (i, member) in result.ensemble.iter().enumerate() {
        lines.push(format!("{tag}\tensemble\t{i}\t{}", spec_text(member)));
    }
    lines.push(format!(
        "{tag}\treport\t{}\t{}\t{:?}",
        result.report.trials, result.report.failures, result.report.errors
    ));
    lines
}

fn budget() -> TimeBudget {
    TimeBudget::seconds(3600.0).with_trial_cap(TRIAL_CAP)
}

fn run_lines(tag: String, run: kgpip_hpo::Result<HpoResult>) -> Vec<String> {
    match run {
        Ok(result) => result_lines(&tag, &result),
        Err(e) => vec![format!("{tag}\terror\t{e}")],
    }
}

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for name in DATASETS {
        let train = dataset(name);
        let (auto_skeleton, flaml_skeleton) = skeletons(name);
        lines.extend(run_lines(
            format!("{name}\tautosklearn\tcold\tp1"),
            AutoSklearn::new(0).optimize(&train, &budget()),
        ));
        lines.extend(run_lines(
            format!("{name}\tflaml\tcold\tp1"),
            Flaml::new(0).optimize(&train, &budget()),
        ));
        lines.extend(run_lines(
            format!("{name}\tautosklearn\tskeleton\tp2"),
            AutoSklearn::new(0).with_parallelism(2).optimize_skeleton(
                &train,
                &auto_skeleton,
                &budget(),
            ),
        ));
        lines.extend(run_lines(
            format!("{name}\tflaml\tskeleton\tp2"),
            Flaml::new(0)
                .with_parallelism(2)
                .optimize_skeleton(&train, &flaml_skeleton, &budget()),
        ));
    }
    lines
}

fn golden_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

/// Rewrites the golden fixture from the current build. Run it only on a
/// commit whose search answers are the reference:
/// `cargo test -p kgpip-hpo --test hpo_golden -- --ignored record_golden_fixture`.
#[test]
#[ignore = "rewrites the golden fixture; run by hand on the reference commit"]
fn record_golden_fixture() {
    let path = golden_fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, golden_lines().join("\n") + "\n").expect("write golden fixture");
}

/// Every search answer equals the golden fixture to the bit.
#[test]
fn searches_match_golden_fixture() {
    let expected = std::fs::read_to_string(golden_fixture_path()).expect("golden fixture exists");
    let expected: Vec<&str> = expected.lines().collect();
    let got = golden_lines();
    assert_eq!(got.len(), expected.len(), "line count");
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "golden mismatch");
    }
}
