//! Golden fixture for budgeted AutoML runs: `TrainedModel::run_k` on the
//! six catalog datasets of the end-to-end `automl_run` workload, at its
//! scale, K, trial cap, seeds and alternating backends.
//!
//! The fixture (`tests/fixtures/golden_run_k.txt`) pins, per run and per
//! skeleton, the skeleton, every trial's spec and score bits, the best
//! spec, the validation score bits and the ensemble members, plus the
//! run's best score. It was recorded before trial evaluation, ensemble
//! selection and the tree split search were rewritten for speed. The
//! model is trained like the workload's (same corpus, generator shape and
//! epochs), so the skeletons searched are the ones the workload searches.

use kgpip::prelude::*;
use kgpip::MiningCache;
use kgpip_benchdata::{benchmark, generate_dataset, training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig};
use kgpip_graphgen::GeneratorConfig;
use kgpip_learners::pipeline::PipelineSpec;
use kgpip_learners::Params;

/// Where the golden lines live.
const GOLDEN_PATH: &str = "tests/fixtures/golden_run_k.txt";
/// The workload's datasets, in catalog order.
const DATASETS: [&str; 6] = [
    "phoneme",
    "higgs",
    "houses",
    "car",
    "pol",
    "spooky-author-identification",
];
/// Skeletons per run.
const K: usize = 3;
/// Trials per run.
const TRIAL_CAP: usize = 60;
/// Dataset scale.
const SCALE: ScaleConfig = ScaleConfig {
    max_rows: 300,
    max_cols: 8,
};

/// The workload's model: 16 training tables, 96 mined scripts, the
/// default generator shape trained for 5 epochs.
fn model() -> TrainedModel {
    let setup = training_setup(
        2,
        &ScaleConfig {
            max_rows: 300,
            max_cols: 20,
        },
        0,
    );
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: 6,
            unsupported_fraction: 0.25,
            seed: 0,
            ..CorpusConfig::default()
        },
    );
    let config = KgpipConfig::default()
        .with_seed(0)
        .with_generator(GeneratorConfig {
            epochs: 5,
            seed: 0,
            ..GeneratorConfig::default()
        });
    Kgpip::train_with_cache(&scripts, &setup.tables, config, &MiningCache::default())
        .expect("training succeeds")
        .into_artifact()
}

fn dataset(name: &str) -> Dataset {
    let entry = benchmark()
        .iter()
        .find(|e| e.name == name)
        .expect("catalog dataset");
    let seed = u64::from(entry.id) * 1000;
    let ds = generate_dataset(entry, &SCALE, seed);
    train_test_split(&ds, 0.3, seed).expect("split").0
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

/// Every answer of a run, as exact bits (wall-clock costs left out).
fn run_lines(tag: &str, run: &KgpipRun) -> Vec<String> {
    let mut lines = vec![format!("{tag}\tneighbour\t{}", run.neighbour)];
    for (rank, result) in run.results.iter().enumerate() {
        let skeleton = &result.skeleton;
        let names: Vec<&str> = skeleton.transformers.iter().map(|t| t.name()).collect();
        let at = format!("{tag}\t{rank}");
        lines.push(format!(
            "{at}\tskeleton\t{}\t{}\t{:016x}",
            names.join("+"),
            skeleton.estimator.name(),
            result.generation_score.to_bits()
        ));
        let Some(hpo) = &result.hpo else {
            lines.push(format!("{at}\tno_result"));
            continue;
        };
        for (i, t) in hpo.history.iter().enumerate() {
            let outcome = match (t.score, &t.error) {
                (Some(s), _) => format!("{:016x}", s.to_bits()),
                (None, e) => format!("failed {e:?}"),
            };
            lines.push(format!(
                "{at}\ttrial\t{i}\t{}\t{outcome}",
                spec_text(&t.spec)
            ));
        }
        lines.push(format!(
            "{at}\tbest\t{}\t{:016x}\t{}",
            spec_text(&hpo.spec),
            hpo.valid_score.to_bits(),
            hpo.trials
        ));
        for (i, member) in hpo.ensemble.iter().enumerate() {
            lines.push(format!("{at}\tensemble\t{i}\t{}", spec_text(member)));
        }
    }
    lines.push(format!(
        "{tag}\tbest_score\t{}\t{:016x}",
        run.best_index,
        run.best_score().to_bits()
    ));
    lines
}

/// One `run_k` per dataset, backends alternating as in the workload
/// (FLAML-style on odd catalog positions).
fn golden_lines(model: &TrainedModel) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, name) in DATASETS.iter().enumerate() {
        let train = dataset(name);
        let mut engine: Box<dyn Optimizer> = if i % 2 == 1 {
            Box::new(Flaml::new(0))
        } else {
            Box::new(AutoSklearn::new(0))
        };
        let budget = TimeBudget::seconds(3600.0).with_trial_cap(TRIAL_CAP);
        let run = model
            .run_k(&train, engine.as_mut(), budget, K)
            .expect("run_k succeeds");
        lines.extend(run_lines(name, &run));
    }
    lines
}

fn golden_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

/// Rewrites the golden fixture from the current build. Run it only on a
/// commit whose AutoML answers are the reference:
/// `cargo test --release -p kgpip --test run_k_golden -- --ignored record_golden_fixture`.
#[test]
#[ignore = "rewrites the golden fixture; run by hand on the reference commit"]
fn record_golden_fixture() {
    let path = golden_fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, golden_lines(&model()).join("\n") + "\n").expect("write golden fixture");
}

/// Sequential and two-lane `run_k` both equal the golden fixture to the
/// bit: each lane's sub-search is capped by trials, so the lane schedule
/// changes cost, never answers.
#[test]
fn run_k_matches_golden_fixture() {
    let expected = std::fs::read_to_string(golden_fixture_path()).expect("golden fixture exists");
    let expected: Vec<&str> = expected.lines().collect();
    let mut model = model();
    for parallelism in [1usize, 2] {
        model.set_parallelism(parallelism);
        let got = golden_lines(&model);
        assert_eq!(
            got.len(),
            expected.len(),
            "line count at parallelism {parallelism}"
        );
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g, e, "golden mismatch at parallelism {parallelism}");
        }
    }
}
