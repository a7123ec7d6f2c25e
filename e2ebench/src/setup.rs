//! Set-up shared by every workload: a generated corpus is mined, the
//! generator trained at `GeneratorConfig::default()`'s shape, the artifact
//! written to snapshot bytes and reopened from them. `serve_open` then
//! grows the catalog through `TrainedModel::register_dataset`.
//!
//! The trained system is the same for every `--seed`: generation cost
//! depends on the trained weights, so a seed-dependent model would make
//! each seed measure a different system. The seed varies the traffic.

use crate::report::nproc;
use crate::stats;
use kgpip::prelude::*;
use kgpip::MiningCache;
use kgpip_benchdata::generate::{synthesize, SynthSpec};
use kgpip_benchdata::{training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, ScriptRecord};
use kgpip_graphgen::GeneratorConfig;
use std::hint::black_box;
use std::time::Instant;

/// Training datasets per content domain (8 domains → 16 datasets).
pub const PER_DOMAIN: usize = 2;
/// Mined scripts per training dataset (16 × 6 = 96 scripts).
pub const SCRIPTS_PER_DATASET: usize = 6;
/// Generator training epochs.
pub const EPOCHS: usize = 5;
/// Timed set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Generation workers of the predicting model, as `kgpip-cli train`
/// leaves it (`KgpipConfig::default()`); `serve_open` gets its concurrency
/// from the serve workers instead. Training and `run_k` use one worker per
/// CPU.
pub const PREDICT_PARALLELISM: usize = 1;
/// Seed of the training corpus and the generator.
pub const CORPUS_SEED: u64 = 0;

/// The training corpus: scripts plus the tables they were written for.
pub struct Corpus {
    /// Generated notebooks.
    pub scripts: Vec<ScriptRecord>,
    /// Training tables, for content embeddings.
    pub tables: Vec<(String, DataFrame)>,
}

/// Generates the training corpus.
pub fn corpus() -> Corpus {
    let seed = CORPUS_SEED;
    let setup = training_setup(
        PER_DOMAIN,
        &ScaleConfig {
            max_rows: 300,
            max_cols: 20,
        },
        seed,
    );
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: SCRIPTS_PER_DATASET,
            unsupported_fraction: 0.25,
            seed,
            ..CorpusConfig::default()
        },
    );
    Corpus {
        scripts,
        tables: setup.tables,
    }
}

/// The system configuration every workload trains with: the default
/// generator shape (hidden 32, 2 propagation rounds), `EPOCHS` epochs,
/// and one worker per CPU.
pub fn config() -> KgpipConfig {
    let seed = CORPUS_SEED;
    KgpipConfig::default()
        .with_seed(seed)
        .with_generator(GeneratorConfig {
            epochs: EPOCHS,
            seed,
            ..GeneratorConfig::default()
        })
        .with_parallelism(nproc())
}

/// A small table with a catalog-like schema: a few numeric columns, and
/// sometimes categorical, text and missing cells. `index` picks the shape,
/// `name` the content domain and `seed` the values, so callers keep names
/// free of the run's seed to hold each table's cost steady across seeds.
pub fn catalog_table(name: String, index: usize, rows: usize, seed: u64) -> Dataset {
    let regression = index.is_multiple_of(3);
    synthesize(
        &SynthSpec {
            name,
            rows,
            num: 2 + index % 6,
            cat: usize::from(index % 2 == 1) + usize::from(index.is_multiple_of(5)),
            text: usize::from(index % 7 == 3),
            classes: if regression { 0 } else { 2 + index % 3 },
            ceiling: 0.9,
            missing: if index % 4 == 2 { 0.02 } else { 0.0 },
        },
        seed,
    )
}

/// One timed set-up: corpus → trained artifact → snapshot bytes →
/// reopened model → catalog growth. Returns the model, the seconds taken,
/// the snapshot bytes and whether they reopen to a model that serializes
/// back to them.
fn build_once(
    corpus: &Corpus,
    growth: &[(String, DataFrame)],
) -> Result<(TrainedModel, f64, Vec<u8>, bool), String> {
    let started = Instant::now();
    let artifact = Kgpip::train_with_cache(
        &corpus.scripts,
        &corpus.tables,
        config(),
        &MiningCache::default(),
    )
    .map_err(|e| format!("training failed: {e}"))?
    .into_artifact();
    let bytes = artifact
        .snapshot_bytes()
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let mut model = Snapshot::from_bytes(&bytes)
        .map_err(|e| format!("reopen failed: {e}"))?
        .model;
    for (name, table) in growth {
        model
            .register_dataset(name, table)
            .map_err(|e| format!("catalog growth failed: {e}"))?;
    }
    let secs = started.elapsed().as_secs_f64();
    // Outside the timed window.
    let roundtrip = Snapshot::from_bytes(&bytes)
        .and_then(|s| s.model.snapshot_bytes())
        .is_ok_and(|again| again == bytes);
    Ok((model, secs, bytes, roundtrip))
}

/// Timed set-ups of one run. The first one builds the model the workload
/// measures; the rest run after the measurement window, so the median
/// samples the host at different moments of the run.
pub struct SetupTimer {
    /// Seconds of each set-up.
    samples: Vec<f64>,
    /// Snapshot bytes of the first set-up.
    bytes: Vec<u8>,
    /// Whether every set-up produced the first one's snapshot bytes and
    /// every snapshot reopened to a model that re-serializes to them.
    deterministic: bool,
}

impl SetupTimer {
    /// Runs the first timed set-up and returns its model.
    pub fn first(
        corpus: &Corpus,
        growth: &[(String, DataFrame)],
    ) -> Result<(TrainedModel, SetupTimer), String> {
        let (model, secs, bytes, roundtrip) = build_once(corpus, growth)?;
        Ok((
            model,
            SetupTimer {
                samples: vec![secs],
                bytes,
                deterministic: roundtrip,
            },
        ))
    }

    /// Runs the remaining set-ups and records `setup_s`, its samples and
    /// the determinism check in `outcome`.
    pub fn finish(
        mut self,
        outcome: &mut crate::report::Outcome,
        corpus: &Corpus,
        growth: &[(String, DataFrame)],
    ) -> Result<(), String> {
        while self.samples.len() < SETUP_REPEATS {
            let (again, secs, bytes, roundtrip) = build_once(corpus, growth)?;
            self.deterministic &= roundtrip && bytes == self.bytes;
            black_box(again);
            self.samples.push(secs);
        }
        outcome.check(
            "setup.deterministic_snapshot",
            self.deterministic,
            format!(
                "{} set-ups, {} snapshot bytes",
                self.samples.len(),
                self.bytes.len()
            ),
        );
        outcome.metric(
            "setup_s",
            stats::median(&self.samples).unwrap_or(f64::NAN),
            "s",
        );
        outcome.note(
            "setup_samples_s",
            crate::report::Json::Arr(
                self.samples
                    .iter()
                    .map(|&s| crate::report::Json::Num(s))
                    .collect(),
            ),
        );
        Ok(())
    }
}

/// Per-layer timings of one set-up, each stage timed through its own
/// public call.
pub struct SetupLayers {
    /// `MiningCache::mine` per script, cold cache, ms.
    pub mine_ms_per_script: f64,
    /// `Kgpip::train_with_cache` with the cache warm, s.
    pub train_s: f64,
    /// `TrainedModel::snapshot_bytes`, ms.
    pub snapshot_write_ms: f64,
    /// `Snapshot::from_bytes`, ms.
    pub snapshot_open_ms: f64,
    /// Per-call `TrainedModel::register_dataset` during growth, ms.
    pub register_ms: Vec<f64>,
}

/// One set-up timed stage by stage. Returns the reopened, grown model.
pub fn traced_setup(
    corpus: &Corpus,
    growth: &[(String, DataFrame)],
) -> Result<(TrainedModel, SetupLayers), String> {
    let cache = MiningCache::default();
    let started = Instant::now();
    for script in &corpus.scripts {
        black_box(cache.mine(&script.source));
    }
    let mine_ms_per_script =
        started.elapsed().as_secs_f64() * 1e3 / corpus.scripts.len().max(1) as f64;

    let started = Instant::now();
    let artifact = Kgpip::train_with_cache(&corpus.scripts, &corpus.tables, config(), &cache)
        .map_err(|e| format!("training failed: {e}"))?
        .into_artifact();
    let train_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let bytes = artifact
        .snapshot_bytes()
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let snapshot_write_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let mut model = Snapshot::from_bytes(&bytes)
        .map_err(|e| format!("reopen failed: {e}"))?
        .model;
    let snapshot_open_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut register_ms = Vec::with_capacity(growth.len());
    for (name, table) in growth {
        let started = Instant::now();
        model
            .register_dataset(name, table)
            .map_err(|e| format!("catalog growth failed: {e}"))?;
        register_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok((
        model,
        SetupLayers {
            mine_ms_per_script,
            train_s,
            snapshot_write_ms,
            snapshot_open_ms,
            register_ms,
        },
    ))
}
