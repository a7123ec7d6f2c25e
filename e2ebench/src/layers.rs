//! Per-layer measurement for the traced runs (`--trace 1`).
//!
//! Every span is taken from outside the program, around a call into one
//! layer's public API. A traced run reports every metric in [`PER_LAYER`];
//! each workload fills the layers its stream exercises from that stream,
//! and the rest from probes on its own inputs (see `README.md`).

use crate::report::Outcome;
use crate::setup::{self, SetupLayers};
use crate::stats::{mean, median, nearest_rank};
use kgpip::prelude::*;
use kgpip_hpo::SearchReport;
use kgpip_learners::Params;
use kgpip_tabular::csv::{read_frame, write_csv};
use kgpip_tabular::{read_chunked, ChunkedReadOptions};
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("codegraph.mine_ms_per_script", "ms"),
    ("core.train_s", "s"),
    ("core.snapshot_write_ms", "ms"),
    ("core.snapshot_open_ms", "ms"),
    ("embeddings.register_ms_p50", "ms"),
    ("core.predict_k3_ms_p50", "ms"),
    ("core.predict_k5_ms_p50", "ms"),
    ("core.predict_k7_ms_p50", "ms"),
    ("core.skeletons_per_k", "ratio"),
    ("embeddings.nearest_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.refused_ratio", "ratio"),
    ("serve.lateness_ms_p95", "ms"),
    ("core.artifact_clone_ms", "ms"),
    ("tabular.read_frame_ms_p50", "ms"),
    ("tabular.read_chunked_ms_p50", "ms"),
    ("embeddings.embed_table_ms_p50", "ms"),
    ("embeddings.embed_chunked_ms_p50", "ms"),
    ("core.predict_skeletons_ms_p50", "ms"),
    ("learners.trial_ms_p50", "ms"),
    ("hpo.trial_failure_ratio", "ratio"),
    ("hpo.transform_cache_hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Catalog-like tables registered into a clone of the model when the
/// workload's own set-up does not grow the catalog.
const REGISTER_PROBES: usize = 64;
/// Clones timed for `core.artifact_clone_ms`.
const CLONE_PROBES: usize = 9;

/// Milliseconds since `started`.
pub fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The chunked-ingest options of the CLI's `--chunked` path, with one
/// worker per CPU.
pub fn chunk_options() -> ChunkedReadOptions {
    ChunkedReadOptions {
        chunk_rows: 8192,
        parallelism: crate::report::nproc(),
        bounded_memory: true,
    }
}

/// Samples collected by a traced run.
#[derive(Default)]
pub struct Layers {
    /// Set-up stage timings.
    pub setup: Option<SetupLayers>,
    /// `TrainedModel::register_dataset` per call, ms.
    pub register_ms: Vec<f64>,
    /// `predict_with_embedding` at K = 3, 5, 7, ms.
    pub predict_ms: [Vec<f64>; 3],
    /// Skeletons returned and skeletons asked for (Σ K).
    pub skeletons: (u64, u64),
    /// `nearest_by_embedding`, µs.
    pub nearest_us: Vec<f64>,
    /// Serving-layer ratios `(cache hit, mean batch size, refused)`.
    pub serve: (f64, f64, f64),
    /// How late the load generator issued each operation, ms.
    pub lateness_ms: Vec<f64>,
    /// `TrainedModel::clone`, ms.
    pub clone_ms: Vec<f64>,
    /// `read_frame`, ms.
    pub read_frame_ms: Vec<f64>,
    /// `read_chunked`, ms.
    pub read_chunked_ms: Vec<f64>,
    /// `TrainedModel::embed_table`, ms.
    pub embed_table_ms: Vec<f64>,
    /// `TrainedModel::embed_table_chunked`, ms.
    pub embed_chunked_ms: Vec<f64>,
    /// Skeleton prediction for one table (embed + nearest + generate), ms.
    pub predict_skeletons_ms: Vec<f64>,
    /// `Evaluator::evaluate` per trial, ms.
    pub trial_ms: Vec<f64>,
    /// Trials seen and trials that failed.
    pub trials: (u64, u64),
    /// Transform-cache hits and lookups.
    pub cache: (u64, u64),
    /// Operation latency with each stage timed separately, ms.
    pub traced_op_ms: Vec<f64>,
    /// The same operations as one untimed-inside call, ms.
    pub untraced_op_ms: Vec<f64>,
}

impl Layers {
    /// Times `predict_with_embedding` at `k` from the neighbour's stored
    /// embedding, recording the K bucket and the useful-outcome ratio.
    pub fn predict_at(
        &mut self,
        model: &TrainedModel,
        neighbour: &str,
        task: Task,
        k: usize,
        caps: &str,
        seed: u64,
    ) -> Result<Vec<(Skeleton, f64)>, String> {
        let embedding = model
            .embedding_of(neighbour)
            .ok_or_else(|| format!("no stored embedding for {neighbour}"))?;
        let started = Instant::now();
        let skeletons = model
            .predict_with_embedding(embedding, task, k, caps, seed)
            .map_err(|e| format!("predict_with_embedding failed: {e}"))?;
        let t = ms(started);
        if let Some(bucket) = [3, 5, 7].iter().position(|&b| b == k) {
            self.predict_ms[bucket].push(t);
        }
        self.skeletons.0 += skeletons.len() as u64;
        self.skeletons.1 += k as u64;
        Ok(skeletons)
    }

    /// Times `nearest_by_embedding`.
    pub fn nearest(&mut self, model: &TrainedModel, query: &[f64]) -> Result<String, String> {
        let started = Instant::now();
        let (name, _) = model
            .nearest_by_embedding(query)
            .map_err(|e| format!("nearest failed: {e}"))?;
        self.nearest_us.push(started.elapsed().as_secs_f64() * 1e6);
        Ok(name)
    }

    /// Probes every table-level layer on one small table: CSV ingest on
    /// both paths, both embeddings, nearest-neighbour lookup, and
    /// generation at K = 3, 5 and 7.
    pub fn probe_table(
        &mut self,
        model: &TrainedModel,
        frame: &DataFrame,
        task: Task,
        caps: &str,
        seed: u64,
    ) -> Result<(), String> {
        let csv = write_csv(frame);
        let started = Instant::now();
        let parsed = read_frame(&csv).map_err(|e| format!("read_frame failed: {e}"))?;
        self.read_frame_ms.push(ms(started));
        let started = Instant::now();
        let chunked = read_chunked(&csv, &chunk_options())
            .map_err(|e| format!("read_chunked failed: {e}"))?;
        self.read_chunked_ms.push(ms(started));
        let started = Instant::now();
        let query = model.embed_table(&parsed);
        self.embed_table_ms.push(ms(started));
        let started = Instant::now();
        black_box(model.embed_table_chunked(&chunked));
        self.embed_chunked_ms.push(ms(started));
        let neighbour = self.nearest(model, &query)?;
        for k in [3, 5, 7] {
            self.predict_at(model, &neighbour, task, k, caps, seed)?;
        }
        Ok(())
    }

    /// Probes the trial layer: evaluates the skeletons predicted for `ds`
    /// with default hyperparameters through `Evaluator::evaluate`.
    pub fn probe_trials(
        &mut self,
        model: &TrainedModel,
        ds: &Dataset,
        caps: &str,
        seed: u64,
    ) -> Result<(), String> {
        let (skeletons, _) = model
            .predict_skeletons(ds, 3, caps, seed)
            .map_err(|e| format!("predict_skeletons failed: {e}"))?;
        let budget = TimeBudget::seconds(600.0);
        let evaluator =
            Evaluator::new(ds, seed, &budget).map_err(|e| format!("evaluator failed: {e}"))?;
        for (skeleton, _) in &skeletons {
            let started = Instant::now();
            let outcome = evaluator.evaluate(skeleton, Params::new());
            self.trial_ms.push(ms(started));
            self.trials.0 += 1;
            self.trials.1 += u64::from(outcome.score.is_none());
        }
        self.add_cache(&evaluator.report());
        Ok(())
    }

    /// Adds a search's transform-cache counters.
    pub fn add_cache(&mut self, report: &SearchReport) {
        self.cache.0 += report.cache_hits;
        self.cache.1 += report.cache_lookups();
    }

    /// Registers catalog-like tables into a clone of `model`, timing each
    /// `register_dataset` call at the workload's catalog size.
    pub fn probe_register(&mut self, model: &TrainedModel, seed: u64) -> Result<(), String> {
        let tables: Vec<(String, DataFrame)> = (0..REGISTER_PROBES)
            .map(|i| {
                let name = format!("probe_{i}");
                let rows = 60 + (i * 37) % 140;
                (
                    name.clone(),
                    setup::catalog_table(name, i, rows, seed).features,
                )
            })
            .collect();
        let mut grown = model.clone();
        for (name, table) in &tables {
            let started = Instant::now();
            grown
                .register_dataset(name, table)
                .map_err(|e| format!("register failed: {e}"))?;
            self.register_ms.push(ms(started));
        }
        Ok(())
    }

    /// Times whole-artifact clones (the cost `ServeHandle::register_dataset`
    /// pays under its slot lock).
    pub fn probe_clone(&mut self, model: &TrainedModel) {
        for _ in 0..CLONE_PROBES {
            let started = Instant::now();
            let copy = model.clone();
            self.clone_ms.push(ms(started));
            black_box(copy);
        }
    }

    /// Writes every [`PER_LAYER`] metric. A layer left unmeasured reports
    /// NaN, which fails the run: each traced run must cover every layer.
    pub fn emit(&self, outcome: &mut Outcome) {
        let nan = f64::NAN;
        let p50 = |v: &[f64]| median(v).unwrap_or(nan);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let s = self.setup.as_ref();
        let values: [f64; 24] = [
            s.map_or(nan, |s| s.mine_ms_per_script),
            s.map_or(nan, |s| s.train_s),
            s.map_or(nan, |s| s.snapshot_write_ms),
            s.map_or(nan, |s| s.snapshot_open_ms),
            p50(&self.register_ms),
            p50(&self.predict_ms[0]),
            p50(&self.predict_ms[1]),
            p50(&self.predict_ms[2]),
            if self.skeletons.1 == 0 {
                nan
            } else {
                ratio(self.skeletons.0, self.skeletons.1)
            },
            p50(&self.nearest_us),
            self.serve.0,
            self.serve.1,
            self.serve.2,
            nearest_rank(&self.lateness_ms, 0.95).unwrap_or(nan),
            p50(&self.clone_ms),
            p50(&self.read_frame_ms),
            p50(&self.read_chunked_ms),
            p50(&self.embed_table_ms),
            p50(&self.embed_chunked_ms),
            p50(&self.predict_skeletons_ms),
            p50(&self.trial_ms),
            if self.trials.0 == 0 {
                nan
            } else {
                ratio(self.trials.1, self.trials.0)
            },
            ratio(self.cache.0, self.cache.1),
            match (mean(&self.traced_op_ms), mean(&self.untraced_op_ms)) {
                (Some(t), Some(u)) if u > 0.0 => t / u,
                _ => nan,
            },
        ];
        for ((name, unit), value) in PER_LAYER.iter().zip(values) {
            outcome.metric(name, value, unit);
        }
        outcome.note(
            "trace_samples",
            crate::report::Json::obj(
                [
                    ("predict_k3", self.predict_ms[0].len()),
                    ("predict_k5", self.predict_ms[1].len()),
                    ("predict_k7", self.predict_ms[2].len()),
                    ("nearest", self.nearest_us.len()),
                    ("lateness", self.lateness_ms.len()),
                    ("read_frame", self.read_frame_ms.len()),
                    ("read_chunked", self.read_chunked_ms.len()),
                    ("trials", self.trial_ms.len()),
                    ("traced_ops", self.traced_op_ms.len()),
                ]
                .map(|(k, n)| (k, crate::report::Json::Int(n as u64))),
            ),
        );
    }
}
