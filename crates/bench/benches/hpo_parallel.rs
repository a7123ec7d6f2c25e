//! Throughput of the parallel trial-evaluation engine: completed trials
//! per second for sequential vs parallel evaluation at an equal trial
//! budget. The redesign's acceptance bar is ≥ 2× trials/sec at
//! parallelism ≥ 4 over the sequential path.
//!
//! Two arm families:
//!
//! * `flaml_skeleton_*` — single-skeleton search (the `(T−t)/K` unit of
//!   work KGpip parallelizes). Every trial fits the same learner, so the
//!   work per trial is homogeneous and the ratio measures evaluation
//!   throughput alone. These are the acceptance arms.
//! * `flaml_cold_*` — full cold-start search. The parallel scheduler
//!   intentionally explores several learner families per round, so the
//!   per-trial work mix differs from the sequential arm; these arms
//!   document overhead parity at parallelism 1, not speedup.
//! * `*_nocache` — the same search with trial caching disabled (the
//!   literal pre-cache raw-frame path). The cached/nocache ratio is the
//!   trial hot-path speedup; the cache-equivalence suite proves the two
//!   arms compute bit-identical results.
//! * `flaml_chain_*` — fixed skeleton with a transformer chain, so every
//!   trial re-fits the same scaler prefix: the arm that exercises the
//!   transformer-prefix cache (bare skeletons bypass it).
//! * `trial_forest_*` — one random-forest trial (199 trees, depth 7) at
//!   the shape of a budgeted run's houses trials: 168 fitting rows × 8
//!   features, regression and classification. The per-trial fit cost of
//!   the CART builder.
//! * `autosklearn_skeleton_forest_*` — a random-forest skeleton search at
//!   the same shape with ensemble selection on: search plus ensembling,
//!   the unit of work a budgeted run gives each skeleton.
//!
//! After the criterion arms, the harness runs one instrumented search per
//! configuration and emits `BENCH_JSON` summary lines with trials/sec and
//! the transform-cache hit rate — `scripts/bench.sh` collects these into
//! `BENCH_hpo.json`.
//!
//! Run `cargo bench --bench hpo_parallel -- --bench` for timed results;
//! the smoke mode (plain `cargo bench`) only checks the harness runs.

// This bench times wall-clock throughput by design.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kgpip_benchdata::generate::{synthesize, SynthSpec};
use kgpip_hpo::space::Skeleton;
use kgpip_hpo::{AutoSklearn, Evaluator, Flaml, Optimizer, TimeBudget};
use kgpip_learners::{EstimatorKind, Params, TransformerKind};
use std::hint::black_box;
use std::time::Instant;

/// Trials allowed per engine run — high enough that scheduling overhead
/// amortizes, low enough that a sample finishes quickly.
const TRIALS: usize = 24;

fn dataset(rows: usize) -> kgpip_tabular::Dataset {
    synthesize(
        &SynthSpec {
            name: "hpo_parallel_bench".to_string(),
            rows,
            num: 8,
            cat: 1,
            text: 0,
            classes: 2,
            ceiling: 0.9,
            missing: 0.0,
        },
        0,
    )
}

/// 210 rows × 8 numeric features: the evaluator holds out 20%, leaving
/// the 168 × 8 fitting matrix of a budgeted run's houses trials.
fn houses_shape(classes: usize) -> kgpip_tabular::Dataset {
    synthesize(
        &SynthSpec {
            name: "houses_shape_bench".to_string(),
            rows: 210,
            num: 8,
            cat: 0,
            text: 0,
            classes,
            ceiling: 0.9,
            missing: 0.0,
        },
        0,
    )
}

fn budget() -> TimeBudget {
    // Generous wall clock: the trial cap is the binding constraint, so
    // all arms complete identical trial counts and the comparison is
    // throughput only.
    TimeBudget::seconds(3600.0).with_trial_cap(TRIALS)
}

fn bench_parallel_hpo(c: &mut Criterion) {
    let mut group = c.benchmark_group("hpo_parallel");
    group.sample_size(10);
    let ds = dataset(400);

    // --- Acceptance arms: fixed-skeleton search, homogeneous trials ---
    let skeleton = Skeleton::bare(EstimatorKind::Lgbm);
    for parallelism in [1usize, 2, 4, 8] {
        group.bench_function(format!("flaml_skeleton_p{parallelism}_24_trials"), |b| {
            b.iter_batched(
                || Flaml::new(0).with_parallelism(parallelism),
                |mut engine| {
                    engine
                        .optimize_skeleton(black_box(&ds), &skeleton, &budget())
                        .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }

    // --- Cached vs uncached: the trial hot-path speedup itself ---
    group.bench_function("flaml_skeleton_p1_24_trials_nocache", |b| {
        b.iter_batched(
            || Flaml::new(0).with_trial_cache(false),
            |mut engine| {
                engine
                    .optimize_skeleton(black_box(&ds), &skeleton, &budget())
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    let chain = Skeleton {
        transformers: vec![TransformerKind::StandardScaler],
        estimator: EstimatorKind::Lgbm,
    };
    for cache in [true, false] {
        let id = if cache {
            "flaml_chain_p1_24_trials"
        } else {
            "flaml_chain_p1_24_trials_nocache"
        };
        group.bench_function(id, |b| {
            b.iter_batched(
                || Flaml::new(0).with_trial_cache(cache),
                |mut engine| {
                    engine
                        .optimize_skeleton(black_box(&ds), &chain, &budget())
                        .unwrap()
                },
                BatchSize::SmallInput,
            )
        });
    }

    // --- Overhead-parity arms: historical sequential loop vs the
    // engine at parallelism 1 (the determinism tests prove the trial
    // histories are identical; this shows the gate adds no cost). ---
    group.bench_function("flaml_cold_sequential_24_trials", |b| {
        b.iter_batched(
            || Flaml::new(0),
            |mut engine| {
                engine
                    .optimize_sequential(black_box(&ds), &budget())
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("flaml_cold_engine_p1_24_trials", |b| {
        b.iter_batched(
            || Flaml::new(0),
            |mut engine| engine.optimize(black_box(&ds), &budget()).unwrap(),
            BatchSize::SmallInput,
        )
    });

    // --- Per-trial fit cost and a skeleton search with ensembling, at
    // the houses shape ---
    let forest: Params = [("n_estimators", 199.0), ("max_depth", 7.0)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let forest_skeleton = Skeleton::bare(EstimatorKind::RandomForest);
    for (task, classes) in [("regression", 0usize), ("classification", 2)] {
        let ds = houses_shape(classes);
        let evaluator = Evaluator::new(&ds, 0, &budget()).unwrap();
        group.bench_function(format!("trial_forest_199x7_168x8_{task}"), |b| {
            b.iter(|| evaluator.evaluate(&forest_skeleton, black_box(forest.clone())))
        });
        group.bench_function(
            format!("autosklearn_skeleton_forest_ensemble_24_trials_{task}"),
            |b| {
                b.iter_batched(
                    || AutoSklearn::new(0),
                    |mut engine| {
                        engine
                            .optimize_skeleton(black_box(&ds), &forest_skeleton, &budget())
                            .unwrap()
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();

    // --- Machine-readable summary: trials/sec + cache hit rate ---
    // One instrumented search per configuration, reported in the same
    // `BENCH_JSON` stream the criterion arms use so `scripts/bench.sh`
    // folds everything into one BENCH_hpo.json.
    let configs: [(&str, &Skeleton, bool); 4] = [
        ("hpo_summary_skeleton_cached", &skeleton, true),
        ("hpo_summary_skeleton_nocache", &skeleton, false),
        ("hpo_summary_chain_cached", &chain, true),
        ("hpo_summary_chain_nocache", &chain, false),
    ];
    for (id, sk, cache) in configs {
        // One warm-up search, then best-of-3: a single 24-trial search
        // finishes in milliseconds, so a one-shot timing is dominated by
        // scheduler jitter — the best of three repeats is the stable
        // estimate of the hot path (the searches are deterministic, so
        // every repeat runs identical trials).
        let mut result = Flaml::new(0)
            .with_trial_cache(cache)
            .optimize_skeleton(&ds, sk, &budget())
            .unwrap();
        let mut best_secs = f64::INFINITY;
        for _ in 0..3 {
            let mut engine = Flaml::new(0).with_trial_cache(cache);
            let started = Instant::now();
            result = engine.optimize_skeleton(&ds, sk, &budget()).unwrap();
            let secs = started.elapsed().as_secs_f64();
            if secs < best_secs {
                best_secs = secs;
            }
        }
        let trials_per_sec = result.trials as f64 / best_secs.max(1e-9);
        // Bare-skeleton searches never consult the transform cache (no
        // transformer chain to memoize) — their hit rate is `null`, not
        // 0%. `encoded_trials` shows the caching that did happen there.
        let hit_rate = result
            .report
            .cache_hit_rate()
            .map_or("null".to_string(), |r| format!("{r:.4}"));
        println!(
            "BENCH_JSON {{\"id\":{id:?},\"trials\":{},\"trials_per_sec\":{trials_per_sec:.1},\
             \"encoded_trials\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{hit_rate}}}",
            result.trials,
            result.report.encoded_trials,
            result.report.cache_hits,
            result.report.cache_misses,
        );
    }
}

criterion_group!(benches, bench_parallel_hpo);
criterion_main!(benches);
