//! `serve_open`: open-loop predict traffic through `ServeHandle` at a
//! fixed arrival-rate ladder, with online catalog writes mixed in.

use crate::layers::{ms, Layers};
use crate::report::{arm, nproc, Json, OpCount, Outcome};
use crate::setup::{self, catalog_table, PREDICT_PARALLELISM};
use crate::stats::{self, StepTally};
use crate::Args;
use kgpip::prelude::*;
use kgpip_serve::{ServeConfig, ServeHandle, ServeRequest, ServeResponse};
use kgpip_tabular::effective_parallelism;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Offered arrival rates, requests per second.
const LADDER: [f64; 8] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
/// The reference step latencies are reported at.
const REFERENCE_RATE: f64 = 4.0;
/// Share of the measurement window given to the reference step; the
/// other steps split the rest evenly.
const REFERENCE_SHARE: f64 = 0.5;
/// A request answered later than this after its due time is a miss.
const LATENCY_LIMIT: Duration = Duration::from_secs(1);
/// Requests the client keeps in flight; one due while the cap is full is
/// refused. A worker takes queued jobs as one batch and answers them in
/// turn, so the cap bounds the wait behind a batch: at 4, even a slow
/// stretch of the host keeps it well under the latency limit, and the
/// goodput under overload measures service rate rather than where the
/// batch wait crosses the limit.
const IN_FLIGHT_CAP: u64 = 4;
/// One `ServeHandle::register_dataset` write per this many predicts.
const REGISTER_EVERY: u64 = 50;
/// Distinct query tables, more than the 256-entry result cache holds.
const QUERY_TABLES: usize = 384;
/// Catalog size after set-up growth.
const CATALOG_ENTRIES: usize = 2000;
/// Fresh requests a repeat may copy.
const RECENT: usize = 6;
/// Served answers re-checked against the replica model.
const CHECK_SAMPLES: usize = 16;
/// The stream's request mix, one shuffled block of eight at a time: two
/// repeats of recent requests, then K = 3 four times, K = 5 once and K = 7
/// once. Weighting K toward the default 3 puts the median in the middle
/// of the K = 3 latency mode instead of on the edge between two modes.
const BLOCK: [Option<usize>; 8] = [
    None,
    None,
    Some(3),
    Some(3),
    Some(3),
    Some(3),
    Some(5),
    Some(7),
];

/// One query: pool table, K and sampling seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spec {
    table: usize,
    k: usize,
    seed: u64,
}

/// Deterministic request stream: blocks of [`BLOCK`], shuffled per block.
struct Stream {
    rng: StdRng,
    next_table: usize,
    recent: VecDeque<Spec>,
    pending: Vec<Option<usize>>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x5e7e),
            next_table: 0,
            recent: VecDeque::new(),
            pending: Vec::new(),
        }
    }

    fn next(&mut self) -> Spec {
        if self.pending.is_empty() {
            self.pending = BLOCK.to_vec();
            self.pending.shuffle(&mut self.rng);
        }
        let slot = self.pending.pop().expect("refilled above");
        match (slot, self.recent.is_empty()) {
            (None, false) => {
                let i = self.rng.gen_range(0..self.recent.len());
                self.recent[i]
            }
            (slot, _) => {
                let spec = Spec {
                    table: self.next_table % QUERY_TABLES,
                    k: slot.unwrap_or(3),
                    seed: self.rng.gen_range(0..4),
                };
                self.next_table += 1;
                self.recent.push_back(spec);
                if self.recent.len() > RECENT {
                    self.recent.pop_front();
                }
                spec
            }
        }
    }
}

/// The workload's generated inputs.
struct Inputs {
    /// Query tables (features, task), with their labelled datasets for
    /// the trial probe.
    queries: Vec<Dataset>,
    /// Tables registered during set-up to grow the catalog.
    growth: Vec<(String, DataFrame)>,
    /// Tables registered online while traffic runs.
    live: Vec<(String, DataFrame)>,
}

fn inputs(seed: u64, trained: usize) -> Inputs {
    let queries = (0..QUERY_TABLES)
        .map(|i| catalog_table(format!("query_{i}"), i, 60 + (i * 53) % 341, seed))
        .collect();
    let table = |prefix: &str, i: usize| {
        let name = format!("{prefix}_{i}");
        let rows = 60 + (i * 37) % 140;
        (name.clone(), catalog_table(name, i, rows, seed).features)
    };
    Inputs {
        queries,
        growth: (0..CATALOG_ENTRIES.saturating_sub(trained))
            .map(|i| table("catalog", i))
            .collect(),
        live: (0..64).map(|i| table("live", i)).collect(),
    }
}

/// A request the collector waits on.
struct Sent {
    step: usize,
    spec: Spec,
    due: Instant,
    pending: kgpip_serve::Pending,
}

/// A collected answer.
struct Answer {
    /// Index into [`LADDER`].
    step: usize,
    spec: Spec,
    latency: Duration,
    result: Result<ServeResponse, String>,
}

/// One phase of the run: a ladder step, or a segment of the reference
/// step. Reference segments are interleaved with the other steps so the
/// reference latencies sample the whole run, not one stretch of it.
struct Phase {
    /// Index into [`LADDER`].
    step: usize,
    /// The requests due, in order.
    specs: Vec<Spec>,
}

fn reference_step() -> usize {
    LADDER
        .iter()
        .position(|&r| r == REFERENCE_RATE)
        .expect("the reference rate is on the ladder")
}

/// The run's phases and their request streams, fixed by the seed:
/// `ref, 2, ref, 8, ref, 16, …, ref, 256, ref` with
/// [`REFERENCE_SHARE`] of the window spread over the reference segments.
fn schedule(seed: u64, seconds: f64) -> Vec<Phase> {
    let reference = reference_step();
    let others = LADDER.len() - 1;
    let segment = seconds * REFERENCE_SHARE / (others + 1) as f64;
    let step = seconds * (1.0 - REFERENCE_SHARE) / others as f64;
    let mut order: Vec<(usize, f64)> = Vec::new();
    for i in (0..LADDER.len()).filter(|&i| i != reference) {
        order.push((reference, segment));
        order.push((i, step));
    }
    order.push((reference, segment));
    // The reference segments draw from their own stream, so together they
    // hold whole blocks of the request mix whatever the ladder consumed.
    let mut reference_stream = Stream::new(seed);
    let mut ladder_stream = Stream::new(seed.wrapping_add(1));
    order
        .into_iter()
        .map(|(step, secs)| {
            let due = (LADDER[step] * secs).round().max(1.0) as usize;
            let stream = if step == reference {
                &mut reference_stream
            } else {
                &mut ladder_stream
            };
            Phase {
                step,
                specs: (0..due).map(|_| stream.next()).collect(),
            }
        })
        .collect()
}

/// What one run through the schedule produced.
struct Ladder {
    /// Per ladder step (index into [`LADDER`]): its tally and the wall
    /// seconds from its phases' first due times to their last answers.
    steps: Vec<Option<(StepTally, f64)>>,
    answers: Vec<Answer>,
    /// Live tables registered, in order (index into `Inputs::live`).
    registered: usize,
    register_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    submitted: u64,
    stats: kgpip_serve::ServeStats,
    final_epoch: u64,
}

/// Runs the whole schedule against a fresh `ServeHandle` over `model`.
fn run_ladder(model: &TrainedModel, inputs: &Inputs, seed: u64, seconds: f64) -> Ladder {
    let handle = ServeHandle::start(model.share(), ServeConfig::default());
    let in_flight = AtomicU64::new(0);
    let collected = AtomicU64::new(0);
    let answers = Mutex::new(Vec::new());
    let mut ladder = Ladder {
        steps: vec![None; LADDER.len()],
        answers: Vec::new(),
        registered: 0,
        register_ms: Vec::new(),
        lateness_ms: Vec::new(),
        submitted: 0,
        stats: handle.stats(),
        final_epoch: 0,
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Sent>();
        // The collector redeems replies in submit order: `Pending` has no
        // non-blocking poll, so a reply behind a slower one is seen late.
        scope.spawn(|| {
            for sent in rx {
                let result = sent.pending.wait().map_err(|e| e.to_string());
                let latency = sent.due.elapsed();
                in_flight.fetch_sub(1, Ordering::SeqCst);
                answers.lock().expect("collector lock").push(Answer {
                    step: sent.step,
                    spec: sent.spec,
                    latency,
                    result,
                });
                collected.fetch_add(1, Ordering::SeqCst);
            }
        });
        for phase in schedule(seed, seconds) {
            let rate = LADDER[phase.step];
            let requests: Vec<(Spec, ServeRequest)> = phase
                .specs
                .iter()
                .map(|&spec| {
                    let ds = &inputs.queries[spec.table];
                    let request = ServeRequest {
                        table: ds.features.clone(),
                        task: ds.task,
                        k: spec.k,
                        seed: spec.seed,
                    };
                    (spec, request)
                })
                .collect();
            let (mut tally, mut wall) = ladder.steps[phase.step].unwrap_or((
                StepTally {
                    rate,
                    due: 0,
                    within_limit: 0,
                    late: 0,
                    refused: 0,
                    failed: 0,
                },
                0.0,
            ));
            let first_answer = collected.load(Ordering::SeqCst) as usize;
            tally.due += requests.len() as u64;
            let start = Instant::now() + Duration::from_millis(5);
            for (i, (spec, request)) in requests.into_iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                ladder
                    .lateness_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                if in_flight.load(Ordering::SeqCst) >= IN_FLIGHT_CAP {
                    tally.refused += 1;
                    continue;
                }
                in_flight.fetch_add(1, Ordering::SeqCst);
                let pending = handle.submit(request);
                tx.send(Sent {
                    step: phase.step,
                    spec,
                    due,
                    pending,
                })
                .expect("collector alive");
                ladder.submitted += 1;
                if ladder.submitted.is_multiple_of(REGISTER_EVERY)
                    && ladder.registered < inputs.live.len()
                {
                    let (name, table) = &inputs.live[ladder.registered];
                    let started = Instant::now();
                    let epoch = handle.register_dataset(name, table);
                    ladder.register_ms.push(ms(started));
                    if epoch.is_ok() {
                        ladder.registered += 1;
                    }
                }
            }
            // Drain this phase before the next one starts.
            while collected.load(Ordering::SeqCst) < ladder.submitted {
                std::thread::sleep(Duration::from_millis(1));
            }
            wall += start.elapsed().as_secs_f64();
            {
                let answers = answers.lock().expect("collector lock");
                for a in &answers[first_answer..] {
                    match &a.result {
                        Ok(_) if a.latency <= LATENCY_LIMIT => tally.within_limit += 1,
                        Ok(_) => tally.late += 1,
                        Err(_) => tally.failed += 1,
                    }
                }
            }
            ladder.steps[phase.step] = Some((tally, wall));
        }
        drop(tx);
    });
    ladder.answers = answers.into_inner().expect("collector lock");
    ladder.final_epoch = handle.model_epoch();
    ladder.stats = handle.shutdown();
    ladder
}

/// Served answers equal `predict_table` on a replica at the answer's
/// epoch: the set-up model with the same registrations replayed in order.
fn check_against_replica(
    outcome: &mut Outcome,
    model: &TrainedModel,
    inputs: &Inputs,
    ladder: &Ladder,
    caps: &str,
) {
    let ok: Vec<&Answer> = ladder.answers.iter().filter(|a| a.result.is_ok()).collect();
    let stride = (ok.len() / CHECK_SAMPLES).max(1);
    let mut sample: Vec<(&Answer, &ServeResponse)> = ok
        .iter()
        .step_by(stride)
        .take(CHECK_SAMPLES)
        .filter_map(|a| a.result.as_ref().ok().map(|r| (*a, r)))
        .collect();
    sample.sort_by_key(|(_, r)| r.model_epoch);
    let mut replica = model.clone();
    let mut applied = 0usize;
    let mut mismatches = Vec::new();
    let mut cached = 0;
    for (answer, response) in &sample {
        while (applied as u64) < response.model_epoch && applied < ladder.registered {
            let (name, table) = &inputs.live[applied];
            if let Err(e) = replica.register_dataset(name, table) {
                mismatches.push(format!("replica registration failed: {e}"));
            }
            applied += 1;
        }
        let ds = &inputs.queries[answer.spec.table];
        let direct =
            replica.predict_table(&ds.features, ds.task, answer.spec.k, caps, answer.spec.seed);
        cached += usize::from(response.cached);
        match direct {
            Ok((skeletons, neighbour))
                if neighbour == response.neighbour
                    && skeletons.len() == response.skeletons.len()
                    && skeletons
                        .iter()
                        .zip(&response.skeletons)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()) => {}
            Ok(_) => mismatches.push(format!(
                "{:?} at epoch {} differs from the replica",
                answer.spec, response.model_epoch
            )),
            Err(e) => mismatches.push(format!("replica predict failed: {e}")),
        }
    }
    outcome.check(
        "serve.matches_replica",
        !sample.is_empty() && mismatches.is_empty(),
        format!(
            "{} sampled answers ({cached} cached) checked; {}",
            sample.len(),
            if mismatches.is_empty() {
                "all equal".to_string()
            } else {
                mismatches.join("; ")
            }
        ),
    );
}

fn check_ladder(outcome: &mut Outcome, ladder: &Ladder) {
    let failed: Vec<String> = ladder
        .answers
        .iter()
        .filter_map(|a| a.result.as_ref().err().cloned())
        .collect();
    outcome.check(
        "serve.no_failed_requests",
        failed.is_empty(),
        failed.first().cloned().unwrap_or_default(),
    );
    let bad_len = ladder
        .answers
        .iter()
        .filter_map(|a| {
            a.result
                .as_ref()
                .ok()
                .map(|r| (a.spec.k, r.skeletons.len()))
        })
        .filter(|&(k, n)| n == 0 || n > k)
        .count();
    outcome.check(
        "serve.skeleton_counts",
        bad_len == 0,
        format!("{bad_len} answers with 0 or more than K skeletons"),
    );
    let accounted = ladder.stats.served == ladder.submitted
        && ladder.stats.registered == ladder.registered as u64
        && ladder.final_epoch == ladder.registered as u64;
    outcome.check(
        "serve.accounting",
        accounted,
        format!(
            "served {} of {} submitted; registered {} of {}; epoch {}",
            ladder.stats.served,
            ladder.submitted,
            ladder.stats.registered,
            ladder.registered,
            ladder.final_epoch
        ),
    );
}

fn ladder_counts(outcome: &mut Outcome, ladder: &Ladder) {
    for (t, _) in ladder.steps.iter().flatten() {
        let rate = t.rate;
        outcome.counts.push(OpCount {
            phase: format!("predict@{rate}rps"),
            attempted: t.due,
            succeeded: t.within_limit + t.late,
            failed: t.failed,
            refused: t.refused,
        });
    }
    let mut reg = OpCount::new("register_dataset");
    reg.attempted = ladder.register_ms.len() as u64;
    reg.succeeded = ladder.registered as u64;
    reg.failed = reg.attempted - reg.succeeded;
    outcome.counts.push(reg);
    outcome.note(
        "ladder",
        Json::Arr(
            ladder
                .steps
                .iter()
                .flatten()
                .map(|(t, wall)| {
                    Json::obj([
                        ("rate", Json::Num(t.rate)),
                        ("wall_s", Json::Num(*wall)),
                        ("due", Json::Int(t.due)),
                        ("within_limit", Json::Int(t.within_limit)),
                        ("late", Json::Int(t.late)),
                        ("refused", Json::Int(t.refused)),
                        ("failed", Json::Int(t.failed)),
                        ("passed", Json::Bool(t.passes())),
                    ])
                })
                .collect(),
        ),
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let corpus = setup::corpus();
    let inputs = inputs(args.seed, corpus.tables.len());
    let caps = ServeConfig::default().capabilities_json;
    let (mut model, timer, mut layers) = if args.trace {
        let (model, setup_layers) = setup::traced_setup(&corpus, &inputs.growth)?;
        let layers = Layers {
            register_ms: setup_layers.register_ms.clone(),
            setup: Some(setup_layers),
            ..Layers::default()
        };
        (model, None, Some(layers))
    } else {
        let (model, timer) = setup::SetupTimer::first(&corpus, &inputs.growth)?;
        (model, Some(timer), None)
    };
    model.set_parallelism(PREDICT_PARALLELISM);
    if let Some(layers) = layers.as_mut() {
        trace_stages(layers, &mut outcome, &model, &inputs, args, &caps)?;
    }
    let ladder = run_ladder(&model, &inputs, args.seed, args.seconds);
    if let Some(timer) = timer {
        timer.finish(&mut outcome, &corpus, &inputs.growth)?;
        report_end_to_end(&mut outcome, &ladder, &inputs);
    }
    if let Some(mut layers) = layers {
        let hits = ladder.stats.cache.hits;
        let lookups = hits + ladder.stats.cache.misses;
        let batch: Vec<f64> = ladder
            .answers
            .iter()
            .filter_map(|a| a.result.as_ref().ok().map(|r| r.batch_size as f64))
            .collect();
        let due: u64 = ladder.steps.iter().flatten().map(|s| s.0.due).sum();
        let refused: u64 = ladder.steps.iter().flatten().map(|s| s.0.refused).sum();
        layers.serve = (
            hits as f64 / lookups.max(1) as f64,
            stats::mean(&batch).unwrap_or(f64::NAN),
            refused as f64 / due.max(1) as f64,
        );
        layers.lateness_ms = ladder.lateness_ms.clone();
        layers.emit(&mut outcome);
    }
    check_ladder(&mut outcome, &ladder);
    check_against_replica(&mut outcome, &model, &inputs, &ladder, &caps);
    ladder_counts(&mut outcome, &ladder);
    crate::common_notes(&mut outcome, &model);
    let config = ServeConfig::default();
    outcome.note(
        "parallel_arms",
        Json::Arr(vec![
            arm("serve.workers", config.workers, config.workers),
            arm(
                "generator.parallelism",
                PREDICT_PARALLELISM,
                effective_parallelism(PREDICT_PARALLELISM),
            ),
            arm(
                "training.parallelism",
                nproc(),
                effective_parallelism(nproc()),
            ),
        ]),
    );
    outcome.note(
        "serve_config",
        Json::obj([
            ("max_batch", Json::Int(config.max_batch as u64)),
            ("cache_capacity", Json::Int(config.cache_capacity as u64)),
            ("in_flight_cap", Json::Int(IN_FLIGHT_CAP)),
            (
                "latency_limit_ms",
                Json::Int(LATENCY_LIMIT.as_millis() as u64),
            ),
            ("register_every", Json::Int(REGISTER_EVERY)),
            ("query_tables", Json::Int(QUERY_TABLES as u64)),
        ]),
    );
    Ok(outcome)
}

/// The end-to-end metrics of an untraced run.
fn report_end_to_end(outcome: &mut Outcome, ladder: &Ladder, inputs: &Inputs) {
    let reference_answers = || {
        ladder
            .answers
            .iter()
            .filter(|a| a.step == reference_step())
            .filter_map(|a| a.result.as_ref().ok().map(|r| (a, r)))
    };
    let reference: Vec<f64> = reference_answers()
        .map(|(a, _)| a.latency.as_secs_f64() * 1e3)
        .collect();
    let p50 = stats::median(&reference).unwrap_or(f64::NAN);
    outcome.metric("latency_ms", p50, "ms");
    outcome.extra("latency_p50_ms", p50, "ms");
    let steps: Vec<(StepTally, f64)> = ladder.steps.iter().flatten().copied().collect();
    outcome.metric(
        "goodput_rps",
        stats::sustained_rate(&steps).unwrap_or(f64::NAN),
        "1/s",
    );
    let tallies: Vec<StepTally> = steps.iter().map(|(t, _)| *t).collect();
    outcome.extra(
        "goodput_ladder_rps",
        stats::goodput_step(&tallies).map_or(0.0, |i| tallies[i].rate),
        "1/s",
    );
    outcome.extra(
        "latency_p95_ms",
        stats::tail_percentile(&reference, 0.95).unwrap_or(f64::NAN),
        "ms",
    );
    let rows: Vec<(u64, f64)> = reference_answers()
        .map(|(a, _)| {
            (
                inputs.queries[a.spec.table].num_rows() as u64,
                a.latency.as_secs_f64(),
            )
        })
        .collect();
    outcome.extra(
        "rows_per_s",
        stats::items_per_second(&rows).unwrap_or(f64::NAN),
        "1/s",
    );
    outcome.extra(
        "register_p50_ms",
        stats::median(&ladder.register_ms).unwrap_or(f64::NAN),
        "ms",
    );
    let tail = stats::highest_supported_tail(&reference);
    outcome.note(
        "reference_step",
        Json::obj([
            ("rate", Json::Num(REFERENCE_RATE)),
            ("samples", Json::Int(reference.len() as u64)),
            (
                "cached",
                Json::Int(reference_answers().filter(|(_, r)| r.cached).count() as u64),
            ),
            ("highest_supported_tail", Json::opt(tail.map(|t| t.0))),
            ("highest_supported_tail_ms", Json::opt(tail.map(|t| t.1))),
        ]),
    );
}

/// The traced run's direct-path stages over the reference step's request
/// stream, then the table, trial and clone probes.
fn trace_stages(
    layers: &mut Layers,
    outcome: &mut Outcome,
    model: &TrainedModel,
    inputs: &Inputs,
    args: &Args,
    caps: &str,
) -> Result<(), String> {
    let reference_specs: Vec<Spec> = schedule(args.seed, args.seconds)
        .into_iter()
        .filter(|p| p.step == reference_step())
        .flat_map(|p| p.specs)
        .collect();
    let mut disagreements = 0;
    for spec in &reference_specs {
        let ds = &inputs.queries[spec.table];
        let started = Instant::now();
        let untraced = model
            .predict_table(&ds.features, ds.task, spec.k, caps, spec.seed)
            .map_err(|e| format!("predict_table failed: {e}"))?;
        let untraced_ms = ms(started);
        layers.untraced_op_ms.push(untraced_ms);
        if spec.k == 3 {
            // The paper's `t`: embedding + lookup + generation at K = 3.
            layers.predict_skeletons_ms.push(untraced_ms);
        }

        let op = Instant::now();
        let started = Instant::now();
        let query = model.embed_table(&ds.features);
        layers.embed_table_ms.push(ms(started));
        let neighbour = layers.nearest(model, &query)?;
        let traced = layers.predict_at(model, &neighbour, ds.task, spec.k, caps, spec.seed)?;
        layers.traced_op_ms.push(ms(op));
        disagreements += usize::from(traced != untraced.0);
    }
    for ds in inputs.queries.iter().take(8) {
        layers.probe_table(model, &ds.features, ds.task, caps, args.seed)?;
    }
    for ds in inputs.queries.iter().skip(1).step_by(5).take(4) {
        layers.probe_trials(model, ds, caps, args.seed)?;
    }
    layers.probe_clone(model);
    outcome.check(
        "trace.stages_match_predict_table",
        disagreements == 0,
        format!(
            "{disagreements} of {} requests differ",
            reference_specs.len()
        ),
    );
    Ok(())
}
