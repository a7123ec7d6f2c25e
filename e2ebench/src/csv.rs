//! `csv_predict`: one closed-loop caller turning cold CSV documents into
//! skeletons at K = 3, alternating the CLI's two predict paths.

use crate::layers::{chunk_options, ms, Layers};
use crate::report::{arm, nproc, Json, OpCount, Outcome};
use crate::setup::{self, PREDICT_PARALLELISM};
use crate::stats;
use crate::Args;
use kgpip::predict::EMBED_SAMPLE_BOUND;
use kgpip::prelude::*;
use kgpip_benchdata::generate::{synthesize, SynthSpec};
use kgpip_tabular::csv::{read_frame, write_csv};
use kgpip_tabular::{effective_parallelism, read_chunked};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// CSV documents held in memory.
const DOCS: usize = 12;
/// Smallest and largest document, rows (geometric spacing in between).
const MIN_ROWS: f64 = 20_000.0;
const MAX_ROWS: f64 = 150_000.0;
/// Skeletons asked for.
const K: usize = 3;
/// Rows of each document kept, labelled, for the trial probe.
const PROBE_ROWS: usize = 2_000;

/// One generated CSV document.
struct Doc {
    csv: String,
    rows: usize,
    task: Task,
    /// Whether this document takes the chunked path.
    chunked: bool,
    /// A labelled prefix for the traced run's trial probe.
    probe: Dataset,
}

/// Documents of 18 feature columns (12 numeric with 2% missing, 4
/// categorical, 2 text), no label column: the label-free predict input.
/// The name, which fixes the content domain, depends on the index only;
/// the seed draws the values and jitters the size.
fn docs(seed: u64) -> Vec<Doc> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc5f);
    let jitter: Vec<f64> = (0..DOCS).map(|_| 0.96 + 0.04 * rng.gen::<f64>()).collect();
    let build = |i: usize| {
        let span = (MAX_ROWS / MIN_ROWS).powf(i as f64 / (DOCS - 1) as f64);
        let rows = (MIN_ROWS * span * jitter[i]).round() as usize;
        let ds = synthesize(
            &SynthSpec {
                name: format!("doc_{i}"),
                rows,
                num: 12,
                cat: 4,
                text: 2,
                classes: if i % 3 == 2 { 0 } else { 2 + i % 3 },
                ceiling: 0.9,
                missing: 0.02,
            },
            seed.wrapping_add(i as u64),
        );
        let prefix: Vec<usize> = (0..PROBE_ROWS.min(rows)).collect();
        Doc {
            csv: write_csv(&ds.features),
            rows,
            task: ds.task,
            chunked: i % 2 == 1,
            probe: ds.take(&prefix),
        }
    };
    // Input generation is not measured; one thread per CPU shortens it.
    let workers = nproc().min(DOCS);
    let mut docs: Vec<(usize, Doc)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let build = &build;
                scope.spawn(move || {
                    (w..DOCS)
                        .step_by(workers)
                        .map(|i| (i, build(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("document generation panicked"))
            .collect()
    });
    docs.sort_by_key(|(i, _)| *i);
    docs.into_iter().map(|(_, d)| d).collect()
}

/// Processing order: small and large documents interleaved, so any
/// prefix of a pass mixes sizes and both paths.
fn order() -> Vec<usize> {
    (0..DOCS / 2).flat_map(|i| [i, DOCS - 1 - i]).collect()
}

type Answer = (Vec<(Skeleton, f64)>, String);

/// One cold CSV document → skeletons, through the chunked path or
/// `read_frame`. Returns the answer and the rows ingested.
fn predict_doc(
    model: &TrainedModel,
    doc: &Doc,
    chunked: bool,
    caps: &str,
    seed: u64,
) -> Result<(Answer, usize), String> {
    if chunked {
        let frame =
            read_chunked(&doc.csv, &chunk_options()).map_err(|e| format!("read_chunked: {e}"))?;
        let answer = model
            .predict_table_chunked(&frame, doc.task, K, caps, seed)
            .map_err(|e| format!("predict_table_chunked: {e}"))?;
        Ok((answer, frame.num_rows()))
    } else {
        let frame = read_frame(&doc.csv).map_err(|e| format!("read_frame: {e}"))?;
        let answer = model
            .predict_table(&frame, doc.task, K, caps, seed)
            .map_err(|e| format!("predict_table: {e}"))?;
        Ok((answer, frame.num_rows()))
    }
}

/// The same operation timed stage by stage: ingest, embedding, nearest
/// neighbour, generation. Returns the answer and the ingest rows.
fn traced_doc(
    layers: &mut Layers,
    model: &TrainedModel,
    doc: &Doc,
    caps: &str,
    seed: u64,
) -> Result<(Answer, usize), String> {
    let op = Instant::now();
    let (query, rows, embed_ms) = if doc.chunked {
        let started = Instant::now();
        let frame =
            read_chunked(&doc.csv, &chunk_options()).map_err(|e| format!("read_chunked: {e}"))?;
        layers.read_chunked_ms.push(ms(started));
        let started = Instant::now();
        let query = model.embed_table_chunked(&frame);
        let embed_ms = ms(started);
        layers.embed_chunked_ms.push(embed_ms);
        (query, frame.num_rows(), embed_ms)
    } else {
        let started = Instant::now();
        let frame = read_frame(&doc.csv).map_err(|e| format!("read_frame: {e}"))?;
        layers.read_frame_ms.push(ms(started));
        let started = Instant::now();
        let query = model.embed_table(&frame);
        let embed_ms = ms(started);
        layers.embed_table_ms.push(embed_ms);
        (query, frame.num_rows(), embed_ms)
    };
    let after_embed = Instant::now();
    let neighbour = layers.nearest(model, &query)?;
    let skeletons = layers.predict_at(model, &neighbour, doc.task, K, caps, seed)?;
    layers.traced_op_ms.push(ms(op));
    // The paper's `t` for this table: embedding + lookup + generation.
    layers.predict_skeletons_ms.push(embed_ms + ms(after_embed));
    Ok(((skeletons, neighbour), rows))
}

fn same(a: &Answer, b: &Answer) -> bool {
    a.1 == b.1
        && a.0.len() == b.0.len()
        && a.0
            .iter()
            .zip(&b.0)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Answer bookkeeping for the correctness checks.
struct Tracker {
    /// First answer per document.
    answers: Vec<Option<Answer>>,
    /// Operations with a wrong row count or skeleton count.
    bad: usize,
    /// Repeats that answered differently from the first time.
    unstable: usize,
}

impl Tracker {
    /// Counts one operation; returns whether it succeeded.
    fn record(
        &mut self,
        count: &mut OpCount,
        doc: &Doc,
        i: usize,
        result: Result<(Answer, usize), String>,
    ) -> bool {
        count.attempted += 1;
        match result {
            Ok((answer, rows)) => {
                count.succeeded += 1;
                self.bad +=
                    usize::from(rows != doc.rows || answer.0.is_empty() || answer.0.len() > K);
                match &self.answers[i] {
                    Some(first) => self.unstable += usize::from(!same(first, &answer)),
                    None => self.answers[i] = Some(answer),
                }
                true
            }
            Err(e) => {
                eprintln!("csv_predict: {e}");
                count.failed += 1;
                false
            }
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let corpus = setup::corpus();
    let docs = docs(args.seed);
    let caps = Flaml::new(0).capabilities();
    let order = order();
    let mut count = OpCount::new("csv_to_skeletons");
    let mut tracker = Tracker {
        answers: vec![None; DOCS],
        bad: 0,
        unstable: 0,
    };

    let model = if args.trace {
        let (mut model, setup_layers) = setup::traced_setup(&corpus, &[])?;
        model.set_parallelism(PREDICT_PARALLELISM);
        let mut layers = Layers {
            setup: Some(setup_layers),
            ..Layers::default()
        };
        layers.probe_register(&model, args.seed)?;
        layers.probe_clone(&model);
        let started = Instant::now();
        let mut last_end: Option<Instant> = None;
        for (n, &i) in order.iter().cycle().enumerate() {
            if n >= 4 && started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
            let doc = &docs[i];
            if let Some(end) = last_end {
                layers.lateness_ms.push(ms(end));
            }
            let op = Instant::now();
            let untraced = predict_doc(&model, doc, doc.chunked, &caps, args.seed);
            layers.untraced_op_ms.push(ms(op));
            tracker.record(&mut count, doc, i, untraced);
            let traced = traced_doc(&mut layers, &model, doc, &caps, args.seed);
            tracker.record(&mut count, doc, i, traced);
            if let Some(neighbour) = tracker.answers[i].as_ref().map(|a| a.1.clone()) {
                for k in [5, 7] {
                    layers.predict_at(&model, &neighbour, doc.task, k, &caps, args.seed)?;
                }
            }
            last_end = Some(Instant::now());
        }
        for doc in docs.iter().take(3) {
            layers.probe_trials(&model, &doc.probe, &caps, args.seed)?;
        }
        // A closed loop with one caller: no cache, no batching, nothing
        // refused.
        layers.serve = (0.0, 1.0, 0.0);
        layers.emit(&mut outcome);
        model
    } else {
        let (mut model, timer) = setup::SetupTimer::first(&corpus, &[])?;
        model.set_parallelism(PREDICT_PARALLELISM);
        let mut latencies: Vec<(usize, f64)> = Vec::new();
        let mut work: Vec<(u64, f64)> = Vec::new();
        let window = Instant::now();
        // At least one whole pass, so every document is measured.
        for (n, &i) in order.iter().cycle().enumerate() {
            if n >= DOCS && window.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
            let op = Instant::now();
            let result = predict_doc(&model, &docs[i], docs[i].chunked, &caps, args.seed);
            let secs = op.elapsed().as_secs_f64();
            if tracker.record(&mut count, &docs[i], i, result) {
                latencies.push((i, secs * 1e3));
                work.push((docs[i].rows as u64, secs));
            }
        }
        let wall = window.elapsed().as_secs_f64();
        timer.finish(&mut outcome, &corpus, &[])?;
        let busy: Vec<f64> = latencies.iter().map(|(_, ms)| *ms).collect();
        outcome.metric("latency_ms", stats::mean(&busy).unwrap_or(f64::NAN), "ms");
        outcome.extra(
            "latency_p50_ms",
            stats::median_of_group_medians(&latencies).unwrap_or(f64::NAN),
            "ms",
        );
        outcome.metric("goodput_rps", latencies.len() as f64 / wall, "1/s");
        outcome.extra(
            "rows_per_s",
            stats::items_per_second(&work).unwrap_or(f64::NAN),
            "1/s",
        );
        outcome.note(
            "latency_samples",
            Json::obj([
                ("documents", Json::Int(latencies.len() as u64)),
                ("distinct_documents", Json::Int(DOCS as u64)),
            ]),
        );
        outcome.note(
            "document_latency_p50_ms",
            Json::Arr(
                (0..DOCS)
                    .map(|i| {
                        let own: Vec<f64> = latencies
                            .iter()
                            .filter(|(j, _)| *j == i)
                            .map(|(_, ms)| *ms)
                            .collect();
                        Json::opt(stats::median(&own))
                    })
                    .collect(),
            ),
        );
        model
    };

    outcome.check(
        "csv.rows_and_skeleton_counts",
        tracker.bad == 0,
        format!(
            "{} operations with a wrong row count or skeleton count",
            tracker.bad
        ),
    );
    outcome.check(
        "csv.repeat_answers_identical",
        tracker.unstable == 0,
        format!(
            "{} repeated documents answered differently",
            tracker.unstable
        ),
    );
    // Outside the timed window: a document under the sampling bound gives
    // the same answer on both paths.
    let small = docs
        .iter()
        .position(|d| d.rows <= EMBED_SAMPLE_BOUND)
        .ok_or("no document under the sampling bound")?;
    let on_path = |chunked| predict_doc(&model, &docs[small], chunked, &caps, args.seed);
    let identical = matches!(
        (on_path(false), on_path(true)),
        (Ok((a, _)), Ok((b, _))) if same(&a, &b)
    );
    outcome.check(
        "csv.paths_agree_under_sample_bound",
        identical,
        format!(
            "document of {} rows, read_frame vs read_chunked",
            docs[small].rows
        ),
    );
    outcome.counts.push(count);
    crate::common_notes(&mut outcome, &model);
    outcome.note(
        "parallel_arms",
        Json::Arr(vec![
            arm(
                "read_chunked.parallelism",
                nproc(),
                effective_parallelism(nproc()),
            ),
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
        "documents",
        Json::Arr(
            docs.iter()
                .map(|d| {
                    Json::obj([
                        ("rows", Json::Int(d.rows as u64)),
                        ("bytes", Json::Int(d.csv.len() as u64)),
                        (
                            "path",
                            Json::str(if d.chunked {
                                "read_chunked"
                            } else {
                                "read_frame"
                            }),
                        ),
                        (
                            "sampled_embedding",
                            Json::Bool(d.chunked && d.rows > EMBED_SAMPLE_BOUND),
                        ),
                    ])
                })
                .collect(),
        ),
    );
    Ok(outcome)
}
