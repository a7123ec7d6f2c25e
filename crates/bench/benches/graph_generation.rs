//! Benchmarks for the graph generator — training cost (Table 3's
//! headline: filtered graphs train ~99% faster than raw code graphs) and
//! the near-instant prediction claim of §3.6, with a per-decision
//! breakdown of the forward-only sampling engine.

// The decision breakdown times single engine calls by design.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use kgpip_bench::experiments::ablation::encode_raw_graphs;
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_codegraph::{analyze, filter_graph, OpVocab};
use kgpip_graphgen::infer::{Engine, Scratch};
use kgpip_graphgen::model::TypedGraph;
use kgpip_graphgen::{GeneratorConfig, GraphGenerator, TrainExample};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn training_examples(n: usize) -> (Vec<TrainExample>, Vec<TrainExample>) {
    let scripts = generate_corpus(
        &[DatasetProfile::new("gen_bench", false)],
        &CorpusConfig {
            scripts_per_dataset: n,
            eda_noise: 4,
            unsupported_fraction: 0.0,
            seed: 2,
            ..CorpusConfig::default()
        },
    );
    let vocab = OpVocab::new();
    let raw_graphs: Vec<_> = scripts
        .iter()
        .map(|s| analyze(&s.source).unwrap())
        .collect();
    let filtered: Vec<TrainExample> = raw_graphs
        .iter()
        .filter_map(|g| {
            let f = filter_graph(g);
            f.skeleton()?;
            Some(TrainExample {
                dataset_embedding: vec![0.1; 48],
                graph: TypedGraph::encode(&f.with_dataset_node(), &vocab),
            })
        })
        .collect();
    let (_, raw_typed) = encode_raw_graphs(&raw_graphs);
    let raw: Vec<TrainExample> = raw_typed
        .into_iter()
        .map(|graph| TrainExample {
            dataset_embedding: vec![0.1; 48],
            graph,
        })
        .collect();
    (filtered, raw)
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_generator");
    group.sample_size(10);
    let (filtered, raw) = training_examples(10);

    let cfg = GeneratorConfig {
        hidden: 16,
        prop_rounds: 1,
        epochs: 1,
        ..GeneratorConfig::default()
    };
    group.bench_function("train_epoch_filtered_10_graphs", |b| {
        b.iter(|| {
            let mut g = GraphGenerator::new(cfg.clone());
            g.train(black_box(&filtered))
        })
    });

    // The raw side is the expensive one — this is the Table-3 gap.
    let raw_vocab_size = raw
        .iter()
        .flat_map(|e| e.graph.types.iter())
        .max()
        .map(|m| m + 1)
        .unwrap_or(1);
    let raw_cfg = GeneratorConfig {
        vocab_size: raw_vocab_size,
        ..cfg.clone()
    };
    let raw_small: Vec<TrainExample> = raw.into_iter().take(2).collect();
    group.bench_function("train_epoch_raw_2_graphs", |b| {
        b.iter(|| {
            let mut g = GraphGenerator::new(raw_cfg.clone());
            g.train(black_box(&raw_small))
        })
    });

    // §3.6: "KGpip can do that almost instantaneously" — top-3 prediction.
    let mut trained = GraphGenerator::new(GeneratorConfig {
        hidden: 16,
        prop_rounds: 1,
        epochs: 5,
        ..GeneratorConfig::default()
    });
    trained.train(&filtered);
    let vocab = OpVocab::new();
    let prefix = TypedGraph::conditioning_prefix(&vocab);
    group.bench_function("generate_top3_pipelines", |b| {
        b.iter(|| trained.generate_top_k(black_box(&vec![0.1; 48]), &prefix, 3, 1.2, 7))
    });
    group.finish();
    decision_breakdown(&trained, &prefix);
}

/// Mean wall time of one call, accumulated over many.
#[derive(Default)]
struct CallTime {
    total: Duration,
    calls: u32,
}

impl CallTime {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = black_box(f());
        self.total += started.elapsed();
        self.calls += 1;
        out
    }

    fn mean_ns(&self) -> f64 {
        self.total.as_nanos() as f64 / f64::from(self.calls.max(1))
    }
}

/// Per-decision cost of the sampling engine on the `generate_top3`
/// model: replays the decisions that build each top-3 graph through the
/// public engine calls and times each kind on its own — request set-up
/// (dataset projection, prefix states, first add-node distribution), the
/// graph readout, the add-node / add-edge / pick heads, and the state
/// refresh after a node append or an edge insertion. Emits one
/// `BENCH_JSON` row of mean ns per call.
fn decision_breakdown(trained: &GraphGenerator, prefix: &TypedGraph) {
    let reps = if std::env::args().any(|a| a == "--bench") {
        200
    } else {
        1
    };
    let emb = vec![0.1; 48];
    let graphs = trained.generate_top_k(&emb, prefix, 3, 1.2, 7);
    let mut scratch = Scratch::default();
    let mut setup = CallTime::default();
    let mut readout = CallTime::default();
    let mut addnode = CallTime::default();
    let mut addedge = CallTime::default();
    let mut pick = CallTime::default();
    let mut refresh_node = CallTime::default();
    let mut refresh_edge = CallTime::default();
    for _ in 0..reps {
        let engine: Engine = setup
            .time(|| Engine::new(trained, &emb, prefix, &mut scratch))
            .unwrap();
        for g in &graphs {
            let mut states = engine.prefix_states().clone();
            for (node, &ty) in g.graph.types.iter().enumerate().skip(prefix.types.len()) {
                readout
                    .time(|| engine.readout(&states, &mut scratch))
                    .unwrap();
                addnode
                    .time(|| engine.addnode_logits(&mut scratch).map(|l| l.len()))
                    .unwrap();
                refresh_node
                    .time(|| states.add_node(trained, ty, &mut scratch))
                    .unwrap();
                for &(u, _) in g.graph.edges.iter().filter(|(_, v)| *v == node) {
                    readout
                        .time(|| engine.readout(&states, &mut scratch))
                        .unwrap();
                    addedge
                        .time(|| engine.addedge_logit(&states, node, &mut scratch))
                        .unwrap();
                    pick.time(|| {
                        engine
                            .pick_logits(&states, node, &mut scratch)
                            .map(|l| l.len())
                    })
                    .unwrap();
                    refresh_edge
                        .time(|| states.add_edge(trained, u, node, &mut scratch))
                        .unwrap();
                }
            }
        }
    }
    println!(
        "BENCH_JSON {{\"id\":\"table3_generator/decision_breakdown\",\
         \"request_setup_ns\":{:.0},\"readout_ns\":{:.0},\"addnode_head_ns\":{:.0},\
         \"addedge_head_ns\":{:.0},\"pick_head_ns\":{:.0},\"refresh_node_ns\":{:.0},\
         \"refresh_edge_ns\":{:.0},\"graphs\":{},\"reps\":{reps}}}",
        setup.mean_ns(),
        readout.mean_ns(),
        addnode.mean_ns(),
        addedge.mean_ns(),
        pick.mean_ns(),
        refresh_node.mean_ns(),
        refresh_edge.mean_ns(),
        graphs.len(),
    );
}

/// Kernel-level benchmarks on matmul shapes drawn from the generator's
/// real layers: message-MLP forward (n×2h · 2h×h) and the two matmul
/// gradient products, fused (`matmul_at`/`matmul_bt`) vs the
/// transpose-then-multiply formulation they replaced.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gnn_kernels");
    group.sample_size(40);
    let h = 32usize; // default hidden width
    let n = 12usize; // max_nodes rows
    let fill = |rows: usize, cols: usize, salt: usize| {
        kgpip_nn::Tensor::from_vec(
            (0..rows * cols)
                .map(|i| ((i + salt) as f32 * 0.37).sin())
                .collect(),
            rows,
            cols,
        )
        .unwrap()
    };

    // Forward of the message MLP's first layer: n×2h · 2h×h.
    let x = fill(n, 2 * h, 0);
    let w = fill(2 * h, h, 1);
    group.bench_function("matmul_msg_fwd_12x64_64x32", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)).unwrap())
    });

    // Backward dW = xᵀ · g (fused vs transpose copy).
    let g = fill(n, h, 2);
    group.bench_function("grad_dw_fused_at", |b| {
        b.iter(|| black_box(&x).matmul_at(black_box(&g)).unwrap())
    });
    group.bench_function("grad_dw_transpose_copy", |b| {
        b.iter(|| black_box(&x).transpose().matmul(black_box(&g)).unwrap())
    });

    // Backward dX = g · wᵀ (fused vs transpose copy).
    group.bench_function("grad_dx_fused_bt", |b| {
        b.iter(|| black_box(&g).matmul_bt(black_box(&w)).unwrap())
    });
    group.bench_function("grad_dx_transpose_copy", |b| {
        b.iter(|| black_box(&g).matmul(&black_box(&w).transpose()).unwrap())
    });

    // A larger square product where cache blocking matters.
    let a = fill(96, 96, 3);
    let bm = fill(96, 96, 4);
    group.bench_function("matmul_square_96", |b| {
        b.iter(|| black_box(&a).matmul(black_box(&bm)).unwrap())
    });
    group.finish();
}

/// Sequential vs parallel training and sampling. On multi-core hosts the
/// parallel rows should drop below the sequential ones; on single-core
/// CI they document the (small) coordination overhead instead. Results
/// are bit-for-bit identical either way — see
/// `crates/graphgen/tests/determinism.rs`.
fn bench_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_vs_sequential");
    group.sample_size(10);
    let (filtered, _) = training_examples(10);
    for workers in [1usize, 2] {
        let cfg = GeneratorConfig {
            hidden: 16,
            prop_rounds: 1,
            epochs: 1,
            parallelism: workers,
            ..GeneratorConfig::default()
        };
        group.bench_function(format!("train_epoch_10_graphs_p{workers}"), |b| {
            b.iter(|| {
                let mut g = GraphGenerator::new(cfg.clone());
                g.train(black_box(&filtered))
            })
        });
    }
    let vocab = OpVocab::new();
    let prefix = TypedGraph::conditioning_prefix(&vocab);
    for workers in [1usize, 2] {
        let mut trained = GraphGenerator::new(GeneratorConfig {
            hidden: 16,
            prop_rounds: 1,
            epochs: 5,
            parallelism: workers,
            ..GeneratorConfig::default()
        });
        trained.train(&filtered);
        group.bench_function(format!("generate_top3_p{workers}"), |b| {
            b.iter(|| trained.generate_top_k(black_box(&vec![0.1; 48]), &prefix, 3, 1.2, 7))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation, bench_kernels, bench_parallelism);
criterion_main!(benches);
