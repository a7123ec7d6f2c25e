//! Bit-for-bit determinism suite for the parallel generator engine.
//!
//! The contract (DESIGN.md "Tensor kernels & parallel training"): every
//! public entry point of [`GraphGenerator`] produces identical results at
//! any `parallelism` setting — identical epoch losses, identical trained
//! parameters, identical sampled graphs and log-probabilities. Worker
//! count is a throughput knob, never a semantics knob.
//!
//! The golden fixture (`tests/fixtures/golden_generation.txt`) pins the
//! sampled answers themselves: it was recorded from the taped sampling
//! loop, before the forward-only engine replaced it, so any change to
//! what sampling returns fails here independently of the in-crate tape
//! oracle (`model.rs`, `oracle_*` tests).

use kgpip_codegraph::{OpVocab, PipelineOp};
use kgpip_graphgen::model::TypedGraph;
use kgpip_graphgen::{GeneratorConfig, GraphGenerator, TrainExample};

/// A small two-dataset corpus with deterministic pipelines per dataset.
fn corpus(vocab: &OpVocab) -> Vec<TrainExample> {
    let ds = vocab.id(PipelineOp::Dataset);
    let read = vocab.id(PipelineOp::ReadCsv);
    let scaler = vocab.id(PipelineOp::Transformer(1));
    let xgb = vocab.id(PipelineOp::Estimator(11));
    let logreg = vocab.id(PipelineOp::Estimator(0));
    let mut emb_a = vec![0.0; 48];
    emb_a[0] = 1.0;
    let mut emb_b = vec![0.0; 48];
    emb_b[1] = 1.0;
    let mut out = Vec::new();
    for _ in 0..5 {
        out.push(TrainExample {
            dataset_embedding: emb_a.clone(),
            graph: TypedGraph {
                types: vec![ds, read, scaler, xgb],
                edges: vec![(0, 1), (1, 2), (2, 3)],
            },
        });
        out.push(TrainExample {
            dataset_embedding: emb_b.clone(),
            graph: TypedGraph {
                types: vec![ds, read, logreg],
                edges: vec![(0, 1), (1, 2)],
            },
        });
    }
    out
}

fn config(parallelism: usize) -> GeneratorConfig {
    GeneratorConfig {
        hidden: 12,
        prop_rounds: 1,
        epochs: 4,
        batch_size: 4,
        learning_rate: 0.02,
        seed: 11,
        parallelism,
        ..GeneratorConfig::default()
    }
}

/// Serializes a generator's state with the parallelism knob normalized,
/// so two generators that differ only in worker count compare equal.
fn state_fingerprint(generator: &mut GraphGenerator) -> String {
    generator.set_parallelism(1);
    serde_json::to_string(generator).expect("generator serializes")
}

#[test]
fn train_is_bitwise_identical_at_any_worker_count() {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut sequential = GraphGenerator::new(config(1));
    let losses_seq = sequential.train(&examples);
    for workers in [2, 4] {
        let mut parallel = GraphGenerator::new(config(workers));
        let losses_par = parallel.train(&examples);
        assert_eq!(losses_seq.len(), losses_par.len());
        for (epoch, (a, b)) in losses_seq.iter().zip(&losses_par).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "epoch {epoch} loss diverged at parallelism {workers}: {a} vs {b}"
            );
        }
        assert_eq!(
            state_fingerprint(&mut sequential),
            state_fingerprint(&mut parallel),
            "trained parameters diverged at parallelism {workers}"
        );
    }
}

#[test]
fn evaluate_is_bitwise_identical_at_any_worker_count() {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut generator = GraphGenerator::new(config(1));
    generator.train(&examples);
    let sequential = generator.evaluate(&examples);
    for workers in [2, 3, 5] {
        generator.set_parallelism(workers);
        let parallel = generator.evaluate(&examples);
        assert_eq!(
            sequential.to_bits(),
            parallel.to_bits(),
            "evaluate diverged at parallelism {workers}"
        );
    }
}

#[test]
fn generate_top_k_is_identical_at_any_worker_count() {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut generator = GraphGenerator::new(config(1));
    generator.train(&examples);
    let prefix = TypedGraph::conditioning_prefix(&vocab);
    let mut emb = vec![0.0; 48];
    emb[0] = 1.0;
    let sequential = generator.generate_top_k(&emb, &prefix, 3, 1.2, 42);
    assert!(!sequential.is_empty());
    for workers in [2, 3, 8] {
        generator.set_parallelism(workers);
        let parallel = generator.generate_top_k(&emb, &prefix, 3, 1.2, 42);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.graph, p.graph, "graph diverged at parallelism {workers}");
            assert_eq!(
                s.log_prob.to_bits(),
                p.log_prob.to_bits(),
                "log-prob diverged at parallelism {workers}"
            );
        }
    }
}

/// The distinct-candidate target stops sampling at a wave boundary: the
/// early-exited result is a subset of the full-budget result, identical
/// at any worker count, and never larger than the full budget's output.
#[test]
fn distinct_target_early_exit_is_deterministic_and_bounded() {
    // Tiny untrained model over a 3-type vocabulary with at most one
    // generated node: at most 10 possible graphs, so every distinct graph
    // fits within k and truncation never hides the subset relation.
    let base = GeneratorConfig {
        vocab_size: 3,
        embed_dim: 4,
        hidden: 6,
        prop_rounds: 1,
        max_nodes: 3,
        max_edges_per_node: 1,
        seed: 5,
        ..GeneratorConfig::default()
    };
    let prefix = TypedGraph {
        types: vec![0, 1],
        edges: vec![(0, 1)],
    };
    let emb = vec![0.3; 4];
    let k = 16; // attempts = 64; far above the distinct-graph count
    let full = GraphGenerator::new(base.clone()).generate_top_k(&emb, &prefix, k, 1.0, 9);
    let capped = GraphGenerator::new(GeneratorConfig {
        distinct_target: Some(2),
        ..base.clone()
    })
    .generate_top_k(&emb, &prefix, k, 1.0, 9);
    assert!(capped.len() >= 2, "target of 2 distinct graphs was reached");
    assert!(capped.len() <= full.len());
    for g in &capped {
        assert!(
            full.iter().any(|f| f.graph == g.graph),
            "early-exited candidate missing from the full-budget run"
        );
    }
    // And the early exit is itself worker-count independent.
    let mut parallel = GraphGenerator::new(GeneratorConfig {
        distinct_target: Some(2),
        parallelism: 4,
        ..base
    });
    parallel.set_parallelism(4);
    let capped_par = parallel.generate_top_k(&emb, &prefix, k, 1.0, 9);
    assert_eq!(capped.len(), capped_par.len());
    for (a, b) in capped.iter().zip(&capped_par) {
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
    }
}

// ---------------------------------------------------------------------
// Golden fixture: sampled answers pinned independently of any oracle.
// ---------------------------------------------------------------------

/// Where the golden sampled answers live (one line per sampled graph).
const GOLDEN_PATH: &str = "tests/fixtures/golden_generation.txt";

/// The generator shapes the golden fixture covers: hidden widths 8/12/32,
/// one to three propagation rounds, small and default node/edge caps,
/// and the distinct-target early exit on and off.
fn golden_configs() -> Vec<(&'static str, GeneratorConfig)> {
    let base = GeneratorConfig {
        epochs: 3,
        batch_size: 4,
        learning_rate: 0.02,
        seed: 17,
        ..GeneratorConfig::default()
    };
    vec![
        (
            "h8r1-small",
            GeneratorConfig {
                hidden: 8,
                prop_rounds: 1,
                max_nodes: 5,
                max_edges_per_node: 2,
                ..base.clone()
            },
        ),
        (
            "h12r2",
            GeneratorConfig {
                hidden: 12,
                prop_rounds: 2,
                ..base.clone()
            },
        ),
        (
            "h32r3",
            GeneratorConfig {
                hidden: 32,
                prop_rounds: 3,
                ..base.clone()
            },
        ),
        (
            "h12r3-small-target3",
            GeneratorConfig {
                hidden: 12,
                prop_rounds: 3,
                max_nodes: 6,
                max_edges_per_node: 1,
                distinct_target: Some(3),
                ..base.clone()
            },
        ),
        (
            "h32r2-target4",
            GeneratorConfig {
                hidden: 32,
                prop_rounds: 2,
                distinct_target: Some(4),
                ..base
            },
        ),
    ]
}

/// Untrained and trained generators for every golden config.
fn golden_generators() -> Vec<(String, GraphGenerator)> {
    let vocab = OpVocab::new();
    let examples = corpus(&vocab);
    let mut out = Vec::new();
    for (name, cfg) in golden_configs() {
        out.push((
            format!("{name}/untrained"),
            GraphGenerator::new(cfg.clone()),
        ));
        let mut trained = GraphGenerator::new(cfg);
        trained.train(&examples);
        out.push((format!("{name}/trained"), trained));
    }
    out
}

fn golden_embeddings() -> Vec<Vec<f64>> {
    let mut one_hot = vec![0.0; 48];
    one_hot[0] = 1.0;
    let dense: Vec<f64> = (0..48).map(|i| ((i as f64) * 0.61).sin()).collect();
    vec![one_hot, dense]
}

fn golden_line(case: &str, g: &kgpip_graphgen::GeneratedGraph) -> String {
    let types: Vec<String> = g.graph.types.iter().map(|t| t.to_string()).collect();
    let edges: Vec<String> = g
        .graph
        .edges
        .iter()
        .map(|(u, v)| format!("{u}-{v}"))
        .collect();
    format!(
        "{case}\t{}\t{}\t{:016x}",
        types.join(","),
        edges.join(","),
        g.log_prob.to_bits()
    )
}

/// Every sampled answer of the golden grid, one line per graph:
/// `generate_top_k` over two embeddings × two seeds × two (K,
/// temperature) pairs, plus three consecutive `generate` draws per seed.
fn golden_lines(generators: &[(String, GraphGenerator)]) -> Vec<String> {
    use rand::SeedableRng;
    let vocab = OpVocab::new();
    let prefix = TypedGraph::conditioning_prefix(&vocab);
    let mut lines = Vec::new();
    for (name, generator) in generators {
        for (e, emb) in golden_embeddings().iter().enumerate() {
            for seed in [3u64, 42] {
                for (k, temperature) in [(3usize, 1.2f64), (5, 0.7)] {
                    let top = generator.generate_top_k(emb, &prefix, k, temperature, seed);
                    for (rank, g) in top.iter().enumerate() {
                        let case = format!("{name}/e{e}/s{seed}/k{k}/t{temperature}#{rank}");
                        lines.push(golden_line(&case, g));
                    }
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                for draw in 0..3 {
                    let g = generator.generate(emb, &prefix, 1.0, &mut rng);
                    lines.push(golden_line(
                        &format!("{name}/e{e}/s{seed}/generate#{draw}"),
                        &g,
                    ));
                }
            }
        }
    }
    lines
}

fn golden_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

/// Rewrites the golden fixture from the current build. Run it only on a
/// commit whose sampling answers are the reference:
/// `cargo test -p kgpip-graphgen --test determinism -- --ignored record_golden_fixture`.
#[test]
#[ignore = "rewrites the golden fixture; run by hand on the reference commit"]
fn record_golden_fixture() {
    let lines = golden_lines(&golden_generators());
    let path = golden_fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write golden fixture");
}

/// Sampled graphs and `log_prob` bits equal the golden fixture at every
/// worker count.
#[test]
fn sampling_matches_golden_fixture_at_any_worker_count() {
    let expected = std::fs::read_to_string(golden_fixture_path()).expect("golden fixture exists");
    let expected: Vec<&str> = expected.lines().collect();
    let mut generators = golden_generators();
    for workers in [1usize, 2, 3, 8] {
        for (_, g) in &mut generators {
            g.set_parallelism(workers);
        }
        let got = golden_lines(&generators);
        assert_eq!(
            got.len(),
            expected.len(),
            "line count at parallelism {workers}"
        );
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g, e, "golden mismatch at parallelism {workers}");
        }
    }
}
