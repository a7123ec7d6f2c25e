//! Property-based tests for the graph generator.

use kgpip_codegraph::OpVocab;
use kgpip_graphgen::infer::{NodeStates, Scratch};
use kgpip_graphgen::model::TypedGraph;
use kgpip_graphgen::sequence::{decisions_for, Decision};
use kgpip_graphgen::{GeneratorConfig, GraphGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rebuilds a graph by replaying its decision sequence; must reproduce the
/// original (modulo backward edges, which the sequence drops).
fn replay(types0: usize, decisions: &[Decision]) -> TypedGraph {
    let mut g = TypedGraph {
        types: vec![types0],
        edges: vec![],
    };
    for d in decisions {
        match d {
            Decision::AddNode(t) => g.types.push(*t),
            Decision::PickNode(u) => {
                let newest = g.types.len() - 1;
                g.edges.push((*u, newest));
            }
            Decision::AddEdge(_) | Decision::Stop => {}
        }
    }
    g
}

/// Bit patterns of the final-round node states.
fn state_bits(states: &NodeStates) -> Vec<u32> {
    states
        .states()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// decisions_for is invertible: replaying the sequence rebuilds the
    /// graph exactly (forward edges, sorted per node).
    #[test]
    fn decision_sequence_roundtrip(
        types in proptest::collection::vec(0usize..20, 1..10),
        edge_seeds in proptest::collection::vec((0usize..10, 0usize..10), 0..15),
    ) {
        let n = types.len();
        let mut edges: Vec<(usize, usize)> = edge_seeds
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|(a, b)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let g = TypedGraph { types: types.clone(), edges: edges.clone() };
        let seq = decisions_for(&g.types, &g.edges);
        let rebuilt = replay(types[0], &seq);
        prop_assert_eq!(rebuilt.types, types);
        let mut rebuilt_edges = rebuilt.edges;
        rebuilt_edges.sort_unstable();
        prop_assert_eq!(rebuilt_edges, edges);
        // Sequence always ends with Stop.
        prop_assert_eq!(*seq.last().unwrap(), Decision::Stop);
    }

    /// The untrained generator already respects every structural cap, for
    /// any embedding.
    #[test]
    fn generation_respects_caps(
        seed in 0u64..100,
        emb_scale in -2.0f64..2.0,
        max_nodes in 3usize..10,
    ) {
        let vocab = OpVocab::new();
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            max_nodes,
            max_edges_per_node: 2,
            seed,
            ..GeneratorConfig::default()
        });
        let prefix = TypedGraph::conditioning_prefix(&vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generator.generate(&vec![emb_scale; 48], &prefix, 1.0, &mut rng);
        prop_assert!(g.graph.types.len() <= max_nodes.max(prefix.types.len()));
        prop_assert!(g.log_prob.is_finite() && g.log_prob <= 0.0);
        for t in 2..g.graph.types.len() {
            let incoming = g.graph.edges.iter().filter(|(_, v)| *v == t).count();
            prop_assert!(incoming <= 2);
        }
    }

    /// Teacher-forced loss is finite and positive for any consistent
    /// example.
    #[test]
    fn evaluate_is_finite(
        seed in 0u64..50,
        chain_len in 2usize..6,
    ) {
        let vocab = OpVocab::new();
        let types: Vec<usize> = (0..chain_len).map(|i| i % vocab.len()).collect();
        let edges: Vec<(usize, usize)> = (0..chain_len - 1).map(|i| (i, i + 1)).collect();
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            seed,
            ..GeneratorConfig::default()
        });
        let loss = generator.evaluate(&[kgpip_graphgen::TrainExample {
            dataset_embedding: vec![0.1; 48],
            graph: TypedGraph { types, edges },
        }]);
        prop_assert!(loss.is_finite());
        prop_assert!(loss > 0.0);
    }

    /// Row independence, checked directly: grow a random typed graph by
    /// node appends and edge insertions; after every step the
    /// incrementally refreshed node states equal a full recompute of the
    /// same graph bit for bit, at every propagation depth.
    #[test]
    fn incremental_node_states_equal_full_recompute(
        prop_rounds in 1usize..4,
        width in 0usize..3,
        seed in 0u64..1000,
        emb_scale in -2.0f64..2.0,
        types in proptest::collection::vec(0usize..20, 1..6),
        edge_seeds in proptest::collection::vec((0usize..16, 0usize..16), 0..6),
        steps in proptest::collection::vec((0usize..3, 0usize..16, 0usize..16, 0usize..20), 1..12),
    ) {
        let generator = GraphGenerator::new(GeneratorConfig {
            hidden: [8, 12, 32][width],
            prop_rounds,
            seed,
            ..GeneratorConfig::default()
        });
        let emb: Vec<f64> = (0..48).map(|i| emb_scale * ((i as f64) * 0.7 + seed as f64).sin()).collect();
        let n = types.len();
        let mut edges: Vec<(usize, usize)> = edge_seeds
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|(a, b)| a < b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut scratch = Scratch::default();
        let mut states = generator
            .infer_node_states(&emb, &TypedGraph { types, edges }, &mut scratch)
            .unwrap();
        for (kind, a, b, ty) in steps {
            let n = states.graph().types.len();
            if kind == 0 {
                states.add_node(&generator, ty, &mut scratch).unwrap();
            } else {
                let (u, t) = (a % n, b % n);
                let (u, t) = (u.min(t), u.max(t));
                if u == t || states.graph().edges.contains(&(u, t)) {
                    continue;
                }
                states.add_edge(&generator, u, t, &mut scratch).unwrap();
            }
            let full = generator
                .infer_node_states(&emb, states.graph(), &mut Scratch::default())
                .unwrap();
            prop_assert_eq!(state_bits(&states), state_bits(&full));
        }
    }
}
