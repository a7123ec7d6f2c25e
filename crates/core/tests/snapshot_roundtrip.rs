//! The binary snapshot format must round-trip a trained artifact
//! bit-for-bit: every generator parameter, every stored embedding, the
//! conditioning center, and — as the behavioural consequence — every
//! prediction.

use kgpip::prelude::*;
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_embeddings::codec::Reader;
use kgpip_graphgen::GeneratorConfig;
use kgpip_tabular::{Column, DataFrame};

fn table_like(offset: f64, n: usize) -> DataFrame {
    DataFrame::from_columns(vec![
        (
            "f0".to_string(),
            Column::from_f64((0..n).map(|i| offset + (i % 10) as f64).collect::<Vec<_>>()),
        ),
        (
            "f1".to_string(),
            Column::from_f64((0..n).map(|i| offset + (i % 7) as f64).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

fn trained_artifact() -> TrainedModel {
    let profiles = vec![
        DatasetProfile::new("alpha", false),
        DatasetProfile::new("beta", false),
        DatasetProfile::new("gamma", true),
    ];
    let scripts = generate_corpus(
        &profiles,
        &CorpusConfig {
            scripts_per_dataset: 6,
            unsupported_fraction: 0.0,
            ..CorpusConfig::default()
        },
    );
    let tables = vec![
        ("alpha".to_string(), table_like(0.0, 30)),
        ("beta".to_string(), table_like(500.0, 30)),
        ("gamma".to_string(), table_like(77.0, 24)),
    ];
    Kgpip::train(
        &scripts,
        &tables,
        KgpipConfig {
            generator: GeneratorConfig {
                hidden: 10,
                prop_rounds: 1,
                epochs: 3,
                ..GeneratorConfig::default()
            },
            ..KgpipConfig::default()
        },
    )
    .unwrap()
    .into_artifact()
}

fn unseen(n: usize) -> Dataset {
    let f = table_like(1.0, n);
    let y: Vec<f64> = (0..n).map(|i| f64::from(i % 10 > 4)).collect();
    Dataset::new("unseen", f, y, Task::Binary).unwrap()
}

#[test]
fn snapshot_bytes_roundtrip_is_bitwise() {
    let artifact = trained_artifact();
    let bytes = artifact.snapshot_bytes().unwrap();
    let snapshot = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snapshot.version, Snapshot::FORMAT_VERSION);
    let restored = snapshot.model;

    // Generator parameters: bit-for-bit, in registration order.
    let original: Vec<_> = artifact.generator().params().collect();
    let reloaded: Vec<_> = restored.generator().params().collect();
    assert_eq!(original.len(), reloaded.len());
    assert!(!original.is_empty());
    for ((name_a, t_a), (name_b, t_b)) in original.iter().zip(&reloaded) {
        assert_eq!(name_a, name_b);
        assert_eq!(t_a.rows(), t_b.rows(), "{name_a}");
        assert_eq!(t_a.cols(), t_b.cols(), "{name_a}");
        for (x, y) in t_a.as_slice().iter().zip(t_b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name_a}");
        }
    }

    // Embeddings and conditioning center: bit-for-bit.
    assert_eq!(artifact.catalog_len(), restored.catalog_len());
    for name in ["alpha", "beta", "gamma"] {
        let a = artifact.embedding_of(name).unwrap();
        let b = restored.embedding_of(name).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
    }
    for (x, y) in artifact
        .embedding_center()
        .iter()
        .zip(restored.embedding_center())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }

    // Behavioural consequence: identical predictions.
    let caps = Flaml::new(0).capabilities();
    let ds = unseen(60);
    let (a, na) = artifact.predict_skeletons(&ds, 3, &caps, 11).unwrap();
    let (b, nb) = restored.predict_skeletons(&ds, 3, &caps, 11).unwrap();
    assert_eq!(na, nb);
    assert_eq!(a.len(), b.len());
    for ((s1, g1), (s2, g2)) in a.iter().zip(&b) {
        assert_eq!(s1, s2);
        assert_eq!(g1.to_bits(), g2.to_bits());
    }
}

#[test]
fn snapshot_file_roundtrip_via_open() {
    let artifact = trained_artifact();
    let dir = std::env::temp_dir().join("kgpip_snapshot_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.kgps");
    artifact.snapshot(&path).unwrap();
    let restored = TrainedModel::open(&path).unwrap();
    assert_eq!(restored.catalog_len(), artifact.catalog_len());
    let caps = Flaml::new(0).capabilities();
    let ds = unseen(40);
    let (a, _) = artifact.predict_skeletons(&ds, 3, &caps, 5).unwrap();
    let (b, _) = restored.predict_skeletons(&ds, 3, &caps, 5).unwrap();
    assert_eq!(a, b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_bytes_are_deterministic() {
    let artifact = trained_artifact();
    assert_eq!(
        artifact.snapshot_bytes().unwrap(),
        artifact.snapshot_bytes().unwrap(),
        "same model must serialize to identical bytes"
    );
}

#[test]
fn from_bytes_rejects_malformed_payloads() {
    let artifact = trained_artifact();
    let bytes = artifact.snapshot_bytes().unwrap();

    // Truncations anywhere must error, never panic.
    for cut in [0, 3, 4, 7, 8, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    // Wrong magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(Snapshot::from_bytes(&bad).is_err());
    // Unknown future version.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = Snapshot::from_bytes(&future).unwrap_err();
    assert!(
        err.to_string().contains("version"),
        "unexpected error: {err}"
    );
    // Trailing garbage after the last section.
    let mut trailing = bytes.clone();
    trailing.push(0xAB);
    assert!(Snapshot::from_bytes(&trailing).is_err());
}

#[test]
fn snapshot_roundtrips_hnsw_graph_bitwise() {
    use kgpip_embeddings::HnswConfig;
    let mut artifact = trained_artifact();
    artifact.build_hnsw_index(HnswConfig::default());
    assert!(artifact.index().has_hnsw());
    let bytes = artifact.snapshot_bytes().unwrap();
    let restored = Snapshot::from_bytes(&bytes).unwrap().model;
    assert!(
        restored.index().has_hnsw(),
        "the HNSW graph must survive the snapshot"
    );
    assert_eq!(
        restored.snapshot_bytes().unwrap(),
        bytes,
        "re-serializing the restored model must be bit-identical"
    );
    let caps = Flaml::new(0).capabilities();
    let ds = unseen(60);
    let (a, na) = artifact.predict_skeletons(&ds, 3, &caps, 11).unwrap();
    let (b, nb) = restored.predict_skeletons(&ds, 3, &caps, 11).unwrap();
    assert_eq!(na, nb);
    assert_eq!(a, b);
}

/// Walks a snapshot's sections and returns the payload of `tag`.
fn section_payload(bytes: &[u8], tag: u32) -> Option<&[u8]> {
    let mut r = Reader::new(bytes.get(8..)?);
    while !r.at_end() {
        let (t, len) = (r.u32().ok()?, r.count(1).ok()?);
        let payload = r.take(len).ok()?;
        if t == tag {
            return Some(payload);
        }
    }
    None
}

/// The index section carries exactly the `.kgvi` catalog bytes, and a
/// mapped reader over that payload answers like the reopened model's
/// owned index — one layout, one parser, bit-identical answers.
#[test]
fn index_section_is_the_kgvi_catalog() {
    use kgpip_embeddings::{table_embedding, HnswConfig, MappedIndex};
    for graph in [false, true] {
        let mut artifact = trained_artifact();
        if graph {
            artifact.build_hnsw_index(HnswConfig::default());
        }
        let bytes = artifact.snapshot_bytes().unwrap();
        let payload = section_payload(&bytes, 5).expect("snapshot has an index section");
        assert_eq!(payload, &artifact.index().to_mapped_bytes().unwrap()[..]);
        let reopened = Snapshot::from_bytes(&bytes).unwrap().model;
        let mapped = MappedIndex::from_vec(payload.to_vec()).unwrap();
        assert_eq!(mapped.has_hnsw(), graph);
        let mut queries: Vec<(&str, Vec<f64>)> = ["alpha", "beta", "gamma"]
            .into_iter()
            .map(|name| (name, reopened.embedding_of(name).unwrap().to_vec()))
            .collect();
        queries.push(("unseen", table_embedding(&table_like(1.0, 40))));
        for (name, query) in &queries {
            for k in 1..=3 {
                let owned = reopened.index().search(query, k);
                let via_map = mapped.top_k(query, k);
                assert_eq!(owned.len(), via_map.len());
                for ((na, sa), (nb, sb)) in owned.iter().zip(&via_map) {
                    assert_eq!(na, nb, "{name} k={k}");
                    assert_eq!(sa.to_bits(), sb.to_bits(), "{name} k={k}");
                }
            }
        }
    }
    assert!(TrainedModel::open("/nonexistent/path/model.kgps").is_err());
}

#[test]
fn quantized_artifacts_snapshot_roundtrip() {
    use kgpip_embeddings::PqConfig;
    let mut artifact = trained_artifact();
    // Tiny catalog, tiny geometry — the round-trip mechanics are what's
    // under test, not recall.
    artifact
        .quantize_index(PqConfig {
            m: 4,
            rerank: 8,
            seed: 0,
        })
        .unwrap();
    assert!(artifact.index().is_quantized());
    let bytes = artifact.snapshot_bytes().unwrap();
    let snapshot = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snapshot.version, Snapshot::FORMAT_VERSION);
    assert!(snapshot.model.index().is_quantized());
    assert_eq!(
        snapshot.model.snapshot_bytes().unwrap(),
        bytes,
        "quantized snapshots must round-trip bit-for-bit"
    );
    // The quantized catalog answers nearest-dataset lookups identically:
    // with rerank × k covering the 3-entry catalog, answers are exact.
    let frame = table_like(900.0, 28);
    let direct = artifact.register_dataset("delta", &frame).unwrap();
    let (name, _) = artifact.nearest_by_embedding(&direct).unwrap();
    assert_eq!(name, "delta", "registered vector is served from codes");
}

#[test]
fn register_dataset_grows_the_catalog_online() {
    let mut artifact = trained_artifact();
    let before = artifact.catalog_len();
    let frame = table_like(900.0, 28);
    let embedding = artifact.register_dataset("delta", &frame).unwrap();
    assert_eq!(artifact.catalog_len(), before + 1);
    assert_eq!(artifact.embedding_of("delta").unwrap(), &embedding[..]);
    // The new dataset is retrievable as its own nearest neighbour.
    let (name, sim) = artifact.nearest_by_embedding(&embedding).unwrap();
    assert_eq!(name, "delta");
    assert!(sim > 0.999);
    // Duplicate registration is refused, catalog unchanged.
    let err = artifact.register_dataset("delta", &frame).unwrap_err();
    assert!(matches!(err, KgpipError::DuplicateDataset(_)));
    assert_eq!(artifact.catalog_len(), before + 1);
    // The grown model still snapshots and reloads.
    let restored = Snapshot::from_bytes(&artifact.snapshot_bytes().unwrap())
        .unwrap()
        .model;
    assert_eq!(restored.catalog_len(), before + 1);
    assert!(restored.embedding_of("delta").is_some());
}

#[test]
fn open_rejects_files_that_are_neither_format() {
    let dir = std::env::temp_dir().join("kgpip_snapshot_garbage_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.bin");
    std::fs::write(&path, [0xDEu8, 0xAD, 0xBE, 0xEF, 0x00]).unwrap();
    assert!(TrainedModel::open(&path).is_err());
    std::fs::remove_file(&path).ok();
}
