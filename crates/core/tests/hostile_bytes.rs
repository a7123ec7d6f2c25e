//! The artifact decoders are total over hostile bytes: `KGPS` snapshots
//! (`Snapshot::from_bytes`) and `KGVI` catalogs (`MappedIndex::from_vec`)
//! answer every truncation and every oversized length prefix with an
//! `Err`, and never panic on a flipped bit (a proptest).
//!
//! A flipped bit inside a value (a vector element, a parameter, a name
//! byte) can decode to a different but well-formed file, so bit flips
//! are held to "never panic" only. Length prefixes are checked against
//! the bytes that remain before anything is reserved
//! (`kgpip_embeddings::codec::Reader::count`), so the oversized-prefix
//! cases also show a hostile count is refused rather than allocated.

use kgpip::prelude::*;
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile};
use kgpip_embeddings::codec::{write_section, write_str, write_u32, write_u64, Reader};
use kgpip_embeddings::{HnswConfig, MappedIndex, PqConfig, VectorIndex};
use kgpip_graphgen::GeneratorConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

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

/// A small trained artifact with an HNSW graph and a PQ store, so every
/// section kind is present in its snapshot.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let profiles = vec![
            DatasetProfile::new("alpha", false),
            DatasetProfile::new("beta", true),
        ];
        let scripts = generate_corpus(
            &profiles,
            &CorpusConfig {
                scripts_per_dataset: 4,
                unsupported_fraction: 0.0,
                ..CorpusConfig::default()
            },
        );
        let tables = vec![
            ("alpha".to_string(), table_like(0.0, 20)),
            ("beta".to_string(), table_like(300.0, 20)),
        ];
        let config = KgpipConfig::default().with_generator(GeneratorConfig {
            hidden: 4,
            prop_rounds: 1,
            epochs: 1,
            ..GeneratorConfig::default()
        });
        let mut model = Kgpip::train(&scripts, &tables, config)
            .unwrap()
            .into_artifact();
        model.build_hnsw_index(HnswConfig::default());
        model
            .quantize_index(PqConfig {
                m: 4,
                rerank: 2,
                seed: 0,
            })
            .unwrap();
        model.snapshot_bytes().unwrap()
    })
}

/// A `KGVI` catalog carrying every section kind: vectors, names, graph,
/// PQ codebooks and codes.
fn catalog() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut index = VectorIndex::new();
        for i in 0..24 {
            let v: Vec<f64> = (0..6).map(|d| ((i * 6 + d) as f64 * 0.37).sin()).collect();
            index.add(format!("t{i}"), v);
        }
        index.build_hnsw(HnswConfig::default());
        index
            .quantize(PqConfig {
                m: 3,
                rerank: 2,
                seed: 0,
            })
            .unwrap();
        index.to_mapped_bytes().unwrap()
    })
}

/// Offsets of the `u64` length prefixes in a `KGPS` or `KGVI` file: every
/// section's payload length, plus the element counts inside the section
/// payloads — and, for the snapshot's index section, the same prefixes of
/// the embedded `KGVI` catalog.
fn length_prefixes(bytes: &[u8]) -> Vec<usize> {
    let snapshot = bytes.starts_with(&Snapshot::MAGIC);
    let mut r = Reader::new(bytes);
    r.take(8).unwrap();
    let mut out = Vec::new();
    while !r.at_end() {
        let tag = r.u32().unwrap();
        out.push(r.pos());
        let len = r.count(1).unwrap();
        let payload = r.pos();
        let body = r.take(len).unwrap();
        match (snapshot, tag) {
            // Snapshot: center and vocabulary counts, the generator's
            // config length. Catalog: header count, name count.
            (true, 2..=4) | (false, 1 | 3) => out.push(payload),
            (true, 5) => out.extend(length_prefixes(body).into_iter().map(|p| payload + p)),
            // HNSW node count, after the config and the entry point.
            (false, 4) => out.push(payload + 32 + if body[32] == 1 { 9 } else { 1 }),
            // PQ codebook value count, after the geometry and the seed.
            (false, 5) => out.push(payload + 24),
            _ => {}
        }
    }
    out
}

type Decoder = fn(&[u8]) -> bool;

/// Both decoders under test, each with its well-formed fixture; the
/// function reports whether the bytes decoded.
fn decoders() -> [(&'static str, &'static [u8], Decoder); 2] {
    [
        ("snapshot", snapshot(), |b| Snapshot::from_bytes(b).is_ok()),
        ("catalog", catalog(), |b| {
            MappedIndex::from_vec(b.to_vec()).is_ok()
        }),
    ]
}

#[test]
fn every_truncation_is_rejected() {
    for (what, bytes, decodes) in decoders() {
        assert!(decodes(bytes), "the {what} fixture decodes");
        for cut in 0..bytes.len() {
            assert!(!decodes(&bytes[..cut]), "{what} cut at {cut} decoded");
        }
    }
}

#[test]
fn every_oversized_length_prefix_is_rejected() {
    for (what, bytes, decodes) in decoders() {
        let prefixes = length_prefixes(bytes);
        assert!(prefixes.len() >= 10, "{what}: {prefixes:?}");
        for pos in prefixes {
            for huge in [u64::MAX, u64::MAX / 2, 1 << 62, 1 << 40, 1 << 32, 1 << 24] {
                let mut hostile = bytes.to_vec();
                hostile[pos..pos + 8].copy_from_slice(&huge.to_le_bytes());
                assert!(
                    !decodes(&hostile),
                    "{what}: prefix at {pos} = {huge} decoded"
                );
            }
        }
    }
}

/// A generator section of a few hundred bytes that claims a 4096 × 4096
/// tensor is refused by the shape-vs-bytes check, before anything is
/// reserved for the tensor's 64 MB.
#[test]
fn a_tensor_shape_larger_than_its_bytes_is_rejected() {
    let mut generator = Vec::new();
    write_str(
        &mut generator,
        &serde_json::to_string(&GeneratorConfig::default()).unwrap(),
    );
    write_u64(&mut generator, 1);
    write_str(&mut generator, "type_emb");
    write_u32(&mut generator, 4096);
    write_u32(&mut generator, 4096);
    generator.extend_from_slice(&[0u8; 256]);
    let mut bytes = Snapshot::MAGIC.to_vec();
    write_u32(&mut bytes, Snapshot::FORMAT_VERSION);
    write_section(&mut bytes, 4, &generator);
    let err = Snapshot::from_bytes(&bytes).unwrap_err().to_string();
    assert!(err.contains("overruns"), "unexpected error: {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flips_never_panic_a_decoder(which in 0usize..1 << 20, bit in 0u8..8) {
        for (_, bytes, decodes) in decoders() {
            let mut hostile = bytes.to_vec();
            hostile[which % bytes.len()] ^= 1 << bit;
            decodes(&hostile);
        }
    }
}
