//! The versioned binary snapshot format for [`TrainedModel`] artifacts —
//! the one persistence format of a trained model.
//!
//! A flat, little-endian, single-pass layout, framed and decoded with the
//! shared bounds-checked codec ([`kgpip_embeddings::codec`]):
//!
//! ```text
//! magic  b"KGPS"                      (4 bytes)
//! u32    format version               (currently 4)
//! then length-prefixed sections until end of input:
//!   u32 tag, u64 payload length, payload bytes
//!     tag 1  system config            (KgpipConfig, JSON — tiny)
//!     tag 2  conditioning center      (u64 dim + f64 each)
//!     tag 3  op vocabulary            (u64 count + length-prefixed names)
//!     tag 4  generator                (JSON GeneratorConfig + raw f32
//!                                      parameter tensors in registration
//!                                      order)
//!     tag 5  similarity index         (a whole `KGVI` catalog:
//!                                      VectorIndex::to_mapped_bytes)
//! ```
//!
//! The index section is the catalog's only vector store: a dataset's
//! content embedding is read back from the index by name or by the id a
//! search returned, so there is no second name → vector table to keep in
//! sync.
//!
//! Versioning rules: readers accept exactly the version they know;
//! *unknown section tags* within it are skipped (room for additive
//! sections without a version bump), while any layout change to an
//! existing section requires bumping [`Snapshot::FORMAT_VERSION`]. The
//! vocabulary section exists purely as a guard — type ids in the
//! generator parameters are meaningless if the op vocabulary ever drifts,
//! so loading fails loudly instead of decoding garbage pipelines.
//!
//! Version history: v2 appended an optional HNSW graph to the tag-5 index
//! payload and v3 an optional product-quantized store after it; v1–v3
//! also carried a tag-6 name → embedding table. v4 replaced the tag-5
//! payload with the `KGVI` layout and dropped tag 6. This build reads
//! and writes v4 only.

use crate::artifact::TrainedModel;
use crate::train::KgpipConfig;
use crate::{KgpipError, Result};
use kgpip_codegraph::OpVocab;
use kgpip_embeddings::codec::{write_f64s, write_section, write_str, write_u32, write_u64, Reader};
use kgpip_embeddings::VectorIndex;
use kgpip_graphgen::{GeneratorConfig, GraphGenerator};
use kgpip_nn::Tensor;

const TAG_CONFIG: u32 = 1;
const TAG_CENTER: u32 = 2;
const TAG_VOCAB: u32 = 3;
const TAG_GENERATOR: u32 = 4;
const TAG_INDEX: u32 = 5;

/// A parsed model snapshot: the format version it was written with plus
/// the decoded artifact.
#[derive(Debug)]
pub struct Snapshot {
    /// Format version of the source bytes.
    pub version: u32,
    /// The decoded model.
    pub model: TrainedModel,
}

impl Snapshot {
    /// File magic identifying a KGpip binary snapshot.
    pub const MAGIC: [u8; 4] = *b"KGPS";
    /// The snapshot format version this build reads and writes.
    pub const FORMAT_VERSION: u32 = 4;

    /// Parses a snapshot from bytes produced by
    /// [`TrainedModel::snapshot_bytes`]. Total over hostile input: any
    /// truncation, corruption or oversized length prefix is an `Err`,
    /// and no length prefix reserves more memory than the bytes behind
    /// it could fill.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot> {
        let mut r = Reader::new(bytes);
        if r.take(4).map_err(persist)? != Self::MAGIC {
            return Err(persist("not a KGpip snapshot (bad magic)"));
        }
        let version = r.u32().map_err(persist)?;
        if version != Self::FORMAT_VERSION {
            return Err(persist(format!(
                "unsupported snapshot format version {version} (this build reads {})",
                Self::FORMAT_VERSION
            )));
        }

        let mut config: Option<KgpipConfig> = None;
        let mut center: Option<Vec<f64>> = None;
        let mut vocab_names: Option<Vec<String>> = None;
        let mut generator: Option<GraphGenerator> = None;
        let mut index: Option<VectorIndex> = None;
        while !r.at_end() {
            let tag = r.u32().map_err(persist)?;
            let len = r.count(1).map_err(persist)?;
            let payload = r.take(len).map_err(persist)?;
            match tag {
                TAG_CONFIG => {
                    let json = std::str::from_utf8(payload).map_err(persist)?;
                    config = Some(serde_json::from_str(json).map_err(persist)?);
                }
                TAG_CENTER => center = Some(read_center(payload).map_err(persist)?),
                TAG_VOCAB => vocab_names = Some(read_vocab(payload).map_err(persist)?),
                TAG_GENERATOR => generator = Some(read_generator(payload)?),
                TAG_INDEX => {
                    index =
                        Some(VectorIndex::from_mapped_bytes(payload.to_vec()).map_err(persist)?);
                }
                // Unknown additive section from a newer writer of the same
                // format version: skip.
                _ => {}
            }
        }

        let vocab = OpVocab::new();
        let stored =
            vocab_names.ok_or_else(|| persist("snapshot is missing the vocabulary section"))?;
        let current: Vec<&str> = vocab.ops().iter().map(|op| op.name()).collect();
        if stored != current {
            return Err(persist(format!(
                "snapshot vocabulary ({} ops) does not match this build ({} ops); \
                 the model cannot be decoded safely",
                stored.len(),
                current.len()
            )));
        }
        let model = TrainedModel {
            config: config.ok_or_else(|| persist("snapshot is missing the config section"))?,
            embedding_center: center
                .ok_or_else(|| persist("snapshot is missing the conditioning-center section"))?,
            vocab,
            generator: generator
                .ok_or_else(|| persist("snapshot is missing the generator section"))?,
            index: index.ok_or_else(|| persist("snapshot is missing the index section"))?,
        };
        Ok(Snapshot { version, model })
    }
}

fn read_center(payload: &[u8]) -> std::result::Result<Vec<f64>, String> {
    let mut s = Reader::new(payload);
    let center = s.f64s()?;
    s.expect_end("conditioning center")?;
    Ok(center)
}

fn read_vocab(payload: &[u8]) -> std::result::Result<Vec<String>, String> {
    let mut s = Reader::new(payload);
    // Each name costs at least its 8-byte length prefix.
    let n = s.count(8)?;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(s.str()?);
    }
    s.expect_end("vocabulary")?;
    Ok(names)
}

fn read_generator(payload: &[u8]) -> Result<GraphGenerator> {
    let mut s = Reader::new(payload);
    let cfg_len = s.count(1).map_err(persist)?;
    let cfg_json = std::str::from_utf8(s.take(cfg_len).map_err(persist)?).map_err(persist)?;
    let cfg: GeneratorConfig = serde_json::from_str(cfg_json).map_err(persist)?;
    // Each tensor costs at least a name length prefix plus its two u32
    // dimensions.
    let count = s.count(16).map_err(persist)?;
    let mut params = Vec::with_capacity(count);
    for _ in 0..count {
        let _name = s.str().map_err(persist)?;
        let rows = s.u32().map_err(persist)? as usize;
        let cols = s.u32().map_err(persist)? as usize;
        let len = s.fits(rows.saturating_mul(cols), 4).map_err(persist)?;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f32::from_le_bytes(s.array().map_err(persist)?));
        }
        params.push(Tensor::from_vec(data, rows, cols).map_err(persist)?);
    }
    s.expect_end("generator").map_err(persist)?;
    GraphGenerator::from_params(cfg, params).map_err(persist)
}

impl TrainedModel {
    /// Serializes the artifact into the binary snapshot format. Fails
    /// when the catalog's vectors have mixed dimensions, which the `KGVI`
    /// index layout cannot represent.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&Snapshot::MAGIC);
        write_u32(&mut out, Snapshot::FORMAT_VERSION);

        let config_json = serde_json::to_string(&self.config).map_err(persist)?;
        write_section(&mut out, TAG_CONFIG, config_json.as_bytes());

        let mut center = Vec::new();
        write_f64s(&mut center, &self.embedding_center);
        write_section(&mut out, TAG_CENTER, &center);

        let mut vocab = Vec::new();
        write_u64(&mut vocab, self.vocab.ops().len() as u64);
        for op in self.vocab.ops() {
            write_str(&mut vocab, op.name());
        }
        write_section(&mut out, TAG_VOCAB, &vocab);

        let mut generator = Vec::new();
        let cfg_json = serde_json::to_string(self.generator.config()).map_err(persist)?;
        write_str(&mut generator, &cfg_json);
        let params: Vec<_> = self.generator.params().collect();
        write_u64(&mut generator, params.len() as u64);
        for (name, tensor) in params {
            write_str(&mut generator, name);
            write_u32(&mut generator, tensor.rows() as u32);
            write_u32(&mut generator, tensor.cols() as u32);
            for x in tensor.as_slice() {
                generator.extend_from_slice(&x.to_le_bytes());
            }
        }
        write_section(&mut out, TAG_GENERATOR, &generator);

        let index = self.index.to_mapped_bytes().map_err(persist)?;
        write_section(&mut out, TAG_INDEX, &index);
        Ok(out)
    }

    /// Writes the artifact to a snapshot file (see [`Snapshot`] for the
    /// format).
    pub fn snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.snapshot_bytes()?).map_err(persist)
    }

    /// Opens a model artifact from a snapshot file — the single loader
    /// deployments should use.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<TrainedModel> {
        let bytes = std::fs::read(path).map_err(persist)?;
        Ok(Snapshot::from_bytes(&bytes)?.model)
    }
}

fn persist(e: impl ToString) -> KgpipError {
    KgpipError::Persistence(e.to_string())
}
