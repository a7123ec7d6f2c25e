//! Content-based dataset embeddings, similarity search, and t-SNE.
//!
//! Paper §3.2: KGpip "generate[s] fixed-size, dense columnar embeddings for
//! input datasets ... The content similarity is calculated using dense
//! vector representations (embeddings) of column values. Table embeddings
//! are computed by pooling over their individual column embeddings ... We
//! then use efficient libraries [FAISS] for similarity search of dense
//! vectors to retrieve the most similar dataset."
//!
//! This crate provides the whole chain:
//! * [`column_embedding`] — a fixed-size dense vector per column computed
//!   from actual values (distribution sketches for numerics, hashed
//!   character n-grams for strings) — the KGLac substitute,
//! * [`table_embedding`] — mean-pooled, L2-normalized table vectors,
//! * [`index::VectorIndex`] — two-tier top-k cosine search (exact scan
//!   below the measured crossover, deterministic HNSW graph above it) —
//!   the FAISS substitute,
//! * [`hnsw`] — the deterministic HNSW graph layer itself,
//! * [`mapped`] — the `KGVI` catalog layout, the one on-disk form of an
//!   index, and its read-only mapped reader so serve replicas warm-start
//!   without copying vectors into owned buffers,
//! * [`codec`] — the bounds-checked little-endian reader and writers
//!   every binary format in the workspace decodes through,
//! * [`pq`] — product quantization: compressed `u8` code storage with
//!   ADC scoring under the tiers and an exact re-rank on top,
//! * [`tsne`] — exact t-SNE for the Figure-10 qualitative analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod column;
pub mod hnsw;
pub mod index;
pub mod mapped;
pub mod pq;
pub mod table;
pub mod tsne;

pub use column::{column_embedding, column_embedding_parts, EMBED_DIM};
pub use hnsw::{Hnsw, HnswConfig, SliceSource, VectorSource};
pub use index::{IndexStats, IndexTier, VectorIndex};
pub use mapped::MappedIndex;
pub use pq::{Pq, PqConfig};
pub use table::{table_embedding, table_embedding_chunked, table_embeddings};
pub use tsne::tsne;
