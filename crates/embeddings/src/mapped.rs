//! The `KGVI` catalog layout: the one on-disk form of a similarity index.
//!
//! Two readers share it. [`MappedIndex`] serves a catalog file read-only:
//! the whole file is read once into a single shared immutable buffer and
//! *decoded in place* — vectors and names are addressed through in-file
//! offset tables and never copied into owned buffers. (The workspace
//! forbids `unsafe`, so the buffer comes from one `fs::read` rather than
//! an OS `mmap(2)`; the layout is position-independent and
//! page-aligned-friendly so a real mapping could drop in without a format
//! change.) [`VectorIndex::from_mapped_bytes`] builds the owned, growable
//! index from a validated [`MappedIndex`], so the layout has exactly one
//! parser; model snapshots (`KGPS`) carry these bytes as their index
//! section.
//!
//! # Layout
//!
//! Little-endian, KGPS-style framing (`crates/core/src/snapshot.rs`):
//!
//! ```text
//! magic "KGVI" · u32 version
//! repeated sections: u32 tag · u64 payload_len · payload
//!   tag 1 header:  u64 count · u32 dim
//!   tag 2 vectors: count × dim f64, catalog order (zero-copy scanned)
//!   tag 4 hnsw:    Hnsw::to_bytes payload (optional section)
//!   tag 5 pq book: PqCodebook::to_bytes payload (optional section)
//!   tag 6 pq codes: count × m u8 code matrix (zero-copy scanned;
//!                   requires tag 5 and vice versa)
//!   tag 3 names:   u64 count · (count+1) × u64 offsets · UTF-8 blob
//! ```
//!
//! The reader accepts sections in any order; the writer emits them in
//! the order above, with the required names section last, so a file cut
//! short anywhere fails to open instead of opening as a catalog without
//! its optional tail. Unknown tags are skipped, mirroring the snapshot
//! reader's forward-compatibility rule. Offsets and UTF-8 are validated
//! once at [`MappedIndex::open`]; afterwards every accessor is panic-free
//! and allocation-free.
//!
//! # Bit-identity
//!
//! [`MappedIndex::top_k`] must answer **bit-identically** to the owned
//! [`VectorIndex::search`] over the same catalog. Cosine over mapped bytes
//! therefore replays the exact operation order of [`cosine`]: dot over the
//! zip-truncated prefix, then the two norms (the stored-vector norm over
//! *all* of its elements), the `1e-12` zero guards, then `dot / (na·nb)`.
//!
//! [`cosine`]: crate::column::cosine

use crate::codec::{write_section, write_u32, write_u64, Reader};
use crate::hnsw::{Hnsw, VectorSource};
use crate::index::{scan_top_k, search_store, IndexStats, IndexTier, VectorIndex};
use crate::pq::{Pq, PqCodebook};
use std::path::Path;
use std::sync::Arc;

/// File magic, the mapped-catalog sibling of the `KGPS` snapshot magic.
pub const MAGIC: &[u8; 4] = b"KGVI";

/// Mapped-catalog format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_HEADER: u32 = 1;
const TAG_VECTORS: u32 = 2;
const TAG_NAMES: u32 = 3;
const TAG_HNSW: u32 = 4;
const TAG_PQ_BOOK: u32 = 5;
const TAG_PQ_CODES: u32 = 6;

/// A read-only vector catalog decoded in place over one shared buffer.
/// Cloning is cheap (an `Arc` bump), so one loaded file can back many
/// concurrent readers.
#[derive(Debug, Clone)]
pub struct MappedIndex {
    buf: Arc<[u8]>,
    count: usize,
    dim: usize,
    /// Byte offset of the vectors payload (`count * dim * 8` bytes).
    vec_start: usize,
    /// Byte offset of the `(count+1)`-entry name offset table.
    name_off_start: usize,
    /// Byte offset and length of the UTF-8 name blob.
    name_blob_start: usize,
    name_blob_len: usize,
    /// HNSW adjacency, parsed owned — it is small next to the vectors,
    /// which stay zero-copy.
    hnsw: Option<Hnsw>,
    /// PQ codebooks, parsed owned (a few KB); the `count × m` code
    /// matrix stays zero-copy in the buffer at `codes_start`.
    pq_book: Option<PqCodebook>,
    /// Byte offset of the PQ code matrix payload (`count × m` bytes);
    /// meaningful only when `pq_book` is present.
    codes_start: usize,
}

impl MappedIndex {
    /// Opens a `KGVI` file read-only: one read into a shared buffer, one
    /// validation pass, no per-vector copies.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedIndex, String> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
        MappedIndex::from_vec(bytes)
    }

    /// Decodes a `KGVI` payload already in memory, taking ownership of the
    /// buffer (no copy).
    pub fn from_vec(bytes: Vec<u8>) -> Result<MappedIndex, String> {
        let mut r = Reader::new(&bytes);
        if r.take(4)? != MAGIC {
            return Err("not a KGVI mapped catalog (bad magic)".into());
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported KGVI version {version} (reader supports {FORMAT_VERSION})"
            ));
        }
        let mut header: Option<(usize, usize)> = None;
        let mut vec_range: Option<(usize, usize)> = None;
        let mut name_range: Option<(usize, usize)> = None;
        let mut hnsw: Option<Hnsw> = None;
        let mut pq_book: Option<PqCodebook> = None;
        let mut codes_range: Option<(usize, usize)> = None;
        while !r.at_end() {
            let tag = r.u32()?;
            let len = r.u64()? as usize;
            let start = r.pos();
            let payload = r.take(len)?;
            match tag {
                TAG_HEADER => {
                    let mut h = Reader::new(payload);
                    let count = h.u64()? as usize;
                    let dim = h.u32()? as usize;
                    h.expect_end("KGVI header")?;
                    header = Some((count, dim));
                }
                TAG_VECTORS => vec_range = Some((start, len)),
                TAG_NAMES => name_range = Some((start, len)),
                TAG_HNSW => hnsw = Some(Hnsw::from_bytes(payload)?),
                TAG_PQ_BOOK => pq_book = Some(PqCodebook::from_bytes(payload)?),
                TAG_PQ_CODES => codes_range = Some((start, len)),
                _ => {} // Forward compatibility: skip unknown sections.
            }
        }
        let (count, dim) = header.ok_or("KGVI missing header section")?;
        let (vec_start, vec_len) = vec_range.ok_or("KGVI missing vectors section")?;
        let (name_start, name_len) = name_range.ok_or("KGVI missing names section")?;
        let expected = count
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or("KGVI vector section size overflows")?;
        if vec_len != expected {
            return Err(format!(
                "KGVI vectors section holds {vec_len} bytes, header implies {expected}"
            ));
        }
        // Names: u64 count · (count+1) offsets · blob. Validate offsets
        // are monotone, end-anchored, and each slice is UTF-8 — after
        // this pass `name()` can never fail on a well-formed handle.
        let mut n = Reader::new(bytes.get(name_start..name_start + name_len).unwrap_or(&[]));
        let name_count = n.u64()? as usize;
        if name_count != count {
            return Err(format!(
                "KGVI names section lists {name_count} names for {count} vectors"
            ));
        }
        let name_off_start = name_start + n.pos();
        let offsets = count
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or("KGVI name offset table size overflows")?;
        let table = n.take(offsets)?;
        let name_blob_start = name_start + n.pos();
        let blob = n.take(name_len.saturating_sub(n.pos()))?;
        n.expect_end("KGVI names")?;
        let mut prev = 0u64;
        let mut table = Reader::new(table);
        for i in 0..=count {
            let off = table.u64()?;
            if off < prev || off as usize > blob.len() {
                return Err(format!("KGVI name offset {i} out of order or out of range"));
            }
            if std::str::from_utf8(blob.get(prev as usize..off as usize).unwrap_or(&[])).is_err() {
                return Err(format!("KGVI name {i} is not valid UTF-8"));
            }
            prev = off;
        }
        if prev as usize != blob.len() {
            return Err("KGVI name offsets do not cover the blob".into());
        }
        if let Some(graph) = &hnsw {
            if graph.len() != count {
                return Err(format!(
                    "KGVI HNSW graph indexes {} nodes but catalog holds {count}",
                    graph.len()
                ));
            }
        }
        // PQ sections come in pairs: codebooks (owned, small) + the
        // zero-copy code matrix. Validate geometry and code range once so
        // every later scan is panic-free.
        let codes_start = match (&pq_book, codes_range) {
            (None, None) => 0,
            (Some(book), Some((start, len))) => {
                if book.dim() != dim {
                    return Err(format!(
                        "KGVI PQ codebooks cover dim {} but catalog is dim {dim}",
                        book.dim()
                    ));
                }
                let expected = count
                    .checked_mul(book.m())
                    .ok_or("KGVI PQ code section size overflows")?;
                if len != expected {
                    return Err(format!(
                        "KGVI PQ code section holds {len} bytes, geometry implies {expected}"
                    ));
                }
                let codes = bytes.get(start..start + len).unwrap_or(&[]);
                if codes.iter().any(|&c| c as usize >= book.ksub()) {
                    return Err("KGVI PQ code out of codebook range".into());
                }
                start
            }
            _ => {
                return Err(
                    "KGVI PQ sections must appear in pairs (codebooks + code matrix)".into(),
                )
            }
        };
        let name_blob_len = blob.len();
        Ok(MappedIndex {
            buf: bytes.into(),
            count,
            dim,
            vec_start,
            name_off_start,
            name_blob_start,
            name_blob_len,
            hnsw,
            pq_book,
            codes_start,
        })
    }

    /// Number of catalog entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when the file carried an HNSW graph section.
    pub fn has_hnsw(&self) -> bool {
        self.hnsw.is_some()
    }

    /// The HNSW graph, when the file carried one.
    pub fn hnsw(&self) -> Option<&Hnsw> {
        self.hnsw.as_ref()
    }

    /// True when the file carried a product-quantized store.
    pub fn is_quantized(&self) -> bool {
        self.pq_book.is_some()
    }

    /// The PQ codebooks, when the file carried them.
    pub fn pq_book(&self) -> Option<&PqCodebook> {
        self.pq_book.as_ref()
    }

    /// Resident byte accounting per storage component, mirroring
    /// [`VectorIndex::stats`]. The tier is HNSW when the file carries a
    /// graph, exact otherwise.
    pub fn stats(&self) -> IndexStats {
        let tier = if self.hnsw.is_some() {
            IndexTier::Hnsw
        } else {
            IndexTier::Exact
        };
        let pq_bytes = self
            .pq_book
            .as_ref()
            .map_or(0, |book| self.count * book.m() + book.codebook_bytes());
        IndexStats {
            tier,
            quantized: self.pq_book.is_some(),
            count: self.count,
            dim: self.dim,
            vector_bytes: self.count * self.dim * 8,
            hnsw_bytes: self.hnsw.as_ref().map_or(0, |h| h.to_bytes().len()),
            pq_bytes,
        }
    }

    /// Raw little-endian bytes of the i-th vector (no decode, no copy).
    fn vector_bytes(&self, i: usize) -> Option<&[u8]> {
        if i >= self.count {
            return None;
        }
        let start = self.vec_start + i * self.dim * 8;
        self.buf.get(start..start + self.dim * 8)
    }

    /// The i-th vector decoded into an owned buffer — for callers that
    /// need `&[f64]` semantics; the query path never calls this.
    pub fn vector(&self, i: usize) -> Option<Vec<f64>> {
        Some(le_f64s(self.vector_bytes(i)?).collect())
    }

    /// Name of the i-th entry, borrowed straight from the mapped buffer.
    pub fn name(&self, i: usize) -> Option<&str> {
        if i >= self.count {
            return None;
        }
        let lo = self.offset_entry(i)?;
        let hi = self.offset_entry(i + 1)?;
        if lo > hi || hi > self.name_blob_len {
            return None;
        }
        let blob = self
            .buf
            .get(self.name_blob_start..self.name_blob_start + self.name_blob_len)?;
        std::str::from_utf8(blob.get(lo..hi)?).ok()
    }

    fn offset_entry(&self, i: usize) -> Option<usize> {
        let start = self.name_off_start + i * 8;
        let chunk = self.buf.get(start..start + 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        Some(u64::from_le_bytes(buf) as usize)
    }

    /// Top-k through the mapped catalog: HNSW when the file carries a
    /// graph, exact scan otherwise. Answers bit-identically to
    /// [`VectorIndex::search`] over the same catalog and tier — both run
    /// the same search — including quantized catalogs, where the
    /// candidate scan reads the zero-copy code matrix and the answer is
    /// re-ranked with exact cosine over the mapped full-precision vectors.
    pub fn top_k(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        self.named(search_store(self, self.hnsw.as_ref(), self.pq(), query, k))
    }

    /// The PQ codebooks and the `count × m` code matrix, borrowed
    /// straight from the mapped buffer, when the file carries them.
    fn pq(&self) -> Option<(&PqCodebook, &[u8])> {
        let book = self.pq_book.as_ref()?;
        let len = self.count * book.m();
        let codes = self.buf.get(self.codes_start..self.codes_start + len)?;
        Some((book, codes))
    }

    /// Exact top-k over the mapped vectors, mirroring
    /// [`VectorIndex::top_k`]'s scoring and `(score, id)` ordering.
    pub fn top_k_exact(&self, query: &[f64], k: usize) -> Vec<(String, f64)> {
        self.named(scan_top_k(self, None, query, k))
    }

    /// Maps `(id, score)` hits to `(name, score)`.
    fn named(&self, hits: Vec<(usize, f64)>) -> Vec<(String, f64)> {
        hits.into_iter()
            .filter_map(|(i, s)| self.name(i).map(|n| (n.to_string(), s)))
            .collect()
    }
}

impl VectorSource for MappedIndex {
    fn count(&self) -> usize {
        self.count
    }

    fn similarity(&self, i: usize, query: &[f64]) -> f64 {
        self.vector_bytes(i)
            .map_or(0.0, |bytes| cosine_bytes(query, bytes))
    }

    fn pair_similarity(&self, i: usize, j: usize) -> f64 {
        // Argument order mirrors `SliceSource`: cosine(vec_j, vec_i).
        self.vector(j)
            .map_or(0.0, |query| self.similarity(i, &query))
    }
}

/// Decodes a little-endian `f64` payload in place.
fn le_f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|c| {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(c);
        f64::from_le_bytes(buf)
    })
}

/// Cosine between an owned query and a little-endian vector payload,
/// replaying [`cosine`]'s operation order exactly: dot over the zipped
/// prefix, query norm over the full query, stored norm over **all** stored
/// elements (not just the zipped prefix), the `1e-12` guards, then
/// `dot / (na * nb)` — so mapped and owned scores agree to the bit.
///
/// [`cosine`]: crate::column::cosine
fn cosine_bytes(query: &[f64], bytes: &[u8]) -> f64 {
    let dot: f64 = query.iter().zip(le_f64s(bytes)).map(|(x, y)| x * y).sum();
    let na: f64 = query.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = le_f64s(bytes).map(|y| y * y).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

impl VectorIndex {
    /// Serializes the catalog (plus any built HNSW graph and any
    /// product-quantized store) to the `KGVI` mapped format.
    /// Deterministic: the same index always produces the same bytes.
    /// Fails when vectors have mixed dimensionality, which the flat
    /// layout cannot represent. PQ rides as two tagged sections that
    /// pre-PQ readers skip.
    pub fn to_mapped_bytes(&self) -> Result<Vec<u8>, String> {
        let dim = self.vectors.first().map_or(0, Vec::len);
        if self.vectors.iter().any(|v| v.len() != dim) {
            return Err("catalog vectors have mixed dimensions; cannot map".into());
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, FORMAT_VERSION);
        let mut header = Vec::new();
        write_u64(&mut header, self.vectors.len() as u64);
        write_u32(&mut header, dim as u32);
        write_section(&mut out, TAG_HEADER, &header);
        let mut vecs = Vec::with_capacity(self.vectors.len() * dim * 8);
        for v in &self.vectors {
            for x in v {
                vecs.extend_from_slice(&x.to_le_bytes());
            }
        }
        write_section(&mut out, TAG_VECTORS, &vecs);
        let mut names = Vec::new();
        write_u64(&mut names, self.names.len() as u64);
        let mut off = 0u64;
        for n in &self.names {
            write_u64(&mut names, off);
            off += n.len() as u64;
        }
        write_u64(&mut names, off);
        for n in &self.names {
            names.extend_from_slice(n.as_bytes());
        }
        if let Some(hnsw) = self.hnsw() {
            write_section(&mut out, TAG_HNSW, &hnsw.to_bytes());
        }
        if let Some(pq) = self.pq() {
            write_section(&mut out, TAG_PQ_BOOK, &pq.book().to_bytes());
            write_section(&mut out, TAG_PQ_CODES, pq.codes());
        }
        // The required names section goes last, after the optional ones:
        // every proper prefix of the file then lacks it or cuts it short,
        // so a truncated file never opens as a smaller valid catalog.
        write_section(&mut out, TAG_NAMES, &names);
        Ok(out)
    }

    /// Restores an owned index from [`VectorIndex::to_mapped_bytes`]
    /// output: the bytes are validated by [`MappedIndex::from_vec`], then
    /// names, vectors, graph and PQ state are copied out of the mapped
    /// view. Round-trips bit-for-bit.
    pub fn from_mapped_bytes(bytes: Vec<u8>) -> Result<VectorIndex, String> {
        let mapped = MappedIndex::from_vec(bytes)?;
        let mut index = VectorIndex::new();
        for i in 0..mapped.count {
            index
                .names
                .push(mapped.name(i).unwrap_or_default().to_string());
            index.vectors.push(mapped.vector(i).unwrap_or_default());
        }
        index.hnsw = mapped.hnsw.clone();
        index.pq = mapped
            .pq()
            .map(|(book, codes)| Pq::from_parts(book.clone(), codes.to_vec()));
        Ok(index)
    }

    /// Writes the `KGVI` mapped catalog to `path` for serve replicas to
    /// [`MappedIndex::open`].
    pub fn write_mapped(&self, path: impl AsRef<Path>) -> Result<(), String> {
        std::fs::write(path.as_ref(), self.to_mapped_bytes()?)
            .map_err(|e| format!("write {}: {e}", path.as_ref().display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hnsw::HnswConfig;

    fn catalog(n: usize, dim: usize) -> VectorIndex {
        let mut idx = VectorIndex::new();
        for i in 0..n {
            let v: Vec<f64> = (0..dim)
                .map(|d| ((i * dim + d) as f64 * 0.41).sin())
                .collect();
            idx.add(format!("table-{i}"), v);
        }
        idx
    }

    #[test]
    fn mapped_exact_matches_owned_bitwise() {
        let idx = catalog(80, 7);
        let mapped = MappedIndex::from_vec(idx.to_mapped_bytes().unwrap()).unwrap();
        assert_eq!(mapped.len(), 80);
        assert_eq!(mapped.dim(), 7);
        for q in 0..10 {
            let query = idx.vector(q).unwrap().to_vec();
            let owned = idx.top_k(&query, 5);
            let via_map = mapped.top_k(&query, 5);
            assert_eq!(owned.len(), via_map.len());
            for ((na, sa), (nb, sb)) in owned.iter().zip(&via_map) {
                assert_eq!(na, nb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "query {q} diverged");
            }
        }
    }

    #[test]
    fn mapped_hnsw_matches_owned_bitwise() {
        let mut idx = catalog(100, 6);
        idx.build_hnsw(HnswConfig::default());
        let mapped = MappedIndex::from_vec(idx.to_mapped_bytes().unwrap()).unwrap();
        assert!(mapped.has_hnsw());
        for q in 0..10 {
            let query = idx.vector(q).unwrap().to_vec();
            let owned = idx.search(&query, 5);
            let via_map = mapped.top_k(&query, 5);
            assert_eq!(owned.len(), via_map.len());
            for ((na, sa), (nb, sb)) in owned.iter().zip(&via_map) {
                assert_eq!(na, nb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "query {q} diverged");
            }
        }
    }

    #[test]
    fn mapped_bytes_are_deterministic() {
        let mut idx = catalog(30, 4);
        idx.build_hnsw(HnswConfig::default());
        assert_eq!(
            idx.to_mapped_bytes().unwrap(),
            idx.to_mapped_bytes().unwrap()
        );
    }

    #[test]
    fn names_and_vectors_decode_in_place() {
        let idx = catalog(12, 3);
        let mapped = MappedIndex::from_vec(idx.to_mapped_bytes().unwrap()).unwrap();
        for i in 0..12 {
            assert_eq!(mapped.name(i), Some(format!("table-{i}").as_str()));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&mapped.vector(i).unwrap()),
                bits(idx.vector(i).unwrap())
            );
        }
        assert_eq!(mapped.name(12), None);
        assert_eq!(mapped.vector(12), None);
    }

    #[test]
    fn open_rejects_malformed_files() {
        let idx = catalog(5, 3);
        let bytes = idx.to_mapped_bytes().unwrap();
        assert!(MappedIndex::from_vec(bytes[..bytes.len() - 3].to_vec()).is_err());
        assert!(MappedIndex::from_vec(b"NOPE".to_vec()).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(MappedIndex::from_vec(bad_version).is_err());
        let mut ragged = VectorIndex::new();
        ragged.add("a", vec![1.0, 0.0]);
        ragged.add("b", vec![1.0]);
        assert!(ragged.to_mapped_bytes().is_err());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let idx = catalog(4, 2);
        let mut bytes = idx.to_mapped_bytes().unwrap();
        // Append an unknown tag-99 section; the reader must ignore it.
        write_section(&mut bytes, 99, b"future data");
        let mapped = MappedIndex::from_vec(bytes).unwrap();
        assert_eq!(mapped.len(), 4);
    }

    #[test]
    fn mapped_quantized_matches_owned_bitwise() {
        use crate::pq::PqConfig;
        for build_graph in [false, true] {
            let mut idx = catalog(120, 8);
            if build_graph {
                idx.build_hnsw(HnswConfig::default());
            }
            idx.quantize(PqConfig {
                m: 4,
                rerank: 4,
                seed: 0,
            })
            .unwrap();
            let mapped = MappedIndex::from_vec(idx.to_mapped_bytes().unwrap()).unwrap();
            assert!(mapped.is_quantized());
            for q in 0..12 {
                let query = idx.vector(q).unwrap().to_vec();
                let owned = idx.search(&query, 5);
                let via_map = mapped.top_k(&query, 5);
                assert_eq!(owned.len(), via_map.len());
                for ((na, sa), (nb, sb)) in owned.iter().zip(&via_map) {
                    assert_eq!(na, nb);
                    assert_eq!(
                        sa.to_bits(),
                        sb.to_bits(),
                        "query {q} diverged (graph={build_graph})"
                    );
                }
            }
            assert_eq!(mapped.stats().pq_bytes, idx.stats().pq_bytes);
        }
    }

    #[test]
    fn pq_sections_must_pair() {
        use crate::pq::PqConfig;
        let mut idx = catalog(20, 6);
        idx.quantize(PqConfig {
            m: 3,
            rerank: 2,
            seed: 0,
        })
        .unwrap();
        let full = idx.to_mapped_bytes().unwrap();
        // Rebuilds the file without the sections tagged in `drop`.
        let without = |drop: &[u32]| {
            let mut r = Reader::new(&full);
            let mut out = r.take(8).unwrap().to_vec(); // magic + version
            while !r.at_end() {
                let tag = r.u32().unwrap();
                let len = r.u64().unwrap() as usize;
                let payload = r.take(len).unwrap();
                if !drop.contains(&tag) {
                    write_section(&mut out, tag, payload);
                }
            }
            out
        };
        // A book without its matrix must be rejected, not half-loaded.
        assert!(MappedIndex::from_vec(without(&[TAG_PQ_CODES])).is_err());
        // Dropping both PQ sections is the pre-PQ file: loads, answers
        // full-precision.
        let mapped = MappedIndex::from_vec(without(&[TAG_PQ_CODES, TAG_PQ_BOOK])).unwrap();
        assert!(!mapped.is_quantized());
        assert_eq!(mapped.len(), 20);
    }

    #[test]
    fn file_roundtrip_via_disk() {
        let dir = std::env::temp_dir().join("kgpip-mapped-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.kgvi");
        let mut idx = catalog(20, 4);
        idx.build_hnsw(HnswConfig::default());
        idx.write_mapped(&path).unwrap();
        let mapped = MappedIndex::open(&path).unwrap();
        let query = idx.vector(3).unwrap().to_vec();
        assert_eq!(idx.search(&query, 3), mapped.top_k(&query, 3));
        std::fs::remove_file(&path).ok();
    }
}
