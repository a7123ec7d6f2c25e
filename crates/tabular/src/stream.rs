//! Streaming chunked CSV ingest.
//!
//! [`read_chunked`] parses a CSV document into a [`ChunkedFrame`] in
//! fixed-size row chunks on a clamped rayon pool, bit-identical to
//! [`crate::csv::read_frame`] at any chunk size × worker count:
//!
//! 1. a sequential quote-aware scan locates record boundaries (cheap: no
//!    field is materialized) and surfaces every structural error at the
//!    same source line the in-memory reader reports;
//! 2. **pass 1** parses each chunk of records on the pool, column by
//!    column, and reduces every column of it at once: while its cells are
//!    numbers or missing markers they are decoded (one parse per cell);
//!    otherwise they are dictionary-encoded in first-appearance order,
//!    the distinct values kept as slices of the input. The chunk's parsed
//!    cells die with its task;
//! 3. the reductions meet in chunk order, which reproduces
//!    `infer_column`'s decisions exactly: the numeric rule over the merged
//!    flags, then [`string_kind`] over the merged counts (the chunk
//!    dictionaries merge into the global first-appearance dictionary).
//!    A chunk that looked numeric in a column another chunk proves
//!    non-numeric is re-parsed to encode its strings — the one case that
//!    reads a chunk twice;
//! 4. the typed chunks come straight from the reductions: numeric values
//!    as decoded, categorical codes remapped into one dictionary `Arc`
//!    shared by every chunk, text cells rebuilt from their chunk
//!    dictionary.
//!
//! Because each chunk is reduced as soon as it is parsed, no more than one
//! chunk of parsed cells per worker is resident at any time, whatever
//! [`ChunkedReadOptions::bounded_memory`] says.

use crate::chunk::ChunkedFrame;
use crate::column::{Column, ColumnKind};
use crate::csv::{parse_columns, scan_document, unique_name, RecordSpan};
use crate::infer::{decode_numeric, encode, string_kind};
use crate::parallel::effective_parallelism;
use crate::Result;
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Options for [`read_chunked`].
#[derive(Debug, Clone)]
pub struct ChunkedReadOptions {
    /// Rows per chunk (clamped to at least 1).
    pub chunk_rows: usize,
    /// Requested worker count; clamped through [`effective_parallelism`].
    pub parallelism: usize,
    /// Has no effect: every read reduces each chunk as soon as it is
    /// parsed, so at most one chunk of parsed cells per worker is
    /// resident whatever this says. Kept because existing callers set it.
    pub bounded_memory: bool,
}

impl Default for ChunkedReadOptions {
    fn default() -> Self {
        ChunkedReadOptions {
            chunk_rows: 8192,
            parallelism: 1,
            bounded_memory: false,
        }
    }
}

/// What the ingest cost: the observability half of the house invariant
/// (the frame itself is identical on every path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Data rows parsed.
    pub rows: usize,
    /// Number of chunks.
    pub chunks: usize,
    /// Workers used after clamping.
    pub workers: usize,
    /// Peak number of chunks whose parsed cells were resident at once —
    /// the peak-RSS proxy: at most one per worker.
    pub peak_resident_chunks: usize,
}

/// What pass 1 keeps of one column of one chunk once its cells are gone.
enum Reduced<'a> {
    /// Every present cell is a number or a missing marker.
    Numeric {
        values: Vec<Option<f64>>,
        present: usize,
        any_real: bool,
    },
    /// Some present cell is neither: a chunk-local first-appearance
    /// dictionary encoding. Distinct values borrow the input unless the
    /// field needed unescaping.
    Strings {
        distinct: Vec<Cow<'a, str>>,
        codes: Vec<Option<u32>>,
        present: usize,
        token_sum: usize,
    },
}

/// Reduces one column of a parsed chunk (see the module docs, step 2).
fn reduce(cells: Vec<Option<Cow<'_, str>>>) -> Reduced<'_> {
    match decode_numeric(cells.iter().map(|c| c.as_deref())) {
        Some(d) => Reduced::Numeric {
            values: d.values,
            present: d.present,
            any_real: d.any_real,
        },
        None => reduce_strings(cells),
    }
}

/// The string half of [`reduce`], also used to back-fill chunks.
fn reduce_strings(mut cells: Vec<Option<Cow<'_, str>>>) -> Reduced<'_> {
    let encoded = encode(cells.iter().map(|c| c.as_deref()));
    Reduced::Strings {
        distinct: encoded
            .first_rows
            .iter()
            .map(|&r| cells[r].take().unwrap_or_default())
            .collect(),
        codes: encoded.codes,
        present: encoded.present,
        token_sum: encoded.token_sum,
    }
}

/// The numeric rule over every chunk of one column: all chunks decoded
/// as numbers, and at least one number or nothing present at all.
fn is_numeric(chunks: &[Reduced<'_>]) -> bool {
    let mut present = 0usize;
    let mut any_real = false;
    for chunk in chunks {
        match chunk {
            Reduced::Numeric {
                present: p,
                any_real: a,
                ..
            } => {
                present += p;
                any_real |= a;
            }
            Reduced::Strings { .. } => return false,
        }
    }
    any_real || present == 0
}

/// Types one column from its chunk reductions (steps 3 and 4). The
/// back-fill guarantees a non-numeric column's chunks are all
/// [`Reduced::Strings`]; a numeric column's are all `Numeric` by
/// definition.
fn decode_column(chunks: Vec<Reduced<'_>>) -> Vec<Column> {
    const BACK_FILLED: &str = "back-fill leaves one reduction kind per column";
    if is_numeric(&chunks) {
        return chunks
            .into_iter()
            .map(|chunk| match chunk {
                Reduced::Numeric { values, .. } => Column::Numeric(values),
                Reduced::Strings { .. } => unreachable!("{BACK_FILLED}"),
            })
            .collect();
    }
    // Global first-appearance dictionary: chunk dictionaries merged in
    // chunk order reproduce row-order first appearance.
    let mut lookup: HashMap<&str, u32> = HashMap::new();
    let mut dictionary: Vec<&str> = Vec::new();
    let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(chunks.len());
    let mut present = 0usize;
    let mut token_sum = 0usize;
    for chunk in &chunks {
        let Reduced::Strings {
            distinct,
            present: p,
            token_sum: t,
            ..
        } = chunk
        else {
            unreachable!("{BACK_FILLED}");
        };
        present += p;
        token_sum += t;
        remaps.push(
            distinct
                .iter()
                .map(|s| {
                    *lookup.entry(s.as_ref()).or_insert_with(|| {
                        dictionary.push(s.as_ref());
                        (dictionary.len() - 1) as u32
                    })
                })
                .collect(),
        );
    }
    let kind = string_kind(present, dictionary.len(), token_sum);
    let shared = Arc::new(dictionary.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    chunks
        .iter()
        .zip(&remaps)
        .map(|(chunk, remap)| {
            let Reduced::Strings {
                distinct, codes, ..
            } = chunk
            else {
                unreachable!("{BACK_FILLED}");
            };
            match kind {
                ColumnKind::Text => Column::Text(
                    codes
                        .iter()
                        .map(|c| c.map(|c| distinct[c as usize].to_string()))
                        .collect(),
                ),
                _ => Column::Categorical {
                    codes: codes.iter().map(|c| c.map(|c| remap[c as usize])).collect(),
                    dictionary: Arc::clone(&shared),
                },
            }
        })
        .collect()
}

// xlint: allow(unclamped-rayon): the pool argument is built by read_chunked_with_report from effective_parallelism(); `None` means sequential
fn map_ordered<T, U, F>(pool: Option<&rayon::ThreadPool>, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    match pool {
        Some(p) => p.install(|| items.par_iter().map(&f).collect()),
        None => items.iter().map(f).collect(),
    }
}

/// Reads a CSV document into a [`ChunkedFrame`]; see the module docs for
/// the scheme. `to_frame()` of the result is bit-identical to
/// [`crate::csv::read_frame`] on the same input at any chunk size and
/// worker count.
pub fn read_chunked(input: &str, opts: &ChunkedReadOptions) -> Result<ChunkedFrame> {
    read_chunked_with_report(input, opts).map(|(frame, _)| frame)
}

/// [`read_chunked`] plus the cost report benches consume.
pub fn read_chunked_with_report(
    input: &str,
    opts: &ChunkedReadOptions,
) -> Result<(ChunkedFrame, IngestReport)> {
    let (header, spans) = scan_document(input)?;
    let ncols = header.len();
    let chunk_rows = opts.chunk_rows.max(1);
    // (global index of the chunk's first record, its spans)
    let groups: Vec<(usize, &[RecordSpan])> = spans
        .chunks(chunk_rows)
        .enumerate()
        .map(|(k, g)| (k * chunk_rows, g))
        .collect();
    let workers = effective_parallelism(opts.parallelism);
    let pool = if workers > 1 && groups.len() > 1 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .ok()
    } else {
        None
    };

    // Pass 1: parse and reduce every chunk; errors surface in chunk order.
    let reduced: Vec<Vec<Reduced<'_>>> = map_ordered(pool.as_ref(), &groups, |&(base, g)| {
        parse_columns(input, g, base, ncols).map(|cells| cells.into_iter().map(reduce).collect())
    })
    .into_iter()
    .collect::<Result<_>>()?;

    // Back-fill: chunks that looked numeric in a column the merged flags
    // prove non-numeric are re-parsed to encode their strings.
    let mut by_column: Vec<Vec<Reduced<'_>>> = (0..ncols)
        .map(|_| Vec::with_capacity(groups.len()))
        .collect();
    for chunk in reduced {
        for (c, column) in chunk.into_iter().enumerate() {
            by_column[c].push(column);
        }
    }
    let strings_needed: Vec<bool> = by_column.iter().map(|col| !is_numeric(col)).collect();
    let refill: Vec<usize> = (0..groups.len())
        .filter(|&k| {
            (0..ncols)
                .any(|c| strings_needed[c] && matches!(by_column[c][k], Reduced::Numeric { .. }))
        })
        .collect();
    let refilled = map_ordered(pool.as_ref(), &refill, |&k| {
        let (base, g) = groups[k];
        parse_columns(input, g, base, ncols).map(|cells| {
            cells
                .into_iter()
                .enumerate()
                .filter(|&(c, _)| {
                    strings_needed[c] && matches!(by_column[c][k], Reduced::Numeric { .. })
                })
                .map(|(c, cells)| (c, reduce_strings(cells)))
                .collect::<Vec<_>>()
        })
    });
    for (&k, columns) in refill.iter().zip(refilled) {
        for (c, column) in columns? {
            by_column[c][k] = column;
        }
    }

    let columns: Vec<Vec<Column>> = by_column.into_iter().map(decode_column).collect();
    let mut names: Vec<String> = Vec::with_capacity(ncols);
    for (c, name) in header.into_iter().enumerate() {
        let name = unique_name(&names, name, c);
        names.push(name);
    }
    let chunk_sizes: Vec<usize> = groups.iter().map(|(_, g)| g.len()).collect();
    let frame = ChunkedFrame::from_parts(names, columns, chunk_sizes);
    let report = IngestReport {
        rows: spans.len(),
        chunks: groups.len(),
        workers,
        peak_resident_chunks: groups.len().min(if pool.is_some() { workers } else { 1 }),
    };
    Ok((frame, report))
}

/// Chunked-parallel drop-in for [`crate::csv::read_frame`]: same
/// `DataFrame`, parsed in parallel chunks.
pub fn read_frame_chunked(input: &str, opts: &ChunkedReadOptions) -> Result<crate::DataFrame> {
    read_chunked(input, opts)?.to_frame()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_frame;

    const DOC: &str = "x,city,note,empty\n1.5,paris,\"alpha, beta\",\n2.5,lyon,short,\n\
                       NA,paris,\"he said \"\"hi\"\"\",\n4.5,nice,words words words words words,\n\
                       5.5,lyon,tail text,\n";

    #[test]
    fn chunked_matches_read_frame_at_every_chunk_size() {
        let expected = read_frame(DOC).unwrap();
        for chunk_rows in [1, 2, 3, 100] {
            for parallelism in [1, 2, 4] {
                for bounded in [false, true] {
                    let opts = ChunkedReadOptions {
                        chunk_rows,
                        parallelism,
                        bounded_memory: bounded,
                    };
                    let frame = read_frame_chunked(DOC, &opts).unwrap();
                    assert_eq!(
                        frame.fingerprint(),
                        expected.fingerprint(),
                        "chunk_rows={chunk_rows} parallelism={parallelism} bounded={bounded}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunks_that_look_numeric_are_back_filled() {
        // Chunks 0..3 decode as numbers; the last one proves the column
        // categorical, and the all-marker column is never numeric.
        let doc = "id,m\n1,NA\n2,?\n3,null\nabc,NA\n";
        let expected = read_frame(doc).unwrap();
        assert_eq!(
            expected.column("id").unwrap().kind(),
            ColumnKind::Categorical
        );
        assert_eq!(
            expected.column("m").unwrap().kind(),
            ColumnKind::Categorical
        );
        for chunk_rows in [1, 2, 3, 4] {
            let opts = ChunkedReadOptions {
                chunk_rows,
                ..ChunkedReadOptions::default()
            };
            let frame = read_frame_chunked(doc, &opts).unwrap();
            assert_eq!(
                frame.fingerprint(),
                expected.fingerprint(),
                "chunk_rows={chunk_rows}"
            );
        }
    }

    #[test]
    fn bounded_mode_caps_resident_chunks() {
        let opts = ChunkedReadOptions {
            chunk_rows: 1,
            parallelism: 1,
            bounded_memory: true,
        };
        let (_, report) = read_chunked_with_report(DOC, &opts).unwrap();
        assert_eq!(report.rows, 5);
        assert_eq!(report.chunks, 5);
        assert!(
            report.peak_resident_chunks <= 2 * report.workers,
            "bounded mode keeps at most two chunks resident per worker"
        );
    }

    #[test]
    fn errors_match_the_in_memory_reader() {
        for bad in ["a,b\n1\n", "a\n\"oops\n", "a\nx\"y\"\n"] {
            let seq = read_frame(bad).unwrap_err().to_string();
            let chk = read_frame_chunked(bad, &ChunkedReadOptions::default())
                .unwrap_err()
                .to_string();
            assert_eq!(seq, chk, "input {bad:?}");
        }
        assert!(read_frame_chunked("", &ChunkedReadOptions::default()).is_err());
    }

    #[test]
    fn duplicate_headers_suffix_like_read_frame() {
        let doc = "a,a.1,a\n1,2,3\n";
        let expected = read_frame(doc).unwrap();
        let frame = read_frame_chunked(doc, &ChunkedReadOptions::default()).unwrap();
        assert_eq!(frame.names(), expected.names());
    }

    #[test]
    fn header_only_document_yields_empty_typed_frame() {
        let expected = read_frame("a,b\n").unwrap();
        let frame = read_frame_chunked("a,b\n", &ChunkedReadOptions::default()).unwrap();
        assert_eq!(frame.fingerprint(), expected.fingerprint());
        assert_eq!(frame.num_rows(), 0);
    }
}
