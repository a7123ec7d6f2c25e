//! A small RFC-4180-style CSV reader/writer.
//!
//! KGpip's mined pipelines almost universally begin with `pandas.read_csv`
//! (paper §3.4–3.5: the dataset node "is assumed to flow into a read_csv
//! call"), so the substrate provides an equivalent entry point:
//! [`read_csv_str`] parses a CSV document into raw string cells and
//! [`read_frame`] combines it with type inference to produce a typed
//! [`DataFrame`].

use crate::error::TabularError;
use crate::frame::DataFrame;
use crate::infer::infer_column;
use crate::Result;
use std::borrow::Cow;

/// A parsed CSV document: a header row plus raw string cells.
/// Empty cells are `None` (missing).
#[derive(Debug, Clone, PartialEq)]
pub struct RawCsv {
    /// Column names from the header row.
    pub header: Vec<String>,
    /// Row-major cells; `cells[r][c]` pairs with `header[c]`.
    pub cells: Vec<Vec<Option<String>>>,
}

/// One record located by [`scan_records`]: the byte range of its content
/// (record terminator excluded) and the 1-based source line its first byte
/// is on. Quoted fields may make the range span several source lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordSpan {
    /// First content byte.
    pub start: usize,
    /// One past the last content byte.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
}

/// Locates record boundaries without materializing any field: a quote-aware
/// scan that ends records at unquoted `\n`, `\r\n`, or bare `\r`. All
/// structural errors the field parser could hit (a quote opening inside a
/// non-empty unquoted field, an unterminated quoted field) are detected
/// here, at the same source line the legacy single-pass machine reported,
/// so [`visit_fields`] on a returned span cannot fail. This is the piece
/// the chunked reader parallelizes over: spans are cheap to compute
/// sequentially and parse independently.
///
/// The scan walks bytes, not chars, jumping from one structural byte to
/// the next: every structural character is ASCII, and no byte of a
/// multi-byte UTF-8 sequence is ASCII, so every boundary it finds is a
/// char boundary.
pub(crate) fn scan_records(input: &str) -> Result<Vec<RecordSpan>> {
    let bytes = input.as_bytes();
    let mut spans = Vec::new();
    let mut in_quotes = false;
    // Any content byte accumulated in the current field (quoted or not).
    let mut field_has_content = false;
    let mut field_was_quoted = false;
    // A `,` has finished at least one field in the current record.
    let mut record_has_fields = false;
    let mut record_start = 0usize;
    let mut record_line = 1usize;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        // Jump to the next byte that can change the state; everything
        // skipped is field content.
        let j = if in_quotes {
            find_any(bytes, i, [b'"', b'\n'])
        } else {
            find_any(bytes, i, [b',', b'"', b'\r', b'\n'])
        };
        field_has_content |= j > i;
        let Some(&b) = bytes.get(j) else {
            break;
        };
        i = j + 1;
        if in_quotes {
            if b == b'\n' {
                field_has_content = true;
                line += 1;
            } else if bytes.get(i) == Some(&b'"') {
                i += 1;
                field_has_content = true;
            } else {
                in_quotes = false;
            }
            continue;
        }
        match b {
            b'"' => {
                if field_has_content {
                    return Err(TabularError::Csv {
                        line,
                        message: "quote inside unquoted field".into(),
                    });
                }
                in_quotes = true;
                field_was_quoted = true;
            }
            b',' => {
                record_has_fields = true;
                field_has_content = false;
                field_was_quoted = false;
            }
            _ => {
                let end = i - 1;
                // `\r\n` is one terminator: the `\r` ends the record
                // content and the `\n` is consumed with it.
                if b == b'\r' && bytes.get(i) == Some(&b'\n') {
                    i += 1;
                }
                spans.push(RecordSpan {
                    start: record_start,
                    end,
                    line: record_line,
                });
                record_start = i;
                line += 1;
                record_line = line;
                field_has_content = false;
                field_was_quoted = false;
                record_has_fields = false;
            }
        }
    }
    if in_quotes {
        return Err(TabularError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if field_has_content || field_was_quoted || record_has_fields {
        spans.push(RecordSpan {
            start: record_start,
            end: input.len(),
            line: record_line,
        });
    }
    Ok(spans)
}

/// Index of the first byte at or after `from` that is one of `set`, or
/// `bytes.len()`. Eight bytes per step (SWAR): a byte of the word equals
/// a target exactly where `word ^ target` has a zero byte, and the lowest
/// flagged byte of the classic has-zero test is always a true zero.
fn find_any<const N: usize>(bytes: &[u8], from: usize, set: [u8; N]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut at = from;
    for chunk in bytes[from..].chunks_exact(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        let mut hits = 0u64;
        for target in set {
            let x = word ^ (LO * u64::from(target));
            hits |= x.wrapping_sub(LO) & !x & HI;
        }
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|b| set.contains(b))
        .map_or(bytes.len(), |k| at + k)
}

/// One field under assembly: a contiguous byte range of the record until
/// the content goes non-contiguous (doubled quotes, text resuming after a
/// closing quote), then an owned spill buffer.
#[derive(Default)]
struct FieldAcc {
    seg: Option<(usize, usize)>,
    owned: Option<String>,
    quoted: bool,
}

impl FieldAcc {
    fn is_empty(&self) -> bool {
        self.seg.is_none() && self.owned.is_none()
    }

    /// Appends `content[start..end]`; an empty run is a no-op.
    fn push(&mut self, content: &str, start: usize, end: usize) {
        if start == end {
            return;
        }
        if let Some(buf) = &mut self.owned {
            buf.push_str(&content[start..end]);
            return;
        }
        match &mut self.seg {
            None => self.seg = Some((start, end)),
            Some((_, seg_end)) if *seg_end == start => *seg_end = end,
            Some((seg_start, seg_end)) => {
                let mut buf = String::with_capacity(*seg_end - *seg_start + end - start);
                buf.push_str(&content[*seg_start..*seg_end]);
                buf.push_str(&content[start..end]);
                self.owned = Some(buf);
            }
        }
    }

    fn finish(self, content: &str) -> Option<Cow<'_, str>> {
        match (self.owned, self.seg) {
            (Some(buf), _) => Some(Cow::Owned(buf)),
            (None, Some((start, end))) => Some(Cow::Borrowed(&content[start..end])),
            (None, None) => self.quoted.then_some(Cow::Borrowed("")),
        }
    }
}

/// Visits the fields of one record span in order, handing `sink` each
/// field's index and value, and returns the field count. Unquoted fields
/// (and quoted fields without escaped quotes) borrow directly from
/// `input`; only fields whose content is non-contiguous in the source
/// allocate. Empty-unquoted is `None` (missing), quoted-empty is
/// `Some("")` — same semantics as the legacy machine. Like the scanner it
/// walks bytes, jumping from one structural byte to the next.
pub(crate) fn visit_fields<'a>(
    input: &'a str,
    span: RecordSpan,
    mut sink: impl FnMut(usize, Option<Cow<'a, str>>),
) -> Result<usize> {
    let content = &input[span.start..span.end];
    let bytes = content.as_bytes();
    // Spans from `scan_records` never fail below; the errors stay typed
    // for defense in depth.
    let error = |message: &str| TabularError::Csv {
        line: span.line,
        message: message.into(),
    };
    let mut count = 0usize;
    let mut i = 0usize;
    loop {
        let mut field = FieldAcc::default();
        loop {
            if bytes.get(i) == Some(&b'"') {
                if !field.is_empty() {
                    return Err(error("quote inside unquoted field"));
                }
                field.quoted = true;
                i += 1;
                loop {
                    let q = find_any(bytes, i, [b'"']);
                    if q == bytes.len() {
                        return Err(error("unterminated quoted field"));
                    }
                    if bytes.get(q + 1) == Some(&b'"') {
                        // Escaped quote: keep the first of the pair.
                        field.push(content, i, q + 1);
                        i = q + 2;
                    } else {
                        field.push(content, i, q);
                        i = q + 1;
                        break;
                    }
                }
            }
            let run_end = find_any(bytes, i, [b',', b'"']);
            field.push(content, i, run_end);
            i = run_end;
            if bytes.get(i) != Some(&b'"') {
                break;
            }
        }
        sink(count, field.finish(content));
        count += 1;
        if i >= bytes.len() {
            return Ok(count);
        }
        i += 1; // the `,`
    }
}

/// Parses one record span into its fields; see [`visit_fields`].
pub(crate) fn parse_span(input: &str, span: RecordSpan) -> Result<Vec<Option<Cow<'_, str>>>> {
    let mut record = Vec::new();
    visit_fields(input, span, |_, field| record.push(field))?;
    Ok(record)
}

/// Column-major cells: `cells[c][r]` is field `c` of record `r`.
pub(crate) type Cells<'a> = Vec<Vec<Option<Cow<'a, str>>>>;

/// Parses record spans straight into `ncols` columns, ragged-checking
/// each record. `base` is the index of the first span among all data
/// records, so errors report the line the whole-document reader would.
pub(crate) fn parse_columns<'a>(
    input: &'a str,
    spans: &[RecordSpan],
    base: usize,
    ncols: usize,
) -> Result<Cells<'a>> {
    let mut columns: Cells<'a> = (0..ncols)
        .map(|_| Vec::with_capacity(spans.len()))
        .collect();
    for (i, span) in spans.iter().enumerate() {
        let found = visit_fields(input, *span, |c, field| {
            if let Some(column) = columns.get_mut(c) {
                column.push(field);
            }
        })?;
        if found != ncols {
            return Err(ragged_row_error(base + i, ncols, found));
        }
    }
    Ok(columns)
}

/// Derives header names from the parsed header record: missing cells get
/// positional `col{i}` names.
pub(crate) fn header_names(header_row: Vec<Option<Cow<'_, str>>>) -> Vec<String> {
    header_row
        .into_iter()
        .enumerate()
        .map(|(i, h)| h.map(Cow::into_owned).unwrap_or_else(|| format!("col{i}")))
        .collect()
}

/// The ragged-row error the legacy reader raised: record index `i` (0-based
/// among data rows) reports as line `i + 2`.
pub(crate) fn ragged_row_error(index: usize, expected: usize, found: usize) -> TabularError {
    TabularError::Csv {
        line: index + 2,
        message: format!("expected {expected} fields, found {found}"),
    }
}

/// Splits a document into its header names and data-record spans.
pub(crate) fn scan_document(input: &str) -> Result<(Vec<String>, Vec<RecordSpan>)> {
    let mut spans = scan_records(input)?;
    if spans.is_empty() {
        return Err(TabularError::Empty("csv document"));
    }
    let header = header_names(parse_span(input, spans.remove(0))?);
    Ok((header, spans))
}

/// Parses a CSV document with a header row. Supports quoted fields with
/// embedded commas, newlines, and doubled quotes; `\n`, `\r\n` and bare
/// `\r` line endings are accepted.
pub fn read_csv_str(input: &str) -> Result<RawCsv> {
    let (header, spans) = scan_document(input)?;
    let mut cells = Vec::with_capacity(spans.len());
    for (i, span) in spans.into_iter().enumerate() {
        let row = parse_span(input, span)?;
        if row.len() != header.len() {
            return Err(ragged_row_error(i, header.len(), row.len()));
        }
        cells.push(row.into_iter().map(|c| c.map(Cow::into_owned)).collect());
    }
    Ok(RawCsv { header, cells })
}

/// Parses a CSV document and infers a typed [`DataFrame`] from it. Fields
/// are collected column by column and stay borrowed from `input` until
/// typed decode — no per-cell `String` is allocated for unquoted fields.
pub fn read_frame(input: &str) -> Result<DataFrame> {
    let (header, spans) = scan_document(input)?;
    let columns = parse_columns(input, &spans, 0, header.len())?;
    let mut frame = DataFrame::new();
    for (c, (name, cells)) in header.into_iter().zip(columns).enumerate() {
        let values: Vec<Option<&str>> = cells.iter().map(|cell| cell.as_deref()).collect();
        let column = infer_column(&values);
        frame.push(unique_name(frame.names(), name, c), column)?;
    }
    Ok(frame)
}

/// Duplicate headers get positional suffixes rather than failing; keep
/// extending until unique (a file may already contain `a.1`).
pub(crate) fn unique_name(taken: &[String], mut name: String, c: usize) -> String {
    while taken.contains(&name) {
        name = format!("{name}.{c}");
    }
    name
}

/// Serializes a frame to CSV with a header row. Missing cells render empty;
/// fields containing commas, quotes or newlines are quoted.
pub fn write_csv(frame: &DataFrame) -> String {
    fn escape(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &frame
            .names()
            .iter()
            .map(|n| escape(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in 0..frame.num_rows() {
        let row: Vec<String> = frame
            .columns()
            .iter()
            .map(|c| c.as_string(r).map(|s| escape(&s)).unwrap_or_default())
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnKind;

    #[test]
    fn parses_simple_document() {
        let raw = read_csv_str("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(raw.header, vec!["a", "b"]);
        assert_eq!(raw.cells.len(), 2);
        assert_eq!(raw.cells[1][0].as_deref(), Some("3"));
    }

    #[test]
    fn handles_quotes_commas_and_embedded_newlines() {
        let raw = read_csv_str("t\n\"a, b\"\n\"line1\nline2\"\n\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(raw.cells[0][0].as_deref(), Some("a, b"));
        assert_eq!(raw.cells[1][0].as_deref(), Some("line1\nline2"));
        assert_eq!(raw.cells[2][0].as_deref(), Some("he said \"hi\""));
    }

    #[test]
    fn empty_unquoted_cell_is_missing_but_quoted_empty_is_not() {
        let raw = read_csv_str("a,b\n,\"\"\n").unwrap();
        assert_eq!(raw.cells[0][0], None);
        assert_eq!(raw.cells[0][1].as_deref(), Some(""));
    }

    #[test]
    fn crlf_line_endings() {
        let raw = read_csv_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(raw.cells.len(), 1);
        assert_eq!(raw.cells[0][1].as_deref(), Some("2"));
    }

    #[test]
    fn missing_trailing_newline_is_fine() {
        let raw = read_csv_str("a\n1").unwrap();
        assert_eq!(raw.cells.len(), 1);
    }

    #[test]
    fn ragged_rows_error_with_line_number() {
        let err = read_csv_str("a,b\n1\n").unwrap_err();
        assert!(matches!(err, TabularError::Csv { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(matches!(
            read_csv_str("a\n\"oops\n"),
            Err(TabularError::Csv { .. })
        ));
    }

    #[test]
    fn read_frame_infers_types() {
        let f = read_frame("x,city,essay\n1.5,paris,hello there friend\n2.5,lyon,more words here\n3.5,paris,lots of unique text\n").unwrap();
        assert_eq!(f.column("x").unwrap().kind(), ColumnKind::Numeric);
        assert_eq!(f.column("city").unwrap().kind(), ColumnKind::Categorical);
    }

    #[test]
    fn roundtrip_preserves_cells() {
        let input = "a,b\n1,hello\n2,\"x,y\"\n";
        let f = read_frame(input).unwrap();
        let out = write_csv(&f);
        let f2 = read_frame(&out).unwrap();
        assert_eq!(f2.num_rows(), f.num_rows());
        assert_eq!(
            f2.column("b").unwrap().as_string(1),
            f.column("b").unwrap().as_string(1)
        );
    }

    #[test]
    fn duplicate_headers_get_suffixes() {
        let f = read_frame("a,a\n1,2\n").unwrap();
        assert_eq!(f.names(), &["a".to_string(), "a.1".to_string()]);
    }

    #[test]
    fn borrowed_cells_for_unquoted_fields() {
        let input = "a,b\nplain,\"quo,ted\"\n\"he said \"\"hi\"\"\",tail\n";
        let spans = scan_records(input).unwrap();
        assert_eq!(spans.len(), 3);
        let row1 = parse_span(input, spans[1]).unwrap();
        assert!(matches!(row1[0], Some(Cow::Borrowed("plain"))));
        assert!(matches!(row1[1], Some(Cow::Borrowed("quo,ted"))));
        let row2 = parse_span(input, spans[2]).unwrap();
        // Doubled quotes force an owned spill; the value is unchanged.
        assert_eq!(row2[0].as_deref(), Some("he said \"hi\""));
        assert!(matches!(row2[0], Some(Cow::Owned(_))));
        assert!(matches!(row2[1], Some(Cow::Borrowed("tail"))));
    }

    #[test]
    fn scanner_matches_machine_on_bare_cr_and_blank_lines() {
        // Bare \r ends a record; "\r\n" is one terminator; a lone "\n"
        // yields a single missing field (the legacy machine's behavior).
        let raw = read_csv_str("a\rx\r\ny\n").unwrap();
        assert_eq!(raw.header, vec!["a"]);
        assert_eq!(raw.cells.len(), 2);
        assert_eq!(raw.cells[0][0].as_deref(), Some("x"));
        let raw2 = read_csv_str("\n\n").unwrap();
        assert_eq!(raw2.header, vec!["col0"]);
        assert_eq!(raw2.cells.len(), 1);
        assert_eq!(raw2.cells[0][0], None);
    }

    #[test]
    fn text_after_closing_quote_joins_field() {
        let raw = read_csv_str("a\n\"x\"y\n").unwrap();
        assert_eq!(raw.cells[0][0].as_deref(), Some("xy"));
        // ...but a quote opening after content is still an error.
        let err = read_csv_str("a\nx\"y\"\n").unwrap_err();
        assert!(matches!(err, TabularError::Csv { line: 2, .. }));
    }

    #[test]
    fn duplicate_headers_survive_existing_suffix_collisions() {
        // `a.1` already exists; the dedup of the second `a` must not
        // collide with it.
        let f = read_frame("a,a.1,a\n1,2,3\n").unwrap();
        assert_eq!(f.num_columns(), 3);
        let mut names = f.names().to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3);
    }
}
