//! Golden fixture for the cold-CSV path: CSV bytes → typed frame →
//! column statistics → 48-float table embedding.
//!
//! The fixture (`tests/fixtures/golden_ingest.txt`) pins, for a handful of
//! generated documents, the `read_frame` and `read_chunked` fingerprints
//! (or their error strings), the bits of every `ColumnStats` field on the
//! in-memory and streamed paths, and the bits of `table_embedding` and
//! `table_embedding_chunked` with and without row sampling. It was
//! recorded before the ingest and embedding code was rewritten for speed,
//! so any change to what that path computes fails here, independently of
//! the in-crate equivalence tests.
//!
//! The documents cover quoted fields with commas, newlines and doubled
//! quotes; LF, CRLF and bare-CR line endings; non-ASCII text whose
//! lowercase form has a different byte length; mixed-case and padded
//! missing markers; all-missing and all-marker columns; a numeric column
//! with one non-number; a high-cardinality id column; and documents
//! above the small sample bound.

use kgpip_embeddings::{table_embedding, table_embedding_chunked};
use kgpip_tabular::csv::read_frame;
use kgpip_tabular::{read_chunked, ChunkedFrame, ChunkedReadOptions, ColumnStats};

/// Where the golden lines live.
const GOLDEN_PATH: &str = "tests/fixtures/golden_ingest.txt";
/// A bound no document reaches: the sample is every row.
const FULL_BOUND: usize = 1_000_000;
/// A bound most documents exceed: the sampled path.
const SMALL_BOUND: usize = 16;
/// Sampling seed for both bounds.
const SEED: u64 = 7;

/// SplitMix64: a self-contained generator so the documents never depend
/// on another crate's stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const WORDS: [&str; 12] = [
    "alpha", "Beta", "GAMMA", "delta", "the", "quick", "Brown", "fox", "jumps", "over", "lazy",
    "dog",
];

/// `n` random words joined by single spaces.
fn sentence(rng: &mut Mix, n: usize) -> String {
    (0..n)
        .map(|_| rng.pick(&WORDS))
        .collect::<Vec<_>>()
        .join(" ")
}

/// RFC-4180 quoting.
fn quote(cell: &str) -> String {
    format!("\"{}\"", cell.replace('"', "\"\""))
}

/// Joins header and rows with `eol` after every record.
fn join(header: &str, rows: &[Vec<String>], eol: &str) -> String {
    let mut text = String::from(header);
    text.push_str(eol);
    for row in rows {
        text.push_str(&row.join(","));
        text.push_str(eol);
    }
    text
}

/// Mixed numeric / categorical / text rows whose quoted cells carry
/// commas, doubled quotes and embedded line breaks (`inner_eol`).
fn quoted_rows(rng: &mut Mix, rows: usize, inner_eol: &str) -> Vec<Vec<String>> {
    let labels = ["red", "green, blue", "say \"hi\"", "plain", "x\"y"];
    (0..rows)
        .map(|i| {
            let price = if i % 5 == 0 {
                quote(&format!("{:.3}", rng.unit() * 100.0))
            } else {
                format!("{:.4}", rng.unit() * 1000.0 - 500.0)
            };
            let label = rng.pick(&labels);
            let label = if label.contains(',') || label.contains('"') || i % 4 == 0 {
                quote(label)
            } else {
                label.to_string()
            };
            let n = 3 + rng.below(6);
            let note = if i % 3 == 0 {
                quote(&format!(
                    "{}{inner_eol}{}, \"{}\"",
                    sentence(rng, n),
                    sentence(rng, 2),
                    rng.pick(&WORDS)
                ))
            } else {
                sentence(rng, n)
            };
            let flag = if rng.below(2) == 0 { "yes" } else { "no" };
            vec![i.to_string(), price, label, note, flag.to_string()]
        })
        .collect()
}

/// Non-ASCII labels and prose: `İ` lowercases to two chars, `Ⱥ` grows by
/// a byte, the Kelvin sign shrinks to ASCII `k`, and a word-final `Σ`
/// lowercases to `ς`. Numbers are padded with Unicode whitespace.
fn unicode_rows(rng: &mut Mix, rows: usize) -> Vec<Vec<String>> {
    let cities = [
        "İstanbul",
        "ANKARA",
        "Ⱥrles",
        "\u{212A}elvin",
        "ΣΟΦΙΑΣ",
        "Straße",
        "Zürich",
        "東京",
        "ok",
    ];
    let prose = [
        "İSTANBUL ist eine große Stadt am Bosporus",
        "ΟΔΟΣ ΣΟΦΙΑΣ και ΟΔΥΣΣΕΑΣ στην Αθήνα σήμερα",
        "Ⱥ \u{212A} İ ǅ ﬃ mixed letters in a row here",
        "plain ascii words make up this line too",
        "東京 と 大阪 の 天気 は 晴れ です",
    ];
    (0..rows)
        .map(|_| {
            let x = format!("\u{2003}{:.2}\u{00A0}", rng.unit() * 10.0);
            vec![
                rng.pick(&cities).to_string(),
                quote(rng.pick(&prose)),
                x,
                rng.pick(&["a", "İ", "ǅ"]).to_string(),
            ]
        })
        .collect()
}

/// Missing markers in every spelling the reader knows, mixed into a
/// numeric column, a categorical column and an all-marker column; plus
/// a numeric column broken by one `inf`.
fn marker_rows(rng: &mut Mix, rows: usize) -> Vec<Vec<String>> {
    let markers = [
        "NA", " n/A ", "NULL", "?", "nan", "NaN", " NAN ", "null", "N/a", "  ", "",
    ];
    (0..rows)
        .map(|i| {
            let value = if i % 3 == 0 {
                rng.pick(&markers).to_string()
            } else {
                format!("{}", rng.below(1000) as f64 / 8.0)
            };
            let category = if i % 4 == 0 {
                rng.pick(&markers).to_string()
            } else {
                rng.pick(&["low", "MID", "High"]).to_string()
            };
            let only_markers = rng.pick(&markers[..9]).to_string();
            let broken = if i == rows / 2 {
                "inf".to_string()
            } else {
                format!("{:.1}", rng.unit() * 3.0)
            };
            vec![value, category, only_markers, broken]
        })
        .collect()
}

/// An all-missing column, a quoted-empty column, a column with one
/// non-number, a constant, a high-cardinality id column and integer
/// labels; header names collide.
fn degenerate_rows(rng: &mut Mix, rows: usize) -> Vec<Vec<String>> {
    (0..rows)
        .map(|i| {
            let one_bad = if i == 17 {
                "abc".to_string()
            } else {
                format!("{:.3}", rng.unit())
            };
            vec![
                String::new(),
                "\"\"".to_string(),
                one_bad,
                "4.25".to_string(),
                format!("id_{}", rng.below(rows * 4)),
                (i % 3).to_string(),
            ]
        })
        .collect()
}

/// A larger mixed document: the sampled path dominates.
fn large_rows(rng: &mut Mix, rows: usize) -> Vec<Vec<String>> {
    (0..rows)
        .map(|i| {
            let miss = rng.below(50) == 0;
            let a = if miss {
                String::new()
            } else {
                format!("{:.5}", rng.unit() * 2.0 - 1.0)
            };
            let b = format!("{}", (rng.unit() * 1e6).round() / 100.0);
            let cat = rng
                .pick(&["north", "South", "EAST", "west", "İzmir"])
                .to_string();
            let n = 2 + rng.below(8);
            let text = sentence(rng, n);
            let big = format!("{:e}", rng.unit() * 1e12);
            vec![a, b, cat, text, big, (i % 7).to_string()]
        })
        .collect()
}

/// The golden documents, by name.
fn documents() -> Vec<(&'static str, String)> {
    let mut rng = Mix(0x5eed);
    let header5 = "id,price,label,note,flag";
    let quoted_lf = join(header5, &quoted_rows(&mut rng, 40, "\n"), "\n");
    let quoted_crlf = join(header5, &quoted_rows(&mut rng, 33, "\r\n"), "\r\n");
    let quoted_cr = join(header5, &quoted_rows(&mut rng, 29, "\r"), "\r");
    let unicode = join("city,prose,padded,tiny", &unicode_rows(&mut rng, 60), "\n");
    let markers = join(
        "value,category,only_markers,broken",
        &marker_rows(&mut rng, 90),
        "\n",
    );
    let degenerate = join(
        "empty,quoted_empty,one_bad,const,empty.1,empty",
        &degenerate_rows(&mut rng, 300),
        "\n",
    );
    // No trailing record terminator on this one.
    let mut large = join("a,b,cat,text,big,label", &large_rows(&mut rng, 3000), "\n");
    large.pop();
    vec![
        ("quoted_lf", quoted_lf),
        ("quoted_crlf", quoted_crlf),
        ("quoted_cr", quoted_cr),
        ("unicode", unicode),
        ("markers", markers),
        ("degenerate", degenerate),
        ("large", large),
        ("header_only", "a,b,c\n".to_string()),
        ("ragged", "a,b\n1,2\n3\n".to_string()),
        ("unterminated", "a,b\n1,\"open\n2,3\n".to_string()),
        ("stray_quote", "a,b\n1,x\"y\"\n".to_string()),
        ("empty", String::new()),
    ]
}

/// Every chunked-reader configuration the fixture must hold under.
fn chunk_options() -> Vec<ChunkedReadOptions> {
    let mut out = Vec::new();
    for chunk_rows in [1usize, 7, 64, 8192] {
        for parallelism in [1usize, 2] {
            for bounded_memory in [false, true] {
                out.push(ChunkedReadOptions {
                    chunk_rows,
                    parallelism,
                    bounded_memory,
                });
            }
        }
    }
    out
}

fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Every `ColumnStats` field that has a reader, as exact bits.
fn stats_line(s: &ColumnStats) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}",
        s.kind,
        s.len,
        s.missing,
        s.cardinality,
        bits(&[
            s.mean,
            s.std,
            s.min,
            s.max,
            s.skewness,
            s.kurtosis,
            s.mean_tokens
        ]),
        bits(&s.quantiles)
    )
}

/// Lines of one chunked frame: fingerprint, streamed stats at both
/// sample sizes, and the chunked embedding at both bounds.
fn chunked_lines(doc: &str, cf: &ChunkedFrame) -> Vec<String> {
    let mut lines = vec![format!(
        "{doc}\tread_chunked\t{:016x}",
        cf.to_frame()
            .expect("chunked frame assembles")
            .fingerprint()
    )];
    let full = cf.sample(FULL_BOUND, SEED);
    let small = cf.sample(SMALL_BOUND, SEED);
    for c in 0..cf.num_columns() {
        lines.push(format!(
            "{doc}\tstats_streamed_full\t{c}\t{}",
            stats_line(&cf.column_stats_sampled(c, &full))
        ));
        lines.push(format!(
            "{doc}\tstats_streamed_sampled\t{c}\t{}",
            stats_line(&cf.column_stats_sampled(c, &small))
        ));
    }
    lines.push(format!(
        "{doc}\ttable_embedding_chunked_full\t{}",
        bits(&table_embedding_chunked(cf, FULL_BOUND, SEED))
    ));
    lines.push(format!(
        "{doc}\ttable_embedding_chunked_sampled\t{}",
        bits(&table_embedding_chunked(cf, SMALL_BOUND, SEED))
    ));
    lines
}

/// The golden lines of one document under one chunked-reader
/// configuration.
fn document_lines(doc: &str, text: &str, opts: &ChunkedReadOptions) -> Vec<String> {
    let mut lines = Vec::new();
    match read_frame(text) {
        Ok(frame) => {
            lines.push(format!("{doc}\tread_frame\t{:016x}", frame.fingerprint()));
            for (c, column) in frame.columns().iter().enumerate() {
                lines.push(format!(
                    "{doc}\tstats\t{c}\t{}",
                    stats_line(&ColumnStats::compute(column))
                ));
            }
            lines.push(format!(
                "{doc}\ttable_embedding\t{}",
                bits(&table_embedding(&frame))
            ));
        }
        Err(e) => lines.push(format!("{doc}\tread_frame\terror {:?}", e.to_string())),
    }
    match read_chunked(text, opts) {
        Ok(cf) => lines.extend(chunked_lines(doc, &cf)),
        Err(e) => lines.push(format!("{doc}\tread_chunked\terror {:?}", e.to_string())),
    }
    lines
}

fn golden_lines(opts: &ChunkedReadOptions) -> Vec<String> {
    documents()
        .iter()
        .flat_map(|(doc, text)| document_lines(doc, text, opts))
        .collect()
}

fn golden_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

/// Rewrites the golden fixture from the current build. Run it only on a
/// commit whose ingest and embedding answers are the reference:
/// `cargo test -p kgpip-embeddings --test ingest_golden -- --ignored record_golden_fixture`.
#[test]
#[ignore = "rewrites the golden fixture; run by hand on the reference commit"]
fn record_golden_fixture() {
    let lines = golden_lines(&ChunkedReadOptions::default());
    let path = golden_fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write golden fixture");
}

/// Frames, statistics and embeddings equal the golden fixture under
/// every chunk size × worker count × memory mode.
#[test]
fn ingest_and_embedding_match_golden_fixture() {
    let expected = std::fs::read_to_string(golden_fixture_path()).expect("golden fixture exists");
    let expected: Vec<&str> = expected.lines().collect();
    for opts in chunk_options() {
        let got = golden_lines(&opts);
        assert_eq!(got.len(), expected.len(), "line count under {opts:?}");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g, e, "golden mismatch under {opts:?}");
        }
    }
}
