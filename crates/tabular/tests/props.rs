//! Property-based tests for the tabular substrate.

use kgpip_tabular::{
    infer_column, kfold, stratified_kfold, Column, ColumnStats, DataFrame, Dataset, Task,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Type inference must be total over arbitrary cell content.
    #[test]
    fn infer_column_never_panics(cells in proptest::collection::vec(
        proptest::option::of("[ -~]{0,24}"), 0..50
    )) {
        let refs: Vec<Option<&str>> = cells.iter().map(|c| c.as_deref()).collect();
        let col = infer_column(&refs);
        prop_assert_eq!(col.len(), cells.len());
        // Missing count can only grow (markers become missing).
        let explicit_missing = cells.iter().filter(|c| c.is_none()).count();
        prop_assert!(col.missing_count() >= explicit_missing);
    }

    /// take() then take() composes like a single index composition.
    #[test]
    fn take_composes(
        values in proptest::collection::vec(-1e9f64..1e9, 3..40),
        picks in proptest::collection::vec(0usize..3, 1..10),
    ) {
        let col = Column::from_f64(values.clone());
        let first: Vec<usize> = (0..values.len()).rev().collect();
        let a = col.take(&first);
        let picks: Vec<usize> = picks.iter().map(|p| p % values.len()).collect();
        let b = a.take(&picks);
        let direct: Vec<usize> = picks.iter().map(|&p| first[p]).collect();
        let c = col.take(&direct);
        for i in 0..picks.len() {
            prop_assert_eq!(b.as_f64(i), c.as_f64(i));
        }
    }

    /// Every fold of kfold partitions the row set exactly.
    #[test]
    fn kfold_is_a_partition(n in 4usize..200, k in 2usize..6, seed in 0u64..50) {
        prop_assume!(k <= n);
        let folds = kfold(n, k, seed).unwrap();
        let mut seen = vec![0usize; n];
        for (train, val) in &folds {
            for &i in val {
                seen[i] += 1;
            }
            // Train and validation are disjoint and cover everything.
            let mut all: Vec<usize> = train.iter().chain(val.iter()).copied().collect();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), n);
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "each row validates exactly once");
    }

    /// Stratified folds keep every class's count within ±1 of ideal.
    #[test]
    fn stratified_kfold_balances_classes(
        class_sizes in proptest::collection::vec(4usize..30, 2..4),
        seed in 0u64..20,
    ) {
        let mut targets = Vec::new();
        for (c, &size) in class_sizes.iter().enumerate() {
            targets.extend(std::iter::repeat_n(c as f64, size));
        }
        let k = 3usize;
        let folds = stratified_kfold(&targets, k, seed).unwrap();
        for (_, val) in &folds {
            for (c, &size) in class_sizes.iter().enumerate() {
                let count = val.iter().filter(|&&i| targets[i] == c as f64).count();
                let ideal = size as f64 / k as f64;
                prop_assert!(
                    (count as f64 - ideal).abs() <= 1.0,
                    "class {c}: {count} in fold vs ideal {ideal}"
                );
            }
        }
    }

    /// Column statistics quantiles are sorted and bounded by min/max.
    #[test]
    fn stats_quantiles_are_monotone(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let stats = ColumnStats::compute(&Column::from_f64(values));
        for w in stats.quantiles.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert!(stats.min <= stats.quantiles[0]);
        prop_assert!(stats.quantiles[4] <= stats.max);
        prop_assert!(stats.std >= 0.0);
    }

    /// Dataset::take preserves the task and class labels.
    #[test]
    fn dataset_take_preserves_metadata(
        n in 4usize..50,
        picks in proptest::collection::vec(0usize..4, 1..8),
    ) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let f = DataFrame::from_columns(vec![("x".to_string(), Column::from_f64(x))]).unwrap();
        let ds = Dataset::new("p", f, y.clone(), Task::MultiClass(3)).unwrap();
        let picks: Vec<usize> = picks.iter().map(|p| p % n).collect();
        let sub = ds.take(&picks);
        prop_assert_eq!(sub.task, ds.task);
        prop_assert_eq!(sub.num_rows(), picks.len());
        for (j, &i) in picks.iter().enumerate() {
            prop_assert_eq!(sub.target[j], y[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// The parse-once ingest helpers against their previous definitions
// ---------------------------------------------------------------------------

/// The definitions the parse-once ingest replaced, kept verbatim in
/// behaviour as test oracles: a lowercased copy per marker check, a
/// marker pre-check before every parse, up to three parses per numeric
/// cell, and a char-by-char CSV machine.
mod oracle {
    use kgpip_tabular::{Column, DataFrame};

    pub fn is_missing_marker(s: &str) -> bool {
        matches!(
            s.trim().to_ascii_lowercase().as_str(),
            "" | "na" | "n/a" | "null" | "nan" | "?"
        )
    }

    pub fn parse_number(s: &str) -> Option<f64> {
        if is_missing_marker(s) {
            return None;
        }
        s.trim().parse::<f64>().ok().filter(|x| x.is_finite())
    }

    pub fn infer_column(values: &[Option<&str>]) -> Column {
        let present: Vec<&str> = values.iter().filter_map(|v| *v).collect();
        if present.is_empty() {
            return Column::numeric(values.iter().map(|_| None));
        }
        let all_numeric = present
            .iter()
            .all(|s| parse_number(s).is_some() || is_missing_marker(s))
            && present.iter().any(|s| parse_number(s).is_some());
        if all_numeric {
            return Column::numeric(values.iter().map(|v| v.and_then(parse_number)));
        }
        let mut distinct: Vec<&str> = present.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let distinct_ratio = distinct.len() as f64 / present.len() as f64;
        let mean_tokens = present
            .iter()
            .map(|s| s.split_whitespace().count())
            .sum::<usize>() as f64
            / present.len() as f64;
        let is_text = mean_tokens > 4.0 || (distinct.len() > 128 && distinct_ratio > 0.5);
        if is_text {
            Column::text(values.iter().map(|v| v.map(str::to_string)))
        } else {
            Column::categorical(values.iter().copied())
        }
    }

    /// Header plus records, or the error message.
    pub type Parsed = (Vec<String>, Vec<Vec<Option<String>>>);

    /// The single-pass char machine: quotes double to escape, `\r\n`,
    /// `\n` and bare `\r` end records, unquoted-empty is missing,
    /// quoted-empty is `""`. Structural errors over the whole document
    /// come before ragged-row errors.
    pub fn read_csv(input: &str) -> Result<Parsed, String> {
        let mut records: Vec<Vec<Option<String>>> = Vec::new();
        let mut record: Vec<Option<String>> = Vec::new();
        let mut field = String::new();
        let (mut has_content, mut quoted, mut in_quotes) = (false, false, false);
        let mut line = 1usize;
        let mut chars = input.chars().peekable();
        let finish = |field: &mut String, has: &mut bool, quoted: &mut bool| {
            let value = (*has || *quoted).then(|| std::mem::take(field));
            *has = false;
            *quoted = false;
            value
        };
        while let Some(ch) = chars.next() {
            if in_quotes {
                match ch {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                        has_content = true;
                    }
                    '"' => in_quotes = false,
                    c => {
                        line += usize::from(c == '\n');
                        field.push(c);
                        has_content = true;
                    }
                }
                continue;
            }
            match ch {
                '"' if has_content => {
                    return Err(format!(
                        "csv parse error, line {line}: quote inside unquoted field"
                    ))
                }
                '"' => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => record.push(finish(&mut field, &mut has_content, &mut quoted)),
                '\r' if chars.peek() == Some(&'\n') => {}
                '\r' | '\n' => {
                    record.push(finish(&mut field, &mut has_content, &mut quoted));
                    records.push(std::mem::take(&mut record));
                    line += 1;
                }
                c => {
                    field.push(c);
                    has_content = true;
                }
            }
        }
        if in_quotes {
            return Err(format!(
                "csv parse error, line {line}: unterminated quoted field"
            ));
        }
        if has_content || quoted || !record.is_empty() {
            record.push(finish(&mut field, &mut has_content, &mut quoted));
            records.push(record);
        }
        if records.is_empty() {
            return Err("csv document must be non-empty".into());
        }
        let header: Vec<String> = records
            .remove(0)
            .into_iter()
            .enumerate()
            .map(|(i, h)| h.unwrap_or_else(|| format!("col{i}")))
            .collect();
        for (i, row) in records.iter().enumerate() {
            if row.len() != header.len() {
                return Err(format!(
                    "csv parse error, line {}: expected {} fields, found {}",
                    i + 2,
                    header.len(),
                    row.len()
                ));
            }
        }
        Ok((header, records))
    }

    /// `read_frame` from the oracle parser and oracle inference.
    pub fn read_frame(input: &str) -> Result<DataFrame, String> {
        let (header, rows) = read_csv(input)?;
        let mut frame = DataFrame::new();
        for (c, base) in header.into_iter().enumerate() {
            let values: Vec<Option<&str>> = rows.iter().map(|r| r[c].as_deref()).collect();
            let mut name = base;
            while frame.names().contains(&name) {
                name = format!("{name}.{c}");
            }
            frame
                .push(name, infer_column(&values))
                .map_err(|e| e.to_string())?;
        }
        Ok(frame)
    }
}

/// Columns equal to the bit (`PartialEq` would let `-0.0 == 0.0`).
fn same_column(a: &Column, b: &Column) -> bool {
    match (a, b) {
        (Column::Numeric(x), Column::Numeric(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.map(f64::to_bits) == q.map(f64::to_bits))
        }
        _ => a == b,
    }
}

/// Markers in random ASCII case (bit `i` of `mask` upper-cases char `i`).
const MARKERS: [&str; 10] = [
    "na",
    "n/a",
    "null",
    "nan",
    "?",
    "",
    "inf",
    "-infinity",
    "nAn",
    "x",
];

/// Repeated phrases whose token counts straddle the text threshold.
const PROSE: [&str; 4] = ["a b c d e f", "one two", "x y z w v u t", "solo"];

/// A cell: a marker, a number, arbitrary short Unicode text (letters
/// whose lowercase changes length, non-ASCII whitespace) or a repeated
/// phrase, padded with ASCII and Unicode whitespace. `kinds` picks among
/// them in that order: `0..2` draws only markers and numbers (an exponent
/// is attached to one number in three), `3..4` only phrases.
fn cell(kinds: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    (
        (kinds, 0usize..MARKERS.len(), 0u32..1024),
        "[ \t\u{a0}\u{2003}]{0,2}",
        (
            "[+-]{0,1}[0-9]{1,4}[.]{0,1}[0-9]{0,3}",
            0usize..3,
            "[eE][+-]{0,1}[0-9]{1,2}",
        ),
        "[a-zA-Z İıßΣσςK\u{212a}Ⱥé東\u{85}\u{3000}]{0,10}",
        "[ \t\u{a0}\u{2003}]{0,2}",
    )
        .prop_map(
            |((pick, m, mask), lead, (mantissa, exp_pick, exp), text, trail)| {
                let number = if exp_pick == 0 {
                    mantissa + &exp
                } else {
                    mantissa
                };
                let core = match pick {
                    0 => MARKERS[m]
                        .chars()
                        .enumerate()
                        .map(|(i, c)| {
                            if mask >> i & 1 == 1 {
                                c.to_ascii_uppercase()
                            } else {
                                c
                            }
                        })
                        .collect(),
                    1 => number,
                    2 => text,
                    _ => PROSE[m % PROSE.len()].to_string(),
                };
                format!("{lead}{core}{trail}")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The allocation-free marker check and the single-parse number
    /// decode agree with their previous definitions on every cell.
    #[test]
    fn cell_helpers_match_previous_definitions(s in cell(0..4)) {
        prop_assert_eq!(
            kgpip_tabular::infer::is_missing_marker(&s),
            oracle::is_missing_marker(&s),
            "{:?}", s
        );
        prop_assert_eq!(
            kgpip_tabular::infer::parse_number(&s).map(f64::to_bits),
            oracle::parse_number(&s).map(f64::to_bits),
            "{:?}", s
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-pass inference builds the same column as the three-parse
    /// definition, on numeric-leaning, phrase-only and mixed columns (up
    /// to 300 cells, so the cardinality rule for text is reached).
    #[test]
    fn infer_column_matches_previous_definition(
        numeric_like in proptest::collection::vec(proptest::option::of(cell(0..2)), 0..60),
        phrases in proptest::collection::vec(proptest::option::of(cell(3..4)), 0..20),
        mixed in proptest::collection::vec(proptest::option::of(cell(0..4)), 0..300),
    ) {
        for cells in [&numeric_like, &phrases, &mixed] {
            let refs: Vec<Option<&str>> = cells.iter().map(|c| c.as_deref()).collect();
            let got = infer_column(&refs);
            let want = oracle::infer_column(&refs);
            prop_assert!(same_column(&got, &want), "{:?}\n{:?}\nvs {:?}", refs, got, want);
        }
    }

    /// The byte-level record scanner and field visitor parse every
    /// document like the char-by-char machine, error messages included,
    /// and the column-major `read_frame` builds the same frame.
    #[test]
    fn csv_readers_match_the_char_machine(
        text in "[ab,\"\r\n é\u{130}]{0,48}",
        numbers in proptest::collection::vec(cell(0..2), 0..6),
    ) {
        // Splice number-like cells in so numeric columns occur too.
        let mut doc = text.clone();
        for (i, n) in numbers.iter().enumerate() {
            let at = (i * 7).min(doc.len());
            if doc.is_char_boundary(at) {
                doc.insert_str(at, n);
            }
        }
        let got = kgpip_tabular::csv::read_csv_str(&doc)
            .map(|raw| (raw.header, raw.cells))
            .map_err(|e| e.to_string());
        prop_assert_eq!(&got, &oracle::read_csv(&doc), "{:?}", doc);
        let frame = kgpip_tabular::csv::read_frame(&doc).map(|f| f.fingerprint());
        let want = oracle::read_frame(&doc).map(|f| f.fingerprint());
        prop_assert_eq!(frame.map_err(|e| e.to_string()), want, "{:?}", doc);
    }
}
