//! Column-type and task-type inference.
//!
//! Paper §3.6: KGpip "applies different pre-processing techniques", among
//! them "1) detecting task type (i.e. regression or classification)
//! automatically based on the distribution of the target column 2)
//! automatically inferring accurate data types of columns". This module
//! implements both inferences over raw string cells / typed columns.

use crate::column::{Column, ColumnKind};
use crate::dataset::Task;
use std::collections::HashMap;
use std::sync::Arc;

/// Fraction of distinct values below which a string column is treated as
/// categorical rather than free text.
const CATEGORICAL_DISTINCT_RATIO: f64 = 0.5;
/// Absolute distinct-count cap for categorical treatment regardless of size.
const CATEGORICAL_MAX_DISTINCT: usize = 128;
/// Mean token count above which a string column is treated as text even if
/// its cardinality is low.
const TEXT_MEAN_TOKENS: f64 = 4.0;

/// The kind a column that is not numeric takes, from three counts: its
/// present (non-missing) cells, their distinct values, and their summed
/// whitespace-token counts. Both CSV readers decide through this one rule:
/// the column is text when it "reads like prose" (mean token count above
/// [`TEXT_MEAN_TOKENS`]) or has high cardinality; otherwise categorical.
/// `present` must be non-zero.
pub(crate) fn string_kind(present: usize, distinct: usize, token_sum: usize) -> ColumnKind {
    let distinct_ratio = distinct as f64 / present as f64;
    let mean_tokens = token_sum as f64 / present as f64;
    if mean_tokens > TEXT_MEAN_TOKENS
        || (distinct > CATEGORICAL_MAX_DISTINCT && distinct_ratio > CATEGORICAL_DISTINCT_RATIO)
    {
        ColumnKind::Text
    } else {
        ColumnKind::Categorical
    }
}

/// Infers a typed [`Column`] from raw string cells (`None` = missing).
///
/// Heuristics, mirroring the behaviour of pandas-style readers plus KGpip's
/// categorical/text split:
/// 1. if every non-missing cell parses as a number or is a missing marker,
///    and at least one is a number (or every cell is missing) → numeric;
/// 2. else [`string_kind`] splits text from categorical.
///
/// Each cell is parsed once: the numeric check decodes as it goes and
/// stops at the first cell that is neither a number nor a marker. A
/// non-numeric column is dictionary-encoded in one hashing pass, which
/// yields both the counts the classifier needs and, for a categorical
/// column, the column itself.
pub fn infer_column(values: &[Option<&str>]) -> Column {
    if let Some(decoded) = decode_numeric(values.iter().copied()) {
        if decoded.is_numeric() {
            return Column::Numeric(decoded.values);
        }
    }
    let encoded = encode(values.iter().copied());
    match string_kind(encoded.present, encoded.first_rows.len(), encoded.token_sum) {
        ColumnKind::Text => Column::text(values.iter().map(|v| v.map(str::to_string))),
        _ => Column::Categorical {
            dictionary: Arc::new(
                encoded
                    .first_rows
                    .iter()
                    .map(|&r| values[r].unwrap_or_default().to_string())
                    .collect(),
            ),
            codes: encoded.codes,
        },
    }
}

/// The numeric decode of a run of cells whose every present cell is a
/// number or a missing marker.
pub(crate) struct NumericDecode {
    /// Per-row values; markers and missing cells are `None`.
    pub values: Vec<Option<f64>>,
    /// Present (non-missing) cells.
    pub present: usize,
    /// Whether at least one present cell is a number.
    pub any_real: bool,
}

impl NumericDecode {
    /// The numeric rule once every cell of a column is decoded: at least
    /// one number, or nothing present at all (numeric is the cheapest kind
    /// to impute).
    pub fn is_numeric(&self) -> bool {
        self.any_real || self.present == 0
    }
}

/// Decodes cells as numbers, one parse each; `None` as soon as a present
/// cell is neither a number nor a missing marker.
pub(crate) fn decode_numeric<'s>(
    cells: impl ExactSizeIterator<Item = Option<&'s str>>,
) -> Option<NumericDecode> {
    let mut decoded = NumericDecode {
        values: Vec::with_capacity(cells.len()),
        present: 0,
        any_real: false,
    };
    for cell in cells {
        let x = match cell {
            None => None,
            Some(s) => {
                decoded.present += 1;
                let x = numeric_cell(s)?;
                decoded.any_real |= x.is_some();
                x
            }
        };
        decoded.values.push(x);
    }
    Some(decoded)
}

/// First-appearance dictionary encoding of string cells: the single pass
/// both readers classify a non-numeric column from.
pub(crate) struct Encoding {
    /// Per-row code into the distinct values; `None` = missing.
    pub codes: Vec<Option<u32>>,
    /// Row of each distinct value's first appearance, in code order.
    pub first_rows: Vec<usize>,
    /// Present (non-missing) cells.
    pub present: usize,
    /// Whitespace tokens summed over present cells (counted once per
    /// distinct value, times its multiplicity).
    pub token_sum: usize,
}

pub(crate) fn encode<'s>(cells: impl Iterator<Item = Option<&'s str>>) -> Encoding {
    let mut lookup: HashMap<&str, u32> = HashMap::new();
    let mut distinct: Vec<(&str, usize)> = Vec::new();
    let mut first_rows = Vec::new();
    let codes = cells
        .enumerate()
        .map(|(r, cell)| {
            cell.map(|s| {
                let code = *lookup.entry(s).or_insert_with(|| {
                    first_rows.push(r);
                    distinct.push((s, 0));
                    (distinct.len() - 1) as u32
                });
                distinct[code as usize].1 += 1;
                code
            })
        })
        .collect();
    Encoding {
        codes,
        first_rows,
        present: distinct.iter().map(|&(_, n)| n).sum(),
        token_sum: distinct
            .iter()
            .map(|&(s, n)| s.split_whitespace().count() * n)
            .sum(),
    }
}

/// One parse of a present cell on the numeric lattice: `Some(Some(x))`
/// for a finite number, `Some(None)` for a missing marker, `None` for
/// anything else (the cell makes its column non-numeric).
pub(crate) fn numeric_cell(s: &str) -> Option<Option<f64>> {
    let t = s.trim();
    match t.parse::<f64>() {
        Ok(x) if x.is_finite() => Some(Some(x)),
        _ => is_trimmed_marker(t).then_some(None),
    }
}

/// True for cells that conventionally denote a missing value: empty or
/// whitespace, `NA`, `N/A`, `null`, `nan` (any ASCII case) or `?`.
pub fn is_missing_marker(s: &str) -> bool {
    is_trimmed_marker(s.trim())
}

fn is_trimmed_marker(t: &str) -> bool {
    t.is_empty()
        || t == "?"
        || ["na", "n/a", "null", "nan"]
            .iter()
            .any(|m| t.eq_ignore_ascii_case(m))
}

/// Parses a cell as a finite number, accepting surrounding whitespace.
/// Missing markers (`NA`, `N/A`, `null`, `nan`, `?`) come out as `None`
/// like any other non-number: none of them parses to a finite `f64`.
pub fn parse_number(s: &str) -> Option<f64> {
    numeric_cell(s).flatten()
}

/// Maximum distinct target values for a numeric column to still be treated
/// as classification.
const CLASSIFICATION_MAX_CLASSES: usize = 50;

/// Infers the supervised task type from a target column, following the
/// paper's "distribution of the target column" rule:
///
/// * categorical or text targets → classification;
/// * numeric targets that are all integers with few distinct values →
///   classification (class labels stored as numbers, common in OpenML);
/// * otherwise → regression.
pub fn infer_task(target: &Column) -> Task {
    match target {
        Column::Categorical { .. } | Column::Text(_) => {
            let classes = target.cardinality().max(1);
            Task::classification(classes)
        }
        Column::Numeric(values) => {
            let present: Vec<f64> = values.iter().copied().flatten().collect();
            if present.is_empty() {
                return Task::Regression;
            }
            let all_integral = present.iter().all(|x| x.fract() == 0.0);
            let mut distinct: Vec<u64> = present.iter().map(|x| x.to_bits()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let few = distinct.len() <= CLASSIFICATION_MAX_CLASSES
                && (distinct.len() as f64) < (present.len() as f64).sqrt().max(3.0);
            if all_integral && few && distinct.len() >= 2 {
                Task::classification(distinct.len())
            } else {
                Task::Regression
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_inference_with_missing_markers() {
        let c = infer_column(&[Some("1.5"), Some("NA"), Some("-2"), None, Some("?")]);
        assert_eq!(c.kind(), ColumnKind::Numeric);
        assert_eq!(c.missing_count(), 3);
        assert_eq!(c.as_f64(2), Some(-2.0));
    }

    #[test]
    fn categorical_inference_for_low_cardinality_strings() {
        let cells: Vec<Option<&str>> = (0..100)
            .map(|i| Some(if i % 3 == 0 { "red" } else { "blue" }))
            .collect();
        assert_eq!(infer_column(&cells).kind(), ColumnKind::Categorical);
    }

    #[test]
    fn text_inference_for_prose() {
        let cells: Vec<Option<&str>> = vec![
            Some("this is a long movie review with many words"),
            Some("another long piece of user generated text content"),
        ];
        assert_eq!(infer_column(&cells).kind(), ColumnKind::Text);
    }

    #[test]
    fn text_inference_for_high_cardinality_short_strings() {
        let owned: Vec<String> = (0..500).map(|i| format!("id_{i}")).collect();
        let cells: Vec<Option<&str>> = owned.iter().map(|s| Some(s.as_str())).collect();
        assert_eq!(infer_column(&cells).kind(), ColumnKind::Text);
    }

    #[test]
    fn all_missing_column_is_numeric() {
        let c = infer_column(&[None, None]);
        assert_eq!(c.kind(), ColumnKind::Numeric);
        assert_eq!(c.missing_count(), 2);
    }

    #[test]
    fn task_inference_categorical_target() {
        let t = Column::categorical(vec![Some("yes"), Some("no"), Some("yes")]);
        assert_eq!(infer_task(&t), Task::classification(2));
    }

    #[test]
    fn task_inference_integer_labels() {
        let vals: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        let t = Column::from_f64(vals);
        assert_eq!(infer_task(&t), Task::classification(3));
    }

    #[test]
    fn task_inference_continuous_target() {
        let vals: Vec<f64> = (0..300).map(|i| i as f64 * 0.37).collect();
        let t = Column::from_f64(vals);
        assert_eq!(infer_task(&t), Task::Regression);
    }

    #[test]
    fn task_inference_many_distinct_integers_is_regression() {
        // e.g. house prices in whole dollars: integral but clearly continuous.
        let vals: Vec<f64> = (0..300).map(|i| (100_000 + i * 137) as f64).collect();
        let t = Column::from_f64(vals);
        assert_eq!(infer_task(&t), Task::Regression);
    }

    #[test]
    fn parse_number_rejects_infinite() {
        assert_eq!(parse_number("inf"), None);
        assert_eq!(parse_number(" 3.25 "), Some(3.25));
    }
}
