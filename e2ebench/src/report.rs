//! Result assembly: a minimal JSON writer, metrics, operation counts,
//! correctness checks, and the host facts every result records.

use std::fmt::{self, Write as _};

/// A JSON value, written by hand so the benchmark needs no serializer.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, written with every digit (`NaN`/`inf` → `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Num` for `Some`, `Null` for `None`.
    pub fn opt(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => {
                // `{:?}` prints the shortest string that reads back to the
                // same f64, always with a decimal point or exponent.
                let s = format!("{x:?}");
                f.write_str(&s)
            }
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Operation counts for one workload phase (a ladder step, a pass, ...).
#[derive(Debug, Clone)]
pub struct OpCount {
    /// Phase name.
    pub phase: String,
    /// Operations the harness tried to start.
    pub attempted: u64,
    /// Operations that completed successfully.
    pub succeeded: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Operations refused by the client's in-flight cap (open loop only).
    pub refused: u64,
}

impl OpCount {
    /// A zeroed count for `phase`.
    pub fn new(phase: impl Into<String>) -> OpCount {
        OpCount {
            phase: phase.into(),
            attempted: 0,
            succeeded: 0,
            failed: 0,
            refused: 0,
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("phase", Json::str(self.phase.clone())),
            ("attempted", Json::Int(self.attempted)),
            ("succeeded", Json::Int(self.succeeded)),
            ("failed", Json::Int(self.failed)),
            ("refused", Json::Int(self.refused)),
        ])
    }
}

/// Everything one benchmark run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics of the final result line (`BENCHMARK.json`'s lists).
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics reported on the detail line only.
    pub extra: Vec<Metric>,
    /// Operation counts per phase.
    pub counts: Vec<OpCount>,
    /// Correctness checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Configuration and sample-size notes for the detail line.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a metric of the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a detail-line metric.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push(Metric { name, value, unit });
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    /// Records a configuration or sample-size note.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Operations sent to the program. Requests the open-loop client
    /// refused at its in-flight cap never reach it; the detail line
    /// reports them per phase.
    pub fn attempted(&self) -> u64 {
        self.counts.iter().map(|c| c.attempted - c.refused).sum()
    }

    /// Operations the program answered with an error.
    pub fn failed(&self) -> u64 {
        self.counts.iter().map(|c| c.failed).sum()
    }

    fn metric_map(metrics: &[Metric]) -> Json {
        Json::obj(metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    /// The detail line: host, configuration, counts, checks and
    /// workload-specific metrics.
    pub fn detail_line(&self, header: Vec<(String, Json)>) -> String {
        let mut pairs = header;
        pairs.push(("metrics".into(), Self::metric_map(&self.metrics)));
        pairs.push(("workload_metrics".into(), Self::metric_map(&self.extra)));
        pairs.push((
            "counts".into(),
            Json::Arr(self.counts.iter().map(OpCount::json).collect()),
        ));
        pairs.push((
            "checks".into(),
            Json::Arr(
                self.checks
                    .iter()
                    .map(|(name, ok, detail)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("passed", Json::Bool(*ok)),
                            ("detail", Json::str(detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.extend(self.notes.iter().cloned());
        Json::Obj(pairs).to_string()
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted().max(1))),
            ("failed", Json::Int(self.failed())),
            ("metrics", Self::metric_map(&self.metrics)),
        ])
        .to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A parallel arm's requested and effective worker counts.
pub fn arm(name: &str, requested: usize, effective: usize) -> Json {
    Json::obj([
        ("arm", Json::str(name)),
        ("requested", Json::Int(requested as u64)),
        ("effective", Json::Int(effective as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::str("a\"b\n").to_string(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.metric("latency_p50_ms", 1.5, "ms");
        let mut c = OpCount::new("pass");
        c.attempted = 4;
        c.succeeded = 2;
        c.failed = 1;
        c.refused = 1;
        o.counts.push(c);
        o.check("ok", true, "");
        // The refused request never reached the program.
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        o.check("bad", false, "mismatch");
        assert!(!o.correct());
    }
}
