//! End-to-end benchmark of the KGpip system.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_open|csv_predict|automl_run> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, trains its model in
//! set-up, measures for about `--seconds`, checks the program's answers,
//! and prints two JSON lines: a detail line (host, configuration,
//! operation counts, correctness checks, workload-specific metrics) and,
//! last, the result line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! inputs timed layer by layer and reports the per-layer metrics. The exit
//! code is non-zero when a correctness check fails. See `README.md`.

// The benchmark times wall-clock cost by design.
#![allow(clippy::disallowed_methods)]

mod automl;
mod csv;
mod layers;
mod report;
mod serve;
mod setup;
mod stats;

use report::{nproc, Json, Outcome};
use std::process::ExitCode;

/// End-to-end metrics and units every workload reports with `--trace 0`,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: kgpip-e2ebench --workload <serve_open|csv_predict|automl_run> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !["serve_open", "csv_predict", "automl_run"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve_open" => serve::run(&args),
        "csv_predict" => csv::run(&args),
        _ => automl::run(&args),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        match report::peak_rss_mb() {
            Ok(mb) => outcome.metric("peak_rss_mb", mb, "MB"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let expected: &[(&str, &str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    // The result line lists metrics in BENCHMARK.json's order.
    outcome
        .metrics
        .sort_by_key(|m| expected.iter().position(|(n, _)| *n == m.name));
    let reported: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    outcome.check(
        "harness.metric_set",
        reported == expected,
        format!("reported {reported:?}"),
    );

    let header = vec![
        ("workload".to_string(), Json::str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("nproc".to_string(), Json::Int(nproc() as u64)),
    ];
    println!("{}", outcome.detail_line(header));
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        for (name, ok, detail) in &outcome.checks {
            if !ok {
                eprintln!("correctness check failed: {name}: {detail}");
            }
        }
        ExitCode::from(1)
    }
}

/// Common configuration notes: host width, generator shape, set-up size.
pub fn common_notes(outcome: &mut Outcome, model: &kgpip::TrainedModel) {
    let g = model.generator().config();
    outcome.note(
        "generator",
        Json::obj([
            ("hidden", Json::Int(g.hidden as u64)),
            ("prop_rounds", Json::Int(g.prop_rounds as u64)),
            ("embed_dim", Json::Int(g.embed_dim as u64)),
            ("epochs", Json::Int(g.epochs as u64)),
            ("parallelism", Json::Int(g.parallelism as u64)),
        ]),
    );
    outcome.note(
        "corpus",
        Json::obj([
            (
                "datasets",
                Json::Int((setup::PER_DOMAIN * kgpip_benchdata::generate::NUM_DOMAINS) as u64),
            ),
            (
                "scripts",
                Json::Int(
                    (setup::PER_DOMAIN
                        * kgpip_benchdata::generate::NUM_DOMAINS
                        * setup::SCRIPTS_PER_DATASET) as u64,
                ),
            ),
            ("setup_repeats", Json::Int(setup::SETUP_REPEATS as u64)),
        ]),
    );
    outcome.note(
        "catalog",
        Json::obj([
            ("entries", Json::Int(model.catalog_len() as u64)),
            ("tier", Json::str(format!("{:?}", model.index().tier()))),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    /// `(name, unit)` pairs in file order, from lines holding both keys.
    fn benchmark_json_entries() -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        text.lines()
            .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let mut expected: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        expected.extend(
            layers::PER_LAYER
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string())),
        );
        assert_eq!(benchmark_json_entries(), expected);
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse("--workload csv_predict --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "csv_predict");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve_open --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve_open --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve_open --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload serve_open --seconds 1").is_err());
        assert!(parse("--workload serve_open --seed").is_err());
    }
}
