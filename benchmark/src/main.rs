//! The safetx benchmark.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! benchmark suite [--seed N] [--smoke]       every workload, one child process per run
//! benchmark compare A.json B.json            two suite results, metric by metric
//! ```
//!
//! `run` is the contract command: it sets up, warms up, measures for
//! `--seconds`, checks the outputs and prints one JSON object as its last
//! line. `--trace 0` prints the end-to-end metrics; `--trace 1` also replays
//! the head of the stream through the inline traced deployment, times the
//! single-call loops, and prints the per-layer metrics instead. Either way
//! `run_<workload>.json` in the output directory holds all it measured.

mod compare;
mod deploy;
mod inline;
mod metrics;
mod micro;
mod run;
mod span;
mod stats;
mod suite;
mod timed;
mod workloads;

use std::process::ExitCode;

/// `--flag value` pairs and bare flags after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")))
            .transpose()
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    pub fn positional(&self) -> &[String] {
        &self.0
    }
}

const USAGE: &str = "usage: benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       benchmark suite [--seed N] [--smoke]\n       benchmark compare A.json B.json";

fn main() -> ExitCode {
    let process_start = std::time::Instant::now();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let outcome = match command.as_str() {
        "run" => run::command(&args, process_start),
        "suite" => suite::command(&args),
        "compare" => compare::command(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
