//! The whole set: every workload three times, each run in a child process of
//! its own, so memory and the host's post-idle burst do not leak from one
//! workload into the next, gathered into `benchmark/out/result.json`.

use crate::metrics::{spread_too_wide, value_of, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use crate::Args;
use safetx_metrics::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `net_cont − threaded_cont` as one row: the same stream, only the
/// transport differs.
fn wire_tax(threaded: &Json, net: &Json) -> Json {
    let both = |metric: &str| (value_of(threaded, metric), value_of(net, metric));
    let (tps_t, tps_n) = both("commit_tps");
    let (p50_t, p50_n) = both("commit_p50_ms");
    let (hop_t, hop_n) = both("runtime.hop_wait_us_per_txn");
    Json::object()
        .with("commit_tps_threaded", tps_t)
        .with("commit_tps_net", tps_n)
        .with("commit_tps_ratio", tps_n / tps_t)
        .with("commit_p50_ms_delta", p50_n - p50_t)
        .with("encode_us_per_txn", value_of(net, "net.encode_us_per_txn"))
        .with("decode_us_per_txn", value_of(net, "net.decode_us_per_txn"))
        .with(
            "wire_bytes_per_txn",
            value_of(net, "net.wire_bytes_per_txn"),
        )
        .with("frames_per_commit", value_of(net, "net.frames_per_commit"))
        .with("hop_wait_us_delta", hop_n - hop_t)
}

/// Runs of every workload in the whole set, round-robin; `--smoke` makes one.
const ROUNDS: usize = 3;

/// One child process: one traced run of one workload, its detail file (all
/// it measured) read back. The flag is false when its output checks failed;
/// its own printout is shown only then.
fn run_once(
    exe: &Path,
    out_dir: &Path,
    name: &str,
    seed: u64,
    smoke: bool,
) -> Result<(Json, bool), String> {
    let mut child = Command::new(exe);
    child
        .args(["run", "--workload", name, "--trace", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .arg("--out-dir")
        .arg(out_dir);
    if smoke {
        child.arg("--smoke");
    }
    let output = child.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !output.status.success() {
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    let path = out_dir.join(format!("run_{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let detail = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    Ok((detail, output.status.success()))
}

/// Folds the runs of one workload into one record: every metric becomes the
/// median over the runs; `run_values` and `run_spread` hold each end-to-end
/// metric's value in every run and their quartile spread, and the workload
/// is `unresolved` when one spread is wider than the metric's bound:
/// "unchanged" cannot be said of it.
fn fold_runs(runs: &[Json]) -> Json {
    let first = &runs[0];
    let Some(Json::Obj(fields)) = first.get("metrics") else {
        return first.clone();
    };
    let mut metrics = Json::object();
    let mut run_values = Json::object();
    let mut spreads = Json::object();
    let mut unresolved = false;
    for (name, entry) in fields {
        let values: Vec<f64> = runs.iter().map(|run| value_of(run, name)).collect();
        metrics = metrics.with(
            name,
            Json::object()
                .with("value", median(&values).unwrap_or(f64::NAN))
                .with("unit", entry.get("unit").cloned().unwrap_or(Json::Null)),
        );
        if let Some(metric) = END_TO_END.iter().find(|m| m.name == name) {
            let spread = quartile_spread(&values).unwrap_or(0.0);
            spreads = spreads.with(name, spread);
            run_values = run_values.with(
                name,
                Json::Arr(values.iter().copied().map(Json::from).collect()),
            );
            unresolved |= spread_too_wide(metric, spread);
        }
    }
    first
        .clone()
        .with("runs", runs.len())
        .with("metrics", metrics)
        .with("run_values", run_values)
        .with("run_spread", spreads)
        .with("unresolved", unresolved)
}

/// Every metric of one folded workload by name, with unit and direction,
/// and beside an end-to-end metric its bound and run-to-run spread.
fn print_workload(name: &str, folded: &Json) {
    println!("== {name}: medians over the runs ==");
    for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let spread = folded.get("run_spread").and_then(|s| s.get(metric.name));
        let gate = match (metric.bound, spread.and_then(Json::as_f64)) {
            (Some(bound), Some(spread)) => format!("  bound {bound:.2}, run spread {spread:.3}"),
            _ => String::new(),
        };
        println!(
            "{:<46} {:>16.6} {:<6} ({} is better){gate}",
            metric.name,
            value_of(folded, metric.name),
            metric.unit,
            metric.better.as_str()
        );
    }
}

pub fn command(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(42);
    let smoke = args.has("--smoke");
    let rounds = if smoke { 1 } else { ROUNDS };
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out"));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;

    // Round-robin over the workloads, so each is sampled across the whole
    // sitting and a drift of the host lands on all of them alike.
    let mut details: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    let mut failed = Vec::new();
    for round in 1..=rounds {
        for (w, collected) in WORKLOADS.iter().zip(&mut details) {
            println!("== {} (run {round} of {rounds}): {} ==", w.name, w.why);
            let (detail, ok) = run_once(&exe, &out_dir, w.name, seed, smoke)?;
            for metric in &END_TO_END {
                let value = value_of(&detail, metric.name);
                println!("{:<46} {value:>16.6} {}", metric.name, metric.unit);
            }
            if !ok && !failed.contains(&w.name) {
                failed.push(w.name);
            }
            collected.push(detail);
        }
    }
    let mut workloads = Json::object();
    let mut unresolved = Vec::new();
    for (w, collected) in WORKLOADS.iter().zip(&details) {
        let folded = fold_runs(collected);
        if folded.get("unresolved") == Some(&Json::Bool(true)) {
            unresolved.push(w.name);
        }
        print_workload(w.name, &folded);
        workloads = workloads.with(w.name, folded);
    }

    let names = |list: &[&str]| Json::Arr(list.iter().map(|&n| Json::from(n)).collect());
    let threaded = workloads.get("threaded_cont").expect("ran above");
    let tax = wire_tax(threaded, workloads.get("net_cont").expect("ran above"));
    // The host's own numbers do not depend on the workload: the first
    // workload's medians stand for the sitting.
    let host = Json::object()
        .with("nproc", value_of(threaded, "host.nproc"))
        .with("rustc", args.value("--rustc").unwrap_or("unknown"))
        .with("profile", "release")
        .with("commit", args.value("--commit").unwrap_or("unknown"))
        .with("spin_ms", value_of(threaded, "host.spin_ms"))
        .with(
            "channel_hop_us",
            value_of(threaded, "runtime.channel_hop_us"),
        )
        .with("socket_hop_us", value_of(threaded, "net.socket_hop_us"));
    let result = Json::object()
        .with("host", host)
        .with("seed", seed)
        .with("smoke", smoke)
        .with("runs", rounds)
        .with("run_seconds", RUN_SECONDS)
        .with("wire_tax", tax.clone())
        .with("unresolved", names(&unresolved))
        .with("failed", names(&failed))
        .with("workloads", workloads);
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render()).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "== wire tax (net_cont - threaded_cont) ==\n{}",
        tax.render()
    );
    println!("wrote {}", path.display());
    if !failed.is_empty() {
        eprintln!("output checks failed: {}", failed.join(", "));
        return Ok(ExitCode::FAILURE);
    }
    if !unresolved.is_empty() {
        eprintln!(
            "unresolved (the run-to-run spread is wider than the bound): {}",
            unresolved.join(", ")
        );
        if !smoke {
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tps: f64) -> Json {
        let metric =
            |value: f64, unit: &str| Json::object().with("value", value).with("unit", unit);
        Json::object().with("workload", "threaded_cont").with(
            "metrics",
            Json::object()
                .with("commit_tps", metric(tps, "1/s"))
                .with("core.messages_per_txn", metric(28.0, "count")),
        )
    }

    #[test]
    fn runs_fold_into_medians_and_a_run_to_run_spread() {
        let folded = fold_runs(&[run(3000.0), run(3120.0), run(3100.0)]);
        assert_eq!(value_of(&folded, "commit_tps"), 3100.0);
        assert_eq!(value_of(&folded, "core.messages_per_txn"), 28.0);
        // Three runs: the quartiles are the extremes, 120 over 3100.
        assert_eq!(folded.get("unresolved"), Some(&Json::Bool(false)));
        let wide = fold_runs(&[run(2000.0), run(3300.0), run(3100.0)]);
        assert_eq!(wide.get("unresolved"), Some(&Json::Bool(true)));
        // One run (`--smoke`) has no spread to judge.
        let single = fold_runs(&[run(3000.0)]);
        assert_eq!(single.get("unresolved"), Some(&Json::Bool(false)));
    }
}
