//! `benchmark compare A.json B.json`: two suite results, workload by
//! workload and end-to-end metric by metric. A is the parent, B the change.

use crate::metrics::{spread_too_wide, value_of, Better, Metric, END_TO_END, EXACT_COUNTS};
use crate::workloads::WORKLOADS;
use crate::Args;
use safetx_metrics::Json;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    /// On one side the runs disagreed among themselves by more than the
    /// bound, so neither "unchanged" nor "worse" can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the change `b` is worse (negative: better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

fn judge(metric: &Metric, a: f64, b: f64, unresolved: bool) -> Verdict {
    if unresolved || !a.is_finite() || !b.is_finite() {
        return Verdict::Unresolved;
    }
    if worsening(metric, a, b) > metric.bound.expect("end-to-end metrics carry a bound") {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

/// The run-to-run quartile spread a folded workload records for `metric`;
/// 0 where it made one run only.
fn run_spread(record: &Json, metric: &str) -> f64 {
    record
        .get("run_spread")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

pub fn command(args: &Args) -> Result<ExitCode, String> {
    let [path_a, path_b] = args.positional() else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_inputs = a.get("seed") == b.get("seed") && a.get("smoke") == b.get("smoke");
    let mut all_ok = true;

    println!(
        "{:<15} {:<21} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in &WORKLOADS {
        let (Some(da), Some(db)) = (workload(&a, w.name), workload(&b, w.name)) else {
            println!("{:<15} missing from one file", w.name);
            all_ok = false;
            continue;
        };
        for metric in &END_TO_END {
            let (va, vb) = (value_of(da, metric.name), value_of(db, metric.name));
            let unresolved = [da, db]
                .iter()
                .any(|side| spread_too_wide(metric, run_spread(side, metric.name)));
            let verdict = judge(metric, va, vb, unresolved);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{:<15} {:<21} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                metric.name,
                va,
                vb,
                100.0 * worsening(metric, va, vb),
                100.0 * metric.bound.expect("end-to-end"),
                verdict.as_str()
            );
        }
        if same_inputs {
            for name in EXACT_COUNTS {
                let (va, vb) = (value_of(da, name), value_of(db, name));
                if va != vb {
                    println!("{:<15} {name}: {va} against {vb}  differs", w.name);
                    all_ok = false;
                }
            }
        }
    }
    if same_inputs {
        println!("exact counts compared (same seed and sizes)");
    } else {
        println!("exact counts not compared (seed or sizes differ)");
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn direction_decides_which_way_is_worse() {
        let tps = end_to_end("commit_tps").unwrap();
        let p50 = end_to_end("commit_p50_ms").unwrap();
        assert_eq!(judge(tps, 1000.0, 760.0, false), Verdict::Ok);
        assert_eq!(judge(tps, 1000.0, 740.0, false), Verdict::Worse);
        assert_eq!(judge(tps, 1000.0, 2000.0, false), Verdict::Ok);
        assert_eq!(judge(p50, 1.0, 1.24, false), Verdict::Ok);
        assert_eq!(judge(p50, 1.0, 1.26, false), Verdict::Worse);
        assert_eq!(judge(p50, 1.0, 0.5, false), Verdict::Ok);
    }

    #[test]
    fn an_unsteady_run_is_unresolved_not_unchanged() {
        let tps = end_to_end("commit_tps").unwrap();
        assert_eq!(judge(tps, 1000.0, 1000.0, true), Verdict::Unresolved);
        assert_eq!(judge(tps, f64::NAN, 1000.0, false), Verdict::Unresolved);
    }
}
