//! The metric registry: every name the benchmark prints, with its unit and
//! direction, and for end-to-end metrics the regression bound.
//! `BENCHMARK.json` at the repository root repeats this list; a test holds
//! the two together.

use safetx_metrics::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 15;

// The first three bounds are the contract's cap: ten-run quartile spreads
// reached 19–23 % when the host changed level mid-calibration (9–14 % when
// it did not), so nothing tighter would hold. See README, "End-to-end
// metrics".
pub const END_TO_END: [Metric; 5] = [
    e2e("commit_tps", "1/s", Better::Higher, 0.25),
    e2e("commit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("commit_p95_ms", "ms", Better::Lower, 0.25),
    e2e("rss_bytes_per_commit", "B", Better::Lower, 0.15),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

pub const PER_LAYER: [Metric; 48] = [
    // Public counters of the timed run, per commit.
    layer("service.queue_wait_p50_ms", "ms", Lower),
    layer("service.queue_wait_p95_ms", "ms", Lower),
    layer("service.attempts_per_commit", "count", Lower),
    layer("service.retry_lock_conflicts_per_commit", "count", Lower),
    layer("service.retry_stale_versions_per_commit", "count", Lower),
    layer("service.commit_p99_ms", "ms", Lower),
    layer("runtime.execute_p50_ms", "ms", Lower),
    layer("core.proof_cache_hit_ratio", "ratio", Higher),
    layer("core.proof_cache_invalidations_per_kcommit", "count", Lower),
    layer("core.engine_evals_per_commit", "count", Lower),
    layer("store.forced_logs_per_commit", "count", Lower),
    layer("store.physical_syncs_per_commit", "count", Lower),
    layer("net.frames_per_commit", "count", Lower),
    layer("net.bytes_per_commit", "B", Lower),
    // The traced replay: self time per transaction, and exact counts.
    layer("core.tm_step_us", "us", Lower),
    layer("core.server_exec_query_us", "us", Lower),
    layer("core.server_validate_us", "us", Lower),
    layer("core.server_prepare_commit_us", "us", Lower),
    layer("core.server_decision_us", "us", Lower),
    layer("core.master_lookup_us", "us", Lower),
    layer("store.decision_force_us", "us", Lower),
    layer("net.encode_us_per_txn", "us", Lower),
    layer("net.decode_us_per_txn", "us", Lower),
    layer("core.messages_per_txn", "count", Lower),
    layer("core.proofs_per_txn", "count", Lower),
    layer("core.rounds_per_txn", "count", Lower),
    layer("core.forced_logs_per_txn", "count", Lower),
    layer("net.wire_bytes_per_txn", "B", Lower),
    layer("inline.cpu_us_per_txn", "us", Lower),
    layer("store.wal_sync_wait_us_per_txn", "us", Lower),
    layer("runtime.hop_wait_us_per_txn", "us", Lower),
    // Timed loops on single public calls.
    layer("policy.evaluate_proof_cold_us", "us", Lower),
    layer("policy.saturate_us", "us", Lower),
    layer("core.evaluate_one_warm_us", "us", Lower),
    layer("store.wal_force_ns", "ns", Lower),
    layer("store.lock_cycle_ns", "ns", Lower),
    layer("store.kv_apply_ns", "ns", Lower),
    layer("net.encode_exec_query_us", "us", Lower),
    layer("net.decode_exec_query_us", "us", Lower),
    layer("net.exec_query_bytes", "B", Lower),
    layer("net.socket_hop_us", "us", Lower),
    layer("runtime.channel_hop_us", "us", Lower),
    // Harness and host.
    layer("host.nproc", "count", Higher),
    layer("host.spin_ms", "ms", Lower),
    layer("harness.segment_spread", "ratio", Lower),
    layer("harness.clean_slice_share", "ratio", Higher),
    layer("harness.generator_late_p95_ms", "ms", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
];

/// The replay counts that repeat exactly under one seed.
pub const EXACT_COUNTS: [&str; 5] = [
    "core.messages_per_txn",
    "core.proofs_per_txn",
    "core.rounds_per_txn",
    "core.forced_logs_per_txn",
    "net.wire_bytes_per_txn",
];

/// The value of one metric in a run's (or a folded workload's) record; NaN
/// where it is missing.
pub fn value_of(record: &Json, metric: &str) -> f64 {
    record
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Whether a run-to-run quartile spread is too wide for the metric's bound
/// to tell "unchanged" from "worse". Set-up takes a millisecond or less and
/// its share swings without meaning; the driver exempts it likewise.
pub fn spread_too_wide(metric: &Metric, spread: f64) -> bool {
    metric.name != "setup_s" && spread > metric.bound.expect("end-to-end metrics carry a bound")
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn registered(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), registered(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), registered(&PER_LAYER));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_exact_counts_are_registered() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for exact in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == exact), "{exact}");
        }
    }
}
