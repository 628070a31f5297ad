//! Service-level statistics: outcome counters and latency histograms.

use safetx_core::AbortReason;
use safetx_metrics::{FaultCounters, Histogram, Json, RouteCounters, TransportCounters, WalStats};

/// Everything the service measured, snapshot-able at any time and final
/// after shutdown.
///
/// Conservation invariant (checked by [`ServiceStats::conserves`]): every
/// offered submission is either rejected at admission or completes with
/// exactly one of commit / terminal abort / retries exhausted, so
/// `commits + terminal_aborts + retries_exhausted + overload_rejections
/// == submissions` once the service has drained.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Submissions offered (accepted + rejected).
    pub submissions: u64,
    /// Submissions admitted into the queue.
    pub accepted: u64,
    /// Submissions rejected by admission control (queue at depth).
    pub overload_rejections: u64,
    /// Transactions that committed (possibly after retries).
    pub commits: u64,
    /// Transactions that ended with a terminal abort (never retried).
    pub terminal_aborts: u64,
    /// Transactions whose retry budget ran out on transient aborts.
    pub retries_exhausted: u64,
    /// Total re-submissions across all transactions (attempts − 1 each).
    pub retry_attempts: u64,
    /// The subset of `retry_attempts` spent on [`Disposition::Unavailable`]
    /// aborts — each of those burned a full reply deadline first.
    ///
    /// [`Disposition::Unavailable`]: crate::Disposition::Unavailable
    pub unavailable_retries: u64,
    /// Retries caused by lock conflicts (`AbortReason::LockConflict`).
    /// Together with the next three this partitions the transient
    /// (non-unavailable) slice of `retry_attempts` by cause, so a run's
    /// contention profile is visible per concurrency mode: locking mode
    /// aborts here, OCC mode aborts as validation conflicts.
    pub retry_lock_conflicts: u64,
    /// Retries caused by optimistic validation failures at the 2PVC vote
    /// (`AbortReason::ValidationConflict`): a stale read stamp or a
    /// write-write pin collision detected when the transaction tried to
    /// certify its snapshot.
    pub retry_validation_conflicts: u64,
    /// Retries caused by policy-version races
    /// (`AbortReason::VersionInconsistency`).
    pub retry_stale_versions: u64,
    /// Retries caused by commit-phase timeouts (`AbortReason::Timeout`).
    pub retry_timeouts: u64,
    /// Coordinator-side protocol inputs received but matched by no pending
    /// round (stale replies after an abort). Sourced from
    /// [`safetx_runtime::Deployment::dropped_replies`]; timing-dependent, so
    /// excluded from the conservation invariant.
    pub dropped_replies: u64,
    /// Fault-injection and recovery counters from the cluster's message
    /// fabric (all zero when no fault plan was armed and nothing crashed).
    /// Sourced from [`safetx_runtime::Deployment::fault_counters`]; like
    /// `dropped_replies`, outside the conservation invariant.
    pub faults: FaultCounters,
    /// Aggregated WAL accounting across the cluster's servers: logical
    /// forced appends (the paper's Table I log metric) and the physical
    /// device syncs performed for them (one each). Sourced
    /// from [`safetx_runtime::Deployment::wal_stats`]; like `faults`, outside
    /// the conservation invariant.
    pub wal: WalStats,
    /// Transport accounting summed over every edge of the backend: frames
    /// and bytes in both directions, reconnects and decode errors. All
    /// zero on the threaded backend (no wire). Sourced from
    /// [`safetx_runtime::Deployment::transport_counters`]; like `faults`,
    /// outside the conservation invariant.
    pub transport: TransportCounters,
    /// Single- vs cross-group routing outcomes from a backend in several
    /// decision-log groups (all zero with one group). Sourced from
    /// [`safetx_runtime::Deployment::route_counters`]; counted per
    /// execution, so routed submissions ≠ service submissions when retries
    /// re-execute — hence outside the conservation invariant here (the
    /// routes have their own: [`RouteCounters::conserves`]).
    pub route: RouteCounters,
    /// End-to-end latency of committed transactions, in milliseconds
    /// (submission to commit, including queueing and retries).
    pub commit_latency_ms: Histogram,
    /// Time spent waiting in the admission queue, in milliseconds.
    pub queue_wait_ms: Histogram,
    /// End-to-end latency of non-committed completions, in milliseconds.
    pub failure_latency_ms: Histogram,
}

impl ServiceStats {
    /// Completed transactions (every admitted submission ends here).
    #[must_use]
    pub fn completions(&self) -> u64 {
        self.commits + self.terminal_aborts + self.retries_exhausted
    }

    /// True when every offered submission is accounted for: rejected at
    /// admission or completed exactly once.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.accepted + self.overload_rejections == self.submissions
            && self.completions() == self.accepted
    }

    /// Commits per wall-clock second over the given window.
    #[must_use]
    pub fn throughput_tps(&self, wall: std::time::Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.commits as f64 / secs
        }
    }

    /// Attributes one transient retry to its abort cause, so the retry
    /// total can be split into lock conflicts, validation conflicts, stale
    /// policy versions and timeouts. Reasons outside the transient set
    /// (terminal decisions, unavailability — tracked by
    /// `unavailable_retries`) leave the breakdown untouched.
    pub fn record_retry_reason(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::LockConflict => self.retry_lock_conflicts += 1,
            AbortReason::ValidationConflict => self.retry_validation_conflicts += 1,
            AbortReason::VersionInconsistency => self.retry_stale_versions += 1,
            AbortReason::Timeout => self.retry_timeouts += 1,
            _ => {}
        }
    }

    /// Machine-readable snapshot (sorts histograms in place for the
    /// quantiles).
    pub fn to_json(&mut self) -> Json {
        let outcomes = Json::object()
            .with("submissions", self.submissions)
            .with("accepted", self.accepted)
            .with("overload_rejections", self.overload_rejections)
            .with("commits", self.commits)
            .with("terminal_aborts", self.terminal_aborts)
            .with("retries_exhausted", self.retries_exhausted)
            .with("retry_attempts", self.retry_attempts)
            .with("unavailable_retries", self.unavailable_retries)
            .with("retry_lock_conflicts", self.retry_lock_conflicts)
            .with(
                "retry_validation_conflicts",
                self.retry_validation_conflicts,
            )
            .with("retry_stale_versions", self.retry_stale_versions)
            .with("retry_timeouts", self.retry_timeouts)
            .with("dropped_replies", self.dropped_replies);
        self.faults
            .fields()
            .chain(self.wal.fields())
            .chain(self.transport.fields())
            .chain(self.route.fields())
            .fold(outcomes, |json, (name, value)| json.with(name, value))
            .with("commit_latency_ms", self.commit_latency_ms.to_json())
            .with("queue_wait_ms", self.queue_wait_ms.to_json())
            .with("failure_latency_ms", self.failure_latency_ms.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_accounting() {
        let mut stats = ServiceStats {
            submissions: 10,
            accepted: 8,
            overload_rejections: 2,
            commits: 6,
            terminal_aborts: 1,
            retries_exhausted: 1,
            ..Default::default()
        };
        assert!(stats.conserves());
        stats.commits -= 1;
        assert!(!stats.conserves(), "a lost completion must be caught");
    }

    #[test]
    fn throughput_is_commits_over_wall() {
        let stats = ServiceStats {
            commits: 50,
            ..Default::default()
        };
        let tps = stats.throughput_tps(std::time::Duration::from_secs(2));
        assert!((tps - 25.0).abs() < f64::EPSILON);
        assert_eq!(stats.throughput_tps(std::time::Duration::ZERO), 0.0);
    }

    #[test]
    fn retry_breakdown_partitions_by_reason_and_survives_json() {
        let mut stats = ServiceStats::default();
        stats.record_retry_reason(AbortReason::LockConflict);
        stats.record_retry_reason(AbortReason::LockConflict);
        stats.record_retry_reason(AbortReason::ValidationConflict);
        stats.record_retry_reason(AbortReason::VersionInconsistency);
        stats.record_retry_reason(AbortReason::Timeout);
        stats.record_retry_reason(AbortReason::ProofFalse); // terminal: no-op
        assert_eq!(stats.retry_lock_conflicts, 2);
        assert_eq!(stats.retry_validation_conflicts, 1);
        assert_eq!(stats.retry_stale_versions, 1);
        assert_eq!(stats.retry_timeouts, 1);

        stats.record_retry_reason(AbortReason::ValidationConflict);
        assert_eq!(stats.retry_validation_conflicts, 2);

        let text = stats.to_json().render();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(
            parsed.get("retry_lock_conflicts").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("retry_validation_conflicts")
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed.get("retry_stale_versions").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(parsed.get("retry_timeouts").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn json_keys_are_pinned_in_order() {
        let Json::Obj(fields) = ServiceStats::default().to_json() else {
            panic!("the snapshot is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "submissions",
                "accepted",
                "overload_rejections",
                "commits",
                "terminal_aborts",
                "retries_exhausted",
                "retry_attempts",
                "unavailable_retries",
                "retry_lock_conflicts",
                "retry_validation_conflicts",
                "retry_stale_versions",
                "retry_timeouts",
                "dropped_replies",
                "faults_dropped",
                "faults_delayed",
                "faults_duplicated",
                "faults_reordered",
                "faults_corrupted",
                "faults_truncated",
                "disconnects",
                "reconnect_exhausted",
                "server_crashes",
                "recoveries",
                "timeout_aborts",
                "forced_logs",
                "physical_syncs",
                "frames_sent",
                "frames_received",
                "bytes_sent",
                "bytes_received",
                "reconnects",
                "decode_errors",
                "single_shard_submitted",
                "single_shard_commits",
                "single_shard_aborts",
                "cross_shard_submitted",
                "cross_shard_commits",
                "cross_shard_aborts",
                "commit_latency_ms",
                "queue_wait_ms",
                "failure_latency_ms",
            ]
        );
    }

    #[test]
    fn json_snapshot_parses_and_carries_counters() {
        let mut stats = ServiceStats {
            submissions: 4,
            accepted: 4,
            commits: 4,
            ..Default::default()
        };
        stats.commit_latency_ms.record(1.5);
        stats.wal = WalStats {
            forced_logs: 12,
            physical_syncs: 5,
        };
        let text = stats.to_json().render();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("commits").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("forced_logs").and_then(Json::as_u64), Some(12));
        assert_eq!(parsed.get("physical_syncs").and_then(Json::as_u64), Some(5));
        assert_eq!(
            parsed
                .get("commit_latency_ms")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
