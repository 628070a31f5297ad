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
    /// device syncs performed for them (fewer under group commit). Sourced
    /// from [`safetx_runtime::Deployment::wal_stats`]; like `faults`, outside
    /// the conservation invariant.
    pub wal: WalStats,
    /// Transport accounting summed over every edge of the backend: frames
    /// and bytes in both directions, reconnects and decode errors. All
    /// zero on the threaded backend (no wire). Sourced from
    /// [`safetx_runtime::Deployment::transport_counters`]; like `faults`,
    /// outside the conservation invariant.
    pub transport: TransportCounters,
    /// Single- vs cross-shard routing outcomes from a sharded backend
    /// (all zero on unsharded backends). Sourced from
    /// [`safetx_runtime::Deployment::route_counters`]; counted at the
    /// router, so routed submissions ≠ service submissions when retries
    /// re-execute — hence outside the conservation invariant here (the
    /// router has its own: [`RouteCounters::conserves`]).
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

    /// Folds another service's statistics into this one, so per-shard (or
    /// per-service) reports aggregate into a single deployment-wide view.
    ///
    /// Scalar counters and the fault/WAL/transport/route groups add
    /// exactly. Latency histograms merge through
    /// [`Histogram::merge`], which is exact while both sides are within
    /// their retained-sample budget and degrades to log-linear buckets
    /// beyond it — counts, means and extremes stay exact, and every
    /// quantile carries a bounded relative error of at most ~1.1%
    /// (2^(1/64) − 1), a bound that merging does not compound.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.submissions += other.submissions;
        self.accepted += other.accepted;
        self.overload_rejections += other.overload_rejections;
        self.commits += other.commits;
        self.terminal_aborts += other.terminal_aborts;
        self.retries_exhausted += other.retries_exhausted;
        self.retry_attempts += other.retry_attempts;
        self.unavailable_retries += other.unavailable_retries;
        self.retry_lock_conflicts += other.retry_lock_conflicts;
        self.retry_validation_conflicts += other.retry_validation_conflicts;
        self.retry_stale_versions += other.retry_stale_versions;
        self.retry_timeouts += other.retry_timeouts;
        self.dropped_replies += other.dropped_replies;
        self.faults.merge(&other.faults);
        self.wal.merge(&other.wal);
        self.transport.merge(&other.transport);
        self.route.merge(&other.route);
        self.commit_latency_ms.merge(&other.commit_latency_ms);
        self.queue_wait_ms.merge(&other.queue_wait_ms);
        self.failure_latency_ms.merge(&other.failure_latency_ms);
    }

    /// Machine-readable snapshot (sorts histograms in place for the
    /// quantiles).
    pub fn to_json(&mut self) -> Json {
        Json::object()
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
            .with("dropped_replies", self.dropped_replies)
            .with("faults_dropped", self.faults.faults_dropped)
            .with("faults_delayed", self.faults.faults_delayed)
            .with("faults_duplicated", self.faults.faults_duplicated)
            .with("faults_reordered", self.faults.faults_reordered)
            .with("faults_corrupted", self.faults.faults_corrupted)
            .with("faults_truncated", self.faults.faults_truncated)
            .with("disconnects", self.faults.disconnects)
            .with("reconnect_exhausted", self.faults.reconnect_exhausted)
            .with("server_crashes", self.faults.server_crashes)
            .with("recoveries", self.faults.recoveries)
            .with("timeout_aborts", self.faults.timeout_aborts)
            .with("forced_logs", self.wal.forced_logs)
            .with("physical_syncs", self.wal.physical_syncs)
            .with("frames_sent", self.transport.frames_sent)
            .with("frames_received", self.transport.frames_received)
            .with("bytes_sent", self.transport.bytes_sent)
            .with("bytes_received", self.transport.bytes_received)
            .with("reconnects", self.transport.reconnects)
            .with("decode_errors", self.transport.decode_errors)
            .with("single_shard_submitted", self.route.single_shard_submitted)
            .with("single_shard_commits", self.route.single_shard_commits)
            .with("single_shard_aborts", self.route.single_shard_aborts)
            .with("cross_shard_submitted", self.route.cross_shard_submitted)
            .with("cross_shard_commits", self.route.cross_shard_commits)
            .with("cross_shard_aborts", self.route.cross_shard_aborts)
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
    fn merge_aggregates_counters_and_histograms() {
        let mut a = ServiceStats {
            submissions: 10,
            accepted: 9,
            overload_rejections: 1,
            commits: 8,
            terminal_aborts: 1,
            ..Default::default()
        };
        for ms in [1.0, 2.0, 3.0] {
            a.commit_latency_ms.record(ms);
        }
        a.route.single_shard_submitted = 9;
        a.route.single_shard_commits = 8;
        a.route.single_shard_aborts = 1;
        let mut b = ServiceStats {
            submissions: 5,
            accepted: 5,
            commits: 4,
            retries_exhausted: 1,
            ..Default::default()
        };
        for ms in [10.0, 20.0] {
            b.commit_latency_ms.record(ms);
        }
        b.route.cross_shard_submitted = 5;
        b.route.cross_shard_commits = 4;
        b.route.cross_shard_aborts = 1;
        a.merge(&b);
        assert_eq!(a.submissions, 15);
        assert_eq!(a.commits, 12);
        assert!(a.conserves(), "{a:?}");
        assert!(a.route.conserves());
        assert_eq!(a.commit_latency_ms.count(), 5);
        assert_eq!(a.commit_latency_ms.max(), Some(20.0));
        let p50 = a.commit_latency_ms.quantile(0.5).expect("non-empty");
        assert!((p50 - 3.0).abs() < f64::EPSILON, "exact below cap: {p50}");
    }

    #[test]
    fn retry_breakdown_partitions_by_reason_and_survives_merge_and_json() {
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

        let mut other = ServiceStats::default();
        other.record_retry_reason(AbortReason::ValidationConflict);
        stats.merge(&other);
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
