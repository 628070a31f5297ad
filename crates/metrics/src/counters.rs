//! Protocol cost counters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The cost metrics of one (or many aggregated) transaction executions,
/// matching Section VI's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolMetrics {
    /// Protocol messages sent (prepares, votes, decisions, acks, updates,
    /// version queries, 2PV traffic).
    pub messages: u64,
    /// Proofs of authorization evaluated (including re-evaluations).
    pub proofs: u64,
    /// Voting/collection rounds executed (`r` in Table I).
    pub rounds: u64,
    /// Forced log writes (the paper's log complexity).
    pub forced_logs: u64,
    /// Sequential TM → server round trips: effect batches of one
    /// transaction that sent at least one message. Table I prices totals;
    /// this is the length of the chain a commit waits through.
    #[serde(default)]
    pub round_trips: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
}

impl ProtocolMetrics {
    /// All-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &ProtocolMetrics) {
        self.messages += other.messages;
        self.proofs += other.proofs;
        self.rounds += other.rounds;
        self.forced_logs += other.forced_logs;
        self.round_trips += other.round_trips;
        self.commits += other.commits;
        self.aborts += other.aborts;
    }

    /// Total transactions observed.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.commits + self.aborts
    }

    /// Fraction of transactions that aborted (0 when none ran).
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let total = self.transactions();
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

impl ProtocolMetrics {
    /// Machine-readable form for the benchmark and `loadgen`.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::object()
            .with("messages", self.messages)
            .with("proofs", self.proofs)
            .with("rounds", self.rounds)
            .with("forced_logs", self.forced_logs)
            .with("round_trips", self.round_trips)
            .with("commits", self.commits)
            .with("aborts", self.aborts)
    }

    /// Rebuilds metrics from [`ProtocolMetrics::to_json`] output.
    ///
    /// Returns `None` when a field is missing or non-numeric — except
    /// `round_trips`, which files written before it existed lack: a
    /// missing key reads as 0.
    #[must_use]
    pub fn from_json(json: &crate::Json) -> Option<Self> {
        let field = |name: &str| json.get(name).and_then(crate::Json::as_u64);
        Some(ProtocolMetrics {
            messages: field("messages")?,
            proofs: field("proofs")?,
            rounds: field("rounds")?,
            forced_logs: field("forced_logs")?,
            round_trips: field("round_trips").unwrap_or(0),
            commits: field("commits")?,
            aborts: field("aborts")?,
        })
    }
}

impl fmt::Display for ProtocolMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "msgs={} proofs={} rounds={} forced={} round_trips={} commits={} aborts={}",
            self.messages,
            self.proofs,
            self.rounds,
            self.forced_logs,
            self.round_trips,
            self.commits,
            self.aborts
        )
    }
}

impl std::ops::Add for ProtocolMetrics {
    type Output = ProtocolMetrics;

    fn add(mut self, rhs: ProtocolMetrics) -> ProtocolMetrics {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for ProtocolMetrics {
    fn sum<I: Iterator<Item = ProtocolMetrics>>(iter: I) -> ProtocolMetrics {
        iter.fold(ProtocolMetrics::new(), |acc, m| acc + m)
    }
}

/// Instrumentation for a server's proof-of-authorization cache.
///
/// These counters track *wall-clock* savings only: a cache hit still counts
/// as a proof evaluation in [`ProtocolMetrics::proofs`] (Table I's cost
/// model is unchanged by caching), so they live beside — never inside —
/// the paper-model metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProofCacheStats {
    /// Evaluations answered from cache (no engine run, no oracle call).
    pub hits: u64,
    /// Evaluations that ran the engine and populated the cache.
    pub misses: u64,
    /// Cached proofs dropped by an invalidation event (policy install,
    /// CA state change, ambient-fact or resource-map update).
    pub invalidations: u64,
}

impl ProofCacheStats {
    /// All-zero stats.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &ProofCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }

    /// Total cache lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl ProofCacheStats {
    /// Machine-readable form for the benchmark and `loadgen`.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::object()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("invalidations", self.invalidations)
    }

    /// Rebuilds stats from [`ProofCacheStats::to_json`] output.
    #[must_use]
    pub fn from_json(json: &crate::Json) -> Option<Self> {
        let field = |name: &str| json.get(name).and_then(crate::Json::as_u64);
        Some(ProofCacheStats {
            hits: field("hits")?,
            misses: field("misses")?,
            invalidations: field("invalidations")?,
        })
    }
}

impl fmt::Display for ProofCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache_hits={} cache_misses={} cache_invalidations={}",
            self.hits, self.misses, self.invalidations
        )
    }
}

impl std::ops::Add for ProofCacheStats {
    type Output = ProofCacheStats;

    fn add(mut self, rhs: ProofCacheStats) -> ProofCacheStats {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for ProofCacheStats {
    fn sum<I: Iterator<Item = ProofCacheStats>>(iter: I) -> ProofCacheStats {
        iter.fold(ProofCacheStats::new(), |acc, s| acc + s)
    }
}

/// Fault-injection and crash-recovery instrumentation for a live cluster.
///
/// These counters record what the fault layer *did* (messages dropped,
/// delayed, duplicated, reordered; servers crashed and recovered) and what
/// the TM *observed* (protocol phases that hit their reply deadline). They
/// sit beside the paper-model [`ProtocolMetrics`]: injected faults change
/// wall-clock behaviour and liveness, never the Table I cost accounting of
/// the transactions that do complete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Protocol messages swallowed by a drop rule.
    pub faults_dropped: u64,
    /// Protocol messages delivered late by a delay rule.
    pub faults_delayed: u64,
    /// Protocol messages delivered twice by a duplicate rule.
    pub faults_duplicated: u64,
    /// Protocol messages pushed out of FIFO order by a reorder rule.
    pub faults_reordered: u64,
    /// Wire frames whose payload bytes were flipped by a corruption rule
    /// (always caught by the receiver's decoder; zero on channel fabrics).
    pub faults_corrupted: u64,
    /// Wire frames cut off mid-frame by a truncation rule, desyncing and
    /// killing the stream (zero on channel fabrics).
    pub faults_truncated: u64,
    /// Streams hard-closed by a disconnect rule (zero on channel fabrics).
    pub disconnects: u64,
    /// Reconnect loops that gave up after exhausting their bounded,
    /// backed-off attempt budget (the edge then presents as unavailable).
    pub reconnect_exhausted: u64,
    /// Server threads torn down by a scheduled crash.
    pub server_crashes: u64,
    /// Server threads rebuilt from their WAL after a crash.
    pub recoveries: u64,
    /// Protocol phases the TM abandoned at the reply deadline (aborted
    /// with `ServerUnavailable`).
    pub timeout_aborts: u64,
}

impl FaultCounters {
    /// All-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.faults_dropped += other.faults_dropped;
        self.faults_delayed += other.faults_delayed;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_reordered += other.faults_reordered;
        self.faults_corrupted += other.faults_corrupted;
        self.faults_truncated += other.faults_truncated;
        self.disconnects += other.disconnects;
        self.reconnect_exhausted += other.reconnect_exhausted;
        self.server_crashes += other.server_crashes;
        self.recoveries += other.recoveries;
        self.timeout_aborts += other.timeout_aborts;
    }

    /// Total messages the fault layer interfered with.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_dropped
            + self.faults_delayed
            + self.faults_duplicated
            + self.faults_reordered
            + self.faults_corrupted
            + self.faults_truncated
            + self.disconnects
    }

    /// Machine-readable form for the benchmark and `loadgen`.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::object()
            .with("faults_dropped", self.faults_dropped)
            .with("faults_delayed", self.faults_delayed)
            .with("faults_duplicated", self.faults_duplicated)
            .with("faults_reordered", self.faults_reordered)
            .with("faults_corrupted", self.faults_corrupted)
            .with("faults_truncated", self.faults_truncated)
            .with("disconnects", self.disconnects)
            .with("reconnect_exhausted", self.reconnect_exhausted)
            .with("server_crashes", self.server_crashes)
            .with("recoveries", self.recoveries)
            .with("timeout_aborts", self.timeout_aborts)
    }

    /// Rebuilds counters from [`FaultCounters::to_json`] output.
    #[must_use]
    pub fn from_json(json: &crate::Json) -> Option<Self> {
        let field = |name: &str| json.get(name).and_then(crate::Json::as_u64);
        Some(FaultCounters {
            faults_dropped: field("faults_dropped")?,
            faults_delayed: field("faults_delayed")?,
            faults_duplicated: field("faults_duplicated")?,
            faults_reordered: field("faults_reordered")?,
            faults_corrupted: field("faults_corrupted")?,
            faults_truncated: field("faults_truncated")?,
            disconnects: field("disconnects")?,
            reconnect_exhausted: field("reconnect_exhausted")?,
            server_crashes: field("server_crashes")?,
            recoveries: field("recoveries")?,
            timeout_aborts: field("timeout_aborts")?,
        })
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped={} delayed={} duplicated={} reordered={} corrupted={} truncated={} \
             disconnects={} reconnect_exhausted={} crashes={} recoveries={} timeout_aborts={}",
            self.faults_dropped,
            self.faults_delayed,
            self.faults_duplicated,
            self.faults_reordered,
            self.faults_corrupted,
            self.faults_truncated,
            self.disconnects,
            self.reconnect_exhausted,
            self.server_crashes,
            self.recoveries,
            self.timeout_aborts
        )
    }
}

impl std::ops::Add for FaultCounters {
    type Output = FaultCounters;

    fn add(mut self, rhs: FaultCounters) -> FaultCounters {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for FaultCounters {
    fn sum<I: Iterator<Item = FaultCounters>>(iter: I) -> FaultCounters {
        iter.fold(FaultCounters::new(), |acc, c| acc + c)
    }
}

/// Shard-routing accounting for a partitioned deployment: how many
/// transactions stayed inside one shard (no cross-shard coordination) and
/// how many were driven through cross-shard 2PVC, split by final outcome.
///
/// Conservation: `single_shard_submitted + cross_shard_submitted` equals
/// the executions the router performed, and within each class
/// `submitted == commits + aborts` once the deployment has quiesced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteCounters {
    /// Transactions whose key set resolved to exactly one shard.
    pub single_shard_submitted: u64,
    /// Single-shard transactions that committed.
    pub single_shard_commits: u64,
    /// Single-shard transactions that aborted (any reason).
    pub single_shard_aborts: u64,
    /// Transactions spanning two or more shards (cross-shard 2PVC).
    pub cross_shard_submitted: u64,
    /// Cross-shard transactions that committed.
    pub cross_shard_commits: u64,
    /// Cross-shard transactions that aborted (any reason).
    pub cross_shard_aborts: u64,
}

impl RouteCounters {
    /// All-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &RouteCounters) {
        self.single_shard_submitted += other.single_shard_submitted;
        self.single_shard_commits += other.single_shard_commits;
        self.single_shard_aborts += other.single_shard_aborts;
        self.cross_shard_submitted += other.cross_shard_submitted;
        self.cross_shard_commits += other.cross_shard_commits;
        self.cross_shard_aborts += other.cross_shard_aborts;
    }

    /// Executions routed, single- and cross-shard together.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.single_shard_submitted + self.cross_shard_submitted
    }

    /// True when every routed execution resolved to a commit or an abort
    /// in its own class.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.single_shard_submitted == self.single_shard_commits + self.single_shard_aborts
            && self.cross_shard_submitted == self.cross_shard_commits + self.cross_shard_aborts
    }

    /// Machine-readable form for the benchmark and `loadgen`.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::object()
            .with("single_shard_submitted", self.single_shard_submitted)
            .with("single_shard_commits", self.single_shard_commits)
            .with("single_shard_aborts", self.single_shard_aborts)
            .with("cross_shard_submitted", self.cross_shard_submitted)
            .with("cross_shard_commits", self.cross_shard_commits)
            .with("cross_shard_aborts", self.cross_shard_aborts)
    }

    /// Rebuilds counters from [`RouteCounters::to_json`] output.
    #[must_use]
    pub fn from_json(json: &crate::Json) -> Option<Self> {
        let field = |name: &str| json.get(name).and_then(crate::Json::as_u64);
        Some(RouteCounters {
            single_shard_submitted: field("single_shard_submitted")?,
            single_shard_commits: field("single_shard_commits")?,
            single_shard_aborts: field("single_shard_aborts")?,
            cross_shard_submitted: field("cross_shard_submitted")?,
            cross_shard_commits: field("cross_shard_commits")?,
            cross_shard_aborts: field("cross_shard_aborts")?,
        })
    }
}

impl fmt::Display for RouteCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "single={}/{}c cross={}/{}c",
            self.single_shard_submitted,
            self.single_shard_commits,
            self.cross_shard_submitted,
            self.cross_shard_commits
        )
    }
}

impl std::ops::Add for RouteCounters {
    type Output = RouteCounters;

    fn add(mut self, rhs: RouteCounters) -> RouteCounters {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for RouteCounters {
    fn sum<I: Iterator<Item = RouteCounters>>(iter: I) -> RouteCounters {
        iter.fold(RouteCounters::new(), |acc, c| acc + c)
    }
}

/// Write-ahead-log force accounting, split into the paper's logical metric
/// and the physical syncs group commit amortizes them into.
///
/// `forced_logs` is Table I's `2n + 1` log complexity and is byte-identical
/// whether or not group commit is active; `physical_syncs` is a wall-clock
/// counter (like [`ProofCacheStats`]) showing how many device syncs those
/// forces actually cost. `physical_syncs ≤ forced_logs` always; strictly
/// smaller when any server round coalesced two or more forces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalStats {
    /// Logical forced log writes (the paper's log-complexity metric).
    pub forced_logs: u64,
    /// Physical device syncs performed for those forces.
    pub physical_syncs: u64,
}

impl WalStats {
    /// All-zero stats.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &WalStats) {
        self.forced_logs += other.forced_logs;
        self.physical_syncs += other.physical_syncs;
    }

    /// Logical forces amortized away: `forced_logs − physical_syncs`.
    #[must_use]
    pub fn syncs_saved(&self) -> u64 {
        self.forced_logs.saturating_sub(self.physical_syncs)
    }

    /// Machine-readable form for the benchmark and `loadgen`.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::object()
            .with("forced_logs", self.forced_logs)
            .with("physical_syncs", self.physical_syncs)
    }

    /// Rebuilds stats from [`WalStats::to_json`] output.
    #[must_use]
    pub fn from_json(json: &crate::Json) -> Option<Self> {
        let field = |name: &str| json.get(name).and_then(crate::Json::as_u64);
        Some(WalStats {
            forced_logs: field("forced_logs")?,
            physical_syncs: field("physical_syncs")?,
        })
    }
}

impl fmt::Display for WalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "forced_logs={} physical_syncs={}",
            self.forced_logs, self.physical_syncs
        )
    }
}

impl std::ops::Add for WalStats {
    type Output = WalStats;

    fn add(mut self, rhs: WalStats) -> WalStats {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for WalStats {
    fn sum<I: Iterator<Item = WalStats>>(iter: I) -> WalStats {
        iter.fold(WalStats::new(), |acc, s| acc + s)
    }
}

/// Byte-stream transport accounting for one edge (or an aggregate over
/// edges) of the socket runtime: framed messages and payload bytes in each
/// direction, connection replacements, and frames whose payload failed to
/// decode.
///
/// On a clean quiesced run frames are conserved per edge: everything one
/// side sent, the other side received (`decode_errors == 0`,
/// `reconnects == 0`). The in-process runtimes move messages without a
/// codec, so their transport counters are all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportCounters {
    /// Frames written to the stream.
    pub frames_sent: u64,
    /// Frames read off the stream.
    pub frames_received: u64,
    /// Bytes written, including each frame's length prefix.
    pub bytes_sent: u64,
    /// Bytes read, including each frame's length prefix.
    pub bytes_received: u64,
    /// Times this edge's connection was replaced after a disconnect.
    pub reconnects: u64,
    /// Received frames whose payload failed to decode (and were skipped).
    pub decode_errors: u64,
}

impl TransportCounters {
    /// All-zero counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &TransportCounters) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.reconnects += other.reconnects;
        self.decode_errors += other.decode_errors;
    }

    /// Machine-readable form for the benchmark and `loadgen`.
    #[must_use]
    pub fn to_json(&self) -> crate::Json {
        crate::Json::object()
            .with("frames_sent", self.frames_sent)
            .with("frames_received", self.frames_received)
            .with("bytes_sent", self.bytes_sent)
            .with("bytes_received", self.bytes_received)
            .with("reconnects", self.reconnects)
            .with("decode_errors", self.decode_errors)
    }

    /// Rebuilds counters from [`TransportCounters::to_json`] output.
    #[must_use]
    pub fn from_json(json: &crate::Json) -> Option<Self> {
        let field = |name: &str| json.get(name).and_then(crate::Json::as_u64);
        Some(TransportCounters {
            frames_sent: field("frames_sent")?,
            frames_received: field("frames_received")?,
            bytes_sent: field("bytes_sent")?,
            bytes_received: field("bytes_received")?,
            reconnects: field("reconnects")?,
            decode_errors: field("decode_errors")?,
        })
    }
}

impl fmt::Display for TransportCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames={}tx/{}rx bytes={}tx/{}rx reconnects={} decode_errors={}",
            self.frames_sent,
            self.frames_received,
            self.bytes_sent,
            self.bytes_received,
            self.reconnects,
            self.decode_errors
        )
    }
}

impl std::ops::Add for TransportCounters {
    type Output = TransportCounters;

    fn add(mut self, rhs: TransportCounters) -> TransportCounters {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for TransportCounters {
    fn sum<I: Iterator<Item = TransportCounters>>(iter: I) -> TransportCounters {
        iter.fold(TransportCounters::new(), |acc, c| acc + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ProtocolMetrics {
            messages: 1,
            proofs: 2,
            rounds: 3,
            forced_logs: 4,
            round_trips: 7,
            commits: 5,
            aborts: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.messages, 2);
        assert_eq!(a.round_trips, 14);
        assert_eq!(a.aborts, 12);
        assert_eq!(a.transactions(), 22);
    }

    #[test]
    fn abort_rate_handles_zero() {
        assert_eq!(ProtocolMetrics::new().abort_rate(), 0.0);
        let m = ProtocolMetrics {
            commits: 3,
            aborts: 1,
            ..Default::default()
        };
        assert!((m.abort_rate() - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn sum_over_iterator() {
        let total: ProtocolMetrics = (0..3)
            .map(|_| ProtocolMetrics {
                messages: 10,
                ..Default::default()
            })
            .sum();
        assert_eq!(total.messages, 30);
    }

    #[test]
    fn transport_counters_round_trip_json_and_merge() {
        let a = TransportCounters {
            frames_sent: 5,
            frames_received: 4,
            bytes_sent: 512,
            bytes_received: 480,
            reconnects: 1,
            decode_errors: 2,
        };
        assert_eq!(TransportCounters::from_json(&a.to_json()), Some(a));
        let total: TransportCounters = [a, a].into_iter().sum();
        assert_eq!(total.frames_sent, 10);
        assert_eq!(total.bytes_received, 960);
        assert_eq!(total.decode_errors, 4);
        let shown = a.to_string();
        assert!(shown.contains("reconnects=1"));
    }

    #[test]
    fn cache_stats_merge_and_rate() {
        let mut stats = ProofCacheStats {
            hits: 3,
            misses: 1,
            invalidations: 2,
        };
        stats.merge(&ProofCacheStats {
            hits: 1,
            misses: 3,
            invalidations: 0,
        });
        assert_eq!(stats.lookups(), 8);
        assert!((stats.hit_rate() - 0.5).abs() < f64::EPSILON);
        assert_eq!(stats.invalidations, 2);
        assert_eq!(ProofCacheStats::new().hit_rate(), 0.0);
    }

    #[test]
    fn protocol_metrics_json_round_trip() {
        let m = ProtocolMetrics {
            messages: 17,
            proofs: 5,
            rounds: 2,
            forced_logs: 9,
            round_trips: 5,
            commits: 3,
            aborts: 1,
        };
        let text = m.to_json().render();
        let parsed = crate::Json::parse(&text).expect("valid json");
        assert_eq!(ProtocolMetrics::from_json(&parsed), Some(m));
        assert_eq!(ProtocolMetrics::from_json(&crate::Json::Null), None);
        // A file written before `round_trips` existed still parses.
        let old = crate::Json::parse(&text.replace("\"round_trips\":5,", "")).expect("valid json");
        let want = ProtocolMetrics {
            round_trips: 0,
            ..m
        };
        assert_eq!(ProtocolMetrics::from_json(&old), Some(want));
    }

    #[test]
    fn cache_stats_json_round_trip() {
        let s = ProofCacheStats {
            hits: 11,
            misses: 4,
            invalidations: 2,
        };
        let parsed = crate::Json::parse(&s.to_json().render()).expect("valid json");
        assert_eq!(ProofCacheStats::from_json(&parsed), Some(s));
    }

    #[test]
    fn fault_counters_merge_and_json_round_trip() {
        let mut c = FaultCounters {
            faults_dropped: 3,
            faults_delayed: 2,
            faults_duplicated: 1,
            faults_reordered: 4,
            faults_corrupted: 2,
            faults_truncated: 1,
            disconnects: 1,
            reconnect_exhausted: 1,
            server_crashes: 1,
            recoveries: 1,
            timeout_aborts: 2,
        };
        c.merge(&c.clone());
        assert_eq!(c.faults_dropped, 6);
        assert_eq!(c.faults_corrupted, 4);
        assert_eq!(c.faults_injected(), 28);
        let parsed = crate::Json::parse(&c.to_json().render()).expect("valid json");
        assert_eq!(FaultCounters::from_json(&parsed), Some(c));
        assert_eq!(FaultCounters::from_json(&crate::Json::Null), None);
    }

    #[test]
    fn cache_stats_sum() {
        let total: ProofCacheStats = (0..4)
            .map(|_| ProofCacheStats {
                hits: 2,
                misses: 1,
                invalidations: 1,
            })
            .sum();
        assert_eq!(total.hits, 8);
        assert_eq!(total.misses, 4);
        assert_eq!(total.invalidations, 4);
    }

    #[test]
    fn wal_stats_merge_json_and_savings() {
        let total: WalStats = (0..3)
            .map(|_| WalStats {
                forced_logs: 7,
                physical_syncs: 2,
            })
            .sum();
        assert_eq!(total.forced_logs, 21);
        assert_eq!(total.physical_syncs, 6);
        assert_eq!(total.syncs_saved(), 15);
        let parsed = crate::Json::parse(&total.to_json().render()).expect("valid json");
        assert_eq!(WalStats::from_json(&parsed), Some(total));
        assert_eq!(WalStats::from_json(&crate::Json::Null), None);
        assert_eq!(total.to_string(), "forced_logs=21 physical_syncs=6");
    }
}
