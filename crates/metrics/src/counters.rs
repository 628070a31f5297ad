//! Protocol cost counters.
//!
//! Every counter block is a flat struct of `u64` fields, stated once in a
//! `counters!` invocation that generates the struct, `new`, `merge`,
//! `fields`, `Display` (`name=value` per field), `Add` and `Sum`.

use std::fmt;

macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$field_meta:meta])* pub $field:ident: u64,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl $name {
            /// All-zero counters.
            #[must_use]
            pub fn new() -> Self {
                Self::default()
            }

            /// Element-wise accumulation.
            pub fn merge(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field)),*].into_iter()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, (name, value)) in self.fields().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{name}={value}")?;
                }
                Ok(())
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;

            fn add(mut self, rhs: $name) -> $name {
                self.merge(&rhs);
                self
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::new(), |acc, c| acc + c)
            }
        }
    };
}

counters! {
    /// The cost metrics of one (or many aggregated) transaction executions,
    /// matching Section VI's cost model.
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
        pub round_trips: u64,
        /// Transactions committed.
        pub commits: u64,
        /// Transactions aborted.
        pub aborts: u64,
    }
}

impl ProtocolMetrics {
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

counters! {
    /// Instrumentation for a server's proof-of-authorization cache.
    ///
    /// These counters track *wall-clock* savings only: a cache hit still counts
    /// as a proof evaluation in [`ProtocolMetrics::proofs`] (Table I's cost
    /// model is unchanged by caching), so they live beside — never inside —
    /// the paper-model metrics.
    pub struct ProofCacheStats {
        /// Evaluations answered from cache (no engine run, no oracle call).
        pub hits: u64,
        /// Evaluations that ran the engine and populated the cache.
        pub misses: u64,
        /// Cached proofs dropped by an invalidation event (policy install,
        /// CA state change, ambient-fact or resource-map update).
        pub invalidations: u64,
    }
}

impl ProofCacheStats {
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

counters! {
    /// Fault-injection and crash-recovery instrumentation for a live cluster.
    ///
    /// These counters record what the fault layer *did* (messages dropped,
    /// delayed, duplicated, reordered; servers crashed and recovered) and what
    /// the TM *observed* (protocol phases that hit their reply deadline). They
    /// sit beside the paper-model [`ProtocolMetrics`]: injected faults change
    /// wall-clock behaviour and liveness, never the Table I cost accounting of
    /// the transactions that do complete.
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
        /// Servers crashed, by a scheduled crash point or by the harness.
        pub server_crashes: u64,
        /// Servers rebuilt from their WAL after a crash.
        pub recoveries: u64,
        /// Protocol phases the TM abandoned at the reply deadline (aborted
        /// with `ServerUnavailable`).
        pub timeout_aborts: u64,
    }
}

impl FaultCounters {
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
}

counters! {
    /// Routing accounting for a deployment in several decision-log groups
    /// ("shards"): how many transactions stayed inside one group (their
    /// decision goes to one log) and how many were driven through
    /// cross-group 2PVC, split by final outcome.
    ///
    /// Conservation: `single_shard_submitted + cross_shard_submitted` equals
    /// the executions the router performed, and within each class
    /// `submitted == commits + aborts` once the deployment has quiesced.
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
}

impl RouteCounters {
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
}

counters! {
    /// Write-ahead-log force accounting, split into the paper's logical metric
    /// and the physical syncs group commit amortizes them into.
    ///
    /// `forced_logs` is Table I's `2n + 1` log complexity and is byte-identical
    /// whether or not group commit is active; `physical_syncs` is a wall-clock
    /// counter (like [`ProofCacheStats`]) showing how many device syncs those
    /// forces actually cost. `physical_syncs ≤ forced_logs` always; strictly
    /// smaller when any server round coalesced two or more forces.
    pub struct WalStats {
        /// Logical forced log writes (the paper's log-complexity metric).
        pub forced_logs: u64,
        /// Physical device syncs performed for those forces.
        pub physical_syncs: u64,
    }
}

impl WalStats {
    /// Logical forces amortized away: `forced_logs − physical_syncs`.
    #[must_use]
    pub fn syncs_saved(&self) -> u64 {
        self.forced_logs.saturating_sub(self.physical_syncs)
    }
}

counters! {
    /// Byte-stream transport accounting for one edge (or an aggregate over
    /// edges) of the socket runtime: framed messages and payload bytes in each
    /// direction, connection replacements, and frames whose payload failed to
    /// decode.
    ///
    /// On a clean quiesced run frames are conserved per edge: everything one
    /// side sent, the other side received (`decode_errors == 0`,
    /// `reconnects == 0`). The in-process runtimes move messages without a
    /// codec, so their transport counters are all zero.
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
    fn transport_counters_merge_and_display() {
        let a = TransportCounters {
            frames_sent: 5,
            frames_received: 4,
            bytes_sent: 512,
            bytes_received: 480,
            reconnects: 1,
            decode_errors: 2,
        };
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
    fn fault_counters_merge_and_injected() {
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
    fn wal_stats_merge_and_savings() {
        let total: WalStats = (0..3)
            .map(|_| WalStats {
                forced_logs: 7,
                physical_syncs: 2,
            })
            .sum();
        assert_eq!(total.forced_logs, 21);
        assert_eq!(total.physical_syncs, 6);
        assert_eq!(total.syncs_saved(), 15);
        assert_eq!(total.to_string(), "forced_logs=21 physical_syncs=6");
    }
}
