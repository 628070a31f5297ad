//! Partitioned (sharded) deployment of the threaded runtime.
//!
//! A [`ShardedCluster`] splits the server id space into `N` shards, each a
//! full [`Cluster`] with its own server threads, fault fabric, WAL set and
//! decision log, all sharing one policy catalog, one certificate-authority
//! registry and one protocol-time epoch. A router classifies each
//! transaction by the servers its queries touch:
//!
//! - **Single-shard** transactions (every participant inside one shard)
//!   run entirely inside that shard via its own [`Cluster::execute`] — no
//!   cross-shard coordination of any kind, which also makes a 1-shard
//!   deployment *byte-identical* to a plain cluster.
//! - **Cross-shard** transactions are driven by a coordinating TM through
//!   the full 2PV/2PVC pipeline across the union of participant servers
//!   (the same shared TM loop the single-shard path uses), with
//!   every decision record force-logged into **each** participant shard's
//!   decision log before participants learn it — so any shard's recovery
//!   inquiry can be answered locally, and force-before-vote and Table-I
//!   accounting are preserved per shard.
//!
//! Key-space partitioning is by server ownership: the workload maps items
//! to servers, and contiguous server ranges belong to shards, so a
//! hash/range key partition is exactly a server partition.

use crate::cluster::{Addr, ChannelLink, Cluster, Net};
use crate::deployment::{
    Authority, ClusterConfig, DecisionLog, Deployment, ExecutionResult, Topology,
};
use crate::fault::{FaultPlan, FaultStats};
use safetx_core::{ServerCore, SharedCas, SharedCatalog, TmCrashPoint};
use safetx_metrics::{FaultCounters, RouteCounters, WalStats};
use safetx_policy::Credential;
use safetx_store::LocalStore;
use safetx_txn::{CoordinatorRecord, TransactionSpec};
use safetx_types::{PolicyId, PolicyVersion, ServerId, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sharded deployment configuration.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (each a full [`Cluster`]).
    pub shards: usize,
    /// Per-shard cluster template; its `servers` field is the number of
    /// servers **per shard**. `reply_timeout`, scheme, consistency,
    /// variant and batch settings apply to every shard and to the
    /// cross-shard coordinator alike.
    pub cluster: ClusterConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 2,
            cluster: ClusterConfig::default(),
        }
    }
}

/// How the router classified one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRoute {
    /// Every participant server lives in this one shard.
    Single(usize),
    /// Participants span these shards (sorted, ≥ 2 entries).
    Cross(Vec<usize>),
}

impl TxnRoute {
    /// True for the single-shard fast path.
    #[must_use]
    pub fn is_single(&self) -> bool {
        matches!(self, TxnRoute::Single(_))
    }
}

/// Counters of one routing class.
#[derive(Default)]
struct RouteClass {
    submitted: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// A partitioned deployment: `shards` independent [`Cluster`]s over one
/// shared catalog/CA/epoch, plus the router and cross-shard coordinator.
pub struct ShardedCluster {
    config: ShardedConfig,
    shards: Vec<Cluster>,
    /// Every shard's message fabric, in shard order: what a cross-shard
    /// coordinator's sends cross.
    nets: Vec<Arc<Net>>,
    next_txn: AtomicU64,
    single: RouteClass,
    cross: RouteClass,
    /// Stale replies and reply-deadline aborts of cross-shard coordinators
    /// (per-shard drivers count into their own cluster).
    cross_stats: FaultStats,
}

impl ShardedCluster {
    /// Spawns every shard over one shared [`Topology`] — the same
    /// bootstrap as [`Cluster::new`], with a disjoint server-id range per
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `cluster.servers` is zero.
    #[must_use]
    pub fn new(config: ShardedConfig) -> Self {
        assert!(config.shards > 0, "at least one shard required");
        assert!(
            config.cluster.servers > 0,
            "at least one server per shard required"
        );
        let shared = Topology::fresh();
        let per_shard = config.cluster.servers as u64;
        let shards: Vec<Cluster> = (0..config.shards as u64)
            .map(|s| {
                let topology = Topology {
                    first_server: s * per_shard,
                    ..shared.clone()
                };
                Cluster::with_topology(config.cluster.clone(), topology)
            })
            .collect();
        ShardedCluster {
            nets: shards.iter().map(|s| Arc::clone(&s.link().net)).collect(),
            config,
            shards,
            next_txn: AtomicU64::new(0),
            single: RouteClass::default(),
            cross: RouteClass::default(),
            cross_stats: FaultStats::default(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Servers per shard.
    #[must_use]
    pub fn servers_per_shard(&self) -> usize {
        self.config.cluster.servers
    }

    /// Total servers across every shard.
    #[must_use]
    pub fn total_servers(&self) -> usize {
        self.shards() * self.servers_per_shard()
    }

    /// One shard's cluster (for audits, probes and tests — its decision
    /// log holds the records of every transaction the shard took part in).
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    #[must_use]
    pub fn shard(&self, index: usize) -> &Cluster {
        &self.shards[index]
    }

    /// The shard owning a (globally identified) server.
    ///
    /// # Panics
    ///
    /// Panics when the id is outside the deployment.
    #[must_use]
    pub fn shard_of(&self, server: ServerId) -> usize {
        let shard = (server.index() / self.servers_per_shard() as u64) as usize;
        assert!(
            shard < self.shards(),
            "server {server} outside the deployment"
        );
        shard
    }

    fn owner(&self, server: ServerId) -> &Cluster {
        &self.shards[self.shard_of(server)]
    }

    /// Classifies a transaction by the shards its queries touch.
    ///
    /// # Panics
    ///
    /// Panics when the spec has no queries or names a server outside the
    /// deployment.
    #[must_use]
    pub fn route_of(&self, spec: &TransactionSpec) -> TxnRoute {
        let mut shards: Vec<usize> = spec
            .participants()
            .into_iter()
            .map(|s| self.shard_of(s))
            .collect();
        shards.dedup();
        match shards.as_slice() {
            [] => panic!("transaction {} has no participants", spec.id),
            [only] => TxnRoute::Single(*only),
            _ => TxnRoute::Cross(shards),
        }
    }

    /// Runs one transaction where its route says: a single-shard spec
    /// verbatim through its shard's own TM path — no cross-shard
    /// coordination of any kind — and a cross-shard spec through the same
    /// shared TM loop across every shard's fabric, with each decision
    /// record replicated into every participant shard's log (forced
    /// *before* participants are told, so any shard's recovery inquiry is
    /// answered locally).
    fn coordinate(
        &self,
        route: &TxnRoute,
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
    ) -> Option<ExecutionResult> {
        let participants = match route {
            TxnRoute::Single(shard) => {
                return self.shards[*shard].coordinate(spec, credentials, crash)
            }
            TxnRoute::Cross(participants) => participants,
        };
        let logs: Vec<&DecisionLog> = participants
            .iter()
            .map(|&shard| &*self.shards[shard].decision_log)
            .collect();
        let authority = Authority {
            topology: &self.shards[0].topology,
            logs: &logs,
        };
        let (io, config) = (ChannelLink::open_over(&self.nets), &self.config.cluster);
        authority.run_tm(io, config, spec, credentials, crash, &self.cross_stats)
    }

    /// Applies a closure to a server's core on its owning shard (see
    /// [`Cluster::configure_server`]).
    pub fn configure_server<R>(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut ServerCore<Addr>) -> R,
    ) -> R {
        self.owner(server).configure_server(server, f)
    }

    /// Stops every shard's server threads and waits for them.
    pub fn shutdown(self) {
        // The shards' `Drop` does it.
    }
}

/// The sharded aggregation of the control plane: routed by owner where a
/// method names a server, summed or concatenated over the shards where it
/// names none.
impl Deployment for ShardedCluster {
    fn config(&self) -> &ClusterConfig {
        &self.config.cluster
    }

    fn catalog(&self) -> &SharedCatalog {
        self.shards[0].catalog()
    }

    fn cas(&self) -> &SharedCas {
        self.shards[0].cas()
    }

    /// One sequence across all shards.
    fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    fn server_ids(&self) -> Vec<ServerId> {
        (0..self.total_servers() as u64)
            .map(ServerId::new)
            .collect()
    }

    fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult {
        let route = self.route_of(spec);
        let class = if route.is_single() {
            &self.single
        } else {
            &self.cross
        };
        class.submitted.fetch_add(1, Ordering::Relaxed);
        let result = self
            .coordinate(&route, spec, credentials, None)
            .expect("no coordinator crash scheduled");
        let outcome = if result.is_commit() {
            &class.commits
        } else {
            &class.aborts
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// The victim is the single-shard TM or the cross-shard coordinator,
    /// whichever the route selects. Route counters are deliberately not
    /// touched: a dead coordinator reports nothing.
    ///
    /// For a cross-shard victim this is the scenario the replicated
    /// decision logs exist for: every `ForceLog` record was written to
    /// **each** participant shard's log before any send, so each shard
    /// terminates its own participants locally — no shard ever wedges on a
    /// dead remote coordinator.
    fn execute_with_coordinator_crash(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        point: TmCrashPoint,
    ) -> Option<ExecutionResult> {
        self.coordinate(&self.route_of(spec), spec, credentials, Some(point))
    }

    fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion) {
        for shard in &self.shards {
            shard.install_everywhere(policy, version);
        }
    }

    fn with_store(&self, server: ServerId, f: &mut dyn FnMut(&mut LocalStore)) {
        self.owner(server).with_store(server, f);
    }

    fn crash_server(&self, server: ServerId) {
        self.owner(server).crash_server(server);
    }

    fn restart_server(&self, server: ServerId) {
        self.owner(server).restart_server(server);
    }

    fn crashed_servers(&self) -> Vec<ServerId> {
        let crashed = self.shards.iter().map(|shard| shard.crashed_servers());
        crashed.flatten().collect()
    }

    /// Each shard resolves its own servers from its own decision log.
    fn resolve_in_doubt(&self) -> usize {
        self.shards.iter().map(|s| s.resolve_in_doubt()).sum()
    }

    fn decision_log_records(&self) -> Vec<CoordinatorRecord> {
        let logs = self.shards.iter().map(|s| s.decision_log_records());
        logs.flatten().collect()
    }

    /// The same plan on every shard's fabric. Edge rules apply within each
    /// shard (cross-matching by peer); a crash rule fires on whichever
    /// shard owns the victim server (global ids are disjoint across
    /// shards, so exactly one fabric can match it).
    fn set_fault_plan(&self, plan: FaultPlan) {
        for shard in &self.shards {
            shard.set_fault_plan(plan.clone());
        }
    }

    fn clear_fault_plan(&self) {
        for shard in &self.shards {
            shard.clear_fault_plan();
        }
    }

    fn fault_counters(&self) -> FaultCounters {
        let mut total = self.cross_stats.snapshot();
        for shard in &self.shards {
            total.merge(&shard.fault_counters());
        }
        total
    }

    fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for shard in &self.shards {
            total.merge(&shard.wal_stats());
        }
        total
    }

    fn dropped_replies(&self) -> u64 {
        let shards: u64 = self.shards.iter().map(|s| s.dropped_replies()).sum();
        shards + self.cross_stats.stale_replies.load(Ordering::Relaxed)
    }

    fn route_counters(&self) -> RouteCounters {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        RouteCounters {
            single_shard_submitted: get(&self.single.submitted),
            single_shard_commits: get(&self.single.commits),
            single_shard_aborts: get(&self.single.aborts),
            cross_shard_submitted: get(&self.cross.submitted),
            cross_shard_commits: get(&self.cross.commits),
            cross_shard_aborts: get(&self.cross.aborts),
        }
    }
}

impl std::ops::Deref for ShardedCluster {
    type Target = dyn Deployment;

    fn deref(&self) -> &Self::Target {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetx_core::{AbortReason, ConsistencyLevel, ProofScheme};
    use safetx_policy::{Atom, Constant, PolicyBuilder};
    use safetx_txn::{CommitVariant, Operation, QuerySpec};
    use safetx_types::{AdminDomain, CaId, DataItemId, Timestamp, UserId};

    fn sharded(shards: usize, servers: usize) -> ShardedCluster {
        let cluster = ShardedCluster::new(ShardedConfig {
            shards,
            cluster: ClusterConfig {
                servers,
                scheme: ProofScheme::Deferred,
                consistency: ConsistencyLevel::View,
                variant: CommitVariant::Standard,
                ..ClusterConfig::default()
            },
        });
        let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text(
                "grant(read, records) :- role(U, member).\n\
                 grant(write, records) :- role(U, member).",
            )
            .unwrap()
            .build();
        cluster.publish_policy(policy);
        cluster
    }

    fn credential(cluster: &ShardedCluster) -> Credential {
        cluster.cas().with_mut(|registry| {
            registry.ca_mut(CaId::new(0)).unwrap().issue(
                UserId::new(1),
                Atom::fact(
                    "role",
                    vec![Constant::symbol("u1"), Constant::symbol("member")],
                ),
                Timestamp::ZERO,
                Timestamp::MAX,
            )
        })
    }

    fn write_spec(cluster: &ShardedCluster, servers: &[u64]) -> TransactionSpec {
        TransactionSpec::new(
            cluster.next_txn_id(),
            UserId::new(1),
            servers
                .iter()
                .map(|&s| {
                    QuerySpec::new(
                        ServerId::new(s),
                        "write",
                        "records",
                        vec![Operation::Add(DataItemId::new(s * 100), 1)],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn routes_by_participant_shards() {
        let cluster = sharded(2, 2);
        assert_eq!(
            cluster.route_of(&write_spec(&cluster, &[0, 1])),
            TxnRoute::Single(0)
        );
        assert_eq!(
            cluster.route_of(&write_spec(&cluster, &[2, 3])),
            TxnRoute::Single(1)
        );
        assert_eq!(
            cluster.route_of(&write_spec(&cluster, &[1, 2])),
            TxnRoute::Cross(vec![0, 1])
        );
        cluster.shutdown();
    }

    #[test]
    fn single_shard_transactions_commit_in_their_shard() {
        let cluster = sharded(2, 2);
        let cred = credential(&cluster);
        let result = cluster.execute(&write_spec(&cluster, &[2, 3]), &[cred]);
        assert!(result.is_commit(), "{:?}", result.outcome);
        let counters = cluster.route_counters();
        assert_eq!(counters.single_shard_commits, 1);
        assert_eq!(counters.cross_shard_submitted, 0);
        // The decision was logged only in the owning shard.
        assert!(cluster.shard(0).decision_log_records().is_empty());
        assert!(!cluster.shard(1).decision_log_records().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_transactions_commit_and_replicate_decisions() {
        let cluster = sharded(2, 2);
        let cred = credential(&cluster);
        let result = cluster.execute(&write_spec(&cluster, &[0, 2]), &[cred]);
        assert!(result.is_commit(), "{:?}", result.outcome);
        let counters = cluster.route_counters();
        assert_eq!(counters.cross_shard_commits, 1);
        assert!(counters.conserves());
        // Both participant shards hold the full decision record set.
        assert!(!cluster.shard(0).decision_log_records().is_empty());
        assert_eq!(
            cluster.shard(0).decision_log_records().len(),
            cluster.shard(1).decision_log_records().len()
        );
        // The writes landed on both shards.
        for server in [0u64, 2] {
            let (tx, rx) = crossbeam::channel::unbounded();
            cluster.configure_server(ServerId::new(server), move |core| {
                let _ = tx.send(core.store().read_int(DataItemId::new(server * 100)));
            });
            assert_eq!(rx.recv().unwrap(), Some(1), "server {server}");
        }
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_denial_aborts_without_credentials() {
        let cluster = sharded(2, 2);
        let result = cluster.execute(&write_spec(&cluster, &[1, 3]), &[]);
        assert_eq!(result.outcome.abort_reason(), Some(AbortReason::ProofFalse));
        let counters = cluster.route_counters();
        assert_eq!(counters.cross_shard_aborts, 1);
        assert!(counters.conserves());
        cluster.shutdown();
    }
}
