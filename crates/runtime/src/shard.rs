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

use crate::cluster::{ChannelTm, Cluster, ClusterConfig, ExecutionResult};
use crate::fault::FaultPlan;
use safetx_core::{SharedCas, SharedCatalog, TmCrashPoint};
use safetx_metrics::{FaultCounters, Histogram, RouteCounters, WalStats};
use safetx_policy::{CaRegistry, CertificateAuthority, Credential};
use safetx_txn::{CoordinatorRecord, TransactionSpec};
use safetx_types::{CaId, PolicyId, PolicyVersion, ServerId, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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

/// Per-class routing counters (atomic mirror of [`RouteCounters`]).
#[derive(Default)]
struct RouteStats {
    single_submitted: AtomicU64,
    single_commits: AtomicU64,
    single_aborts: AtomicU64,
    cross_submitted: AtomicU64,
    cross_commits: AtomicU64,
    cross_aborts: AtomicU64,
}

impl RouteStats {
    fn snapshot(&self) -> RouteCounters {
        RouteCounters {
            single_shard_submitted: self.single_submitted.load(Ordering::Relaxed),
            single_shard_commits: self.single_commits.load(Ordering::Relaxed),
            single_shard_aborts: self.single_aborts.load(Ordering::Relaxed),
            cross_shard_submitted: self.cross_submitted.load(Ordering::Relaxed),
            cross_shard_commits: self.cross_commits.load(Ordering::Relaxed),
            cross_shard_aborts: self.cross_aborts.load(Ordering::Relaxed),
        }
    }
}

/// A partitioned deployment: `shards` independent [`Cluster`]s over one
/// shared catalog/CA/epoch, plus the router and cross-shard coordinator.
pub struct ShardedCluster {
    config: ShardedConfig,
    shards: Vec<Cluster>,
    catalog: SharedCatalog,
    cas: SharedCas,
    next_txn: AtomicU64,
    route: RouteStats,
    /// Stale replies observed by cross-shard coordinators (per-shard
    /// drivers count into their own cluster).
    cross_dropped: AtomicU64,
    /// Reply-deadline aborts taken by cross-shard coordinators.
    cross_timeout_aborts: AtomicU64,
    /// Wall-clock latency of single-shard executions, milliseconds.
    single_latency_ms: Mutex<Histogram>,
    /// Wall-clock latency of cross-shard executions, milliseconds.
    cross_latency_ms: Mutex<Histogram>,
}

impl ShardedCluster {
    /// Spawns every shard. One certificate authority (`CA0`) is registered
    /// in the shared registry; every resource maps to [`PolicyId`] 0 —
    /// the same bootstrap as [`Cluster::new`].
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
        let catalog = SharedCatalog::new();
        let mut registry = CaRegistry::new();
        registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
        let cas = SharedCas::new(registry);
        let epoch = Instant::now();
        let per_shard = config.cluster.servers as u64;
        let shards = (0..config.shards)
            .map(|s| {
                Cluster::with_topology(
                    config.cluster.clone(),
                    s as u64 * per_shard,
                    catalog.clone(),
                    cas.clone(),
                    epoch,
                )
            })
            .collect();
        ShardedCluster {
            config,
            shards,
            catalog,
            cas,
            next_txn: AtomicU64::new(0),
            route: RouteStats::default(),
            cross_dropped: AtomicU64::new(0),
            cross_timeout_aborts: AtomicU64::new(0),
            single_latency_ms: Mutex::new(Histogram::new()),
            cross_latency_ms: Mutex::new(Histogram::new()),
        }
    }

    /// The deployment configuration.
    #[must_use]
    pub fn sharded_config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The per-shard cluster template (scheme, consistency, variant,
    /// timeouts) — the protocol configuration every coordinator runs with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config.cluster
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

    /// One shard's cluster (for audits, probes and tests).
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

    /// The shared policy catalog.
    #[must_use]
    pub fn catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// The shared certificate authorities.
    #[must_use]
    pub fn cas(&self) -> &SharedCas {
        &self.cas
    }

    /// A fresh transaction id (one sequence across all shards).
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Executes one transaction, routing it by its participant set:
    /// single-shard specs run verbatim through their shard's
    /// [`Cluster::execute`]; cross-shard specs are driven by this
    /// coordinator through the same shared TM loop across the union of
    /// participant servers.
    #[must_use]
    pub fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult {
        match self.route_of(spec) {
            TxnRoute::Single(shard) => {
                self.route.single_submitted.fetch_add(1, Ordering::Relaxed);
                let result = self.shards[shard].execute(spec, credentials);
                if result.is_commit() {
                    self.route.single_commits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.route.single_aborts.fetch_add(1, Ordering::Relaxed);
                }
                self.single_latency_ms
                    .lock()
                    .expect("latency lock")
                    .record(result.elapsed.as_secs_f64() * 1_000.0);
                result
            }
            TxnRoute::Cross(participants) => {
                self.route.cross_submitted.fetch_add(1, Ordering::Relaxed);
                let result = self
                    .run_cross_shard(&participants, spec, credentials, None)
                    .expect("no coordinator crash scheduled");
                if result.is_commit() {
                    self.route.cross_commits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.route.cross_aborts.fetch_add(1, Ordering::Relaxed);
                }
                self.cross_latency_ms
                    .lock()
                    .expect("latency lock")
                    .record(result.elapsed.as_secs_f64() * 1_000.0);
                result
            }
        }
    }

    /// Executes one transaction whose coordinator dies at the given
    /// protocol moment — the single-shard TM or the cross-shard
    /// coordinator, whichever the route selects. Returns `None` when the
    /// crash fired (`Some` when the transaction finished first). Route
    /// counters and latency histograms are deliberately not touched: a
    /// dead coordinator reports nothing.
    ///
    /// For a cross-shard victim this is the scenario the replicated
    /// decision logs exist for: every `ForceLog` record was written to
    /// **each** participant shard's log before any send, so each shard's
    /// [`Cluster::resolve_in_doubt`] terminates its own participants
    /// locally — no shard ever wedges on a dead remote coordinator.
    #[must_use]
    pub fn execute_with_coordinator_crash(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        point: TmCrashPoint,
    ) -> Option<ExecutionResult> {
        match self.route_of(spec) {
            TxnRoute::Single(shard) => {
                self.shards[shard].execute_with_coordinator_crash(spec, credentials, point)
            }
            TxnRoute::Cross(participants) => {
                self.run_cross_shard(&participants, spec, credentials, Some(point))
            }
        }
    }

    /// The cross-shard coordinator: the shared TM loop over every shard,
    /// with each decision record replicated into every participant
    /// shard's log.
    fn run_cross_shard(
        &self,
        participants: &[usize],
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
    ) -> Option<ExecutionResult> {
        ChannelTm::new(&self.shards, participants).run(
            spec,
            credentials,
            crash,
            (&self.cross_dropped, &self.cross_timeout_aborts),
        )
    }

    /// Arms the same fault plan on every shard's message fabric. Edge
    /// rules apply within each shard (cross-matching by peer); a crash
    /// rule fires on whichever shard owns the victim server (global ids
    /// are disjoint across shards, so exactly one fabric can match it).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        for shard in &self.shards {
            shard.set_fault_plan(plan.clone());
        }
    }

    /// Disarms every shard's fault fabric.
    pub fn clear_fault_plan(&self) {
        for shard in &self.shards {
            shard.clear_fault_plan();
        }
    }

    /// Publishes a policy version once to the shared catalog and notifies
    /// every replica in every shard.
    pub fn publish_policy(&self, policy: safetx_policy::Policy) {
        let id = policy.id();
        let version = policy.version();
        self.catalog.publish(policy);
        for shard in &self.shards {
            shard.install_everywhere(id, version);
        }
    }

    /// Installs a policy version at every replica of every shard without
    /// publishing a new catalog entry.
    pub fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion) {
        for shard in &self.shards {
            shard.install_everywhere(policy, version);
        }
    }

    /// Applies a configuration closure on the owning shard's server thread
    /// and waits for it.
    pub fn configure_server(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut safetx_core::ServerCore<crate::Addr>) + Send + 'static,
    ) {
        self.shards[self.shard_of(server)].configure_server(server, f);
    }

    /// Kills a server thread (see [`Cluster::crash_server`]).
    pub fn crash_server(&self, server: ServerId) {
        self.shards[self.shard_of(server)].crash_server(server);
    }

    /// Restarts a crashed server (see [`Cluster::restart_server`]).
    pub fn restart_server(&self, server: ServerId) {
        self.shards[self.shard_of(server)].restart_server(server);
    }

    /// Servers currently crashed, across every shard.
    #[must_use]
    pub fn crashed_servers(&self) -> Vec<ServerId> {
        self.shards
            .iter()
            .flat_map(Cluster::crashed_servers)
            .collect()
    }

    /// Resolves in-doubt transactions on every shard's quiesced servers
    /// from that shard's decision log; returns the total resolved.
    pub fn resolve_in_doubt(&self) -> usize {
        self.shards.iter().map(Cluster::resolve_in_doubt).sum()
    }

    /// One shard's coordinator decision log, oldest record first. A
    /// cross-shard transaction's records appear in **every** participant
    /// shard's log.
    #[must_use]
    pub fn decision_log_records(&self, shard: usize) -> Vec<CoordinatorRecord> {
        self.shards[shard].decision_log_records()
    }

    /// Stale replies observed across every shard's drivers and every
    /// cross-shard coordinator.
    #[must_use]
    pub fn dropped_replies(&self) -> u64 {
        self.shards
            .iter()
            .map(Cluster::dropped_replies)
            .sum::<u64>()
            + self.cross_dropped.load(Ordering::Relaxed)
    }

    /// Fault and recovery counters merged over every shard, plus the
    /// cross-shard coordinators' reply-deadline aborts.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for shard in &self.shards {
            total.merge(&shard.fault_counters());
        }
        total.timeout_aborts += self.cross_timeout_aborts.load(Ordering::Relaxed);
        total
    }

    /// WAL accounting merged over every server of every shard. Meaningful
    /// on a quiesced deployment, like [`Cluster::wal_stats`].
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for shard in &self.shards {
            total.merge(&shard.wal_stats());
        }
        total
    }

    /// Single- vs cross-shard submission/commit/abort counters.
    #[must_use]
    pub fn route_counters(&self) -> RouteCounters {
        self.route.snapshot()
    }

    /// Wall-clock latency split: (single-shard, cross-shard) histograms in
    /// milliseconds, one sample per execution.
    ///
    /// # Panics
    ///
    /// Panics when a latency mutex is poisoned.
    #[must_use]
    pub fn route_latency_ms(&self) -> (Histogram, Histogram) {
        (
            self.single_latency_ms.lock().expect("latency lock").clone(),
            self.cross_latency_ms.lock().expect("latency lock").clone(),
        )
    }

    /// Server threads currently running, across every shard.
    #[must_use]
    pub fn live_servers(&self) -> usize {
        self.shards.iter().map(Cluster::live_servers).sum()
    }

    /// Stops every shard's server threads and waits for them.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetx_core::{AbortReason, ConsistencyLevel, ProofScheme};
    use safetx_policy::{Atom, Constant, PolicyBuilder};
    use safetx_txn::{CommitVariant, Operation, QuerySpec};
    use safetx_types::{AdminDomain, DataItemId, Timestamp, UserId};

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
        assert!(cluster.decision_log_records(0).is_empty());
        assert!(!cluster.decision_log_records(1).is_empty());
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
        assert!(!cluster.decision_log_records(0).is_empty());
        assert_eq!(
            cluster.decision_log_records(0).len(),
            cluster.decision_log_records(1).len()
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

    #[test]
    fn latency_split_records_per_route() {
        let cluster = sharded(2, 2);
        let cred = credential(&cluster);
        assert!(cluster
            .execute(&write_spec(&cluster, &[0]), std::slice::from_ref(&cred))
            .is_commit());
        assert!(cluster
            .execute(&write_spec(&cluster, &[0, 3]), &[cred])
            .is_commit());
        let (single, cross) = cluster.route_latency_ms();
        assert_eq!(single.count(), 1);
        assert_eq!(cross.count(), 1);
        cluster.shutdown();
    }
}
