//! The deployment control plane, written once.
//!
//! A [`LinkedCluster`] is a set of [`Host`]s, one decision log per group,
//! one fault [`Fabric`] and the shared catalog/CAs/epoch, generic over the
//! [`Link`] that carries protocol messages between a TM and the hosts.
//! Everything a harness does to a deployment — bootstrap, execute,
//! configure, publish, crash, restart, resolve, count — is here; a link
//! supplies only how a message reaches a host and its replies come back
//! ([`Link::open`]), what a crash and a restart do to that edge
//! ([`Link::down`], [`Link::reap`], [`Link::up`]), and its transport
//! counters. [`crate::Cluster`] is this type over crossbeam channels and
//! `safetx_net::NetCluster` over Unix-socket byte streams.
//!
//! A partitioned deployment is the same type with
//! [`ClusterConfig::groups`] above one: the servers split into contiguous
//! equal groups, each with its own decision log, and a coordinator forces
//! its decision records into the log of every group its participants
//! touch before any participant hears them — so each group's recovery is
//! answered from its own log.
//!
//! The object-safe [`Deployment`] trait is that surface as one dispatch
//! point: harnesses, the service layer and the chaos suites drive any
//! deployment through `&dyn Deployment`.

use crate::fault::{Fabric, FaultPlan};
use crate::host::{now_since, Host};
use crate::PeerAddr;
use safetx_core::{
    drive_tm, terminate_leftover, AbortReason, ConcurrencyMode, ConsistencyLevel, Msg, ProofScheme,
    ResourcePolicyMap, ServerCore, SharedCas, SharedCatalog, TmConfig, TmCore, TmCrashPoint, TmIo,
    TransactionView, TxnOutcome,
};
use safetx_metrics::{FaultCounters, ProtocolMetrics, RouteCounters, TransportCounters, WalStats};
use safetx_policy::{CaRegistry, CertificateAuthority, Credential, Policy};
use safetx_store::LocalStore;
use safetx_txn::{CommitVariant, Decision, InquiryAnswer, TransactionSpec};
use safetx_types::{CaId, PolicyId, PolicyVersion, ServerId, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of servers of the whole deployment.
    pub servers: usize,
    /// Number of decision-log groups the servers split into: contiguous
    /// equal ranges of `servers / groups` servers. `1` (the default) is
    /// the unpartitioned deployment.
    pub groups: usize,
    /// Proof-of-authorization scheme.
    pub scheme: ProofScheme,
    /// Consistency level.
    pub consistency: ConsistencyLevel,
    /// Commit-protocol logging variant.
    pub variant: CommitVariant,
    /// How long a TM waits for any single protocol reply before treating
    /// the round as failed ([`AbortReason::ServerUnavailable`], or — once a
    /// decision exists — one decision retransmission and then completion
    /// without the missing acknowledgments).
    ///
    /// `None` (the default) blocks forever, the pre-fault-layer behaviour;
    /// any run that crashes servers or arms a fault plan with drops should
    /// set it.
    pub reply_timeout: Option<Duration>,
    /// Simulated cost of one physical WAL sync, slept through but for a
    /// spun last stretch inside `Wal::force`/group close (as a thread
    /// blocked on a device waits). `None` makes syncs free, the historical
    /// behaviour; set it to make sync coalescing visible in wall clock.
    pub wal_sync_cost: Option<Duration>,
    /// Concurrency mode of every server: strict no-wait 2PL (`Locking`)
    /// or snapshot-read optimistic execution validated at the 2PVC vote
    /// (`Occ`). `None` defers to the `SAFETX_CONCURRENCY_MODE`
    /// environment variable, then to `Locking` — the exact pre-seam
    /// behaviour.
    pub concurrency: Option<ConcurrencyMode>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 3,
            groups: 1,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            variant: CommitVariant::Standard,
            reply_timeout: None,
            wal_sync_cost: None,
            concurrency: None,
        }
    }
}

/// The outcome of one executed transaction plus wall-clock timing.
///
/// Built from the core's `TxnTermination` — the same termination record
/// the simulator reports as `TxnRecord` — so every runtime derives its
/// outcome, view, and cost counters from one shared type.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Commit/abort and the protocol-time instant it was decided.
    pub outcome: TxnOutcome,
    /// Wall-clock latency of the whole execution.
    pub elapsed: std::time::Duration,
    /// Every proof of authorization the TM saw during this execution,
    /// recorded for post-hoc audits (Definitions 4–9 in
    /// `safetx_core::trusted`).
    pub view: TransactionView,
    /// How many queries finished executing before the decision (wasted
    /// work on aborts; equals the query count on commits).
    pub queries_executed: usize,
    /// Paper-model cost counters (Table I messages/proofs/rounds), counted
    /// by the shared [`TmCore`] accounting.
    pub metrics: ProtocolMetrics,
}

impl ExecutionResult {
    /// True when the transaction committed.
    #[must_use]
    pub fn is_commit(&self) -> bool {
        self.outcome.is_commit()
    }
}

/// What every host and coordinator of a deployment shares, so
/// credentials, policy versions and timestamps agree everywhere.
struct Topology {
    /// The policy catalog (also the master version server).
    catalog: SharedCatalog,
    /// The certificate authorities.
    cas: SharedCas,
    /// Protocol time zero.
    epoch: Instant,
}

impl Topology {
    /// An empty catalog, one certificate authority (`CA0`), the epoch now.
    fn fresh() -> Topology {
        let mut registry = CaRegistry::new();
        registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
        Topology {
            catalog: SharedCatalog::new(),
            cas: SharedCas::new(registry),
            epoch: Instant::now(),
        }
    }
}

/// Which decision-log groups one transaction's participants touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnRoute {
    /// Every participant server lives in this one group.
    Single(usize),
    /// Participants span these groups (ascending, ≥ 2 entries).
    Cross(Vec<usize>),
}

impl TxnRoute {
    /// True when one group holds every participant.
    #[must_use]
    pub fn is_single(&self) -> bool {
        matches!(self, TxnRoute::Single(_))
    }

    /// The groups touched, ascending.
    #[must_use]
    pub fn groups(&self) -> &[usize] {
        match self {
            TxnRoute::Single(group) => std::slice::from_ref(group),
            TxnRoute::Cross(groups) => groups,
        }
    }
}

/// The coordinator-side decision log of one group, shared by every TM
/// (`execute` caller) of a cluster — what the group's recovery inquiries
/// are answered from, and the ground truth chaos audits compare server
/// state against.
pub type DecisionLog = Mutex<safetx_txn::CoordinatorLog>;

/// What carries protocol messages between the TMs and the hosts of one
/// cluster. Server positions are slots `0..servers` in server-id order.
///
/// The contract (DESIGN.md §5a): a link delivers what it is given to the
/// incarnation of a host it was sent to or loses it — nothing sent before
/// a crash may reach the recovered core — and it takes its own locks only
/// under the host lock, never the other way round. The edge hooks do
/// nothing unless a link has connections or threads per incarnation.
pub trait Link: Send + Sync + 'static {
    /// How a host addresses the peers it replies to.
    type Addr: PeerAddr + Send + 'static;
    /// A coordinator's end of the link, for one transaction.
    type Tm<'a>: TmIo
    where
        Self: 'a;

    /// Opens the coordinator's end for transaction `txn`.
    fn open(&self, txn: TxnId) -> Self::Tm<'_>;
    /// Cuts the edge to the server in `slot` so that nothing blocks on it:
    /// called before the host lock is asked for its crash.
    fn down(&self, _slot: usize) {}
    /// Retires the threads that served the dead incarnation in `slot`.
    fn reap(&self, _slot: usize) {}
    /// Brings up a fresh edge to the recovered `host` in `slot`.
    fn up(&self, _slot: usize, _host: &Arc<Host<Self::Addr>>) {}
    /// The fault plan was disarmed: the network is declared healthy.
    fn healed(&self) {}
    /// Transport counters summed over both sides of every edge.
    fn transport_counters(&self) -> TransportCounters {
        TransportCounters::default()
    }
}

/// A cluster of hosts behind a link; see the module docs.
pub struct LinkedCluster<L: Link> {
    config: ClusterConfig,
    topology: Topology,
    next_txn: AtomicU64,
    fabric: Arc<Fabric>,
    /// In-process hosts in server-id order; empty when the servers live in
    /// other processes.
    hosts: Vec<Arc<Host<L::Addr>>>,
    /// One per group, in group order. Boxed: every transaction writes
    /// them, and those writes stay off the cache lines of the read-mostly
    /// fields every send reads.
    decision_logs: Box<[DecisionLog]>,
    /// Single- vs cross-group outcomes, counted only with several groups.
    routes: Mutex<RouteCounters>,
    link: L,
}

impl<L: Link> LinkedCluster<L> {
    /// The one bootstrap: builds a host per server when `hosted` — every
    /// resource mapped to [`PolicyId`] 0, the configured sync cost and
    /// concurrency mode applied — on a fresh fabric, then the link over
    /// them.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is zero or does not divide `servers`.
    #[must_use]
    pub fn assemble(
        config: ClusterConfig,
        hosted: bool,
        link: impl FnOnce(&[Arc<Host<L::Addr>>], &Arc<Fabric>) -> L,
    ) -> Self {
        let groups = config.groups;
        assert!(
            groups > 0 && config.servers.is_multiple_of(groups),
            "{groups} groups cannot split {} servers equally",
            config.servers
        );
        let concurrency = config.concurrency.unwrap_or_else(ConcurrencyMode::from_env);
        let topology = Topology::fresh();
        let fabric = Arc::new(Fabric::default());
        let hosts: Vec<_> = (0..config.servers as u64)
            .filter(|_| hosted)
            .map(|id| {
                let mut core = ServerCore::new(
                    ServerId::new(id),
                    topology.catalog.clone(),
                    ResourcePolicyMap::single(PolicyId::new(0)),
                    topology.cas.clone(),
                    config.variant,
                );
                if let Some(cost) = config.wal_sync_cost {
                    core.set_wal_sync_cost(cost);
                }
                core.set_concurrency(concurrency);
                Arc::new(Host::new(core, topology.epoch, Arc::clone(&fabric)))
            })
            .collect();
        let link = link(&hosts, &fabric);
        LinkedCluster {
            config,
            topology,
            next_txn: AtomicU64::new(0),
            fabric,
            hosts,
            decision_logs: (0..groups).map(|_| DecisionLog::default()).collect(),
            routes: Mutex::default(),
            link,
        }
    }

    /// The link carrying this cluster's protocol traffic.
    #[must_use]
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Slot of a server: its position in id order.
    ///
    /// # Panics
    ///
    /// Panics when the id is outside the deployment.
    #[must_use]
    pub fn slot(&self, server: ServerId) -> usize {
        let slot = server.index() as usize;
        assert!(
            slot < self.config.servers,
            "server {server} outside the deployment"
        );
        slot
    }

    /// The decision-log group a server belongs to.
    ///
    /// # Panics
    ///
    /// Panics when the id is outside the deployment.
    #[must_use]
    pub fn group_of(&self, server: ServerId) -> usize {
        self.slot(server) / (self.config.servers / self.config.groups)
    }

    /// The groups a transaction's participants touch.
    ///
    /// # Panics
    ///
    /// Panics when the spec has no queries or names a server outside the
    /// deployment.
    #[must_use]
    pub fn route_of(&self, spec: &TransactionSpec) -> TxnRoute {
        let participants = spec.participants().into_iter();
        let mut groups: Vec<usize> = participants.map(|s| self.group_of(s)).collect();
        groups.dedup();
        match groups.as_slice() {
            [] => panic!("transaction {} has no participants", spec.id),
            [only] => TxnRoute::Single(*only),
            _ => TxnRoute::Cross(groups),
        }
    }

    /// What the decision log of group `group` holds for `txn` (one of the
    /// logs [`Deployment::logged_decision`] asks).
    ///
    /// # Panics
    ///
    /// Panics when the group index is out of range.
    #[must_use]
    pub fn group_decision(&self, group: usize, txn: TxnId) -> Option<Decision> {
        let log = self.decision_logs[group].lock();
        log.expect("decision log lock").decision(txn)
    }

    /// The in-process host of `server` and its slot.
    fn host(&self, server: ServerId) -> (usize, &Arc<Host<L::Addr>>) {
        let slot = self.slot(server);
        let host = self
            .hosts
            .get(slot)
            .expect("an in-process host (this cluster's servers run in other processes)");
        (slot, host)
    }

    /// Applies a closure to a server's core between its rounds, after
    /// every message already queued to it (seed data, install policies,
    /// add constraints, probe state), and returns what it returns.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range, when the server is
    /// crashed, or when this cluster's servers run in other processes
    /// (they configure themselves).
    pub fn configure_server<R>(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut ServerCore<L::Addr>) -> R,
    ) -> R {
        let (_, host) = self.host(server);
        host.with_core(f).unwrap_or_else(|| {
            panic!("server {server} is crashed: restart it before configuring it")
        })
    }

    /// Lends the calling thread to one transaction's coordinator, whose
    /// decision records go into the log of every group the participants
    /// touch. One group is the plain path: no route, no counting.
    fn coordinate(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
    ) -> Option<ExecutionResult> {
        let io = self.link.open(spec.id);
        let run = |logs: &[&DecisionLog]| self.run_tm(io, logs, spec, credentials, crash);
        if let [log] = &*self.decision_logs {
            return run(&[log]);
        }
        let route = self.route_of(spec);
        let logs: Vec<_> = route
            .groups()
            .iter()
            .map(|&g| &self.decision_logs[g])
            .collect();
        let result = run(&logs);
        // A dead coordinator reports nothing.
        if let (Some(result), None) = (&result, crash) {
            let mut routes = self.routes.lock().expect("route counters lock");
            let commit = result.is_commit();
            if route.is_single() {
                routes.single_shard_submitted += 1;
                routes.single_shard_commits += u64::from(commit);
                routes.single_shard_aborts += u64::from(!commit);
            } else {
                routes.cross_shard_submitted += 1;
                routes.cross_shard_commits += u64::from(commit);
                routes.cross_shard_aborts += u64::from(!commit);
            }
        }
        result
    }

    /// Drives `spec` to termination over `io` through
    /// [`safetx_core::drive_tm`], its records in `logs` (`None` when the
    /// scheduled coordinator crash fired first), accounting stale replies
    /// and reply-deadline aborts into the fabric's stats.
    fn run_tm(
        &self,
        mut io: impl TmIo,
        logs: &[&DecisionLog],
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
    ) -> Option<ExecutionResult> {
        let started = Instant::now();
        let config = &self.config;
        let now = || now_since(self.topology.epoch);
        let tm = TmConfig::new(config.scheme, config.consistency, config.variant);
        let core = TmCore::new(tm, spec.clone(), credentials.to_vec(), now());
        // The catalog IS the master: its epoch snapshot answers inline, no
        // map rebuild, no deep clone.
        let master = || self.topology.catalog.latest_snapshot().1;
        let timeout = config.reply_timeout;
        let run = drive_tm(&mut io, logs, master, core, now, timeout, crash)?;
        let stats = &self.fabric.stats;
        // Not on a clean run: every send reads the fabric's armed flag,
        // which shares cache lines with these counters.
        if run.dropped_replies > 0 {
            let stale = &stats.stale_replies;
            stale.fetch_add(run.dropped_replies, Ordering::Relaxed);
        }
        if run.termination.outcome.abort_reason() == Some(AbortReason::ServerUnavailable) {
            stats.timeout_aborts.fetch_add(1, Ordering::Relaxed);
        }
        let termination = run.termination;
        Some(ExecutionResult {
            outcome: termination.outcome,
            elapsed: started.elapsed(),
            view: termination.view,
            queries_executed: termination.queries_executed,
            metrics: termination.metrics,
        })
    }

    /// Transactions whose coordinator has not finished, running or
    /// crashed, summed over the groups' logs: one spanning `k` groups
    /// counts `k` times.
    #[must_use]
    pub fn live_decisions(&self) -> usize {
        let live = |log: &DecisionLog| log.lock().expect("decision log lock").live_len();
        self.decision_logs.iter().map(live).sum()
    }

    /// Stops every thread of the link and the hosts with it.
    pub fn shutdown(self) {
        // The link's `Drop` does it.
    }
}

/// A running deployment, whatever hosts its servers and carries its
/// messages: the surface harnesses, the service layer and the chaos suites
/// drive. Implemented once, for every [`LinkedCluster`], which also
/// dereferences to `dyn Deployment`, so the methods are callable on it
/// without importing the trait.
pub trait Deployment: Send + Sync {
    /// The cluster configuration; `servers` counts the whole deployment.
    fn config(&self) -> &ClusterConfig;
    /// The shared policy catalog (also the master version server).
    fn catalog(&self) -> &SharedCatalog;
    /// The shared certificate authorities.
    fn cas(&self) -> &SharedCas;
    /// A fresh transaction id.
    fn next_txn_id(&self) -> TxnId;
    /// The global ids of every server of the deployment, in order.
    fn server_ids(&self) -> Vec<ServerId>;

    /// Executes one transaction synchronously: the shared blocking TM loop
    /// ([`safetx_core::drive_tm`]) drives the sans-io [`TmCore`] from the
    /// calling thread. Thread-safe: concurrent callers contend on the
    /// servers exactly like concurrent TMs.
    fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult;
    /// Executes one transaction whose coordinator dies at the given
    /// protocol moment (`None` when the crash fired; `Some` when the
    /// transaction finished before reaching the point). Whatever the
    /// crash leaves behind — participants blocked on a vote, in-doubt
    /// after a YES, holding locks for an unheard decision — is resolved
    /// by [`Deployment::resolve_in_doubt`] against the decision log, which
    /// the force-before-send discipline keeps authoritative.
    fn execute_with_coordinator_crash(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        point: TmCrashPoint,
    ) -> Option<ExecutionResult>;

    /// Publishes a policy version and installs it at every live replica.
    /// A crashed replica misses the update — the paper's normal case: it
    /// restarts with its pre-crash version and the next 2PV/2PVC round
    /// brings it to the master's or the view's version.
    fn publish_policy(&self, policy: Policy) {
        let (id, version) = (policy.id(), policy.version());
        self.catalog().publish(policy);
        self.install_everywhere(id, version);
    }
    /// Installs a policy version at every live replica without publishing
    /// a new catalog entry.
    fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion);
    /// Runs `f` on one server's store, between its rounds.
    fn with_store(&self, server: ServerId, f: &mut dyn FnMut(&mut LocalStore));

    /// Kills a server as if its process died: volatile state (locks,
    /// unprepared transactions) is lost, whatever was in flight to it is
    /// gone, the checkpoint (store and decided memo) and the WAL's live
    /// tail survive. The server is crashed when this returns; crashing a
    /// crashed server is a no-op.
    fn crash_server(&self, server: ServerId);
    /// Restarts a crashed server: rebuilds its protocol state from the
    /// checkpoint and the WAL's tail, tells each in-doubt transaction the
    /// decision the coordinator log already holds for it, and brings up a
    /// fresh edge to it. An in-doubt transaction with no logged decision
    /// yet stays in doubt — its coordinator may still be in flight — until
    /// its decision arrives or a quiesced [`Deployment::resolve_in_doubt`].
    ///
    /// # Panics
    ///
    /// Panics when the server is not crashed.
    fn restart_server(&self, server: ServerId);
    /// Servers currently crashed (awaiting [`Deployment::restart_server`]).
    fn crashed_servers(&self) -> Vec<ServerId>;
    /// Drives the participants' termination protocol from the harness
    /// side: tells every transaction a live server still holds state for
    /// what [`terminate_leftover`] derives from its group's coordinator
    /// decision log, synchronously. Returns how many were resolved.
    ///
    /// Only meaningful on a **quiesced** deployment — no `execute` in
    /// flight.
    fn resolve_in_doubt(&self) -> usize;
    /// The decision the coordinator log holds for `txn`, the first one
    /// logged if the id was reused (several groups are asked in order).
    fn logged_decision(&self, txn: TxnId) -> Option<Decision>;

    /// Arms a fault plan: every subsequent protocol send is subject to its
    /// edge rules and crash points. Replaces any previously armed plan
    /// (crash points start unfired).
    fn set_fault_plan(&self, plan: FaultPlan);
    /// Disarms fault injection once every message already queued to a
    /// server has been served under the plan; sends go back to the direct
    /// fast path.
    fn clear_fault_plan(&self);
    /// Fault-injection, recovery and failure-detector counters so far.
    fn fault_counters(&self) -> FaultCounters;
    /// Aggregated WAL accounting across every server, live or crashed:
    /// logical forced appends (the paper's Table I log metric) and the
    /// physical device syncs actually performed for them. Meaningful on a quiesced deployment.
    fn wal_stats(&self) -> WalStats;
    /// Stale replies observed across every execution (acks never count).
    fn dropped_replies(&self) -> u64;
    /// Transport counters summed over every edge (all zero unless bytes
    /// cross a wire).
    fn transport_counters(&self) -> TransportCounters {
        TransportCounters::default()
    }
    /// Single- vs cross-group routing counters (all zero with one group:
    /// every transaction is trivially single-group).
    fn route_counters(&self) -> RouteCounters;
}

impl<L: Link> Deployment for LinkedCluster<L> {
    fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn catalog(&self) -> &SharedCatalog {
        &self.topology.catalog
    }

    fn cas(&self) -> &SharedCas {
        &self.topology.cas
    }

    fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    fn server_ids(&self) -> Vec<ServerId> {
        (0..self.config.servers as u64).map(ServerId::new).collect()
    }

    fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult {
        self.coordinate(spec, credentials, None)
            .expect("no coordinator crash scheduled")
    }

    fn execute_with_coordinator_crash(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        point: TmCrashPoint,
    ) -> Option<ExecutionResult> {
        self.coordinate(spec, credentials, Some(point))
    }

    fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion) {
        for host in &self.hosts {
            // `None`: a crashed replica misses the update.
            let _ = host.with_core(|core| core.install_policy(policy, version));
        }
    }

    fn with_store(&self, server: ServerId, f: &mut dyn FnMut(&mut LocalStore)) {
        self.configure_server(server, |core| f(core.store_mut()));
    }

    fn crash_server(&self, server: ServerId) {
        let (slot, host) = self.host(server);
        self.link.down(slot);
        host.crash();
        self.link.reap(slot);
    }

    fn restart_server(&self, server: ServerId) {
        let (slot, host) = self.host(server);
        if host.crashed() {
            // Stale inbox: the dead incarnation goes before a core exists
            // that it could feed a pre-crash message to.
            self.link.reap(slot);
        }
        let in_doubt = host.restart();
        if !in_doubt.is_empty() {
            // Only explicit decision records answer here: while the
            // cluster is live a coordinator may still be mid-flight, and a
            // presumed answer could contradict the decision it is about to
            // log.
            let log = self.decision_logs[self.group_of(host.server())].lock();
            let log = log.expect("decision log lock");
            host.terminate_leftovers(|txn, in_doubt| {
                let answer = InquiryAnswer::Decided(log.decision(txn)?);
                in_doubt.then_some(Msg::InquiryReply { txn, answer })
            });
        }
        self.link.up(slot, host);
    }

    fn crashed_servers(&self) -> Vec<ServerId> {
        let crashed = self.hosts.iter().filter(|host| host.crashed());
        crashed.map(|host| host.server()).collect()
    }

    fn resolve_in_doubt(&self) -> usize {
        let variant = self.config.variant;
        let resolve = |host: &Arc<Host<L::Addr>>| {
            let log = self.decision_logs[self.group_of(host.server())].lock();
            let log = log.expect("decision log lock");
            host.terminate_leftovers(|txn, in_doubt| {
                Some(terminate_leftover(txn, in_doubt, variant, &log))
            })
        };
        self.hosts.iter().map(resolve).sum()
    }

    fn logged_decision(&self, txn: TxnId) -> Option<Decision> {
        (0..self.config.groups).find_map(|group| self.group_decision(group, txn))
    }

    fn set_fault_plan(&self, plan: FaultPlan) {
        self.fabric.arm(plan);
    }

    fn clear_fault_plan(&self) {
        // Whatever is already queued was sent under the plan: its crash
        // points still fire for it. Taking a host's lock serves its queue.
        for host in &self.hosts {
            host.with_core(|_| ());
        }
        self.fabric.disarm();
        self.link.healed();
    }

    fn fault_counters(&self) -> FaultCounters {
        self.fabric.stats.snapshot()
    }

    fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for host in &self.hosts {
            total.merge(&host.wal_stats());
        }
        total
    }

    fn dropped_replies(&self) -> u64 {
        self.fabric.stats.stale_replies.load(Ordering::Relaxed)
    }

    fn transport_counters(&self) -> TransportCounters {
        self.link.transport_counters()
    }

    fn route_counters(&self) -> RouteCounters {
        *self.routes.lock().expect("route counters lock")
    }
}

impl<L: Link> std::ops::Deref for LinkedCluster<L> {
    type Target = dyn Deployment;

    fn deref(&self) -> &Self::Target {
        self
    }
}
