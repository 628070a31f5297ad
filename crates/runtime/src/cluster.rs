//! Thread-per-server cluster.

use crate::fault::{ArmedPlan, CrashPoint, FaultPlan, FaultStats, Peer, Verdict};
use crossbeam::channel::{unbounded, Receiver, Sender};
use safetx_core::{
    coalesce_replies, drive_tm, terminate_leftover, AbortReason, ConcurrencyMode, ConsistencyLevel,
    Msg, MsgKind, ProofScheme, ResourcePolicyMap, ServerCore, SharedCas, SharedCatalog, TmConfig,
    TmCore, TmCrashPoint, TmIo, TmRun, TransactionView, TxnOutcome, TxnTermination, VersionMap,
};
use safetx_metrics::{FaultCounters, ProtocolMetrics};
use safetx_policy::{CaRegistry, CertificateAuthority, Credential};
use safetx_store::Wal;
use safetx_txn::{CommitVariant, CoordinatorRecord, TransactionSpec};
use safetx_types::{CaId, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Who sent a message (and how to reply to them). Opaque: exposed only so
/// [`Cluster::configure_server`] closures can name `ServerCore<Addr>`.
#[derive(Clone)]
pub struct Addr {
    endpoint: Endpoint,
    tx: Sender<Input>,
    /// Process-unique channel identity: reply coalescing groups a round's
    /// outputs by destination with it (two coordinators share an
    /// `Endpoint::Coordinator` but never a channel).
    id: u64,
}

/// A fresh process-unique [`Addr::id`].
fn fresh_addr_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Addr {
    /// A fresh coordinator endpoint and the channel its replies arrive on.
    fn coordinator() -> (Addr, Receiver<Input>) {
        let (tx, rx) = unbounded::<Input>();
        let addr = Addr {
            endpoint: Endpoint::Coordinator,
            tx,
            id: fresh_addr_id(),
        };
        (addr, rx)
    }
}

impl std::fmt::Debug for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Addr({:?})", self.endpoint)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Endpoint {
    Coordinator,
    Server(ServerId),
}

fn peer_of(endpoint: Endpoint) -> Peer {
    match endpoint {
        Endpoint::Coordinator => Peer::Coordinator,
        Endpoint::Server(id) => Peer::Server(id),
    }
}

/// A configuration closure applied on a server thread.
type ConfigureFn = Box<dyn FnOnce(&mut ServerCore<Addr>) + Send>;

/// What flows through the channels.
// Msg dominates the variant sizes; inputs are moved once into an unbounded
// channel and never stored in bulk, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Input {
    Proto(Addr, Msg),
    Configure(ConfigureFn, Sender<()>),
    /// Kill this server thread mid-protocol: volatile state is lost, the
    /// core is salvaged (its WAL and store survive the "crash") so
    /// [`Cluster::restart_server`] can recover it.
    Crash,
    Shutdown,
}

/// Crashed cores awaiting restart, by server index. Models the durable
/// state (store + WAL) that outlives the process.
type Salvage = Arc<Mutex<HashMap<u64, ServerCore<Addr>>>>;

/// The coordinator-side decision log shared by every TM (`execute` caller)
/// of this cluster — the log `answer_inquiry` consults when a recovered
/// participant asks what happened.
type DecisionLog = Arc<Mutex<Wal<CoordinatorRecord>>>;

/// The message fabric: the single choke point every protocol send crosses.
///
/// With no fault plan armed the fast path is one relaxed atomic load and an
/// uncontended read lock around the destination lookup — behaviourally
/// identical to the pre-fault-layer direct sends. With a plan armed, each
/// message is rolled against the plan's edge rules and crash points.
///
/// The server channel registry lives *inside* the fabric (rather than in
/// `Cluster`) so a restarted server can swap its channel without stopping
/// traffic from concurrent TM threads.
struct Net {
    /// Current address (endpoint + input channel) of each server.
    addrs: RwLock<Vec<Addr>>,
    /// Armed fault plan, if any.
    plan: RwLock<Option<ArmedPlan>>,
    /// Mirrors `plan.is_some()`; checked without taking the lock.
    enabled: AtomicBool,
    stats: FaultStats,
    /// Per-edge message sequence numbers, `[from][to]` flattened over
    /// `peers` slots per side (coordinator = 0, server at local position
    /// *i* is *i* + 1 — see [`Net::slot`]).
    seqs: Vec<AtomicU64>,
    peers: usize,
    /// First global server id owned by this fabric: sharded deployments
    /// give each shard a disjoint id range, and the dense sequence-counter
    /// slots are relative to it.
    base: u64,
}

impl Net {
    fn new(addrs: Vec<Addr>, base: u64) -> Net {
        let peers = addrs.len() + 1;
        Net {
            addrs: RwLock::new(addrs),
            plan: RwLock::new(None),
            enabled: AtomicBool::new(false),
            stats: FaultStats::default(),
            seqs: (0..peers * peers).map(|_| AtomicU64::new(0)).collect(),
            peers,
            base,
        }
    }

    /// Dense per-fabric slot of a peer: coordinator 0, servers 1.. in
    /// id order relative to this fabric's first server id.
    fn slot(&self, peer: Peer) -> usize {
        match peer {
            Peer::Coordinator => 0,
            Peer::Server(id) => (id.index() - self.base) as usize + 1,
        }
    }

    fn arm(&self, plan: FaultPlan) {
        *self.plan.write().expect("fault plan lock") = Some(ArmedPlan::new(plan));
        self.enabled.store(true, Ordering::Release);
    }

    fn disarm(&self) {
        self.enabled.store(false, Ordering::Release);
        *self.plan.write().expect("fault plan lock") = None;
    }

    fn counters(&self) -> FaultCounters {
        self.stats.snapshot()
    }

    fn note_crash(&self) {
        self.stats.server_crashes.fetch_add(1, Ordering::Relaxed);
    }

    fn note_recovery(&self) {
        self.stats.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// The current input channel of a server (control plane: configure,
    /// crash, shutdown, recovery — never subject to faults).
    fn tx(&self, server: usize) -> Sender<Input> {
        self.addrs.read().expect("net addrs")[server].tx.clone()
    }

    fn server_addr(&self, server: usize) -> Addr {
        self.addrs.read().expect("net addrs")[server].clone()
    }

    fn replace_server(&self, server: usize, addr: Addr) {
        self.addrs.write().expect("net addrs")[server] = addr;
    }

    /// Protocol send to a server by index.
    fn to_server(&self, from: &Addr, server: usize, msg: Msg) {
        if !self.enabled.load(Ordering::Relaxed) {
            let addrs = self.addrs.read().expect("net addrs");
            let _ = addrs[server].tx.send(Input::Proto(from.clone(), msg));
            return;
        }
        let to = self.server_addr(server);
        self.send_faulty(from, &to, msg);
    }

    /// Protocol send to an arbitrary address (server → coordinator replies
    /// and server-side forwards).
    fn send_proto(&self, from: &Addr, to: &Addr, msg: Msg) {
        if !self.enabled.load(Ordering::Relaxed) {
            let _ = to.tx.send(Input::Proto(from.clone(), msg));
            return;
        }
        self.send_faulty(from, to, msg);
    }

    #[cold]
    fn send_faulty(&self, from: &Addr, to: &Addr, msg: Msg) {
        let guard = self.plan.read().expect("fault plan lock");
        let Some(armed) = guard.as_ref() else {
            let _ = to.tx.send(Input::Proto(from.clone(), msg));
            return;
        };
        let kind = MsgKind::of(&msg);
        // A crash scheduled "after this server sends its next <kind>"?
        // Consume the rule now; enqueue the crash after the send went out.
        let crash_sender = match from.endpoint {
            Endpoint::Server(id) => armed
                .take_crash(id, |p| p == CrashPoint::AfterSend(kind))
                .is_some(),
            Endpoint::Coordinator => false,
        };
        // "Before receive": the receiver dies *instead of* taking
        // delivery — the message is lost with it.
        if let Endpoint::Server(id) = to.endpoint {
            if armed
                .take_crash(id, |p| p == CrashPoint::BeforeReceive(kind))
                .is_some()
            {
                let _ = to.tx.send(Input::Crash);
                if crash_sender {
                    let _ = from.tx.send(Input::Crash);
                }
                return;
            }
        }
        let from_peer = peer_of(from.endpoint);
        let to_peer = peer_of(to.endpoint);
        let edge = self.slot(from_peer) * self.peers + self.slot(to_peer);
        let seq = self.seqs[edge].fetch_add(1, Ordering::Relaxed);
        let mut delivered_inline = false;
        match armed.plan.roll(from_peer, to_peer, kind, seq) {
            Verdict::Deliver => {
                let _ = to.tx.send(Input::Proto(from.clone(), msg));
                delivered_inline = true;
            }
            Verdict::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Duplicate => {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                let _ = to.tx.send(Input::Proto(from.clone(), msg.clone()));
                let _ = to.tx.send(Input::Proto(from.clone(), msg));
                delivered_inline = true;
            }
            Verdict::Delay { by, reorder } => {
                if reorder {
                    self.stats.reordered.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                }
                let from = from.clone();
                let to_tx = to.tx.clone();
                // Detached sleeper: delivery races everything sent in the
                // meantime, which is exactly the point. A send into a since
                // dead or replaced channel is a message lost to the crash.
                std::thread::spawn(move || {
                    std::thread::sleep(by);
                    let _ = to_tx.send(Input::Proto(from, msg));
                });
            }
        }
        // "After receive" fires only when the message actually went out in
        // order, so the crash lands in the queue right behind it.
        if delivered_inline {
            if let Endpoint::Server(id) = to.endpoint {
                if armed
                    .take_crash(id, |p| p == CrashPoint::AfterReceive(kind))
                    .is_some()
                {
                    let _ = to.tx.send(Input::Crash);
                }
            }
        }
        if crash_sender {
            let _ = from.tx.send(Input::Crash);
        }
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of server threads.
    pub servers: usize,
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
    /// Maximum protocol messages one server-loop iteration drains and
    /// processes as a single round (shared proof-evaluation batch, one WAL
    /// group commit, coalesced replies). `None` defers to the
    /// `SAFETX_SERVER_BATCH` environment variable, then to `1` — every
    /// round holds one message.
    pub server_batch: Option<usize>,
    /// Simulated cost of one physical WAL sync (spin-waited inside
    /// `Wal::force`/group close). `None` makes syncs free, the historical
    /// behaviour; set it to make group commit's sync coalescing visible in
    /// wall-clock measurements.
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
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            variant: CommitVariant::Standard,
            reply_timeout: None,
            server_batch: None,
            wal_sync_cost: None,
            concurrency: None,
        }
    }
}

/// [`ClusterConfig`]'s deferred knobs with every `None` settled: explicit
/// value, then environment variable, then default. Read once per cluster
/// build by every deployment of a `ClusterConfig` (threaded, socket,
/// sharded), so CI can flip a whole battery through the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedKnobs {
    /// Drain limit of the server loop, at least 1.
    pub server_batch: usize,
    /// Concurrency mode of every server.
    pub concurrency: ConcurrencyMode,
}

impl ClusterConfig {
    /// Settles the knobs this configuration leaves to the process
    /// environment (`SAFETX_SERVER_BATCH`, `SAFETX_CONCURRENCY_MODE`).
    #[must_use]
    pub fn resolved(&self) -> ResolvedKnobs {
        self.resolve_with(|name| std::env::var(name).ok())
    }

    /// [`ClusterConfig::resolved`] over an explicit environment lookup.
    /// An unset or unparsable variable falls through to the default.
    #[must_use]
    pub fn resolve_with(&self, env: impl Fn(&str) -> Option<String>) -> ResolvedKnobs {
        let number = |name| env(name).and_then(|v| v.parse::<usize>().ok());
        ResolvedKnobs {
            server_batch: self
                .server_batch
                .or_else(|| number("SAFETX_SERVER_BATCH"))
                .unwrap_or(1)
                .max(1),
            concurrency: self
                .concurrency
                .or_else(|| ConcurrencyMode::parse(&env("SAFETX_CONCURRENCY_MODE")?))
                .unwrap_or_default(),
        }
    }

    /// The protocol configuration every coordinator of this deployment
    /// runs with.
    #[must_use]
    pub fn tm_config(&self) -> TmConfig {
        TmConfig::new(self.scheme, self.consistency, self.variant)
    }
}

/// The outcome of one executed transaction plus wall-clock timing.
///
/// Built from the core's [`TxnTermination`] — the same termination record
/// the simulator reports as `TxnRecord` — so both runtimes derive their
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

    /// Builds the result from the core's termination record.
    #[must_use]
    pub fn from_termination(termination: TxnTermination, elapsed: std::time::Duration) -> Self {
        ExecutionResult {
            outcome: termination.outcome,
            elapsed,
            view: termination.view,
            queries_executed: termination.queries_executed,
            metrics: termination.metrics,
        }
    }

    /// Builds the result of a finished TM loop started at `started`,
    /// adding the run's stale replies — and, when the reply deadline
    /// aborted it, one timeout — to the deployment's counters.
    #[must_use]
    pub fn from_run(
        run: TmRun,
        started: Instant,
        dropped_replies: &AtomicU64,
        timeout_aborts: &AtomicU64,
    ) -> Self {
        dropped_replies.fetch_add(run.dropped_replies, Ordering::Relaxed);
        if run.termination.outcome.abort_reason() == Some(AbortReason::ServerUnavailable) {
            timeout_aborts.fetch_add(1, Ordering::Relaxed);
        }
        Self::from_termination(run.termination, started.elapsed())
    }
}

/// A running cluster: server threads plus shared catalog and CAs.
pub struct Cluster {
    config: ClusterConfig,
    catalog: SharedCatalog,
    cas: SharedCas,
    net: Arc<Net>,
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    epoch: Instant,
    next_txn: AtomicU64,
    live_servers: Arc<AtomicUsize>,
    /// Inputs received on a coordinator's reply channel that no receive
    /// loop was waiting for (stale replies for resolved rounds). These were
    /// previously dropped silently by the catch-all match arms.
    dropped_replies: Arc<AtomicU64>,
    salvage: Salvage,
    decision_log: DecisionLog,
    /// In-doubt resolver threads spawned by [`Cluster::restart_server`].
    resolvers: Mutex<Vec<JoinHandle<()>>>,
    stopping: Arc<AtomicBool>,
    knobs: ResolvedKnobs,
    /// First global server id owned by this cluster (0 for a standalone
    /// deployment; a shard's offset into the global id space otherwise).
    base: u64,
}

/// Decrements the live-thread gauge when a server thread exits — normally
/// or by panic (the guard drops during unwind either way).
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Cluster {
    /// Spawns the server threads. One certificate authority (`CA0`) is
    /// registered; every resource maps to [`PolicyId`] 0.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let catalog = SharedCatalog::new();
        let mut registry = CaRegistry::new();
        registry.register(CertificateAuthority::new(CaId::new(0), 0x7331));
        let cas = SharedCas::new(registry);
        Self::with_topology(config, 0, catalog, cas, Instant::now())
    }

    /// Spawns the server threads as one shard of a larger deployment: the
    /// servers own global ids `first_server..first_server + servers`, and
    /// the policy catalog, certificate authorities and protocol-time epoch
    /// are shared with the other shards so credentials, policy versions and
    /// timestamps agree everywhere. [`Cluster::new`] is the single-shard
    /// special case (`first_server = 0`, fresh shared state).
    #[must_use]
    pub fn with_topology(
        config: ClusterConfig,
        first_server: u64,
        catalog: SharedCatalog,
        cas: SharedCas,
        epoch: Instant,
    ) -> Self {
        let knobs = config.resolved();
        let live_servers = Arc::new(AtomicUsize::new(0));
        let salvage: Salvage = Arc::new(Mutex::new(HashMap::new()));

        let mut addrs = Vec::with_capacity(config.servers);
        let mut rxs = Vec::with_capacity(config.servers);
        for i in 0..config.servers {
            let (tx, rx) = unbounded::<Input>();
            addrs.push(Addr {
                endpoint: Endpoint::Server(ServerId::new(first_server + i as u64)),
                tx,
                id: fresh_addr_id(),
            });
            rxs.push(rx);
        }
        let net = Arc::new(Net::new(addrs, first_server));

        let mut handles = Vec::with_capacity(config.servers);
        for (i, rx) in rxs.into_iter().enumerate() {
            let id = ServerId::new(first_server + i as u64);
            let mut core = ServerCore::new(
                id,
                catalog.clone(),
                ResourcePolicyMap::single(PolicyId::new(0)),
                cas.clone(),
                config.variant,
            );
            if let Some(cost) = config.wal_sync_cost {
                core.set_wal_sync_cost(cost);
            }
            core.set_concurrency(knobs.concurrency);
            let my_addr = net.server_addr(i);
            live_servers.fetch_add(1, Ordering::Release);
            let guard = LiveGuard(live_servers.clone());
            let net = Arc::clone(&net);
            let salvage = Arc::clone(&salvage);
            handles.push(Some(std::thread::spawn(move || {
                let _guard = guard;
                server_loop(core, rx, my_addr, epoch, knobs, net, salvage);
            })));
        }

        Cluster {
            config,
            catalog,
            cas,
            net,
            handles: Mutex::new(handles),
            epoch,
            next_txn: AtomicU64::new(0),
            live_servers,
            dropped_replies: Arc::new(AtomicU64::new(0)),
            salvage,
            decision_log: Arc::new(Mutex::new(Wal::new())),
            resolvers: Mutex::new(Vec::new()),
            stopping: Arc::new(AtomicBool::new(false)),
            knobs,
            base: first_server,
        }
    }

    /// Array slot of a server this cluster owns.
    ///
    /// # Panics
    ///
    /// Panics when the id is outside this cluster's range.
    fn pos(&self, server: ServerId) -> usize {
        let pos = server
            .index()
            .checked_sub(self.base)
            .expect("server below this cluster's id range") as usize;
        assert!(
            pos < self.config.servers,
            "server {server} above this cluster's id range"
        );
        pos
    }

    /// First global server id owned by this cluster.
    #[must_use]
    pub fn first_server(&self) -> u64 {
        self.base
    }

    /// The global ids of every server this cluster owns, in slot order.
    #[must_use]
    pub fn server_ids(&self) -> Vec<ServerId> {
        (0..self.config.servers as u64)
            .map(|i| ServerId::new(self.base + i))
            .collect()
    }

    /// How many coordinator-side inputs were received but matched no
    /// pending protocol round (stale replies after an abort, for example).
    #[must_use]
    pub fn dropped_replies(&self) -> u64 {
        self.dropped_replies.load(Ordering::Relaxed)
    }

    /// The configuration this cluster was built with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// How many server threads are currently running. Reaches zero only
    /// after shutdown (or drop) has joined every thread.
    #[must_use]
    pub fn live_servers(&self) -> usize {
        self.live_servers.load(Ordering::Acquire)
    }

    /// A clone of the live-thread gauge, for tests that must observe the
    /// cluster's threads after the `Cluster` itself is gone.
    #[must_use]
    pub fn live_servers_gauge(&self) -> Arc<AtomicUsize> {
        self.live_servers.clone()
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

    /// Protocol-time now (microseconds since cluster start).
    #[must_use]
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// A fresh transaction id.
    #[must_use]
    pub fn next_txn_id(&self) -> TxnId {
        TxnId::new(
            self.next_txn
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Arms a fault plan: every subsequent protocol send is subject to its
    /// edge rules and crash points. Replaces any previously armed plan
    /// (crash points start unfired).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.net.arm(plan);
    }

    /// Disarms fault injection; sends go back to the direct fast path.
    pub fn clear_fault_plan(&self) {
        self.net.disarm();
    }

    /// Fault-injection and recovery counters accumulated so far.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.net.counters()
    }

    /// Aggregated WAL accounting across every server: logical forced
    /// appends (the paper's Table I log metric, unchanged by batching) and
    /// the physical device syncs actually performed for them (strictly
    /// fewer under group commit when rounds carry multiple forces).
    ///
    /// Live servers are probed through their configure barrier; crashed
    /// servers are read from their salvaged durable state. Meaningful on a
    /// quiesced cluster — probing mid-`execute` reads a moving total.
    #[must_use]
    pub fn wal_stats(&self) -> safetx_metrics::WalStats {
        let mut total = safetx_metrics::WalStats::default();
        let crashed: BTreeSet<u64> = {
            let salvage = self.salvage.lock().expect("salvage lock");
            for core in salvage.values() {
                total.merge(&core.wal_stats());
            }
            salvage.keys().copied().collect()
        };
        for server in self.server_ids() {
            if crashed.contains(&server.index()) {
                continue;
            }
            let (tx, rx) = unbounded();
            self.configure_server(server, move |core| {
                let _ = tx.send(core.wal_stats());
            });
            total.merge(&rx.recv().expect("wal stats probe"));
        }
        total
    }

    /// Kills a server thread as if its process died: volatile state
    /// (locks, unprepared transactions) is lost; the store and WAL
    /// survive. Blocks until the thread is gone.
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or the thread does not
    /// exit within a generous deadline.
    pub fn crash_server(&self, server: ServerId) {
        let idx = self.pos(server);
        let _ = self.net.tx(idx).send(Input::Crash);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self
            .salvage
            .lock()
            .expect("salvage lock")
            .contains_key(&server.index())
        {
            assert!(
                Instant::now() < deadline,
                "server {server} did not crash in time"
            );
            std::thread::yield_now();
        }
        if let Some(handle) = self.handles.lock().expect("handles lock")[idx].take() {
            let _ = handle.join();
        }
    }

    /// Servers currently crashed (awaiting [`Cluster::restart_server`]).
    #[must_use]
    pub fn crashed_servers(&self) -> Vec<ServerId> {
        let mut ids: Vec<u64> = self
            .salvage
            .lock()
            .expect("salvage lock")
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(ServerId::new).collect()
    }

    /// Restarts a crashed server: rebuilds its protocol state from the
    /// WAL ([`ServerCore::recover_from_wal`]), spawns a fresh thread on a
    /// fresh channel, and — for every in-doubt transaction — starts a
    /// resolver that drives the coordinator-inquiry path against this
    /// cluster's decision log until the decision is known.
    ///
    /// Blocks until the crashed core is available (a router-triggered
    /// crash may still be tearing the old thread down).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or no crash is pending
    /// for it.
    pub fn restart_server(&self, server: ServerId) {
        let idx = self.pos(server);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut core = loop {
            if let Some(core) = self
                .salvage
                .lock()
                .expect("salvage lock")
                .remove(&server.index())
            {
                break core;
            }
            assert!(
                Instant::now() < deadline,
                "server {server} has no crash to restart from"
            );
            std::thread::yield_now();
        };
        // Router-triggered crashes leave the joined-out handle in place.
        if let Some(handle) = self.handles.lock().expect("handles lock")[idx].take() {
            let _ = handle.join();
        }

        let in_doubt = core.recover_from_wal();
        let (tx, rx) = unbounded::<Input>();
        let my_addr = Addr {
            endpoint: Endpoint::Server(server),
            tx,
            id: fresh_addr_id(),
        };
        self.net.replace_server(idx, my_addr.clone());
        self.live_servers.fetch_add(1, Ordering::Release);
        let guard = LiveGuard(self.live_servers.clone());
        let net = Arc::clone(&self.net);
        let salvage = Arc::clone(&self.salvage);
        let (epoch, knobs) = (self.epoch, self.knobs);
        let handle = std::thread::spawn(move || {
            let _guard = guard;
            server_loop(core, rx, my_addr, epoch, knobs, net, salvage);
        });
        self.handles.lock().expect("handles lock")[idx] = Some(handle);
        self.net.note_recovery();
        for txn in in_doubt {
            self.spawn_resolver(server, txn);
        }
    }

    /// Spawns a thread that polls the decision log for `txn`'s fate and
    /// injects the answer into the recovered server — the threaded
    /// equivalent of the simulator's `Inquiry`/`InquiryReply` round trip
    /// (the "TM" here is the decision log all coordinators share).
    fn spawn_resolver(&self, server: ServerId, txn: TxnId) {
        let net = Arc::clone(&self.net);
        let log = Arc::clone(&self.decision_log);
        let variant = self.config.variant;
        let stopping = Arc::clone(&self.stopping);
        let idx = self.pos(server);
        let handle = std::thread::spawn(move || {
            // A reply address nobody reads: the participant's ack (if its
            // variant sends one) dies quietly, exactly like an ack to a
            // coordinator that already moved on.
            let (coordinator, _unread) = Addr::coordinator();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !stopping.load(Ordering::Acquire) && Instant::now() < deadline {
                let answer = {
                    let log = log.lock().expect("decision log lock");
                    safetx_txn::answer_inquiry(txn, variant, log.records())
                };
                if matches!(answer, safetx_txn::InquiryAnswer::Decided(_)) {
                    let _ = net
                        .tx(idx)
                        .send(Input::Proto(coordinator, Msg::InquiryReply { txn, answer }));
                    return;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        self.resolvers.lock().expect("resolvers lock").push(handle);
    }

    /// Drives the participants' termination protocol from the harness
    /// side: asks every live server which transactions it still holds
    /// state for (decision messages may have been dropped or crashed away)
    /// and answers each from the coordinator decision log. Returns how
    /// many transactions were resolved.
    ///
    /// Only meaningful on a **quiesced** cluster — no `execute` in flight;
    /// see [`terminate_leftover`] for what each leftover is told and why.
    pub fn resolve_in_doubt(&self) -> usize {
        let crashed: BTreeSet<u64> = self
            .salvage
            .lock()
            .expect("salvage lock")
            .keys()
            .copied()
            .collect();
        let mut resolved = 0;
        for server in self.server_ids() {
            if crashed.contains(&server.index()) {
                continue;
            }
            let (probe_tx, probe_rx) = unbounded();
            self.configure_server(server, move |core| {
                let _ = probe_tx.send((core.active_txn_ids(), core.in_doubt_txns()));
            });
            let (active, in_doubt) = probe_rx.recv().expect("probe reply");
            let in_doubt: BTreeSet<TxnId> = in_doubt.into_iter().collect();
            for txn in active {
                let msg = {
                    let log = self.decision_log.lock().expect("decision log lock");
                    let variant = self.config.variant;
                    terminate_leftover(txn, in_doubt.contains(&txn), variant, log.records())
                };
                let (coordinator, _unread) = Addr::coordinator();
                let _ = self
                    .net
                    .tx(self.pos(server))
                    .send(Input::Proto(coordinator, msg));
                resolved += 1;
            }
            // Barrier: the injected replies are processed before this
            // no-op configure returns, so callers can probe stores
            // immediately after.
            self.configure_server(server, |_| {});
        }
        resolved
    }

    /// The coordinator decision log, oldest record first — what every
    /// recovery inquiry is answered from, and the ground truth chaos
    /// audits compare server state against.
    #[must_use]
    pub fn decision_log_records(&self) -> Vec<CoordinatorRecord> {
        self.decision_log
            .lock()
            .expect("decision log lock")
            .records()
            .cloned()
            .collect()
    }

    /// Applies a configuration closure on a server thread and waits for it
    /// (seed data, install policies, add constraints).
    ///
    /// # Panics
    ///
    /// Panics when the server id is out of range or its thread has exited.
    pub fn configure_server(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut ServerCore<Addr>) + Send + 'static,
    ) {
        let (done_tx, done_rx) = unbounded();
        self.net
            .tx(self.pos(server))
            .send(Input::Configure(Box::new(f), done_tx))
            .expect("server thread alive");
        done_rx.recv().expect("configuration applied");
    }

    /// Publishes a policy version and notifies every replica.
    pub fn publish_policy(&self, policy: safetx_policy::Policy) {
        let id = policy.id();
        let version = policy.version();
        self.catalog.publish(policy);
        for server in self.server_ids() {
            self.configure_server(server, move |core| {
                core.install_policy(id, version);
            });
        }
    }

    /// Installs a policy version at every replica without publishing a new
    /// catalog entry.
    pub fn install_everywhere(&self, policy: PolicyId, version: PolicyVersion) {
        for server in self.server_ids() {
            self.configure_server(server, move |core| {
                core.install_policy(policy, version);
            });
        }
    }

    /// Executes one transaction synchronously: the shared blocking TM loop
    /// ([`safetx_core::drive_tm`]) drives the sans-io [`TmCore`] state
    /// machine from the calling thread, over a fresh reply channel. All
    /// scheme-pipeline and 2PVC logic lives in the core; this cluster only
    /// carries sends through the fault fabric, decision records to its log
    /// and master consults to its catalog. Thread-safe: concurrent callers
    /// contend on the servers' lock managers exactly like concurrent TMs.
    #[must_use]
    pub fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> ExecutionResult {
        self.run_tm(spec, credentials, None)
            .expect("no coordinator crash scheduled")
    }

    /// Executes one transaction whose coordinator dies at the given
    /// protocol moment (`None` when the crash fired; `Some` when the
    /// transaction finished before reaching the point). Whatever the
    /// crash leaves behind — participants blocked on a vote, in-doubt
    /// after a YES, holding locks for an unheard decision — is resolved
    /// by [`Cluster::resolve_in_doubt`] against the decision log, which
    /// the force-before-send discipline keeps authoritative.
    #[must_use]
    pub fn execute_with_coordinator_crash(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        point: TmCrashPoint,
    ) -> Option<ExecutionResult> {
        self.run_tm(spec, credentials, Some(point))
    }

    fn run_tm(
        &self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
    ) -> Option<ExecutionResult> {
        ChannelTm::new(std::slice::from_ref(self), &[0]).run(
            spec,
            credentials,
            crash,
            (&self.dropped_replies, &self.net.stats.timeout_aborts),
        )
    }

    /// Stops all server threads and waits for them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stopping.store(true, Ordering::Release);
        for handle in self.resolvers.lock().expect("resolvers lock").drain(..) {
            let _ = handle.join();
        }
        for i in 0..self.config.servers {
            let _ = self.net.tx(i).send(Input::Shutdown);
        }
        for slot in self.handles.lock().expect("handles lock").iter_mut() {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The coordinator's side of one transaction on the channel fabric: a
/// fresh reply channel, and where the shared TM loop's effects land.
///
/// `shards` own equal, contiguous server-id ranges over one shared catalog
/// and epoch; sends go to the shard owning the server, and decision
/// records into the log of every shard in `participants` (forced *before*
/// participants are told, so any shard's recovery inquiry is answered
/// locally). A plain [`Cluster`] is the one-shard case — which is what
/// makes a 1-shard deployment byte-identical to it.
pub(crate) struct ChannelTm<'a> {
    shards: &'a [Cluster],
    participants: &'a [usize],
    me: Addr,
    replies: Receiver<Input>,
}

impl<'a> ChannelTm<'a> {
    pub(crate) fn new(shards: &'a [Cluster], participants: &'a [usize]) -> Self {
        let (me, replies) = Addr::coordinator();
        ChannelTm {
            shards,
            participants,
            me,
            replies,
        }
    }

    /// Drives `spec` to termination (`None` when the scheduled coordinator
    /// crash fired first), accounting stale replies and reply-deadline
    /// aborts into `(dropped_replies, timeout_aborts)`.
    pub(crate) fn run(
        mut self,
        spec: &TransactionSpec,
        credentials: &[Credential],
        crash: Option<TmCrashPoint>,
        (dropped_replies, timeout_aborts): (&AtomicU64, &AtomicU64),
    ) -> Option<ExecutionResult> {
        let started = Instant::now();
        let cluster = &self.shards[0];
        let (epoch, reply_timeout) = (cluster.epoch, cluster.config.reply_timeout);
        let now = || now_since(epoch);
        let core = TmCore::new(
            cluster.config.tm_config(),
            spec.clone(),
            credentials.to_vec(),
            now(),
        );
        let run = drive_tm(&mut self, core, now, reply_timeout, crash)?;
        Some(ExecutionResult::from_run(
            run,
            started,
            dropped_replies,
            timeout_aborts,
        ))
    }

    fn logs(&self) -> impl Iterator<Item = &'a DecisionLog> + '_ {
        self.participants
            .iter()
            .map(|&shard| &self.shards[shard].decision_log)
    }
}

impl TmIo for ChannelTm<'_> {
    fn send(&mut self, server: ServerId, msg: Msg) {
        let first = &self.shards[0];
        let owner = server.index().saturating_sub(first.base) / first.config.servers as u64;
        // An id outside the deployment lands on an edge shard, whose `pos`
        // names it in its panic.
        let shard = &self.shards[(owner as usize).min(self.shards.len() - 1)];
        shard.net.to_server(&self.me, shard.pos(server), msg);
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Option<(ServerId, Msg)> {
        loop {
            let input = match deadline {
                // `None` here only once every sender is gone.
                None => self.replies.recv().ok()?,
                Some(t) => self.replies.recv_timeout(t).ok()?,
            };
            // Only servers' protocol traffic reaches a coordinator channel.
            if let Input::Proto(
                Addr {
                    endpoint: Endpoint::Server(from),
                    ..
                },
                msg,
            ) = input
            {
                return Some((from, msg));
            }
        }
    }

    fn try_recv(&mut self) -> Option<Msg> {
        loop {
            if let Input::Proto(_, msg) = self.replies.try_recv().ok()? {
                return Some(msg);
            }
        }
    }

    // The catalog IS the master here; answer inline from its epoch
    // snapshot (no map rebuild, no deep clone).
    fn master_versions(&self) -> Arc<VersionMap> {
        self.shards[0].catalog.latest_snapshot().1
    }

    fn force_decision(&mut self, record: CoordinatorRecord) {
        for log in self.logs() {
            log.lock().expect("decision log lock").force(record.clone());
        }
    }

    fn append_decision(&mut self, record: CoordinatorRecord) {
        for log in self.logs() {
            log.lock()
                .expect("decision log lock")
                .append(record.clone());
        }
    }
}

fn now_since(epoch: Instant) -> Timestamp {
    Timestamp::from_micros(epoch.elapsed().as_micros() as u64)
}

/// Sends a round's outputs, one coalesced send per destination, keyed by
/// [`Addr::id`] — process-unique per reply channel, which satisfies
/// [`coalesce_replies`]'s key invariant because this runtime never reuses
/// a channel across logical peers. A dead peer (a finished coordinator, a
/// crashed server) is fine to ignore.
fn send_coalesced(outputs: Vec<(Addr, Msg)>, my_addr: &Addr, net: &Net) {
    for (to, msg) in coalesce_replies(outputs, |a| a.id) {
        net.send_proto(my_addr, &to, msg);
    }
}

/// One server thread: blocks for an input, drains up to `server_batch`
/// protocol messages already queued, and feeds them to the core as one
/// [`ServerCore::run_round`]. The round's protocol-plane replies leave at
/// once; then its proof evaluations run here and the replies they feed
/// follow.
///
/// Control inputs act as barriers — the round that was open when one
/// arrives completes first, then the control input runs, preserving the
/// FIFO semantics `configure_server` callers (and `resolve_in_doubt`'s
/// no-op barrier) rely on.
fn server_loop(
    mut core: ServerCore<Addr>,
    rx: Receiver<Input>,
    my_addr: Addr,
    epoch: Instant,
    knobs: ResolvedKnobs,
    net: Arc<Net>,
    salvage: Salvage,
) {
    let mut round: Vec<(Addr, Msg)> = Vec::new();
    let crashed = loop {
        let Ok(first) = rx.recv() else { break false };
        let mut control = None;
        match first {
            Input::Proto(from, msg) => round.push((from, msg)),
            other => control = Some(other),
        }
        while control.is_none() && round.len() < knobs.server_batch {
            match rx.try_recv() {
                Ok(Input::Proto(from, msg)) => round.push((from, msg)),
                Ok(other) => control = Some(other),
                Err(_) => break,
            }
        }
        if !round.is_empty() {
            let out = core.run_round(now_since(epoch), round.drain(..));
            send_coalesced(out.replies, &my_addr, &net);
            if let Some(deferred) = out.deferred {
                send_coalesced(deferred.run(now_since(epoch)), &my_addr, &net);
            }
        }
        match control {
            None => {}
            Some(Input::Configure(f, done)) => {
                f(&mut core);
                let _ = done.send(());
            }
            Some(Input::Crash) => break true,
            Some(Input::Shutdown) => break false,
            Some(Input::Proto(..)) => unreachable!("proto inputs join the round"),
        }
    };
    if crashed {
        let Endpoint::Server(id) = my_addr.endpoint else {
            unreachable!("server loops run on server endpoints");
        };
        core.crash();
        net.note_crash();
        salvage
            .lock()
            .expect("salvage lock")
            .insert(id.index(), core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetx_policy::{Atom, Constant, PolicyBuilder};
    use safetx_store::Value;
    use safetx_txn::{Decision, Operation, QuerySpec};
    use safetx_types::{AdminDomain, DataItemId, UserId};

    fn seeded(cluster: Cluster) -> Cluster {
        let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text(
                "grant(read, records) :- role(U, member).\n\
                 grant(write, records) :- role(U, member).",
            )
            .unwrap()
            .build();
        cluster.publish_policy(policy);
        for s in 0..cluster.config().servers as u64 {
            cluster.configure_server(ServerId::new(s), move |core| {
                core.store_mut()
                    .write(DataItemId::new(s * 100), Value::Int(10), Timestamp::ZERO);
            });
        }
        cluster
    }

    fn cluster(scheme: ProofScheme, consistency: ConsistencyLevel) -> Cluster {
        seeded(Cluster::new(ClusterConfig {
            servers: 3,
            scheme,
            consistency,
            variant: CommitVariant::Standard,
            ..ClusterConfig::default()
        }))
    }

    fn member_credential(cluster: &Cluster) -> Credential {
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

    fn spec(cluster: &Cluster) -> TransactionSpec {
        TransactionSpec::new(
            cluster.next_txn_id(),
            UserId::new(1),
            vec![
                QuerySpec::new(
                    ServerId::new(0),
                    "read",
                    "records",
                    vec![Operation::Read(DataItemId::new(0))],
                ),
                QuerySpec::new(
                    ServerId::new(1),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(100), 1)],
                ),
                QuerySpec::new(
                    ServerId::new(2),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(200), -1)],
                ),
            ],
        )
    }

    #[test]
    fn knobs_resolve_explicit_then_environment_then_default() {
        let env = |name: &str| match name {
            "SAFETX_SERVER_BATCH" => Some("16".to_owned()),
            "SAFETX_CONCURRENCY_MODE" => Some("occ".to_owned()),
            other => panic!("unexpected variable {other}"),
        };
        let explicit = ClusterConfig {
            server_batch: Some(4),
            concurrency: Some(ConcurrencyMode::Locking),
            ..ClusterConfig::default()
        };
        let want = |server_batch, concurrency| ResolvedKnobs {
            server_batch,
            concurrency,
        };
        assert_eq!(
            explicit.resolve_with(env),
            want(4, ConcurrencyMode::Locking)
        );
        let unset = ClusterConfig::default();
        assert_eq!(unset.resolve_with(env), want(16, ConcurrencyMode::Occ));
        // Unset and unparsable variables fall through to the defaults,
        // and the drain limit is never below one message.
        let default = want(1, ConcurrencyMode::Locking);
        assert_eq!(unset.resolve_with(|_| None), default);
        assert_eq!(unset.resolve_with(|_| Some("many".to_owned())), default);
        assert_eq!(unset.resolve_with(|_| Some("0".to_owned())).server_batch, 1);
    }

    #[test]
    fn every_scheme_commits_on_real_threads() {
        for scheme in ProofScheme::ALL {
            for consistency in ConsistencyLevel::ALL {
                let cluster = cluster(scheme, consistency);
                let cred = member_credential(&cluster);
                let result = cluster.execute(&spec(&cluster), &[cred]);
                assert!(
                    result.is_commit(),
                    "{scheme}/{consistency}: {:?}",
                    result.outcome
                );
                cluster.shutdown();
            }
        }
    }

    #[test]
    fn missing_credential_aborts_on_threads() {
        let cluster = cluster(ProofScheme::Punctual, ConsistencyLevel::View);
        let result = cluster.execute(&spec(&cluster), &[]);
        assert_eq!(result.outcome.abort_reason(), Some(AbortReason::ProofFalse));
        cluster.shutdown();
    }

    #[test]
    fn commits_apply_writes_visible_to_later_transactions() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let cred = member_credential(&cluster);
        assert!(cluster
            .execute(&spec(&cluster), std::slice::from_ref(&cred))
            .is_commit());
        // Read back through a configure probe.
        let (tx, rx) = unbounded();
        cluster.configure_server(ServerId::new(1), move |core| {
            let _ = tx.send(core.store().read_int(DataItemId::new(100)));
        });
        assert_eq!(rx.recv().unwrap(), Some(11));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_transactions_serialize_via_locks() {
        let cluster = std::sync::Arc::new(cluster(ProofScheme::Deferred, ConsistencyLevel::View));
        let cred = member_credential(&cluster);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cluster = cluster.clone();
            let cred = cred.clone();
            let spec = spec(&cluster);
            joins.push(std::thread::spawn(move || {
                cluster.execute(&spec, &[cred]).is_commit()
            }));
        }
        let outcomes: Vec<bool> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        // At least one must commit; others may hit lock conflicts.
        assert!(outcomes.iter().any(|&c| c), "{outcomes:?}");
    }

    #[test]
    fn drop_joins_server_threads_even_when_the_caller_panics() {
        // Smuggle the gauge out of the panicking scope so we can observe
        // the threads after the unwind.
        let gauge: std::sync::Mutex<Option<Arc<AtomicUsize>>> = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
            assert_eq!(cluster.live_servers(), 3);
            *gauge.lock().unwrap() = Some(cluster.live_servers_gauge());
            // A transaction is in flight state-wise (locks taken and
            // released); then the driver dies without calling shutdown().
            let cred = member_credential(&cluster);
            assert!(cluster.execute(&spec(&cluster), &[cred]).is_commit());
            panic!("driver died mid-run");
        }));
        assert!(result.is_err(), "the probe must have panicked");
        let gauge = gauge.lock().unwrap().clone().expect("gauge captured");
        // Cluster::drop ran during unwind and joined every server thread.
        assert_eq!(
            gauge.load(Ordering::Acquire),
            0,
            "server threads leaked past Drop"
        );
    }

    #[test]
    fn shutdown_brings_live_servers_to_zero() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let gauge = cluster.live_servers_gauge();
        assert_eq!(cluster.live_servers(), 3);
        cluster.shutdown();
        assert_eq!(gauge.load(Ordering::Acquire), 0);
    }

    #[test]
    fn execution_view_supports_definition4_audit() {
        use safetx_core::trusted;
        for scheme in ProofScheme::ALL {
            for consistency in ConsistencyLevel::ALL {
                let cluster = cluster(scheme, consistency);
                let cred = member_credential(&cluster);
                let result = cluster.execute(&spec(&cluster), &[cred]);
                assert!(result.is_commit(), "{scheme}/{consistency}");
                assert!(
                    !result.view.is_empty(),
                    "{scheme}/{consistency}: commit recorded no proofs"
                );
                let authority = cluster.catalog().latest_versions();
                assert!(
                    trusted::is_trusted(&result.view, consistency, &authority),
                    "{scheme}/{consistency}: committed view fails Definition 4"
                );
                cluster.shutdown();
            }
        }
    }

    #[test]
    fn policy_update_between_queries_aborts_incremental() {
        let cluster = cluster(ProofScheme::IncrementalPunctual, ConsistencyLevel::Global);
        let cred = member_credential(&cluster);
        // Publish v2 after the cluster is set up but mid-"transaction" is
        // impossible to time deterministically on real threads, so publish
        // before: the master pin sees v2 everywhere and commits.
        let v2 = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .version(PolicyVersion(2))
            .rules_text(
                "grant(read, records) :- role(U, member).\n\
                 grant(write, records) :- role(U, member).",
            )
            .unwrap()
            .build();
        cluster.publish_policy(v2);
        let result = cluster.execute(&spec(&cluster), &[cred]);
        assert!(result.is_commit(), "{:?}", result.outcome);
        cluster.shutdown();
    }

    #[test]
    fn faults_disabled_counters_stay_zero() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let cred = member_credential(&cluster);
        assert!(cluster.execute(&spec(&cluster), &[cred]).is_commit());
        assert_eq!(cluster.fault_counters(), FaultCounters::default());
        assert!(!cluster.decision_log_records().is_empty());
        cluster.shutdown();
    }

    #[test]
    fn crash_and_restart_preserves_committed_state() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let cred = member_credential(&cluster);
        assert!(cluster.execute(&spec(&cluster), &[cred]).is_commit());
        cluster.crash_server(ServerId::new(1));
        assert_eq!(cluster.live_servers(), 2);
        assert_eq!(cluster.crashed_servers(), vec![ServerId::new(1)]);
        cluster.restart_server(ServerId::new(1));
        assert_eq!(cluster.live_servers(), 3);
        assert!(cluster.crashed_servers().is_empty());
        let (tx, rx) = unbounded();
        cluster.configure_server(ServerId::new(1), move |core| {
            let _ = tx.send((
                core.store().read_int(DataItemId::new(100)),
                core.active_txns(),
            ));
        });
        // The committed write survived the crash; no ghost state came back.
        assert_eq!(rx.recv().unwrap(), (Some(11), 0));
        let counters = cluster.fault_counters();
        assert_eq!(counters.server_crashes, 1);
        assert_eq!(counters.recoveries, 1);
        cluster.shutdown();
    }

    #[test]
    fn dead_server_times_out_as_unavailable_and_recovers() {
        let cluster = seeded(Cluster::new(ClusterConfig {
            servers: 3,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            variant: CommitVariant::Standard,
            reply_timeout: Some(Duration::from_millis(20)),
            ..ClusterConfig::default()
        }));
        let cred = member_credential(&cluster);
        cluster.crash_server(ServerId::new(2));
        let result = cluster.execute(&spec(&cluster), std::slice::from_ref(&cred));
        assert_eq!(
            result.outcome.abort_reason(),
            Some(AbortReason::ServerUnavailable),
            "{:?}",
            result.outcome
        );
        assert!(cluster.fault_counters().timeout_aborts >= 1);
        // After restart the cluster is whole again and commits.
        cluster.restart_server(ServerId::new(2));
        let result = cluster.execute(&spec(&cluster), &[cred]);
        assert!(result.is_commit(), "{:?}", result.outcome);
        cluster.shutdown();
    }

    #[test]
    fn crashed_participant_learns_commit_through_recovery() {
        // Crash server 2 right after its YES vote is on the wire: the TM
        // commits (votes are in), the participant stays in doubt, and the
        // restart resolver answers the inquiry from the decision log.
        let cluster = seeded(Cluster::new(ClusterConfig {
            servers: 3,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            variant: CommitVariant::Standard,
            reply_timeout: Some(Duration::from_millis(20)),
            ..ClusterConfig::default()
        }));
        let cred = member_credential(&cluster);
        cluster.set_fault_plan(FaultPlan {
            seed: 0,
            rules: Vec::new(),
            crashes: vec![crate::fault::CrashRule {
                server: ServerId::new(2),
                point: CrashPoint::AfterSend(MsgKind::CommitReply),
            }],
        });
        let result = cluster.execute(&spec(&cluster), &[cred]);
        assert!(result.is_commit(), "{:?}", result.outcome);
        cluster.clear_fault_plan();
        cluster.restart_server(ServerId::new(2));
        // The resolver delivers the commit; poll until applied.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (tx, rx) = unbounded();
            cluster.configure_server(ServerId::new(2), move |core| {
                let _ = tx.send((
                    core.store().read_int(DataItemId::new(200)),
                    core.decided_decision(TxnId::new(0)),
                ));
            });
            let (value, decided) = rx.recv().unwrap();
            if decided == Some(Decision::Commit) {
                assert_eq!(value, Some(9), "recovered write-set not applied");
                break;
            }
            assert!(Instant::now() < deadline, "recovery never resolved");
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.shutdown();
    }
}
