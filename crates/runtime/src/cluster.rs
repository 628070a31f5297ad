//! The channel link: a thread per server draining a crossbeam inbox.
//!
//! [`Cluster`] is the shared control plane ([`LinkedCluster`]) over this
//! link. Each server's thread blocks on its inbox, drains up to
//! `server_batch` protocol messages already queued and runs them as one
//! round on the server's [`Host`]; a TM is a fresh reply channel whose
//! sends cross the message-level fault applicator below. A crash kills the
//! inbox with the incarnation: a restarted server gets a fresh channel and
//! a fresh thread, and whatever was queued to the old one is lost.

use crate::deployment::{Link, LinkedCluster, ResolvedKnobs, Topology};
use crate::fault::{roll_kind, Fabric, Layer, Peer, Verdict};
use crate::host::{Host, PeerAddr};
use crate::ClusterConfig;
use crossbeam::channel::{unbounded, Receiver, Sender};
use safetx_core::{Msg, TmIo};
use safetx_types::{ServerId, TxnId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Who sent a message (and how to reply to them). Opaque: exposed only so
/// [`Cluster::configure_server`] closures can name `ServerCore<Addr>`.
#[derive(Clone)]
pub struct Addr {
    endpoint: Peer,
    tx: Sender<Input>,
    /// Process-unique channel identity: reply coalescing groups a round's
    /// outputs by destination with it (two coordinators share a
    /// `Peer::Coordinator` but never a channel).
    id: u64,
}

impl Addr {
    /// A fresh endpoint and the channel its messages arrive on.
    fn fresh(endpoint: Peer) -> (Addr, Receiver<Input>) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let (tx, rx) = unbounded::<Input>();
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        (Addr { endpoint, tx, id }, rx)
    }
}

impl PeerAddr for Addr {
    fn key(&self) -> u64 {
        self.id
    }

    // A coordinator nobody reads: whatever is sent to it dies quietly,
    // exactly like an ack to a coordinator that already moved on.
    fn nobody() -> Addr {
        Addr::fresh(Peer::Coordinator).0
    }
}

impl std::fmt::Debug for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Addr({:?})", self.endpoint)
    }
}

/// What flows through the channels.
// Msg dominates the variant sizes; inputs are moved once into an unbounded
// channel and never stored in bulk, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Input {
    Proto(Addr, Msg),
    /// Acknowledged once everything queued before it has been served.
    Fence(Sender<()>),
    Shutdown,
}

/// The message fabric of one cluster: the single choke point every
/// protocol send crosses, and the message-level fault applicator.
///
/// With no fault plan armed the fast path is one relaxed atomic load and an
/// uncontended read lock around the destination lookup. With a plan armed,
/// each message is rolled against the plan's edge rules.
///
/// The inbox registry lives here so a restarted server can swap its
/// channel without stopping traffic from concurrent TM threads.
pub(crate) struct Net {
    /// Current address (endpoint + inbox) of each server, by slot.
    addrs: RwLock<Vec<Addr>>,
    fabric: Arc<Fabric>,
    /// Per-edge message sequence numbers, `[from][to]` flattened over
    /// `peers` slots per side (coordinator = 0, the server in slot *i* is
    /// *i* + 1 — see [`Net::peer_slot`]).
    seqs: Vec<AtomicU64>,
    peers: usize,
    /// First global server id owned by this fabric: sharded deployments
    /// give each shard a disjoint id range, and the dense sequence-counter
    /// slots are relative to it.
    base: u64,
}

impl Net {
    fn new(servers: usize, base: u64, fabric: Arc<Fabric>) -> Net {
        let peers = servers + 1;
        // Placeholders nobody reads: `ChannelLink::up` installs each
        // server's first inbox.
        let dead = |i| Addr::fresh(Peer::Server(ServerId::new(base + i as u64))).0;
        Net {
            addrs: RwLock::new((0..servers).map(dead).collect()),
            fabric,
            seqs: (0..peers * peers).map(|_| AtomicU64::new(0)).collect(),
            peers,
            base,
        }
    }

    /// Dense per-fabric slot of a peer: coordinator 0, servers 1.. in
    /// id order relative to this fabric's first server id.
    ///
    /// # Panics
    ///
    /// Panics when a server id is outside this fabric's range.
    fn peer_slot(&self, peer: Peer) -> usize {
        match peer {
            Peer::Coordinator => 0,
            Peer::Server(id) => {
                let slot = id.index().checked_sub(self.base).map(|s| s as usize + 1);
                slot.filter(|&s| s < self.peers)
                    .unwrap_or_else(|| panic!("server {id} outside this cluster's id range"))
            }
        }
    }

    /// The current address of the server in `slot`.
    fn server_addr(&self, slot: usize) -> Addr {
        self.addrs.read().expect("net addrs")[slot].clone()
    }

    /// Protocol send to a server.
    fn to_server(&self, from: &Addr, server: ServerId, msg: Msg) {
        let slot = self.peer_slot(Peer::Server(server)) - 1;
        if !self.fabric.is_armed() {
            let addrs = self.addrs.read().expect("net addrs");
            let _ = addrs[slot].tx.send(Input::Proto(from.clone(), msg));
            return;
        }
        self.send_faulty(from, &self.server_addr(slot), msg);
    }

    /// Protocol send to an arbitrary address (server → coordinator
    /// replies). A dead peer (a finished coordinator, a crashed server) is
    /// fine to ignore.
    fn send_proto(&self, from: &Addr, to: &Addr, msg: Msg) {
        if !self.fabric.is_armed() {
            let _ = to.tx.send(Input::Proto(from.clone(), msg));
            return;
        }
        self.send_faulty(from, to, msg);
    }

    /// The message-level applicator: rolls one message against the armed
    /// plan and performs the verdict.
    #[cold]
    fn send_faulty(&self, from: &Addr, to: &Addr, msg: Msg) {
        let edge = self.peer_slot(from.endpoint) * self.peers + self.peer_slot(to.endpoint);
        let seq = self.seqs[edge].fetch_add(1, Ordering::Relaxed);
        let stats = &self.fabric.stats;
        let deliver = |msg| {
            let _ = to.tx.send(Input::Proto(from.clone(), msg));
        };
        let (layer, kind) = (Layer::Message, roll_kind(&msg));
        match self
            .fabric
            .verdict(layer, from.endpoint, to.endpoint, kind, seq)
        {
            Verdict::Deliver => deliver(msg),
            Verdict::Drop => {
                stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Duplicate => {
                stats.duplicated.fetch_add(1, Ordering::Relaxed);
                deliver(msg.clone());
                deliver(msg);
            }
            Verdict::Delay { by, reorder } => {
                let counter = if reorder {
                    &stats.reordered
                } else {
                    &stats.delayed
                };
                counter.fetch_add(1, Ordering::Relaxed);
                let (from, to_tx) = (from.clone(), to.tx.clone());
                // Detached sleeper: delivery races everything sent in the
                // meantime, which is exactly the point. A send into a since
                // dead or replaced channel is a message lost to the crash.
                std::thread::spawn(move || {
                    std::thread::sleep(by);
                    let _ = to_tx.send(Input::Proto(from, msg));
                });
            }
            Verdict::Corrupt { .. } | Verdict::Truncate { .. } | Verdict::Disconnect => {
                unreachable!("the message layer never rolls a frame fault")
            }
        }
    }
}

/// Decrements the live-thread gauge when a server thread exits — normally
/// or by panic (the guard drops during unwind either way).
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The [`Link`] of the threaded runtime: an inbox and a thread per server.
pub struct ChannelLink {
    pub(crate) net: Arc<Net>,
    /// The thread serving each slot's current (or dead, not yet reaped)
    /// incarnation.
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    live: Arc<AtomicUsize>,
    batch: usize,
}

impl ChannelLink {
    fn over(hosts: &[Arc<Host<Addr>>], base: u64, fabric: &Arc<Fabric>, batch: usize) -> Self {
        let link = ChannelLink {
            net: Arc::new(Net::new(hosts.len(), base, Arc::clone(fabric))),
            threads: Mutex::new(hosts.iter().map(|_| None).collect()),
            live: Arc::new(AtomicUsize::new(0)),
            batch,
        };
        for (slot, host) in hosts.iter().enumerate() {
            link.up(slot, host);
        }
        link
    }

    /// The coordinator's end over several clusters' fabrics at once: the
    /// fabrics own equal, contiguous server-id ranges, and a send goes to
    /// the one owning the server. One fabric is the plain-cluster case —
    /// which is what makes a 1-shard deployment byte-identical to it.
    pub(crate) fn open_over(nets: &[Arc<Net>]) -> ChannelTm<'_> {
        let (me, replies) = Addr::fresh(Peer::Coordinator);
        ChannelTm { nets, me, replies }
    }
}

impl Link for ChannelLink {
    type Addr = Addr;
    type Tm<'a> = ChannelTm<'a>;

    fn open(&self, _txn: TxnId) -> ChannelTm<'_> {
        Self::open_over(std::slice::from_ref(&self.net))
    }

    // FIFO inbox: the acknowledgment comes back once the server thread has
    // served everything queued before the fence. A dead incarnation drops
    // the fence unanswered — nothing is queued to a dead server.
    fn fence(&self, slot: usize) {
        let (done, fenced) = unbounded();
        if self
            .net
            .server_addr(slot)
            .tx
            .send(Input::Fence(done))
            .is_ok()
        {
            let _ = fenced.recv();
        }
    }

    // Channel sends never block, so there is nobody to unblock: just wake
    // the server thread so it can exit.
    fn down(&self, slot: usize) {
        let _ = self.net.server_addr(slot).tx.send(Input::Shutdown);
    }

    fn reap(&self, slot: usize) {
        let thread = self.threads.lock().expect("threads lock")[slot].take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }

    fn up(&self, slot: usize, host: &Arc<Host<Addr>>) {
        let (me, inbox) = Addr::fresh(Peer::Server(host.server()));
        self.net.addrs.write().expect("net addrs")[slot] = me.clone();
        self.live.fetch_add(1, Ordering::Release);
        let guard = LiveGuard(Arc::clone(&self.live));
        let (host, net, batch) = (Arc::clone(host), Arc::clone(&self.net), self.batch);
        let thread = std::thread::spawn(move || {
            let _guard = guard;
            server_thread(&host, &inbox, &me, batch, &net);
        });
        self.threads.lock().expect("threads lock")[slot] = Some(thread);
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        let slots = self.threads.get_mut().map_or(0, |threads| threads.len());
        for slot in 0..slots {
            self.down(slot);
        }
        // Teardown runs from `Drop`, which must not panic: a poisoned
        // registry is still a valid list of handles.
        let threads = self.threads.get_mut().unwrap_or_else(|e| e.into_inner());
        for thread in threads.iter_mut().filter_map(Option::take) {
            let _ = thread.join();
        }
    }
}

/// One server thread: blocks for an input, drains up to `batch` protocol
/// messages already queued, and runs them as one round on the host, whose
/// replies leave through the fabric. A control input ends the drain — the
/// round that was open when it arrived completes first, which is the FIFO
/// guarantee a fence acknowledges. A dead host (crashed by the harness or
/// by a crash point inside the round) ends the thread, and the inbox —
/// with whatever is still queued in it — dies with it.
fn server_thread(host: &Host<Addr>, inbox: &Receiver<Input>, me: &Addr, batch: usize, net: &Net) {
    let mut round: Vec<(Addr, Msg)> = Vec::new();
    while let Ok(first) = inbox.recv() {
        let mut control = None;
        match first {
            Input::Proto(from, msg) => round.push((from, msg)),
            other => control = Some(other),
        }
        while control.is_none() && round.len() < batch {
            match inbox.try_recv() {
                Ok(Input::Proto(from, msg)) => round.push((from, msg)),
                Ok(other) => control = Some(other),
                Err(_) => break,
            }
        }
        if !round.is_empty() && !host.serve(&mut round, |to, msg| net.send_proto(me, to, msg)) {
            return;
        }
        match control {
            Some(Input::Fence(done)) => {
                let _ = done.send(());
            }
            Some(Input::Shutdown) => return,
            Some(Input::Proto(..)) | None => {}
        }
    }
}

/// The coordinator's side of one transaction on the channel link: a fresh
/// reply channel, and the fabrics its sends cross.
pub struct ChannelTm<'a> {
    nets: &'a [Arc<Net>],
    me: Addr,
    replies: Receiver<Input>,
}

impl TmIo for ChannelTm<'_> {
    fn send(&mut self, server: ServerId, msg: Msg) {
        let first = &self.nets[0];
        let owner = server.index().saturating_sub(first.base) / (first.peers as u64 - 1);
        // An id outside the deployment lands on an edge fabric, whose
        // `peer_slot` names it in its panic.
        let net = &self.nets[(owner as usize).min(self.nets.len() - 1)];
        net.to_server(&self.me, server, msg);
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Option<(ServerId, Msg)> {
        loop {
            let input = match deadline {
                // `None` here only once every sender is gone.
                None => self.replies.recv().ok()?,
                Some(t) => self.replies.recv_timeout(t).ok()?,
            };
            // Only servers' protocol traffic reaches a coordinator channel.
            if let Input::Proto(from, msg) = input {
                if let Peer::Server(from) = from.endpoint {
                    return Some((from, msg));
                }
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
}

/// The threaded runtime: the shared control plane over crossbeam
/// channels, a thread per server.
pub type Cluster = LinkedCluster<ChannelLink>;

impl Cluster {
    /// Spawns the server threads of a standalone cluster.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_topology(config, Topology::fresh())
    }

    /// Spawns the server threads as one cluster of a larger deployment
    /// described by `topology` (see [`Topology`]). [`Cluster::new`] is the
    /// standalone special case.
    #[must_use]
    pub fn with_topology(config: ClusterConfig, topology: Topology) -> Self {
        let base = topology.first_server;
        let link = |hosts: &[_], fabric: &_, knobs: ResolvedKnobs| {
            ChannelLink::over(hosts, base, fabric, knobs.server_batch)
        };
        LinkedCluster::assemble(config, topology, true, link)
    }

    /// How many server threads are currently running. Reaches zero only
    /// after shutdown (or drop) has joined every thread.
    #[must_use]
    pub fn live_servers(&self) -> usize {
        self.link().live.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashPoint, CrashRule, FaultPlan};
    use safetx_core::{AbortReason, ConsistencyLevel, MsgKind, ProofScheme, VersionMap};
    use safetx_metrics::FaultCounters;
    use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
    use safetx_store::Value;
    use safetx_txn::{CommitVariant, Decision, Operation, QuerySpec, TransactionSpec};
    use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, Timestamp, UserId};
    use std::time::Instant;

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
            *gauge.lock().unwrap() = Some(Arc::clone(&cluster.link().live));
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
        let gauge = Arc::clone(&cluster.link().live);
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

    /// (disarmed path) With no plan armed a send never reaches the
    /// applicator: nothing is rolled — every per-edge sequence counter
    /// stays untouched — and nothing is counted.
    #[test]
    fn disarmed_path_never_reaches_the_applicator() {
        let cluster = cluster(ProofScheme::Continuous, ConsistencyLevel::Global);
        let cred = member_credential(&cluster);
        let rolled = |cluster: &Cluster| {
            let seqs = cluster.link().net.seqs.iter();
            seqs.map(|seq| seq.load(Ordering::Relaxed)).sum::<u64>()
        };
        assert!(cluster
            .execute(&spec(&cluster), std::slice::from_ref(&cred))
            .is_commit());
        assert_eq!(rolled(&cluster), 0);
        assert_eq!(cluster.fault_counters(), FaultCounters::default());
        // The counters do witness rolls: an armed (empty) plan moves them.
        cluster.set_fault_plan(FaultPlan::default());
        assert!(cluster.execute(&spec(&cluster), &[cred]).is_commit());
        assert!(rolled(&cluster) > 0);
        cluster.shutdown();
    }

    /// (fence) `configure_server` and `resolve_in_doubt` run after every
    /// message already queued to the server. Presumed-commit decisions are
    /// unacknowledged, so `execute` returns while the decision may still
    /// sit in a participant's inbox; a store probe right behind it must see
    /// the write, and termination must find nothing left to resolve.
    #[test]
    fn fence_orders_probes_and_resolution_behind_queued_decisions() {
        let cluster = seeded(Cluster::new(ClusterConfig {
            servers: 3,
            variant: CommitVariant::PresumedCommit,
            ..ClusterConfig::default()
        }));
        let cred = member_credential(&cluster);
        for committed in 1..=200 {
            let result = cluster.execute(&spec(&cluster), std::slice::from_ref(&cred));
            assert!(result.is_commit(), "{:?}", result.outcome);
            let probe = cluster.configure_server(ServerId::new(1), |core| {
                core.store().read_int(DataItemId::new(100))
            });
            assert_eq!(probe, Some(10 + committed));
            assert_eq!(cluster.resolve_in_doubt(), 0);
        }
        cluster.shutdown();
    }

    /// (stale inbox) Nothing queued to a server before its crash reaches
    /// the recovered core: the inbox dies with the incarnation.
    #[test]
    fn stale_inbox_dies_with_the_crashed_incarnation() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let victim = ServerId::new(1);
        let exec = |txn| Msg::ExecQuery {
            txn: TxnId::new(txn),
            query_index: 0,
            query: Arc::new(QuerySpec::new(
                victim,
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(100), 1)],
            )),
            user: UserId::new(1),
            credentials: Arc::from([]),
            evaluate_proof: false,
            pin_versions: VersionMap::new(),
            capabilities: vec![],
        };
        let (me, replies) = Addr::fresh(Peer::Coordinator);
        let (held, is_held) = unbounded();
        let (open, gate) = unbounded::<()>();
        std::thread::scope(|scope| {
            // Hold the host lock, so what is sent next stays queued: the
            // server thread takes the first message and blocks in `serve`,
            // the second waits in the inbox behind it.
            let cluster = &cluster;
            scope.spawn(move || {
                cluster.configure_server(victim, |_| {
                    held.send(()).expect("main thread waits");
                    let _ = gate.recv();
                });
            });
            is_held.recv().expect("the lock is held");
            let net = &cluster.link().net;
            net.to_server(&me, victim, exec(900));
            net.to_server(&me, victim, exec(901));
            // The first message kills the server instead of reaching it.
            cluster.set_fault_plan(FaultPlan {
                crashes: vec![CrashRule {
                    server: victim,
                    point: CrashPoint::BeforeReceive(MsgKind::ExecQuery),
                }],
                ..FaultPlan::default()
            });
            open.send(()).expect("the gate is waited on");
        });
        // Disarming fences: the crash has fired when this returns.
        cluster.clear_fault_plan();
        assert_eq!(cluster.crashed_servers(), vec![victim]);
        cluster.restart_server(victim);
        // The probe runs behind whatever the fresh inbox holds — nothing:
        // neither message reached the recovered core, or anybody.
        let active = cluster.configure_server(victim, |core| core.active_txns());
        assert_eq!(active, 0);
        assert!(replies.try_recv().is_err());
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
            crashes: vec![CrashRule {
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
