//! The channel link: the thread that sends a message serves the round.
//!
//! [`Cluster`] is the shared control plane ([`LinkedCluster`]) over this
//! link. A TM is a fresh reply channel; its sends cross the message-level
//! fault applicator below into the server's [`Host`] queue, and the sender
//! runs the round itself unless the host is busy — then the lock holder
//! does ([`Host::deliver`]). Replies go straight into the TM's channel, so
//! a round trip wakes no thread. Only a host whose WAL sync models a device
//! (`wal_sync_cost`) keeps a thread, which a send just wakes: the device
//! waits of different servers overlap instead of serialising on one TM.

use crate::deployment::{Link, LinkedCluster};
use crate::fault::{roll_kind, Fabric, Layer, Peer, Verdict};
use crate::host::{Host, Outbox, PeerAddr};
use crate::ClusterConfig;
use crossbeam::channel::{unbounded, Receiver, Sender};
use safetx_core::{Msg, TmIo};
use safetx_types::{ServerId, TxnId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A coordinator's reply address. Opaque: exposed only so
/// [`Cluster::configure_server`] closures can name `ServerCore<Addr>`.
#[derive(Clone)]
pub struct Addr {
    tx: Sender<(ServerId, Msg)>,
    /// Process-unique channel identity: reply coalescing groups a round's
    /// outputs by destination with it.
    id: u64,
}

impl Addr {
    /// A fresh reply address and the channel its replies arrive on.
    fn fresh() -> (Addr, Receiver<(ServerId, Msg)>) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let (tx, rx) = unbounded();
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        (Addr { tx, id }, rx)
    }

    /// A reply from `server`; a finished coordinator is fine to ignore.
    fn put(&self, server: ServerId, msg: Msg) {
        let _ = self.tx.send((server, msg));
    }
}

impl PeerAddr for Addr {
    fn key(&self) -> u64 {
        self.id
    }

    // A coordinator nobody reads: whatever is sent to it dies quietly,
    // exactly like an ack to a coordinator that already moved on.
    fn nobody() -> Addr {
        Addr::fresh().0
    }
}

/// The message fabric of a deployment: the single choke point every
/// protocol send crosses, and the message-level fault applicator.
///
/// With no fault plan armed the fast path is one relaxed atomic load; with
/// a plan armed, each message is rolled against the plan's edge rules.
pub(crate) struct Net {
    /// The hosts, by slot.
    hosts: Vec<Arc<Host<Addr>>>,
    fabric: Arc<Fabric>,
    /// Per-edge message sequence numbers, `[from][to]` flattened over
    /// `peers` slots per side (coordinator = 0, the server in slot *i* is
    /// *i* + 1 — see [`Net::peer_slot`]); shared with the hosts' outboxes.
    pub(crate) seqs: Arc<[AtomicU64]>,
    peers: usize,
}

impl Net {
    fn new(hosts: &[Arc<Host<Addr>>], fabric: &Arc<Fabric>) -> Net {
        let peers = hosts.len() + 1;
        Net {
            hosts: hosts.to_vec(),
            fabric: Arc::clone(fabric),
            seqs: (0..peers * peers).map(|_| AtomicU64::new(0)).collect(),
            peers,
        }
    }

    /// Dense slot of a server: 1.. in id order (the coordinator is 0).
    /// Panics outside the deployment.
    fn peer_slot(&self, id: ServerId) -> usize {
        let slot = id.index() as usize + 1;
        assert!(slot < self.peers, "server {id} outside the deployment");
        slot
    }

    /// Protocol send to a server: into its host's queue, addressed to the
    /// incarnation running now.
    fn to_server(&self, from: &Addr, server: ServerId, msg: Msg) {
        let slot = self.peer_slot(server);
        let host = &self.hosts[slot - 1];
        let incarnation = host.incarnation();
        if !self.fabric.is_armed() {
            host.deliver(incarnation, from.clone(), msg);
            return;
        }
        let (host, from) = (Arc::clone(host), from.clone());
        let edge = (Peer::Coordinator, Peer::Server(server));
        send_faulty(&self.fabric, &self.seqs[slot], edge, msg, move |msg| {
            host.deliver(incarnation, from.clone(), msg);
        });
    }

    /// How the replies of the host in `slot` leave: straight into the
    /// coordinator's reply channel, across the applicator while a plan is
    /// armed.
    fn outbox(&self, slot: usize) -> Outbox<Addr> {
        let (fabric, seqs) = (Arc::clone(&self.fabric), Arc::clone(&self.seqs));
        let server = self.hosts[slot].server();
        let edge = (slot + 1) * self.peers;
        Box::new(move |to: &Addr, msg| {
            if !fabric.is_armed() {
                return to.put(server, msg);
            }
            let to = to.clone();
            let peers = (Peer::Server(server), Peer::Coordinator);
            send_faulty(&fabric, &seqs[edge], peers, msg, move |msg| {
                to.put(server, msg);
            });
        })
    }
}

/// The message-level applicator: rolls one message on the edge `from → to`
/// against the armed plan, under the edge's next sequence number, and
/// performs the verdict with `put`.
#[cold]
fn send_faulty(
    fabric: &Arc<Fabric>,
    seq: &AtomicU64,
    (from, to): (Peer, Peer),
    msg: Msg,
    put: impl Fn(Msg) + Send + 'static,
) {
    let seq = seq.fetch_add(1, Ordering::Relaxed);
    let stats = &fabric.stats;
    match fabric.verdict(Layer::Message, from, to, roll_kind(&msg), seq) {
        Verdict::Deliver => put(msg),
        Verdict::Drop => {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
        }
        Verdict::Duplicate => {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            put(msg.clone());
            put(msg);
        }
        Verdict::Delay { by, reorder } => {
            let counter = if reorder {
                &stats.reordered
            } else {
                &stats.delayed
            };
            counter.fetch_add(1, Ordering::Relaxed);
            // Detached sleeper: delivery races everything sent in the
            // meantime, which is the point; a message to a server that
            // crashed meanwhile dies with the incarnation it was sent to.
            // Counted while held, so no host forgets a decision this
            // message could still hit.
            fabric.held.fetch_add(1, Ordering::AcqRel);
            let fabric = Arc::clone(fabric);
            std::thread::spawn(move || {
                std::thread::sleep(by);
                put(msg);
                fabric.held.fetch_sub(1, Ordering::AcqRel);
            });
        }
        Verdict::Corrupt { .. } | Verdict::Truncate { .. } | Verdict::Disconnect => {
            unreachable!("the message layer never rolls a frame fault")
        }
    }
}

/// The [`Link`] of the threaded runtime: the hosts' queues, served by the
/// senders — or by one device thread per host when WAL syncs model a
/// device.
pub struct ChannelLink {
    pub(crate) net: Arc<Net>,
    devices: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl ChannelLink {
    /// Opens every host's queue; a host whose WAL sync costs time gets a
    /// thread of its own, which drains the queue whenever a send wakes it.
    fn over(hosts: &[Arc<Host<Addr>>], fabric: &Arc<Fabric>) -> Self {
        let net = Arc::new(Net::new(hosts, fabric));
        let stop = Arc::<AtomicBool>::default();
        let mut devices = Vec::new();
        for (slot, host) in hosts.iter().enumerate() {
            let syncs_cost = host.with_core(|core| !core.wal().sync_cost().is_zero());
            let device = (syncs_cost == Some(true)).then(|| {
                let (host, stop) = (Arc::clone(host), Arc::clone(&stop));
                let thread = std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        host.drain();
                        std::thread::park();
                    }
                });
                let handle = thread.thread().clone();
                devices.push(thread);
                handle
            });
            host.open_queue(net.outbox(slot), device);
        }
        ChannelLink { net, devices, stop }
    }
}

impl Link for ChannelLink {
    type Addr = Addr;
    type Tm<'a> = ChannelTm<'a>;

    fn open(&self, _txn: TxnId) -> ChannelTm<'_> {
        let (me, replies) = Addr::fresh();
        ChannelTm {
            net: &self.net,
            me,
            replies,
        }
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for device in self.devices.drain(..) {
            device.thread().unpark();
            let _ = device.join();
        }
    }
}

/// The coordinator's side of one transaction on the channel link: a fresh
/// reply channel, and the fabric its sends cross.
pub struct ChannelTm<'a> {
    net: &'a Net,
    me: Addr,
    replies: Receiver<(ServerId, Msg)>,
}

impl TmIo for ChannelTm<'_> {
    fn send(&mut self, server: ServerId, msg: Msg) {
        self.net.to_server(&self.me, server, msg);
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Option<(ServerId, Msg)> {
        match deadline {
            // Never `None`: this end holds a sender of its own channel.
            None => self.replies.recv().ok(),
            Some(t) => self.replies.recv_timeout(t).ok(),
        }
    }

    fn try_recv(&mut self) -> Option<Msg> {
        self.replies.try_recv().ok().map(|(_, msg)| msg)
    }
}

/// The threaded runtime: the shared control plane over the hosts' queues.
pub type Cluster = LinkedCluster<ChannelLink>;

impl Cluster {
    /// Builds a cluster: one host per server, every group's on the same
    /// fabric.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is zero or does not divide `servers`.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        LinkedCluster::assemble(config, true, ChannelLink::over)
    }
}

#[cfg(test)]
impl ChannelLink {
    /// The device threads running.
    pub(crate) fn device_threads(&self) -> usize {
        self.devices.iter().filter(|t| !t.is_finished()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashPoint, CrashRule, EdgeRule, FaultPlan, PeerMatch, TxnRoute};
    use safetx_core::{
        AbortReason, ConcurrencyMode, ConsistencyLevel, MsgKind, ProofScheme, VersionMap,
    };
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

    /// Two groups of two servers.
    fn grouped() -> Cluster {
        seeded(Cluster::new(ClusterConfig {
            servers: 4,
            groups: 2,
            ..ClusterConfig::default()
        }))
    }

    /// One increment on each of the given servers.
    fn write_spec(cluster: &Cluster, servers: &[u64]) -> TransactionSpec {
        let write = |&s: &u64| {
            let add = Operation::Add(DataItemId::new(s * 100), 1);
            QuerySpec::new(ServerId::new(s), "write", "records", vec![add])
        };
        let queries = servers.iter().map(write).collect();
        TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
    }

    #[test]
    fn routes_by_participant_groups() {
        let groups = grouped();
        let route = |servers: &[u64]| groups.route_of(&write_spec(&groups, servers));
        assert_eq!(route(&[0, 1]), TxnRoute::Single(0));
        assert_eq!(route(&[2, 3]), TxnRoute::Single(1));
        assert_eq!(route(&[1, 2]), TxnRoute::Cross(vec![0, 1]));
        let plain = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        assert_eq!(plain.route_of(&spec(&plain)), TxnRoute::Single(0));
    }

    /// A single-group decision goes to its group's log only; a cross-group
    /// one to every participant group's, and its writes land in both.
    #[test]
    fn decisions_go_to_the_logs_of_the_groups_touched() {
        let cluster = grouped();
        let cred = member_credential(&cluster);
        let single = write_spec(&cluster, &[2, 3]);
        assert!(cluster
            .execute(&single, std::slice::from_ref(&cred))
            .is_commit());
        assert_eq!(cluster.group_decision(0, single.id), None);
        assert_eq!(cluster.group_decision(1, single.id), Some(Decision::Commit));
        let cross = write_spec(&cluster, &[0, 2]);
        assert!(cluster.execute(&cross, &[cred]).is_commit());
        for group in 0..2 {
            let logged = cluster.group_decision(group, cross.id);
            assert_eq!(logged, Some(Decision::Commit), "group {group}");
        }
        let read = |s: u64| {
            let item = DataItemId::new(s * 100);
            cluster.configure_server(ServerId::new(s), move |core| core.store().read_int(item))
        };
        assert_eq!([0, 1, 2].map(read), [Some(11), Some(10), Some(12)]);
        let denied = cluster.execute(&write_spec(&cluster, &[1, 3]), &[]);
        assert_eq!(denied.outcome.abort_reason(), Some(AbortReason::ProofFalse));
        let routes = cluster.route_counters();
        assert_eq!(
            (routes.single_shard_commits, routes.cross_shard_commits),
            (1, 1)
        );
        assert_eq!(routes.cross_shard_aborts, 1);
        assert!(routes.conserves(), "{routes:?}");
    }

    /// An explicit concurrency mode comes before `SAFETX_CONCURRENCY_MODE`,
    /// whatever the environment says; without one the variable decides.
    #[test]
    fn an_explicit_concurrency_mode_beats_the_environment() {
        let modes = |config| {
            let cluster = Cluster::new(config);
            [0, 1, 2].map(|s| cluster.configure_server(ServerId::new(s), |core| core.concurrency()))
        };
        for mode in [ConcurrencyMode::Locking, ConcurrencyMode::Occ] {
            let explicit = ClusterConfig {
                concurrency: Some(mode),
                ..ClusterConfig::default()
            };
            assert_eq!(modes(explicit), [mode; 3]);
        }
        let unset = modes(ClusterConfig::default());
        assert_eq!(unset, [ConcurrencyMode::from_env(); 3]);
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

    /// A cluster whose WAL syncs model a device.
    fn device_cluster() -> Cluster {
        seeded(Cluster::new(ClusterConfig {
            wal_sync_cost: Some(Duration::from_micros(50)),
            ..ClusterConfig::default()
        }))
    }

    /// (thread inventory) Free syncs: the senders serve every round, so
    /// the link runs no thread. A modelled device: one thread per server,
    /// for the link's lifetime — across crashes and restarts too.
    #[test]
    fn only_a_host_that_waits_on_a_device_has_a_thread() {
        let free = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let device = device_cluster();
        for cluster in [&free, &device] {
            let cred = member_credential(cluster);
            assert!(cluster.execute(&spec(cluster), &[cred]).is_commit());
            cluster.crash_server(ServerId::new(1));
            cluster.restart_server(ServerId::new(1));
        }
        assert_eq!(free.link().device_threads(), 0);
        assert_eq!(device.link().device_threads(), 3);
    }

    #[test]
    fn drop_joins_device_threads_even_when_the_caller_panics() {
        // Smuggle the hosts out of the panicking scope: a device thread
        // holds its host, so a host outliving the cluster is a leaked
        // thread.
        let hosts = std::sync::Mutex::new(Vec::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cluster = device_cluster();
            let net = &cluster.link().net;
            *hosts.lock().unwrap() = net.hosts.iter().map(Arc::downgrade).collect();
            // A transaction is in flight state-wise (locks taken and
            // released); then the driver dies without calling shutdown().
            let cred = member_credential(&cluster);
            assert!(cluster.execute(&spec(&cluster), &[cred]).is_commit());
            panic!("driver died mid-run");
        }));
        assert!(result.is_err(), "the probe must have panicked");
        let hosts = hosts.into_inner().unwrap();
        assert_eq!(hosts.len(), 3);
        // Cluster::drop ran during unwind and joined every device thread.
        assert!(
            hosts.iter().all(|host| host.upgrade().is_none()),
            "a device thread outlived Drop"
        );
    }

    /// An `ExecQuery` of `txn` for the record on server 1, proofless.
    fn exec(txn: u64) -> Msg {
        Msg::ExecQuery {
            txn: TxnId::new(txn),
            query_index: 0,
            query: Arc::new(QuerySpec::new(
                ServerId::new(1),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(100), 1)],
            )),
            user: UserId::new(1),
            credentials: Arc::from([]),
            evaluate_proof: false,
            pin_versions: VersionMap::new(),
            capabilities: vec![],
        }
    }

    /// Runs `body` while a `configure_server` closure holds `server`'s host
    /// lock, which is let go when `body` returns.
    fn while_held<R>(cluster: &Cluster, server: ServerId, body: impl FnOnce() -> R) -> R {
        let (held, is_held) = unbounded();
        let (open, gate) = unbounded::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                cluster.configure_server(server, move |_| {
                    held.send(()).expect("the caller waits");
                    let _ = gate.recv();
                });
            });
            is_held.recv().expect("the lock is held");
            let out = body();
            // Dropped on a panicking `body` too: the holder never hangs.
            drop(open);
            out
        })
    }

    /// (non-blocking send) A send to a host somebody holds queues and
    /// returns; the holder serves it before letting go.
    #[test]
    fn a_send_to_a_held_host_returns_at_once_and_is_served_on_release() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let (me, replies) = Addr::fresh();
        let net = &cluster.link().net;
        while_held(&cluster, ServerId::new(1), || {
            net.to_server(&me, ServerId::new(1), exec(900));
            assert!(replies.try_recv().is_err(), "served under the holder");
        });
        // `while_held` joined the holder, which served the queue.
        let (from, _) = replies.try_recv().expect("the holder served it");
        assert_eq!(from, ServerId::new(1));
        cluster.shutdown();
    }

    /// (no stranded message) Four coordinators with no reply deadline
    /// against brief lock holders: a message queued behind a holder that
    /// is letting go must still be served, or an `execute` waits forever.
    #[test]
    fn no_message_is_stranded_behind_a_brief_lock_holder() {
        let cluster = Arc::new(cluster(ProofScheme::Deferred, ConsistencyLevel::View));
        assert!(cluster.config().reply_timeout.is_none());
        let cred = member_credential(&cluster);
        let stop = Arc::new(AtomicBool::new(false));
        let prober = {
            let (cluster, stop) = (Arc::clone(&cluster), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    assert!(cluster.crashed_servers().is_empty());
                    let _ = cluster.wal_stats();
                }
            })
        };
        // Detached, not scoped: a stranded `execute` must fail the
        // watchdog below, not hang the test joining it.
        let (done, finished) = unbounded();
        for _ in 0..4 {
            let (cluster, cred, done) = (Arc::clone(&cluster), cred.clone(), done.clone());
            std::thread::spawn(move || {
                for _ in 0..1_000 {
                    let _ = cluster.execute(&spec(&cluster), std::slice::from_ref(&cred));
                }
                done.send(()).expect("the watchdog waits");
            });
        }
        for _ in 0..4 {
            let watchdog = finished.recv_timeout(Duration::from_secs(120));
            watchdog.expect("an execute waits for a stranded message");
        }
        stop.store(true, Ordering::Relaxed);
        prober.join().expect("the prober saw no crash");
        assert_eq!(cluster.resolve_in_doubt(), 0);
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
        let spec = spec(&cluster);
        assert!(cluster.execute(&spec, &[cred]).is_commit());
        assert_eq!(cluster.fault_counters(), FaultCounters::default());
        assert_eq!(cluster.logged_decision(spec.id), Some(Decision::Commit));
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
    /// sit in a participant's queue; a store probe right behind it must see
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

    /// (stale inbox) Nothing sent to a server before its crash reaches the
    /// recovered core: what is queued dies with the incarnation, and so
    /// does a message that arrives after the restart but was sent before
    /// the crash (a delayed one).
    #[test]
    fn stale_inbox_dies_with_the_crashed_incarnation() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let victim = ServerId::new(1);
        let (me, replies) = Addr::fresh();
        let net = &cluster.link().net;
        let before = net.hosts[1].incarnation();
        // Queued behind the holder, which serves them as it lets go: the
        // first kills the server instead of reaching it, the second finds
        // a dead host.
        while_held(&cluster, victim, || {
            net.to_server(&me, victim, exec(900));
            net.to_server(&me, victim, exec(901));
            cluster.set_fault_plan(FaultPlan {
                crashes: vec![CrashRule {
                    server: victim,
                    point: CrashPoint::BeforeReceive(MsgKind::ExecQuery),
                }],
                ..FaultPlan::default()
            });
        });
        cluster.clear_fault_plan();
        assert_eq!(cluster.crashed_servers(), vec![victim]);
        cluster.restart_server(victim);
        // Sent before the crash, arriving now — as a delayed message would.
        net.hosts[1].deliver(before, me.clone(), exec(902));
        // None of the three reached the recovered core, or anybody.
        let active = cluster.configure_server(victim, |core| core.active_txns());
        assert_eq!(active, 0);
        assert!(replies.try_recv().is_err());
        // The recovered core does serve what is sent to it.
        net.to_server(&me, victim, exec(903));
        assert!(replies.try_recv().is_ok());
        cluster.shutdown();
    }

    /// (guard while held) The TM gives up on a query the plan holds back,
    /// and its abort reaches the server first: the server never saw the
    /// transaction, but remembers the decision, so the late query is
    /// refused instead of re-creating the transaction with an X lock. The
    /// memo is not forgotten while the sleeper holds the query.
    #[test]
    fn a_decision_before_its_held_back_query_refuses_the_query() {
        let cluster = seeded(Cluster::new(ClusterConfig {
            servers: 3,
            reply_timeout: Some(Duration::from_millis(20)),
            ..ClusterConfig::default()
        }));
        let cred = member_credential(&cluster);
        let write_100 = |cluster: &Cluster| {
            let query = QuerySpec::new(
                ServerId::new(1),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(100), 1)],
            );
            TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), vec![query])
        };
        cluster.set_fault_plan(FaultPlan {
            rules: vec![EdgeRule {
                from: PeerMatch::Coordinator,
                to: PeerMatch::Server(ServerId::new(1)),
                delay_permille: 1000,
                delay_min_us: 200_000,
                delay_max_us: 200_000,
                ..EdgeRule::default()
            }],
            ..FaultPlan::default()
        });
        // Only the query is held back: the plan goes once it is.
        let result = std::thread::scope(|scope| {
            scope.spawn(|| {
                while cluster.fault_counters().faults_delayed == 0 {
                    std::thread::sleep(Duration::from_micros(50));
                }
                cluster.clear_fault_plan();
            });
            cluster.execute(&write_100(&cluster), std::slice::from_ref(&cred))
        });
        let reason = result.outcome.abort_reason();
        assert_eq!(reason, Some(AbortReason::ServerUnavailable));
        let fabric = &cluster.link().net.fabric;
        while fabric.held.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let active = cluster.configure_server(ServerId::new(1), |core| core.active_txns());
        assert_eq!(
            active, 0,
            "the late query re-created the aborted transaction"
        );
        let result = cluster.execute(&write_100(&cluster), &[cred]);
        assert!(result.is_commit(), "{:?}", result.outcome);
        cluster.shutdown();
    }

    #[test]
    fn crash_and_restart_preserves_committed_state() {
        let cluster = cluster(ProofScheme::Deferred, ConsistencyLevel::View);
        let cred = member_credential(&cluster);
        assert!(cluster.execute(&spec(&cluster), &[cred]).is_commit());
        cluster.crash_server(ServerId::new(1));
        assert_eq!(cluster.crashed_servers(), vec![ServerId::new(1)]);
        cluster.restart_server(ServerId::new(1));
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
        // The resolver delivers the commit; poll until the in-doubt
        // transaction is gone (the decided memo is no witness: a host may
        // forget it after any round).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (value, active) = cluster.configure_server(ServerId::new(2), |core| {
                (
                    core.store().read_int(DataItemId::new(200)),
                    core.active_txns(),
                )
            });
            if active == 0 {
                assert_eq!(value, Some(9), "recovered write-set not applied");
                break;
            }
            assert!(Instant::now() < deadline, "recovery never resolved");
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.shutdown();
    }
}
