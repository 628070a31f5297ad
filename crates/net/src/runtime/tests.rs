use super::*;
use crate::wire::write_frame;
use safetx_core::{
    ConsistencyLevel, MsgKind, ProofScheme, ResourcePolicyMap, SharedCas, SharedCatalog, VersionMap,
};
use safetx_policy::{Atom, CaRegistry, CertificateAuthority, Constant, Credential, PolicyBuilder};
use safetx_runtime::{CrashPoint, CrashRule, FaultPlan};
use safetx_store::Value;
use safetx_txn::{
    CommitVariant, Decision, InquiryAnswer, Operation, QuerySpec, TransactionSpec, Vote,
};
use safetx_types::{
    AdminDomain, CaId, DataItemId, DataVersion, PolicyId, PolicyVersion, Timestamp, UserId,
};
use std::sync::Barrier;

/// A routed send fails only when the route's receiver is already gone.
/// Such a reply is a stale straggler like any unroutable one — counted
/// unless it is an ack.
#[test]
fn reply_that_outlives_its_receiver_counts_as_dropped() {
    let txn = TxnId::new(7);
    let routes: Routes = Arc::default();
    let (tx, rx) = unbounded();
    routes.lock().unwrap().insert(txn.index(), tx);
    drop(rx);
    let dropped = AtomicU64::new(0);
    let from = ServerId::new(0);
    let done = Msg::QueryDone {
        txn,
        query_index: 0,
        ok: true,
        proof: None,
        capability: None,
    };
    route_reply(from, done, &routes, &dropped);
    assert_eq!(dropped.load(Ordering::Relaxed), 1);
    route_reply(from, Msg::Ack { txn }, &routes, &dropped);
    assert_eq!(dropped.load(Ordering::Relaxed), 1, "acks never count");
}

const SERVER: ServerId = ServerId::new(0);
const ITEMS: u64 = 16;

fn member_policy() -> safetx_policy::Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text("grant(write, records) :- role(U, member).")
        .expect("rules parse")
        .build()
}

fn member_fact() -> Atom {
    Atom::fact(
        "role",
        vec![Constant::symbol("u1"), Constant::symbol("member")],
    )
}

/// Server 0 with the member policy installed and `ITEMS` items at zero,
/// plus a member's credential.
fn seeded_core() -> (ServerCore<NetAddr>, Credential) {
    let catalog = SharedCatalog::new();
    catalog.publish(member_policy());
    let mut ca = CertificateAuthority::new(CaId::new(0), 9);
    let credential = ca.issue(
        UserId::new(1),
        member_fact(),
        Timestamp::ZERO,
        Timestamp::MAX,
    );
    let mut registry = CaRegistry::new();
    registry.register(ca);
    let mut core = ServerCore::new(
        SERVER,
        catalog,
        ResourcePolicyMap::single(PolicyId::new(0)),
        SharedCas::new(registry),
        CommitVariant::Standard,
    );
    core.install_policy(PolicyId::new(0), PolicyVersion::INITIAL);
    for item in 0..ITEMS {
        core.store_mut()
            .write(DataItemId::new(item), Value::Int(0), Timestamp::ZERO);
    }
    (core, credential)
}

/// The three requests that take one single-query transaction (add 1 to
/// `item`) from execution to commit at a server.
fn txn_requests(txn: u64, item: u64, credential: &Credential) -> [Msg; 3] {
    let txn = TxnId::new(txn);
    [
        Msg::ExecQuery {
            txn,
            query_index: 0,
            query: Arc::new(QuerySpec::new(
                SERVER,
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(item), 1)],
            )),
            user: UserId::new(1),
            credentials: Arc::from([credential.clone()]),
            evaluate_proof: true,
            pin_versions: VersionMap::new(),
            capabilities: vec![],
        },
        Msg::PrepareToCommit {
            txn,
            validate: true,
            expected_queries: vec![0],
        },
        Msg::Decision {
            txn,
            decision: Decision::Commit,
        },
    ]
}

/// Panics unless `reply` is the good answer to request number `step` of
/// [`txn_requests`] for `txn`.
fn assert_answers(reply: &Msg, txn: u64, step: usize) {
    assert_eq!(reply_txn(reply), Some(TxnId::new(txn)), "{reply:?}");
    let good = match (step, reply) {
        (0, Msg::QueryDone { ok, proof, .. }) => *ok && proof.is_some(),
        (1, Msg::CommitReply { reply, .. }) => reply.vote == Vote::Yes && reply.truth,
        (2, Msg::Ack { .. }) => true,
        _ => false,
    };
    assert!(good, "txn {txn} step {step}: {reply:?}");
}

fn store_image(core: &ServerCore<NetAddr>) -> Vec<(DataItemId, Value, DataVersion)> {
    let items = core.store().iter();
    items
        .map(|(id, v)| (id, v.value.clone(), v.version))
        .collect()
}

/// The far end of one connection to a host, counting what crosses it.
struct TestPeer {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    /// (frames, bytes) written and read.
    sent: (u64, u64),
    got: (u64, u64),
}

impl TestPeer {
    fn over(stream: UnixStream) -> TestPeer {
        // A reply that never comes fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        TestPeer {
            reader: BufReader::new(stream.try_clone().expect("clone unix stream")),
            stream,
            sent: (0, 0),
            got: (0, 0),
        }
    }

    fn attach(host: &ServerHost, peer: u64) -> TestPeer {
        let (mine, theirs) = UnixStream::pair().expect("socketpair");
        host.attach(peer, theirs);
        TestPeer::over(mine)
    }

    fn send(&mut self, msg: &Msg) {
        let bytes = write_frame(&mut self.stream, msg).expect("write frame");
        self.sent = (self.sent.0 + 1, self.sent.1 + bytes as u64);
    }

    /// The next frame, `None` once the host hung up.
    fn recv(&mut self) -> Option<Msg> {
        let payload = read_frame(&mut self.reader).ok()??;
        self.got = (self.got.0 + 1, self.got.1 + payload.len() as u64 + 4);
        Some(decode_msg(&payload).expect("host frames decode"))
    }

    /// Runs one transaction, checking every reply.
    fn commit(&mut self, txn: u64, item: u64, credential: &Credential) {
        for (step, request) in txn_requests(txn, item, credential).iter().enumerate() {
            self.send(request);
            assert_answers(&self.recv().expect("a reply"), txn, step);
        }
    }

    fn assert_balanced_with(&self, edge: TransportCounters) {
        assert_eq!((edge.frames_received, edge.bytes_received), self.sent);
        assert_eq!((edge.frames_sent, edge.bytes_sent), self.got);
        assert_eq!(edge.decode_errors, 0);
    }
}

/// Two connections drive one host from their own threads. The lock makes
/// every round atomic: each reply reaches the connection that asked (and
/// nothing else does), each edge's frames and bytes balance, and the store
/// ends where a serial replay of the same transactions ends.
#[test]
fn concurrent_peers_get_their_own_replies_and_a_serial_store() {
    const ROUNDS: u64 = 500;
    let (core, credential) = seeded_core();
    let host = ServerHost::spawn(core, Instant::now());
    // Each peer keeps to its own half of the items: no-wait locks would
    // otherwise refuse whichever query came second.
    let plan = |peer: u64, i: u64| (peer * 10_000 + i, (peer - 1) * ITEMS / 2 + i % (ITEMS / 2));
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for id in [1, 2] {
            let (host, credential, start) = (&host, &credential, &start);
            scope.spawn(move || {
                let mut peer = TestPeer::attach(host, id);
                start.wait();
                for i in 0..ROUNDS {
                    let (txn, item) = plan(id, i);
                    peer.commit(txn, item, credential);
                }
                assert_eq!(peer.got.0, 3 * ROUNDS);
                peer.assert_balanced_with(host.edge_counters(id).expect("edge"));
            });
        }
    });

    let (mut serial, _) = seeded_core();
    for id in [1, 2] {
        for i in 0..ROUNDS {
            let (txn, item) = plan(id, i);
            for request in txn_requests(txn, item, &credential) {
                let out = serial.run_round(Timestamp::from_millis(1), [(NetAddr(id), request)]);
                drop(out.deferred.map(|d| d.run(Timestamp::from_millis(1))));
            }
        }
    }
    assert_eq!(
        host.host().with_core(|core| store_image(core)),
        Some(store_image(&serial))
    );
    host.shutdown();
}

/// A frame is a round: k votes written in one `write` before the reader
/// exists, so all k sit in its buffer at once, are still k rounds — k
/// physical syncs, k reply frames.
#[test]
fn frames_buffered_on_a_connection_are_one_round_each() {
    const K: u64 = 8;
    let (mut core, credential) = seeded_core();
    let mut votes = Vec::new();
    for txn in 0..K {
        let [exec, vote, _] = txn_requests(txn, txn, &credential);
        let out = core.run_round(Timestamp::from_millis(1), [(NetAddr(1), exec)]);
        drop(out.deferred.map(|d| d.run(Timestamp::from_millis(1))));
        write_frame(&mut votes, &vote).expect("encode");
    }
    let before = core.wal_stats();
    let host = ServerHost::spawn(core, Instant::now());
    let (mut mine, theirs) = UnixStream::pair().expect("socketpair");
    mine.write_all(&votes).expect("one write");
    host.attach(1, theirs);

    let mut peer = TestPeer::over(mine);
    for txn in 0..K {
        assert_answers(&peer.recv().expect("a vote"), txn, 1);
    }
    assert_eq!(peer.got.0, K, "one reply frame per round");
    let after = host.host().wal_stats();
    assert_eq!(after.forced_logs - before.forced_logs, K);
    assert_eq!(after.physical_syncs - before.physical_syncs, K);
    host.shutdown();
}

/// A crash point firing inside one connection's reader takes the whole
/// host down under the lock: the vote escapes, both connections see EOF,
/// and the host is crashed — no polling — the moment anyone can ask.
/// Restart recovers the in-doubt transaction, which the inquiry answer
/// then resolves.
#[test]
fn crash_point_in_one_reader_kills_every_connection_and_restart_recovers() {
    let (core, credential) = seeded_core();
    let fabric = Arc::new(Fabric::default());
    fabric.arm(FaultPlan {
        crashes: vec![CrashRule {
            server: SERVER,
            point: CrashPoint::AfterSend(MsgKind::CommitReply),
        }],
        ..FaultPlan::default()
    });
    let core = Host::new(core, Instant::now(), Arc::clone(&fabric));
    let host = ServerHost::over(Arc::new(core));
    let mut a = TestPeer::attach(&host, 1);
    let mut b = TestPeer::attach(&host, 2);
    assert_eq!(host.live_peers(), 2);

    let [exec, vote, _] = txn_requests(1, 3, &credential);
    a.send(&exec);
    assert_answers(&a.recv().expect("query done"), 1, 0);
    a.send(&vote);
    assert_answers(&a.recv().expect("the vote escapes first"), 1, 1);
    assert!(a.recv().is_none(), "A's connection died with the host");
    assert!(host.host().crashed());
    assert_eq!(host.live_peers(), 0);
    assert!(b.recv().is_none(), "B's connection died with the host");
    assert_eq!(fabric.stats.snapshot().server_crashes, 1);

    host.reap();
    let in_doubt = host.host().restart();
    assert!(!host.host().crashed());
    assert_eq!(in_doubt, vec![TxnId::new(1)]);
    let mut a = TestPeer::attach(&host, 1);
    a.send(&Msg::InquiryReply {
        txn: TxnId::new(1),
        answer: InquiryAnswer::Decided(Decision::Commit),
    });
    assert_answers(&a.recv().expect("ack"), 1, 2);
    let committed = (host.host()).with_core(|core| core.store().read_int(DataItemId::new(3)));
    assert_eq!(committed, Some(Some(1)));

    // The harness's crash is synchronous too.
    host.sever();
    host.host().crash();
    host.reap();
    assert!(host.host().crashed());
    assert_eq!(host.live_peers(), 0);
    assert!(a.recv().is_none());
}

/// (lock order) Host lock before link lock, and teardown shuts the streams
/// down before it asks for the host lock — the blocking-write invariant's
/// escape hatch. A reader writes replies with the host lock held, so a peer
/// that stops reading stalls its host once the socket fills; shutdown must
/// still return, and so must a crash (the three steps `crash_server`
/// takes), after which the host is crashed at once.
#[test]
fn lock_order_teardown_returns_while_a_peer_never_reads() {
    for crash in [false, true] {
        let (core, credential) = seeded_core();
        let host = ServerHost::spawn(core, Instant::now());
        let (mut mine, theirs) = UnixStream::pair().expect("socketpair");
        host.attach(1, theirs);
        // Write requests and never read a reply. The host is stalled for
        // sure once this end cannot make progress for a whole second: the
        // replies have filled one direction, the unread requests the other.
        mine.set_write_timeout(Some(Duration::from_secs(1)))
            .expect("write timeout");
        let mut txn = 0;
        while write_frame(&mut mine, &txn_requests(txn, 0, &credential)[0]).is_ok() {
            txn += 1;
            assert!(txn < 1_000_000, "the host never stalled");
        }

        let (done_tx, done_rx) = unbounded();
        let stopper = std::thread::spawn(move || {
            if crash {
                host.sever();
                assert!(host.host().crash());
                assert!(host.host().crashed());
                host.reap();
                assert_eq!(host.live_peers(), 0);
            }
            host.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("teardown hung behind the blocked writer");
        stopper.join().expect("stopper thread");
    }
}

/// Every reconnect spawns a reader on both sides of the edge; both sides
/// must let go of the handles of readers that exited, or a flapping edge
/// grows them for the life of the cluster.
#[test]
fn flapping_edge_keeps_reader_handles_bounded() {
    const FLAPS: u64 = 200;
    const BOUND: usize = 8;
    let cluster = NetCluster::new(ClusterConfig {
        servers: 1,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        ..Default::default()
    });
    cluster.publish_policy(member_policy());
    cluster.configure_server(SERVER, |core| {
        core.store_mut()
            .write(DataItemId::new(0), Value::Int(0), Timestamp::ZERO);
    });
    let credential = cluster.cas().with_mut(|registry| {
        let ca = registry.ca_mut(CaId::new(0)).expect("CA0");
        ca.issue(
            UserId::new(1),
            member_fact(),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    });
    for flap in 0..FLAPS {
        // Alternate the two ways a connection ends: severed first (its
        // host reader detaches itself), or replaced while live.
        if flap % 2 == 0 {
            cluster.disconnect_server(SERVER);
        }
        cluster.reconnect_server(SERVER);
        let query = QuerySpec::new(
            SERVER,
            "write",
            "records",
            vec![Operation::Add(DataItemId::new(0), 1)],
        );
        let spec = TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), vec![query]);
        let result = cluster.execute(&spec, std::slice::from_ref(&credential));
        assert!(result.is_commit(), "flap {flap}: {:?}", result.outcome);
        let tm_side = cluster.link().readers.lock().unwrap().len();
        let host_side = cluster.link().servers[0].shared.conns.lock().unwrap().len();
        assert!(
            tm_side <= BOUND && host_side <= BOUND,
            "flap {flap}: {tm_side} TM-side and {host_side} host-side reader handles"
        );
    }
    assert_eq!(cluster.edge_counters(SERVER).0.reconnects, FLAPS);
    cluster.shutdown();
}
