use super::*;
use crate::wire::write_frame;
use crossbeam::channel::{unbounded, Sender};
use safetx_core::{
    AbortReason, ConsistencyLevel, MsgKind, ProofScheme, ResourcePolicyMap, SharedCas,
    SharedCatalog, VersionMap,
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

/// A reply is parked for a running transaction; one for a transaction
/// that is over is a stale straggler — counted unless it is an ack — and
/// read even when no worker waits (the counters settle the link first).
#[test]
fn reply_for_a_finished_transaction_counts_as_dropped() {
    let txn = TxnId::new(7);
    let (link, mut srv) = scripted_link();
    let stale = || link.fabric.stale_replies.load(Ordering::Relaxed);
    let done = Msg::QueryDone {
        txn,
        query_index: 0,
        ok: true,
        proof: None,
        capability: None,
    };
    let tm = link.open(txn);
    write_frame(&mut srv, &done).expect("reply");
    assert_eq!(link.transport_counters().frames_received, 1);
    assert_eq!(stale(), 0, "parked");
    drop(tm);
    write_frame(&mut srv, &done).expect("reply");
    ack(&mut srv, txn.index());
    assert_eq!(link.transport_counters().frames_received, 3);
    assert_eq!(stale(), 1, "acks never count");
}

/// A test's hold on one edge: severed, or replaced by a fresh pair.
impl NetCluster {
    fn disconnect_server(&self, server: ServerId) {
        sever(&mut self.link().tm[self.slot(server)].writer());
    }

    fn reconnect_server(&self, server: ServerId) {
        let (slot, link) = (self.slot(server), self.link());
        link.reconnect(slot, &mut link.tm[slot].writer());
    }
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
                serial.handle(Timestamp::from_millis(1), NetAddr(id), request);
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
        core.handle(Timestamp::from_millis(1), NetAddr(1), exec);
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

/// An envelope that still arrives from a peer is ignored: no reply, no
/// transaction, and the next message is answered as if it had not come.
/// An envelope nested in one is refused by the decoder.
#[test]
fn a_batch_envelope_gets_no_reply_and_registers_nothing() {
    let (core, credential) = seeded_core();
    let host = ServerHost::spawn(core, Instant::now());
    let mut peer = TestPeer::attach(&host, 1);
    peer.send(&Msg::Batch(txn_requests(0, 0, &credential).into()));
    // `Batch` holding one empty `Batch`, framed by hand: the encoder
    // writes no nested batch.
    let nested = [crate::wire::WIRE_VERSION, 15, 1, 0, 0, 0, 15, 0, 0, 0, 0];
    let mut frame = (nested.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&nested);
    peer.stream.write_all(&frame).expect("write nested frame");
    // The first reply is transaction 1's.
    peer.commit(1, 1, &credential);
    assert_eq!(peer.got.0, 3, "three replies, all transaction 1's");
    let edge = host.edge_counters(1).expect("edge");
    assert_eq!((edge.frames_received, edge.decode_errors), (5, 1));
    let (active, items) = host
        .host()
        .with_core(|core| (core.active_txns(), store_image(core)))
        .expect("a live host");
    assert_eq!(active, 0);
    let value = |item: u64| items[item as usize].1.clone();
    assert_eq!((value(0), value(1)), (Value::Int(0), Value::Int(1)));
    let wal = host.host().wal_stats();
    assert_eq!((wal.forced_logs, wal.physical_syncs), (2, 2));
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
    assert_eq!(fabric.counters().server_crashes, 1);

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

/// The threads of this process that carry `comm`, the kernel's name of a
/// thread: a thread spawned without a name inherits its spawner's. `None`
/// without `/proc`.
fn threads_named(comm: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let named = tasks.filter_map(|task| {
        let path = task.ok()?.path().join("comm");
        std::fs::read_to_string(path).ok()
    });
    Some(named.filter(|name| name.trim_end() == comm).count())
}

/// No TM-side thread: 200 reconnects leave the threads this test spawned
/// at one host reader for the one server — the TM side reads on the
/// workers that wait — and the host lets go of the handles of readers
/// that exited, or a flapping edge grows them for the life of the cluster.
/// The body runs on a thread of a name of its own, which every thread it
/// spawns inherits, so tests running beside it do not count.
#[test]
fn no_tm_side_thread_after_200_flaps() {
    let body = std::thread::Builder::new().name("no-tm-thread".into());
    body.spawn(flap_200_times)
        .expect("spawn")
        .join()
        .expect("the body");
}

fn flap_200_times() {
    const FLAPS: u64 = 200;
    const BOUND: usize = 8;
    let mine = || threads_named("no-tm-thread");
    assert!(mine().is_none_or(|n| n == 1), "the body runs alone");
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
        let host_side = cluster.link().servers[0].shared.conns.lock().unwrap().len();
        assert!(
            host_side <= BOUND,
            "flap {flap}: {host_side} host-side reader handles"
        );
    }
    assert_eq!(cluster.edge_counters(SERVER).0.reconnects, FLAPS);
    if mine().is_some() {
        // A severed connection's host reader exits on its own time.
        let deadline = Instant::now() + Duration::from_secs(5);
        while mine() != Some(2) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            mine(),
            Some(2),
            "the body's threads: itself and one host reader"
        );
    }
    cluster.shutdown();
}

/// A link to one server whose far end the test holds, playing the server
/// frame by frame.
fn scripted_link() -> (Arc<SocketLink>, UnixStream) {
    let link = SocketLink::new(1, &[], &Arc::new(Fabric::default()));
    let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
    link.install(0, tm_end, &mut link.tm[0].writer());
    srv_end
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    (Arc::new(link), srv_end)
}

/// Whether a worker holds the link's reader. Taking it to look is a hold
/// too, so it is let go the way a worker lets go: telling the waiters.
fn reader_held(link: &SocketLink) -> bool {
    match link.tm[0].reader.try_lock() {
        Ok(reader) => {
            link.let_go(reader);
            false
        }
        Err(_) => true,
    }
}

/// How many workers wait for a reply or a free reader.
fn in_line(link: &SocketLink) -> usize {
    link.inbox().waiting
}

fn spin_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "never: {what}");
        std::thread::yield_now();
    }
}

/// One worker's transaction on the scripted link, on a thread of its own
/// (detached: a worker that waits forever must fail the test's own
/// deadline, not hang the test joining it): a request the server answers
/// with an ack, then a wait for that ack. What it got, and how long it
/// waited, arrive on `done`.
fn ask(
    link: &Arc<SocketLink>,
    txn: u64,
    deadline: Option<Duration>,
    done: &Sender<(u64, Option<Msg>, Duration)>,
) {
    let (link, done) = (Arc::clone(link), done.clone());
    std::thread::spawn(move || {
        let mut tm = link.open(TxnId::new(txn));
        let decision = Decision::Abort;
        tm.send(
            SERVER,
            Msg::Decision {
                txn: TxnId::new(txn),
                decision,
            },
        );
        tm.flush();
        let started = Instant::now();
        let reply = tm.recv(deadline).map(|(_, msg)| msg);
        let _ = done.send((txn, reply, started.elapsed()));
    });
}

/// Reads the next request off the server's end: its transaction.
fn request(server: &mut BufReader<UnixStream>) -> u64 {
    let payload = read_frame(server).expect("a request").expect("not EOF");
    let msg = decode_msg(&payload).expect("requests decode");
    match msg {
        Msg::Decision { txn, .. } | Msg::ExecQuery { txn, .. } => txn.index(),
        other => panic!("unexpected request {other:?}"),
    }
}

fn ack(server: &mut UnixStream, txn: u64) {
    write_frame(
        server,
        &Msg::Ack {
            txn: TxnId::new(txn),
        },
    )
    .expect("reply");
}

/// (no stranded reply) Three workers wait on one server with no reply
/// deadline: the first holds the reader, the other two wait in line, and
/// the holder's own reply comes first. The holder must hand the reader on
/// as it leaves, or the replies behind it are read by nobody.
#[test]
fn no_reply_is_stranded_behind_the_worker_that_read_its_own() {
    for round in 0..50u64 {
        let (link, mut srv) = scripted_link();
        let mut requests = BufReader::new(srv.try_clone().expect("clone"));
        let (holder, behind) = (3 * round + 1, [3 * round + 2, 3 * round + 3]);
        let (done, finished) = unbounded();
        ask(&link, holder, None, &done);
        assert_eq!(request(&mut requests), holder);
        spin_until("the first worker reads", || reader_held(&link));
        for txn in behind {
            ask(&link, txn, None, &done);
            assert_eq!(request(&mut requests), txn);
        }
        spin_until("both wait in line", || in_line(&link) == 2);
        for txn in [holder, behind[0], behind[1]] {
            ack(&mut srv, txn);
        }
        for _ in 0..3 {
            let (txn, reply, _) = finished
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("round {round}: a reply was stranded"));
            assert!(matches!(reply, Some(Msg::Ack { txn: t }) if t.index() == txn));
        }
        assert_eq!(link.tm[0].stats.snapshot().frames_received, 3);
    }
}

/// (deadline holds) A worker waiting in line behind a holder whose reply
/// has not come returns at its own reply deadline, not when the holder
/// lets go.
#[test]
fn a_waiters_deadline_holds_while_another_worker_reads() {
    const DEADLINE: Duration = Duration::from_millis(100);
    let (link, mut srv) = scripted_link();
    let mut requests = BufReader::new(srv.try_clone().expect("clone"));
    let (done, finished) = unbounded();
    ask(&link, 1, None, &done);
    assert_eq!(request(&mut requests), 1);
    spin_until("the first worker reads", || reader_held(&link));
    ask(&link, 2, Some(DEADLINE), &done);
    assert_eq!(request(&mut requests), 2);
    let (txn, reply, waited) = finished
        .recv_timeout(Duration::from_secs(20))
        .expect("the waiter's deadline did not hold");
    assert!(txn == 2 && reply.is_none(), "txn {txn} got {reply:?}");
    assert!(
        waited >= DEADLINE && waited < DEADLINE + Duration::from_secs(2),
        "waited {waited:?} for a {DEADLINE:?} deadline"
    );
    // The holder reads in slices, letting go between them: it has not
    // finished, and it takes the read half again.
    assert!(
        finished.try_recv().is_err(),
        "txn 1 finished without its ack"
    );
    spin_until("the holder reads again", || reader_held(&link));
    ack(&mut srv, 1);
    let (txn, reply, _) = finished
        .recv_timeout(Duration::from_secs(20))
        .expect("holder");
    assert!(txn == 1 && matches!(reply, Some(Msg::Ack { .. })));
}

/// (EOF aborts waiters) The server's end closes while one worker reads
/// and another waits in line: both transactions abort with
/// `ServerUnavailable` long before their reply deadline.
#[test]
fn eof_mid_read_aborts_every_waiter_as_server_unavailable() {
    const DEADLINE: Duration = Duration::from_secs(10);
    let (tm_end, srv_end) = UnixStream::pair().expect("socketpair");
    let cluster = Arc::new(NetCluster::connect(
        ClusterConfig {
            servers: 1,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            reply_timeout: Some(DEADLINE),
            ..Default::default()
        },
        vec![tm_end],
    ));
    srv_end
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let mut requests = BufReader::new(srv_end);
    let (done, finished) = unbounded();
    let run = |txn: u64| {
        let (cluster, done) = (Arc::clone(&cluster), done.clone());
        std::thread::spawn(move || {
            let write = vec![Operation::Add(DataItemId::new(0), 1)];
            let query = QuerySpec::new(SERVER, "write", "records", write);
            let spec = TransactionSpec::new(TxnId::new(txn), UserId::new(1), vec![query]);
            let started = Instant::now();
            let result = cluster.execute(&spec, &[]);
            let _ = done.send((result.outcome.abort_reason(), started.elapsed()));
        });
    };
    run(1);
    assert_eq!(request(&mut requests), 1);
    spin_until("the first worker reads", || reader_held(cluster.link()));
    run(2);
    assert_eq!(request(&mut requests), 2);
    spin_until("the second waits in line", || in_line(cluster.link()) == 1);
    drop(requests);
    for _ in 0..2 {
        let (reason, took) = finished
            .recv_timeout(DEADLINE / 2)
            .expect("a waiter outlived the connection");
        assert_eq!(reason, Some(AbortReason::ServerUnavailable));
        assert!(took < DEADLINE / 2, "aborted after {took:?}, not at EOF");
    }
}
