//! Timed loops on single public calls of each layer, and the two hop costs
//! the per-transaction model is checked against.

use crate::deploy::{bare_authority, issue_wallet, user_id, POLICY};
use crate::stats::median;
use crossbeam::channel::unbounded;
use safetx_core::{Msg, ResourcePolicyMap, ServerCore};
use safetx_net::{decode_msg, encode_msg, read_frame, write_frame};
use safetx_policy::{
    credential_fact_base, evaluate_proof, AccessRequest, CredentialCheck, Engine, FactBase,
    ProofContext,
};
use safetx_store::{LocalStore, LockMode, ShardedLockManager, Value, Wal, WriteSet};
use safetx_txn::{CommitVariant, Operation, QuerySpec};
use safetx_types::{DataItemId, ServerId, Timestamp, TxnId};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

const BATCHES: usize = 5;

/// Ping-pongs per batch of the two hop loops: a hop costs tens of
/// microseconds here, so these are the loops that take wall-clock time.
pub const HOP_ITERS: usize = 2_000;

/// Median over [`BATCHES`] batches of the mean time of one call, in
/// nanoseconds.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch).expect("at least one batch")
}

/// The fixed processor loop behind `host.spin_ms`: the same arithmetic on
/// every host, so two result files from different machines are told apart.
pub fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Half the round trip of one small frame between two threads over a
/// `UnixStream` pair, in microseconds.
pub fn socket_hop_us(iters: usize) -> f64 {
    let (near, far) = UnixStream::pair().expect("socketpair");
    let ack = Msg::Ack { txn: TxnId::new(1) };
    let echo = std::thread::spawn(move || {
        let mut reader = BufReader::new(far.try_clone().expect("clone stream"));
        let mut writer = BufWriter::new(far);
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let msg = decode_msg(&payload).expect("own frame decodes");
            write_frame(&mut writer, &msg).expect("echo write");
            writer.flush().expect("echo flush");
        }
    });
    let mut reader = BufReader::new(near.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(near.try_clone().expect("clone stream"));
    let round_trip = ns_per_call(iters, || {
        write_frame(&mut writer, &ack).expect("ping write");
        writer.flush().expect("ping flush");
        black_box(read_frame(&mut reader).expect("pong read"));
    });
    near.shutdown(std::net::Shutdown::Both)
        .expect("close stream");
    echo.join().expect("echo thread");
    round_trip / 2.0 / 1e3
}

/// Half the round trip of one small message between two threads over the
/// threaded runtime's channel type, in microseconds.
pub fn channel_hop_us(iters: usize) -> f64 {
    let (ping_tx, ping_rx) = unbounded::<Msg>();
    let (pong_tx, pong_rx) = unbounded::<Msg>();
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = ping_rx.recv() {
            if pong_tx.send(msg).is_err() {
                break;
            }
        }
    });
    let round_trip = ns_per_call(iters, || {
        ping_tx
            .send(Msg::Ack { txn: TxnId::new(1) })
            .expect("echo thread alive");
        black_box(pong_rx.recv().expect("echo thread alive"));
    });
    drop(ping_tx);
    echo.join().expect("echo thread");
    round_trip / 2.0 / 1e3
}

/// The single-call loops, as `(metric, value)` in the metric's unit.
/// `scale` divides every iteration count (20 in `--smoke`).
pub fn single_calls(scale: usize) -> Vec<(&'static str, f64)> {
    let n = |iters: usize| (iters / scale).max(10);

    let (catalog, cas, policy) = bare_authority();
    let wallet = issue_wallet(&cas, 0);
    let user = user_id(0);
    let server = ServerId::new(0);
    let now = Timestamp::from_micros(1);
    let query = QuerySpec::new(
        server,
        "write",
        "records",
        vec![Operation::Add(DataItemId::new(1), 1)],
    );

    // Policy layer, cold: a fresh engine per call, so nothing is memoised.
    let request = AccessRequest::new(user, "write", "records");
    let ambient = FactBase::new();
    let evaluate_proof_cold = ns_per_call(n(4_000), || {
        let engine = Engine::new();
        let ctx = ProofContext {
            policy: &policy,
            oracle: &cas,
            engine: &engine,
            ambient_facts: &ambient,
        };
        black_box(evaluate_proof(&ctx, server, &request, &wallet, now).expect("within budget"));
    });
    let CredentialCheck::Valid(facts) =
        credential_fact_base(&cas, &ambient, &wallet, now).expect("ground statements")
    else {
        panic!("the benchmark wallet is valid");
    };
    let engine = Engine::new();
    let saturate = ns_per_call(n(4_000), || {
        black_box(
            engine
                .saturate(policy.rules().as_slice(), &facts)
                .expect("within budget"),
        );
    });

    // Core's data plane, warm: the same request again is a proof-cache hit.
    let mut core: ServerCore<u8> = ServerCore::new(
        server,
        catalog,
        ResourcePolicyMap::single(POLICY),
        cas,
        CommitVariant::Standard,
    );
    core.install_policy(POLICY, policy.version());
    let data = core.data_plane();
    assert!(data.evaluate_one(now, user, &wallet, &query).truth());
    let evaluate_one_warm = ns_per_call(n(100_000), || {
        black_box(data.evaluate_one(now, user, &wallet, &query));
    });
    assert_eq!(
        data.engine_evaluations(),
        1,
        "every timed call was a cache hit"
    );

    // Store layer.
    let mut wal: Wal<u64> = Wal::new();
    let mut record = 0u64;
    let wal_force = ns_per_call(n(200_000), || {
        record += 1;
        wal.force(record);
    });
    let locks = ShardedLockManager::new();
    let mut txn = 0u64;
    let lock_cycle = ns_per_call(n(200_000), || {
        txn += 1;
        let id = TxnId::new(txn);
        black_box(locks.acquire(id, DataItemId::new(txn % 64), LockMode::Exclusive));
        black_box(locks.release_all(id));
    });
    let mut store = LocalStore::new();
    let mut value = 0i64;
    let kv_apply = ns_per_call(n(200_000), || {
        value += 1;
        let mut writes = WriteSet::new();
        writes.put(DataItemId::new(value as u64 % 64), Value::Int(value));
        black_box(store.apply(&writes, now));
    });

    // Wire codec on the largest hot-path message: a query with the wallet.
    let exec_query = Msg::ExecQuery {
        txn: TxnId::new(1),
        query_index: 0,
        query: Arc::new(query),
        user,
        credentials: wallet.into(),
        evaluate_proof: true,
        pin_versions: Default::default(),
        capabilities: Vec::new(),
    };
    let payload = encode_msg(&exec_query);
    let encode = ns_per_call(n(50_000), || {
        black_box(encode_msg(&exec_query));
    });
    let decode = ns_per_call(n(50_000), || {
        black_box(decode_msg(&payload).expect("own encoding decodes"));
    });

    vec![
        ("policy.evaluate_proof_cold_us", evaluate_proof_cold / 1e3),
        ("policy.saturate_us", saturate / 1e3),
        ("core.evaluate_one_warm_us", evaluate_one_warm / 1e3),
        ("store.wal_force_ns", wal_force),
        ("store.lock_cycle_ns", lock_cycle),
        ("store.kv_apply_ns", kv_apply),
        ("net.encode_exec_query_us", encode / 1e3),
        ("net.decode_exec_query_us", decode / 1e3),
        ("net.exec_query_bytes", (4 + payload.len()) as f64),
        ("net.socket_hop_us", socket_hop_us(n(HOP_ITERS))),
        ("runtime.channel_hop_us", channel_hop_us(n(HOP_ITERS))),
    ]
}
