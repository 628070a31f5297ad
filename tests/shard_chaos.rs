//! Coordinator failover matrix for the sharded runtime: the cross-shard
//! 2PVC coordinator is killed at every protocol point — mid-execution,
//! mid-voting, on either side of the decision force — across 2- and
//! 4-shard deployments, and the participant shards must terminate the
//! orphaned transaction from their replicated decision logs alone.
//!
//! The socket runtime drives the same shared TM loop, so the same five
//! points kill its coordinator too: the net matrix at the bottom holds
//! `NetCluster` to the same guarantees over real byte streams.
//!
//! Asserted per cell:
//!
//! * **Decision-log agreement** — every participant shard's log holds
//!   the same decision (or the same absence of one) for the orphaned
//!   transaction: `ForceLog` records are replicated to each participant
//!   shard *before* any send, so a crash can never leave the logs
//!   disagreeing.
//! * **Zero in-doubt after resolution** — `resolve_in_doubt` leaves no
//!   active or prepared transaction on any server; no shard wedges on
//!   the dead remote coordinator.
//! * **Store consistency** — participants apply the orphan's writes iff
//!   the replicated log says COMMIT (a decision forced before the crash
//!   survives it; anything earlier terminates as abort).
//! * **No wedge** — a follow-up transaction over the same items commits
//!   normally once the orphan is resolved.

use safetx_core::{ConsistencyLevel, ProofScheme, ServerCore, SharedCas};
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{
    ClusterConfig, MsgKind, ShardedCluster, ShardedConfig, TmCrashPoint, TxnRoute,
};
use safetx_store::Value;
use safetx_txn::{CommitVariant, Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};
use std::time::Duration;

const SERVERS_PER_SHARD: usize = 2;
const SEED_VALUE: i64 = 10;

const VARIANTS: [CommitVariant; 3] = [
    CommitVariant::Standard,
    CommitVariant::PresumedAbort,
    CommitVariant::PresumedCommit,
];

/// Every cross-shard 2PVC protocol point at which the coordinator can
/// die, in protocol order.
const CRASH_POINTS: [TmCrashPoint; 5] = [
    TmCrashPoint::AfterSend(MsgKind::ExecQuery),
    TmCrashPoint::AfterSend(MsgKind::PrepareToCommit),
    TmCrashPoint::BeforeDecisionForce,
    TmCrashPoint::AfterDecisionForce,
    TmCrashPoint::AfterSend(MsgKind::Decision),
];

fn build(shards: usize, variant: CommitVariant) -> ShardedCluster {
    let cluster = ShardedCluster::new(ShardedConfig {
        shards,
        cluster: ClusterConfig {
            servers: SERVERS_PER_SHARD,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            variant,
            reply_timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        },
    });
    cluster.publish_policy(write_policy());
    for s in 0..cluster.total_servers() as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            core.store_mut().write(
                DataItemId::new(s * 100),
                Value::Int(SEED_VALUE),
                Timestamp::ZERO,
            );
        });
    }
    cluster
}

fn write_policy() -> Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text("grant(write, records) :- role(U, member).")
        .expect("rules parse")
        .build()
}

fn member_credential(cas: &SharedCas) -> Credential {
    cas.with_mut(|registry| {
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

/// One write on the first server of every shard — the canonical
/// all-shards cross transaction.
fn cross_spec(cluster: &ShardedCluster) -> TransactionSpec {
    let queries = (0..cluster.shards() as u64)
        .map(|shard| {
            let s = shard * SERVERS_PER_SHARD as u64;
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 100), 1)],
            )
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

/// (active, in-doubt) transaction ids on one server, probed on its own
/// thread behind everything already queued.
fn probe_server(cluster: &ShardedCluster, s: u64) -> (Vec<TxnId>, Vec<TxnId>) {
    let (tx, rx) = std::sync::mpsc::channel();
    cluster.configure_server(ServerId::new(s), move |core: &mut ServerCore<_>| {
        let _ = tx.send((core.active_txn_ids(), core.in_doubt_txns()));
    });
    rx.recv().expect("probe reply")
}

fn read_item(cluster: &ShardedCluster, s: u64) -> i64 {
    let (tx, rx) = std::sync::mpsc::channel();
    cluster.configure_server(ServerId::new(s), move |core: &mut ServerCore<_>| {
        let _ = tx.send(core.store().read_int(DataItemId::new(s * 100)));
    });
    rx.recv().expect("probe reply").expect("seeded item")
}

/// Runs one matrix cell: kill the cross-shard coordinator at `point`,
/// then prove the shards terminate the orphan consistently on their own.
fn run_cell(shards: usize, point: TmCrashPoint, variant: CommitVariant) {
    let cluster = build(shards, variant);
    let cred = member_credential(cluster.cas());
    let spec = cross_spec(&cluster);
    let txn = spec.id;
    assert!(
        matches!(cluster.route_of(&spec), TxnRoute::Cross(_)),
        "matrix spec must be cross-shard"
    );

    let result = cluster.execute_with_coordinator_crash(&spec, std::slice::from_ref(&cred), point);
    assert!(
        result.is_none(),
        "{shards} shards / {point:?} / {variant:?}: a clean run reaches every protocol point, \
         so the crash must fire (got {result:?})"
    );

    // Let in-flight work land on the participant threads, then terminate
    // the orphan from the replicated per-shard decision logs.
    std::thread::sleep(Duration::from_millis(2));
    cluster.resolve_in_doubt();

    // Decision-log agreement: every participant shard holds the same
    // view of the orphan — all of them or none of them saw the decision.
    let decisions: Vec<Option<Decision>> = (0..shards)
        .map(|i| cluster.shard(i).logged_decision(txn))
        .collect();
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(
            *d, decisions[0],
            "{shards} shards / {point:?} / {variant:?}: shard {i} disagrees with shard 0 \
             on the orphan's decision ({decisions:?})"
        );
    }
    // The decision is forced before any decision send, so at or past the
    // force every log must carry it; before the force, none may.
    let expect_logged = matches!(
        point,
        TmCrashPoint::AfterDecisionForce | TmCrashPoint::AfterSend(MsgKind::Decision)
    );
    assert_eq!(
        decisions[0].is_some(),
        expect_logged,
        "{shards} shards / {point:?} / {variant:?}: unexpected log state {decisions:?}"
    );

    // Zero in-doubt (and zero active) after resolution, on every server.
    for s in 0..cluster.total_servers() as u64 {
        let (active, in_doubt) = probe_server(&cluster, s);
        assert!(
            in_doubt.is_empty() && active.is_empty(),
            "{shards} shards / {point:?} / {variant:?}: server {s} still holds \
             active={active:?} in_doubt={in_doubt:?} after resolution"
        );
    }

    // Store consistency: the orphan's writes land iff the replicated log
    // says COMMIT.
    let expected = match decisions[0] {
        Some(Decision::Commit) => SEED_VALUE + 1,
        _ => SEED_VALUE,
    };
    for shard in 0..shards as u64 {
        let s = shard * SERVERS_PER_SHARD as u64;
        assert_eq!(
            read_item(&cluster, s),
            expected,
            "{shards} shards / {point:?} / {variant:?}: server {s} store diverges \
             from the logged decision {decisions:?}"
        );
    }

    // No wedge: the same items are writable again.
    let follow_up = cluster.execute(&cross_spec(&cluster), std::slice::from_ref(&cred));
    assert!(
        follow_up.is_commit(),
        "{shards} shards / {point:?} / {variant:?}: follow-up aborted with {:?} — \
         the orphan left residue behind",
        follow_up.outcome
    );

    cluster.shutdown();
}

#[test]
fn cross_shard_coordinator_crash_matrix_two_shards() {
    for (i, point) in CRASH_POINTS.into_iter().enumerate() {
        run_cell(2, point, VARIANTS[i % 3]);
    }
}

#[test]
fn cross_shard_coordinator_crash_matrix_four_shards() {
    for (i, point) in CRASH_POINTS.into_iter().enumerate() {
        run_cell(4, point, VARIANTS[(i + 1) % 3]);
    }
}

/// The same failover guarantees hold when the victim is a single-shard
/// transaction's TM: the crash is routed to the owning shard and its own
/// decision log terminates the orphan.
#[test]
fn single_shard_coordinator_crash_resolves_locally() {
    for point in [
        TmCrashPoint::BeforeDecisionForce,
        TmCrashPoint::AfterDecisionForce,
    ] {
        let cluster = build(2, CommitVariant::Standard);
        let cred = member_credential(cluster.cas());
        // Both participants inside shard 0.
        let queries = (0..SERVERS_PER_SHARD as u64)
            .map(|s| {
                QuerySpec::new(
                    ServerId::new(s),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(s * 100), 1)],
                )
            })
            .collect();
        let spec = TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries);
        assert!(cluster.route_of(&spec).is_single());
        let txn = spec.id;

        let result =
            cluster.execute_with_coordinator_crash(&spec, std::slice::from_ref(&cred), point);
        assert!(result.is_none(), "{point:?}: crash must fire");
        std::thread::sleep(Duration::from_millis(2));
        cluster.resolve_in_doubt();

        let decision = cluster.shard(0).logged_decision(txn);
        let expected = match decision {
            Some(Decision::Commit) => SEED_VALUE + 1,
            _ => SEED_VALUE,
        };
        for s in 0..SERVERS_PER_SHARD as u64 {
            let (active, in_doubt) = probe_server(&cluster, s);
            assert!(
                in_doubt.is_empty() && active.is_empty(),
                "{point:?}: server {s} not fully resolved"
            );
            assert_eq!(read_item(&cluster, s), expected, "{point:?}: server {s}");
        }
        cluster.shutdown();
    }
}

fn net_spec(cluster: &NetCluster) -> TransactionSpec {
    let queries = (0..SERVERS_PER_SHARD as u64)
        .map(|s| {
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 100), 1)],
            )
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

/// One cell of the net matrix: kill the coordinator of a two-server
/// transaction at `point`, then prove `resolve_in_doubt` terminates the
/// orphan from the decision log.
fn run_net_cell(point: TmCrashPoint, variant: CommitVariant) {
    let cluster = NetCluster::new(ClusterConfig {
        servers: SERVERS_PER_SHARD,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant,
        reply_timeout: Some(Duration::from_millis(50)),
        ..Default::default()
    });
    cluster.publish_policy(write_policy());
    for s in 0..SERVERS_PER_SHARD as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            core.store_mut().write(
                DataItemId::new(s * 100),
                Value::Int(SEED_VALUE),
                Timestamp::ZERO,
            );
        });
    }
    let cred = member_credential(cluster.cas());
    let spec = net_spec(&cluster);
    let txn = spec.id;

    let result = cluster.execute_with_coordinator_crash(&spec, std::slice::from_ref(&cred), point);
    assert!(
        result.is_none(),
        "net / {point:?} / {variant:?}: a clean run reaches every protocol point, \
         so the crash must fire (got {result:?})"
    );

    // Every frame the dead coordinator wrote is read by its server and
    // handed to the host loop (the reader enqueues right after counting)
    // before the orphan is terminated from the decision log.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    for s in 0..SERVERS_PER_SHARD as u64 {
        loop {
            let (tm_side, server_side) = cluster.edge_counters(ServerId::new(s));
            if server_side.frames_received >= tm_side.frames_sent {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "frames lost on a clean wire"
            );
            std::thread::yield_now();
        }
    }
    std::thread::sleep(Duration::from_millis(2));
    cluster.resolve_in_doubt();

    // The decision is forced before any decision send, so at or past the
    // force the log must carry it; before the force, it may not.
    let decision = cluster.logged_decision(txn);
    let expect_logged = matches!(
        point,
        TmCrashPoint::AfterDecisionForce | TmCrashPoint::AfterSend(MsgKind::Decision)
    );
    assert_eq!(
        decision.is_some(),
        expect_logged,
        "net / {point:?} / {variant:?}: unexpected log state {decision:?}"
    );

    // Zero in-doubt (and zero active) after resolution, and the orphan's
    // writes land iff the log says COMMIT.
    let expected = match decision {
        Some(Decision::Commit) => SEED_VALUE + 1,
        _ => SEED_VALUE,
    };
    for s in 0..SERVERS_PER_SHARD as u64 {
        let (tx, rx) = std::sync::mpsc::channel();
        cluster.configure_server(ServerId::new(s), move |core| {
            let _ = tx.send((
                core.active_txn_ids(),
                core.in_doubt_txns(),
                core.store().read_int(DataItemId::new(s * 100)),
            ));
        });
        let (active, in_doubt, value) = rx.recv().expect("probe reply");
        assert!(
            in_doubt.is_empty() && active.is_empty(),
            "net / {point:?} / {variant:?}: server {s} still holds \
             active={active:?} in_doubt={in_doubt:?} after resolution"
        );
        assert_eq!(
            value,
            Some(expected),
            "net / {point:?} / {variant:?}: server {s} store diverges \
             from the logged decision {decision:?}"
        );
    }

    // No wedge: the same items are writable again.
    let follow_up = cluster.execute(&net_spec(&cluster), std::slice::from_ref(&cred));
    assert!(
        follow_up.is_commit(),
        "net / {point:?} / {variant:?}: follow-up aborted with {:?} — \
         the orphan left residue behind",
        follow_up.outcome
    );
    cluster.shutdown();
}

#[test]
fn net_coordinator_crash_matrix() {
    for point in CRASH_POINTS {
        for variant in VARIANTS {
            run_net_cell(point, variant);
        }
    }
}
