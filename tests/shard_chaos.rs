//! Coordinator failover matrix for partitioned deployments: the
//! cross-group 2PVC coordinator is killed at every protocol point —
//! mid-execution, mid-voting, on either side of the decision force —
//! across 2- and 4-group deployments, and the participant groups must
//! terminate the orphaned transaction from their own decision logs alone.
//!
//! Groups are a property of the one control plane, so the socket link
//! partitions exactly like the channel link: the same five points kill a
//! `NetCluster`'s coordinator at 2 groups (and, unpartitioned, at 1), and
//! the same assertions hold over real byte streams.
//!
//! Asserted per cell:
//!
//! * **Decision-log agreement** — every participant group's log holds
//!   the same decision (or the same absence of one) for the orphaned
//!   transaction: `ForceLog` records are written to each participant
//!   group's log *before* any send, so a crash can never leave the logs
//!   disagreeing.
//! * **Zero in-doubt after resolution** — `resolve_in_doubt` leaves no
//!   active or prepared transaction on any server; no group wedges on
//!   the dead coordinator.
//! * **Store consistency** — participants apply the orphan's writes iff
//!   the logs say COMMIT (a decision forced before the crash survives it;
//!   anything earlier terminates as abort).
//! * **No wedge** — a follow-up transaction over the same items commits
//!   normally once the orphan is resolved.

use safetx_core::{ConsistencyLevel, ProofScheme, ServerCore, SharedCas};
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{
    Cluster, ClusterConfig, Deployment, Link, LinkedCluster, MsgKind, TmCrashPoint,
};
use safetx_store::Value;
use safetx_txn::{CommitVariant, Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};
use std::time::{Duration, Instant};

const PER_GROUP: usize = 2;
const SEED_VALUE: i64 = 10;

const VARIANTS: [CommitVariant; 3] = [
    CommitVariant::Standard,
    CommitVariant::PresumedAbort,
    CommitVariant::PresumedCommit,
];

/// Every cross-group 2PVC protocol point at which the coordinator can
/// die, in protocol order.
const CRASH_POINTS: [TmCrashPoint; 5] = [
    TmCrashPoint::AfterSend(MsgKind::ExecQuery),
    TmCrashPoint::AfterSend(MsgKind::PrepareToCommit),
    TmCrashPoint::BeforeDecisionForce,
    TmCrashPoint::AfterDecisionForce,
    TmCrashPoint::AfterSend(MsgKind::Decision),
];

fn config(groups: usize, variant: CommitVariant) -> ClusterConfig {
    ClusterConfig {
        servers: groups * PER_GROUP,
        groups,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant,
        reply_timeout: Some(Duration::from_millis(50)),
        ..Default::default()
    }
}

/// Publishes the write policy and seeds every server's item.
fn seed<L: Link>(cluster: &LinkedCluster<L>) {
    cluster.publish_policy(write_policy());
    for server in cluster.server_ids() {
        let s = server.index();
        cluster.configure_server(server, move |core| {
            core.store_mut().write(
                DataItemId::new(s * 100),
                Value::Int(SEED_VALUE),
                Timestamp::ZERO,
            );
        });
    }
}

fn threaded(groups: usize, variant: CommitVariant) -> Cluster {
    let cluster = Cluster::new(config(groups, variant));
    seed(&cluster);
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

/// One write on each of the given servers.
fn spec_on(cluster: &dyn Deployment, servers: impl Iterator<Item = u64>) -> TransactionSpec {
    let queries = servers
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

/// One write on every server — the canonical all-groups cross
/// transaction.
fn cross_spec(cluster: &dyn Deployment) -> TransactionSpec {
    spec_on(cluster, 0..cluster.config().servers as u64)
}

/// (active, in-doubt, item) of one server, probed behind everything
/// already queued to it.
fn probe_server<L: Link>(cluster: &LinkedCluster<L>, s: u64) -> (Vec<TxnId>, Vec<TxnId>, i64) {
    cluster.configure_server(ServerId::new(s), move |core: &mut ServerCore<_>| {
        let item = core.store().read_int(DataItemId::new(s * 100));
        (
            core.active_txn_ids(),
            core.in_doubt_txns(),
            item.expect("seeded item"),
        )
    })
}

/// Runs one matrix cell on a seeded deployment: kill the cross-group
/// coordinator at `point`, let `settle` return once everything the dead
/// coordinator sent has reached its hosts, then prove the groups terminate
/// the orphan consistently on their own.
fn run_cell<L: Link>(cluster: &LinkedCluster<L>, settle: impl Fn(), point: TmCrashPoint) {
    let groups = cluster.config().groups;
    let cell = format!(
        "{groups} groups / {point:?} / {:?}",
        cluster.config().variant
    );
    let cred = member_credential(cluster.cas());
    let spec = cross_spec(cluster);
    let txn = spec.id;
    assert_eq!(
        cluster.route_of(&spec).groups().len(),
        groups,
        "{cell}: the matrix spec spans every group"
    );

    let result = cluster.execute_with_coordinator_crash(&spec, std::slice::from_ref(&cred), point);
    assert!(
        result.is_none(),
        "{cell}: a clean run reaches every protocol point, so the crash must fire \
         (got {result:?})"
    );

    // Let in-flight work land on the participants, then terminate the
    // orphan from the per-group decision logs.
    settle();
    std::thread::sleep(Duration::from_millis(2));
    cluster.resolve_in_doubt();

    // Decision-log agreement: every participant group holds the same view
    // of the orphan — all of them or none of them saw the decision.
    let decisions: Vec<Option<Decision>> = (0..groups)
        .map(|g| cluster.group_decision(g, txn))
        .collect();
    for (g, d) in decisions.iter().enumerate() {
        assert_eq!(
            *d, decisions[0],
            "{cell}: group {g} disagrees with group 0 on the orphan's decision ({decisions:?})"
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
        "{cell}: unexpected log state {decisions:?}"
    );

    // Zero in-doubt (and zero active) after resolution, on every server,
    // and the orphan's writes land iff the logs say COMMIT.
    let written = decisions[0] == Some(Decision::Commit);
    for s in 0..cluster.config().servers as u64 {
        let (active, in_doubt, value) = probe_server(cluster, s);
        assert!(
            in_doubt.is_empty() && active.is_empty(),
            "{cell}: server {s} still holds active={active:?} in_doubt={in_doubt:?} \
             after resolution"
        );
        assert_eq!(
            value,
            SEED_VALUE + i64::from(written),
            "{cell}: server {s} store diverges from the logged decision {decisions:?}"
        );
    }

    // No wedge: the same items are writable again.
    let follow_up = cluster.execute(&cross_spec(cluster), std::slice::from_ref(&cred));
    assert!(
        follow_up.is_commit(),
        "{cell}: follow-up aborted with {:?} — the orphan left residue behind",
        follow_up.outcome
    );
}

#[test]
fn cross_shard_coordinator_crash_matrix_two_shards() {
    for (i, point) in CRASH_POINTS.into_iter().enumerate() {
        run_cell(&threaded(2, VARIANTS[i % 3]), || {}, point);
    }
}

#[test]
fn cross_shard_coordinator_crash_matrix_four_shards() {
    for (i, point) in CRASH_POINTS.into_iter().enumerate() {
        run_cell(&threaded(4, VARIANTS[(i + 1) % 3]), || {}, point);
    }
}

/// The same failover guarantees hold when the victim is a single-group
/// transaction's TM: its decision goes to its own group's log only, which
/// terminates the orphan.
#[test]
fn single_shard_coordinator_crash_resolves_locally() {
    for point in [
        TmCrashPoint::BeforeDecisionForce,
        TmCrashPoint::AfterDecisionForce,
    ] {
        let cluster = threaded(2, CommitVariant::Standard);
        let cred = member_credential(cluster.cas());
        // Both participants inside group 0.
        let spec = spec_on(&cluster, 0..PER_GROUP as u64);
        assert!(cluster.route_of(&spec).is_single());
        let txn = spec.id;

        let result =
            cluster.execute_with_coordinator_crash(&spec, std::slice::from_ref(&cred), point);
        assert!(result.is_none(), "{point:?}: crash must fire");
        std::thread::sleep(Duration::from_millis(2));
        cluster.resolve_in_doubt();

        let decision = cluster.group_decision(0, txn);
        assert_eq!(cluster.group_decision(1, txn), None, "{point:?}");
        let expected = match decision {
            Some(Decision::Commit) => SEED_VALUE + 1,
            _ => SEED_VALUE,
        };
        for s in 0..PER_GROUP as u64 {
            let (active, in_doubt, value) = probe_server(&cluster, s);
            assert!(
                in_doubt.is_empty() && active.is_empty(),
                "{point:?}: server {s} not fully resolved"
            );
            assert_eq!(value, expected, "{point:?}: server {s}");
        }
    }
}

/// The matrix on the socket link, unpartitioned and at 2 groups, under
/// every commit variant. Every frame the dead coordinator wrote is read by
/// its server and handed to the host (the reader enqueues right after
/// counting) before the orphan is terminated from the decision logs.
#[test]
fn net_coordinator_crash_matrix() {
    for groups in [1, 2] {
        for point in CRASH_POINTS {
            for variant in VARIANTS {
                let cluster = NetCluster::new(config(groups, variant));
                seed(&cluster);
                let settle = || {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    for server in cluster.server_ids() {
                        loop {
                            let (tm_side, server_side) = cluster.edge_counters(server);
                            if server_side.frames_received >= tm_side.frames_sent {
                                break;
                            }
                            assert!(Instant::now() < deadline, "frames lost on a clean wire");
                            std::thread::yield_now();
                        }
                    }
                };
                run_cell(&cluster, settle, point);
            }
        }
    }
}
