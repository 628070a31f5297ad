//! Bounded state: a deployment that has run ten thousand commits holds
//! nothing of them but their effect in the store and one byte per id in
//! the coordinator log.
//!
//! A server's durable state is a checkpoint (store and decided memo) plus
//! the WAL's live tail, and a host forgets its memo once no message can
//! overtake a decision; a finished coordinator's records fold into its
//! log's finished part (DESIGN.md §5a, "Bounded state"). So at quiescence
//! every host's WAL, decided memo and transaction table are empty, the
//! coordinator log holds nothing live and still answers for every id — on
//! the channel link served by its senders, on the channel link served by a
//! device thread (`wal_sync_cost`), on the socket link, and on a channel
//! link split into two decision-log groups, where every transaction spans
//! both groups and folds out of both logs. A crashed coordinator's
//! decision stays live, and a restarted participant is answered from it.

use safetx_core::TmCrashPoint;
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, Deployment, Link, LinkedCluster};
use safetx_store::Value;
use safetx_txn::{Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use std::time::Duration;

const COMMITS: usize = 10_000;
const CLIENTS: u64 = 2;
/// Every this-many transactions one goes without a credential and aborts.
const ABORT_EVERY: usize = 10;

fn member_credential(cluster: &dyn Deployment) -> Credential {
    cluster.cas().with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).expect("CA0").issue(
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

/// One increment per server, on an item of the client's own: clients never
/// conflict.
fn spec(cluster: &dyn Deployment, client: u64) -> TransactionSpec {
    let queries = cluster
        .server_ids()
        .into_iter()
        .map(|s| {
            let item = DataItemId::new(s.index() * 100 + client);
            QuerySpec::new(s, "write", "records", vec![Operation::Add(item, 1)])
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

/// Each server's item of `client`.
fn read_items<L: Link>(cluster: &LinkedCluster<L>, client: u64) -> Vec<Option<i64>> {
    let read = |s: ServerId| {
        let item = DataItemId::new(s.index() * 100 + client);
        cluster.configure_server(s, |core| core.store().read_int(item))
    };
    cluster.server_ids().into_iter().map(read).collect()
}

/// Runs `COMMITS` commits (and an abort every `ABORT_EVERY`) from
/// `CLIENTS` threads, then reads what every host and the coordinator log
/// still hold; then crashes one coordinator after its decision force.
fn run_to_quiescence<L: Link>(cluster: &LinkedCluster<L>) {
    cluster.publish_policy(
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text("grant(write, records) :- role(U, member).")
            .expect("rules parse")
            .build(),
    );
    for s in cluster.server_ids() {
        cluster.configure_server(s, |core| {
            for client in 0..CLIENTS {
                let item = DataItemId::new(s.index() * 100 + client);
                core.store_mut().write(item, Value::Int(0), Timestamp::ZERO);
            }
        });
    }
    let cred = member_credential(cluster);
    let per_client = COMMITS / CLIENTS as usize;
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let cred = cred.clone();
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut commits = 0;
                    let mut n = 0;
                    while commits < per_client {
                        n += 1;
                        let denied = n % ABORT_EVERY == 0;
                        let creds = if denied {
                            &[][..]
                        } else {
                            std::slice::from_ref(&cred)
                        };
                        let spec = spec(cluster, client);
                        let result = cluster.execute(&spec, creds);
                        assert_eq!(result.is_commit(), !denied, "{:?}", result.outcome);
                        commits += usize::from(!denied);
                        outcomes.push((spec.id, denied));
                    }
                    outcomes
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client"))
            .collect()
    });
    for s in cluster.server_ids() {
        let held = cluster.configure_server(s, |core| {
            let item = DataItemId::new(s.index() * 100);
            let value = core.store().read_int(item);
            (
                core.wal().len(),
                core.decided_len(),
                core.active_txns(),
                value,
            )
        });
        let per_client = Some(per_client as i64);
        assert_eq!(
            held,
            (0, 0, 0, per_client),
            "server {s}: (WAL, memo, live, item)"
        );
    }
    // Every coordinator finished: nothing is live in any group's log,
    // every id answers.
    assert_eq!(cluster.live_decisions(), 0);
    for (txn, denied) in outcomes {
        let want = if denied {
            Decision::Abort
        } else {
            Decision::Commit
        };
        assert_eq!(cluster.logged_decision(txn), Some(want), "{txn}");
    }

    // A coordinator dies after forcing its decision: every participant is
    // in doubt and the decision stays live, in every group's log. A
    // restarted participant is answered from its group's; the termination
    // protocol answers the rest.
    let orphan = spec(cluster, 0);
    let point = TmCrashPoint::AfterDecisionForce;
    let cred = std::slice::from_ref(&cred);
    assert!(cluster
        .execute_with_coordinator_crash(&orphan, cred, point)
        .is_none());
    let groups = cluster.config().groups;
    assert_eq!(cluster.live_decisions(), groups);
    let before = Some(per_client as i64);
    let after = Some(per_client as i64 + 1);
    let victim = cluster.server_ids()[0];
    cluster.crash_server(victim);
    cluster.restart_server(victim);
    let mut want = vec![before; cluster.config().servers];
    want[0] = after;
    assert_eq!(read_items(cluster, 0), want);
    cluster.resolve_in_doubt();
    assert_eq!(read_items(cluster, 0), vec![after; want.len()]);
    for group in 0..groups {
        assert_eq!(
            cluster.group_decision(group, orphan.id),
            Some(Decision::Commit)
        );
    }
    assert_eq!(cluster.live_decisions(), groups);
}

fn config() -> ClusterConfig {
    ClusterConfig {
        servers: 3,
        ..ClusterConfig::default()
    }
}

#[test]
fn a_quiescent_channel_host_holds_no_wal_and_no_memo() {
    run_to_quiescence(&Cluster::new(config()));
}

#[test]
fn a_quiescent_device_host_holds_no_wal_and_no_memo() {
    run_to_quiescence(&Cluster::new(ClusterConfig {
        wal_sync_cost: Some(Duration::from_micros(1)),
        ..config()
    }));
}

#[test]
fn a_quiescent_socket_host_holds_no_wal_and_no_memo() {
    run_to_quiescence(&NetCluster::new(config()));
}

#[test]
fn a_quiescent_grouped_host_holds_no_wal_and_no_memo() {
    run_to_quiescence(&Cluster::new(ClusterConfig {
        servers: 4,
        groups: 2,
        ..config()
    }));
}
