//! Server rounds and the WAL's physical syncs: a server runs one message
//! per round, so each record a participant's WAL forces (2 of Table I's
//! 2n + 1 per commit) is a physical sync of its own — also under
//! concurrent load, with the messages of many transactions queued at a
//! device-backed host — and the service surfaces the same WAL counters,
//! in its JSON too.

use safetx_core::{ConsistencyLevel, ProofScheme};
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig};
use safetx_service::{run_closed_loop, RetryPolicy, ServiceConfig, TxnService};
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use std::sync::Arc;
use std::time::Duration;

const ITEMS_PER_SERVER: u64 = 16;
const SERVERS: usize = 3;

fn build_cluster(
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    wal_sync_cost: Option<Duration>,
    items_per_server: u64,
) -> Arc<Cluster> {
    let cluster = Cluster::new(ClusterConfig {
        servers: SERVERS,
        scheme,
        consistency,
        wal_sync_cost,
        ..Default::default()
    });
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build();
    cluster.publish_policy(policy);
    for s in 0..SERVERS as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            for j in 0..items_per_server {
                core.store_mut().write(
                    DataItemId::new(s * 1000 + j),
                    Value::Int(10),
                    Timestamp::ZERO,
                );
            }
        });
    }
    Arc::new(cluster)
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

/// A three-server write transaction touching `slot` on every server.
fn spec_for(cluster: &Cluster, slot: u64) -> TransactionSpec {
    let queries = (0..SERVERS as u64)
        .map(|s| {
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 1000 + slot), 1)],
            )
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

/// Sequential commits on a host without a device thread: a round is one
/// message (a batch of one), so each force is one physical sync.
#[test]
fn batch_one_performs_one_physical_sync_per_force() {
    let cluster = build_cluster(
        ProofScheme::Deferred,
        ConsistencyLevel::View,
        None,
        ITEMS_PER_SERVER,
    );
    let cred = member_credential(&cluster);
    for slot in 0..4 {
        assert!(cluster
            .execute(&spec_for(&cluster, slot), std::slice::from_ref(&cred))
            .is_commit());
    }
    let wal = cluster.wal_stats();
    assert!(wal.forced_logs > 0, "commits forced nothing?");
    assert_eq!(
        wal.physical_syncs, wal.forced_logs,
        "a round of one message coalesced forces: {wal}"
    );
}

/// Disjoint items per transaction (no lock conflicts, no retries) under 8
/// concurrent clients, and a sync cost that gives every host a device
/// thread of its own: the forces of many transactions queue at a host
/// while it spends 300 µs inside each sync, and still each force is one
/// physical sync, because each round runs one message.
#[test]
fn every_force_is_one_physical_sync_under_concurrent_load() {
    const LOAD_CLIENTS: usize = 8;
    const LOAD_PER_CLIENT: usize = 12;
    let items = (LOAD_CLIENTS * LOAD_PER_CLIENT) as u64;
    let cluster = build_cluster(
        ProofScheme::Deferred,
        ConsistencyLevel::View,
        Some(Duration::from_micros(300)),
        items,
    );
    let service = TxnService::new(
        cluster.clone(),
        ServiceConfig {
            workers: LOAD_CLIENTS,
            queue_depth: 2 * LOAD_CLIENTS,
            retry: RetryPolicy::default(),
            seed: 7,
        },
    );
    let cred = member_credential(&cluster);
    run_closed_loop(&service, LOAD_CLIENTS, LOAD_PER_CLIENT, |client, index| {
        let g = (client * LOAD_PER_CLIENT + index) as u64;
        (spec_for(&cluster, g), vec![cred.clone()])
    });
    let stats = service.shutdown();
    assert_eq!(stats.commits, items, "disjoint writes all commit");
    let wal = cluster.wal_stats();
    assert!(wal.forced_logs > 0, "commits forced nothing? {wal}");
    assert_eq!(
        wal.physical_syncs, wal.forced_logs,
        "a round of one message coalesced forces: {wal}"
    );
    // The service surfaces the same counters.
    assert_eq!(stats.wal, wal);
}

#[test]
fn wal_stats_flow_through_service_json() {
    let cluster = build_cluster(
        ProofScheme::Punctual,
        ConsistencyLevel::View,
        None,
        ITEMS_PER_SERVER,
    );
    let service = TxnService::new(
        cluster.clone(),
        ServiceConfig {
            workers: 2,
            queue_depth: 4,
            retry: RetryPolicy::default(),
            seed: 1,
        },
    );
    let cred = member_credential(&cluster);
    run_closed_loop(&service, 2, 3, |client, index| {
        let g = (client * 3 + index) as u64;
        (spec_for(&cluster, g % ITEMS_PER_SERVER), vec![cred.clone()])
    });
    let mut stats = service.shutdown();
    assert!(stats.wal.forced_logs > 0);
    let json = stats.to_json().render();
    let parsed = safetx_metrics::Json::parse(&json).expect("valid json");
    assert_eq!(
        parsed
            .get("forced_logs")
            .and_then(safetx_metrics::Json::as_u64),
        Some(stats.wal.forced_logs)
    );
    assert_eq!(
        parsed
            .get("physical_syncs")
            .and_then(safetx_metrics::Json::as_u64),
        Some(stats.wal.physical_syncs)
    );
}
