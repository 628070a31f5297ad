//! Frame conservation on a clean run.
//!
//! Both ends of every TM↔server edge account framed sizes the same way
//! (length prefix included), so on a run with no disconnects and no
//! decode errors the counters must balance exactly: every frame the TM
//! sends is a frame that server receives, byte for byte, and vice versa.

use safetx_core::{ConsistencyLevel, ProofScheme};
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::ClusterConfig;
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use std::time::{Duration, Instant};

const SERVERS: usize = 3;

fn build() -> NetCluster {
    let cluster = NetCluster::new(ClusterConfig {
        servers: SERVERS,
        scheme: ProofScheme::Continuous,
        consistency: ConsistencyLevel::Global,
        ..Default::default()
    });
    cluster.publish_policy(
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text("grant(write, records) :- role(U, member).")
            .expect("rules parse")
            .build(),
    );
    for s in 0..SERVERS as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            for j in 0..8 {
                core.store_mut().write(
                    DataItemId::new(s * 100 + j),
                    Value::Int(10),
                    Timestamp::ZERO,
                );
            }
        });
    }
    cluster
}

fn member(cluster: &NetCluster) -> Credential {
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

fn spec(cluster: &NetCluster, slot: u64) -> TransactionSpec {
    let queries = (0..SERVERS as u64)
        .map(|s| {
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 100 + slot % 8), 1)],
            )
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

/// The TM side has no reader thread: a frame that lands after every
/// worker is done (a straggler ack, say) is read and counted when the
/// counters are read. A frame still on its way gets a moment to land
/// before an imbalance is declared.
fn edges_balance(cluster: &NetCluster) -> bool {
    (0..SERVERS as u64).all(|s| {
        let (tm, srv) = cluster.edge_counters(ServerId::new(s));
        tm.frames_sent == srv.frames_received
            && tm.bytes_sent == srv.bytes_received
            && srv.frames_sent == tm.frames_received
            && srv.bytes_sent == tm.bytes_received
    })
}

#[test]
fn clean_run_conserves_frames_and_bytes_per_edge() {
    let cluster = build();
    let credentials = vec![member(&cluster)];
    let mut commits = 0;
    for i in 0..20 {
        let result = cluster.execute(&spec(&cluster, i), &credentials);
        if matches!(result.outcome, safetx_core::TxnOutcome::Committed { .. }) {
            commits += 1;
        }
    }
    assert!(commits > 0, "workload never committed");

    let deadline = Instant::now() + Duration::from_secs(5);
    while !edges_balance(&cluster) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    for s in 0..SERVERS as u64 {
        let (tm, srv) = cluster.edge_counters(ServerId::new(s));
        assert!(tm.frames_sent > 0, "edge {s}: no traffic at all");
        assert_eq!(
            tm.frames_sent, srv.frames_received,
            "edge {s}: TM→server frames leaked (tm={tm:?} srv={srv:?})"
        );
        assert_eq!(
            tm.bytes_sent, srv.bytes_received,
            "edge {s}: TM→server bytes leaked (tm={tm:?} srv={srv:?})"
        );
        assert_eq!(
            srv.frames_sent, tm.frames_received,
            "edge {s}: server→TM frames leaked (tm={tm:?} srv={srv:?})"
        );
        assert_eq!(
            srv.bytes_sent, tm.bytes_received,
            "edge {s}: server→TM bytes leaked (tm={tm:?} srv={srv:?})"
        );
        assert_eq!(tm.decode_errors, 0, "edge {s}: TM saw undecodable frames");
        assert_eq!(
            srv.decode_errors, 0,
            "edge {s}: server saw undecodable frames"
        );
        assert_eq!(
            tm.reconnects + srv.reconnects,
            0,
            "edge {s}: unexpected churn"
        );
    }

    // The cluster-wide aggregate (both sides of every edge summed) must
    // balance too — this is the figure ServiceStats::to_json exports.
    let total = cluster.transport_counters();
    assert_eq!(total.frames_sent, total.frames_received);
    assert_eq!(total.bytes_sent, total.bytes_received);
    cluster.shutdown();
}
