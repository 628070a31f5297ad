//! Server-round batching equivalence: draining the server's queue, sharing
//! one proof-evaluation batch per round, group-committing the round's WAL
//! forces and coalescing replies is a throughput optimisation, not a
//! semantic change. The same workload must produce identical deterministic
//! outcomes with batching off (`server_batch: Some(1)`, the exact
//! message-at-a-time loop) and at any batch size — across every scheme ×
//! consistency cell.
//!
//! What batching *is* allowed to change is the physical-sync count: the
//! paper's logical forced-log metric (Table I's 2n+1) stays byte-identical
//! per transaction, while concurrent rounds coalesce their forces into
//! fewer device syncs.

use safetx_core::{AbortReason, ConsistencyLevel, ProofScheme};
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, ExecutionResult};
use safetx_service::{run_closed_loop, RetryPolicy, ServiceConfig, ServiceStats, TxnService};
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{
    AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp, UserId,
};
use std::sync::Arc;
use std::time::Duration;

const ITEMS_PER_SERVER: u64 = 16;
const DENY_EVERY: u64 = 8;
const SERVERS: usize = 3;
const CLIENTS: usize = 4;
const PER_CLIENT: usize = 8;

fn build_cluster(
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    batch: usize,
    wal_sync_cost: Option<Duration>,
    items_per_server: u64,
) -> Arc<Cluster> {
    let cluster = Cluster::new(ClusterConfig {
        servers: SERVERS,
        scheme,
        consistency,
        server_batch: Some(batch),
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

/// Runs the fixed concurrent closed-loop workload at the given batch size
/// and returns the final service stats.
fn run_cell(scheme: ProofScheme, consistency: ConsistencyLevel, batch: usize) -> ServiceStats {
    let cluster = build_cluster(scheme, consistency, batch, None, ITEMS_PER_SERVER);
    let service = TxnService::new(
        cluster.clone(),
        ServiceConfig {
            workers: CLIENTS,
            queue_depth: 2 * CLIENTS,
            retry: RetryPolicy {
                max_retries: 64,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_millis(2),
                jitter_percent: 50,
                ..RetryPolicy::default()
            },
            seed: 42,
        },
    );
    let cred = member_credential(&cluster);
    run_closed_loop(&service, CLIENTS, PER_CLIENT, |client, index| {
        let g = (client * PER_CLIENT + index) as u64;
        let creds = if g % DENY_EVERY == DENY_EVERY - 1 {
            vec![]
        } else {
            vec![cred.clone()]
        };
        (spec_for(&cluster, (g * 7) % ITEMS_PER_SERVER), creds)
    });
    let stats = service.shutdown();
    assert!(
        stats.conserves(),
        "{scheme}/{consistency}/batch={batch}: outcome accounting leaked: {stats:?}"
    );
    stats
}

/// The deterministic slice of [`ServiceStats`]: everything except
/// latencies, retry counts (timing-dependent interleaving), and the
/// stale-reply drop counter.
fn outcomes(stats: &ServiceStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.submissions,
        stats.commits,
        stats.terminal_aborts,
        stats.retries_exhausted,
        stats.overload_rejections,
    )
}

#[test]
fn batching_preserves_outcome_totals_across_every_cell() {
    for scheme in ProofScheme::ALL {
        for consistency in ConsistencyLevel::ALL {
            let baseline = run_cell(scheme, consistency, 1);
            let total = (CLIENTS * PER_CLIENT) as u64;
            let denied = total / DENY_EVERY;
            assert_eq!(baseline.submissions, total);
            assert_eq!(
                baseline.terminal_aborts, denied,
                "{scheme}/{consistency}: positional denial fraction"
            );
            assert_eq!(baseline.commits, total - denied);
            assert_eq!(baseline.retries_exhausted, 0, "budget 64 never exhausts");
            for batch in [4, 16] {
                let batched = run_cell(scheme, consistency, batch);
                assert_eq!(
                    outcomes(&baseline),
                    outcomes(&batched),
                    "{scheme}/{consistency}: batch={batch} changed deterministic outcomes"
                );
            }
        }
    }
}

/// The protocol-determined slice of one execution: outcome, abort reason,
/// executed-query count, Table I counters, and the proof view normalized
/// to evaluation facts (arrival order and timestamps are scheduling
/// artifacts).
type Observation = (
    bool,
    Option<AbortReason>,
    usize,
    u64,
    u64,
    u64,
    u64,
    Vec<(ServerId, String, String, PolicyId, PolicyVersion, bool)>,
);

fn observe(r: &ExecutionResult) -> Observation {
    let mut view: Vec<_> = r
        .view
        .proofs()
        .iter()
        .map(|p| {
            (
                p.server,
                p.request.action.clone(),
                p.request.resource.clone(),
                p.policy_id,
                p.policy_version,
                p.truth(),
            )
        })
        .collect();
    view.sort();
    (
        r.outcome.is_commit(),
        r.outcome.abort_reason(),
        r.queries_executed,
        r.metrics.messages,
        r.metrics.proofs,
        r.metrics.rounds,
        r.metrics.forced_logs,
        view,
    )
}

/// A short scripted battery (commit, denial, second commit over the same
/// items) executed sequentially; returns per-transaction observations.
fn scripted_battery(
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    batch: usize,
) -> Vec<Observation> {
    let cluster = build_cluster(scheme, consistency, batch, None, ITEMS_PER_SERVER);
    let cred = member_credential(&cluster);
    vec![
        observe(&cluster.execute(&spec_for(&cluster, 0), std::slice::from_ref(&cred))),
        observe(&cluster.execute(&spec_for(&cluster, 1), &[])),
        observe(&cluster.execute(&spec_for(&cluster, 0), &[cred])),
    ]
}

#[test]
fn batching_is_observation_identical_per_transaction() {
    for scheme in ProofScheme::ALL {
        for consistency in ConsistencyLevel::ALL {
            let baseline = scripted_battery(scheme, consistency, 1);
            assert!(baseline[0].0, "{scheme}/{consistency}: clean commit");
            assert_eq!(
                baseline[1].1,
                Some(AbortReason::ProofFalse),
                "{scheme}/{consistency}: credential-less txn denied"
            );
            assert!(baseline[2].0, "{scheme}/{consistency}: re-commit");
            for batch in [4, 16] {
                let batched = scripted_battery(scheme, consistency, batch);
                assert_eq!(
                    baseline, batched,
                    "{scheme}/{consistency}: batch={batch} changed an observation"
                );
            }
        }
    }
}

#[test]
fn batch_one_performs_one_physical_sync_per_force() {
    let cluster = build_cluster(
        ProofScheme::Deferred,
        ConsistencyLevel::View,
        1,
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
        "without batching every force is its own sync"
    );
}

#[test]
fn group_commit_coalesces_physical_syncs_under_concurrent_load() {
    // Disjoint items per transaction (no lock conflicts, no retries) and a
    // non-trivial sync cost, which gives every host a device thread of its
    // own: it spends long enough inside each round that the next round's
    // forces pile up in its queue behind it, so rounds with several
    // forces — and therefore coalesced syncs — are guaranteed under 8
    // concurrent clients.
    const LOAD_CLIENTS: usize = 8;
    const LOAD_PER_CLIENT: usize = 12;
    let items = (LOAD_CLIENTS * LOAD_PER_CLIENT) as u64;
    let cluster = build_cluster(
        ProofScheme::Deferred,
        ConsistencyLevel::View,
        16,
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
    assert!(
        wal.physical_syncs <= wal.forced_logs,
        "syncs can never exceed forces: {wal}"
    );
    assert!(
        wal.physical_syncs < wal.forced_logs,
        "concurrent load never produced a multi-force round: {wal}"
    );
    // The service surfaces the same counters.
    assert_eq!(stats.wal, wal);
}

#[test]
fn wal_stats_flow_through_service_json() {
    let cluster = build_cluster(
        ProofScheme::Punctual,
        ConsistencyLevel::View,
        4,
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
