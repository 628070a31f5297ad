//! One body, four deployments: the control plane behaves identically over
//! the channel link (`Cluster`) and the socket link (`NetCluster`), each
//! unpartitioned and split into two decision-log groups, driven through
//! `&dyn Deployment` only.
//!
//! The body walks the life of a replica that misses a policy update — the
//! paper's normal case (§III: a policy replica may lag; §V: 2PV/2PVC bring
//! it to the master's or the view's version), which the per-runtime copies
//! of the control plane used to turn into panics:
//!
//! commit → crash a participant → `crashed_servers` / `wal_stats` /
//! `fault_counters` agree → publish v2 during the outage → a transaction
//! needing the dead server aborts `ServerUnavailable` → restart → the
//! stale replica is brought to v2 by the next transaction, whose commit
//! passes `trusted::is_trusted` → `resolve_in_doubt` → decision log and
//! stores agree.
//!
//! Run for a Continuous/Global cell (the master's version wins) and a
//! Punctual/View cell (the view's newest version wins).

use safetx_core::{trusted, AbortReason, ConsistencyLevel, ProofScheme};
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, Deployment};
use safetx_store::{LocalStore, Value};
use safetx_txn::{Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{
    AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp, UserId,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const POLICY: PolicyId = PolicyId::new(0);
const SEED_VALUE: i64 = 10;

fn policy(version: u64) -> Policy {
    PolicyBuilder::new(POLICY, AdminDomain::new(0))
        .version(PolicyVersion(version))
        .rules_text("grant(write, records) :- role(U, member).")
        .expect("rules parse")
        .build()
}

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

fn item(server: ServerId) -> DataItemId {
    DataItemId::new(server.index() * 100)
}

/// One write on every server of the deployment.
fn spec(cluster: &dyn Deployment) -> TransactionSpec {
    let queries = cluster
        .server_ids()
        .into_iter()
        .map(|s| QuerySpec::new(s, "write", "records", vec![Operation::Add(item(s), 1)]))
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

fn read_item(cluster: &dyn Deployment, server: ServerId) -> Option<i64> {
    let mut value = None;
    cluster.with_store(server, &mut |store: &mut LocalStore| {
        value = store.read_int(item(server));
    });
    value
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => (*payload.downcast::<&str>().expect("a string payload")).to_owned(),
    }
}

fn conformance(cluster: &dyn Deployment, name: &str) {
    let consistency = cluster.config().consistency;
    let servers = cluster.server_ids();
    assert_eq!(servers.len(), cluster.config().servers, "{name}");
    let victim = servers[1];
    cluster.publish_policy(policy(1));
    for &server in &servers {
        cluster.with_store(server, &mut |store: &mut LocalStore| {
            store.write(item(server), Value::Int(SEED_VALUE), Timestamp::ZERO);
        });
    }
    let cred = vec![member_credential(cluster)];
    // Commits, audits the commit (Definition 4), and returns the policy
    // version of each proof of authorization the commit rests on, with the
    // protocol messages it took and the transaction's id.
    let trusted_commit = |step: &str| {
        let spec = spec(cluster);
        let result = cluster.execute(&spec, &cred);
        assert!(result.is_commit(), "{name}: {step}: {:?}", result.outcome);
        assert!(
            trusted::is_trusted(&result.view, consistency, cluster.catalog()),
            "{name}: {step}: the commit fails Definition 4"
        );
        let latest = result.view.latest_per_proof();
        let versions: Vec<_> = latest.iter().map(|p| p.policy_version).collect();
        assert_eq!(versions.len(), servers.len(), "{name}: {step}");
        (versions, result.metrics.messages, spec.id)
    };

    let (versions, healthy_messages, first) = trusted_commit("healthy cluster");
    assert_eq!(versions, vec![PolicyVersion(1); servers.len()], "{name}");
    let wal_before = cluster.wal_stats();
    assert!(wal_before.forced_logs > 0, "{name}");

    // A crash is synchronous and idempotent; the counters see it at once,
    // and the WAL accounting keeps counting the dead server's log.
    cluster.crash_server(victim);
    cluster.crash_server(victim);
    assert_eq!(cluster.crashed_servers(), vec![victim], "{name}");
    assert_eq!(cluster.wal_stats(), wal_before, "{name}");
    assert_eq!(cluster.fault_counters().server_crashes, 1, "{name}");
    assert_eq!(
        panic_message(|| cluster.with_store(victim, &mut |_| {})),
        format!("server {victim} is crashed: restart it before configuring it"),
        "{name}"
    );

    // The dead replica misses the update; nobody panics over it.
    cluster.publish_policy(policy(2));
    cluster.install_everywhere(POLICY, PolicyVersion(2));
    let unavailable = spec(cluster);
    let result = cluster.execute(&unavailable, &cred);
    assert_eq!(
        result.outcome.abort_reason(),
        Some(AbortReason::ServerUnavailable),
        "{name}: {:?}",
        result.outcome
    );
    assert!(cluster.fault_counters().timeout_aborts >= 1, "{name}");

    cluster.restart_server(victim);
    assert!(cluster.crashed_servers().is_empty(), "{name}");
    assert_eq!(cluster.fault_counters().recoveries, 1, "{name}");
    assert_eq!(
        panic_message(|| cluster.restart_server(victim)),
        format!("server {victim} is not crashed: nothing to restart"),
        "{name}"
    );

    // It restarted with its pre-crash version — the update went to live
    // replicas only — so the next transaction spends extra messages on
    // bringing it to v2; then every proof rests on v2 and the commit is
    // trusted.
    let (versions, stale_messages, second) = trusted_commit("stale replica");
    assert_eq!(versions, vec![PolicyVersion(2); servers.len()], "{name}");
    assert!(
        stale_messages > healthy_messages,
        "{name}: {stale_messages} messages, {healthy_messages} on the healthy cluster"
    );

    // Nothing is left to terminate, and the log and the stores agree.
    cluster.resolve_in_doubt();
    assert_eq!(cluster.resolve_in_doubt(), 0, "{name}");
    let committed: Vec<_> = [first, unavailable.id, second]
        .into_iter()
        .filter(|&txn| cluster.logged_decision(txn) == Some(Decision::Commit))
        .collect();
    assert_eq!(committed, [first, second], "{name}");
    for &server in &servers {
        assert_eq!(
            read_item(cluster, server),
            Some(SEED_VALUE + 2),
            "{name}: server {server}"
        );
    }
}

#[test]
fn a_replica_that_misses_an_update_is_caught_by_validation_in_every_deployment() {
    for (scheme, consistency) in [
        (ProofScheme::Continuous, ConsistencyLevel::Global),
        (ProofScheme::Punctual, ConsistencyLevel::View),
    ] {
        let config = |servers, groups| ClusterConfig {
            servers,
            groups,
            scheme,
            consistency,
            reply_timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let cell = format!("{scheme}/{consistency}");
        conformance(&Cluster::new(config(3, 1)), &format!("threaded {cell}"));
        conformance(&*NetCluster::new(config(3, 1)), &format!("net {cell}"));
        let sharded = Cluster::new(config(4, 2));
        conformance(&sharded, &format!("sharded {cell}"));
        let net_sharded = NetCluster::new(config(4, 2));
        conformance(&*net_sharded, &format!("net sharded {cell}"));
    }
}
