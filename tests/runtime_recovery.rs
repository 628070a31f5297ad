//! Crash-at-every-protocol-point matrix on the threaded runtime.
//!
//! For every commit-protocol logging variant (Standard, Presumed Abort,
//! Presumed Commit), a participant is killed at each of the three
//! interesting protocol moments:
//!
//! * **before the prepare arrives** — the TM never collects its vote, the
//!   transaction aborts as `ServerUnavailable`, and the restarted server
//!   has no trace of it (its volatile state died unprepared);
//! * **right after its YES vote leaves** — the classic in-doubt window:
//!   the TM commits on the full vote set, the restarted participant finds
//!   a forced Prepared record with no decision, and the recovery resolver
//!   answers its inquiry from the coordinator decision log;
//! * **right after it processed the decision** — the WAL already has the
//!   decision record, so the restart must come back consistent with no
//!   inquiry at all.
//!
//! In every case the restarted server's decision and store must agree with
//! the coordinator's decision log — the acceptance criterion of the fault
//! tentpole.

use safetx_core::{AbortReason, ConsistencyLevel, ProofScheme, ServerCore};
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{Addr, Cluster, ClusterConfig, CrashPoint, CrashRule, FaultPlan, MsgKind};
use safetx_store::Value;
use safetx_txn::{CommitVariant, Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use std::time::{Duration, Instant};

const VARIANTS: [CommitVariant; 3] = [
    CommitVariant::Standard,
    CommitVariant::PresumedAbort,
    CommitVariant::PresumedCommit,
];

/// The participant we crash in every scenario.
const VICTIM: ServerId = ServerId::new(2);
/// The item the victim writes; seeded to 10, decremented on commit.
const VICTIM_ITEM: DataItemId = DataItemId::new(200);

fn build_cluster(variant: CommitVariant) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        servers: 3,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant,
        reply_timeout: Some(Duration::from_millis(25)),
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
    for s in 0..3u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            core.store_mut()
                .write(DataItemId::new(s * 100), Value::Int(10), Timestamp::ZERO);
        });
    }
    cluster
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

fn spec(cluster: &Cluster) -> TransactionSpec {
    TransactionSpec::new(
        cluster.next_txn_id(),
        UserId::new(1),
        vec![
            QuerySpec::new(
                ServerId::new(0),
                "read",
                "records",
                vec![Operation::Read(DataItemId::new(0))],
            ),
            QuerySpec::new(
                ServerId::new(1),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(100), 1)],
            ),
            QuerySpec::new(
                VICTIM,
                "write",
                "records",
                vec![Operation::Add(VICTIM_ITEM, -1)],
            ),
        ],
    )
}

fn crash_plan(point: CrashPoint) -> FaultPlan {
    FaultPlan {
        seed: 0,
        rules: Vec::new(),
        crashes: vec![CrashRule {
            server: VICTIM,
            point,
        }],
    }
}

/// Probes the victim's recovered state: its item and how many
/// transactions it still holds. (Not its decided memo, which a host may
/// forget after any round.)
fn victim_state(cluster: &Cluster) -> (Option<i64>, usize) {
    cluster.configure_server(VICTIM, |core: &mut ServerCore<Addr>| {
        (core.store().read_int(VICTIM_ITEM), core.active_txns())
    })
}

#[test]
fn crash_before_prepare_aborts_and_leaves_no_trace() {
    for variant in VARIANTS {
        let cluster = build_cluster(variant);
        let cred = member_credential(&cluster);
        let spec = spec(&cluster);
        let txn = spec.id;
        cluster.set_fault_plan(crash_plan(CrashPoint::BeforeReceive(
            MsgKind::PrepareToCommit,
        )));
        let result = cluster.execute(&spec, &[cred]);
        assert_eq!(
            result.outcome.abort_reason(),
            Some(AbortReason::ServerUnavailable),
            "{variant:?}: {:?}",
            result.outcome
        );
        assert_eq!(
            cluster.logged_decision(txn),
            Some(Decision::Abort),
            "{variant:?}: the timed-out abort must be logged before anyone is told"
        );
        cluster.clear_fault_plan();

        assert_eq!(cluster.crashed_servers(), vec![VICTIM], "{variant:?}");
        cluster.restart_server(VICTIM);
        let (value, active) = victim_state(&cluster);
        // The victim died unprepared: no write applied, no live state, and
        // nothing in doubt to resolve.
        assert_eq!(value, Some(10), "{variant:?}: aborted write leaked");
        assert_eq!(active, 0, "{variant:?}: ghost transaction survived crash");
        assert_eq!(cluster.resolve_in_doubt(), 0, "{variant:?}");
        let counters = cluster.fault_counters();
        assert_eq!(counters.server_crashes, 1, "{variant:?}");
        assert_eq!(counters.recoveries, 1, "{variant:?}");
        assert!(counters.timeout_aborts >= 1, "{variant:?}");
        cluster.shutdown();
    }
}

#[test]
fn crash_after_yes_vote_recovers_the_commit_via_inquiry() {
    for variant in VARIANTS {
        let cluster = build_cluster(variant);
        let cred = member_credential(&cluster);
        let spec = spec(&cluster);
        let txn = spec.id;
        cluster.set_fault_plan(crash_plan(CrashPoint::AfterSend(MsgKind::CommitReply)));
        let result = cluster.execute(&spec, &[cred]);
        // Every vote was collected before the crash: the TM commits.
        assert!(result.is_commit(), "{variant:?}: {:?}", result.outcome);
        assert_eq!(cluster.logged_decision(txn), Some(Decision::Commit));
        cluster.clear_fault_plan();

        cluster.restart_server(VICTIM);
        // The restart answers the in-doubt transaction from the decision
        // log; poll until it is gone.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (value, active) = victim_state(&cluster);
            if active == 0 {
                assert_eq!(
                    value,
                    Some(9),
                    "{variant:?}: recovered commit did not apply the write set"
                );
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{variant:?}: in-doubt transaction never resolved (active={active})"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        cluster.shutdown();
    }
}

#[test]
fn crash_after_decision_restarts_consistent_without_inquiry() {
    for variant in VARIANTS {
        let cluster = build_cluster(variant);
        let cred = member_credential(&cluster);
        let spec = spec(&cluster);
        let txn = spec.id;
        cluster.set_fault_plan(crash_plan(CrashPoint::AfterReceive(MsgKind::Decision)));
        let result = cluster.execute(&spec, &[cred]);
        assert!(result.is_commit(), "{variant:?}: {:?}", result.outcome);
        assert_eq!(cluster.logged_decision(txn), Some(Decision::Commit));
        cluster.clear_fault_plan();

        // The decision was fully processed before the crash, so the store
        // already has it: the restart needs no inquiry at all.
        cluster.restart_server(VICTIM);
        assert_eq!(cluster.resolve_in_doubt(), 0, "{variant:?}");
        let (value, active) = victim_state(&cluster);
        assert_eq!(value, Some(9), "{variant:?}: committed write lost in crash");
        assert_eq!(active, 0, "{variant:?}");
        cluster.shutdown();
    }
}
