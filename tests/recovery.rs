//! Failure-injection integration tests: crashes of participants and the
//! TM at every interesting protocol point, plus the presumed-abort /
//! presumed-commit logging variants.

use safetx::core::{
    CloudServerActor, ConsistencyLevel, Experiment, ExperimentConfig, MsgKind, ProofScheme,
    TmActor, TmCrashPoint,
};
use safetx::policy::{Atom, Constant, PolicyBuilder};
use safetx::runtime::{Cluster, ClusterConfig, Deployment};
use safetx::sim::TraceKind;
use safetx::store::Value;
use safetx::txn::{CommitVariant, Decision, Operation, QuerySpec, TransactionSpec};
use safetx::types::{
    AdminDomain, DataItemId, Duration, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId, UserId,
};

fn build(variant: CommitVariant, commit_timeout_ms: u64) -> Experiment {
    let mut exp = Experiment::new(ExperimentConfig {
        servers: 2,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant,
        commit_timeout: Some(Duration::from_millis(commit_timeout_ms)),
        ..Default::default()
    });
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text("grant(write, records) :- role(U, member).")
        .unwrap()
        .build();
    exp.catalog().publish(policy);
    exp.install_everywhere(PolicyId::new(0), PolicyVersion::INITIAL);
    exp.seed_item(ServerId::new(0), DataItemId::new(0), Value::Int(0));
    exp.seed_item(ServerId::new(1), DataItemId::new(1), Value::Int(0));
    exp
}

fn submit(exp: &mut Experiment) {
    let cred = exp.issue_credential(
        UserId::new(1),
        Atom::fact(
            "role",
            vec![Constant::symbol("u1"), Constant::symbol("member")],
        ),
        Timestamp::ZERO,
        Timestamp::MAX,
    );
    let spec = TransactionSpec::new(
        TxnId::new(1),
        UserId::new(1),
        vec![
            QuerySpec::new(
                ServerId::new(0),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(0), 1)],
            ),
            QuerySpec::new(
                ServerId::new(1),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(1), 1)],
            ),
        ],
    );
    exp.submit(spec, vec![cred], Duration::ZERO);
}

fn server_value(exp: &Experiment, server: u64, item: u64) -> Option<i64> {
    let node = exp.book().server_node(ServerId::new(server));
    exp.world()
        .actor::<CloudServerActor>(node)
        .unwrap()
        .store()
        .read_int(DataItemId::new(item))
}

/// Timeline with 1 ms links and 2 servers: queries finish ~4 ms, prepares
/// arrive ~5 ms, votes ~6 ms, decisions ~6 ms, acks ~8 ms.
#[test]
fn participant_crash_before_prepare_aborts_via_timeout() {
    let mut exp = build(CommitVariant::Standard, 10);
    submit(&mut exp);
    let s1 = exp.book().server_node(ServerId::new(1));
    // Crash before the prepare arrives; restart only after the TM timeout.
    exp.world_mut()
        .schedule_crash(Duration::from_micros(4_200), s1);
    exp.world_mut()
        .schedule_restart(Duration::from_millis(30), s1);
    exp.run();
    let record = &exp.report().records[0];
    assert!(!record.outcome.is_commit(), "missing vote must abort");
    // Atomicity: neither side applied its write.
    assert_eq!(server_value(&exp, 0, 0), Some(0));
    assert_eq!(server_value(&exp, 1, 1), Some(0));
}

#[test]
fn participant_crash_after_vote_commits_via_inquiry() {
    let mut exp = build(CommitVariant::Standard, 60);
    submit(&mut exp);
    let s1 = exp.book().server_node(ServerId::new(1));
    // Crash after voting YES (~6 ms) but before the decision (~7 ms).
    exp.world_mut()
        .schedule_crash(Duration::from_micros(6_500), s1);
    exp.world_mut()
        .schedule_restart(Duration::from_millis(20), s1);
    exp.run();
    let record = &exp.report().records[0];
    assert!(
        record.outcome.is_commit(),
        "all votes were YES: {:?}",
        record.outcome
    );
    // The recovered participant learned the commit through its inquiry and
    // applied the write it was in doubt about.
    assert_eq!(server_value(&exp, 0, 0), Some(1));
    assert_eq!(server_value(&exp, 1, 1), Some(1));
}

#[test]
fn participant_stays_in_doubt_until_restart() {
    let mut exp = build(CommitVariant::Standard, 60);
    submit(&mut exp);
    let s1 = exp.book().server_node(ServerId::new(1));
    exp.world_mut()
        .schedule_crash(Duration::from_micros(6_500), s1);
    // Run past the decision without restarting the crashed node.
    exp.world_mut()
        .schedule_restart(Duration::from_millis(50), s1);
    exp.world_mut().run_until(Timestamp::from_millis(40));
    assert_eq!(
        server_value(&exp, 1, 1),
        Some(0),
        "in-doubt write not applied while down"
    );
    exp.run();
    assert_eq!(server_value(&exp, 1, 1), Some(1), "applied after recovery");
}

#[test]
fn all_commit_variants_reach_the_same_outcomes() {
    for variant in [
        CommitVariant::Standard,
        CommitVariant::PresumedAbort,
        CommitVariant::PresumedCommit,
    ] {
        let mut exp = build(variant, 60);
        submit(&mut exp);
        exp.run();
        let record = &exp.report().records[0];
        assert!(record.outcome.is_commit(), "{variant:?}");
        assert_eq!(server_value(&exp, 0, 0), Some(1), "{variant:?}");
    }
}

#[test]
fn presumed_variants_force_fewer_log_writes() {
    let forced = |variant| {
        let mut exp = build(variant, 60);
        submit(&mut exp);
        exp.run();
        assert_eq!(exp.report().commits(), 1);
        exp.report().forced_logs
    };
    let standard = forced(CommitVariant::Standard);
    let prc = forced(CommitVariant::PresumedCommit);
    // Standard commit: 2n + 1 = 5. PrC: collecting + coordinator commit +
    // participant prepares, but no participant decision forces.
    assert_eq!(standard, 5);
    assert!(
        prc < standard + 1,
        "presumed-commit must not force more than standard overall"
    );

    // Aborts: PrA forces less than standard.
    let forced_abort = |variant| {
        let mut exp = build(variant, 60);
        // No credential: proofs fail, commit-time validation aborts.
        let spec = TransactionSpec::new(
            TxnId::new(1),
            UserId::new(1),
            vec![QuerySpec::new(
                ServerId::new(0),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(0), 1)],
            )],
        );
        exp.submit(spec, vec![], Duration::ZERO);
        exp.run();
        assert_eq!(exp.report().aborts(), 1);
        exp.report().forced_logs
    };
    let standard_abort = forced_abort(CommitVariant::Standard);
    let pra_abort = forced_abort(CommitVariant::PresumedAbort);
    assert!(
        pra_abort < standard_abort,
        "presumed-abort skips abort forces: {pra_abort} >= {standard_abort}"
    );
}

#[test]
fn tm_crash_after_decision_still_answers_inquiries() {
    let mut exp = build(CommitVariant::Standard, 60);
    submit(&mut exp);
    let tm = exp.book().tms[0];
    let s1 = exp.book().server_node(ServerId::new(1));
    // Participant misses the decision (crash at 6.5 ms); the TM crashes
    // after logging the decision (7 ms) and restarts later. The recovered
    // participant's inquiry must still be answered from the TM's WAL.
    exp.world_mut()
        .schedule_crash(Duration::from_micros(6_500), s1);
    exp.world_mut()
        .schedule_crash(Duration::from_micros(7_500), tm);
    exp.world_mut()
        .schedule_restart(Duration::from_millis(15), tm);
    exp.world_mut()
        .schedule_restart(Duration::from_millis(20), s1);
    exp.run();
    assert_eq!(
        server_value(&exp, 1, 1),
        Some(1),
        "inquiry answered from the TM's forced decision record"
    );
    // The TM lost its volatile record list, but its log kept the decision.
    let tm_actor = exp.world().actor::<TmActor>(tm).unwrap();
    assert_eq!(
        tm_actor.log().decision(TxnId::new(1)),
        Some(Decision::Commit),
        "decision survives in the coordinator log"
    );
}

#[test]
fn lost_decision_message_is_recovered_after_link_failure() {
    // Sever the TM -> s1 link after the prepare was delivered (~5 ms) but
    // before the decision goes out (~6 ms): s1 is prepared and in doubt.
    // Crash and restart it; after the link heals its inquiry (or the TM's
    // decision retransmission) resolves the commit.
    let mut exp = build(CommitVariant::Standard, 60);
    submit(&mut exp);
    let tm = exp.book().tms[0];
    let s1 = exp.book().server_node(ServerId::new(1));
    exp.world_mut().run_until(Timestamp::from_micros(5_500));
    exp.world_mut().set_link(tm, s1, false);
    exp.world_mut()
        .schedule_crash(Duration::from_micros(6_500), s1);
    exp.world_mut()
        .schedule_restart(Duration::from_millis(19), s1);
    exp.world_mut().run_until(Timestamp::from_millis(15));
    assert_eq!(server_value(&exp, 1, 1), Some(0), "decision lost so far");
    exp.world_mut().set_link(tm, s1, true);
    exp.run();
    assert_eq!(server_value(&exp, 1, 1), Some(1));
    assert!(exp.report().records[0].outcome.is_commit());
}

/// The coordinator crash points, in protocol order.
const CRASH_POINTS: [TmCrashPoint; 5] = [
    TmCrashPoint::AfterSend(MsgKind::ExecQuery),
    TmCrashPoint::AfterSend(MsgKind::PrepareToCommit),
    TmCrashPoint::BeforeDecisionForce,
    TmCrashPoint::AfterDecisionForce,
    TmCrashPoint::AfterSend(MsgKind::Decision),
];

/// The decision a threaded `Cluster` logs for the `submit` transaction
/// when its coordinator dies at `point`.
fn threaded_logged_decision(variant: CommitVariant, point: TmCrashPoint) -> Option<Decision> {
    let cluster = Cluster::new(ClusterConfig {
        servers: 2,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant,
        reply_timeout: Some(std::time::Duration::from_millis(50)),
        ..Default::default()
    });
    cluster.publish_policy(
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text("grant(write, records) :- role(U, member).")
            .unwrap()
            .build(),
    );
    let cred = cluster.cas().with_mut(|registry| {
        registry.ca_mut(safetx::types::CaId::new(0)).unwrap().issue(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("u1"), Constant::symbol("member")],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    });
    let queries = (0..2)
        .map(|s| {
            let write = vec![Operation::Add(DataItemId::new(s), 1)];
            QuerySpec::new(ServerId::new(s), "write", "records", write)
        })
        .collect();
    let spec = TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries);
    let result = cluster.execute_with_coordinator_crash(&spec, &[cred], point);
    assert!(result.is_none(), "{variant:?} / {point:?}: the crash fires");
    cluster.logged_decision(spec.id)
}

/// The simulator kills a coordinator at the same protocol moments as the
/// runtimes: its log ends up holding what the threaded runtime's holds,
/// and the dead coordinator sends nothing after the cut.
#[test]
fn simulated_coordinator_crashes_log_what_the_threaded_runtime_logs() {
    for variant in [
        CommitVariant::Standard,
        CommitVariant::PresumedAbort,
        CommitVariant::PresumedCommit,
    ] {
        for point in CRASH_POINTS {
            let cell = format!("{variant:?} / {point:?}");
            let mut exp = build(variant, 10);
            exp.world_mut().enable_tracing();
            let tm = exp.book().tms[0];
            let txn = TxnId::new(1);
            exp.world_mut()
                .actor_mut::<TmActor>(tm)
                .unwrap()
                .crash_at(txn, point);
            submit(&mut exp);
            exp.run();

            let trace = exp.world().trace().unwrap().entries();
            let crashed = format!("crashed:{txn}");
            let cut = trace
                .iter()
                .position(|e| matches!(&e.kind, TraceKind::Mark { node, label } if *node == tm && *label == crashed))
                .unwrap_or_else(|| panic!("{cell}: the crash fires"));
            let sent_after = trace[cut..]
                .iter()
                .filter(|e| matches!(&e.kind, TraceKind::Send { from, .. } if *from == tm))
                .count();
            assert_eq!(sent_after, 0, "{cell}: the dead coordinator sent on");
            if let TmCrashPoint::AfterSend(kind) = point {
                let last = trace[..cut].iter().rev().find_map(|e| match &e.kind {
                    TraceKind::Send { from, label, .. } if *from == tm => Some(label),
                    _ => None,
                });
                let last = last.expect("a send before the cut");
                assert!(
                    last.starts_with(&format!("{kind:?}")),
                    "{cell}: cut after {last}"
                );
            }

            let tm_actor = exp.world().actor::<TmActor>(tm).unwrap();
            assert!(tm_actor.completed().is_empty(), "{cell}: nothing finished");
            assert_eq!(
                tm_actor.log().decision(txn),
                threaded_logged_decision(variant, point),
                "{cell}"
            );
        }
    }
}
