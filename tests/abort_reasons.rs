//! Abort-reason mapping regression suite.
//!
//! Both runtimes now terminate transactions through the shared
//! `safetx_core::TmCore`, so every protocol-determined abort reason must
//! come out identical whichever driver ran the transaction. One reason
//! pair is *deliberately* split and pinned here as such: a stall aborts as
//! `Timeout` under the simulator's idle watchdog but as
//! `ServerUnavailable` under the threaded driver's per-reply deadline —
//! the two failure detectors model different knowledge (idleness vs a
//! missed deadline on a specific reply).

use safetx_core::{AbortReason, ConsistencyLevel, Experiment, ExperimentConfig, ProofScheme};
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, CrashPoint, CrashRule, FaultPlan, MsgKind};
use safetx_store::{IntegrityConstraint, Value};
use safetx_txn::{CommitVariant, Operation, QuerySpec, TransactionSpec};
use safetx_types::{
    AdminDomain, CaId, DataItemId, Duration, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId,
    UserId,
};
use std::sync::Arc;

const SERVERS: usize = 2;

fn base_policy() -> Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build()
}

/// A v2 with the *same* rules: only the version number diverges, so any
/// abort it causes is purely a version-consistency abort.
fn same_rules_v2() -> Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .version(PolicyVersion(2))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build()
}

fn member_atom() -> Atom {
    Atom::fact(
        "role",
        vec![Constant::symbol("u1"), Constant::symbol("member")],
    )
}

fn sim(scheme: ProofScheme, consistency: ConsistencyLevel) -> Experiment {
    let mut exp = Experiment::new(ExperimentConfig {
        servers: SERVERS,
        scheme,
        consistency,
        ..Default::default()
    });
    exp.catalog().publish(base_policy());
    exp.install_everywhere(PolicyId::new(0), PolicyVersion::INITIAL);
    for s in 0..SERVERS as u64 {
        exp.seed_item(ServerId::new(s), DataItemId::new(s * 100), Value::Int(10));
    }
    exp
}

fn sim_credential(exp: &mut Experiment) -> Credential {
    exp.issue_credential(
        UserId::new(1),
        member_atom(),
        Timestamp::ZERO,
        Timestamp::MAX,
    )
}

fn threaded(scheme: ProofScheme, consistency: ConsistencyLevel) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        servers: SERVERS,
        scheme,
        consistency,
        variant: CommitVariant::Standard,
        ..Default::default()
    });
    cluster.publish_policy(base_policy());
    for s in 0..SERVERS as u64 {
        cluster.configure_server(ServerId::new(s), move |core| {
            core.store_mut()
                .write(DataItemId::new(s * 100), Value::Int(10), Timestamp::ZERO);
        });
    }
    cluster
}

fn threaded_credential(cluster: &Cluster) -> Credential {
    cluster.cas().with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).expect("CA0").issue(
            UserId::new(1),
            member_atom(),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    })
}

fn two_server_spec(txn: u64) -> TransactionSpec {
    TransactionSpec::new(
        TxnId::new(txn),
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
                vec![Operation::Add(DataItemId::new(100), -1)],
            ),
        ],
    )
}

fn sim_reason(
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    prepare: impl FnOnce(&mut Experiment),
    credentials: bool,
) -> Option<AbortReason> {
    let mut exp = sim(scheme, consistency);
    let creds = if credentials {
        vec![sim_credential(&mut exp)]
    } else {
        Vec::new()
    };
    prepare(&mut exp);
    exp.submit(two_server_spec(1), creds, Duration::ZERO);
    exp.run();
    let report = exp.report();
    assert_eq!(report.records.len(), 1);
    report.records[0].outcome.abort_reason()
}

fn threaded_reason(
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    prepare: impl FnOnce(&Cluster),
    credentials: bool,
) -> Option<AbortReason> {
    let cluster = threaded(scheme, consistency);
    let creds = if credentials {
        vec![threaded_credential(&cluster)]
    } else {
        Vec::new()
    };
    prepare(&cluster);
    let result = cluster.execute(&two_server_spec(1), &creds);
    let reason = result.outcome.abort_reason();
    cluster.shutdown();
    reason
}

#[test]
fn proof_false_maps_identically_in_every_scheme() {
    for scheme in ProofScheme::ALL {
        for consistency in ConsistencyLevel::ALL {
            let s = sim_reason(scheme, consistency, |_| {}, false);
            let t = threaded_reason(scheme, consistency, |_| {}, false);
            assert_eq!(
                s,
                Some(AbortReason::ProofFalse),
                "{scheme}/{consistency} sim"
            );
            assert_eq!(t, s, "{scheme}/{consistency} threaded diverged");
        }
    }
}

#[test]
fn integrity_violation_maps_identically_in_every_scheme() {
    let constraint = IntegrityConstraint::Range {
        item: DataItemId::new(100),
        lo: 10,
        hi: 100,
    };
    for scheme in ProofScheme::ALL {
        for consistency in ConsistencyLevel::ALL {
            let c = constraint.clone();
            let s = sim_reason(
                scheme,
                consistency,
                |exp| exp.add_constraint(ServerId::new(1), c),
                true,
            );
            let c = constraint.clone();
            let t = threaded_reason(
                scheme,
                consistency,
                |cluster| {
                    cluster.configure_server(ServerId::new(1), move |core| {
                        core.constraints_mut().push(c);
                    });
                },
                true,
            );
            assert_eq!(
                s,
                Some(AbortReason::IntegrityViolation),
                "{scheme}/{consistency} sim"
            );
            assert_eq!(t, s, "{scheme}/{consistency} threaded diverged");
        }
    }
}

#[test]
fn version_inconsistency_maps_identically() {
    // Server 1 is one version ahead (same rules, so nothing else can
    // abort): Incremental Punctual's pin must refuse the divergent view.
    for consistency in ConsistencyLevel::ALL {
        let scheme = ProofScheme::IncrementalPunctual;
        let s = sim_reason(
            scheme,
            consistency,
            |exp| {
                exp.catalog().publish(same_rules_v2());
                // Re-pin the catalog state as of the txn for View: only the
                // replica is ahead. For Global the catalog move itself is
                // the divergence.
                if consistency == ConsistencyLevel::View {
                    exp.install_at(ServerId::new(1), PolicyId::new(0), PolicyVersion(2));
                }
            },
            true,
        );
        let t = threaded_reason(
            scheme,
            consistency,
            |cluster| {
                cluster.catalog().publish(same_rules_v2());
                if consistency == ConsistencyLevel::View {
                    cluster.configure_server(ServerId::new(1), move |core| {
                        core.install_policy(PolicyId::new(0), PolicyVersion(2));
                    });
                }
            },
            true,
        );
        assert_eq!(t, s, "{scheme}/{consistency} threaded diverged");
        if consistency == ConsistencyLevel::View {
            assert_eq!(
                s,
                Some(AbortReason::VersionInconsistency),
                "{scheme}/{consistency} sim"
            );
        }
    }
}

#[test]
fn lock_conflict_maps_identically() {
    // The contention abort is mode-dependent by design: pessimistic
    // locking surfaces it as LockConflict at execution, OCC as
    // ValidationConflict at the 2PVC vote. Both drivers honour
    // SAFETX_CONCURRENCY_MODE, so derive the expectation from it and
    // require the two drivers to agree.
    let expected = match safetx_core::ConcurrencyMode::from_env() {
        safetx_core::ConcurrencyMode::Locking => AbortReason::LockConflict,
        safetx_core::ConcurrencyMode::Occ => AbortReason::ValidationConflict,
    };

    // Simulator: two contending transactions, deterministic interleave.
    let mut exp = sim(ProofScheme::Punctual, ConsistencyLevel::View);
    let cred = sim_credential(&mut exp);
    exp.submit(two_server_spec(1), vec![cred.clone()], Duration::ZERO);
    exp.submit(two_server_spec(2), vec![cred], Duration::from_micros(100));
    exp.run();
    let report = exp.report();
    assert_eq!(report.records.len(), 2);
    assert_eq!(report.commits(), 1);
    let sim_abort = report
        .records
        .iter()
        .find_map(|r| r.outcome.abort_reason())
        .expect("one abort");
    assert_eq!(sim_abort, expected);

    // Threaded: the interleaving is forced, not raced for. Server 1's host
    // is held, so the first transaction keeps its shared lock on item 0 of
    // server 0 while its next query waits on server 1; meanwhile a second
    // transaction adds to item 0 on server 0 alone. Locking refuses it the
    // exclusive lock. OCC runs it to its commit, and the first fails
    // validation at its vote once server 1 is let go.
    let cluster = Arc::new(threaded(ProofScheme::Punctual, ConsistencyLevel::View));
    let cred = threaded_credential(&cluster);
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let gated = Arc::clone(&cluster);
    let stall = std::thread::spawn(move || {
        gated.configure_server(ServerId::new(1), move |_core| {
            held_tx.send(()).expect("the test waits");
            let _ = gate_rx.recv();
        });
    });
    held_rx.recv().expect("server 1 is held");
    let first = {
        let (cluster, cred) = (Arc::clone(&cluster), cred.clone());
        std::thread::spawn(move || cluster.execute(&two_server_spec(1), &[cred]).outcome)
    };
    while cluster.configure_server(ServerId::new(0), |core| core.active_txns()) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let second = TransactionSpec::new(
        TxnId::new(2),
        UserId::new(1),
        vec![QuerySpec::new(
            ServerId::new(0),
            "write",
            "records",
            vec![Operation::Add(DataItemId::new(0), 1)],
        )],
    );
    let second = cluster.execute(&second, &[cred]).outcome;
    gate_tx.send(()).expect("server 1 is still held");
    stall.join().expect("stall helper");
    let outcomes = [first.join().expect("first executor"), second];
    assert_eq!(
        outcomes.iter().filter(|o| o.is_commit()).count(),
        1,
        "{outcomes:?}"
    );
    let reasons: Vec<_> = outcomes.iter().filter_map(|o| o.abort_reason()).collect();
    assert_eq!(reasons, vec![expected], "{outcomes:?}");
}

/// The one deliberate split, pinned: an unresponsive participant aborts as
/// `Timeout` under the simulator's idle watchdog but as
/// `ServerUnavailable` under the threaded driver's per-reply deadline.
#[test]
fn stall_reasons_stay_split_between_watchdog_and_deadline() {
    // Simulator: crash the first participant, watchdog armed.
    let mut exp = Experiment::new(ExperimentConfig {
        servers: SERVERS,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        commit_timeout: Some(Duration::from_millis(5)),
        ..Default::default()
    });
    exp.catalog().publish(base_policy());
    exp.install_everywhere(PolicyId::new(0), PolicyVersion::INITIAL);
    let cred = sim_credential(&mut exp);
    let victim = exp.book().server_node(ServerId::new(0));
    exp.world_mut().schedule_crash(Duration::ZERO, victim);
    exp.submit(two_server_spec(1), vec![cred], Duration::ZERO);
    exp.run();
    assert_eq!(
        exp.report().records[0].outcome.abort_reason(),
        Some(AbortReason::Timeout),
        "sim watchdog reason"
    );

    // Threaded: crash the first participant, reply deadline armed.
    let cluster = Cluster::new(ClusterConfig {
        servers: SERVERS,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        variant: CommitVariant::Standard,
        reply_timeout: Some(std::time::Duration::from_millis(25)),
        ..Default::default()
    });
    cluster.publish_policy(base_policy());
    let cred = threaded_credential(&cluster);
    cluster.set_fault_plan(FaultPlan {
        seed: 0,
        rules: Vec::new(),
        crashes: vec![CrashRule {
            server: ServerId::new(0),
            point: CrashPoint::BeforeReceive(MsgKind::ExecQuery),
        }],
    });
    let result = cluster.execute(&two_server_spec(1), &[cred]);
    assert_eq!(
        result.outcome.abort_reason(),
        Some(AbortReason::ServerUnavailable),
        "threaded deadline reason"
    );
    cluster.shutdown();
}
