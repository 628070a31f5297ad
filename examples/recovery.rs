//! Crash a participant between its YES vote and the decision, restart it,
//! and watch recovery resolve the in-doubt transaction from the logs.
//!
//! A participant that force-logged `prepared YES` (with its `(vi, pi)`
//! policy-version tuples, as 2PVC requires) is *in doubt* after a crash: it
//! must ask the coordinator. The TM answers from its own forced decision
//! record and the participant applies the commit it had never heard.
//!
//! A participant's durable state is a checkpoint (its store and decided
//! memo) plus the live tail of its log: once the decision is applied the
//! transaction's records leave the log, so the example prints the tail
//! (empty by then), the forces the log counted, and the checkpoint.
//!
//! ```bash
//! cargo run --example recovery
//! ```

use safetx::core::{CloudServerActor, ConsistencyLevel, Experiment, ExperimentConfig, ProofScheme};
use safetx::policy::{Atom, Constant, PolicyBuilder};
use safetx::store::Value;
use safetx::txn::{Operation, QuerySpec, TransactionSpec};
use safetx::types::{
    AdminDomain, DataItemId, Duration, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId, UserId,
};

fn main() {
    let mut exp = Experiment::new(ExperimentConfig {
        servers: 2,
        scheme: ProofScheme::Deferred,
        consistency: ConsistencyLevel::View,
        ..Default::default()
    });
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text("grant(write, records) :- role(U, member).")
        .expect("rules parse")
        .build();
    exp.catalog().publish(policy);
    exp.install_everywhere(PolicyId::new(0), PolicyVersion::INITIAL);
    exp.seed_item(ServerId::new(1), DataItemId::new(10), Value::Int(5));

    let credential = exp.issue_credential(
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
                vec![Operation::Write(DataItemId::new(0), Value::Int(1))],
            ),
            QuerySpec::new(
                ServerId::new(1),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(10), 1)],
            ),
        ],
    );
    exp.submit(spec, vec![credential], Duration::ZERO);

    // Timeline with 1 ms links: queries done by ~4 ms; Prepare-to-Commit at
    // ~4 ms reaches the servers at ~5 ms, votes return at ~6 ms; decisions
    // go out at ~6 ms. Crash server 1 at 5.5 ms: it has force-logged
    // `prepared YES` and voted, but the COMMIT decision will find it down.
    let s1 = exp.book().server_node(ServerId::new(1));
    exp.world_mut()
        .schedule_crash(Duration::from_micros(5_500), s1);
    exp.world_mut()
        .schedule_restart(Duration::from_millis(20), s1);

    exp.run();

    let record = &exp.report().records[0];
    println!("transaction outcome at the TM: {}\n", record.outcome);
    assert!(record.outcome.is_commit(), "all YES votes were in");

    let server = exp
        .world()
        .actor::<CloudServerActor>(s1)
        .expect("server exists");
    println!("participant s1's write-ahead log tail after recovery (empty: nothing live):");
    print!("{}", server.wal());
    println!(
        "forced records s1 logged: {} (prepared YES, then the decision)",
        server.wal().forced_count()
    );
    println!(
        "s1's decided memo: {:?}",
        server.core().decided_decision(TxnId::new(1))
    );
    println!();
    println!(
        "s1's store after recovery: x10 = {:?} (committed write applied)",
        server.store().read_int(DataItemId::new(10))
    );
    assert_eq!(
        server.store().read_int(DataItemId::new(10)),
        Some(6),
        "the in-doubt write must be applied after the inquiry"
    );
    println!();
    println!("sequence: prepared-YES force-logged -> crash -> restart -> inquiry to");
    println!("the TM -> TM answers COMMIT from its forced decision record -> s1");
    println!("force-logs the decision and applies the write set.");
}
