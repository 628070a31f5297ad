//! Recovery from the checkpoint and the WAL's live tail equals a model
//! computed from the schedule alone.
//!
//! One participant (`ServerCore`) receives a random interleaving of up to
//! six transactions' queries, YES/NO votes and decisions, with one crash
//! (`crash` + `recover_from_wal`) somewhere in it, under Standard 2PC,
//! presumed abort and presumed commit. Transaction *i* increments item *i*
//! and nothing else, so the model needs no lock table of its own: a
//! transaction is fresh, working (item locked), prepared YES (item locked,
//! in doubt across a crash) or decided. Right after recovery and at the
//! end, the core must agree with the model on the in-doubt set, the live
//! transactions, the locks held (probed by a reader), the store, and the
//! refusal of every decided transaction — and hold no WAL record once
//! nothing is live.

use proptest::prelude::*;
use safetx::core::{Msg, ResourcePolicyMap, ServerCore, SharedCas, SharedCatalog, VersionMap};
use safetx::policy::{Atom, CaRegistry, CertificateAuthority, Constant, Credential, PolicyBuilder};
use safetx::store::Value;
use safetx::txn::{CommitVariant, Decision, Operation, QuerySpec};
use safetx::types::{
    AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId, UserId,
};
use std::sync::Arc;

type Core = ServerCore<u8>;
const TM: u8 = 7;
const TXNS: usize = 6;
/// Lock probes run under ids no schedule uses.
const PROBE_BASE: u64 = 1_000;

#[derive(Debug, Clone, Copy)]
enum Event {
    Query(usize),
    Vote(usize, bool),
    Decide(usize, bool),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Fresh,
    Working,
    Prepared,
    Decided(Decision),
}

impl State {
    fn live(self) -> bool {
        matches!(self, State::Working | State::Prepared)
    }
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0..TXNS).prop_map(Event::Query),
        (0..TXNS, any::<bool>()).prop_map(|(i, yes)| Event::Vote(i, yes)),
        (0..TXNS, any::<bool>()).prop_map(|(i, commit)| Event::Decide(i, commit)),
    ]
}

fn txn(i: usize) -> TxnId {
    TxnId::new(i as u64 + 1)
}

fn item(i: usize) -> DataItemId {
    DataItemId::new(i as u64)
}

struct Participant {
    core: Core,
    credential: Credential,
    probes: u64,
}

fn participant(variant: CommitVariant) -> Participant {
    let catalog = SharedCatalog::new();
    catalog.publish(
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text("grant(write, records) :- role(U, member).")
            .expect("rules parse")
            .build(),
    );
    let mut registry = CaRegistry::new();
    let mut ca = CertificateAuthority::new(CaId::new(0), 3);
    let credential = ca.issue(
        UserId::new(1),
        Atom::fact(
            "role",
            vec![Constant::symbol("u1"), Constant::symbol("member")],
        ),
        Timestamp::ZERO,
        Timestamp::MAX,
    );
    registry.register(ca);
    let mut core = Core::new(
        ServerId::new(0),
        catalog,
        ResourcePolicyMap::single(PolicyId::new(0)),
        SharedCas::new(registry),
        variant,
    );
    core.install_policy(PolicyId::new(0), PolicyVersion::INITIAL);
    for i in 0..TXNS {
        core.store_mut()
            .write(item(i), Value::Int(0), Timestamp::ZERO);
    }
    Participant {
        core,
        credential,
        probes: PROBE_BASE,
    }
}

impl Participant {
    fn send(&mut self, msg: Msg) -> Vec<(u8, Msg)> {
        self.core.handle(Timestamp::from_millis(1), TM, msg)
    }

    fn query(&mut self, txn: TxnId, op: Operation) -> Vec<(u8, Msg)> {
        let query = QuerySpec::new(ServerId::new(0), "write", "records", vec![op]);
        self.send(Msg::ExecQuery {
            txn,
            query_index: 0,
            query: Arc::new(query),
            user: UserId::new(1),
            credentials: Arc::from([self.credential.clone()]),
            evaluate_proof: false,
            pin_versions: VersionMap::new(),
            capabilities: vec![],
        })
    }

    /// Whether a reader of `item` is turned away (someone holds it X),
    /// leaving nothing behind but the reader's own abort.
    fn locked(&mut self, item: DataItemId) -> bool {
        self.probes += 1;
        let probe = TxnId::new(self.probes);
        let reply = self.query(probe, Operation::Read(item));
        let granted = matches!(&reply[..], [(_, Msg::QueryDone { ok: true, .. })]);
        self.send(Msg::Decision {
            txn: probe,
            decision: Decision::Abort,
        });
        !granted
    }
}

/// Applies one event to the core and to the model.
fn step(p: &mut Participant, model: &mut [State; TXNS], event: Event) {
    match event {
        Event::Query(i) => {
            p.query(txn(i), Operation::Add(item(i), 1));
            if model[i] == State::Fresh {
                model[i] = State::Working;
            }
        }
        Event::Vote(i, yes) => {
            // A NO vote: the manifest names a query this server never ran.
            let expected_queries = if yes { vec![0] } else { vec![0, 1] };
            p.send(Msg::PrepareToCommit {
                txn: txn(i),
                validate: false,
                expected_queries,
            });
            model[i] = match model[i] {
                State::Working if yes => State::Prepared,
                State::Fresh | State::Working => State::Decided(Decision::Abort),
                kept => kept,
            };
        }
        Event::Decide(i, commit) => {
            // What a coordinator may decide: commit only on a YES vote, and
            // a resend repeats the decision.
            let decision = match model[i] {
                State::Prepared if commit => Decision::Commit,
                State::Decided(d) => d,
                _ => Decision::Abort,
            };
            p.send(Msg::Decision {
                txn: txn(i),
                decision,
            });
            model[i] = State::Decided(decision);
        }
    }
}

/// The core agrees with the model.
fn check(p: &mut Participant, model: &[State; TXNS], when: &str) -> Result<(), TestCaseError> {
    let ids = |keep: fn(State) -> bool| -> Vec<TxnId> {
        (0..TXNS).filter(|&i| keep(model[i])).map(txn).collect()
    };
    let prepared = ids(|s| s == State::Prepared);
    prop_assert_eq!(p.core.in_doubt_txns(), prepared, "{}: in doubt", when);
    prop_assert_eq!(p.core.active_txn_ids(), ids(State::live), "{}: live", when);
    for (i, state) in model.iter().enumerate() {
        let committed = *state == State::Decided(Decision::Commit);
        let value = p.core.store().read_int(item(i));
        prop_assert_eq!(value, Some(i64::from(committed)), "{}: item {}", when, i);
        prop_assert_eq!(p.locked(item(i)), state.live(), "{}: lock on {}", when, i);
        if let State::Decided(d) = *state {
            prop_assert_eq!(p.core.decided_decision(txn(i)), Some(d), "{}", when);
            let reply = p.query(txn(i), Operation::Add(item(i), 1));
            prop_assert!(reply.is_empty(), "{}: decided txn {} answered", when, i);
            prop_assert!(
                !p.core.active_txn_ids().contains(&txn(i)),
                "{}: ghost",
                when
            );
        }
    }
    if !model.iter().any(|s| s.live()) {
        prop_assert!(
            p.core.wal().is_empty(),
            "{}: nothing live, WAL holds records",
            when
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recovery_from_checkpoint_and_tail_matches_the_model(
        events in prop::collection::vec(event(), 0..40),
        crash_at in 0usize..40,
        variant in prop::sample::select(vec![
            CommitVariant::Standard,
            CommitVariant::PresumedAbort,
            CommitVariant::PresumedCommit,
        ]),
    ) {
        let mut p = participant(variant);
        let mut model = [State::Fresh; TXNS];
        let crash_at = crash_at.min(events.len());
        for at in 0..=events.len() {
            if at == crash_at {
                p.core.crash();
                let in_doubt = p.core.recover_from_wal();
                for state in &mut model {
                    if *state == State::Working {
                        *state = State::Fresh;
                    }
                }
                let prepared: Vec<TxnId> =
                    (0..TXNS).filter(|&i| model[i] == State::Prepared).map(txn).collect();
                prop_assert_eq!(in_doubt, prepared, "{:?}: recovered in doubt", variant);
                check(&mut p, &model, "after recovery")?;
            }
            if let Some(&event) = events.get(at) {
                step(&mut p, &mut model, event);
            }
        }
        check(&mut p, &model, "at the end")?;
    }
}
