//! Property tests for 2PC recovery: arbitrary log contents must recover to
//! consistent, safe protocol states under every commit variant.

use proptest::prelude::*;
use safetx_txn::{
    recover_participant, CommitVariant, CoordinatorLog, CoordinatorRecord, Decision, InquiryAnswer,
    ParticipantRecord, ParticipantState, Vote,
};
use safetx_types::{PolicyId, PolicyVersion, TxnId};

const VARIANTS: [CommitVariant; 3] = [
    CommitVariant::Standard,
    CommitVariant::PresumedAbort,
    CommitVariant::PresumedCommit,
];

fn variant() -> impl Strategy<Value = CommitVariant> {
    prop::sample::select(VARIANTS.to_vec())
}

fn participant_record() -> impl Strategy<Value = ParticipantRecord> {
    let txn = (0u64..3).prop_map(TxnId::new);
    prop_oneof![
        (txn.clone(), any::<bool>(), any::<bool>(), 1u64..4).prop_map(
            |(txn, yes, truth, version)| ParticipantRecord::Prepared {
                txn,
                vote: if yes { Vote::Yes } else { Vote::No },
                proofs_true: Some(truth),
                policy_versions: vec![(PolicyId::new(0), PolicyVersion(version))],
            }
        ),
        (txn, any::<bool>()).prop_map(|(txn, commit)| ParticipantRecord::Decision {
            txn,
            decision: if commit {
                Decision::Commit
            } else {
                Decision::Abort
            },
        }),
    ]
}

/// Four transactions' records, interleaved.
fn coordinator_record() -> impl Strategy<Value = CoordinatorRecord> {
    let txn = (0u64..4).prop_map(TxnId::new);
    prop_oneof![
        txn.clone().prop_map(|txn| CoordinatorRecord::Collecting {
            txn,
            participants: vec![]
        }),
        (txn.clone(), any::<bool>()).prop_map(|(txn, commit)| CoordinatorRecord::Decision {
            txn,
            decision: if commit {
                Decision::Commit
            } else {
                Decision::Abort
            },
        }),
        txn.prop_map(|txn| CoordinatorRecord::End { txn }),
    ]
}

/// One write to a coordinator log: a record, or a coordinator finishing.
#[derive(Debug, Clone)]
enum Step {
    Record(CoordinatorRecord),
    Finish(TxnId),
}

/// Records with finishes anywhere among them (a finish before a later
/// record of its id is a reused id), then a finish after the last record
/// of each transaction that draws one.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        coordinator_record().prop_map(Step::Record),
        (0u64..4).prop_map(|t| Step::Finish(TxnId::new(t))),
    ];
    (
        proptest::collection::vec(step, 0..16),
        proptest::collection::vec(any::<bool>(), 4),
    )
        .prop_map(|(mut steps, finish)| {
            let last = (0..4u64).filter(|&t| finish[t as usize]);
            steps.extend(last.map(|t| Step::Finish(TxnId::new(t))));
            steps
        })
}

fn is_end(record: &CoordinatorRecord) -> bool {
    matches!(record, CoordinatorRecord::End { .. })
}

/// The reference: every record of `txn` scanned in log order, the first
/// decision winning.
fn scan(txn: TxnId, variant: CommitVariant, records: &[CoordinatorRecord]) -> InquiryAnswer {
    let mut saw_collecting = false;
    let mut decision: Option<Decision> = None;
    for record in records.iter().filter(|r| r.txn() == txn) {
        match record {
            CoordinatorRecord::Collecting { .. } => saw_collecting = true,
            CoordinatorRecord::Decision { decision: d, .. } => decision = decision.or(Some(*d)),
            CoordinatorRecord::End { .. } => {}
        }
    }
    if let Some(d) = decision {
        return InquiryAnswer::Decided(d);
    }
    if saw_collecting {
        return InquiryAnswer::Decided(Decision::Abort);
    }
    match variant.presumption() {
        Some(d) => InquiryAnswer::Decided(d),
        None => InquiryAnswer::Unknown,
    }
}

proptest! {
    /// Participant recovery is deterministic, never leaves a participant
    /// both in-doubt and with a decision, and respects the log's facts:
    /// a logged decision always wins; a prepared-YES without a decision is
    /// in doubt; everything else aborts locally.
    #[test]
    fn participant_recovery_is_consistent(
        records in proptest::collection::vec(participant_record(), 0..12),
        v in variant(),
    ) {
        for txn_index in 0..3u64 {
            let txn = TxnId::new(txn_index);
            let recovered = recover_participant(txn, v, records.iter());
            // Never both in doubt and already decided.
            prop_assert!(!(recovered.needs_inquiry && recovered.apply.is_some()));
            let last_decision = records.iter().rev().find_map(|r| match r {
                ParticipantRecord::Decision { txn: t, decision } if *t == txn => Some(*decision),
                _ => None,
            });
            // The *last* prepared record reflects the final vote (re-votes
            // from 2PVC update rounds overwrite earlier ones).
            let prepared_yes = records.iter().rev().find_map(|r| match r {
                ParticipantRecord::Prepared { txn: t, vote, .. } if *t == txn => Some(*vote),
                _ => None,
            }) == Some(Vote::Yes);
            match last_decision {
                Some(d) => {
                    prop_assert_eq!(recovered.apply, Some(d), "logged decision wins");
                    prop_assert!(!recovered.needs_inquiry);
                }
                None if prepared_yes => {
                    prop_assert!(recovered.needs_inquiry, "prepared YES is in doubt");
                    prop_assert_eq!(
                        recovered.participant.state(),
                        ParticipantState::Prepared(Vote::Yes)
                    );
                }
                None => {
                    prop_assert_eq!(recovered.apply, Some(Decision::Abort));
                }
            }
        }
    }

    /// The log answers every inquiry exactly as a scan of every record
    /// would, under every variant, before and after each finish; what is
    /// live is what has a record since its coordinator last finished.
    #[test]
    fn the_log_answers_like_a_scan_of_every_record(steps in steps()) {
        let mut log = CoordinatorLog::default();
        let mut records = Vec::new();
        let mut live = [false; 4];
        for step in steps {
            match step {
                Step::Record(record) => {
                    // An End is appended and carries no fact; the rest
                    // are forced.
                    if is_end(&record) {
                        log.append(&record);
                    } else {
                        log.force(&record);
                        live[record.txn().index() as usize] = true;
                    }
                    records.push(record);
                }
                Step::Finish(txn) => {
                    log.finish(txn);
                    live[txn.index() as usize] = false;
                }
            }
            for txn in (0..4).map(TxnId::new) {
                for v in VARIANTS {
                    prop_assert_eq!(log.answer(txn, v), scan(txn, v, &records), "{} {:?}", txn, v);
                }
                let first = records.iter().find_map(|r| match r {
                    CoordinatorRecord::Decision { txn: t, decision } if *t == txn => Some(*decision),
                    _ => None,
                });
                prop_assert_eq!(log.decision(txn), first);
            }
            prop_assert_eq!(log.live_len(), live.iter().filter(|&&l| l).count());
        }
    }

    /// Cross-check: a participant in doubt after recovery always receives a
    /// *decided* answer when the coordinator logged anything, or the
    /// variant presumes — basic 2PC's Unknown is the only blocking case.
    #[test]
    fn in_doubt_participants_unblock_except_basic_2pc_no_record(
        steps in steps(),
        v in variant(),
    ) {
        let txn = TxnId::new(0);
        let participant_log = [ParticipantRecord::Prepared {
            txn,
            vote: Vote::Yes,
            proofs_true: Some(true),
            policy_versions: vec![],
        }];
        let recovered = recover_participant(txn, v, participant_log.iter());
        prop_assert!(recovered.needs_inquiry);
        let mut log = CoordinatorLog::default();
        let mut has_informative_record = false;
        for step in &steps {
            match step {
                Step::Record(record) => {
                    log.append(record);
                    // An orphan End record carries no information.
                    has_informative_record |= record.txn() == txn && !is_end(record);
                }
                Step::Finish(t) => log.finish(*t),
            }
        }
        // An Unknown answer (the blocking case) is possible only for basic
        // 2PC with neither a decision nor a collecting record.
        if log.answer(txn, v) == InquiryAnswer::Unknown {
            prop_assert_eq!(v, CommitVariant::Standard);
            prop_assert!(!has_informative_record);
        }
    }
}
