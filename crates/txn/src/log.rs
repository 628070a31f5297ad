//! Protocol log records, and the coordinator's decision log built from them.

use crate::messages::{CommitVariant, Decision, InquiryAnswer, Vote};
use safetx_types::{PolicyId, PolicyVersion, ServerId, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Records written by the coordinator's log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordinatorRecord {
    /// Presumed-Commit only: voting is starting for these participants.
    Collecting {
        /// The transaction.
        txn: TxnId,
        /// Participants polled.
        participants: Vec<ServerId>,
    },
    /// The global decision (forced per variant rules).
    Decision {
        /// The transaction.
        txn: TxnId,
        /// The decision.
        decision: Decision,
    },
    /// All required acknowledgments received (never forced).
    End {
        /// The transaction.
        txn: TxnId,
    },
}

impl CoordinatorRecord {
    /// The transaction this record belongs to.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        match self {
            CoordinatorRecord::Collecting { txn, .. }
            | CoordinatorRecord::Decision { txn, .. }
            | CoordinatorRecord::End { txn } => *txn,
        }
    }
}

/// Ids per page of a [`CoordinatorLog`]'s finished part.
const PAGE: u64 = 4096;
/// What a transaction's coordinator records say, in one byte; 0 is nothing.
const COLLECTING: u8 = 1;
const COMMIT: u8 = 2;
const ABORT: u8 = 3;

/// `first`, then `later`: a decision in `first` stands, else the larger byte.
fn then(first: u8, later: u8) -> u8 {
    first.max(if first < COMMIT { later } else { 0 })
}

/// The coordinator's decision log, kept as what recovery can ask of it:
/// "what was decided for T" (paper §V-B, Fig. 7).
///
/// An unfinished coordinator's facts (saw `Collecting`, its `Decision`)
/// are *live*, in a map; once it finishes they fold into one byte in a
/// page of 4096 ids, answering as before. A crashed coordinator never
/// finishes: its facts stay live. Of repeated decisions the first wins.
#[derive(Debug, Default)]
pub struct CoordinatorLog {
    live: HashMap<TxnId, u8>,
    finished: BTreeMap<u64, Box<[u8; PAGE as usize]>>,
}

impl CoordinatorLog {
    /// Writes a forced record. As in [`safetx_store::Wal`], everything
    /// written survives a crash: this is [`CoordinatorLog::append`].
    pub fn force(&mut self, record: &CoordinatorRecord) {
        self.append(record);
    }

    /// Writes a non-forced record. An `End` carries no fact.
    pub fn append(&mut self, record: &CoordinatorRecord) {
        let facts = match record {
            CoordinatorRecord::Collecting { .. } => COLLECTING,
            CoordinatorRecord::Decision { decision, .. } if decision.is_commit() => COMMIT,
            CoordinatorRecord::Decision { .. } => ABORT,
            CoordinatorRecord::End { .. } => return,
        };
        let live = self.live.entry(record.txn()).or_default();
        *live = then(*live, facts);
    }

    /// `txn`'s coordinator has finished: fold its live facts into its byte.
    pub fn finish(&mut self, txn: TxnId) {
        if let Some(facts) = self.live.remove(&txn) {
            let page = self.finished.entry(txn.index() / PAGE);
            let page = page.or_insert_with(|| Box::new([0; PAGE as usize]));
            let byte = &mut page[(txn.index() % PAGE) as usize];
            *byte = then(*byte, facts);
        }
    }

    fn facts(&self, txn: TxnId) -> u8 {
        let page = self.finished.get(&(txn.index() / PAGE));
        let finished = page.map_or(0, |page| page[(txn.index() % PAGE) as usize]);
        then(finished, self.live.get(&txn).copied().unwrap_or(0))
    }

    /// Answers a recovering participant's inquiry about `txn`: its logged
    /// decision; ABORT after a PrC `Collecting` with none (a commit is
    /// forced before anyone learns it); else the variant's presumption, or
    /// [`InquiryAnswer::Unknown`] for basic 2PC (the blocking case).
    #[must_use]
    pub fn answer(&self, txn: TxnId, variant: CommitVariant) -> InquiryAnswer {
        let collecting = (self.facts(txn) == COLLECTING).then_some(Decision::Abort);
        let decision = self.decision(txn).or(collecting).or(variant.presumption());
        decision.map_or(InquiryAnswer::Unknown, InquiryAnswer::Decided)
    }

    /// The decision logged for `txn`, if any.
    #[must_use]
    pub fn decision(&self, txn: TxnId) -> Option<Decision> {
        match self.facts(txn) {
            COMMIT => Some(Decision::Commit),
            ABORT => Some(Decision::Abort),
            _ => None,
        }
    }

    /// Transactions whose coordinator has not finished.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.live.len()
    }
}

/// Records written by a participant's log.
///
/// For 2PVC the prepared record must also carry the `(vi, pi)` policy
/// version tuples and the proof truth value: "a participant must forcibly
/// log the set of (vi, pi) tuples along with its vote and truth value"
/// (Section V-C, Recovery).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParticipantRecord {
    /// Forced before voting YES.
    Prepared {
        /// The transaction.
        txn: TxnId,
        /// The integrity vote recorded with the prepare.
        vote: Vote,
        /// Truth value of the proofs of authorization (2PVC; `None` for
        /// plain 2PC).
        proofs_true: Option<bool>,
        /// The `(vi, pi)` tuples used in the proofs (2PVC; empty for 2PC).
        policy_versions: Vec<(PolicyId, PolicyVersion)>,
    },
    /// The decision as learned from the coordinator (forced per variant).
    Decision {
        /// The transaction.
        txn: TxnId,
        /// The decision.
        decision: Decision,
    },
}

impl ParticipantRecord {
    /// The transaction this record belongs to.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        match self {
            ParticipantRecord::Prepared { txn, .. } | ParticipantRecord::Decision { txn, .. } => {
                *txn
            }
        }
    }
}

impl fmt::Display for ParticipantRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParticipantRecord::Prepared {
                txn,
                vote,
                proofs_true,
                policy_versions,
            } => {
                write!(f, "{txn} prepared {vote}")?;
                if let Some(t) = proofs_true {
                    write!(f, " proofs={}", if *t { "TRUE" } else { "FALSE" })?;
                }
                if !policy_versions.is_empty() {
                    write!(f, " versions=[")?;
                    for (i, (p, v)) in policy_versions.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}:{v}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            ParticipantRecord::Decision { txn, decision } => write!(f, "{txn} {decision}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VARIANTS: [CommitVariant; 3] = [
        CommitVariant::Standard,
        CommitVariant::PresumedAbort,
        CommitVariant::PresumedCommit,
    ];

    fn decision(txn: u64, decision: Decision) -> CoordinatorRecord {
        CoordinatorRecord::Decision {
            txn: TxnId::new(txn),
            decision,
        }
    }

    fn collecting(txn: u64) -> CoordinatorRecord {
        CoordinatorRecord::Collecting {
            txn: TxnId::new(txn),
            participants: vec![ServerId::new(0)],
        }
    }

    fn answers(log: &CoordinatorLog, txn: u64) -> Vec<InquiryAnswer> {
        VARIANTS
            .iter()
            .map(|&v| log.answer(TxnId::new(txn), v))
            .collect()
    }

    #[test]
    fn inquiry_answered_from_decision_record() {
        let mut log = CoordinatorLog::default();
        log.force(&decision(3, Decision::Commit));
        let commit = InquiryAnswer::Decided(Decision::Commit);
        assert_eq!(answers(&log, 3), vec![commit; 3]);
        assert_eq!(log.decision(TxnId::new(3)), Some(Decision::Commit));
    }

    #[test]
    fn inquiry_with_no_record_follows_presumption() {
        let log = CoordinatorLog::default();
        let want = [
            InquiryAnswer::Unknown, // basic 2PC blocks
            InquiryAnswer::Decided(Decision::Abort),
            InquiryAnswer::Decided(Decision::Commit),
        ];
        assert_eq!(answers(&log, 3), want);
        assert_eq!(log.decision(TxnId::new(3)), None);
    }

    #[test]
    fn collecting_without_decision_proves_abort_under_prc() {
        let mut log = CoordinatorLog::default();
        log.force(&collecting(3));
        assert_eq!(
            log.answer(TxnId::new(3), CommitVariant::PresumedCommit),
            InquiryAnswer::Decided(Decision::Abort)
        );
        assert_eq!(log.decision(TxnId::new(3)), None);
    }

    #[test]
    fn finishing_folds_an_entry_without_changing_its_answer() {
        let mut log = CoordinatorLog::default();
        log.force(&collecting(1));
        log.force(&decision(1, Decision::Commit));
        log.append(&CoordinatorRecord::End { txn: TxnId::new(1) });
        log.force(&collecting(2));
        // An End alone carries no fact and leaves nothing live.
        log.append(&CoordinatorRecord::End { txn: TxnId::new(3) });
        assert_eq!(log.live_len(), 2);
        let before: Vec<_> = (0..4).map(|t| answers(&log, t)).collect();
        for txn in 0..4 {
            log.finish(TxnId::new(txn));
        }
        assert_eq!(log.live_len(), 0);
        assert_eq!((0..4).map(|t| answers(&log, t)).collect::<Vec<_>>(), before);
    }

    #[test]
    fn the_first_decision_of_a_reused_id_wins() {
        let mut log = CoordinatorLog::default();
        log.force(&decision(7, Decision::Abort));
        log.force(&decision(7, Decision::Commit));
        assert_eq!(log.decision(TxnId::new(7)), Some(Decision::Abort));
        log.finish(TxnId::new(7));
        // The id is reused after its coordinator finished.
        log.force(&decision(7, Decision::Commit));
        assert_eq!(log.decision(TxnId::new(7)), Some(Decision::Abort));
        log.finish(TxnId::new(7));
        assert_eq!(log.decision(TxnId::new(7)), Some(Decision::Abort));
    }

    #[test]
    fn a_huge_id_costs_one_page() {
        let mut log = CoordinatorLog::default();
        for txn in [u64::MAX, 5, 4095] {
            log.force(&decision(txn, Decision::Commit));
            log.finish(TxnId::new(txn));
            assert_eq!(log.decision(TxnId::new(txn)), Some(Decision::Commit));
        }
        assert_eq!(log.finished.len(), 2);
        assert_eq!(log.decision(TxnId::new(4096)), None);
    }

    #[test]
    fn records_know_their_transaction() {
        let txn = TxnId::new(5);
        assert_eq!(CoordinatorRecord::End { txn }.txn(), txn);
        assert_eq!(
            ParticipantRecord::Decision {
                txn,
                decision: Decision::Abort
            }
            .txn(),
            txn
        );
    }

    #[test]
    fn prepared_record_displays_policy_tuples() {
        let rec = ParticipantRecord::Prepared {
            txn: TxnId::new(1),
            vote: Vote::Yes,
            proofs_true: Some(true),
            policy_versions: vec![(PolicyId::new(0), PolicyVersion(3))],
        };
        let text = rec.to_string();
        assert!(text.contains("prepared YES"));
        assert!(text.contains("proofs=TRUE"));
        assert!(text.contains("P0:v3"));
    }

    #[test]
    fn plain_2pc_prepared_record_omits_policy_fields() {
        let rec = ParticipantRecord::Prepared {
            txn: TxnId::new(1),
            vote: Vote::No,
            proofs_true: None,
            policy_versions: vec![],
        };
        let text = rec.to_string();
        assert!(!text.contains("proofs"));
        assert!(!text.contains("versions"));
    }
}
