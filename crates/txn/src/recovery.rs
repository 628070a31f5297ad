//! Crash recovery from write-ahead logs.
//!
//! "The resilience of 2PVC to system and communication failures can be
//! achieved in the same manner as 2PC by recording the progress of the
//! protocol in the logs of the TM and participant." Recovery scans a node's
//! [`Wal`](safetx_store::Wal) and rebuilds the protocol state:
//!
//! * a participant with a forced *prepared YES* record but no decision is
//!   **in doubt** and must inquire;
//! * a coordinator answers inquiries from its decision record, or — when no
//!   record exists — from the variant's presumption (PrA ⇒ abort,
//!   PrC ⇒ commit, basic 2PC ⇒ blocked):
//!   [`CoordinatorLog::answer`](crate::CoordinatorLog::answer).
//!
//! A coordinator that is gone for good is replaced by the termination
//! protocol (`safetx_core::terminate_leftover`): the same answer, with
//! basic 2PC's blocking case resolved to abort.

use crate::log::ParticipantRecord;
use crate::messages::{CommitVariant, Decision, Vote};
use crate::participant::{Participant, ParticipantState};
use safetx_types::TxnId;

/// Result of participant recovery.
#[derive(Debug, Clone)]
pub struct RecoveredParticipant {
    /// The rebuilt state machine.
    pub participant: Participant,
    /// True when the participant is in doubt and must send an inquiry to
    /// the coordinator.
    pub needs_inquiry: bool,
    /// A decision that can be applied immediately (either recorded before
    /// the crash, or presumed for an unprepared transaction).
    pub apply: Option<Decision>,
}

/// Rebuilds a participant for `txn` from its log records.
///
/// Rules, scanning the whole log for records of `txn`:
/// * decision record present → decided; re-apply it idempotently (the crash
///   may have interrupted application).
/// * prepared YES but no decision → in doubt: needs an inquiry.
/// * prepared NO but no decision → unilaterally aborted; apply abort.
/// * no records → the transaction never voted; it is safe to abort locally
///   (the coordinator cannot have committed without this vote).
pub fn recover_participant<'a, I>(
    txn: TxnId,
    variant: CommitVariant,
    records: I,
) -> RecoveredParticipant
where
    I: IntoIterator<Item = &'a ParticipantRecord>,
{
    let mut prepared_vote: Option<Vote> = None;
    let mut decision: Option<Decision> = None;
    for record in records {
        if record.txn() != txn {
            continue;
        }
        match record {
            ParticipantRecord::Prepared { vote, .. } => prepared_vote = Some(*vote),
            ParticipantRecord::Decision { decision: d, .. } => decision = Some(*d),
        }
    }
    match (prepared_vote, decision) {
        (_, Some(d)) => RecoveredParticipant {
            participant: Participant::with_state(txn, variant, ParticipantState::Decided(d)),
            needs_inquiry: false,
            apply: Some(d),
        },
        (Some(Vote::Yes), None) => RecoveredParticipant {
            participant: Participant::with_state(
                txn,
                variant,
                ParticipantState::Prepared(Vote::Yes),
            ),
            needs_inquiry: true,
            apply: None,
        },
        (Some(Vote::No), None) | (None, None) => RecoveredParticipant {
            participant: Participant::with_state(
                txn,
                variant,
                ParticipantState::Decided(Decision::Abort),
            ),
            needs_inquiry: false,
            apply: Some(Decision::Abort),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetx_types::{PolicyId, PolicyVersion};

    fn txn() -> TxnId {
        TxnId::new(3)
    }

    fn prepared(vote: Vote) -> ParticipantRecord {
        ParticipantRecord::Prepared {
            txn: txn(),
            vote,
            proofs_true: Some(true),
            policy_versions: vec![(PolicyId::new(0), PolicyVersion(1))],
        }
    }

    fn decided(decision: Decision) -> ParticipantRecord {
        ParticipantRecord::Decision {
            txn: txn(),
            decision,
        }
    }

    #[test]
    fn prepared_yes_without_decision_is_in_doubt() {
        let records = [prepared(Vote::Yes)];
        let r = recover_participant(txn(), CommitVariant::Standard, &records);
        assert!(r.needs_inquiry);
        assert_eq!(r.apply, None);
        assert_eq!(r.participant.state(), ParticipantState::Prepared(Vote::Yes));
    }

    #[test]
    fn recorded_decision_is_reapplied() {
        let records = [prepared(Vote::Yes), decided(Decision::Commit)];
        let r = recover_participant(txn(), CommitVariant::Standard, &records);
        assert!(!r.needs_inquiry);
        assert_eq!(r.apply, Some(Decision::Commit));
    }

    #[test]
    fn unprepared_or_no_voter_aborts_locally() {
        let r = recover_participant(txn(), CommitVariant::Standard, &[]);
        assert!(!r.needs_inquiry);
        assert_eq!(r.apply, Some(Decision::Abort));

        let records = [prepared(Vote::No)];
        let r = recover_participant(txn(), CommitVariant::Standard, &records);
        assert!(!r.needs_inquiry);
        assert_eq!(r.apply, Some(Decision::Abort));
    }

    #[test]
    fn records_of_other_transactions_are_ignored() {
        let other = ParticipantRecord::Decision {
            txn: TxnId::new(99),
            decision: Decision::Commit,
        };
        let records = [other, prepared(Vote::Yes)];
        let r = recover_participant(txn(), CommitVariant::Standard, &records);
        assert!(r.needs_inquiry);
    }
}
