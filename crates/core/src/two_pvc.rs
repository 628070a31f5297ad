//! Two-Phase Validation Commit (Algorithm 2).
//!
//! 2PVC is 2PC with the voting phase replaced by a [`ValidationRound`]: each
//! Prepare-to-Commit reply carries the integrity vote (YES/NO), the proof
//! truth value (TRUE/FALSE) **and** the `(vi, pi)` policy versions, so a YES
//! cannot hide a stale-policy authorization. Update rounds drive stale
//! participants to the target versions before the decision; the decision
//! phase and its forced-log protocol are exactly 2PC's (including the
//! Presumed-Abort / Presumed-Commit optimizations).

use crate::consistency::ConsistencyLevel;
use crate::outcome::AbortReason;
use crate::validation::{
    ValidationAction, ValidationConfig, ValidationOutcome, ValidationReply, ValidationRound,
    VersionMap,
};
use safetx_txn::{CommitVariant, CoordinatorRecord, Decision, Vote};
use safetx_types::{ServerId, TxnId};
use std::collections::BTreeSet;

/// 2PVC lifecycle at the TM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPvcState {
    /// Created; voting not yet started.
    Idle,
    /// Collection/validation rounds in progress.
    Voting,
    /// Decision distributed; awaiting acknowledgments.
    Deciding(Decision),
    /// Complete.
    Ended(Decision),
}

/// Actions the driver maps onto messages and the TM's write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum TwoPvcAction {
    /// Send Prepare-to-Commit (round 1).
    SendPrepareToCommit(ServerId),
    /// Send an Update with target versions to a stale participant.
    SendUpdate(ServerId, VersionMap),
    /// Ask the master for latest versions (global consistency).
    QueryMaster,
    /// Force a coordinator log record.
    ForceLog(CoordinatorRecord),
    /// Lazily write a coordinator log record.
    Log(CoordinatorRecord),
    /// Send the decision to a participant.
    SendDecision(ServerId, Decision),
    /// The decision is fixed.
    Decided(Decision),
    /// Protocol complete.
    Completed,
}

/// The TM-side 2PVC state machine for one transaction.
///
/// # Examples
///
/// A clean single-participant commit: prepare, unanimous reply, decision,
/// acknowledgment.
///
/// ```
/// use safetx_core::{ConsistencyLevel, TwoPvc, TwoPvcAction, TwoPvcState, ValidationReply};
/// use safetx_txn::{CommitVariant, Decision};
/// use safetx_types::{ServerId, TxnId};
///
/// let mut pvc = TwoPvc::new(
///     TxnId::new(1),
///     [ServerId::new(0)].into(),
///     ConsistencyLevel::View,
///     CommitVariant::Standard,
///     true,
/// );
/// pvc.start();
/// let actions = pvc.on_reply(ServerId::new(0), ValidationReply::empty_true());
/// assert!(actions.contains(&TwoPvcAction::Decided(Decision::Commit)));
/// let actions = pvc.on_ack(ServerId::new(0));
/// assert!(actions.contains(&TwoPvcAction::Completed));
/// assert_eq!(pvc.state(), TwoPvcState::Ended(Decision::Commit));
/// ```
#[derive(Debug, Clone)]
pub struct TwoPvc {
    txn: TxnId,
    variant: CommitVariant,
    validation: ValidationRound,
    state: TwoPvcState,
    acks_expected: BTreeSet<ServerId>,
    acks: BTreeSet<ServerId>,
    abort_reason: Option<AbortReason>,
}

impl TwoPvc {
    /// Creates a 2PVC execution.
    ///
    /// `validate = false` yields "2PVC without validations" — plain 2PC
    /// with the same wire format, and the repository's only 2PC
    /// coordinator — used by Incremental Punctual and by Continuous under
    /// view consistency; in that mode no master query is issued and
    /// replies carry no versions.
    ///
    /// # Panics
    ///
    /// Panics on an empty participant set.
    #[must_use]
    pub fn new(
        txn: TxnId,
        participants: BTreeSet<ServerId>,
        consistency: ConsistencyLevel,
        variant: CommitVariant,
        validate: bool,
    ) -> Self {
        let config = if validate {
            ValidationConfig::new(consistency)
        } else {
            // Versionless replies can never trigger updates or master
            // queries; view level avoids the master round-trip entirely.
            ValidationConfig::new(ConsistencyLevel::View)
        };
        TwoPvc {
            txn,
            variant,
            validation: ValidationRound::new(participants, config),
            state: TwoPvcState::Idle,
            acks_expected: BTreeSet::new(),
            acks: BTreeSet::new(),
            abort_reason: None,
        }
    }

    /// The transaction.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> TwoPvcState {
        self.state
    }

    /// Collection rounds executed (`r`).
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.validation.rounds()
    }

    /// Why the transaction aborted, when it did.
    #[must_use]
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.abort_reason
    }

    /// The decision, once fixed.
    #[must_use]
    pub fn decision(&self) -> Option<Decision> {
        match self.state {
            TwoPvcState::Deciding(d) | TwoPvcState::Ended(d) => Some(d),
            _ => None,
        }
    }

    /// Starts the voting phase.
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn start(&mut self) -> Vec<TwoPvcAction> {
        assert_eq!(self.state, TwoPvcState::Idle, "start called twice");
        self.state = TwoPvcState::Voting;
        let mut out = Vec::new();
        if self.variant.forces_collecting() {
            out.push(TwoPvcAction::ForceLog(CoordinatorRecord::Collecting {
                txn: self.txn,
                participants: self.validation.participants().iter().copied().collect(),
            }));
        }
        let actions = self.validation.start();
        self.map_validation_actions(actions, &mut out);
        out
    }

    /// Handles a Prepare-to-Commit (or post-Update) reply.
    pub fn on_reply(&mut self, from: ServerId, reply: ValidationReply) -> Vec<TwoPvcAction> {
        if self.state != TwoPvcState::Voting {
            // Straggler: re-send the decision so the participant converges.
            if let Some(d) = self.decision() {
                return vec![TwoPvcAction::SendDecision(from, d)];
            }
            return Vec::new();
        }
        let actions = self.validation.on_reply(from, reply);
        let mut out = Vec::new();
        self.map_validation_actions(actions, &mut out);
        out
    }

    /// Handles the master's version answer (global consistency).
    ///
    /// Like [`ValidationRound::on_master_versions`], accepts an owned map or
    /// a shared `Arc<VersionMap>` snapshot.
    pub fn on_master_versions(
        &mut self,
        versions: impl Into<std::sync::Arc<VersionMap>>,
    ) -> Vec<TwoPvcAction> {
        if self.state != TwoPvcState::Voting {
            return Vec::new();
        }
        let actions = self.validation.on_master_versions(versions);
        let mut out = Vec::new();
        self.map_validation_actions(actions, &mut out);
        out
    }

    /// Voting-phase timeout.
    pub fn on_timeout(&mut self) -> Vec<TwoPvcAction> {
        if self.state != TwoPvcState::Voting {
            return Vec::new();
        }
        let actions = self.validation.on_timeout();
        let mut out = Vec::new();
        self.map_validation_actions(actions, &mut out);
        out
    }

    /// Re-sends the decision to participants that have not acknowledged
    /// (retransmission after suspected message loss or a crashed receiver).
    pub fn resend_decisions(&self) -> Vec<TwoPvcAction> {
        let TwoPvcState::Deciding(decision) = self.state else {
            return Vec::new();
        };
        self.acks_expected
            .difference(&self.acks)
            .map(|&server| TwoPvcAction::SendDecision(server, decision))
            .collect()
    }

    /// Handles a decision acknowledgment.
    pub fn on_ack(&mut self, from: ServerId) -> Vec<TwoPvcAction> {
        let TwoPvcState::Deciding(decision) = self.state else {
            return Vec::new();
        };
        if !self.acks_expected.contains(&from) {
            return Vec::new();
        }
        self.acks.insert(from);
        if self.acks == self.acks_expected {
            self.state = TwoPvcState::Ended(decision);
            return vec![
                TwoPvcAction::Log(CoordinatorRecord::End { txn: self.txn }),
                TwoPvcAction::Completed,
            ];
        }
        Vec::new()
    }

    fn map_validation_actions(
        &mut self,
        actions: Vec<ValidationAction>,
        out: &mut Vec<TwoPvcAction>,
    ) {
        for action in actions {
            match action {
                ValidationAction::SendRequest(s) => {
                    out.push(TwoPvcAction::SendPrepareToCommit(s));
                }
                ValidationAction::SendUpdate(s, versions) => {
                    out.push(TwoPvcAction::SendUpdate(s, versions));
                }
                ValidationAction::QueryMaster => out.push(TwoPvcAction::QueryMaster),
                ValidationAction::Resolved(outcome) => {
                    let decision = match outcome {
                        ValidationOutcome::Continue => Decision::Commit,
                        ValidationOutcome::Abort(reason) => {
                            self.abort_reason = Some(reason);
                            Decision::Abort
                        }
                    };
                    self.emit_decision(decision, out);
                }
            }
        }
    }

    fn emit_decision(&mut self, decision: Decision, out: &mut Vec<TwoPvcAction>) {
        let record = CoordinatorRecord::Decision {
            txn: self.txn,
            decision,
        };
        if self.variant.coordinator_forces(decision) {
            out.push(TwoPvcAction::ForceLog(record));
        } else {
            out.push(TwoPvcAction::Log(record));
        }
        out.push(TwoPvcAction::Decided(decision));

        // Commit: everyone. Abort: everyone except unilateral no-voters.
        let recipients: Vec<ServerId> = self
            .validation
            .participants()
            .iter()
            .copied()
            .filter(|p| {
                decision.is_commit()
                    || self
                        .validation
                        .replies()
                        .get(p)
                        .is_none_or(|r| r.vote != Vote::No)
            })
            .collect();
        for &p in &recipients {
            out.push(TwoPvcAction::SendDecision(p, decision));
        }
        if self.variant.participant_acks(decision) && !recipients.is_empty() {
            self.acks_expected = recipients.into_iter().collect();
            self.state = TwoPvcState::Deciding(decision);
        } else {
            self.state = TwoPvcState::Ended(decision);
            out.push(TwoPvcAction::Log(CoordinatorRecord::End { txn: self.txn }));
            out.push(TwoPvcAction::Completed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetx_types::{PolicyId, PolicyVersion};

    fn server(n: u64) -> ServerId {
        ServerId::new(n)
    }

    fn participants(n: u64) -> BTreeSet<ServerId> {
        (0..n).map(server).collect()
    }

    fn reply(vote: Vote, truth: bool, version: u64) -> ValidationReply {
        ValidationReply {
            vote,
            truth,
            versions: [(PolicyId::new(0), PolicyVersion(version))].into(),
            proofs: vec![],
            conflict: false,
        }
    }

    fn pvc(n: u64) -> TwoPvc {
        TwoPvc::new(
            TxnId::new(1),
            participants(n),
            ConsistencyLevel::View,
            CommitVariant::Standard,
            true,
        )
    }

    #[test]
    fn clean_commit_in_one_round() {
        let mut p = pvc(2);
        let out = p.start();
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, TwoPvcAction::SendPrepareToCommit(_)))
                .count(),
            2
        );
        p.on_reply(server(0), reply(Vote::Yes, true, 1));
        let out = p.on_reply(server(1), reply(Vote::Yes, true, 1));
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Commit)));
        assert!(matches!(out[0], TwoPvcAction::ForceLog(_)));
        assert_eq!(p.state(), TwoPvcState::Deciding(Decision::Commit));
        assert_eq!(p.rounds(), 1);

        p.on_ack(server(0));
        let out = p.on_ack(server(1));
        assert!(out.contains(&TwoPvcAction::Completed));
        assert_eq!(p.state(), TwoPvcState::Ended(Decision::Commit));
    }

    #[test]
    fn integrity_no_aborts() {
        let mut p = pvc(2);
        p.start();
        p.on_reply(server(0), reply(Vote::No, true, 1));
        let out = p.on_reply(server(1), reply(Vote::Yes, true, 1));
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Abort)));
        assert_eq!(p.abort_reason(), Some(AbortReason::IntegrityViolation));
        // Abort not sent to the no-voter.
        assert!(!out.contains(&TwoPvcAction::SendDecision(server(0), Decision::Abort)));
        assert!(out.contains(&TwoPvcAction::SendDecision(server(1), Decision::Abort)));
    }

    #[test]
    fn stale_policy_triggers_update_round_then_commits() {
        let mut p = pvc(2);
        p.start();
        p.on_reply(server(0), reply(Vote::Yes, true, 2));
        let out = p.on_reply(server(1), reply(Vote::Yes, true, 1));
        assert!(out
            .iter()
            .any(|a| matches!(a, TwoPvcAction::SendUpdate(s, _) if *s == server(1))));
        assert_eq!(p.state(), TwoPvcState::Voting);
        let out = p.on_reply(server(1), reply(Vote::Yes, true, 2));
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Commit)));
        assert_eq!(p.rounds(), 2);
    }

    #[test]
    fn proof_false_after_update_aborts() {
        // Fig. 1 fixed: under the fresher policy the proof no longer holds.
        let mut p = pvc(2);
        p.start();
        p.on_reply(server(0), reply(Vote::Yes, true, 2));
        p.on_reply(server(1), reply(Vote::Yes, true, 1));
        let out = p.on_reply(server(1), reply(Vote::Yes, false, 2));
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Abort)));
        assert_eq!(p.abort_reason(), Some(AbortReason::ProofFalse));
    }

    #[test]
    fn without_validation_ignores_versions() {
        let mut p = TwoPvc::new(
            TxnId::new(1),
            participants(2),
            ConsistencyLevel::Global,
            CommitVariant::Standard,
            false,
        );
        let out = p.start();
        assert!(
            !out.contains(&TwoPvcAction::QueryMaster),
            "no master query without validation"
        );
        p.on_reply(server(0), ValidationReply::empty_true());
        let out = p.on_reply(server(1), ValidationReply::empty_true());
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Commit)));
        assert_eq!(p.rounds(), 1);
    }

    #[test]
    fn straggler_reply_after_decision_is_answered_with_decision() {
        let mut p = pvc(1);
        p.start();
        p.on_reply(server(0), reply(Vote::Yes, true, 1));
        let out = p.on_reply(server(0), reply(Vote::Yes, true, 1));
        assert_eq!(
            out,
            vec![TwoPvcAction::SendDecision(server(0), Decision::Commit)]
        );
    }

    #[test]
    fn timeout_aborts_voting() {
        let mut p = pvc(2);
        p.start();
        p.on_reply(server(0), reply(Vote::Yes, true, 1));
        let out = p.on_timeout();
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Abort)));
        assert_eq!(p.abort_reason(), Some(AbortReason::Timeout));
    }

    #[test]
    fn presumed_abort_completes_abort_without_acks() {
        let mut p = TwoPvc::new(
            TxnId::new(1),
            participants(2),
            ConsistencyLevel::View,
            CommitVariant::PresumedAbort,
            true,
        );
        p.start();
        p.on_reply(server(0), reply(Vote::No, true, 1));
        let out = p.on_reply(server(1), reply(Vote::Yes, true, 1));
        assert!(out.contains(&TwoPvcAction::Completed));
        assert!(!out.iter().any(|a| matches!(a, TwoPvcAction::ForceLog(_))));
        assert_eq!(p.state(), TwoPvcState::Ended(Decision::Abort));
    }

    #[test]
    fn presumed_commit_forces_collecting_and_ends_a_commit_without_acks() {
        let mut p = TwoPvc::new(
            TxnId::new(1),
            participants(2),
            ConsistencyLevel::View,
            CommitVariant::PresumedCommit,
            false,
        );
        let out = p.start();
        assert!(matches!(
            out[0],
            TwoPvcAction::ForceLog(CoordinatorRecord::Collecting { .. })
        ));
        p.on_reply(server(0), ValidationReply::empty_true());
        let out = p.on_reply(server(1), ValidationReply::empty_true());
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Commit)));
        assert!(out.contains(&TwoPvcAction::Completed));
        assert_eq!(p.state(), TwoPvcState::Ended(Decision::Commit));
        assert!(p.resend_decisions().is_empty(), "no acks awaited");
    }

    #[test]
    fn an_ack_from_a_non_recipient_is_ignored() {
        let mut p = pvc(3);
        p.start();
        // Server 0 votes NO: it aborts unilaterally and is sent nothing.
        p.on_reply(server(0), reply(Vote::No, true, 1));
        p.on_reply(server(1), reply(Vote::Yes, true, 1));
        p.on_reply(server(2), reply(Vote::Yes, true, 1));
        assert_eq!(p.state(), TwoPvcState::Deciding(Decision::Abort));
        for stranger in [server(0), server(9)] {
            assert!(p.on_ack(stranger).is_empty());
        }
        p.on_ack(server(1));
        assert_eq!(p.state(), TwoPvcState::Deciding(Decision::Abort));
        assert!(p.on_ack(server(2)).contains(&TwoPvcAction::Completed));
    }

    #[test]
    fn resend_decisions_lists_exactly_the_unacknowledged() {
        let mut p = pvc(3);
        p.start();
        assert!(p.resend_decisions().is_empty(), "nothing decided yet");
        for s in 0..3 {
            p.on_reply(server(s), reply(Vote::Yes, true, 1));
        }
        let all: Vec<_> = (0..3)
            .map(|s| TwoPvcAction::SendDecision(server(s), Decision::Commit))
            .collect();
        assert_eq!(p.resend_decisions(), all);
        p.on_ack(server(1));
        assert_eq!(p.resend_decisions(), [all[0].clone(), all[2].clone()]);
        p.on_ack(server(0));
        p.on_ack(server(2));
        assert!(p.resend_decisions().is_empty(), "ended");
    }

    #[test]
    fn master_versions_drive_global_updates() {
        let mut p = TwoPvc::new(
            TxnId::new(1),
            participants(1),
            ConsistencyLevel::Global,
            CommitVariant::Standard,
            true,
        );
        let out = p.start();
        assert!(out.contains(&TwoPvcAction::QueryMaster));
        p.on_reply(server(0), reply(Vote::Yes, true, 1));
        let out = p.on_master_versions(VersionMap::from([(PolicyId::new(0), PolicyVersion(2))]));
        assert!(out
            .iter()
            .any(|a| matches!(a, TwoPvcAction::SendUpdate(..))));
        p.on_master_versions(VersionMap::from([(PolicyId::new(0), PolicyVersion(2))]));
        let out = p.on_reply(server(0), reply(Vote::Yes, true, 2));
        assert!(out.contains(&TwoPvcAction::Decided(Decision::Commit)));
    }
}
