//! The Two-Phase Validation engine (Algorithm 1).
//!
//! [`ValidationRound`] is the TM-side collection/validation loop shared by
//! standalone 2PV (Continuous proofs during execution) and 2PVC (the voting
//! phase at commit). It is sans-io: event handlers return
//! [`ValidationAction`]s for the caller to map onto real messages.
//!
//! One collection round = send a request to every awaited participant and
//! gather `(vote, truth, {(pi, vi)})` replies. The validation step then
//! identifies the largest version of each unique policy (or the master's
//! latest under global consistency), sends `Update` to stale participants
//! and repeats, or resolves to CONTINUE/ABORT.

use crate::consistency::ConsistencyLevel;
use crate::outcome::AbortReason;
use safetx_policy::ProofOfAuthorization;
use safetx_txn::Vote;
use safetx_types::{PolicyId, PolicyVersion, ServerId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Policy-id → version mapping, the currency of 2PV.
pub type VersionMap = BTreeMap<PolicyId, PolicyVersion>;

/// A participant's reply in a collection round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReply {
    /// Integrity vote. Standalone 2PV does not check integrity: there the
    /// only NO is a contact whose query hit a lock conflict (flagged
    /// `conflict`).
    pub vote: Vote,
    /// Conjunction of the participant's proof truth values.
    pub truth: bool,
    /// The `(pi, vi)` tuples used in its proofs.
    pub versions: VersionMap,
    /// The proofs themselves, recorded into the transaction's view.
    pub proofs: Vec<ProofOfAuthorization>,
    /// Set by a participant whose NO vote is a concurrency casualty rather
    /// than a genuine integrity failure: a no-wait lock conflict at the
    /// query a 2PV contact carried, or — optimistic mode, at the 2PVC vote —
    /// a stale read stamp or commit-scope pin conflict. The round maps an
    /// all-conflict NO to the transient [`AbortReason::ValidationConflict`]
    /// instead of the terminal [`AbortReason::IntegrityViolation`].
    #[serde(default)]
    pub conflict: bool,
}

impl ValidationReply {
    /// A trivially-true reply from a participant with nothing to validate.
    #[must_use]
    pub fn empty_true() -> Self {
        ValidationReply {
            vote: Vote::Yes,
            truth: true,
            versions: VersionMap::new(),
            proofs: Vec::new(),
            conflict: false,
        }
    }

    /// The reply of a 2PV contact whose query hit a no-wait lock conflict:
    /// NO, flagged as a concurrency casualty, nothing evaluated.
    #[must_use]
    pub fn lock_conflict() -> Self {
        ValidationReply {
            vote: Vote::No,
            conflict: true,
            ..Self::empty_true()
        }
    }
}

/// Configuration of one validation execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationConfig {
    /// View (φ) or global (ψ) consistency.
    pub consistency: ConsistencyLevel,
    /// Abort after this many collection rounds (guards against policy-update
    /// storms keeping global consistency unreachable).
    pub max_rounds: u64,
    /// Global consistency: re-ask the master for the latest version every
    /// round (the paper's "latter case") instead of once.
    pub refresh_master_each_round: bool,
}

impl ValidationConfig {
    /// Standalone 2PV, or the voting phase of 2PVC, at the given level.
    #[must_use]
    pub fn new(consistency: ConsistencyLevel) -> Self {
        ValidationConfig {
            consistency,
            max_rounds: 16,
            refresh_master_each_round: true,
        }
    }
}

/// Actions the caller must map to protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationAction {
    /// Send the round-1 request (Prepare-to-Validate / Prepare-to-Commit).
    SendRequest(ServerId),
    /// Tell a stale participant the versions it must update to and
    /// re-evaluate with.
    SendUpdate(ServerId, VersionMap),
    /// Ask the master for the latest version of every policy (global).
    QueryMaster,
    /// Validation resolved.
    Resolved(ValidationOutcome),
}

/// Terminal result of validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationOutcome {
    /// All proofs TRUE under consistent versions (CONTINUE / COMMIT-able).
    Continue,
    /// The transaction must roll back.
    Abort(AbortReason),
}

impl ValidationOutcome {
    /// True for [`ValidationOutcome::Continue`].
    #[must_use]
    pub fn is_continue(self) -> bool {
        self == ValidationOutcome::Continue
    }
}

/// The TM-side validation state machine.
///
/// # Examples
///
/// A two-participant 2PV where one replica is a version behind: the round
/// resolves after the stale participant re-replies at the target version.
///
/// ```
/// use safetx_core::{
///     ConsistencyLevel, ValidationAction, ValidationConfig, ValidationOutcome,
///     ValidationReply, ValidationRound,
/// };
/// use safetx_txn::Vote;
/// use safetx_types::{PolicyId, PolicyVersion, ServerId};
///
/// let reply = |version: u64| ValidationReply {
///     vote: Vote::Yes,
///     truth: true,
///     versions: [(PolicyId::new(0), PolicyVersion(version))].into(),
///     proofs: vec![],
///     conflict: false,
/// };
/// let participants = [ServerId::new(0), ServerId::new(1)].into();
/// let mut round = ValidationRound::new(participants, ValidationConfig::new(ConsistencyLevel::View));
/// round.start();
/// round.on_reply(ServerId::new(0), reply(2));
/// let actions = round.on_reply(ServerId::new(1), reply(1)); // stale: gets an Update
/// assert!(matches!(actions[0], ValidationAction::SendUpdate(s, _) if s == ServerId::new(1)));
/// let actions = round.on_reply(ServerId::new(1), reply(2));
/// assert!(matches!(
///     actions[0],
///     ValidationAction::Resolved(ValidationOutcome::Continue)
/// ));
/// assert_eq!(round.rounds(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ValidationRound {
    participants: BTreeSet<ServerId>,
    expected: BTreeSet<ServerId>,
    replies: BTreeMap<ServerId, ValidationReply>,
    rounds: u64,
    master: Option<Arc<VersionMap>>,
    awaiting_master: bool,
    config: ValidationConfig,
    outcome: Option<ValidationOutcome>,
}

impl ValidationRound {
    /// Creates a validation over the given participants.
    ///
    /// # Panics
    ///
    /// Panics on an empty participant set.
    #[must_use]
    pub fn new(participants: BTreeSet<ServerId>, config: ValidationConfig) -> Self {
        assert!(!participants.is_empty(), "validation needs participants");
        ValidationRound {
            participants,
            expected: BTreeSet::new(),
            replies: BTreeMap::new(),
            rounds: 0,
            master: None,
            awaiting_master: false,
            config,
            outcome: None,
        }
    }

    /// Collection rounds executed so far (`r` in Table I).
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The outcome, once resolved.
    #[must_use]
    pub fn outcome(&self) -> Option<ValidationOutcome> {
        self.outcome
    }

    /// The latest reply per participant.
    #[must_use]
    pub fn replies(&self) -> &BTreeMap<ServerId, ValidationReply> {
        &self.replies
    }

    /// The participant set.
    #[must_use]
    pub fn participants(&self) -> &BTreeSet<ServerId> {
        &self.participants
    }

    /// Begins round 1.
    pub fn start(&mut self) -> Vec<ValidationAction> {
        debug_assert_eq!(self.rounds, 0, "start called twice");
        self.rounds = 1;
        self.expected = self.participants.clone();
        let mut actions: Vec<ValidationAction> = Vec::new();
        if self.config.consistency == ConsistencyLevel::Global {
            self.awaiting_master = true;
            actions.push(ValidationAction::QueryMaster);
        }
        actions.extend(
            self.participants
                .iter()
                .map(|&p| ValidationAction::SendRequest(p)),
        );
        actions
    }

    /// Handles a participant reply (first round or after an Update).
    pub fn on_reply(&mut self, from: ServerId, reply: ValidationReply) -> Vec<ValidationAction> {
        if self.outcome.is_some() || !self.expected.remove(&from) {
            return Vec::new();
        }
        self.replies.insert(from, reply);
        self.try_validate()
    }

    /// Handles the master's latest-version answer.
    ///
    /// Accepts either an owned [`VersionMap`] or a shared
    /// `Arc<VersionMap>` snapshot (from [`crate::SharedCatalog::latest_snapshot`]),
    /// so hot-path callers avoid cloning the map per consult.
    pub fn on_master_versions(
        &mut self,
        versions: impl Into<Arc<VersionMap>>,
    ) -> Vec<ValidationAction> {
        if self.outcome.is_some() || !self.awaiting_master {
            return Vec::new();
        }
        self.master = Some(versions.into());
        self.awaiting_master = false;
        self.try_validate()
    }

    /// A participant vanished (timeout): resolve to abort.
    pub fn on_timeout(&mut self) -> Vec<ValidationAction> {
        if self.outcome.is_some() {
            return Vec::new();
        }
        self.resolve(ValidationOutcome::Abort(AbortReason::Timeout))
    }

    fn resolve(&mut self, outcome: ValidationOutcome) -> Vec<ValidationAction> {
        self.outcome = Some(outcome);
        vec![ValidationAction::Resolved(outcome)]
    }

    /// Target version per policy: the largest reported (view) or the
    /// master's latest (global), falling back to the largest reported for
    /// policies the master does not know.
    fn targets(&self) -> VersionMap {
        let mut targets = VersionMap::new();
        for reply in self.replies.values() {
            for (&p, &v) in &reply.versions {
                let entry = targets.entry(p).or_insert(v);
                if v > *entry {
                    *entry = v;
                }
            }
        }
        if self.config.consistency == ConsistencyLevel::Global {
            if let Some(master) = &self.master {
                for (p, v) in targets.iter_mut() {
                    if let Some(&mv) = master.get(p) {
                        // A replica can briefly be ahead of the answer we
                        // hold; the max keeps progress possible either way.
                        if mv > *v {
                            *v = mv;
                        }
                    }
                }
            }
        }
        targets
    }

    fn try_validate(&mut self) -> Vec<ValidationAction> {
        if !self.expected.is_empty() || self.awaiting_master {
            return Vec::new();
        }
        // Step 3 of Algorithm 2: integrity first. Participants flag
        // concurrency-induced NO votes; the transient classification
        // applies only when *every* NO is such a casualty — one genuine
        // integrity NO wins and stays terminal.
        let mut any_no = false;
        let mut all_conflict = true;
        for r in self.replies.values().filter(|r| !r.vote.is_yes()) {
            any_no = true;
            all_conflict &= r.conflict;
        }
        if any_no {
            let reason = if all_conflict {
                AbortReason::ValidationConflict
            } else {
                AbortReason::IntegrityViolation
            };
            return self.resolve(ValidationOutcome::Abort(reason));
        }
        let targets = self.targets();
        // Who used an old version of any policy?
        let stale: BTreeSet<ServerId> = self
            .replies
            .iter()
            .filter(|(_, r)| {
                r.versions
                    .iter()
                    .any(|(p, &v)| targets.get(p).is_some_and(|&t| v < t))
            })
            .map(|(&s, _)| s)
            .collect();
        if stale.is_empty() {
            // Everyone used the largest version of each unique policy.
            return if self.replies.values().all(|r| r.truth) {
                self.resolve(ValidationOutcome::Continue)
            } else {
                self.resolve(ValidationOutcome::Abort(AbortReason::ProofFalse))
            };
        }
        // Update round.
        if self.rounds >= self.config.max_rounds {
            return self.resolve(ValidationOutcome::Abort(AbortReason::VersionInconsistency));
        }
        self.rounds += 1;
        let mut actions = Vec::new();
        if self.config.consistency == ConsistencyLevel::Global
            && self.config.refresh_master_each_round
        {
            self.awaiting_master = true;
            actions.push(ValidationAction::QueryMaster);
        }
        for &server in &stale {
            let reply = &self.replies[&server];
            let needed: VersionMap = reply
                .versions
                .iter()
                .filter_map(|(p, &v)| {
                    let t = *targets.get(p)?;
                    (v < t).then_some((*p, t))
                })
                .collect();
            actions.push(ValidationAction::SendUpdate(server, needed));
        }
        self.expected = stale;
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(n: u64) -> ServerId {
        ServerId::new(n)
    }

    fn reply(truth: bool, version: u64) -> ValidationReply {
        ValidationReply {
            vote: Vote::Yes,
            truth,
            versions: [(PolicyId::new(0), PolicyVersion(version))].into(),
            proofs: vec![],
            conflict: false,
        }
    }

    fn reply_vote(vote: Vote, truth: bool, version: u64) -> ValidationReply {
        ValidationReply {
            vote,
            ..reply(truth, version)
        }
    }

    fn participants(n: u64) -> BTreeSet<ServerId> {
        (0..n).map(server).collect()
    }

    fn two_pv(n: u64, level: ConsistencyLevel) -> ValidationRound {
        ValidationRound::new(participants(n), ValidationConfig::new(level))
    }

    #[test]
    fn uniform_versions_continue_in_one_round() {
        let mut v = two_pv(3, ConsistencyLevel::View);
        let actions = v.start();
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, ValidationAction::SendRequest(_)))
                .count(),
            3
        );
        assert!(v.on_reply(server(0), reply(true, 2)).is_empty());
        assert!(v.on_reply(server(1), reply(true, 2)).is_empty());
        let actions = v.on_reply(server(2), reply(true, 2));
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Continue)]
        );
        assert_eq!(v.rounds(), 1);
    }

    #[test]
    fn any_false_aborts_when_versions_agree() {
        let mut v = two_pv(2, ConsistencyLevel::View);
        v.start();
        v.on_reply(server(0), reply(true, 1));
        let actions = v.on_reply(server(1), reply(false, 1));
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Abort(
                AbortReason::ProofFalse
            ))]
        );
    }

    #[test]
    fn stale_participants_get_updates_then_second_round_decides() {
        let mut v = two_pv(3, ConsistencyLevel::View);
        v.start();
        v.on_reply(server(0), reply(true, 2));
        v.on_reply(server(1), reply(true, 1));
        let actions = v.on_reply(server(2), reply(true, 1));
        // Servers 1 and 2 are stale and must update to v2.
        let updates: Vec<&ValidationAction> = actions
            .iter()
            .filter(|a| matches!(a, ValidationAction::SendUpdate(..)))
            .collect();
        assert_eq!(updates.len(), 2);
        if let ValidationAction::SendUpdate(s, versions) = updates[0] {
            assert_eq!(*s, server(1));
            assert_eq!(versions[&PolicyId::new(0)], PolicyVersion(2));
        } else {
            unreachable!();
        }
        assert_eq!(v.rounds(), 2);
        // Only the stale two re-reply; server 0 is not awaited.
        assert!(
            v.on_reply(server(0), reply(true, 2)).is_empty(),
            "not awaited"
        );
        assert!(v.on_reply(server(1), reply(true, 2)).is_empty());
        let actions = v.on_reply(server(2), reply(true, 2));
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Continue)]
        );
        assert_eq!(v.rounds(), 2, "view consistency needs at most two rounds");
    }

    #[test]
    fn integrity_no_vote_aborts_before_any_update() {
        let cfg = ValidationConfig::new(ConsistencyLevel::View);
        let mut v = ValidationRound::new(participants(2), cfg);
        v.start();
        v.on_reply(server(0), reply_vote(Vote::No, true, 1));
        let actions = v.on_reply(server(1), reply_vote(Vote::Yes, true, 2));
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Abort(
                AbortReason::IntegrityViolation
            ))],
            "NO vote wins over the version mismatch"
        );
        assert_eq!(v.rounds(), 1);
    }

    #[test]
    fn conflict_flagged_no_votes_resolve_to_validation_conflict() {
        let cfg = ValidationConfig::new(ConsistencyLevel::View);
        let mut v = ValidationRound::new(participants(2), cfg);
        v.start();
        v.on_reply(server(0), reply_vote(Vote::Yes, true, 1));
        let no_conflict = ValidationReply {
            conflict: true,
            ..reply_vote(Vote::No, true, 1)
        };
        let actions = v.on_reply(server(1), no_conflict);
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Abort(
                AbortReason::ValidationConflict
            ))],
            "an all-conflict NO round is a transient OCC casualty"
        );
    }

    #[test]
    fn genuine_integrity_no_wins_over_a_conflict_no() {
        let cfg = ValidationConfig::new(ConsistencyLevel::View);
        let mut v = ValidationRound::new(participants(2), cfg);
        v.start();
        let no_conflict = ValidationReply {
            conflict: true,
            ..reply_vote(Vote::No, true, 1)
        };
        v.on_reply(server(0), no_conflict);
        let actions = v.on_reply(server(1), reply_vote(Vote::No, true, 1));
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Abort(
                AbortReason::IntegrityViolation
            ))],
            "one unflagged NO keeps the abort terminal"
        );
    }

    #[test]
    fn global_consistency_queries_master_and_uses_its_version() {
        let mut v = two_pv(2, ConsistencyLevel::Global);
        let actions = v.start();
        assert!(actions.contains(&ValidationAction::QueryMaster));
        v.on_reply(server(0), reply(true, 2));
        v.on_reply(server(1), reply(true, 2));
        // Replies agree at v2, but the master knows v3: both are stale.
        let actions =
            v.on_master_versions(VersionMap::from([(PolicyId::new(0), PolicyVersion(3))]));
        let updates = actions
            .iter()
            .filter(|a| matches!(a, ValidationAction::SendUpdate(..)))
            .count();
        assert_eq!(updates, 2);
        assert!(
            actions.contains(&ValidationAction::QueryMaster),
            "per-round master refresh"
        );
        v.on_master_versions(VersionMap::from([(PolicyId::new(0), PolicyVersion(3))]));
        v.on_reply(server(0), reply(true, 3));
        let actions = v.on_reply(server(1), reply(true, 3));
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Continue)]
        );
        assert_eq!(v.rounds(), 2);
    }

    #[test]
    fn global_with_master_once_still_converges() {
        let cfg = ValidationConfig {
            refresh_master_each_round: false,
            ..ValidationConfig::new(ConsistencyLevel::Global)
        };
        let mut v = ValidationRound::new(participants(2), cfg);
        v.start();
        v.on_reply(server(0), reply(true, 1));
        v.on_reply(server(1), reply(true, 2));
        let actions =
            v.on_master_versions(VersionMap::from([(PolicyId::new(0), PolicyVersion(2))]));
        assert!(
            !actions.contains(&ValidationAction::QueryMaster),
            "master consulted once"
        );
        let actions2 = v.on_reply(server(0), reply(true, 2));
        assert_eq!(
            actions2,
            vec![ValidationAction::Resolved(ValidationOutcome::Continue)]
        );
    }

    #[test]
    fn round_cap_aborts_under_update_storm() {
        let cfg = ValidationConfig {
            max_rounds: 3,
            refresh_master_each_round: false,
            ..ValidationConfig::new(ConsistencyLevel::View)
        };
        let mut v = ValidationRound::new(participants(2), cfg);
        v.start();
        // Adversary: every round, one server reports a version one higher.
        let mut version = 1;
        v.on_reply(server(0), reply(true, version + 1));
        let mut actions = v.on_reply(server(1), reply(true, version));
        loop {
            version += 1;
            if let Some(ValidationAction::Resolved(outcome)) = actions.last() {
                assert_eq!(
                    *outcome,
                    ValidationOutcome::Abort(AbortReason::VersionInconsistency)
                );
                break;
            }
            // Stale server replies with yet another newer version, keeping
            // the race alive.
            actions = v.on_reply(server(1), reply(true, version + 1));
            if actions.is_empty() {
                actions = v.on_reply(server(0), reply(true, version + 1));
            }
        }
        assert!(v.rounds() <= 3);
    }

    #[test]
    fn timeout_aborts() {
        let mut v = two_pv(2, ConsistencyLevel::View);
        v.start();
        v.on_reply(server(0), reply(true, 1));
        let actions = v.on_timeout();
        assert_eq!(
            actions,
            vec![ValidationAction::Resolved(ValidationOutcome::Abort(
                AbortReason::Timeout
            ))]
        );
        assert!(v.on_reply(server(1), reply(true, 1)).is_empty());
    }

    #[test]
    fn replies_after_resolution_are_ignored() {
        let mut v = two_pv(1, ConsistencyLevel::View);
        v.start();
        let actions = v.on_reply(server(0), reply(true, 1));
        assert!(matches!(actions[0], ValidationAction::Resolved(_)));
        assert!(v.on_reply(server(0), reply(false, 9)).is_empty());
        assert_eq!(v.outcome(), Some(ValidationOutcome::Continue));
    }

    #[test]
    fn multiple_policies_are_reconciled_independently() {
        let p0 = PolicyId::new(0);
        let p1 = PolicyId::new(1);
        let mut v = two_pv(2, ConsistencyLevel::View);
        v.start();
        let r0 = ValidationReply {
            vote: Vote::Yes,
            truth: true,
            versions: [(p0, PolicyVersion(2)), (p1, PolicyVersion(1))].into(),
            proofs: vec![],
            conflict: false,
        };
        let r1 = ValidationReply {
            vote: Vote::Yes,
            truth: true,
            versions: [(p0, PolicyVersion(1)), (p1, PolicyVersion(2))].into(),
            proofs: vec![],
            conflict: false,
        };
        v.on_reply(server(0), r0);
        let actions = v.on_reply(server(1), r1);
        // Each server is stale in exactly one policy.
        let mut update_count = 0;
        for a in &actions {
            if let ValidationAction::SendUpdate(s, needed) = a {
                update_count += 1;
                assert_eq!(needed.len(), 1);
                let (p, ver) = needed.iter().next().unwrap();
                if *s == server(0) {
                    assert_eq!((*p, *ver), (p1, PolicyVersion(2)));
                } else {
                    assert_eq!((*p, *ver), (p0, PolicyVersion(2)));
                }
            }
        }
        assert_eq!(update_count, 2);
    }

    #[test]
    #[should_panic(expected = "needs participants")]
    fn empty_participants_panics() {
        let _ = ValidationRound::new(
            BTreeSet::new(),
            ValidationConfig::new(ConsistencyLevel::View),
        );
    }
}
