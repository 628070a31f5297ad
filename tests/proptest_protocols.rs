//! Property-based tests for the protocol state machines: 2PC, 2PV and
//! 2PVC under randomized votes, versions, truth values and delivery orders.

use proptest::prelude::*;
use safetx::core::{
    ConsistencyLevel, TwoPvc, TwoPvcAction, TwoPvcState, ValidationAction, ValidationConfig,
    ValidationOutcome, ValidationReply, ValidationRound, VersionMap,
};
use safetx::txn::{CommitVariant, Decision, Vote};
use safetx::types::{PolicyId, PolicyVersion, ServerId, TxnId};
use std::collections::BTreeSet;

fn servers(n: usize) -> BTreeSet<ServerId> {
    (0..n as u64).map(ServerId::new).collect()
}

/// One participant's behaviour in a randomized validation.
#[derive(Debug, Clone)]
struct Peer {
    vote: Vote,
    /// Initially installed version.
    version: u64,
    /// Whether its proofs are TRUE at any version ≥ its own.
    truth: bool,
}

fn peer_strategy() -> impl Strategy<Value = Peer> {
    (any::<bool>(), 1u64..4, any::<bool>()).prop_map(|(yes, version, truth)| Peer {
        vote: if yes { Vote::Yes } else { Vote::No },
        version,
        truth,
    })
}

fn reply(version: u64, peer: &Peer) -> ValidationReply {
    ValidationReply {
        vote: peer.vote,
        truth: peer.truth,
        conflict: false,
        versions: [(PolicyId::new(0), PolicyVersion(version))].into(),
        proofs: vec![],
    }
}

proptest! {
    /// 2PV always terminates, and CONTINUE implies every participant
    /// reached the maximum initially-reported version with all-TRUE proofs.
    #[test]
    fn two_pv_terminates_and_continue_implies_consistency(
        peers in proptest::collection::vec(peer_strategy(), 1..6),
        order in any::<u64>(),
    ) {
        let n = peers.len();
        let mut round = ValidationRound::new(
            servers(n),
            ValidationConfig::new(ConsistencyLevel::View),
        );
        let mut actions = round.start();
        // Deterministic shuffle of delivery order from the seed.
        let mut pending: Vec<ServerId> = (0..n as u64).map(ServerId::new).collect();
        let mut rot = order as usize;
        let max_version = peers.iter().map(|p| p.version).max().unwrap();
        let mut current: Vec<u64> = peers.iter().map(|p| p.version).collect();
        let mut outcome = None;
        let mut steps = 0;
        while outcome.is_none() {
            steps += 1;
            prop_assert!(steps < 100, "2PV must terminate");
            // Execute queued actions: updates fast-forward the peer.
            for action in actions.drain(..) {
                match action {
                    ValidationAction::SendRequest(_) => {}
                    ValidationAction::SendUpdate(server, targets) => {
                        let idx = server.index() as usize;
                        let target = targets[&PolicyId::new(0)].get();
                        if target > current[idx] {
                            current[idx] = target;
                        }
                        pending.push(server);
                    }
                    ValidationAction::QueryMaster => unreachable!("view consistency"),
                    ValidationAction::Resolved(o) => outcome = Some(o),
                }
            }
            if outcome.is_some() {
                break;
            }
            prop_assert!(!pending.is_empty(), "awaiting replies but none pending");
            rot = (rot + 7) % pending.len().max(1);
            let server = pending.remove(rot % pending.len());
            let idx = server.index() as usize;
            actions = round.on_reply(server, reply(current[idx], &peers[idx]));
        }
        match outcome.unwrap() {
            ValidationOutcome::Continue => {
                // CONTINUE requires no NO (in 2PV: no contact whose query
                // hit a lock conflict), consistent versions and all-TRUE
                // proofs.
                prop_assert!(peers.iter().all(|p| p.truth && p.vote.is_yes()));
                prop_assert!(current.iter().all(|&v| v == max_version));
                prop_assert!(round.rounds() <= 2, "view consistency: at most 2 rounds");
            }
            ValidationOutcome::Abort(_) => {
                prop_assert!(peers.iter().any(|p| !p.truth || !p.vote.is_yes()));
            }
        }
    }

    /// 2PVC: commit iff all peers vote YES and all proofs are TRUE; a
    /// commit never reaches a no-voter's unilateral abort, and the machine
    /// always ends.
    #[test]
    fn two_pvc_commits_iff_unanimous_yes_and_true(
        peers in proptest::collection::vec(peer_strategy(), 1..6),
        ack_order in any::<u64>(),
    ) {
        let n = peers.len();
        let mut pvc = TwoPvc::new(
            TxnId::new(1),
            servers(n),
            ConsistencyLevel::View,
            CommitVariant::Standard,
            true,
        );
        let mut actions = pvc.start();
        let max_version = peers.iter().map(|p| p.version).max().unwrap();
        let mut current: Vec<u64> = peers.iter().map(|p| p.version).collect();
        let mut decision = None;
        let mut to_ack: Vec<ServerId> = Vec::new();
        let mut queue: Vec<ServerId> = (0..n as u64).map(ServerId::new).collect();
        let mut steps = 0;
        'run: loop {
            steps += 1;
            prop_assert!(steps < 200, "2PVC must terminate");
            let batch: Vec<TwoPvcAction> = std::mem::take(&mut actions);
            let mut progressed = false;
            for action in batch {
                match action {
                    TwoPvcAction::SendPrepareToCommit(_) => {}
                    TwoPvcAction::SendUpdate(server, targets) => {
                        let idx = server.index() as usize;
                        let target = targets[&PolicyId::new(0)].get();
                        current[idx] = current[idx].max(target);
                        queue.push(server);
                        progressed = true;
                    }
                    TwoPvcAction::QueryMaster => unreachable!("view consistency"),
                    TwoPvcAction::ForceLog(_) | TwoPvcAction::Log(_) => {}
                    TwoPvcAction::SendDecision(server, d) => {
                        // Participants that voted NO aborted unilaterally;
                        // commit must never be sent to them (their vote
                        // forbids a commit decision entirely).
                        if d.is_commit() {
                            prop_assert!(peers[server.index() as usize].vote.is_yes());
                        }
                        to_ack.push(server);
                        progressed = true;
                    }
                    TwoPvcAction::Decided(d) => {
                        decision = Some(d);
                        progressed = true;
                    }
                    TwoPvcAction::Completed => break 'run,
                }
            }
            if decision.is_some() {
                // Ack in a seed-dependent order.
                prop_assert!(!to_ack.is_empty(), "awaiting acks but none pending");
                let i = (ack_order as usize) % to_ack.len();
                let server = to_ack.remove(i);
                actions = pvc.on_ack(server);
            } else if !queue.is_empty() {
                let i = (ack_order as usize + steps) % queue.len();
                let server = queue.remove(i);
                let idx = server.index() as usize;
                actions = pvc.on_reply(server, reply(current[idx], &peers[idx]));
            } else {
                prop_assert!(progressed, "stuck without pending events");
            }
        }
        let all_good = peers.iter().all(|p| p.vote.is_yes() && p.truth);
        let d = decision.expect("completed implies decided");
        prop_assert_eq!(d.is_commit(), all_good);
        if d.is_commit() {
            prop_assert!(current.iter().all(|&v| v == max_version));
        }
        prop_assert_eq!(pvc.state(), TwoPvcState::Ended(d));
    }

    /// Classic 2PC — `TwoPvc` with validation off — under every logging
    /// variant: exactly one decision, commit iff every vote is YES,
    /// regardless of vote arrival order; duplicate votes are harmless;
    /// NO-voters are sent no decision; acks are awaited iff the variant
    /// asks participants to acknowledge that decision.
    #[test]
    fn coordinator_decision_is_order_independent(
        votes in proptest::collection::vec(any::<bool>(), 1..7),
        order in any::<u64>(),
        dup in any::<bool>(),
        variant in prop_oneof![
            Just(CommitVariant::Standard),
            Just(CommitVariant::PresumedAbort),
            Just(CommitVariant::PresumedCommit),
        ],
    ) {
        let n = votes.len();
        let mut coordinator = TwoPvc::new(
            TxnId::new(1),
            servers(n),
            ConsistencyLevel::View,
            variant,
            false,
        );
        let mut outputs = coordinator.start();
        // A seed-dependent arrival order.
        let mut arrivals: Vec<usize> = (0..n).collect();
        let mut rot = order as usize;
        for i in (1..n).rev() {
            rot = rot.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            arrivals.swap(i, (rot >> 33) % (i + 1));
        }
        let mut resends = Vec::new();
        for i in arrivals {
            let reply = ValidationReply {
                vote: if votes[i] { Vote::Yes } else { Vote::No },
                ..ValidationReply::empty_true()
            };
            let server = ServerId::new(i as u64);
            outputs.extend(coordinator.on_reply(server, reply.clone()));
            if dup {
                // A duplicated vote changes nothing; once decided, it only
                // has the decision re-sent to the straggler.
                for o in coordinator.on_reply(server, reply) {
                    resends.push((server, o));
                }
            }
        }
        for (server, o) in resends {
            prop_assert_eq!(o, TwoPvcAction::SendDecision(server, coordinator.decision().unwrap()));
        }
        let decisions: Vec<Decision> = outputs
            .iter()
            .filter_map(|o| match o {
                TwoPvcAction::Decided(d) => Some(*d),
                _ => None,
            })
            .collect();
        prop_assert_eq!(decisions.len(), 1, "exactly one decision");
        let decision = decisions[0];
        let all_yes = votes.iter().all(|&v| v);
        prop_assert_eq!(decision.is_commit(), all_yes);
        let mut recipients = BTreeSet::new();
        for o in &outputs {
            if let TwoPvcAction::SendDecision(server, d) = o {
                prop_assert_eq!(*d, decision);
                prop_assert!(votes[server.index() as usize], "a NO-voter aborted on its own");
                recipients.insert(*server);
            }
        }
        let yes_voters: BTreeSet<ServerId> =
            servers(n).into_iter().filter(|s| votes[s.index() as usize]).collect();
        prop_assert_eq!(&recipients, &yes_voters);
        let awaits_acks = variant.participant_acks(decision) && !recipients.is_empty();
        prop_assert_eq!(
            coordinator.state(),
            if awaits_acks {
                TwoPvcState::Deciding(decision)
            } else {
                TwoPvcState::Ended(decision)
            }
        );
    }

    /// The paper-bound property: a clean 2PVC (uniform versions) uses one
    /// round and its message count is 4n + the decision acks.
    #[test]
    fn clean_two_pvc_round_count_is_one(n in 1usize..8, version in 1u64..5) {
        let mut pvc = TwoPvc::new(
            TxnId::new(1),
            servers(n),
            ConsistencyLevel::View,
            CommitVariant::Standard,
            true,
        );
        let mut sends = 0usize;
        let count = |sends: &mut usize, actions: &Vec<TwoPvcAction>| {
            *sends += actions
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        TwoPvcAction::SendPrepareToCommit(_)
                            | TwoPvcAction::SendUpdate(..)
                            | TwoPvcAction::SendDecision(..)
                    )
                })
                .count();
        };
        let actions = pvc.start();
        count(&mut sends, &actions);
        for i in 0..n {
            let peer = Peer { vote: Vote::Yes, version, truth: true };
            let actions = pvc.on_reply(ServerId::new(i as u64), reply(version, &peer));
            count(&mut sends, &actions);
        }
        prop_assert_eq!(pvc.rounds(), 1);
        prop_assert_eq!(sends, 2 * n, "n prepares + n decisions");
    }
}

/// A VersionMap helper sanity check used by the generators above.
#[test]
fn version_map_is_policy_keyed() {
    let mut map = VersionMap::new();
    map.insert(PolicyId::new(0), PolicyVersion(1));
    map.insert(PolicyId::new(0), PolicyVersion(2));
    assert_eq!(map.len(), 1);
    assert_eq!(map[&PolicyId::new(0)], PolicyVersion(2));
}
