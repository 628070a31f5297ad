//! One server round: the only way anything feeds a [`ServerCore`].
//!
//! [`ServerCore::run_round`] takes the messages of one round — a single
//! protocol message on either link, or the control plane's termination
//! answers to a host's leftover transactions — and splits each between
//! the two planes. The protocol plane — registration, locks, write sets,
//! votes, decisions, WAL — runs inline, in arrival order, under **one**
//! WAL group, so the round's forced appends share a single physical sync
//! and no reply that acknowledges a force exists before that sync has
//! happened. Proof evaluation — the data plane, and under
//! Punctual/Continuous the round's entire cost — is collected into a
//! [`DeferredEval`] the runtime runs once the inline replies have left: it
//! touches only the shareable [`DataPlane`], evaluates the whole round
//! through one [`crate::BatchEval`], and involves no forces.
//! [`ServerCore::handle`] — the simulator's entry point — is a round of
//! one with its deferred half run in place, so every runtime drives the
//! same participant.

use crate::data_plane::{DataPlane, EvalSnapshot};
use crate::messages::Msg;
use crate::server::{capability_key, Refused, ServerCore};
use crate::validation::ValidationReply;
use safetx_policy::{AccessCapability, Credential};
use safetx_txn::{QuerySpec, Vote};
use safetx_types::{Duration, Timestamp, TxnId, UserId};
use std::sync::Arc;

/// One proof-evaluation work item deferred out of a round. Its
/// protocol-plane half already ran in the round; evaluating the
/// proofs and building the reply is pure data-plane work.
enum EvalTask<A> {
    /// An `ExecQuery` whose data operations succeeded: evaluate the proof
    /// and reply `QueryDone`.
    Query {
        to: A,
        txn: TxnId,
        query_index: usize,
        query: Arc<QuerySpec>,
        user: UserId,
        credentials: Arc<[Credential]>,
        /// The capabilities the TM forwarded: in the unsafe baseline a
        /// valid one passes for the proof.
        capabilities: Vec<AccessCapability>,
    },
    /// A 2PV contact (`PrepareToValidate` or a standalone `Update` round):
    /// evaluate the snapshot and reply `ValidateReply`.
    Snapshot {
        to: A,
        txn: TxnId,
        snapshot: EvalSnapshot,
    },
}

/// The data-plane half of a round: its proof evaluations, still to run.
pub struct DeferredEval<A> {
    data: Arc<DataPlane>,
    /// The unsafe baseline: honour forwarded capabilities in lieu of a
    /// proof, and issue one with each granted query proof.
    capability_shortcut: bool,
    tasks: Vec<EvalTask<A>>,
}

impl<A> DeferredEval<A> {
    /// Evaluates the round's proofs at the single instant `now` through
    /// one [`crate::BatchEval`] — shared policy fetches, credential
    /// saturations and within-round dedup — and returns the replies they
    /// feed, in the order the round received the requests.
    #[must_use]
    pub fn run(self, now: Timestamp) -> Vec<(A, Msg)> {
        let mut batch = self.data.begin_batch(now);
        let mut replies = Vec::with_capacity(self.tasks.len());
        for task in self.tasks {
            replies.push(match task {
                EvalTask::Query {
                    to,
                    txn,
                    query_index,
                    query,
                    user,
                    credentials,
                    capabilities,
                } => {
                    // Unsafe baseline: a previously issued capability
                    // passes for a proof — no policy evaluation, no
                    // credential status check. This is exactly how Bob's
                    // stale "read credential" slipped through in the
                    // paper's Figure 1.
                    let honoured = self.capability_shortcut
                        && capabilities.iter().any(|cap| {
                            cap.user() == user
                                && cap.txn() == txn
                                && cap.action() == query.action
                                && cap.resource() == query.resource
                                && cap.verify(capability_key(cap.issuer()), now)
                        });
                    let proof = if honoured {
                        self.data.proof_from_capability(now, user, &query)
                    } else {
                        batch.evaluate_one(user, &credentials, &query)
                    };
                    let capability = (self.capability_shortcut && proof.truth()).then(|| {
                        let id = self.data.id();
                        AccessCapability::issue(
                            id,
                            capability_key(id),
                            user,
                            txn,
                            query.action.clone(),
                            query.resource.clone(),
                            now,
                            now.saturating_add(Duration::from_secs(60)),
                        )
                    });
                    (
                        to,
                        Msg::QueryDone {
                            txn,
                            query_index,
                            ok: true,
                            proof: Some(proof),
                            capability,
                        },
                    )
                }
                EvalTask::Snapshot { to, txn, snapshot } => {
                    let (truth, versions, proofs) = batch.evaluate_queries(
                        snapshot.user,
                        &snapshot.credentials,
                        &snapshot.queries,
                    );
                    let reply = ValidationReply {
                        vote: Vote::Yes,
                        truth,
                        versions,
                        proofs,
                        conflict: false,
                    };
                    (to, Msg::ValidateReply { txn, reply })
                }
            });
        }
        replies
    }
}

/// What one [`ServerCore::run_round`] produced.
pub struct Round<A> {
    /// The protocol plane's replies. The round's WAL group has closed:
    /// every force they acknowledge is durable.
    pub replies: Vec<(A, Msg)>,
    /// The round's proof evaluations, when it deferred any.
    pub deferred: Option<DeferredEval<A>>,
}

/// A `QueryDone` that carries no proof: a lost lock race (`ok = false`)
/// or a query executed without one (`ok = true`).
fn query_done(txn: TxnId, query_index: usize, ok: bool) -> Msg {
    Msg::QueryDone {
        txn,
        query_index,
        ok,
        proof: None,
        capability: None,
    }
}

impl<A: Clone> ServerCore<A> {
    /// Handles one message arriving from `from` at instant `now` as a round
    /// of its own, its deferred proofs evaluated in place. Returns the
    /// messages to send: the protocol plane's replies, then the proofs'.
    pub fn handle(&mut self, now: Timestamp, from: A, msg: Msg) -> Vec<(A, Msg)> {
        let Round {
            mut replies,
            deferred,
        } = self.run_round(now, [(from, msg)]);
        if let Some(deferred) = deferred {
            replies.extend(deferred.run(now));
        }
        replies
    }

    /// Processes one round of messages, each with the peer it came from.
    /// A [`Msg::Batch`] envelope is its inner messages in order.
    ///
    /// Equivalent, reply for reply, to calling [`ServerCore::handle`] on
    /// each message in turn — except that the round's forces cost one
    /// physical sync and its proofs, evaluated by [`DeferredEval::run`],
    /// answer after every inline reply of the round.
    pub fn run_round(
        &mut self,
        now: Timestamp,
        msgs: impl IntoIterator<Item = (A, Msg)>,
    ) -> Round<A> {
        let mut replies = Vec::new();
        let mut tasks = Vec::new();
        self.begin_wal_group();
        for (from, msg) in msgs {
            match msg {
                Msg::Batch(inner) => {
                    for msg in inner {
                        self.round_msg(now, from.clone(), msg, &mut replies, &mut tasks);
                    }
                }
                msg => self.round_msg(now, from, msg, &mut replies, &mut tasks),
            }
        }
        // The group closes — performing the round's one physical sync —
        // before any reply is released, so a vote never outruns the force
        // it acknowledges.
        self.end_wal_group();
        let deferred = (!tasks.is_empty()).then(|| DeferredEval {
            data: self.data_plane(),
            capability_shortcut: self.capability_shortcut,
            tasks,
        });
        Round { replies, deferred }
    }

    /// Runs the protocol-plane half of one message, deferring its proof
    /// evaluation (if it asks for one) to `tasks`. Messages whose handling
    /// is pure protocol — voting, decisions, recovery — go to
    /// [`ServerCore::handle_into`].
    fn round_msg(
        &mut self,
        now: Timestamp,
        from: A,
        msg: Msg,
        replies: &mut Vec<(A, Msg)>,
        tasks: &mut Vec<EvalTask<A>>,
    ) {
        match msg {
            Msg::ExecQuery {
                txn,
                query_index,
                query,
                user,
                credentials,
                evaluate_proof,
                pin_versions,
                capabilities,
            } => match self.execute_query(
                txn,
                (query_index, &query),
                user,
                &credentials,
                &pin_versions,
                from.clone(),
            ) {
                Err(Refused::Decided) => {}
                // The proof is moot.
                Err(Refused::LockConflict) => {
                    replies.push((from, query_done(txn, query_index, false)));
                }
                // Nothing to prove: answered inline.
                Ok(()) if !evaluate_proof => {
                    replies.push((from, query_done(txn, query_index, true)));
                }
                Ok(()) => tasks.push(EvalTask::Query {
                    to: from,
                    txn,
                    query_index,
                    query,
                    user,
                    credentials,
                    capabilities,
                }),
            },
            Msg::PrepareToValidate {
                txn,
                new_query,
                user,
                credentials,
            } => {
                match self.register_validation(txn, new_query, user, &credentials, from.clone()) {
                    Err(Refused::Decided) => {}
                    // The proofs are moot.
                    Err(Refused::LockConflict) => {
                        let reply = ValidationReply::lock_conflict();
                        replies.push((from, Msg::ValidateReply { txn, reply }));
                    }
                    Ok(snapshot) => tasks.push(EvalTask::Snapshot {
                        to: from,
                        txn,
                        snapshot,
                    }),
                }
            }
            // In-commit updates touch the participant state machine and
            // stay inline.
            Msg::Update {
                txn,
                targets,
                in_commit: false,
            } => {
                self.fast_forward(&targets);
                match self.snapshot_txn(txn) {
                    Some(snapshot) => tasks.push(EvalTask::Snapshot {
                        to: from,
                        txn,
                        snapshot,
                    }),
                    // No state here: a vacuous reply.
                    None => replies.push((
                        from,
                        Msg::ValidateReply {
                            txn,
                            reply: ValidationReply::empty_true(),
                        },
                    )),
                }
            }
            other => self.handle_into(now, from, other, replies),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fixture::*;
    use crate::validation::VersionMap;
    use safetx_txn::{Decision, Operation};
    use safetx_types::{DataItemId, ServerId};

    const NOW: Timestamp = Timestamp::from_millis(1);
    /// A second coordinator, so rounds have two destinations.
    const TM2: u8 = 43;

    fn exec(fx: &Fixture, txn: u64, evaluate_proof: bool) -> Msg {
        Msg::ExecQuery {
            txn: TxnId::new(txn),
            query_index: 0,
            query: Arc::new(QuerySpec::new(
                ServerId::new(0),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(txn), 1)],
            )),
            user: UserId::new(1),
            credentials: Arc::from([fx.credential.clone()]),
            evaluate_proof,
            pin_versions: VersionMap::new(),
            capabilities: vec![],
        }
    }

    fn prepare_to_commit(txn: u64) -> Msg {
        Msg::PrepareToCommit {
            txn: TxnId::new(txn),
            validate: true,
            expected_queries: vec![0],
        }
    }

    fn commit(txn: u64) -> Msg {
        Msg::Decision {
            txn: TxnId::new(txn),
            decision: Decision::Commit,
        }
    }

    /// A mixed round: TM drives transaction 1 through the deferring
    /// messages (proof at the query, a 2PV contact, a standalone update),
    /// TM2 drives transaction 2 through the forcing ones (vote, decision).
    fn mixed_round(fx: &Fixture) -> Vec<(u8, Msg)> {
        vec![
            (TM, exec(fx, 1, true)),
            (TM2, exec(fx, 2, false)),
            (
                TM,
                Msg::PrepareToValidate {
                    txn: TxnId::new(1),
                    new_query: None,
                    user: UserId::new(1),
                    credentials: Arc::from([fx.credential.clone()]),
                },
            ),
            (TM2, prepare_to_commit(2)),
            (
                TM,
                Msg::Update {
                    txn: TxnId::new(1),
                    targets: VersionMap::new(),
                    in_commit: false,
                },
            ),
            (TM2, commit(2)),
        ]
    }

    /// Runs `rounds` one after the other; returns each destination's
    /// replies in order (as debug text — `Msg` has no `PartialEq`).
    fn run(fx: &mut Fixture, rounds: Vec<Vec<(u8, Msg)>>) -> [Vec<String>; 2] {
        let mut per_dest = [Vec::new(), Vec::new()];
        for round in rounds {
            let out = fx.core.run_round(NOW, round);
            let deferred = out.deferred.map(|d| d.run(NOW)).unwrap_or_default();
            for (to, msg) in out.replies.into_iter().chain(deferred) {
                per_dest[usize::from(to - TM)].push(format!("{msg:?}"));
            }
        }
        per_dest
    }

    #[test]
    fn one_round_of_n_messages_equals_n_rounds_of_one() {
        let (mut together, mut apart) = (fixture(), fixture());
        let round = mixed_round(&together);
        let singles = mixed_round(&apart).into_iter().map(|m| vec![m]).collect();
        let replies_together = run(&mut together, vec![round]);
        let replies_apart = run(&mut apart, singles);
        assert_eq!(replies_together, replies_apart);
        assert_eq!(replies_together[0].len(), 3, "{replies_together:?}");
        assert_eq!(replies_together[1].len(), 3, "{replies_together:?}");

        // Same counters but for the syncs: the vote and the decision are
        // two forces, one sync in one round, one sync each apart.
        let (a, b) = (together.core.counters(), apart.core.counters());
        assert_eq!((a.proofs, a.forced_logs), (b.proofs, b.forced_logs));
        assert_eq!(a.proof_cache, b.proof_cache);
        assert_eq!(
            together.core.wal().forced_count(),
            apart.core.wal().forced_count()
        );
        assert_eq!(
            (a.forced_logs, a.physical_syncs, b.physical_syncs),
            (2, 1, 2)
        );
        for item in 0..3 {
            let item = DataItemId::new(item);
            assert_eq!(
                together.core.store().read_int(item),
                apart.core.store().read_int(item)
            );
        }
        assert_eq!(together.core.store().read_int(DataItemId::new(2)), Some(1));
        assert_eq!(together.core.active_txn_ids(), apart.core.active_txn_ids());
    }

    #[test]
    fn a_vote_is_released_only_after_the_rounds_wal_group_closed() {
        let mut fx = fixture();
        exec_query(&mut fx, TxnId::new(0), false);
        let out = fx.core.run_round(NOW, vec![(TM, prepare_to_commit(0))]);
        assert!(
            matches!(&out.replies[..], [(_, Msg::CommitReply { reply, .. })] if reply.vote.is_yes())
        );
        // The YES vote acknowledges the forced prepare record: by the time
        // the round hands it out, the force has been synced …
        let counters = fx.core.counters();
        assert_eq!((counters.forced_logs, counters.physical_syncs), (1, 1));
        assert!(out.deferred.is_none(), "votes are never deferred");
        // … and the group is closed, not left open: the next round's force
        // gets its own sync.
        fx.core.handle(NOW, TM, commit(0));
        assert_eq!(fx.core.counters().physical_syncs, 2);
    }

    #[test]
    fn a_batch_envelope_in_a_round_is_its_inner_messages_in_order() {
        let (mut enveloped, mut bare) = (fixture(), fixture());
        let inner = |fx: &Fixture| vec![exec(fx, 0, true), prepare_to_commit(0), commit(0)];
        let envelope = vec![(TM, Msg::Batch(inner(&enveloped)))];
        let messages = inner(&bare).into_iter().map(|m| (TM, m)).collect();
        let replies = run(&mut enveloped, vec![envelope]);
        assert_eq!(replies, run(&mut bare, vec![messages]));
        // Vote and ack inline, in order; then the query's deferred proof.
        let kinds: Vec<&str> = replies[0]
            .iter()
            .map(|m| m.split_once(' ').map_or(m.as_str(), |(kind, _)| kind))
            .collect();
        assert_eq!(kinds, ["CommitReply", "Ack", "QueryDone"]);
        assert_eq!(enveloped.core.store().read_int(DataItemId::new(0)), Some(6));
        assert_eq!(enveloped.core.counters(), bare.core.counters());
    }

    /// A 2PV contact at this server carrying query 0 (`Add(item 0, +1)`),
    /// with or without the credential that makes its proof TRUE.
    fn contact(txn: u64, credential: Option<&Credential>) -> Msg {
        Msg::PrepareToValidate {
            txn: TxnId::new(txn),
            new_query: Some((
                0,
                Arc::new(QuerySpec::new(
                    ServerId::new(0),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(0), 1)],
                )),
            )),
            user: UserId::new(1),
            credentials: credential.into_iter().cloned().collect(),
        }
    }

    /// One message through a round of its own (`handle`); the one reply
    /// it is owed.
    fn feed(core: &mut Core, msg: Msg) -> Msg {
        let mut replies = core.handle(NOW, TM, msg);
        assert_eq!(replies.len(), 1, "{replies:?}");
        replies.remove(0).1
    }

    fn abort(txn: u64) -> Msg {
        Msg::Decision {
            txn: TxnId::new(txn),
            decision: Decision::Abort,
        }
    }

    #[test]
    fn a_2pv_contact_executes_the_query_it_carries_once() {
        let mut fx = fixture();
        // The contact and its duplicate both prove; only one adds.
        for _ in 0..2 {
            let reply = feed(&mut fx.core, contact(1, Some(&fx.credential)));
            assert!(matches!(
                &reply,
                Msg::ValidateReply { reply, .. }
                    if reply.vote.is_yes() && reply.truth && reply.proofs.len() == 1
            ));
        }
        assert_eq!(fx.core.counters().proofs, 2);
        feed(&mut fx.core, prepare_to_commit(1));
        feed(&mut fx.core, commit(1));
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(6));
    }

    #[test]
    fn a_lock_conflict_at_the_contact_votes_no_and_proves_nothing() {
        let mut fx = fixture();
        feed(&mut fx.core, contact(1, Some(&fx.credential)));
        let reply = feed(&mut fx.core, contact(2, Some(&fx.credential)));
        assert!(matches!(
            &reply,
            Msg::ValidateReply { reply, .. }
                if !reply.vote.is_yes() && reply.conflict && reply.proofs.is_empty()
        ));
        assert_eq!(fx.core.counters().proofs, 1, "only the lock holder proved");
    }

    #[test]
    fn an_abort_after_a_false_proof_at_the_contact_undoes_the_query() {
        let mut fx = fixture();
        // No credential: the proof is FALSE, but the query ran first —
        // its exclusive lock turns the next transaction away.
        let reply = feed(&mut fx.core, contact(1, None));
        assert!(matches!(
            &reply,
            Msg::ValidateReply { reply, .. } if reply.vote.is_yes() && !reply.truth
        ));
        let reply = feed(&mut fx.core, contact(2, Some(&fx.credential)));
        assert!(matches!(&reply, Msg::ValidateReply { reply, .. } if reply.conflict));
        feed(&mut fx.core, abort(2));

        // The abort releases the lock and drops the buffered write: a
        // follow-up commits 5 + 1, not 5 + 2, and nothing else moved.
        feed(&mut fx.core, abort(1));
        assert_eq!(fx.core.active_txns(), 0);
        feed(&mut fx.core, contact(3, Some(&fx.credential)));
        feed(&mut fx.core, prepare_to_commit(3));
        feed(&mut fx.core, commit(3));
        let items: Vec<_> = fx.core.store().iter().map(|(id, _)| id).collect();
        assert_eq!(items, [DataItemId::new(0)]);
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(6));
    }
}
