//! One server round: the only way anything feeds a [`ServerCore`].
//!
//! [`ServerCore::handle`] takes one message and returns the replies it
//! owes, all of it in place: the protocol plane — registration, locks,
//! write sets, votes, decisions, WAL — and the message's proofs, evaluated
//! through one [`crate::BatchEval`] of the shareable [`crate::DataPlane`].
//! Each force syncs when it is forced, before `handle` returns, so no reply
//! that acknowledges a force exists before that force is durable. The
//! simulator, both links and the control plane's termination answers all
//! feed the same participant through it, one message at a time.

use crate::messages::Msg;
use crate::server::{capability_key, Refused, ServerCore};
use crate::validation::ValidationReply;
use safetx_policy::{AccessCapability, Credential, ProofOfAuthorization};
use safetx_txn::QuerySpec;
use safetx_types::{Duration, Timestamp, TxnId, UserId};

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
    /// Handles one message arriving from `from` at instant `now` and
    /// returns the messages to send. A [`Msg::Batch`] envelope is ignored:
    /// no peer forms one.
    pub fn handle(&mut self, now: Timestamp, from: A, msg: Msg) -> Vec<(A, Msg)> {
        let mut replies = Vec::new();
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
                // Nothing to prove.
                Ok(()) if !evaluate_proof => {
                    replies.push((from, query_done(txn, query_index, true)));
                }
                Ok(()) => {
                    let (proof, capability) =
                        self.prove_query(now, txn, &query, user, &credentials, &capabilities);
                    let done = Msg::QueryDone {
                        txn,
                        query_index,
                        ok: true,
                        proof: Some(proof),
                        capability,
                    };
                    replies.push((from, done));
                }
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
                    Ok(()) => replies.push((from, self.validate_reply(now, txn))),
                }
            }
            // In-commit updates touch the participant state machine.
            Msg::Update {
                txn,
                targets,
                in_commit: false,
            } => {
                self.fast_forward(&targets);
                // No state here: a vacuous reply.
                replies.push((from, self.validate_reply(now, txn)));
            }
            other => self.handle_into(now, from, other, &mut replies),
        }
        replies
    }

    /// The proof of an executed query that asked for one, and in the
    /// unsafe baseline the capability a granted proof issues.
    fn prove_query(
        &self,
        now: Timestamp,
        txn: TxnId,
        query: &QuerySpec,
        user: UserId,
        credentials: &[Credential],
        capabilities: &[AccessCapability],
    ) -> (ProofOfAuthorization, Option<AccessCapability>) {
        // Unsafe baseline: a previously issued capability passes for a
        // proof — no policy evaluation, no credential status check. This
        // is exactly how Bob's stale "read credential" slipped through in
        // the paper's Figure 1.
        let honoured = self.capability_shortcut
            && capabilities.iter().any(|cap| {
                cap.user() == user
                    && cap.txn() == txn
                    && cap.action() == query.action
                    && cap.resource() == query.resource
                    && cap.verify(capability_key(cap.issuer()), now)
            });
        let proof = if honoured {
            self.data.proof_from_capability(now, user, query)
        } else {
            self.data.evaluate_one(now, user, credentials, query)
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
        (proof, capability)
    }

    /// The YES `ValidateReply` of a 2PV contact or a standalone update:
    /// every query `txn` holds here, proved in one batch (vacuously true
    /// when it holds none).
    fn validate_reply(&self, now: Timestamp, txn: TxnId) -> Msg {
        let (truth, versions, proofs) = self.evaluate_all(now, txn);
        let reply = ValidationReply {
            truth,
            versions,
            proofs,
            ..ValidationReply::empty_true()
        };
        Msg::ValidateReply { txn, reply }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MsgKind;
    use crate::server::fixture::*;
    use crate::validation::VersionMap;
    use safetx_txn::{Decision, Operation};
    use safetx_types::{DataItemId, ServerId};
    use std::sync::Arc;

    const NOW: Timestamp = Timestamp::from_millis(1);
    /// A second coordinator, so replies have two destinations.
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

    /// A mixed sequence: TM drives transaction 1 through the messages that
    /// prove (a query, a 2PV contact, a standalone update), TM2 drives
    /// transaction 2 through the ones that force (vote, decision).
    fn mixed(fx: &Fixture) -> Vec<(u8, Msg)> {
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

    #[test]
    fn each_message_gets_its_own_replies_and_each_force_its_own_sync() {
        let mut fx = fixture();
        let mut kinds = [Vec::new(), Vec::new()];
        for (from, msg) in mixed(&fx) {
            let replies = fx.core.handle(NOW, from, msg);
            assert_eq!(replies.len(), 1, "{replies:?}");
            for (to, msg) in replies {
                assert_eq!(to, from, "a reply goes to the sender");
                kinds[usize::from(to - TM)].push(format!("{:?}", MsgKind::of(&msg)));
            }
        }
        assert_eq!(kinds[0], ["QueryDone", "ValidateReply", "ValidateReply"]);
        assert_eq!(kinds[1], ["QueryDone", "CommitReply", "Ack"]);
        // Transaction 1 proved its one query three times, transaction 2
        // once at its validating vote, each in place; that vote and the
        // decision are two forces, two syncs.
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 4);
        assert_eq!((counters.forced_logs, counters.physical_syncs), (2, 2));
        assert_eq!(fx.core.wal().forced_count(), 2);
        assert_eq!(fx.core.store().read_int(DataItemId::new(2)), Some(1));
        assert_eq!(fx.core.active_txn_ids(), [TxnId::new(1)]);
    }

    #[test]
    fn a_vote_is_returned_only_after_its_force_synced() {
        let mut fx = fixture();
        exec_query(&mut fx, TxnId::new(0), false);
        let cost = std::time::Duration::from_millis(2);
        fx.core.set_wal_sync_cost(cost);
        let start = std::time::Instant::now();
        let replies = fx.core.handle(NOW, TM, prepare_to_commit(0));
        let took = start.elapsed();
        assert!(
            matches!(&replies[..], [(_, Msg::CommitReply { reply, .. })] if reply.vote.is_yes())
        );
        // The YES vote acknowledges the forced prepare record: by the time
        // `handle` returns it, the force has been synced and its device
        // wait paid.
        let counters = fx.core.counters();
        assert_eq!((counters.forced_logs, counters.physical_syncs), (1, 1));
        assert!(took >= cost, "the vote came back after {took:?}");
        // The next force gets its own sync.
        fx.core.handle(NOW, TM, commit(0));
        assert_eq!(fx.core.counters().physical_syncs, 2);
    }

    #[test]
    fn a_batch_envelope_is_ignored() {
        let mut fx = fixture();
        let inner = vec![exec(&fx, 0, true), prepare_to_commit(0), commit(0)];
        assert!(fx.core.handle(NOW, TM, Msg::Batch(inner)).is_empty());
        assert_eq!(fx.core.active_txns(), 0);
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(5));
        let counters = fx.core.counters();
        assert_eq!((counters.proofs, counters.forced_logs), (0, 0));
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

    /// One message through `handle`; the one reply it is owed.
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
