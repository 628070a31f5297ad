//! The blocking TM loop: the one place [`TmEffect`]s become I/O.
//!
//! [`drive_tm`] feeds a [`TmCore`] from a transport and performs its
//! effects on it and on the deployment's [`TmAuthority`] (master consults,
//! decision records). The transport is a [`TmIo`]: channels in
//! `safetx-runtime`, framed sockets in `safetx-net` — over one
//! decision-log group or several. Everything protocol-shaped — effect order,
//! the master consult after the batch, envelope flattening, stale-reply
//! accounting, where a coordinator crash cuts — lives here once.

use crate::messages::{Msg, MsgKind};
use crate::tm_core::{reply_counts_as_dropped, TmCore, TmEffect, TmEvent, TxnTermination};
use crate::validation::VersionMap;
use safetx_txn::{CommitVariant, CoordinatorLog, CoordinatorRecord, Decision, InquiryAnswer};
use safetx_types::{ServerId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A *coordinator* (TM-side) crash point: the protocol moment at which a
/// TM dies mid-transaction, leaving its participants to the termination
/// protocol — the classic blocked-participant scenarios of 2PC/2PVC.
///
/// The safety anchor is the force-before-vote discipline the core already
/// follows: `CoordinatorRecord::Collecting` is force-logged before any
/// vote is solicited and `CoordinatorRecord::Decision` before any
/// decision is sent, so whichever window the coordinator dies in, the
/// decision log determines (never contradicts) the answer recovery gives
/// each participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmCrashPoint {
    /// Die right after the first send of the given kind leaves (e.g.
    /// after `PrepareToCommit` is out — participants prepare and block).
    AfterSend(MsgKind),
    /// Die *instead of* force-logging the decision record: votes are in,
    /// the outcome was computed, but nothing durable records it.
    /// Termination answers from the forced `Collecting` record — abort.
    BeforeDecisionForce,
    /// Die right after force-logging the decision record, before any
    /// decision send leaves: participants are in-doubt, but the log
    /// already knows the outcome — termination delivers it.
    AfterDecisionForce,
}

/// The termination protocol's message for a participant that still holds
/// state for `txn` on a **quiesced** deployment — no coordinator in flight
/// (a transaction mid-2PVC has no decision record yet and would be
/// answered from its variant's presumption, which can contradict the
/// decision its coordinator is about to take).
///
/// An *in-doubt* participant (prepared, voted YES) gets the inquiry answer
/// from the coordinator decision `log` under the termination `variant`.
/// Basic 2PC's blocking case (no record, no presumption) resolves to
/// ABORT: the coordinator is gone for good, so the absence of a forced
/// decision record proves no participant ever saw COMMIT — the one place
/// that coordinator-recovery rule lives. A participant that never reached a
/// vote gets a unilateral `Decision::Abort` instead: its vote was never
/// cast, so no coordinator can have committed with it, and a presumption
/// answer (presumed-commit in particular) must never reach an unprepared
/// transaction.
pub fn terminate_leftover(
    txn: TxnId,
    in_doubt: bool,
    variant: CommitVariant,
    log: &CoordinatorLog,
) -> Msg {
    if !in_doubt {
        return Msg::Decision {
            txn,
            decision: Decision::Abort,
        };
    }
    let answer = match log.answer(txn, variant) {
        InquiryAnswer::Unknown => InquiryAnswer::Decided(Decision::Abort),
        decided => decided,
    };
    Msg::InquiryReply { txn, answer }
}

/// What [`drive_tm`] needs from a transport, for one transaction: the
/// coordinator's end of whatever carries messages to the servers.
pub trait TmIo {
    /// Protocol send to a server. May buffer until [`TmIo::flush`].
    fn send(&mut self, server: ServerId, msg: Msg);
    /// Called once an effect batch has been performed: buffered sends must
    /// be on the wire when this returns.
    fn flush(&mut self) {}
    /// The next reply addressed to this transaction's coordinator and the
    /// server it came from, waiting at most `deadline` (forever when
    /// `None`). `None` when the deadline expired or no reply can arrive
    /// any more.
    fn recv(&mut self, deadline: Option<Duration>) -> Option<(ServerId, Msg)>;
    /// A reply that already arrived, without blocking. Called only after
    /// the transaction has terminated, to count stragglers.
    fn try_recv(&mut self) -> Option<Msg>;
}

/// What [`drive_tm`] needs from the deployment besides a transport: the
/// master version server and the coordinator decision logs.
pub trait TmAuthority {
    /// The master's latest version per policy.
    fn master_versions(&self) -> Arc<VersionMap>;
    /// Forces a coordinator record to every decision log recovery may
    /// consult, before the protocol proceeds.
    fn force_decision(&mut self, record: CoordinatorRecord);
    /// Appends a non-forced coordinator record to the same logs.
    fn append_decision(&mut self, record: CoordinatorRecord);
}

/// A finished [`drive_tm`] run.
#[derive(Debug)]
pub struct TmRun {
    /// The core's termination record.
    pub termination: TxnTermination,
    /// Stale replies observed (by the loop and by the core), under the
    /// [`reply_counts_as_dropped`] rule.
    pub dropped_replies: u64,
}

/// Drives `core` to termination over `io`: performs each effect batch in
/// order, answers a master consult only after the whole batch has flushed
/// (so sends keep their protocol order), and turns each reply — or the
/// expiry of `reply_timeout`, this loop's failure detector — into the next
/// event.
///
/// With a `crash` point scheduled the loop stops dead at the matching
/// protocol moment and returns `None`: no further effects are performed
/// and nothing is cleaned up. Effects performed *before* the crash point
/// (sends on the wire, records in the decision log) stand, exactly as a
/// process kill would leave them; the participants' termination protocol
/// owns whatever is left. `Some` means the transaction finished first.
pub fn drive_tm(
    io: &mut impl TmIo,
    authority: &mut impl TmAuthority,
    mut core: TmCore,
    now: impl Fn() -> Timestamp,
    reply_timeout: Option<Duration>,
    crash: Option<TmCrashPoint>,
) -> Option<TmRun> {
    let txn = core.txn();
    // Stale inputs this loop observed itself (the core tracks the ones it
    // was fed).
    let mut dropped = 0u64;
    // Messages unpacked from a coalesced [`Msg::Batch`] envelope and not
    // yet fed to the core: drained before the transport is read again so
    // batched replies keep their in-envelope order.
    let mut pending: VecDeque<(ServerId, Msg)> = VecDeque::new();

    let mut effects = core.start(now());
    let termination = loop {
        let mut consult_master = false;
        let mut finished = None;
        for effect in effects {
            match effect {
                TmEffect::Send(server, msg) => {
                    let kind = MsgKind::of(&msg);
                    io.send(server, msg);
                    if crash == Some(TmCrashPoint::AfterSend(kind)) {
                        // The frame left; the coordinator dies before the
                        // rest of this effect batch.
                        io.flush();
                        return None;
                    }
                }
                TmEffect::QueryMaster => consult_master = true,
                TmEffect::ForceLog { record, .. } => {
                    let is_decision = matches!(record, CoordinatorRecord::Decision { .. });
                    if is_decision && crash == Some(TmCrashPoint::BeforeDecisionForce) {
                        // The outcome was computed but never became
                        // durable; termination must answer from the
                        // forced Collecting record (abort).
                        io.flush();
                        return None;
                    }
                    authority.force_decision(record);
                    if is_decision && crash == Some(TmCrashPoint::AfterDecisionForce) {
                        // The decision is durable but no participant has
                        // heard it: the effect batch orders the force
                        // before every decision send, all of which now
                        // die with the coordinator.
                        io.flush();
                        return None;
                    }
                }
                TmEffect::Log(record) => authority.append_decision(record),
                // The reply deadline below is this loop's failure
                // detector; the idle watchdog is never configured.
                TmEffect::ArmTimer(_) | TmEffect::Decided(_) => {}
                TmEffect::Finished(t) => finished = Some(*t),
            }
        }
        io.flush();
        if let Some(termination) = finished {
            break termination;
        }
        if consult_master {
            let versions = authority.master_versions();
            effects = core.step(now(), TmEvent::MasterVersions { versions });
            continue;
        }
        let event = loop {
            // First anything left over from a coalesced envelope, then
            // the transport.
            let Some((from, msg)) = pending.pop_front().or_else(|| io.recv(reply_timeout)) else {
                break TmEvent::ReplyTimeout;
            };
            match msg {
                Msg::Batch(msgs) => pending.extend(msgs.into_iter().map(|m| (from, m))),
                msg => match TmEvent::from_reply(txn, from, msg) {
                    Ok(event) => break event,
                    Err(counts_as_dropped) => dropped += u64::from(counts_as_dropped),
                },
            }
        };
        effects = core.step(now(), event);
    };

    // Count stale stragglers without blocking, under the same rule the
    // core applies: acks never count, everything else does — message by
    // message (a coalesced envelope is several replies, not one).
    let mut count = |msg: &Msg| match msg {
        Msg::Batch(msgs) => {
            dropped += msgs.iter().filter(|m| reply_counts_as_dropped(m)).count() as u64
        }
        msg => dropped += u64::from(reply_counts_as_dropped(msg)),
    };
    for (_, msg) in &pending {
        count(msg);
    }
    while let Some(msg) = io.try_recv() {
        count(&msg);
    }
    Some(TmRun {
        termination,
        dropped_replies: dropped + core.dropped_replies(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TXN: TxnId = TxnId::new(7);

    fn log_of(records: &[CoordinatorRecord]) -> CoordinatorLog {
        let mut log = CoordinatorLog::default();
        records.iter().for_each(|record| log.force(record));
        log
    }

    fn answer(msg: Msg) -> Option<Decision> {
        match msg {
            Msg::InquiryReply {
                txn,
                answer: InquiryAnswer::Decided(decision),
            } if txn == TXN => Some(decision),
            other => panic!("expected a decided inquiry reply, got {other:?}"),
        }
    }

    #[test]
    fn no_record_under_standard_terminates_to_abort() {
        let msg = terminate_leftover(
            TXN,
            true,
            CommitVariant::Standard,
            &CoordinatorLog::default(),
        );
        assert_eq!(answer(msg), Some(Decision::Abort));
    }

    #[test]
    fn a_prc_collecting_record_alone_terminates_to_abort() {
        let log = log_of(&[CoordinatorRecord::Collecting {
            txn: TXN,
            participants: vec![ServerId::new(0), ServerId::new(1)],
        }]);
        let msg = terminate_leftover(TXN, true, CommitVariant::PresumedCommit, &log);
        assert_eq!(answer(msg), Some(Decision::Abort));
    }

    #[test]
    fn a_recorded_decision_wins_over_every_presumption() {
        for variant in [
            CommitVariant::Standard,
            CommitVariant::PresumedAbort,
            CommitVariant::PresumedCommit,
        ] {
            for decision in [Decision::Commit, Decision::Abort] {
                let log = log_of(&[
                    CoordinatorRecord::Collecting {
                        txn: TXN,
                        participants: vec![ServerId::new(0)],
                    },
                    CoordinatorRecord::Decision { txn: TXN, decision },
                ]);
                let msg = terminate_leftover(TXN, true, variant, &log);
                assert_eq!(answer(msg), Some(decision), "{variant:?}");
            }
        }
    }

    #[test]
    fn restart_and_termination_agree_on_a_reused_id() {
        // The id's first coordinator aborted and finished; a second run
        // under the same id logs a commit. Both lookups keep the first.
        let mut log = log_of(&[CoordinatorRecord::Decision {
            txn: TXN,
            decision: Decision::Abort,
        }]);
        log.finish(TXN);
        log.force(&CoordinatorRecord::Decision {
            txn: TXN,
            decision: Decision::Commit,
        });
        assert_eq!(log.decision(TXN), Some(Decision::Abort));
        let msg = terminate_leftover(TXN, true, CommitVariant::PresumedCommit, &log);
        assert_eq!(answer(msg), Some(Decision::Abort));
    }

    #[test]
    fn an_unprepared_participant_gets_a_unilateral_abort() {
        // Even with a commit on record and under presumed commit: its vote
        // was never cast, so the answer is a plain abort decision.
        let log = log_of(&[CoordinatorRecord::Decision {
            txn: TXN,
            decision: Decision::Commit,
        }]);
        for variant in [CommitVariant::Standard, CommitVariant::PresumedCommit] {
            assert!(matches!(
                terminate_leftover(TXN, false, variant, &log),
                Msg::Decision {
                    txn: TXN,
                    decision: Decision::Abort
                }
            ));
        }
    }
}
