//! The TM driver: the one place [`TmEffect`]s are performed.
//!
//! [`TmDriver`] owns one transaction's [`TmCore`] and is sans-io: it
//! performs each effect batch in order through a [`TmSink`], unpacks
//! [`Msg::Batch`] envelopes, counts stale replies, cuts at a
//! [`TmCrashPoint`], and tells its caller what to do next ([`TmNext`]).
//! Two callers run it: [`drive_tm`], the blocking loop every runtime lends
//! a thread to over a [`TmIo`] transport — channels in `safetx-runtime`,
//! framed sockets in `safetx-net`, over one decision-log group or several
//! — and the simulator's [`crate::TmActor`], one world event at a time.

use crate::messages::{Msg, MsgKind};
use crate::tm_core::{reply_counts_as_dropped, TmCore, TmEffect, TmEvent, TxnTermination};
use crate::validation::VersionMap;
use safetx_txn::{CommitVariant, CoordinatorLog, CoordinatorRecord, Decision, InquiryAnswer};
use safetx_types::{ServerId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
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

/// A finished transaction.
#[derive(Debug)]
pub struct TmRun {
    /// The core's termination record.
    pub termination: TxnTermination,
    /// Stale replies observed (by the driver and by the core), under the
    /// [`reply_counts_as_dropped`] rule.
    pub dropped_replies: u64,
}

/// Where a [`TmDriver`] reads the clock and performs effects, each at its
/// position in its batch; the hooks with a default body serve the simulator.
pub(crate) trait TmSink {
    fn now(&self) -> Timestamp;
    fn send(&mut self, server: ServerId, msg: Msg);
    fn flush(&mut self) {}
    fn force(&mut self, record: CoordinatorRecord, in_commit: bool);
    fn append(&mut self, record: CoordinatorRecord);
    fn query_master(&mut self, _txn: TxnId) {}
    fn arm_timer(&mut self, _txn: TxnId, _after: safetx_types::Duration) {}
    fn decided(&mut self, _decision: Decision) {}
}

/// What a [`TmDriver`]'s caller must do next.
#[derive(Debug)]
pub(crate) enum TmNext {
    /// Feed the next reply, or a timer's expiry.
    AwaitReply,
    /// Feed the master's versions before any reply.
    ConsultMaster,
    Finished(TmRun),
    /// Nothing after the crash point was performed or cleaned up.
    Crashed,
}

/// One transaction's coordinator, sans io: it feeds its [`TmCore`] and
/// performs the effects.
pub(crate) struct TmDriver {
    core: TmCore,
    crash: Option<TmCrashPoint>,
    /// The replies of a [`Msg::Batch`] envelope not yet fed, in order.
    pending: VecDeque<(ServerId, Msg)>,
    /// Stale replies the driver saw; the core counts those it was fed.
    dropped: u64,
}

impl TmDriver {
    pub(crate) fn new(core: TmCore, crash: Option<TmCrashPoint>) -> Self {
        TmDriver {
            core,
            crash,
            pending: VecDeque::new(),
            dropped: 0,
        }
    }

    pub(crate) fn start(&mut self, sink: &mut impl TmSink) -> TmNext {
        let effects = self.core.start(sink.now());
        self.perform(sink, effects)
    }

    /// Feeds a reply `from` a server: an envelope's replies in order, each
    /// only while the core awaits replies.
    pub(crate) fn reply(&mut self, sink: &mut impl TmSink, from: ServerId, msg: Msg) -> TmNext {
        let next = self.feed(sink, from, msg);
        self.drain(sink, next)
    }

    /// Feeds the master's versions or a timer's expiry.
    pub(crate) fn event(&mut self, sink: &mut impl TmSink, event: TmEvent) -> TmNext {
        let effects = self.core.step(sink.now(), event);
        let next = self.perform(sink, effects);
        self.drain(sink, next)
    }

    fn drain(&mut self, sink: &mut impl TmSink, mut next: TmNext) -> TmNext {
        while let TmNext::AwaitReply = next {
            let Some((from, msg)) = self.pending.pop_front() else {
                break;
            };
            next = self.feed(sink, from, msg);
        }
        next
    }

    fn feed(&mut self, sink: &mut impl TmSink, from: ServerId, msg: Msg) -> TmNext {
        match msg {
            Msg::Batch(msgs) => self.pending.extend(msgs.into_iter().map(|m| (from, m))),
            msg => match TmEvent::from_reply(self.core.txn(), from, msg) {
                Ok(event) => {
                    let effects = self.core.step(sink.now(), event);
                    return self.perform(sink, effects);
                }
                Err(counts_as_dropped) => self.dropped += u64::from(counts_as_dropped),
            },
        }
        TmNext::AwaitReply
    }

    /// Performs one effect batch in order, then flushes.
    fn perform(&mut self, sink: &mut impl TmSink, effects: Vec<TmEffect>) -> TmNext {
        let mut next = TmNext::AwaitReply;
        for effect in effects {
            match effect {
                TmEffect::Send(server, msg) => {
                    let kind = MsgKind::of(&msg);
                    sink.send(server, msg);
                    if self.crash == Some(TmCrashPoint::AfterSend(kind)) {
                        return cut(sink);
                    }
                }
                TmEffect::ForceLog { record, in_commit } => {
                    let decision = matches!(record, CoordinatorRecord::Decision { .. });
                    let at = |point| decision && self.crash == Some(point);
                    if at(TmCrashPoint::BeforeDecisionForce) {
                        return cut(sink);
                    }
                    sink.force(record, in_commit);
                    if at(TmCrashPoint::AfterDecisionForce) {
                        return cut(sink);
                    }
                }
                TmEffect::Log(record) => sink.append(record),
                TmEffect::QueryMaster => {
                    sink.query_master(self.core.txn());
                    next = TmNext::ConsultMaster;
                }
                TmEffect::ArmTimer(after) => sink.arm_timer(self.core.txn(), after),
                TmEffect::Decided(decision) => sink.decided(decision),
                // The core's last effect. Replies still queued are stale.
                TmEffect::Finished(termination) => {
                    let queued: u64 = self.pending.iter().map(|(_, msg)| stale(msg)).sum();
                    next = TmNext::Finished(TmRun {
                        termination: *termination,
                        dropped_replies: self.dropped + self.core.dropped_replies() + queued,
                    });
                }
            }
        }
        sink.flush();
        next
    }
}

/// A crash cut: what was sent before it leaves, nothing else happens.
fn cut(sink: &mut impl TmSink) -> TmNext {
    sink.flush();
    TmNext::Crashed
}

/// The replies in `msg` that count as dropped: a coalesced envelope is
/// several replies, not one.
fn stale(msg: &Msg) -> u64 {
    match msg {
        Msg::Batch(msgs) => msgs.iter().filter(|m| reply_counts_as_dropped(m)).count() as u64,
        msg => u64::from(reply_counts_as_dropped(msg)),
    }
}

/// Drives `core` to termination over `io` through a [`TmDriver`]: records
/// go to every log recovery may consult (`logs`, folded once finished), a
/// master consult is answered from `master` only after the whole batch has
/// flushed (so sends keep their protocol order), and each reply — or the
/// expiry of `reply_timeout`, this loop's failure detector — is the next
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
    logs: &[&Mutex<CoordinatorLog>],
    master: impl Fn() -> Arc<VersionMap>,
    core: TmCore,
    now: impl Fn() -> Timestamp,
    reply_timeout: Option<Duration>,
    crash: Option<TmCrashPoint>,
) -> Option<TmRun> {
    let txn = core.txn();
    let mut driver = TmDriver::new(core, crash);
    let mut sink = (io, logs, now);
    let mut next = driver.start(&mut sink);
    let mut run = loop {
        next = match next {
            TmNext::AwaitReply => match sink.0.recv(reply_timeout) {
                Some((from, msg)) => driver.reply(&mut sink, from, msg),
                None => driver.event(&mut sink, TmEvent::ReplyTimeout),
            },
            TmNext::ConsultMaster => {
                driver.event(&mut sink, TmEvent::MasterVersions { versions: master() })
            }
            TmNext::Finished(run) => break run,
            TmNext::Crashed => return None,
        };
    };
    each(logs, |log| log.finish(txn));
    // Stragglers that already arrived, without blocking.
    while let Some(msg) = sink.0.try_recv() {
        run.dropped_replies += stale(&msg);
    }
    Some(run)
}

/// [`drive_tm`]'s sink. The idle watchdog is never armed: the reply
/// deadline is this loop's failure detector.
impl<I: TmIo, N: Fn() -> Timestamp> TmSink for (&mut I, &[&Mutex<CoordinatorLog>], N) {
    fn now(&self) -> Timestamp {
        (self.2)()
    }
    fn send(&mut self, server: ServerId, msg: Msg) {
        self.0.send(server, msg);
    }
    fn flush(&mut self) {
        self.0.flush();
    }
    fn force(&mut self, record: CoordinatorRecord, _in_commit: bool) {
        each(self.1, |log| log.force(&record));
    }
    fn append(&mut self, record: CoordinatorRecord) {
        each(self.1, |log| log.append(&record));
    }
}

/// Applies `f` to every decision log, one lock at a time.
fn each(logs: &[&Mutex<CoordinatorLog>], f: impl Fn(&mut CoordinatorLog)) {
    for log in logs {
        f(&mut log.lock().expect("decision log lock"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::ConsistencyLevel;
    use crate::scheme::ProofScheme;
    use crate::tm_core::TmConfig;
    use crate::validation::ValidationReply;
    use safetx_txn::{Operation, QuerySpec, TransactionSpec};
    use safetx_types::{DataItemId, UserId};

    const TXN: TxnId = TxnId::new(7);

    /// The coordinator crash points, in protocol order.
    const CRASH_POINTS: [TmCrashPoint; 5] = [
        TmCrashPoint::AfterSend(MsgKind::ExecQuery),
        TmCrashPoint::AfterSend(MsgKind::PrepareToCommit),
        TmCrashPoint::BeforeDecisionForce,
        TmCrashPoint::AfterDecisionForce,
        TmCrashPoint::AfterSend(MsgKind::Decision),
    ];

    const VARIANTS: [CommitVariant; 3] = [
        CommitVariant::Standard,
        CommitVariant::PresumedAbort,
        CommitVariant::PresumedCommit,
    ];

    /// A driver for one write on each of `servers` servers.
    fn driver(
        scheme: ProofScheme,
        consistency: ConsistencyLevel,
        variant: CommitVariant,
        servers: u64,
        crash: Option<TmCrashPoint>,
    ) -> TmDriver {
        let queries = (0..servers)
            .map(|s| {
                let write = vec![Operation::Add(DataItemId::new(s), 1)];
                QuerySpec::new(ServerId::new(s), "write", "records", write)
            })
            .collect();
        let spec = TransactionSpec::new(TXN, UserId::new(1), queries);
        let config = TmConfig::new(scheme, consistency, variant);
        TmDriver::new(
            TmCore::new(config, spec, Vec::new(), Timestamp::ZERO),
            crash,
        )
    }

    /// A scripted world: records what the driver performs, in order, and
    /// queues the reply a healthy participant gives each protocol send.
    #[derive(Default)]
    struct Script {
        seen: Vec<String>,
        log: CoordinatorLog,
        replies: VecDeque<(ServerId, Msg)>,
    }

    impl TmSink for Script {
        fn now(&self) -> Timestamp {
            Timestamp::ZERO
        }
        fn send(&mut self, server: ServerId, msg: Msg) {
            self.seen
                .push(format!("send {:?} {server:?}", MsgKind::of(&msg)));
            let reply = match msg {
                Msg::ExecQuery {
                    txn, query_index, ..
                } => Msg::QueryDone {
                    txn,
                    query_index,
                    ok: true,
                    proof: None,
                    capability: None,
                },
                Msg::PrepareToCommit { txn, .. } => Msg::CommitReply {
                    txn,
                    reply: ValidationReply::empty_true(),
                },
                Msg::Decision { txn, .. } => Msg::Ack { txn },
                other => panic!("unscripted send {other:?}"),
            };
            self.replies.push_back((server, reply));
        }
        fn flush(&mut self) {
            self.seen.push("flush".into());
        }
        fn force(&mut self, record: CoordinatorRecord, _in_commit: bool) {
            self.seen.push(format!("force {record:?}"));
            self.log.force(&record);
        }
        fn append(&mut self, record: CoordinatorRecord) {
            self.seen.push(format!("append {record:?}"));
            self.log.append(&record);
        }
        fn query_master(&mut self, _txn: TxnId) {
            self.seen.push("query master".into());
        }
    }

    /// Runs a Deferred/View transaction over two servers, each reply fed
    /// as its own message, until it stops awaiting replies.
    fn run(variant: CommitVariant, crash: Option<TmCrashPoint>) -> (Script, TmNext) {
        let mut script = Script::default();
        let mut driver = driver(
            ProofScheme::Deferred,
            ConsistencyLevel::View,
            variant,
            2,
            crash,
        );
        let mut next = driver.start(&mut script);
        while let TmNext::AwaitReply = next {
            let (from, msg) = script.replies.pop_front().expect("a scripted reply");
            next = driver.reply(&mut script, from, msg);
        }
        (script, next)
    }

    #[test]
    fn every_crash_point_cuts_a_clean_run_at_its_moment() {
        for variant in VARIANTS {
            let (clean, next) = run(variant, None);
            assert!(matches!(next, TmNext::Finished(_)), "{variant:?}");
            for point in CRASH_POINTS {
                let cell = format!("{variant:?} / {point:?}");
                let (cut, next) = run(variant, Some(point));
                assert!(matches!(next, TmNext::Crashed), "{cell}: {next:?}");
                // Everything the clean run performed up to the cut, then
                // the cut's flush, and nothing after it.
                let (flush, done) = cut.seen.split_last().expect("effects");
                assert_eq!(flush, "flush", "{cell}");
                assert_eq!(done, &clean.seen[..done.len()], "{cell}");
                let last = done.last().expect("an effect before the cut");
                let decision = cut.log.decision(TXN);
                match point {
                    TmCrashPoint::AfterSend(kind) => {
                        assert!(
                            last.starts_with(&format!("send {kind:?}")),
                            "{cell}: {last}"
                        );
                    }
                    TmCrashPoint::BeforeDecisionForce => {
                        let skipped = &clean.seen[done.len()];
                        assert!(skipped.starts_with("force Decision"), "{cell}: {skipped}");
                        assert_eq!(decision, None, "{cell}");
                    }
                    TmCrashPoint::AfterDecisionForce => {
                        assert!(last.starts_with("force Decision"), "{cell}: {last}");
                        assert_eq!(decision, Some(Decision::Commit), "{cell}");
                        let sent = |e: &&String| e.starts_with("send Decision");
                        assert_eq!(done.iter().filter(sent).count(), 0, "{cell}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_envelope_is_fed_in_order_and_what_is_left_counts_as_stale() {
        let mut script = Script::default();
        let mut driver = driver(
            ProofScheme::Deferred,
            ConsistencyLevel::View,
            CommitVariant::Standard,
            1,
            None,
        );
        let _ = driver.start(&mut script);
        let (from, done) = script.replies.pop_front().expect("QueryDone");
        let _ = driver.reply(&mut script, from, done.clone());
        let (_, vote) = script.replies.pop_front().expect("the vote");
        let ack = Msg::Ack { txn: TXN };
        // Reversed, the ack would come before any decision and the
        // transaction would still be waiting for it.
        let envelope = vec![vote.clone(), ack.clone(), vote, ack, done];
        match driver.reply(&mut script, from, Msg::Batch(envelope)) {
            TmNext::Finished(run) => {
                assert!(run.termination.outcome.is_commit());
                // The duplicate vote and query reply count; the ack does not.
                assert_eq!(run.dropped_replies, 2);
            }
            other => panic!("the envelope's ack finishes the transaction, got {other:?}"),
        }
    }

    #[test]
    fn a_master_consult_is_answered_before_the_envelope_goes_on() {
        let mut script = Script::default();
        let mut driver = driver(
            ProofScheme::IncrementalPunctual,
            ConsistencyLevel::Global,
            CommitVariant::Standard,
            2,
            None,
        );
        let versions = Arc::new(VersionMap::new());
        let master = TmEvent::MasterVersions {
            versions: Arc::clone(&versions),
        };
        assert!(matches!(driver.start(&mut script), TmNext::ConsultMaster));
        assert!(matches!(
            driver.event(&mut script, master),
            TmNext::AwaitReply
        ));
        let done = |query_index| Msg::QueryDone {
            txn: TXN,
            query_index,
            ok: true,
            proof: None,
            capability: None,
        };
        let envelope = Msg::Batch(vec![done(0), done(1)]);
        let next = driver.reply(&mut script, ServerId::new(0), envelope);
        // Query 1's master check stops the envelope before its reply.
        assert!(matches!(next, TmNext::ConsultMaster), "{next:?}");
        assert_eq!(driver.pending.len(), 1);
        let prepare = |seen: &Script| {
            seen.seen
                .iter()
                .any(|e| e.starts_with("send PrepareToCommit"))
        };
        assert!(!prepare(&script));
        let master = TmEvent::MasterVersions { versions };
        let next = driver.event(&mut script, master);
        assert!(matches!(next, TmNext::AwaitReply), "{next:?}");
        assert!(driver.pending.is_empty());
        assert!(prepare(&script), "query 1's reply was fed after the answer");
    }

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
