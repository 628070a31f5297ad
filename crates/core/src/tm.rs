//! The transaction manager actor: the simulator's adapter over the
//! [`TmDriver`], which performs every [`crate::TmEffect`]. The actor keeps
//! what belongs to the world: transactions by id, `VersionRequest`s to the
//! master actor, world timers for the idle watchdog, inquiry answers from
//! its coordinator log, and the `forced_logs` count and trace marks the
//! bench binaries read.

use crate::messages::{AddressBook, Msg};
use crate::tm_core::{TmConfig, TmCore, TmEvent, TxnTermination};
use crate::tm_loop::{TmCrashPoint, TmDriver, TmNext, TmSink};
use safetx_sim::{Actor, Context, NodeId, TimerTag};
use safetx_txn::{CoordinatorLog, CoordinatorRecord, Decision};
use safetx_types::{Duration, ServerId, Timestamp, TxnId};
use std::collections::HashMap;
use std::sync::Arc;

/// The record of one finished transaction, read back by the harness: the
/// runtime-agnostic [`TxnTermination`] every runtime reports too.
pub type TxnRecord = TxnTermination;

/// The TM actor.
pub struct TmActor {
    book: AddressBook,
    config: TmConfig,
    log: CoordinatorLog,
    /// Every transaction begun here, with its driver while it is live (an
    /// ended one costs its id): a retransmitted `Begin` restarts none.
    txns: HashMap<TxnId, Option<Box<TmDriver>>>,
    completed: Vec<TxnRecord>,
    crashes: HashMap<TxnId, TmCrashPoint>,
}

impl TmActor {
    /// Creates a TM running every transaction under `config`.
    #[must_use]
    pub fn new(book: AddressBook, config: TmConfig) -> Self {
        TmActor {
            book,
            config,
            log: CoordinatorLog::default(),
            txns: HashMap::new(),
            completed: Vec::new(),
            crashes: HashMap::new(),
        }
    }

    /// Kills `txn`'s coordinator at `point`, as a runtime's
    /// `execute_with_coordinator_crash` does: the cut is traced as
    /// `crashed:<txn>`, and its records stay in the log for recovery.
    pub fn crash_at(&mut self, txn: TxnId, point: TmCrashPoint) {
        self.crashes.insert(txn, point);
    }

    /// Finished transactions, in completion order.
    #[must_use]
    pub fn completed(&self) -> &[TxnRecord] {
        &self.completed
    }

    /// Transactions still in flight.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.txns.values().filter(|d| d.is_some()).count()
    }

    /// The coordinator decision log.
    #[must_use]
    pub fn log(&self) -> &CoordinatorLog {
        &self.log
    }

    /// Feeds one input to a live transaction's driver. Inputs for unknown
    /// or ended transactions are stale and ignored.
    fn drive(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        txn: TxnId,
        input: impl FnOnce(&mut TmDriver, &mut Sim<'_, '_>) -> TmNext,
    ) {
        let Some(Some(driver)) = self.txns.get_mut(&txn) else {
            return;
        };
        match input(driver, &mut (ctx, &self.book, &mut self.log)) {
            TmNext::AwaitReply | TmNext::ConsultMaster => return,
            TmNext::Finished(run) => {
                ctx.mark(format!("finished:{txn}"));
                self.log.finish(txn);
                self.completed.push(run.termination);
            }
            TmNext::Crashed => ctx.mark(format!("crashed:{txn}")),
        }
        self.txns.insert(txn, None);
    }
}

/// The TM's sink: sends through the world, records into its log, traces.
type Sim<'a, 'b> = (
    &'a mut Context<'b, Msg>,
    &'a AddressBook,
    &'a mut CoordinatorLog,
);

impl TmSink for Sim<'_, '_> {
    fn now(&self) -> Timestamp {
        self.0.now()
    }
    fn send(&mut self, server: ServerId, msg: Msg) {
        self.0.send(self.1.server_node(server), msg);
    }
    fn force(&mut self, record: CoordinatorRecord, in_commit: bool) {
        self.2.force(&record);
        self.0.count("forced_logs", 1);
        if in_commit {
            self.0.mark("log:forced");
        }
    }
    fn append(&mut self, record: CoordinatorRecord) {
        self.2.append(&record);
    }
    fn query_master(&mut self, txn: TxnId) {
        self.0.send(self.1.master, Msg::VersionRequest { txn });
    }
    fn arm_timer(&mut self, txn: TxnId, after: Duration) {
        self.0.set_timer(after, txn.index());
    }
    fn decided(&mut self, decision: Decision) {
        self.0.mark(format!("decided:{decision}"));
    }
}

impl Actor<Msg> for TmActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Begin { spec, credentials } => {
                let txn = spec.id;
                if !self.txns.contains_key(&txn) {
                    let core = TmCore::new(self.config, spec, credentials, ctx.now());
                    let driver = TmDriver::new(core, self.crashes.remove(&txn));
                    self.txns.insert(txn, Some(Box::new(driver)));
                    self.drive(ctx, txn, |driver, sink| driver.start(sink));
                }
            }
            Msg::QueryDone { txn, .. }
            | Msg::ValidateReply { txn, .. }
            | Msg::CommitReply { txn, .. }
            | Msg::Ack { txn } => {
                if let Some(server) = self.book.server_at(from) {
                    self.drive(ctx, txn, |driver, sink| driver.reply(sink, server, msg));
                }
            }
            Msg::VersionReply { txn, versions } => {
                let versions = Arc::new(versions);
                let event = TmEvent::MasterVersions { versions };
                self.drive(ctx, txn, |driver, sink| driver.event(sink, event));
            }
            Msg::Inquiry { txn, from_server } => {
                let answer = self.log.answer(txn, self.config.variant);
                let to = self.book.server_node(from_server);
                ctx.send(to, Msg::InquiryReply { txn, answer });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: TimerTag) {
        let event = TmEvent::WatchdogFired;
        self.drive(ctx, TxnId::new(tag), |d, sink| d.event(sink, event));
    }

    fn on_crash(&mut self) {
        // In-flight coordination state is volatile; the log survives.
        self.txns.retain(|_, driver| driver.is_none());
    }
}
