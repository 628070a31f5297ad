//! The transaction manager actor: the simulator driver for [`TmCore`].
//!
//! All scheme-pipeline logic — query sequencing, version pinning, 2PV, 2PVC
//! and both timeout paths — lives in the sans-io [`TmCore`] state machine
//! (see [`crate::tm_core`]). This actor is pure plumbing: it converts
//! incoming [`Msg`]s into [`TmEvent`]s, performs the returned [`TmEffect`]s
//! against the discrete-event world (sends, world timers, the coordinator
//! log, trace marks), and collects termination records for the harness.
//!
//! The TM also owns the coordinator decision log and answers recovery
//! inquiries from participants.

use crate::messages::{AddressBook, Msg};
use crate::tm_core::{TmConfig, TmCore, TmEffect, TmEvent, TxnTermination};
use safetx_policy::Credential;
use safetx_sim::{Actor, Context, NodeId, TimerTag};
use safetx_txn::{CommitVariant, CoordinatorLog, TransactionSpec};
use safetx_types::{Duration, TmId, TxnId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The record of one finished transaction, read back by the harness.
///
/// An alias of the runtime-agnostic [`TxnTermination`]: both the simulator
/// and the threaded runtime report terminations from the same core type.
pub type TxnRecord = TxnTermination;

/// The TM actor.
pub struct TmActor {
    id: TmId,
    book: AddressBook,
    config: TmConfig,
    log: CoordinatorLog,
    active: HashMap<TxnId, TmCore>,
    completed: Vec<TxnRecord>,
    /// The ids in `completed`, for the duplicate-`Begin` check.
    finished: HashSet<TxnId>,
}

impl TmActor {
    /// Creates a TM running the given scheme at the given consistency
    /// level.
    #[must_use]
    pub fn new(
        id: TmId,
        book: AddressBook,
        scheme: crate::scheme::ProofScheme,
        consistency: crate::consistency::ConsistencyLevel,
        variant: CommitVariant,
    ) -> Self {
        TmActor {
            id,
            book,
            config: TmConfig::new(scheme, consistency, variant),
            log: CoordinatorLog::default(),
            active: HashMap::new(),
            completed: Vec::new(),
            finished: HashSet::new(),
        }
    }

    /// Switches the TM into the unsafe baseline: 2PC without policy
    /// validation at commit (the system the paper's Section II warns
    /// about). Measurement aid, not a production mode.
    #[must_use]
    pub fn with_unsafe_baseline(mut self) -> Self {
        self.config.baseline_no_validation = true;
        self
    }

    /// Arms a progress watchdog: a transaction that makes no progress for
    /// `timeout` is aborted (missing query replies or votes), and an
    /// undelivered decision is retransmitted on the same cadence.
    #[must_use]
    pub fn with_commit_timeout(mut self, timeout: Duration) -> Self {
        self.config.watchdog = Some(timeout);
        self
    }

    /// This TM's id.
    #[must_use]
    pub fn id(&self) -> TmId {
        self.id
    }

    /// Finished transactions, in completion order.
    #[must_use]
    pub fn completed(&self) -> &[TxnRecord] {
        &self.completed
    }

    /// Transactions still in flight.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The coordinator decision log.
    #[must_use]
    pub fn log(&self) -> &CoordinatorLog {
        &self.log
    }

    fn begin(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        spec: TransactionSpec,
        credentials: Vec<Credential>,
    ) {
        let txn = spec.id;
        if self.active.contains_key(&txn) || self.finished.contains(&txn) {
            // A retransmitted Begin must not restart a live or finished
            // transaction.
            return;
        }
        let mut core = TmCore::new(self.config, spec, credentials, ctx.now());
        let effects = core.start(ctx.now());
        self.active.insert(txn, core);
        self.apply(ctx, txn, effects);
    }

    /// Feeds one event to a live transaction's core and performs the
    /// effects. Events for unknown (finished) transactions are stale and
    /// ignored, exactly like the pre-extraction actor's guards.
    fn drive(&mut self, ctx: &mut Context<'_, Msg>, txn: TxnId, event: TmEvent) {
        let Some(core) = self.active.get_mut(&txn) else {
            return;
        };
        let effects = core.step(ctx.now(), event);
        self.apply(ctx, txn, effects);
    }

    /// Maps core effects onto the simulation world: sends, timers, the
    /// coordinator log and the trace marks the bench binaries consume.
    fn apply(&mut self, ctx: &mut Context<'_, Msg>, txn: TxnId, effects: Vec<TmEffect>) {
        for effect in effects {
            match effect {
                TmEffect::Send(server, msg) => ctx.send(self.book.server_node(server), msg),
                TmEffect::QueryMaster => ctx.send(self.book.master, Msg::VersionRequest { txn }),
                TmEffect::ForceLog { record, in_commit } => {
                    self.log.force(&record);
                    ctx.count("forced_logs", 1);
                    if in_commit {
                        ctx.mark("log:forced");
                    }
                }
                TmEffect::Log(record) => self.log.append(&record),
                TmEffect::ArmTimer(timeout) => ctx.set_timer(timeout, txn.index()),
                TmEffect::Decided(decision) => ctx.mark(format!("decided:{decision}")),
                TmEffect::Finished(termination) => {
                    ctx.mark(format!("finished:{txn}"));
                    self.active.remove(&txn);
                    self.log.finish(txn);
                    self.finished.insert(txn);
                    self.completed.push(*termination);
                }
            }
        }
    }
}

impl Actor<Msg> for TmActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::Begin { spec, credentials } => self.begin(ctx, spec, credentials),
            Msg::QueryDone { txn, .. }
            | Msg::ValidateReply { txn, .. }
            | Msg::CommitReply { txn, .. }
            | Msg::Ack { txn } => {
                let Some(server) = self.book.server_at(from) else {
                    return;
                };
                if let Ok(event) = TmEvent::from_reply(txn, server, msg) {
                    self.drive(ctx, txn, event);
                }
            }
            Msg::VersionReply { txn, versions } => self.drive(
                ctx,
                txn,
                TmEvent::MasterVersions {
                    versions: Arc::new(versions),
                },
            ),
            Msg::Inquiry { txn, from_server } => {
                let answer = self.log.answer(txn, self.config.variant);
                ctx.send(
                    self.book.server_node(from_server),
                    Msg::InquiryReply { txn, answer },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: TimerTag) {
        self.drive(ctx, TxnId::new(tag), TmEvent::WatchdogFired);
    }

    fn on_crash(&mut self) {
        // In-flight coordination state is volatile; the log survives.
        self.active.clear();
    }
}
