//! The sans-io transaction-manager core.
//!
//! [`TmCore`] owns the complete TM-side lifecycle of **one** transaction —
//! the four scheme pipelines (Deferred / Punctual / Incremental Punctual /
//! Continuous), version pinning and view maintenance, 2PV rounds, 2PVC
//! voting and decision, decision force-logging, and both timeout paths —
//! expressed as `step(now, Event) -> Vec<Effect>`. It performs no I/O,
//! reads no clock and spawns no threads: a *driver* feeds it events and
//! carries out its effects.
//!
//! Under Continuous the 2PV round for query *i* **is** query *i*'s
//! submission: the `PrepareToValidate` sent to *sᵢ* carries the query, the
//! server executes it (locks taken, writes buffered) and proves it in the
//! same contact, and the round's CONTINUE advances to query *i* + 1 — one
//! round trip per query, no `ExecQuery`. Definition 9 holds because the TM
//! does not advance until every proof so far is TRUE under consistent
//! versions, and nothing a query buffered is visible before 2PVC.
//!
//! One driver performs its effects, for the simulator's [`crate::TmActor`]
//! and for [`crate::drive_tm`], the blocking loop of every runtime: the
//! paper's Table I accounting lives here, identical in every runtime, and
//! the chaos/differential suites exercise the *same* pipeline code the
//! measurement harness validates.
//!
//! # Timeout semantics
//!
//! The two timer events model deliberately different failure detectors:
//!
//! * [`TmEvent::WatchdogFired`] is the simulator's idle watchdog (armed via
//!   [`TmEffect::ArmTimer`]): a transaction idle past the configured
//!   timeout aborts with [`AbortReason::Timeout`] during execution, while a
//!   fixed-but-unacknowledged decision is retransmitted on each firing.
//! * [`TmEvent::ReplyTimeout`] is the blocking loop's per-reply deadline:
//!   a missing reply aborts with [`AbortReason::ServerUnavailable`] (the
//!   peer is presumed dead, not merely slow); once a decision exists the
//!   core retransmits it once and then completes without the missing
//!   acknowledgments (the participant stays in doubt until recovery).

use crate::consistency::ConsistencyLevel;
use crate::messages::Msg;
use crate::outcome::{AbortReason, TxnOutcome};
use crate::scheme::ProofScheme;
use crate::two_pvc::{TwoPvc, TwoPvcAction, TwoPvcState};
use crate::validation::{
    ValidationAction, ValidationConfig, ValidationOutcome, ValidationReply, ValidationRound,
    VersionMap,
};
use crate::view::TransactionView;
use safetx_metrics::ProtocolMetrics;
use safetx_policy::{AccessCapability, Credential, ProofOfAuthorization};
use safetx_txn::{CommitVariant, CoordinatorRecord, Decision, QuerySpec, TransactionSpec};
use safetx_types::{Duration, ServerId, Timestamp, TxnId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Protocol configuration shared by every transaction a TM runs.
#[derive(Debug, Clone, Copy)]
pub struct TmConfig {
    /// Proof-of-authorization scheme.
    pub scheme: ProofScheme,
    /// Consistency level (φ or ψ).
    pub consistency: ConsistencyLevel,
    /// 2PC/2PVC logging variant.
    pub variant: CommitVariant,
    /// Unsafe baseline: skip commit-time validation entirely (plain 2PC),
    /// regardless of scheme. For hazard measurements only.
    pub baseline_no_validation: bool,
    /// Idle watchdog period ([`TmEvent::WatchdogFired`] cadence). `None`
    /// never arms the timer.
    pub watchdog: Option<Duration>,
}

impl TmConfig {
    /// A configuration with the given protocol knobs, no baseline shortcut
    /// and no watchdog.
    #[must_use]
    pub fn new(scheme: ProofScheme, consistency: ConsistencyLevel, variant: CommitVariant) -> Self {
        TmConfig {
            scheme,
            consistency,
            variant,
            baseline_no_validation: false,
            watchdog: None,
        }
    }
}

/// An input to [`TmCore::step`]: something the driver observed.
#[derive(Debug)]
pub enum TmEvent {
    /// A server finished (or failed) one query's data operations.
    QueryDone {
        /// Index of the finished query.
        query_index: usize,
        /// False on lock conflict or execution failure.
        ok: bool,
        /// The proof evaluated at query time, when the scheme asked for one.
        proof: Option<ProofOfAuthorization>,
        /// A capability issued on a granted proof (baseline deployments).
        capability: Option<AccessCapability>,
    },
    /// A 2PV collection reply (Continuous, during execution).
    ValidateReply {
        /// The replying server.
        from: ServerId,
        /// Truth value, versions and fresh proofs of this round.
        reply: ValidationReply,
    },
    /// A 2PVC vote (YES/NO, TRUE/FALSE, versions).
    CommitReply {
        /// The replying server.
        from: ServerId,
        /// The three-part reply.
        reply: ValidationReply,
    },
    /// A decision acknowledgment.
    Ack {
        /// The acknowledging server.
        from: ServerId,
    },
    /// The master's answer to a [`TmEffect::QueryMaster`] effect.
    MasterVersions {
        /// Latest version per policy.
        versions: Arc<VersionMap>,
    },
    /// The driver's per-reply deadline expired with no input (threaded
    /// runtime). The awaited peer is treated as unavailable.
    ReplyTimeout,
    /// The idle watchdog armed by [`TmEffect::ArmTimer`] fired (simulator).
    WatchdogFired,
}

impl TmEvent {
    /// Converts a reply `from` a server into the event it carries for
    /// `txn`.
    ///
    /// `Err` means the message was stale or foreign; its payload is the
    /// [`reply_counts_as_dropped`] verdict for the unconverted message (the
    /// only thing a driver needs from it — returning the message itself
    /// would haul 200+ bytes through the error path).
    pub fn from_reply(txn: TxnId, from: ServerId, msg: Msg) -> Result<TmEvent, bool> {
        match msg {
            Msg::QueryDone {
                txn: t,
                query_index,
                ok,
                proof,
                capability,
            } if t == txn => Ok(TmEvent::QueryDone {
                query_index,
                ok,
                proof,
                capability,
            }),
            Msg::ValidateReply { txn: t, reply } if t == txn => {
                Ok(TmEvent::ValidateReply { from, reply })
            }
            Msg::CommitReply { txn: t, reply } if t == txn => {
                Ok(TmEvent::CommitReply { from, reply })
            }
            Msg::Ack { txn: t } if t == txn => Ok(TmEvent::Ack { from }),
            msg => Err(reply_counts_as_dropped(&msg)),
        }
    }
}

/// An output of [`TmCore::step`]: something the driver must do.
// `Send` carries its `Msg` inline on purpose: effect batches are small,
// short-lived and immediately drained by the drivers, and boxing would put
// an allocation on every protocol send (the hot path the zero-clone
// messaging work flattened).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum TmEffect {
    /// Send a protocol message to a cloud server.
    Send(ServerId, Msg),
    /// Ask the master version server for the latest versions of all
    /// policies; the answer comes back as [`TmEvent::MasterVersions`].
    QueryMaster,
    /// Force a coordinator record to stable storage before proceeding.
    /// `in_commit` is true for 2PVC's forced writes (traced as
    /// `log:forced` by the simulator) and false for execution-phase abort
    /// decisions.
    ForceLog {
        /// The record to force.
        record: CoordinatorRecord,
        /// Whether the force belongs to the commit protocol proper.
        in_commit: bool,
    },
    /// Lazily append a coordinator record.
    Log(CoordinatorRecord),
    /// Arm (or re-arm) the idle watchdog; fire [`TmEvent::WatchdogFired`]
    /// after this long.
    ArmTimer(Duration),
    /// The decision is fixed (trace hook; terminal state arrives with
    /// [`TmEffect::Finished`]).
    Decided(Decision),
    /// The transaction is finished: the complete termination record.
    Finished(Box<TxnTermination>),
}

/// The record of one finished transaction — the single termination type
/// both runtimes report from. The simulator's per-transaction `TxnRecord`
/// is an alias of this; the threaded runtime's `ExecutionResult` is built
/// from it, field for field.
#[derive(Debug, Clone)]
pub struct TxnTermination {
    /// The transaction.
    pub txn: TxnId,
    /// `α(T)`.
    pub started_at: Timestamp,
    /// When the decision was fixed.
    pub finished_at: Timestamp,
    /// Commit or abort (with reason).
    pub outcome: TxnOutcome,
    /// Paper-model cost counters for this transaction.
    pub metrics: ProtocolMetrics,
    /// Every proof evaluation observed (Definition 1's view).
    pub view: TransactionView,
    /// Queries the TM knows had executed when the outcome was fixed (the
    /// work an abort must undo): those whose server answered. A query
    /// whose reply was lost may have run as well; the abort undoes it
    /// uncounted.
    pub queries_executed: usize,
}

/// The unified stale-input rule both runtimes count `dropped_replies`
/// with: acknowledgments never count (they are expected chatter after a
/// decision — duplicates and post-completion stragglers alike); every
/// other unconsumed protocol message does.
#[must_use]
pub fn reply_counts_as_dropped(msg: &Msg) -> bool {
    match msg {
        Msg::Ack { .. } => false,
        // Coalesced envelopes count when any inner message would (drivers
        // normally flatten batches before applying this rule per message).
        Msg::Batch(msgs) => msgs.iter().any(reply_counts_as_dropped),
        _ => true,
    }
}

/// Which pipeline stage the transaction is in.
#[derive(Debug)]
enum Phase {
    /// Continuous: the 2PV round whose contact at query `next_query`'s
    /// server also executes that query.
    QueryValidation(ValidationRound),
    /// Waiting for `QueryDone` of query `next_query`.
    Executing,
    /// 2PVC in progress.
    Committing(TwoPvc),
    /// Terminated; every further event is stale.
    Done,
}

/// The sans-io TM state machine for one transaction.
///
/// Create it with [`TmCore::new`], kick it off with [`TmCore::start`], then
/// feed every observation through [`TmCore::step`] and perform the returned
/// effects in order. The machine is finished once a
/// [`TmEffect::Finished`] effect is emitted (see [`TmCore::is_finished`]).
#[derive(Debug)]
pub struct TmCore {
    config: TmConfig,
    spec: TransactionSpec,
    /// Shared credential payload: built once, refcounted into every
    /// `ExecQuery`/`PrepareToValidate` instead of deep-cloned.
    credentials: Arc<[Credential]>,
    /// Per-query shared payloads, same rationale.
    queries: Arc<[Arc<QuerySpec>]>,
    started_at: Timestamp,
    started: bool,
    phase: Phase,
    next_query: usize,
    view: TransactionView,
    metrics: ProtocolMetrics,
    /// Incremental (view): versions pinned by the first proof per policy.
    pinned: VersionMap,
    /// Incremental (global): the master's versions pinned at first
    /// retrieval. `Arc`-shared so an unchanged master snapshot is a pointer
    /// comparison, not a map comparison.
    master_pinned: Option<Arc<VersionMap>>,
    /// Incremental (global): master answer for the current query not yet
    /// received / query reply not yet received.
    awaiting_version_check: bool,
    pending_query_done: Option<(usize, bool, Option<ProofOfAuthorization>)>,
    /// Servers that have executed at least one query (abort broadcast set).
    touched: BTreeSet<ServerId>,
    outcome: Option<TxnOutcome>,
    /// Last instant any message for this transaction was processed; the
    /// idle watchdog compares against it.
    last_activity: Timestamp,
    /// Capabilities collected from servers (baseline deployments forward
    /// them with later queries).
    capabilities: Vec<AccessCapability>,
    /// One decision retransmission per [`TmEvent::ReplyTimeout`] silence;
    /// the second silence completes without the missing acks.
    resent_on_deadline: bool,
    /// A [`TmEvent::ReplyTimeout`] aborted the voting phase: the abort
    /// reason maps to [`AbortReason::ServerUnavailable`] rather than the
    /// protocol's generic [`AbortReason::Timeout`].
    deadline_abort: bool,
    /// Stale inputs fed to this core that matched no pending protocol
    /// round (see [`reply_counts_as_dropped`]).
    dropped_replies: u64,
    finished: bool,
}

impl TmCore {
    /// Creates the state machine for `spec`.
    ///
    /// # Panics
    ///
    /// Panics on a transaction with no queries (a client bug: there is
    /// nothing to commit).
    #[must_use]
    pub fn new(
        config: TmConfig,
        spec: TransactionSpec,
        credentials: Vec<Credential>,
        now: Timestamp,
    ) -> Self {
        let txn = spec.id;
        assert!(!spec.queries.is_empty(), "transaction {txn} has no queries");
        let queries: Arc<[Arc<QuerySpec>]> = spec.queries.iter().cloned().map(Arc::new).collect();
        TmCore {
            config,
            spec,
            credentials: credentials.into(),
            queries,
            started_at: now,
            started: false,
            phase: Phase::Executing,
            next_query: 0,
            view: TransactionView::new(),
            metrics: ProtocolMetrics::new(),
            pinned: VersionMap::new(),
            master_pinned: None,
            awaiting_version_check: false,
            pending_query_done: None,
            touched: BTreeSet::new(),
            outcome: None,
            last_activity: now,
            capabilities: Vec::new(),
            resent_on_deadline: false,
            deadline_abort: false,
            dropped_replies: 0,
            finished: false,
        }
    }

    /// The transaction this core drives.
    #[must_use]
    pub fn txn(&self) -> TxnId {
        self.spec.id
    }

    /// True once a [`TmEffect::Finished`] effect has been emitted.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Stale inputs fed to this core that matched no pending round.
    #[must_use]
    pub fn dropped_replies(&self) -> u64 {
        self.dropped_replies
    }

    /// Kicks off the pipeline: arms the watchdog (when configured) and
    /// issues the first query or 2PV round.
    ///
    /// # Panics
    ///
    /// Panics when called twice.
    pub fn start(&mut self, now: Timestamp) -> Vec<TmEffect> {
        assert!(!self.started, "start called twice");
        self.started = true;
        self.started_at = now;
        self.last_activity = now;
        let mut out = Vec::new();
        if let Some(timeout) = self.config.watchdog {
            out.push(TmEffect::ArmTimer(timeout));
        }
        self.advance(now, &mut out);
        out
    }

    /// Emits a send. The first send of an effect batch starts one more
    /// sequential round trip; the rest of the batch leaves with it.
    fn send(&mut self, out: &mut Vec<TmEffect>, server: ServerId, msg: Msg) {
        if !out.iter().any(|e| matches!(e, TmEffect::Send(..))) {
            self.metrics.round_trips += 1;
        }
        out.push(TmEffect::Send(server, msg));
    }

    /// Advances the machine on one observation. Returned effects must be
    /// performed in order.
    pub fn step(&mut self, now: Timestamp, event: TmEvent) -> Vec<TmEffect> {
        let mut out = Vec::new();
        if self.finished {
            // The driver normally stops feeding a finished core; anything
            // that does arrive is a stale straggler.
            match event {
                TmEvent::Ack { .. } | TmEvent::ReplyTimeout | TmEvent::WatchdogFired => {}
                _ => self.dropped_replies += 1,
            }
            return out;
        }
        match event {
            TmEvent::QueryDone {
                query_index,
                ok,
                proof,
                capability,
            } => {
                self.last_activity = now;
                if let Some(capability) = capability {
                    self.capabilities.push(capability);
                }
                self.on_query_done(now, query_index, ok, proof, &mut out);
            }
            TmEvent::ValidateReply { from, reply } => {
                self.last_activity = now;
                self.on_validate_reply(now, from, reply, &mut out);
            }
            TmEvent::CommitReply { from, reply } => {
                self.last_activity = now;
                self.on_commit_reply(now, from, reply, &mut out);
            }
            TmEvent::Ack { from } => {
                self.last_activity = now;
                self.metrics.messages += 1;
                if let Phase::Committing(pvc) = &mut self.phase {
                    let actions = pvc.on_ack(from);
                    self.apply_pvc_actions(now, actions, &mut out);
                }
                // Acks never count as dropped, consumed or not.
            }
            TmEvent::MasterVersions { versions } => {
                self.last_activity = now;
                self.on_master_versions(now, versions, &mut out);
            }
            TmEvent::ReplyTimeout => self.on_reply_timeout(now, &mut out),
            TmEvent::WatchdogFired => self.on_watchdog(now, &mut out),
        }
        out
    }

    // ------------------------------------------------------------------
    // pipeline driving
    // ------------------------------------------------------------------

    /// Moves the transaction forward: submit the next query (with the
    /// scheme's pre-step) or start the commit protocol.
    fn advance(&mut self, now: Timestamp, out: &mut Vec<TmEffect>) {
        if self.next_query >= self.spec.queries.len() {
            self.start_commit(now, out);
            return;
        }
        if self.config.scheme.validates_before_each_query() {
            // Continuous: 2PV over the servers of queries 0..=next_query;
            // the contact at this query's server executes it.
            let index = self.next_query;
            let query = Arc::clone(&self.queries[index]);
            let involved: BTreeSet<ServerId> = self
                .spec
                .queries
                .iter()
                .take(index + 1)
                .map(|q| q.server)
                .collect();
            let mut validation =
                ValidationRound::new(involved, ValidationConfig::new(self.config.consistency));
            let actions = validation.start();
            self.phase = Phase::QueryValidation(validation);
            for action in actions {
                match action {
                    ValidationAction::SendRequest(server) => {
                        self.metrics.messages += 1;
                        // A 2PV contact registers transaction state at the
                        // server; an execution-phase abort must reach it.
                        self.touched.insert(server);
                        let new_query =
                            (server == query.server).then(|| (index, Arc::clone(&query)));
                        let msg = Msg::PrepareToValidate {
                            txn: self.spec.id,
                            new_query,
                            user: self.spec.user,
                            credentials: Arc::clone(&self.credentials),
                        };
                        self.send(out, server, msg);
                    }
                    ValidationAction::QueryMaster => {
                        self.metrics.messages += 1;
                        out.push(TmEffect::QueryMaster);
                    }
                    ValidationAction::SendUpdate(..) | ValidationAction::Resolved(_) => {
                        unreachable!("start() emits only requests")
                    }
                }
            }
            return;
        }
        // All other schemes: ship the query directly.
        if self.config.scheme == ProofScheme::IncrementalPunctual
            && self.config.consistency == ConsistencyLevel::Global
        {
            // Retrieve the master version for this query's check (one
            // message in the paper's accounting: the retrieval).
            self.metrics.messages += 1;
            self.awaiting_version_check = true;
            out.push(TmEffect::QueryMaster);
        }
        self.send_exec_query(out);
    }

    fn send_exec_query(&mut self, out: &mut Vec<TmEffect>) {
        let index = self.next_query;
        let query = Arc::clone(&self.queries[index]);
        let server = query.server;
        self.touched.insert(server);
        let evaluate_proof = self.config.scheme.evaluates_at_query();
        // Incremental view: pin later replicas to the versions already seen.
        let pin_versions = if self.config.scheme.checks_versions_incrementally() {
            match self.config.consistency {
                ConsistencyLevel::View => self.pinned.clone(),
                ConsistencyLevel::Global => self
                    .master_pinned
                    .as_ref()
                    .map(|pin| (**pin).clone())
                    .unwrap_or_default(),
            }
        } else {
            VersionMap::new()
        };
        let msg = Msg::ExecQuery {
            txn: self.spec.id,
            query_index: index,
            query,
            user: self.spec.user,
            credentials: Arc::clone(&self.credentials),
            evaluate_proof,
            pin_versions,
            capabilities: self.capabilities.clone(),
        };
        self.send(out, server, msg);
        self.phase = Phase::Executing;
    }

    fn on_query_done(
        &mut self,
        now: Timestamp,
        query_index: usize,
        ok: bool,
        proof: Option<ProofOfAuthorization>,
        out: &mut Vec<TmEffect>,
    ) {
        if !matches!(self.phase, Phase::Executing) || query_index != self.next_query {
            // Stale or duplicated reply.
            self.dropped_replies += 1;
            return;
        }
        if self.awaiting_version_check && self.master_pinned.is_none() {
            // Incremental global: master answer not here yet; stash.
            self.pending_query_done = Some((query_index, ok, proof));
            return;
        }
        self.process_query_done(now, ok, proof, out);
    }

    fn process_query_done(
        &mut self,
        now: Timestamp,
        ok: bool,
        proof: Option<ProofOfAuthorization>,
        out: &mut Vec<TmEffect>,
    ) {
        if !ok {
            self.abort_in_execution(now, AbortReason::LockConflict, out);
            return;
        }
        if let Some(proof) = proof {
            let truth = proof.truth();
            let policy = proof.policy_id;
            let version = proof.policy_version;
            self.metrics.proofs += 1;
            self.view.record(proof);
            if self.config.scheme.checks_versions_incrementally() {
                let pinned = match self.config.consistency {
                    ConsistencyLevel::View => Some(*self.pinned.entry(policy).or_insert(version)),
                    ConsistencyLevel::Global => self
                        .master_pinned
                        .as_ref()
                        .and_then(|m| m.get(&policy).copied()),
                };
                if let Some(pinned_version) = pinned {
                    if version != pinned_version {
                        // A newer (or otherwise divergent) version showed up
                        // mid-transaction: the view instance can no longer be
                        // consistent.
                        self.abort_in_execution(now, AbortReason::VersionInconsistency, out);
                        return;
                    }
                }
            }
            if !truth {
                self.abort_in_execution(now, AbortReason::ProofFalse, out);
                return;
            }
        }
        self.next_query += 1;
        self.awaiting_version_check = false;
        self.advance(now, out);
    }

    fn on_master_versions(
        &mut self,
        now: Timestamp,
        versions: Arc<VersionMap>,
        out: &mut Vec<TmEffect>,
    ) {
        match &mut self.phase {
            Phase::Committing(pvc) => {
                let actions = pvc.on_master_versions(versions);
                self.apply_pvc_actions(now, actions, out);
            }
            Phase::QueryValidation(validation) => {
                let actions = validation.on_master_versions(versions);
                self.apply_validation_actions(now, actions, out);
            }
            Phase::Executing if self.awaiting_version_check => {
                match &self.master_pinned {
                    None => self.master_pinned = Some(versions),
                    Some(pinned) => {
                        // Same snapshot object ⇒ unchanged by construction
                        // (the threaded catalog reuses its `Arc` per
                        // generation); otherwise compare contents.
                        if !Arc::ptr_eq(pinned, &versions) && **pinned != *versions {
                            // The master moved mid-transaction: earlier
                            // proofs are no longer latest-version (ψ broken).
                            self.abort_in_execution(now, AbortReason::VersionInconsistency, out);
                            return;
                        }
                        self.master_pinned = Some(versions);
                    }
                }
                self.awaiting_version_check = false;
                if let Some((_, ok, proof)) = self.pending_query_done.take() {
                    self.process_query_done(now, ok, proof, out);
                }
            }
            _ => self.dropped_replies += 1,
        }
    }

    // ------------------------------------------------------------------
    // continuous 2PV during execution
    // ------------------------------------------------------------------

    fn on_validate_reply(
        &mut self,
        now: Timestamp,
        from: ServerId,
        mut reply: ValidationReply,
        out: &mut Vec<TmEffect>,
    ) {
        self.metrics.messages += 1; // the reply
        self.metrics.proofs += reply.proofs.len() as u64;
        // The round's state machine never reads the proofs; move them into
        // the audit view instead of cloning.
        self.view.extend(std::mem::take(&mut reply.proofs));
        if let Phase::QueryValidation(validation) = &mut self.phase {
            let actions = validation.on_reply(from, reply);
            self.apply_validation_actions(now, actions, out);
        } else {
            self.dropped_replies += 1;
        }
    }

    fn apply_validation_actions(
        &mut self,
        now: Timestamp,
        actions: Vec<ValidationAction>,
        out: &mut Vec<TmEffect>,
    ) {
        for action in actions {
            if self.finished {
                return;
            }
            match action {
                ValidationAction::SendRequest(_) => unreachable!("only start() requests"),
                ValidationAction::SendUpdate(server, targets) => {
                    self.metrics.messages += 1;
                    let msg = Msg::Update {
                        txn: self.spec.id,
                        targets,
                        in_commit: false,
                    };
                    self.send(out, server, msg);
                }
                ValidationAction::QueryMaster => {
                    self.metrics.messages += 1;
                    out.push(TmEffect::QueryMaster);
                }
                // A concurrency NO during execution is the no-wait lock
                // conflict of the query this round's contact tried to run.
                ValidationAction::Resolved(ValidationOutcome::Abort(
                    AbortReason::ValidationConflict,
                )) => self.abort_in_execution(now, AbortReason::LockConflict, out),
                ValidationAction::Resolved(outcome) => {
                    // The contact at the query's server executed it: from
                    // here on its work exists, whatever the proofs said.
                    self.next_query += 1;
                    match outcome {
                        ValidationOutcome::Continue => self.advance(now, out),
                        ValidationOutcome::Abort(reason) => {
                            self.abort_in_execution(now, reason, out);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // commit
    // ------------------------------------------------------------------

    fn validate_at_commit(&self) -> bool {
        self.config
            .scheme
            .validates_at_commit(self.config.consistency)
            && !self.config.baseline_no_validation
    }

    fn start_commit(&mut self, now: Timestamp, out: &mut Vec<TmEffect>) {
        let participants = self.spec.participants();
        let mut pvc = TwoPvc::new(
            self.spec.id,
            participants,
            self.config.consistency,
            self.config.variant,
            self.validate_at_commit(),
        );
        let actions = pvc.start();
        self.phase = Phase::Committing(pvc);
        self.apply_pvc_actions(now, actions, out);
    }

    fn on_commit_reply(
        &mut self,
        now: Timestamp,
        from: ServerId,
        mut reply: ValidationReply,
        out: &mut Vec<TmEffect>,
    ) {
        self.metrics.messages += 1;
        self.metrics.proofs += reply.proofs.len() as u64;
        self.view.extend(std::mem::take(&mut reply.proofs));
        if let Phase::Committing(pvc) = &mut self.phase {
            let actions = pvc.on_reply(from, reply);
            self.apply_pvc_actions(now, actions, out);
        } else {
            self.dropped_replies += 1;
        }
    }

    fn apply_pvc_actions(
        &mut self,
        now: Timestamp,
        actions: Vec<TwoPvcAction>,
        out: &mut Vec<TmEffect>,
    ) {
        for action in actions {
            if self.finished {
                return;
            }
            match action {
                TwoPvcAction::SendPrepareToCommit(server) => {
                    self.metrics.messages += 1;
                    let expected_queries: Vec<usize> = self
                        .spec
                        .queries
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| q.server == server)
                        .map(|(i, _)| i)
                        .collect();
                    let msg = Msg::PrepareToCommit {
                        txn: self.spec.id,
                        validate: self.validate_at_commit(),
                        expected_queries,
                    };
                    self.send(out, server, msg);
                }
                TwoPvcAction::SendUpdate(server, targets) => {
                    self.metrics.messages += 1;
                    let msg = Msg::Update {
                        txn: self.spec.id,
                        targets,
                        in_commit: true,
                    };
                    self.send(out, server, msg);
                }
                TwoPvcAction::QueryMaster => {
                    self.metrics.messages += 1;
                    out.push(TmEffect::QueryMaster);
                }
                TwoPvcAction::ForceLog(record) => {
                    self.metrics.forced_logs += 1;
                    out.push(TmEffect::ForceLog {
                        record,
                        in_commit: true,
                    });
                }
                TwoPvcAction::Log(record) => out.push(TmEffect::Log(record)),
                TwoPvcAction::SendDecision(server, decision) => {
                    self.metrics.messages += 1;
                    let msg = Msg::Decision {
                        txn: self.spec.id,
                        decision,
                    };
                    self.send(out, server, msg);
                }
                TwoPvcAction::Decided(decision) => {
                    let (rounds, reason) = match &self.phase {
                        Phase::Committing(pvc) => (pvc.rounds(), pvc.abort_reason()),
                        _ => (0, None),
                    };
                    self.metrics.rounds += rounds;
                    let outcome = if decision.is_commit() {
                        self.metrics.commits += 1;
                        TxnOutcome::Committed { at: now }
                    } else {
                        self.metrics.aborts += 1;
                        let reason = if self.deadline_abort {
                            // The voting phase died on the driver's reply
                            // deadline: the missing peer is unavailable.
                            AbortReason::ServerUnavailable
                        } else {
                            reason.unwrap_or(AbortReason::IntegrityViolation)
                        };
                        TxnOutcome::Aborted { at: now, reason }
                    };
                    self.outcome = Some(outcome);
                    out.push(TmEffect::Decided(decision));
                }
                TwoPvcAction::Completed => {
                    self.finish(now, out);
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // timeouts
    // ------------------------------------------------------------------

    fn on_reply_timeout(&mut self, now: Timestamp, out: &mut Vec<TmEffect>) {
        match &mut self.phase {
            Phase::Committing(pvc) => {
                if pvc.decision().is_some() {
                    // Decided but under-acknowledged. Retransmit once; on a
                    // second silence complete anyway — a participant that
                    // never hears the decision stays in doubt until
                    // recovery inquires.
                    if self.resent_on_deadline {
                        self.finish(now, out);
                    } else {
                        self.resent_on_deadline = true;
                        let actions = pvc.resend_decisions();
                        self.apply_pvc_actions(now, actions, out);
                    }
                } else {
                    // Votes missing: the termination protocol aborts.
                    self.deadline_abort = true;
                    let actions = pvc.on_timeout();
                    self.apply_pvc_actions(now, actions, out);
                }
            }
            // Stalled during execution (lost query reply or 2PV reply, or
            // a dead participant): abort and release what was touched.
            Phase::Executing | Phase::QueryValidation(_) => {
                self.stall_abort(now, AbortReason::ServerUnavailable, out);
            }
            Phase::Done => {}
        }
    }

    fn on_watchdog(&mut self, now: Timestamp, out: &mut Vec<TmEffect>) {
        let Some(timeout) = self.config.watchdog else {
            return;
        };
        let idle = now.duration_since(self.last_activity);
        if idle < timeout {
            // Progress since the watchdog was armed: check again later.
            out.push(TmEffect::ArmTimer(timeout));
            return;
        }
        match &mut self.phase {
            Phase::Committing(pvc) => {
                let actions = match pvc.state() {
                    // Votes missing: abort.
                    TwoPvcState::Voting => pvc.on_timeout(),
                    // Acks missing: the decision (or its ack) was lost —
                    // retransmit and keep waiting.
                    TwoPvcState::Deciding(_) => pvc.resend_decisions(),
                    _ => Vec::new(),
                };
                self.apply_pvc_actions(now, actions, out);
            }
            // Stalled during execution (lost query reply or 2PV reply, or
            // a crashed participant): abort and release what was touched.
            Phase::Executing | Phase::QueryValidation(_) => {
                self.stall_abort(now, AbortReason::Timeout, out);
            }
            Phase::Done => {}
        }
        // Keep the watchdog running while the transaction is unfinished
        // (e.g. an abort decision still awaiting acknowledgments).
        if !self.finished {
            out.push(TmEffect::ArmTimer(timeout));
        }
    }

    // ------------------------------------------------------------------
    // termination
    // ------------------------------------------------------------------

    /// Aborts a stalled execution phase. Inside a fused round the query in
    /// flight counts as executed iff its contact has answered without a
    /// conflict: a server runs the query before it replies. A silent
    /// contact is unknowable from here (request lost, or reply lost after
    /// the query ran) and is not counted — the rule a lost `QueryDone`
    /// follows under the other schemes. The abort reaches it either way.
    fn stall_abort(&mut self, now: Timestamp, reason: AbortReason, out: &mut Vec<TmEffect>) {
        if let Phase::QueryValidation(validation) = &self.phase {
            let contact = self.spec.queries[self.next_query].server;
            if validation
                .replies()
                .get(&contact)
                .is_some_and(|reply| !reply.conflict)
            {
                self.next_query += 1;
            }
        }
        self.abort_in_execution(now, reason, out);
    }

    /// Aborts a transaction that is still executing queries: log the
    /// decision first (recovery inquiries must never be answered from a
    /// commit presumption), then broadcast ABORT to every touched server so
    /// locks are released and buffered writes dropped.
    fn abort_in_execution(&mut self, now: Timestamp, reason: AbortReason, out: &mut Vec<TmEffect>) {
        if self.finished {
            return;
        }
        let record = CoordinatorRecord::Decision {
            txn: self.spec.id,
            decision: Decision::Abort,
        };
        if self.config.variant.coordinator_forces(Decision::Abort) {
            out.push(TmEffect::ForceLog {
                record,
                in_commit: false,
            });
        } else {
            out.push(TmEffect::Log(record));
        }
        let txn = self.spec.id;
        for server in std::mem::take(&mut self.touched) {
            self.metrics.messages += 1;
            let decision = Decision::Abort;
            self.send(out, server, Msg::Decision { txn, decision });
        }
        self.metrics.aborts += 1;
        self.outcome = Some(TxnOutcome::Aborted { at: now, reason });
        self.finish(now, out);
    }

    fn finish(&mut self, now: Timestamp, out: &mut Vec<TmEffect>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.phase = Phase::Done;
        let outcome = self.outcome.take().unwrap_or(TxnOutcome::Aborted {
            at: now,
            reason: AbortReason::Failure,
        });
        out.push(TmEffect::Finished(Box::new(TxnTermination {
            txn: self.spec.id,
            started_at: self.started_at,
            finished_at: outcome.at(),
            outcome,
            metrics: self.metrics,
            view: std::mem::take(&mut self.view),
            queries_executed: self.next_query,
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MsgKind;
    use crate::server::fixture::{fixture, Core, Fixture, TM};
    use safetx_policy::PolicyBuilder;
    use safetx_txn::Operation;
    use safetx_types::{AdminDomain, DataItemId, PolicyId, PolicyVersion, UserId};

    fn spec(n: u64) -> TransactionSpec {
        TransactionSpec::new(
            TxnId::new(1),
            UserId::new(1),
            (0..n)
                .map(|s| {
                    QuerySpec::new(
                        ServerId::new(s),
                        "read",
                        "records",
                        vec![Operation::Read(DataItemId::new(s))],
                    )
                })
                .collect(),
        )
    }

    fn config(scheme: ProofScheme, consistency: ConsistencyLevel) -> TmConfig {
        TmConfig::new(scheme, consistency, CommitVariant::Standard)
    }

    fn done(query_index: usize) -> TmEvent {
        TmEvent::QueryDone {
            query_index,
            ok: true,
            proof: None,
            capability: None,
        }
    }

    /// Drives a clean Deferred/View transaction end-to-end and checks the
    /// Table I counters come out of the shared accounting.
    #[test]
    fn deferred_clean_commit_counts_like_table1() {
        let mut core = TmCore::new(
            config(ProofScheme::Deferred, ConsistencyLevel::View),
            spec(3),
            Vec::new(),
            Timestamp::ZERO,
        );
        let effects = core.start(Timestamp::ZERO);
        assert!(matches!(
            effects[0],
            TmEffect::Send(_, Msg::ExecQuery { .. })
        ));
        for i in 0..3 {
            let effects = core.step(Timestamp::from_micros(i), done(i as usize));
            if i < 2 {
                assert!(matches!(
                    effects.last(),
                    Some(TmEffect::Send(_, Msg::ExecQuery { .. }))
                ));
            }
        }
        // 2PVC voting is now in flight: 3 prepares sent.
        for s in 0..3u64 {
            let _ = core.step(
                Timestamp::from_micros(10 + s),
                TmEvent::CommitReply {
                    from: ServerId::new(s),
                    reply: ValidationReply::empty_true(),
                },
            );
        }
        let mut finished = None;
        for s in 0..3u64 {
            for effect in core.step(
                Timestamp::from_micros(20 + s),
                TmEvent::Ack {
                    from: ServerId::new(s),
                },
            ) {
                if let TmEffect::Finished(t) = effect {
                    finished = Some(t);
                }
            }
        }
        let record = finished.expect("transaction finished");
        assert!(record.outcome.is_commit());
        // Table I, Deferred: 4N messages with N=3 (prepare + reply +
        // decision + ack per participant) — query traffic excluded.
        assert_eq!(record.metrics.messages, 12);
        assert_eq!(record.metrics.rounds, 1);
        assert_eq!(record.queries_executed, 3);
        assert!(core.is_finished());
    }

    #[test]
    fn reply_timeout_during_execution_aborts_unavailable() {
        let mut core = TmCore::new(
            config(ProofScheme::Deferred, ConsistencyLevel::View),
            spec(2),
            Vec::new(),
            Timestamp::ZERO,
        );
        let _ = core.start(Timestamp::ZERO);
        let effects = core.step(Timestamp::from_micros(5), TmEvent::ReplyTimeout);
        let finished = effects.iter().find_map(|e| match e {
            TmEffect::Finished(t) => Some(t),
            _ => None,
        });
        let record = finished.expect("aborted");
        assert_eq!(
            record.outcome.abort_reason(),
            Some(AbortReason::ServerUnavailable)
        );
        // The decision was logged before any abort broadcast.
        assert!(matches!(
            effects[0],
            TmEffect::ForceLog {
                in_commit: false,
                ..
            }
        ));
    }

    #[test]
    fn watchdog_timeout_during_execution_aborts_timeout() {
        let timeout = Duration::from_millis(1);
        let mut cfg = config(ProofScheme::Punctual, ConsistencyLevel::View);
        cfg.watchdog = Some(timeout);
        let mut core = TmCore::new(cfg, spec(2), Vec::new(), Timestamp::ZERO);
        let effects = core.start(Timestamp::ZERO);
        assert!(matches!(effects[0], TmEffect::ArmTimer(_)));
        // Idle shorter than the period: re-armed, nothing aborted.
        let effects = core.step(Timestamp::from_micros(10), TmEvent::WatchdogFired);
        assert!(matches!(effects[..], [TmEffect::ArmTimer(_)]));
        // Idle past the period: Timeout abort (the sim's reason).
        let effects = core.step(Timestamp::from_millis(5), TmEvent::WatchdogFired);
        let record = effects
            .iter()
            .find_map(|e| match e {
                TmEffect::Finished(t) => Some(t),
                _ => None,
            })
            .expect("aborted");
        assert_eq!(record.outcome.abort_reason(), Some(AbortReason::Timeout));
    }

    #[test]
    fn stale_query_done_counts_as_dropped_but_acks_do_not() {
        let mut core = TmCore::new(
            config(ProofScheme::Deferred, ConsistencyLevel::View),
            spec(2),
            Vec::new(),
            Timestamp::ZERO,
        );
        let _ = core.start(Timestamp::ZERO);
        let _ = core.step(Timestamp::from_micros(1), done(0));
        // A duplicate of query 0 arrives after the index advanced.
        let _ = core.step(Timestamp::from_micros(2), done(0));
        assert_eq!(core.dropped_replies(), 1);
        // A stray ack is not a dropped reply.
        let _ = core.step(
            Timestamp::from_micros(3),
            TmEvent::Ack {
                from: ServerId::new(0),
            },
        );
        assert_eq!(core.dropped_replies(), 1);
        assert!(reply_counts_as_dropped(&Msg::Decision {
            txn: TxnId::new(1),
            decision: Decision::Abort
        }));
        assert!(!reply_counts_as_dropped(&Msg::Ack { txn: TxnId::new(1) }));
    }

    /// Runs `core` to its end against the fixture's server and two peers
    /// (ids 0, 1, 2): every send is handled at once and its replies queue
    /// behind the batch; the catalog answers as the master. Returns the
    /// termination and the kind of every message the TM sent.
    fn run_against_servers(
        core: &mut TmCore,
        fx: &mut Fixture,
        peers: &mut [Core; 2],
    ) -> (TxnTermination, Vec<MsgKind>) {
        let now = Timestamp::from_millis(1);
        let mut sent = Vec::new();
        let mut inbox = std::collections::VecDeque::new();
        let mut effects = core.start(now);
        loop {
            let mut consult_master = false;
            for effect in effects {
                match effect {
                    TmEffect::Send(server, msg) => {
                        sent.push(MsgKind::of(&msg));
                        let target = match server.index() {
                            0 => &mut fx.core,
                            i => &mut peers[i as usize - 1],
                        };
                        for (_, reply) in target.handle(now, TM, msg) {
                            let event = TmEvent::from_reply(core.txn(), server, reply);
                            inbox.push_back(event.expect("a reply of this transaction"));
                        }
                    }
                    TmEffect::QueryMaster => consult_master = true,
                    TmEffect::Finished(termination) => return (*termination, sent),
                    _ => {}
                }
            }
            let event = if consult_master {
                let versions = fx.catalog.latest_snapshot().1;
                TmEvent::MasterVersions { versions }
            } else {
                inbox
                    .pop_front()
                    .expect("an unfinished core awaits a reply")
            };
            effects = core.step(now, event);
        }
    }

    fn continuous_global(fx: &Fixture) -> TmCore {
        TmCore::new(
            config(ProofScheme::Continuous, ConsistencyLevel::Global),
            spec(3),
            vec![fx.credential.clone()],
            Timestamp::ZERO,
        )
    }

    /// The 2PV contact for query i executes query i: a clean Continuous /
    /// Global commit at n = u = 3 never sends `ExecQuery`, keeps Table I's
    /// u(u+1) + u + 4n + 1 = 28 messages and u(u+1)/2 + u = 9 proofs, and
    /// waits through 5 round trips (3 fused rounds, vote, decision) where
    /// the separate query round trip made it 8.
    #[test]
    fn continuous_clean_commit_sends_no_exec_query() {
        let mut fx = fixture();
        let mut peers = [fx.peer(1), fx.peer(2)];
        let mut core = continuous_global(&fx);
        let (record, sent) = run_against_servers(&mut core, &mut fx, &mut peers);
        assert!(record.outcome.is_commit(), "{:?}", record.outcome);
        assert!(!sent.contains(&MsgKind::ExecQuery), "{sent:?}");
        assert_eq!(record.metrics.messages, 28);
        assert_eq!(record.metrics.proofs, 9);
        assert_eq!(record.metrics.round_trips, 5);
        assert_eq!(record.queries_executed, 3);
        assert_eq!(core.dropped_replies(), 0);
    }

    /// A stale replica at the fused contact: query 2 executes at server 2
    /// under v1, the round sends it the `Update`, it re-proves under v2
    /// without re-executing, and the commit is trusted under ψ.
    #[test]
    fn continuous_stale_replica_at_the_executing_server_updates_and_commits() {
        let mut fx = fixture();
        let mut peers = [fx.peer(1), fx.peer(2)];
        let v2 = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .version(PolicyVersion(2))
            .rules_text("grant(read, records) :- role(U, member).")
            .unwrap()
            .build();
        fx.catalog.publish(v2);
        fx.core.install_policy(PolicyId::new(0), PolicyVersion(2));
        peers[0].install_policy(PolicyId::new(0), PolicyVersion(2));

        let mut core = continuous_global(&fx);
        let (record, sent) = run_against_servers(&mut core, &mut fx, &mut peers);
        assert!(record.outcome.is_commit(), "{:?}", record.outcome);
        assert_eq!(sent.iter().filter(|k| **k == MsgKind::Update).count(), 1);
        assert!(!sent.contains(&MsgKind::ExecQuery));
        assert_eq!(
            peers[1].installed_versions()[&PolicyId::new(0)],
            PolicyVersion(2)
        );
        // One more proof (the re-evaluation), one more round trip.
        assert_eq!(record.metrics.proofs, 10);
        assert_eq!(record.metrics.round_trips, 6);
        assert!(crate::trusted::is_trusted(
            &record.view,
            ConsistencyLevel::Global,
            &fx.catalog
        ));
        assert!(crate::trusted::continuous_coverage(&record.view));
    }

    /// Two Continuous transactions meet on one item: the loser's contact
    /// reports the lock conflict in the `ValidateReply` it owed anyway, and
    /// the TM aborts `LockConflict` with every reply consumed.
    #[test]
    fn continuous_lock_conflict_at_the_contact_aborts_lock_conflict() {
        let mut fx = fixture();
        let mut peers = [fx.peer(1), fx.peer(2)];
        let hot = |txn| {
            let mut queries = spec(2).queries;
            queries[1].ops = vec![Operation::Add(DataItemId::new(9), 1)];
            TransactionSpec::new(TxnId::new(txn), UserId::new(1), queries)
        };
        // Transaction 7 holds the exclusive lock at server 1.
        peers[0].handle(
            Timestamp::ZERO,
            TM,
            Msg::PrepareToValidate {
                txn: TxnId::new(7),
                new_query: Some((1, Arc::new(hot(7).queries[1].clone()))),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
            },
        );
        let mut core = TmCore::new(
            config(ProofScheme::Continuous, ConsistencyLevel::View),
            hot(8),
            vec![fx.credential.clone()],
            Timestamp::ZERO,
        );
        let (record, sent) = run_against_servers(&mut core, &mut fx, &mut peers);
        assert_eq!(
            record.outcome.abort_reason(),
            Some(AbortReason::LockConflict)
        );
        assert_eq!(record.queries_executed, 1, "query 1 never ran");
        assert_eq!(core.dropped_replies(), 0);
        // Both contacted servers hear the abort; server 1 proved nothing.
        assert_eq!(sent.iter().filter(|k| **k == MsgKind::Decision).count(), 2);
        assert_eq!(record.metrics.proofs, 2, "query 0 twice, query 1 never");
        assert_eq!(fx.core.active_txns() + peers[0].active_txns(), 1);
    }

    /// A stall inside query 1's fused round (contacts: server 0, and server
    /// 1 executing). The query counts as executed iff its contact answered;
    /// a silent contact is unknowable and is not counted.
    #[test]
    fn a_stalled_fused_round_counts_the_query_only_if_its_contact_answered() {
        for (answering, executed) in [(1, 2), (0, 1)] {
            let mut fx = fixture();
            let mut peers = [fx.peer(1), fx.peer(2)];
            let now = Timestamp::from_millis(1);
            let mut core = TmCore::new(
                config(ProofScheme::Continuous, ConsistencyLevel::View),
                spec(2),
                vec![fx.credential.clone()],
                Timestamp::ZERO,
            );
            // Query 0's round resolves; query 1's round hears one server.
            let mut effects = core.start(now);
            for round in 0..2 {
                let sends: Vec<_> = effects
                    .drain(..)
                    .filter_map(|e| match e {
                        TmEffect::Send(server, msg) => Some((server, msg)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(sends.len(), round + 1);
                for (server, msg) in sends {
                    let target = match server.index() {
                        0 => &mut fx.core,
                        i => &mut peers[i as usize - 1],
                    };
                    let replies = target.handle(now, TM, msg);
                    if round == 1 && server.index() != answering {
                        continue; // lost on the way back
                    }
                    for (_, reply) in replies {
                        let event = TmEvent::from_reply(core.txn(), server, reply).unwrap();
                        effects.extend(core.step(now, event));
                    }
                }
            }
            assert!(!core.is_finished());
            let effects = core.step(now, TmEvent::ReplyTimeout);
            let record = effects
                .iter()
                .find_map(|e| match e {
                    TmEffect::Finished(t) => Some(t),
                    _ => None,
                })
                .expect("aborted");
            assert_eq!(
                record.outcome.abort_reason(),
                Some(AbortReason::ServerUnavailable)
            );
            assert_eq!(
                record.queries_executed, executed,
                "server {answering} answered"
            );
        }
    }
}
