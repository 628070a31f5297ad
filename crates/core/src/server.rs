//! The cloud server: query execution, participant side of 2PV/2PVC, and
//! crash recovery.
//!
//! The protocol logic lives in [`ServerCore`], a sans-io handler generic
//! over the address type `A` of its peers, fed through one path:
//! [`ServerCore::run_round`] (see [`crate::round`]) takes a batch of
//! messages, and [`ServerCore::handle`] is a round of one. Proof
//! evaluation lives in the shareable [`DataPlane`];
//! [`crate::CloudServerActor`] adapts the core to the discrete-event
//! simulator (`A = NodeId`), the `safetx-runtime` and `safetx-net` crates
//! to channels and sockets.

use crate::catalog::{ResourcePolicyMap, SharedCatalog};
use crate::concurrency::ConcurrencyMode;
use crate::data_plane::{DataPlane, EvalSnapshot, SharedCas};
use crate::messages::Msg;
use crate::validation::{ValidationReply, VersionMap};
use safetx_policy::{Credential, FactBase, ProofOfAuthorization};
use safetx_store::{
    ConstraintSet, LocalStore, LockManager, LockMode, MvccOverlay, ReadSet, SnapshotId, Wal,
    WriteSet,
};
use safetx_txn::{
    CommitVariant, Operation, Participant, ParticipantOutput, ParticipantRecord, ParticipantState,
    QuerySpec, Vote,
};
use safetx_types::{PolicyVersion, ServerId, Timestamp, TxnId, UserId};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-transaction state at one server.
#[derive(Debug)]
struct ServerTxn<A> {
    user: UserId,
    credentials: Arc<[Credential]>,
    /// Queries seen here: `(index within transaction, spec)`.
    queries: Vec<(usize, Arc<QuerySpec>)>,
    /// Query indexes whose data operations already ran. A duplicated
    /// `ExecQuery` (fault injection, retransmission) must not re-acquire
    /// locks or re-apply `Add` deltas to the write set.
    executed: std::collections::BTreeSet<usize>,
    writes: WriteSet,
    /// OCC only: the version observed for every item read from the store
    /// (empty under locking). Validated against the live store at the
    /// 2PVC vote.
    reads: ReadSet,
    /// OCC only: the begin-time snapshot queries read through, opened at
    /// the transaction's first executed query and released when the
    /// decision removes the transaction.
    snapshot: Option<SnapshotId>,
    participant: Participant,
    coordinator: A,
}

/// Why a server ran nothing for a query or a 2PV contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The transaction is already decided here (a duplicated or delayed
    /// message): no state is re-created and no reply is owed.
    Decided,
    /// The query lost a no-wait lock race; nothing of it ran.
    LockConflict,
}

/// Instrumentation counters exposed by [`ServerCore`] (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Proof evaluations performed (cache hits included: a hit still *is*
    /// a proof evaluation in the paper's cost model).
    pub proofs: u64,
    /// Forced log writes performed (logical — the paper's metric, never
    /// changed by group commit).
    pub forced_logs: u64,
    /// Physical WAL syncs performed (≤ `forced_logs`; wall-clock effect
    /// only, like the cache stats).
    pub physical_syncs: u64,
    /// Abort decisions applied to a transaction this server held.
    pub aborts_applied: u64,
    /// Proof-cache instrumentation (wall-clock effect only).
    pub proof_cache: safetx_metrics::ProofCacheStats,
}

/// Derives a server's capability-signing key from its id (the deployment's
/// shared key ring: every server can verify every other server's
/// capabilities, as the paper's Section III-A assumes).
#[must_use]
pub fn capability_key(server: ServerId) -> u64 {
    0xCAB1_11E7_0000_0000 ^ server.index().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The sans-io participant logic of one cloud server.
///
/// `A` is the address type of peers: `NodeId` under the simulator, a
/// channel handle under the threaded runtime.
///
/// Internally split into the protocol plane (per-transaction state, write
/// sets, participant state machines, WAL — owned exclusively by this
/// struct) and a shareable [`DataPlane`] (policy engine, proof cache,
/// installed versions), so a round's proof evaluations
/// ([`crate::DeferredEval`]) need no `&mut self` and run after the
/// protocol plane's replies have left.
pub struct ServerCore<A> {
    id: ServerId,
    data: Arc<DataPlane>,
    variant: CommitVariant,
    store: LocalStore,
    locks: LockManager,
    /// The concurrency seam: locking takes 2PL locks at query execution;
    /// OCC reads snapshots and validates at the 2PVC vote. Fixed before
    /// traffic; never switched mid-flight.
    concurrency: ConcurrencyMode,
    /// OCC only: before-image overlay giving open transactions their
    /// begin-time snapshot across foreign installs. Quiescent (and
    /// untouched) under locking.
    mvcc: MvccOverlay,
    wal: Wal<ParticipantRecord>,
    constraints: ConstraintSet,
    txns: HashMap<TxnId, ServerTxn<A>>,
    /// Decisions known here, keyed by transaction. Guards the handlers
    /// against ghost resurrection: a duplicated or delayed protocol message
    /// arriving *after* the decision must not re-create transaction state
    /// (and leak its locks). Part of the checkpoint with the store — it
    /// survives a crash — and emptied by [`ServerCore::forget_decisions`]
    /// once no message can overtake a decision.
    decided: HashMap<TxnId, safetx_txn::Decision>,
    /// Forced log writes performed (protocol plane; proofs live in the
    /// data plane).
    forced_logs: u64,
    aborts_applied: u64,
    /// Baseline behaviour: accept a peer-issued capability in lieu of a
    /// fresh proof of authorization — the unsafe shortcut of Figure 1 —
    /// and issue one with each granted proof (Bob's "read credential").
    pub(crate) capability_shortcut: bool,
}

impl<A: Clone> ServerCore<A> {
    /// Creates a server core.
    #[must_use]
    pub fn new(
        id: ServerId,
        catalog: SharedCatalog,
        resource_map: ResourcePolicyMap,
        cas: SharedCas,
        variant: CommitVariant,
    ) -> Self {
        ServerCore {
            id,
            data: Arc::new(DataPlane::new(id, catalog, resource_map, cas)),
            variant,
            store: LocalStore::new(),
            locks: LockManager::new(),
            concurrency: ConcurrencyMode::Locking,
            mvcc: MvccOverlay::new(),
            wal: Wal::new(),
            constraints: ConstraintSet::new(),
            txns: HashMap::new(),
            decided: HashMap::new(),
            forced_logs: 0,
            aborts_applied: 0,
            capability_shortcut: false,
        }
    }

    /// A shared handle to this server's data plane (proof evaluation,
    /// policy versions, proof cache).
    #[must_use]
    pub fn data_plane(&self) -> Arc<DataPlane> {
        Arc::clone(&self.data)
    }

    /// Enables or disables the proof cache (enabled by default). Disabling
    /// forces every evaluation through the engine — used by equivalence
    /// tests and cold-path benchmarks.
    pub fn set_proof_cache(&mut self, enabled: bool) {
        self.data.set_proof_cache(enabled);
    }

    /// Enables the unsafe-baseline capability behaviour (issue on grant,
    /// honor instead of re-proving). Used only to quantify the hazard the
    /// paper's schemes eliminate.
    pub fn set_unsafe_baseline(&mut self, enabled: bool) {
        self.capability_shortcut = enabled;
    }

    /// Selects the concurrency mode (locking by default). Set before any
    /// traffic reaches the server: switching with transactions in flight
    /// is unsupported.
    pub fn set_concurrency(&mut self, mode: ConcurrencyMode) {
        debug_assert!(self.txns.is_empty(), "mode switch with live transactions");
        self.concurrency = mode;
    }

    /// The active concurrency mode.
    #[must_use]
    pub fn concurrency(&self) -> ConcurrencyMode {
        self.concurrency
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Installs an initial policy version at the replica.
    pub fn install_policy(&mut self, policy: safetx_types::PolicyId, version: PolicyVersion) {
        self.data.install_policy(policy, version);
    }

    /// The replica's installed versions (owned copy).
    #[must_use]
    pub fn installed_versions(&self) -> VersionMap {
        self.data.installed_versions()
    }

    /// Mutable access to the local data store (harness seeding).
    pub fn store_mut(&mut self) -> &mut LocalStore {
        &mut self.store
    }

    /// Read access to the local data store.
    #[must_use]
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// Mutable access to the integrity constraints (harness seeding).
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        &mut self.constraints
    }

    /// Runs `f` with mutable access to the ambient fact base (e.g.
    /// observed locations). Invalidates cached proofs: ambient facts feed
    /// every evaluation.
    pub fn with_ambient<R>(&mut self, f: impl FnOnce(&mut FactBase) -> R) -> R {
        self.data.with_ambient(f)
    }

    /// Runs `f` with mutable access to the resource → policy mapping
    /// (multi-domain deployments). Invalidates cached proofs.
    pub fn with_resource_map<R>(&mut self, f: impl FnOnce(&mut ResourcePolicyMap) -> R) -> R {
        self.data.with_resource_map(f)
    }

    /// The participant write-ahead log: its live tail, from the first
    /// record of the oldest transaction still live here.
    #[must_use]
    pub fn wal(&self) -> &Wal<ParticipantRecord> {
        &self.wal
    }

    /// Cumulative instrumentation counters.
    #[must_use]
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            proofs: self.data.proofs(),
            forced_logs: self.forced_logs,
            physical_syncs: self.wal.physical_sync_count(),
            aborts_applied: self.aborts_applied,
            proof_cache: self.data.proof_cache_stats(),
        }
    }

    /// WAL force accounting: the paper's logical forces next to the
    /// physical syncs group commit amortized them into.
    #[must_use]
    pub fn wal_stats(&self) -> safetx_metrics::WalStats {
        safetx_metrics::WalStats {
            forced_logs: self.wal.forced_count(),
            physical_syncs: self.wal.physical_sync_count(),
        }
    }

    /// Opens a WAL group-commit window: every force issued by handlers
    /// until [`ServerCore::end_wal_group`] shares one physical sync. The
    /// logical force count — the paper's metric — is unaffected.
    pub(crate) fn begin_wal_group(&mut self) {
        self.wal.begin_group();
    }

    /// Closes the WAL group-commit window, performing the round's single
    /// physical sync. Must be called before any reply that depends on a
    /// force in the window (votes, decision acks) is released.
    pub(crate) fn end_wal_group(&mut self) {
        self.wal.end_group();
    }

    /// Sets the modeled device latency of one physical WAL sync.
    pub fn set_wal_sync_cost(&mut self, cost: std::time::Duration) {
        self.wal.set_sync_cost(cost);
    }

    /// Number of transactions with live state here.
    #[must_use]
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    /// Fast-forwards the replica toward target versions available in the
    /// catalog. Never moves backward.
    pub(crate) fn fast_forward(&mut self, targets: &VersionMap) {
        self.data.fast_forward(targets);
    }

    /// (Re-)evaluates proofs for every query of `txn` at this server, in
    /// one batch of its own — the protocol plane's inline evaluations (the
    /// 2PVC vote and in-commit updates). Returns `(truth, versions,
    /// proofs)`.
    fn evaluate_all(
        &self,
        now: Timestamp,
        txn: TxnId,
    ) -> (bool, VersionMap, Vec<ProofOfAuthorization>) {
        match self.txns.get(&txn) {
            Some(state) => self.data.begin_batch(now).evaluate_queries(
                state.user,
                &state.credentials,
                &state.queries,
            ),
            None => (true, VersionMap::new(), Vec::new()),
        }
    }

    /// A snapshot of `txn`'s evaluation inputs, for a round's deferred
    /// proofs.
    #[must_use]
    pub(crate) fn snapshot_txn(&self, txn: TxnId) -> Option<EvalSnapshot> {
        self.txns.get(&txn).map(|state| EvalSnapshot {
            user: state.user,
            credentials: Arc::clone(&state.credentials),
            queries: state.queries.clone(),
        })
    }

    /// Registers a 2PV contact (the protocol-plane half of
    /// [`Msg::PrepareToValidate`]): creates the transaction if new and runs
    /// `new_query`'s data operations through [`ServerCore::execute_query`]
    /// — the contact that brings a query is the one that executes it, as
    /// Punctual executes before its proof returns. Evaluating the returned
    /// snapshot, here or in [`crate::DeferredEval::run`], produces the
    /// [`Msg::ValidateReply`]; on [`Refused::LockConflict`] the reply owed
    /// is [`ValidationReply::lock_conflict`], with no proof evaluated.
    pub(crate) fn register_validation(
        &mut self,
        txn: TxnId,
        new_query: Option<(usize, Arc<QuerySpec>)>,
        user: UserId,
        credentials: &Arc<[Credential]>,
        coordinator: A,
    ) -> Result<EvalSnapshot, Refused> {
        if let Some((index, query)) = new_query {
            let pins = VersionMap::new();
            self.execute_query(txn, (index, &query), user, credentials, &pins, coordinator)?;
        } else if self.decided.contains_key(&txn) {
            return Err(Refused::Decided);
        } else {
            self.ensure_txn(txn, user, credentials, coordinator);
        }
        Ok(self.snapshot_txn(txn).expect("just registered"))
    }

    /// Executes a query's data operations into the transaction's write
    /// set, through the mode-specific acquire/read path. Returns `false`
    /// on a lock conflict (locking mode only — optimistic execution never
    /// blocks or fails here).
    fn execute_ops(&mut self, txn: TxnId, ops: &[Operation]) -> bool {
        match self.concurrency {
            ConcurrencyMode::Locking => self.execute_ops_locking(txn, ops),
            ConcurrencyMode::Occ => {
                self.execute_ops_occ(txn, ops);
                true
            }
        }
    }

    /// Strict no-wait 2PL: shared/exclusive locks at execution, held to
    /// the decision. Returns `false` on a lock conflict.
    fn execute_ops_locking(&mut self, txn: TxnId, ops: &[Operation]) -> bool {
        for op in ops {
            let mode = if op.is_write() {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            if !self.locks.acquire(txn, op.item(), mode).is_granted() {
                return false;
            }
        }
        let state = self.txns.get_mut(&txn).expect("txn registered");
        for op in ops {
            match op {
                Operation::Read(_) => {}
                Operation::Write(item, value) => state.writes.put(*item, value.clone()),
                Operation::Add(item, delta) => {
                    let current = state
                        .writes
                        .get(*item)
                        .cloned()
                        .or_else(|| self.store.read(*item).map(|v| v.value.clone()))
                        .and_then(|v| v.as_int())
                        .unwrap_or(0);
                    state
                        .writes
                        .put(*item, safetx_store::Value::Int(current + delta));
                }
            }
        }
        true
    }

    /// Optimistic execution: no locks. Reads go through the transaction's
    /// begin-time snapshot and stamp the read set (first read wins);
    /// writes buffer as under locking; `Add` reads its own buffered write
    /// first (no stamp — read-your-own-write needs no validation). Never
    /// fails, so non-conflicting transactions on the same server proceed
    /// without blocking each other.
    fn execute_ops_occ(&mut self, txn: TxnId, ops: &[Operation]) {
        if self.txns.get(&txn).is_some_and(|s| s.snapshot.is_none()) {
            let snap = self.mvcc.begin_snapshot();
            self.txns.get_mut(&txn).expect("checked").snapshot = Some(snap);
        }
        let state = self.txns.get_mut(&txn).expect("txn registered");
        let snap = state.snapshot.expect("snapshot opened above");
        for op in ops {
            match op {
                Operation::Read(item) => {
                    let observed = self
                        .mvcc
                        .read_at(&self.store, snap, *item)
                        .map(|v| v.version);
                    state.reads.record(*item, observed);
                }
                Operation::Write(item, value) => state.writes.put(*item, value.clone()),
                Operation::Add(item, delta) => {
                    let current = match state.writes.get(*item).cloned() {
                        Some(own) => own.as_int(),
                        None => {
                            let read = self.mvcc.read_at(&self.store, snap, *item);
                            state.reads.record(*item, read.map(|v| v.version));
                            read.and_then(|v| v.value.as_int())
                        }
                    }
                    .unwrap_or(0);
                    state
                        .writes
                        .put(*item, safetx_store::Value::Int(current + delta));
                }
            }
        }
    }

    /// OCC commit-scope validation for `txn` (the participant half of the
    /// validation-vote fusion): take no-wait pins — exclusive on the write
    /// set, shared on the read set — through the same lock table locking
    /// mode uses, then check every read stamp against the live store. A
    /// pin conflict or stale stamp returns `false`: the caller votes NO
    /// flagged as a concurrency conflict, and the resulting unilateral
    /// abort releases any partial pins via the decision's `release_all`,
    /// exactly like locking-mode locks.
    fn occ_validate(&mut self, txn: TxnId) -> bool {
        let state = &self.txns[&txn];
        let write_items: Vec<safetx_types::DataItemId> =
            state.writes.iter().map(|(item, _)| item).collect();
        let read_items: Vec<safetx_types::DataItemId> = state
            .reads
            .items()
            .filter(|item| state.writes.get(*item).is_none())
            .collect();
        for item in write_items {
            if !self
                .locks
                .acquire(txn, item, LockMode::Exclusive)
                .is_granted()
            {
                return false;
            }
        }
        for item in read_items {
            if !self.locks.acquire(txn, item, LockMode::Shared).is_granted() {
                return false;
            }
        }
        let state = &self.txns[&txn];
        self.store.validate(&state.reads)
    }

    fn ensure_txn(&mut self, txn: TxnId, user: UserId, credentials: &Arc<[Credential]>, coord: A) {
        let variant = self.variant;
        self.txns.entry(txn).or_insert_with(|| ServerTxn {
            user,
            credentials: Arc::clone(credentials),
            queries: Vec::new(),
            executed: std::collections::BTreeSet::new(),
            writes: WriteSet::new(),
            reads: ReadSet::new(),
            snapshot: None,
            participant: Participant::new(txn, variant),
            coordinator: coord,
        });
    }

    /// Applies participant state-machine outputs, pushing outgoing messages
    /// into `out`.
    fn apply_participant_outputs(
        &mut self,
        now: Timestamp,
        txn: TxnId,
        outputs: Vec<ParticipantOutput>,
        reply: Option<ValidationReply>,
        coordinator: A,
        out: &mut Vec<(A, Msg)>,
    ) {
        for output in outputs {
            match output {
                ParticipantOutput::ForceLog(record) => {
                    self.wal.force(record);
                    self.forced_logs += 1;
                }
                ParticipantOutput::Log(record) => self.wal.append(record),
                ParticipantOutput::SendVote(_) => {
                    if let Some(r) = reply.clone() {
                        out.push((coordinator.clone(), Msg::CommitReply { txn, reply: r }));
                    }
                }
                ParticipantOutput::SendAck => {
                    out.push((coordinator.clone(), Msg::Ack { txn }));
                }
                ParticipantOutput::Apply(decision) => {
                    if decision.is_commit() {
                        if let Some(state) = self.txns.get(&txn) {
                            let writes = state.writes.clone();
                            if self.concurrency == ConcurrencyMode::Occ {
                                // Preserve before-images for concurrently
                                // open snapshots, then install through the
                                // atomic validate-and-install primitive.
                                // Stamps were checked at the vote and the
                                // pins have excluded writers since, so
                                // this succeeds — except when a crash
                                // dropped the read pins before the
                                // decision arrived (locking loses its
                                // shared locks the same way); the global
                                // decision stands, so install regardless.
                                let reads = state.reads.clone();
                                self.mvcc.record_install(&self.store, &writes);
                                if self
                                    .store
                                    .validate_and_install(&reads, &writes, now)
                                    .is_none()
                                {
                                    self.store.apply(&writes, now);
                                }
                            } else {
                                self.store.apply(&writes, now);
                            }
                        }
                    }
                    if let Some(snap) = self.txns.get(&txn).and_then(|s| s.snapshot) {
                        self.mvcc.release_snapshot(snap);
                    }
                    self.locks.release_all(txn);
                    self.aborts_applied += u64::from(!decision.is_commit());
                    self.txns.remove(&txn);
                    self.decided.insert(txn, decision);
                    // The checkpoint (store and memo) holds the transaction
                    // now: the WAL keeps the tail from the oldest live one.
                    let live = &self.txns;
                    self.wal
                        .truncate_front_while(|r| !live.contains_key(&r.txn()));
                }
            }
        }
    }

    /// The protocol-plane half of [`Msg::ExecQuery`]: registers the
    /// transaction and the query, then runs the query's data operations —
    /// once: a duplicate of an already-executed query re-replies (and
    /// re-proves when asked) but must not re-run them, `Add` deltas are
    /// not idempotent.
    ///
    /// Refuses a transaction already decided here (a duplicated or delayed
    /// query: re-registering would resurrect ghost state and leak locks,
    /// and the TM's wait for this reply is over) and a query that lost a
    /// lock race.
    pub(crate) fn execute_query(
        &mut self,
        txn: TxnId,
        (query_index, query): (usize, &Arc<QuerySpec>),
        user: UserId,
        credentials: &Arc<[Credential]>,
        pin_versions: &VersionMap,
        coordinator: A,
    ) -> Result<(), Refused> {
        if self.decided.contains_key(&txn) {
            return Err(Refused::Decided);
        }
        self.fast_forward(pin_versions);
        self.ensure_txn(txn, user, credentials, coordinator);
        let state = self.txns.get_mut(&txn).expect("just ensured");
        if !state.queries.iter().any(|(i, _)| *i == query_index) {
            state.queries.push((query_index, Arc::clone(query)));
        }
        if !state.executed.contains(&query_index) {
            if !self.execute_ops(txn, &query.ops) {
                return Err(Refused::LockConflict);
            }
            self.txns
                .get_mut(&txn)
                .expect("just ensured")
                .executed
                .insert(query_index);
        }
        Ok(())
    }

    /// The protocol-plane messages of a round: voting, in-commit updates,
    /// decisions, gossip and recovery answers, each handled inline and
    /// answered into `out`. Everything that evaluates proofs on request
    /// (queries, 2PV contacts, standalone updates) is split by
    /// [`ServerCore::run_round`] before it gets here.
    pub(crate) fn handle_into(
        &mut self,
        now: Timestamp,
        from: A,
        msg: Msg,
        out: &mut Vec<(A, Msg)>,
    ) {
        match msg {
            Msg::PrepareToCommit {
                txn,
                validate,
                expected_queries,
            } => {
                // A duplicated prepare after the decision was applied: the
                // state machine already resolved; re-preparing would build
                // a ghost participant the coordinator never decides.
                if self.decided.contains_key(&txn) {
                    return;
                }
                let known = self.txns.contains_key(&txn);
                // Compare the TM's manifest against the queries actually
                // held: a crash before prepare loses buffered writes, and a
                // later contact may have silently re-registered the
                // transaction — the mismatch is the only evidence.
                let mut held: Vec<usize> = self
                    .txns
                    .get(&txn)
                    .map(|s| s.queries.iter().map(|(i, _)| *i).collect())
                    .unwrap_or_default();
                held.sort_unstable();
                let mut expected = expected_queries;
                expected.sort_unstable();
                let complete = held == expected;
                // The OCC half of the fused vote: commit-scope pins plus
                // the read-stamp check. A failure is a concurrency
                // casualty, flagged `conflict` on the reply so the TM
                // aborts with the transient `ValidationConflict` instead
                // of the terminal `IntegrityViolation`.
                let occ_conflict = self.concurrency == ConcurrencyMode::Occ
                    && known
                    && complete
                    && !self.occ_validate(txn);
                let vote = if occ_conflict {
                    Vote::No
                } else if known && complete {
                    let state = &self.txns[&txn];
                    match self.constraints.check(&self.store, &state.writes) {
                        Ok(()) => Vote::Yes,
                        Err(_) => Vote::No,
                    }
                } else {
                    // Lost state (crash before prepare): cannot certify.
                    Vote::No
                };
                let (truth, versions, proofs) = if validate && known {
                    self.evaluate_all(now, txn)
                } else {
                    (true, VersionMap::new(), Vec::new())
                };
                if !known {
                    self.ensure_txn(txn, UserId::default(), &Arc::from([]), from.clone());
                }
                let outputs = {
                    let state = self.txns.get_mut(&txn).expect("ensured");
                    state.coordinator = from.clone();
                    state.participant.on_prepare(
                        vote,
                        validate.then_some(truth),
                        versions.iter().map(|(&p, &v)| (p, v)).collect(),
                    )
                };
                let reply = ValidationReply {
                    vote,
                    truth,
                    versions,
                    proofs,
                    conflict: occ_conflict,
                };
                self.apply_participant_outputs(now, txn, outputs, Some(reply), from, out);
            }

            Msg::Update {
                txn,
                targets,
                in_commit: true,
            } => {
                self.fast_forward(&targets);
                if !self.txns.contains_key(&txn) {
                    return;
                }
                let (truth, versions, proofs) = self.evaluate_all(now, txn);
                let (vote, outputs) = {
                    let state = self.txns.get_mut(&txn).expect("checked");
                    let vote = match state.participant.state() {
                        ParticipantState::Prepared(v) => v,
                        _ => Vote::Yes,
                    };
                    let outputs = state
                        .participant
                        .on_revalidate(truth, versions.iter().map(|(&p, &v)| (p, v)).collect());
                    (vote, outputs)
                };
                let reply = ValidationReply {
                    vote,
                    truth,
                    versions,
                    proofs,
                    conflict: false,
                };
                self.apply_participant_outputs(now, txn, outputs, Some(reply), from, out);
            }

            Msg::Decision { txn, decision } => {
                if !self.txns.contains_key(&txn) {
                    // Abort for a transaction we never saw or already
                    // resolved: remember it, so a query of it still on its
                    // way is refused, and acknowledge if the variant
                    // expects it.
                    self.decided.insert(txn, decision);
                    if self.variant.participant_acks(decision) {
                        out.push((from, Msg::Ack { txn }));
                    }
                    return;
                }
                let outputs = {
                    let state = self.txns.get_mut(&txn).expect("checked");
                    state.participant.on_decision(decision)
                };
                self.apply_participant_outputs(now, txn, outputs, None, from, out);
            }

            Msg::PolicyGossip { policy_id, version } => {
                self.fast_forward(&[(policy_id, version)].into_iter().collect());
            }

            Msg::InquiryReply {
                txn,
                answer: safetx_txn::InquiryAnswer::Decided(decision),
            } if self.txns.contains_key(&txn) => {
                let outputs = {
                    let state = self.txns.get_mut(&txn).expect("guard checked");
                    state.participant.on_decision(decision)
                };
                self.apply_participant_outputs(now, txn, outputs, None, from, out);
            }

            _ => {}
        }
    }

    /// Crash: volatile state is lost. The checkpoint — the store and the
    /// decided memo — survives, and so does the WAL's live tail.
    /// Prepared(YES) transactions survive too — their write sets and
    /// protocol state were force-logged with the prepare record; everything
    /// else (locks, unprepared transactions) is discarded.
    pub fn crash(&mut self) {
        self.locks.clear();
        // Snapshots are volatile like locks. Survivors are past execution
        // (prepared), so they never read again; orphan their snapshot
        // handles so a post-recovery release cannot touch a snapshot some
        // new transaction opened at a colliding epoch.
        self.mvcc.clear();
        self.txns
            .retain(|_, state| state.participant.state() == ParticipantState::Prepared(Vote::Yes));
        for state in self.txns.values_mut() {
            state.snapshot = None;
        }
    }

    /// Restart after a crash, as the simulator performs it: recovery from
    /// the WAL ([`ServerCore::recover_from_wal`], the runtimes' restart
    /// too), then one [`Msg::Inquiry`] to the coordinator of each in-doubt
    /// transaction.
    pub fn restart(&mut self) -> Vec<(A, Msg)> {
        let from_server = self.id;
        self.recover_from_wal()
            .into_iter()
            .map(|txn| {
                let coordinator = self.txns[&txn].coordinator.clone();
                (coordinator, Msg::Inquiry { txn, from_server })
            })
            .collect()
    }

    /// Rebuilds protocol state from the checkpoint and the WAL's live tail
    /// after a crash — the one recovery every restart runs.
    ///
    /// Per transaction, following [`safetx_txn::recover_participant`]:
    /// * decision record in the log → decided; re-apply idempotently.
    /// * prepared YES, no decision → **in doubt**: the participant state
    ///   machine is rebuilt as prepared, exclusive locks on its write set
    ///   are re-acquired (strictness), and the transaction id is returned
    ///   so the runtime can drive the coordinator-inquiry path.
    /// * anything else → unilateral abort (the coordinator cannot have
    ///   committed without this server's vote).
    ///
    /// The decided memo survives the crash with the store; the tail's
    /// decision records are added to it.
    pub fn recover_from_wal(&mut self) -> Vec<TxnId> {
        self.locks.clear();
        self.mvcc.clear();
        let records: Vec<ParticipantRecord> = self.wal.records().cloned().collect();
        for record in &records {
            if let ParticipantRecord::Decision { txn, decision } = record {
                self.decided.insert(*txn, *decision);
            }
        }
        let mut survivors: Vec<TxnId> = self.txns.keys().copied().collect();
        survivors.sort_unstable();
        let mut in_doubt = Vec::new();
        for txn in survivors {
            let recovered = safetx_txn::recover_participant(txn, self.variant, records.iter());
            if recovered.needs_inquiry {
                let state = self.txns.get_mut(&txn).expect("survivor");
                state.participant = recovered.participant;
                state.snapshot = None;
                let items: Vec<safetx_types::DataItemId> =
                    state.writes.iter().map(|(item, _)| item).collect();
                for item in items {
                    let _ = self.locks.acquire(txn, item, LockMode::Exclusive);
                }
                in_doubt.push(txn);
            } else if let Some(decision) = recovered.apply {
                // The decision was logged before the crash; the crash
                // model applies decisions atomically with their log
                // records, so this branch is defensive — re-apply
                // idempotently and clean up.
                if decision.is_commit() {
                    if let Some(state) = self.txns.get(&txn) {
                        let writes = state.writes.clone();
                        self.store.apply(&writes, Timestamp::ZERO);
                    }
                }
                self.txns.remove(&txn);
                self.decided.insert(txn, decision);
            } else {
                self.txns.remove(&txn);
            }
        }
        in_doubt
    }

    /// Empties the decided memo. Sound only when no message sent before a
    /// decision can still arrive after it: a host calls this after a round
    /// once its link holds nothing back (DESIGN.md §5a, "Bounded state").
    pub fn forget_decisions(&mut self) {
        self.decided.clear();
    }

    /// Transactions currently prepared YES with no decision — the in-doubt
    /// set a recovering (or decision-starved) participant must resolve via
    /// coordinator inquiry.
    #[must_use]
    pub fn in_doubt_txns(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, state)| state.participant.state() == ParticipantState::Prepared(Vote::Yes))
            .map(|(&txn, _)| txn)
            .collect();
        txns.sort_unstable();
        txns
    }

    /// The decision known here for `txn`, if the memo still holds it (see
    /// [`ServerCore::forget_decisions`]).
    #[must_use]
    pub fn decided_decision(&self, txn: TxnId) -> Option<safetx_txn::Decision> {
        self.decided.get(&txn).copied()
    }

    /// Entries in the decided memo.
    #[must_use]
    pub fn decided_len(&self) -> usize {
        self.decided.len()
    }

    /// Every transaction with live state here, whatever its phase — the
    /// set a termination protocol must resolve when coordinators stop
    /// answering (lost decisions leave even unprepared transactions
    /// holding locks).
    #[must_use]
    pub fn active_txn_ids(&self) -> Vec<TxnId> {
        let mut txns: Vec<TxnId> = self.txns.keys().copied().collect();
        txns.sort_unstable();
        txns
    }
}

/// The unit-test fixture shared by this module, [`crate::data_plane`] and
/// [`crate::round`]: one seeded [`ServerCore`] and the messages that drive
/// a transaction through it.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;
    use safetx_policy::{CaRegistry, CertificateAuthority, PolicyBuilder};
    use safetx_store::Value;
    use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId};

    /// A ServerCore driven directly with `u8` addresses: the sans-io core
    /// is agnostic to how peers are named.
    pub(crate) type Core = ServerCore<u8>;
    pub(crate) const TM: u8 = 42;

    pub(crate) struct Fixture {
        pub(crate) core: Core,
        pub(crate) credential: Credential,
        /// Handles onto the catalog and CAs the core was built over, so
        /// tests can publish versions and revoke credentials mid-run.
        pub(crate) catalog: SharedCatalog,
        pub(crate) cas: SharedCas,
    }

    pub(crate) fn fixture() -> Fixture {
        let catalog = SharedCatalog::new();
        catalog.publish(
            PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
                .rules_text(
                    "grant(read, records) :- role(U, member).\n\
                     grant(write, records) :- role(U, member).",
                )
                .unwrap()
                .build(),
        );
        let mut registry = CaRegistry::new();
        let mut ca = CertificateAuthority::new(CaId::new(0), 9);
        let credential = ca.issue(
            UserId::new(1),
            safetx_policy::Atom::fact(
                "role",
                vec![
                    safetx_policy::Constant::symbol("u1"),
                    safetx_policy::Constant::symbol("member"),
                ],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        );
        registry.register(ca);
        let cas = SharedCas::new(registry);
        let mut fx = Fixture {
            core: peer_core(&catalog, &cas, ServerId::new(0)),
            credential,
            catalog,
            cas,
        };
        fx.core
            .store_mut()
            .write(DataItemId::new(0), Value::Int(5), Timestamp::ZERO);
        fx
    }

    /// A server over the given catalog and CAs, at the initial policy
    /// version, with an empty store.
    fn peer_core(catalog: &SharedCatalog, cas: &SharedCas, id: ServerId) -> Core {
        let mut core = Core::new(
            id,
            catalog.clone(),
            ResourcePolicyMap::single(PolicyId::new(0)),
            cas.clone(),
            CommitVariant::Standard,
        );
        core.install_policy(PolicyId::new(0), PolicyVersion::INITIAL);
        core
    }

    impl Fixture {
        /// Another server of the fixture's deployment: same catalog, same
        /// CAs, so the fixture's credential proves there too.
        pub(crate) fn peer(&self, id: u64) -> Core {
            peer_core(&self.catalog, &self.cas, ServerId::new(id))
        }
    }

    pub(crate) fn exec_query(fx: &mut Fixture, txn: TxnId, evaluate: bool) -> Vec<(u8, Msg)> {
        fx.core.handle(
            Timestamp::from_millis(1),
            TM,
            Msg::ExecQuery {
                txn,
                query_index: 0,
                query: Arc::new(QuerySpec::new(
                    ServerId::new(0),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(0), 1)],
                )),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
                evaluate_proof: evaluate,
                pin_versions: VersionMap::new(),
                capabilities: vec![],
            },
        )
    }

    pub(crate) fn prepare(fx: &mut Fixture, txn: TxnId) -> Vec<(u8, Msg)> {
        fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PrepareToCommit {
                txn,
                validate: true,
                expected_queries: vec![0],
            },
        )
    }

    pub(crate) fn validate(fx: &mut Fixture, txn: TxnId, at: Timestamp) -> Vec<(u8, Msg)> {
        fx.core.handle(
            at,
            TM,
            Msg::PrepareToValidate {
                txn,
                new_query: None,
                user: UserId::new(1),
                credentials: Arc::from([]),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::*;
    use super::*;
    use safetx_policy::PolicyBuilder;
    use safetx_store::Value;
    use safetx_txn::Decision;
    use safetx_types::{AdminDomain, DataItemId, PolicyId};

    #[test]
    fn query_then_prepare_then_commit_applies_writes() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        let out = exec_query(&mut fx, txn, true);
        assert_eq!(out.len(), 1);
        let (to, msg) = &out[0];
        assert_eq!(*to, TM);
        assert!(matches!(
            msg,
            Msg::QueryDone { ok: true, proof: Some(p), .. } if p.truth()
        ));

        let out = prepare(&mut fx, txn);
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if reply.vote.is_yes() && reply.truth
        ));
        assert_eq!(fx.core.counters().forced_logs, 1, "prepared record forced");

        let out = fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn,
                decision: Decision::Commit,
            },
        );
        assert!(matches!(&out[0].1, Msg::Ack { .. }));
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(6));
        assert_eq!(fx.core.active_txns(), 0, "state cleaned up");
    }

    /// Like [`exec_query`] but with caller-chosen operations, for the OCC
    /// anomaly tests below.
    fn exec_ops(fx: &mut Fixture, txn: TxnId, ops: Vec<Operation>) -> Vec<(u8, Msg)> {
        fx.core.handle(
            Timestamp::from_millis(1),
            TM,
            Msg::ExecQuery {
                txn,
                query_index: 0,
                query: Arc::new(QuerySpec::new(ServerId::new(0), "write", "records", ops)),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
                evaluate_proof: true,
                pin_versions: VersionMap::new(),
                capabilities: vec![],
            },
        )
    }

    #[test]
    fn occ_serial_execution_matches_locking() {
        for mode in [ConcurrencyMode::Locking, ConcurrencyMode::Occ] {
            let mut fx = fixture();
            fx.core.set_concurrency(mode);
            for i in 1..=3 {
                let txn = TxnId::new(i);
                exec_ops(&mut fx, txn, vec![Operation::Add(DataItemId::new(0), 2)]);
                let out = prepare(&mut fx, txn);
                assert!(
                    matches!(&out[0].1, Msg::CommitReply { reply, .. } if reply.vote.is_yes()),
                    "{mode}: serial increment must validate"
                );
                fx.core.handle(
                    Timestamp::from_millis(3),
                    TM,
                    Msg::Decision {
                        txn,
                        decision: Decision::Commit,
                    },
                );
            }
            assert_eq!(
                fx.core.store().read_int(DataItemId::new(0)),
                Some(11),
                "{mode}: 5 + 3×2"
            );
            assert_eq!(fx.core.active_txns(), 0, "{mode}: state cleaned up");
        }
    }

    #[test]
    fn occ_lost_update_is_rejected_at_validation() {
        let mut fx = fixture();
        fx.core.set_concurrency(ConcurrencyMode::Occ);
        let t1 = TxnId::new(1);
        let t2 = TxnId::new(2);
        // Both increment the same item from the same snapshot. No locks are
        // taken at execution, so neither blocks the other — under locking
        // T2 would have waited here.
        let out = exec_ops(&mut fx, t1, vec![Operation::Add(DataItemId::new(0), 1)]);
        assert!(matches!(&out[0].1, Msg::QueryDone { ok: true, .. }));
        let out = exec_ops(&mut fx, t2, vec![Operation::Add(DataItemId::new(0), 1)]);
        assert!(matches!(&out[0].1, Msg::QueryDone { ok: true, .. }));

        // T1 validates and commits: 5 → 6.
        let out = prepare(&mut fx, t1);
        assert!(matches!(&out[0].1, Msg::CommitReply { reply, .. } if reply.vote.is_yes()));
        fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn: t1,
                decision: Decision::Commit,
            },
        );
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(6));

        // T2 computed 5 + 1 from its stale snapshot. Validation sees the
        // read stamp no longer matches the live version and votes NO with
        // the conflict flag — the lost update never reaches the store.
        let out = prepare(&mut fx, t2);
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes() && reply.conflict
        ));
        assert_eq!(
            fx.core.store().read_int(DataItemId::new(0)),
            Some(6),
            "lost update prevented: T2's stale 6 must not overwrite"
        );
        assert_eq!(fx.core.active_txns(), 0, "no-voter aborts unilaterally");
    }

    #[test]
    fn occ_write_skew_is_rejected_at_validation() {
        let mut fx = fixture();
        fx.core.set_concurrency(ConcurrencyMode::Occ);
        fx.core
            .store_mut()
            .write(DataItemId::new(1), Value::Int(5), Timestamp::ZERO);
        let t1 = TxnId::new(1);
        let t2 = TxnId::new(2);
        // Classic write skew: each transaction reads the item the other
        // writes, and each write is individually consistent with its own
        // snapshot.
        exec_ops(
            &mut fx,
            t1,
            vec![
                Operation::Read(DataItemId::new(0)),
                Operation::Write(DataItemId::new(1), Value::Int(0)),
            ],
        );
        exec_ops(
            &mut fx,
            t2,
            vec![
                Operation::Read(DataItemId::new(1)),
                Operation::Write(DataItemId::new(0), Value::Int(0)),
            ],
        );

        // T1 validates first: pins S(item0) + X(item1), stamps check out.
        let out = prepare(&mut fx, t1);
        assert!(matches!(&out[0].1, Msg::CommitReply { reply, .. } if reply.vote.is_yes()));
        // T2 needs X(item0), which collides with T1's read pin: the
        // no-wait validation flags the conflict instead of letting both
        // skewed writes commit.
        let out = prepare(&mut fx, t2);
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes() && reply.conflict
        ));

        fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn: t1,
                decision: Decision::Commit,
            },
        );
        assert_eq!(fx.core.store().read_int(DataItemId::new(1)), Some(0));
        assert_eq!(
            fx.core.store().read_int(DataItemId::new(0)),
            Some(5),
            "T2's skewed write rejected"
        );
    }

    #[test]
    fn prepare_with_wrong_manifest_votes_no() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, false);
        // The TM claims this server executed queries {0, 1}: it only has 0.
        let out = fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PrepareToCommit {
                txn,
                validate: false,
                expected_queries: vec![0, 1],
            },
        );
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes()
        ));
    }

    #[test]
    fn prepare_for_unknown_transaction_votes_no() {
        let mut fx = fixture();
        let out = fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PrepareToCommit {
                txn: TxnId::new(9),
                validate: true,
                expected_queries: vec![0],
            },
        );
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. } if !reply.vote.is_yes()
        ));
    }

    #[test]
    fn crash_drops_unprepared_state_but_keeps_prepared() {
        let mut fx = fixture();
        let unprepared = TxnId::new(1);
        let prepared = TxnId::new(2);
        exec_query(&mut fx, unprepared, false);
        // Run a second txn through prepare (different item to avoid locks).
        fx.core.handle(
            Timestamp::from_millis(1),
            TM,
            Msg::ExecQuery {
                txn: prepared,
                query_index: 0,
                query: Arc::new(QuerySpec::new(
                    ServerId::new(0),
                    "read",
                    "records",
                    vec![Operation::Read(DataItemId::new(7))],
                )),
                user: UserId::new(1),
                credentials: Arc::from([fx.credential.clone()]),
                evaluate_proof: false,
                pin_versions: VersionMap::new(),
                capabilities: vec![],
            },
        );
        prepare(&mut fx, prepared);
        assert_eq!(fx.core.active_txns(), 2);

        fx.core.crash();
        assert_eq!(fx.core.active_txns(), 1, "only the prepared txn survives");
        let recovery = fx.core.restart();
        assert_eq!(recovery.len(), 1);
        assert!(matches!(recovery[0].1, Msg::Inquiry { txn, .. } if txn == prepared));
        assert_eq!(recovery[0].0, TM, "inquiry goes to the coordinator");
    }

    #[test]
    fn update_fast_forwards_and_revalidates() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, false);
        prepare(&mut fx, txn);
        // Publish v2 (same rules) and drive the replica forward.
        let v2 = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .version(PolicyVersion(2))
            .rules_text("grant(write, records) :- role(U, member).")
            .unwrap()
            .build();
        fx.catalog.publish(v2);
        let out = fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Update {
                txn,
                targets: [(PolicyId::new(0), PolicyVersion(2))].into_iter().collect(),
                in_commit: true,
            },
        );
        assert_eq!(
            fx.core.installed_versions()[&PolicyId::new(0)],
            PolicyVersion(2)
        );
        assert!(matches!(
            &out[0].1,
            Msg::CommitReply { reply, .. }
                if reply.versions[&PolicyId::new(0)] == PolicyVersion(2) && reply.truth
        ));
        assert_eq!(
            fx.core.counters().forced_logs,
            2,
            "re-validation force-logs the refreshed (vi, pi) tuples"
        );
    }

    #[test]
    fn capability_shortcut_only_in_baseline_mode() {
        let mut fx = fixture();
        let cap = safetx_policy::AccessCapability::issue(
            ServerId::new(5),
            capability_key(ServerId::new(5)),
            UserId::new(1),
            TxnId::new(1),
            "write",
            "records",
            Timestamp::ZERO,
            Timestamp::MAX,
        );
        // Through a round, the deferred proof run as a runtime runs it.
        let send_with_cap = |core: &mut Core| {
            let now = Timestamp::from_millis(1);
            let msg = Msg::ExecQuery {
                txn: TxnId::new(1),
                query_index: 0,
                query: Arc::new(QuerySpec::new(
                    ServerId::new(0),
                    "write",
                    "records",
                    vec![Operation::Add(DataItemId::new(0), 1)],
                )),
                user: UserId::new(1),
                credentials: Arc::from([]), // no credential: only the capability
                evaluate_proof: true,
                pin_versions: VersionMap::new(),
                capabilities: vec![cap.clone()],
            };
            let round = core.run_round(now, [(TM, msg)]);
            assert!(round.replies.is_empty(), "the proof is deferred");
            round.deferred.expect("one proof to run").run(now)
        };
        // Safe mode: the capability is ignored; with no credential the
        // proof is denied.
        let out = send_with_cap(&mut fx.core);
        assert!(matches!(
            &out[..],
            [(_, Msg::QueryDone { proof: Some(p), capability: None, .. })] if !p.truth()
        ));
        assert_eq!(fx.core.counters().proofs, 1);

        // Baseline mode: the capability passes for a proof — no policy
        // evaluation counted — and the granted proof issues a capability of
        // this server's own.
        let mut fx2 = fixture();
        fx2.core.set_unsafe_baseline(true);
        let out = send_with_cap(&mut fx2.core);
        let [(
            _,
            Msg::QueryDone {
                proof: Some(p),
                capability: Some(issued),
                ..
            },
        )] = &out[..]
        else {
            panic!("expected a granted proof with a capability, got {out:?}");
        };
        assert!(p.truth());
        assert_eq!(fx2.core.counters().proofs, 0);
        assert_eq!(issued.issuer(), ServerId::new(0));
        assert!(issued.verify(capability_key(ServerId::new(0)), Timestamp::from_millis(2)));
    }

    #[test]
    fn a_stale_query_after_crash_and_restart_resurrects_nothing() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, false);
        prepare(&mut fx, txn);
        fx.core.handle(
            Timestamp::from_millis(3),
            TM,
            Msg::Decision {
                txn,
                decision: Decision::Commit,
            },
        );
        fx.core.crash();
        assert!(fx.core.restart().is_empty(), "nothing in doubt");
        // A duplicate of the committed transaction's query arrives late:
        // the decision memo, which survived the crash with the store,
        // turns it away.
        assert!(exec_query(&mut fx, txn, true).is_empty(), "no reply owed");
        assert_eq!(fx.core.active_txns(), 0, "no ghost transaction");
        // …and no ghost lock: a fresh write to the same item commits.
        let fresh = TxnId::new(2);
        let out = exec_query(&mut fx, fresh, false);
        assert!(matches!(&out[0].1, Msg::QueryDone { ok: true, .. }));
        prepare(&mut fx, fresh);
        fx.core.handle(
            Timestamp::from_millis(4),
            TM,
            Msg::Decision {
                txn: fresh,
                decision: Decision::Commit,
            },
        );
        assert_eq!(fx.core.store().read_int(DataItemId::new(0)), Some(7));
    }

    #[test]
    fn capability_keys_differ_per_server_and_verify() {
        let a = capability_key(ServerId::new(0));
        let b = capability_key(ServerId::new(1));
        assert_ne!(a, b);
        let cap = safetx_policy::AccessCapability::issue(
            ServerId::new(0),
            a,
            UserId::new(1),
            TxnId::new(1),
            "read",
            "records",
            Timestamp::ZERO,
            Timestamp::from_millis(10),
        );
        assert!(cap.verify(a, Timestamp::from_millis(5)));
        assert!(!cap.verify(b, Timestamp::from_millis(5)));
    }
}
