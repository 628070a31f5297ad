//! The shareable data plane of a cloud server: certificate-authority
//! handle, policy versions, the proof cache and proof evaluation, all of
//! it through one evaluator — [`BatchEval`], over a whole server round or
//! over one proof ([`DataPlane::evaluate_one`]).

use crate::catalog::{ResourcePolicyMap, SharedCatalog};
use crate::validation::VersionMap;
use safetx_policy::{
    AccessRequest, CaRegistry, Credential, CredentialStatus, Engine, FactBase,
    ProofOfAuthorization, ProofOutcome, StatusOracle, SyntacticCheck,
};
use safetx_txn::QuerySpec;
use safetx_types::{CredentialId, PolicyId, PolicyVersion, ServerId, Timestamp, UserId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Shared handle to the deployment's certificate authorities.
///
/// The paper assumes "each CA offers an online method that allows any server
/// to check the current status of a particular credential"; this handle is
/// that online method. Workloads revoke credentials through it mid-run.
///
/// The handle also maintains a **revocation epoch**: a counter bumped on
/// every mutation of CA state (issue, revoke, register). Proof caches key
/// their validity on this epoch, so any oracle state change — however
/// small — flushes every cached authorization decision that might have
/// depended on it. This is what preserves the paper's time-dependent
/// semantic validity check under caching: a credential revoked in
/// `[ti, t]` can never be served from a pre-revocation cache entry.
#[derive(Debug, Clone, Default)]
pub struct SharedCas {
    inner: Arc<RwLock<CaRegistry>>,
    epoch: Arc<std::sync::atomic::AtomicU64>,
}

impl SharedCas {
    /// Wraps a registry.
    #[must_use]
    pub fn new(registry: CaRegistry) -> Self {
        SharedCas {
            inner: Arc::new(RwLock::new(registry)),
            epoch: Arc::default(),
        }
    }

    /// Runs `f` with mutable access (issue/revoke operations). Always bumps
    /// the revocation epoch: callers get mutable registry access only
    /// through here, so every possible oracle state change is covered.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut CaRegistry) -> R) -> R {
        let result = f(&mut self.inner.write().expect("CA lock poisoned"));
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        result
    }

    /// The current revocation epoch. Two equal observations bracket a span
    /// with no CA state change.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The recorded revocation instant for `credential`, including
    /// future-dated revocations not yet visible to `status`.
    #[must_use]
    pub fn revocation_instant(&self, credential: CredentialId) -> Option<Timestamp> {
        self.inner
            .read()
            .expect("CA lock poisoned")
            .revocation_instant(credential)
    }
}

impl StatusOracle for SharedCas {
    fn status(&self, credential: CredentialId, at: Timestamp) -> CredentialStatus {
        self.inner
            .read()
            .expect("CA lock poisoned")
            .status(credential, at)
    }

    fn verify(&self, credential: &Credential, at: Timestamp) -> SyntacticCheck {
        self.inner
            .read()
            .expect("CA lock poisoned")
            .verify(credential, at)
    }
}

/// Cache key for one proof-of-authorization decision. Everything the
/// outcome depends on is either in the key (policy identity and version,
/// requester, the exact credential list in presentation order, the request)
/// or guarded by an invalidation signal (CA revocation epoch, ambient
/// facts, resource→policy mapping).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProofCacheKey {
    policy: PolicyId,
    version: PolicyVersion,
    user: UserId,
    /// Presentation order matters: evaluation short-circuits on the first
    /// invalid credential, so a reordered list is a different computation.
    credentials: Vec<CredentialId>,
    action: String,
    resource: String,
}

/// One cached decision and the time window it provably covers.
#[derive(Debug, Clone)]
struct CachedProof {
    outcome: ProofOutcome,
    /// First instant the entry answers for (the original evaluation time).
    valid_from: Timestamp,
    /// Exclusive horizon: the earliest instant at which some credential's
    /// status can flip without a CA mutation (its validity-window start or
    /// end, or an already-recorded future revocation instant).
    valid_until: Timestamp,
}

/// Per-server proof cache with whole-cache epoch invalidation.
#[derive(Debug, Default)]
struct ProofCache {
    entries: HashMap<ProofCacheKey, CachedProof>,
    /// The CA revocation epoch the entries were computed under.
    epoch: u64,
    /// Bumped on every `invalidate_all`. Lets an evaluation that released
    /// the cache lock mid-computation detect a concurrent flush and discard
    /// its (possibly stale) result instead of inserting it.
    flush_seq: u64,
    stats: safetx_metrics::ProofCacheStats,
    disabled: bool,
}

impl ProofCache {
    /// Drops every entry, counting them as invalidations.
    fn invalidate_all(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.flush_seq += 1;
    }

    /// Aligns the cache with the oracle's revocation epoch, flushing stale
    /// entries when CA state changed since they were computed.
    fn sync_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.invalidate_all();
            self.epoch = epoch;
        }
    }

    /// Looks up a decision valid at `now`.
    fn get(&mut self, key: &ProofCacheKey, now: Timestamp) -> Option<ProofOutcome> {
        if self.disabled {
            return None;
        }
        match self.entries.get(key) {
            Some(entry) if entry.valid_from <= now && now < entry.valid_until => {
                self.stats.hits += 1;
                Some(entry.outcome.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }
}

/// A consistent snapshot of one transaction's proof-evaluation inputs,
/// extracted from the protocol plane for a [`crate::DeferredEval`].
///
/// All payloads are `Arc`-shared with the server's transaction state, so
/// taking a snapshot is refcount traffic, not a deep copy.
#[derive(Debug, Clone)]
pub struct EvalSnapshot {
    /// The requesting user.
    pub user: UserId,
    /// The credentials presented at Begin.
    pub credentials: Arc<[Credential]>,
    /// The queries registered at this server: `(index, spec)`.
    pub queries: Vec<(usize, Arc<QuerySpec>)>,
}

/// The shareable data plane of one cloud server: everything proof
/// evaluation touches, behind interior mutability so proofs are evaluated
/// through a shared handle while the server keeps exclusive ownership of
/// the protocol plane (locks, decisions, WAL forces, 2PVC votes,
/// per-transaction state).
///
/// Every runtime drives a server from one thread at a time — the
/// thread that runs a round also runs its [`crate::DeferredEval`] — so the
/// locks below are uncontended. The interior mutability stays because the
/// handle is shared, not because it is raced: a `DeferredEval` carries an
/// `Arc` of the plane out of the `&mut ServerCore` borrow that built it,
/// and [`crate::ServerCore::data_plane`] hands the same `Arc` to callers
/// that evaluate or install policies without going through the core.
pub struct DataPlane {
    id: ServerId,
    catalog: SharedCatalog,
    cas: SharedCas,
    engine: Engine,
    resource_map: RwLock<ResourcePolicyMap>,
    ambient: RwLock<FactBase>,
    /// Versions of each policy currently installed at this replica.
    installed: RwLock<VersionMap>,
    proof_cache: Mutex<ProofCache>,
    /// Mirrors `proof_cache.disabled` so evaluation can skip the cache
    /// mutex entirely when caching is off.
    cache_enabled: AtomicBool,
    /// Proof evaluations performed (cache hits included).
    proofs: AtomicU64,
    /// Full engine evaluations: cache misses that actually ran the
    /// credential checks and the inference engine. Excludes cache hits and
    /// within-batch dedup reuse — the regression guard for the
    /// redundant-evaluation fix (see [`BatchEval`]).
    engine_evals: AtomicU64,
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane").field("id", &self.id).finish()
    }
}

impl DataPlane {
    pub(crate) fn new(
        id: ServerId,
        catalog: SharedCatalog,
        resource_map: ResourcePolicyMap,
        cas: SharedCas,
    ) -> Self {
        DataPlane {
            id,
            catalog,
            cas,
            engine: Engine::new(),
            resource_map: RwLock::new(resource_map),
            ambient: RwLock::new(FactBase::new()),
            installed: RwLock::new(VersionMap::new()),
            proof_cache: Mutex::new(ProofCache::default()),
            cache_enabled: AtomicBool::new(true),
            proofs: AtomicU64::new(0),
            engine_evals: AtomicU64::new(0),
        }
    }

    /// Full engine evaluations performed so far (cache misses that ran the
    /// credential checks and the engine; cache hits and within-batch dedup
    /// reuse excluded). Instrumentation only — the paper's proof count is
    /// [`crate::ServerCounters::proofs`].
    #[must_use]
    pub fn engine_evaluations(&self) -> u64 {
        self.engine_evals.load(Ordering::Relaxed)
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Proof evaluations performed so far (cache hits included).
    pub(crate) fn proofs(&self) -> u64 {
        self.proofs.load(Ordering::Relaxed)
    }

    /// Installs an initial policy version at the replica.
    pub fn install_policy(&self, policy: PolicyId, version: PolicyVersion) {
        use std::collections::btree_map::Entry;
        let mut installed = self.installed.write().expect("installed lock poisoned");
        match installed.entry(policy) {
            Entry::Vacant(slot) => {
                slot.insert(version);
                drop(installed);
                self.invalidate_proof_cache();
            }
            Entry::Occupied(mut slot) => {
                if version > *slot.get() {
                    slot.insert(version);
                    drop(installed);
                    self.invalidate_proof_cache();
                }
            }
        }
    }

    /// The replica's installed versions (owned copy).
    #[must_use]
    pub fn installed_versions(&self) -> VersionMap {
        self.installed
            .read()
            .expect("installed lock poisoned")
            .clone()
    }

    /// Enables or disables the proof cache (enabled by default).
    pub fn set_proof_cache(&self, enabled: bool) {
        let mut cache = self.proof_cache.lock().expect("proof cache poisoned");
        cache.disabled = !enabled;
        if !enabled {
            cache.entries.clear();
            cache.flush_seq += 1;
        }
        // Publish the flag after the cache state: a racing evaluation that
        // still sees the cache as enabled re-checks `disabled` (and the
        // flush sequence) under the lock before inserting.
        self.cache_enabled.store(enabled, Ordering::Release);
    }

    /// Runs `f` with mutable access to the ambient fact base (e.g. observed
    /// locations). Invalidates cached proofs: ambient facts feed every
    /// evaluation.
    pub fn with_ambient<R>(&self, f: impl FnOnce(&mut FactBase) -> R) -> R {
        let result = f(&mut self.ambient.write().expect("ambient lock poisoned"));
        self.invalidate_proof_cache();
        result
    }

    /// Runs `f` with mutable access to the resource → policy mapping
    /// (multi-domain deployments). Invalidates cached proofs: the mapping
    /// picks which policy governs each resource.
    pub fn with_resource_map<R>(&self, f: impl FnOnce(&mut ResourcePolicyMap) -> R) -> R {
        let result = f(&mut self
            .resource_map
            .write()
            .expect("resource map lock poisoned"));
        self.invalidate_proof_cache();
        result
    }

    fn invalidate_proof_cache(&self) {
        self.proof_cache
            .lock()
            .expect("proof cache poisoned")
            .invalidate_all();
    }

    pub(crate) fn proof_cache_stats(&self) -> safetx_metrics::ProofCacheStats {
        self.proof_cache.lock().expect("proof cache poisoned").stats
    }

    /// Fast-forwards the replica toward target versions available in the
    /// catalog. Never moves backward. Any actual version movement is a
    /// policy install and flushes the proof cache.
    pub fn fast_forward(&self, targets: &VersionMap) {
        let mut installed_any = false;
        {
            let mut installed = self.installed.write().expect("installed lock poisoned");
            for (&policy, &version) in targets {
                match installed.entry(policy) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(version);
                        installed_any = true;
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        if version > *slot.get() && self.catalog.fetch(policy, version).is_ok() {
                            slot.insert(version);
                            installed_any = true;
                        }
                    }
                }
            }
        }
        if installed_any {
            self.invalidate_proof_cache();
        }
    }

    /// Evaluates the proof of authorization for one query at the currently
    /// installed policy version: a [`BatchEval`] of one.
    pub fn evaluate_one(
        &self,
        now: Timestamp,
        user: UserId,
        credentials: &[Credential],
        query: &QuerySpec,
    ) -> ProofOfAuthorization {
        self.begin_batch(now).evaluate_one(user, credentials, query)
    }

    /// The policy governing `resource` and the version of it installed at
    /// this replica.
    fn governing(&self, resource: &str) -> (PolicyId, PolicyVersion) {
        let policy_id = self
            .resource_map
            .read()
            .expect("resource map lock poisoned")
            .policy_for(resource)
            .unwrap_or_else(|| panic!("resource `{resource}` bound to no policy"));
        let version = self
            .installed
            .read()
            .expect("installed lock poisoned")
            .get(&policy_id)
            .copied()
            .unwrap_or(PolicyVersion::INITIAL);
        (policy_id, version)
    }

    /// The lookup half of the proof-cache guard: aligns the cache with the
    /// CA revocation epoch, then looks `key` up at `now`. A miss returns
    /// the cache's flush sequence — the token [`DataPlane::cache_insert`]
    /// needs to detect a flush that lands while the caller evaluates with
    /// the cache lock released.
    fn cache_lookup(&self, key: &ProofCacheKey, now: Timestamp) -> Result<ProofOutcome, u64> {
        let mut cache = self.proof_cache.lock().expect("proof cache poisoned");
        cache.sync_epoch(self.cas.epoch());
        cache.get(key, now).ok_or(cache.flush_seq)
    }

    /// The insert half of the proof-cache guard: caches `outcome` up to the
    /// credentials' validity horizon, unless the cache was disabled or
    /// flushed (or the revocation epoch moved) since the lookup that
    /// returned `flush_token` — the result may predate that invalidation
    /// signal.
    fn cache_insert(
        &self,
        key: ProofCacheKey,
        outcome: &ProofOutcome,
        now: Timestamp,
        credentials: &[Credential],
        flush_token: u64,
    ) {
        let valid_until = self.validity_horizon(now, credentials);
        if now >= valid_until {
            return;
        }
        let mut cache = self.proof_cache.lock().expect("proof cache poisoned");
        if !cache.disabled && cache.flush_seq == flush_token && cache.epoch == self.cas.epoch() {
            cache.entries.insert(
                key,
                CachedProof {
                    outcome: outcome.clone(),
                    valid_from: now,
                    valid_until,
                },
            );
        }
    }

    /// Opens a batched-evaluation context for one server round: all proofs
    /// evaluated through it share one catalog fetch per `(policy, version)`,
    /// one credential check + rule saturation per `(policy, version,
    /// credential list)`, and identical requests are evaluated exactly once
    /// (the within-round dedup that fixes the redundant-evaluation race).
    ///
    /// Every evaluation in the batch happens at the single instant `now` —
    /// the round's evaluation time.
    #[must_use]
    pub fn begin_batch(&self, now: Timestamp) -> BatchEval<'_> {
        BatchEval {
            data: self,
            now,
            policies: HashMap::new(),
            saturations: HashMap::new(),
            computed: HashMap::new(),
        }
    }

    /// The earliest instant after `now` at which any of `credentials` can
    /// change status *without* a CA mutation (which would bump the epoch):
    /// a validity window opening or closing, or an already-recorded
    /// future-dated revocation taking effect. Cached decisions are unsound
    /// at or beyond this horizon.
    fn validity_horizon(&self, now: Timestamp, credentials: &[Credential]) -> Timestamp {
        let mut horizon = Timestamp::MAX;
        for cred in credentials {
            if now < cred.issued_at() {
                horizon = horizon.min(cred.issued_at());
            } else if now < cred.expires_at() {
                horizon = horizon.min(cred.expires_at());
            }
            if let Some(revoked_at) = self.cas.revocation_instant(cred.id()) {
                if revoked_at > now {
                    horizon = horizon.min(revoked_at);
                }
            }
        }
        horizon
    }

    /// Fabricates the granted proof a capability shortcut stands for —
    /// recorded with the replica's installed version but with *no* fresh
    /// policy or credential evaluation (hence unsafe).
    pub(crate) fn proof_from_capability(
        &self,
        now: Timestamp,
        user: UserId,
        query: &QuerySpec,
    ) -> ProofOfAuthorization {
        let (policy_id, version) = self.governing(&query.resource);
        ProofOfAuthorization {
            request: AccessRequest::new(user, query.action.clone(), query.resource.clone()),
            server: self.id,
            policy_id,
            policy_version: version,
            evaluated_at: now,
            credentials: vec![],
            outcome: ProofOutcome::Granted,
        }
    }
}

/// Shared evaluation state for one `(policy, version, credential list)`
/// group within a batch.
enum SaturationEntry {
    /// Valid wallet: the fact base saturated under the policy's rules,
    /// ready for per-goal lookups.
    Saturated(FactBase),
    /// Every query under this key short-circuits with this outcome — an
    /// invalid/revoked credential, or a blown derivation budget (mapped to
    /// `NotDerivable`, as a failed `safetx_policy::evaluate_proof` is).
    Fixed(ProofOutcome),
}

/// Batched proof evaluation over one server round — the server's only
/// proof evaluator ([`DataPlane::evaluate_one`] is a batch of one).
///
/// Decides exactly what `safetx_policy::evaluate_proof` decides at the
/// replica's installed version, but consults the per-server proof cache
/// first and amortizes the expensive middle across the batch:
///
/// * **one catalog fetch** per `(policy, version)`;
/// * **one credential check + rule saturation** per `(policy, version,
///   credential list)` — every query presenting the same wallet under the
///   same policy probes one shared saturated [`FactBase`] instead of
///   cloning the ambient facts and re-running the fixpoint;
/// * **one full evaluation** per distinct request: identical cache-miss
///   keys within the batch reuse the first evaluation's outcome (counted
///   as cache hits when the cache is enabled), closing the window in which
///   concurrent misses on one key redundantly re-evaluated.
///
/// A cache hit still counts as a proof evaluation in
/// [`crate::ServerCounters::proofs`]: the paper's Table I cost model is
/// about *how many* proofs each scheme demands, not how fast one is
/// computed. The cache lock is **not** held across an evaluation: a flush
/// that lands mid-evaluation is detected via the cache's flush sequence,
/// discarding the stale insert.
///
/// Dropped at the end of the round; nothing here outlives the batch except
/// what the regular proof cache retains.
pub struct BatchEval<'a> {
    data: &'a DataPlane,
    now: Timestamp,
    /// One catalog fetch per (policy, version); `None` caches a missing
    /// version (denied, never inserted into the proof cache).
    policies: HashMap<(PolicyId, PolicyVersion), Option<Arc<safetx_policy::Policy>>>,
    /// One credential check + saturation per (policy, version, wallet).
    saturations: HashMap<(PolicyId, PolicyVersion, Vec<CredentialId>), SaturationEntry>,
    /// Within-batch dedup: outcome of every distinct request evaluated so
    /// far this round.
    computed: HashMap<ProofCacheKey, ProofOutcome>,
}

impl BatchEval<'_> {
    /// Evaluates one proof through the batch context at the batch's
    /// instant.
    pub fn evaluate_one(
        &mut self,
        user: UserId,
        credentials: &[Credential],
        query: &QuerySpec,
    ) -> ProofOfAuthorization {
        let data = self.data;
        let now = self.now;
        let (policy_id, version) = data.governing(&query.resource);
        let credential_ids: Vec<CredentialId> = credentials.iter().map(Credential::id).collect();
        // The key is built even with the cache disabled: within-batch dedup
        // needs it.
        let key = ProofCacheKey {
            policy: policy_id,
            version,
            user,
            credentials: credential_ids.clone(),
            action: query.action.clone(),
            resource: query.resource.clone(),
        };
        let finish = move |outcome: ProofOutcome| {
            data.proofs.fetch_add(1, Ordering::Relaxed);
            ProofOfAuthorization {
                request: AccessRequest::new(user, query.action.clone(), query.resource.clone()),
                server: data.id,
                policy_id,
                policy_version: version,
                evaluated_at: now,
                credentials: credential_ids,
                outcome,
            }
        };
        let cache_enabled = data.cache_enabled.load(Ordering::Acquire);
        // Within-batch dedup first: an identical request already evaluated
        // this round reuses its outcome. Counted as a cache hit (a reuse is
        // a wall-clock saving, and the paper's proof count still advances).
        if let Some(outcome) = self.computed.get(&key) {
            if cache_enabled {
                data.proof_cache
                    .lock()
                    .expect("proof cache poisoned")
                    .stats
                    .hits += 1;
            }
            return finish(outcome.clone());
        }
        let lookup = if cache_enabled {
            match data.cache_lookup(&key, now) {
                Ok(outcome) => return finish(outcome),
                Err(flush_token) => Some(flush_token),
            }
        } else {
            None
        };
        // One catalog fetch per (policy, version) for the whole batch.
        let policy = self
            .policies
            .entry((policy_id, version))
            .or_insert_with(|| data.catalog.fetch_shared(policy_id, version).ok())
            .clone();
        let Some(policy) = policy else {
            // Missing catalog version: denied, never cached and never
            // recorded for dedup — it can appear at any later instant
            // without an invalidation signal.
            return finish(ProofOutcome::NotDerivable);
        };
        // One credential check + saturation per (policy, version, wallet).
        let entry = self
            .saturations
            .entry((policy_id, version, key.credentials.clone()))
            .or_insert_with(|| {
                let ambient = data.ambient.read().expect("ambient lock poisoned");
                match safetx_policy::credential_fact_base(&data.cas, &ambient, credentials, now) {
                    Ok(safetx_policy::CredentialCheck::Valid(facts)) => {
                        match data.engine.saturate(policy.rules().as_slice(), &facts) {
                            Ok(saturated) => SaturationEntry::Saturated(saturated),
                            Err(_) => SaturationEntry::Fixed(ProofOutcome::NotDerivable),
                        }
                    }
                    Ok(safetx_policy::CredentialCheck::Refused(outcome)) => {
                        SaturationEntry::Fixed(outcome)
                    }
                    Err(_) => SaturationEntry::Fixed(ProofOutcome::NotDerivable),
                }
            });
        let outcome = match entry {
            SaturationEntry::Saturated(saturated) => {
                let goal =
                    AccessRequest::new(user, query.action.clone(), query.resource.clone()).goal();
                if Engine::holds(saturated, &goal) {
                    ProofOutcome::Granted
                } else {
                    ProofOutcome::NotDerivable
                }
            }
            SaturationEntry::Fixed(outcome) => outcome.clone(),
        };
        data.engine_evals.fetch_add(1, Ordering::Relaxed);
        self.computed.insert(key.clone(), outcome.clone());
        if let Some(flush_token) = lookup {
            data.cache_insert(key, &outcome, now, credentials, flush_token);
        }
        finish(outcome)
    }

    /// (Re-)evaluates proofs for a transaction's queries at this server
    /// through the batch context. Returns `(truth, versions, proofs)` —
    /// the body of a 2PV or 2PVC reply.
    #[must_use]
    pub fn evaluate_queries(
        &mut self,
        user: UserId,
        credentials: &[Credential],
        queries: &[(usize, Arc<QuerySpec>)],
    ) -> (bool, VersionMap, Vec<ProofOfAuthorization>) {
        let mut truth = true;
        let mut versions = VersionMap::new();
        let mut proofs = Vec::new();
        for (_, query) in queries {
            let proof = self.evaluate_one(user, credentials, query);
            truth &= proof.truth();
            versions.insert(proof.policy_id, proof.policy_version);
            proofs.push(proof);
        }
        (truth, versions, proofs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Msg;
    use crate::server::fixture::*;
    use safetx_policy::PolicyBuilder;
    use safetx_txn::Operation;
    use safetx_types::{AdminDomain, CaId, DataItemId, TxnId};

    #[test]
    fn proof_cache_hit_still_counts_as_a_proof() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, true);
        let out = exec_query(&mut fx, txn, true);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 2, "Table I accounting unchanged by cache");
        assert_eq!(counters.proof_cache.hits, 1);
        assert_eq!(counters.proof_cache.misses, 1);
    }

    #[test]
    fn revocation_epoch_flushes_cache_and_denies() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        let out = exec_query(&mut fx, txn, true);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
        let cred_id = fx.credential.id();
        fx.cas.with_mut(|registry| {
            registry.revoke(CaId::new(0), cred_id, Timestamp::from_millis(2));
        });
        let out = validate(&mut fx, txn, Timestamp::from_millis(3));
        assert!(matches!(
            &out[0].1,
            Msg::ValidateReply { reply, .. } if !reply.truth
        ));
        let counters = fx.core.counters();
        assert_eq!(counters.proof_cache.hits, 0, "stale grant never served");
        assert_eq!(counters.proof_cache.invalidations, 1);
    }

    #[test]
    fn future_dated_revocation_bounds_cached_validity() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        let cred_id = fx.credential.id();
        // Revocation recorded before any evaluation, effective at t=5ms —
        // so no epoch change happens between the two evaluations below.
        fx.cas.with_mut(|registry| {
            registry.revoke(CaId::new(0), cred_id, Timestamp::from_millis(5));
        });
        // t=1ms: still good — granted and cached.
        let out = exec_query(&mut fx, txn, true);
        assert!(matches!(
            &out[0].1,
            Msg::QueryDone { proof: Some(p), .. } if p.truth()
        ));
        // t=9ms: the entry's validity horizon (5ms) has passed.
        let out = validate(&mut fx, txn, Timestamp::from_millis(9));
        assert!(matches!(
            &out[0].1,
            Msg::ValidateReply { reply, .. } if !reply.truth
        ));
        assert_eq!(fx.core.counters().proof_cache.hits, 0);
    }

    #[test]
    fn policy_install_invalidates_cache() {
        let mut fx = fixture();
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, true);
        let v2 = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .version(PolicyVersion(2))
            .rules_text("grant(write, records) :- role(U, admin).")
            .unwrap()
            .build();
        fx.catalog.publish(v2);
        fx.core.handle(
            Timestamp::from_millis(2),
            TM,
            Msg::PolicyGossip {
                policy_id: PolicyId::new(0),
                version: PolicyVersion(2),
            },
        );
        assert_eq!(fx.core.counters().proof_cache.invalidations, 1);
        let out = validate(&mut fx, txn, Timestamp::from_millis(3));
        assert!(matches!(
            &out[0].1,
            Msg::ValidateReply { reply, .. } if !reply.truth
        ));
        assert_eq!(fx.core.counters().proof_cache.hits, 0);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut fx = fixture();
        fx.core.set_proof_cache(false);
        let txn = TxnId::new(1);
        exec_query(&mut fx, txn, true);
        exec_query(&mut fx, txn, true);
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 2);
        assert_eq!(
            counters.proof_cache,
            safetx_metrics::ProofCacheStats::default()
        );
    }

    fn eval_query(action: &str) -> Arc<QuerySpec> {
        Arc::new(QuerySpec::new(
            ServerId::new(0),
            action,
            "records",
            vec![Operation::Read(DataItemId::new(0))],
        ))
    }

    #[test]
    fn batch_dedups_identical_requests_within_a_round() {
        // Regression for the documented redundant-evaluation race: before
        // batching, N concurrent misses on one key all ran the engine.
        let fx = fixture();
        let data = fx.core.data_plane();
        let query = eval_query("write");
        let creds = [fx.credential.clone()];
        let mut batch = data.begin_batch(Timestamp::from_millis(1));
        let proofs: Vec<_> = (0..4)
            .map(|_| batch.evaluate_one(UserId::new(1), &creds, &query))
            .collect();
        drop(batch);
        assert!(proofs
            .iter()
            .all(safetx_policy::ProofOfAuthorization::truth));
        assert_eq!(
            data.engine_evaluations(),
            1,
            "identical requests in one round must evaluate once"
        );
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 4, "Table I accounting unchanged");
        assert_eq!(counters.proof_cache.misses, 1);
        assert_eq!(counters.proof_cache.hits, 3, "dedup reuse counts as hits");
    }

    #[test]
    fn batch_dedups_even_with_the_cache_disabled() {
        let mut fx = fixture();
        fx.core.set_proof_cache(false);
        let data = fx.core.data_plane();
        let query = eval_query("write");
        let creds = [fx.credential.clone()];
        let mut batch = data.begin_batch(Timestamp::from_millis(1));
        for _ in 0..3 {
            assert!(batch.evaluate_one(UserId::new(1), &creds, &query).truth());
        }
        drop(batch);
        assert_eq!(data.engine_evaluations(), 1);
        let counters = fx.core.counters();
        assert_eq!(counters.proofs, 3);
        assert_eq!(
            counters.proof_cache,
            safetx_metrics::ProofCacheStats::default(),
            "disabled cache stays inert under batching too"
        );
    }

    /// The independent reference the evaluator is checked against:
    /// `safetx_policy::evaluate_proof` straight over the catalog's policy
    /// at `version`, the fixture's CAs and the given ambient facts. A
    /// version missing from the catalog and a failed evaluation (a blown
    /// derivation budget) deny.
    fn reference(
        fx: &Fixture,
        ambient: &FactBase,
        version: PolicyVersion,
        now: Timestamp,
        credentials: &[Credential],
    ) -> ProofOfAuthorization {
        let request = AccessRequest::new(UserId::new(1), "write", "records");
        let denied = ProofOfAuthorization {
            request: request.clone(),
            server: ServerId::new(0),
            policy_id: PolicyId::new(0),
            policy_version: version,
            evaluated_at: now,
            credentials: credentials.iter().map(Credential::id).collect(),
            outcome: ProofOutcome::NotDerivable,
        };
        let Ok(policy) = fx.catalog.fetch(PolicyId::new(0), version) else {
            return denied;
        };
        let ctx = safetx_policy::ProofContext {
            policy: &policy,
            oracle: &fx.cas,
            engine: &Engine::new(),
            ambient_facts: ambient,
        };
        safetx_policy::evaluate_proof(&ctx, ServerId::new(0), &request, credentials, now)
            .unwrap_or(denied)
    }

    /// One evaluator case: `setup` prepares a fresh fixture (and returns
    /// the wallet, the ambient facts and the installed version it left);
    /// `BatchEval` — through `DataPlane::evaluate_one`, twice, so the
    /// second answer comes from the cache when the outcome is cacheable —
    /// must reproduce the reference field for field, cache on and off.
    fn check_against_reference(
        now: Timestamp,
        setup: impl Fn(&mut Fixture) -> (Vec<Credential>, FactBase, PolicyVersion),
    ) -> ProofOutcome {
        let mut expected = None;
        for cache in [true, false] {
            let mut fx = fixture();
            fx.core.set_proof_cache(cache);
            let (wallet, ambient, version) = setup(&mut fx);
            let want = reference(&fx, &ambient, version, now, &wallet);
            let data = fx.core.data_plane();
            for _ in 0..2 {
                assert_eq!(
                    data.evaluate_one(now, UserId::new(1), &wallet, &eval_query("write")),
                    want,
                    "cache {cache}"
                );
            }
            expected = Some(want.outcome);
        }
        expected.expect("two modes ran")
    }

    fn plain(fx: &mut Fixture) -> (Vec<Credential>, FactBase, PolicyVersion) {
        (
            vec![fx.credential.clone()],
            FactBase::new(),
            PolicyVersion::INITIAL,
        )
    }

    #[test]
    fn evaluator_matches_the_reference_on_a_valid_wallet() {
        let outcome = check_against_reference(Timestamp::from_millis(1), plain);
        assert_eq!(outcome, ProofOutcome::Granted);
    }

    #[test]
    fn evaluator_matches_the_reference_on_a_revoked_credential() {
        let outcome = check_against_reference(Timestamp::from_millis(3), |fx| {
            let id = fx.credential.id();
            fx.cas.with_mut(|registry| {
                registry.revoke(CaId::new(0), id, Timestamp::from_millis(2));
            });
            plain(fx)
        });
        assert!(matches!(outcome, ProofOutcome::RevokedCredential { .. }));
    }

    #[test]
    fn evaluator_matches_the_reference_on_an_expired_credential() {
        let outcome = check_against_reference(Timestamp::from_millis(5), |fx| {
            let expired = fx.cas.with_mut(|registry| {
                registry.ca_mut(CaId::new(0)).expect("fixture CA").issue(
                    UserId::new(1),
                    fx.credential.statement().clone(),
                    Timestamp::ZERO,
                    Timestamp::from_millis(2),
                )
            });
            (vec![expired], FactBase::new(), PolicyVersion::INITIAL)
        });
        assert!(matches!(outcome, ProofOutcome::InvalidCredential { .. }));
    }

    #[test]
    fn evaluator_matches_the_reference_on_a_missing_catalog_version() {
        let outcome = check_against_reference(Timestamp::from_millis(1), |fx| {
            // Installed at the replica, never published.
            fx.core.install_policy(PolicyId::new(0), PolicyVersion(9));
            let (wallet, ambient, _) = plain(fx);
            (wallet, ambient, PolicyVersion(9))
        });
        assert_eq!(outcome, ProofOutcome::NotDerivable);
    }

    #[test]
    fn evaluator_matches_the_reference_on_an_exceeded_derivation_budget() {
        let outcome = check_against_reference(Timestamp::from_millis(1), |fx| {
            // 47³ derived facts: just past the engine's default budget.
            fx.catalog.publish(
                PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
                    .version(PolicyVersion(2))
                    .rules_text(
                        "triple(A, B, C) :- sym(A), sym(B), sym(C).\n\
                         grant(write, records) :- role(U, member), triple(A, A, A).",
                    )
                    .unwrap()
                    .build(),
            );
            fx.core.install_policy(PolicyId::new(0), PolicyVersion(2));
            let ambient = fx.core.with_ambient(|facts| {
                for i in 0..47 {
                    facts.insert_text(&format!("sym(s{i})")).unwrap();
                }
                facts.clone()
            });
            let (wallet, _, _) = plain(fx);
            (wallet, ambient, PolicyVersion(2))
        });
        assert_eq!(outcome, ProofOutcome::NotDerivable);
    }
}
