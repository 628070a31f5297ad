//! Simulator adapter around [`ServerCore`] (`A = NodeId`).

use crate::catalog::{ResourcePolicyMap, SharedCatalog};
use crate::data_plane::SharedCas;
use crate::messages::Msg;
use crate::server::{ServerCore, ServerCounters};
use crate::validation::VersionMap;
use safetx_policy::FactBase;
use safetx_sim::{Actor, Context, NodeId};
use safetx_store::{ConstraintSet, LocalStore, Wal};
use safetx_txn::{CommitVariant, ParticipantRecord};
use safetx_types::{PolicyVersion, ServerId};

/// Simulator adapter around [`ServerCore`].
pub struct CloudServerActor {
    core: ServerCore<NodeId>,
    last: ServerCounters,
    /// Simulated compute time per proof evaluation (covers proof-tree
    /// construction and the online credential status check, which the
    /// paper models as an OCSP round trip).
    proof_eval_delay: safetx_types::Duration,
}

impl CloudServerActor {
    /// Creates a server actor.
    #[must_use]
    pub fn new(
        id: ServerId,
        catalog: SharedCatalog,
        resource_map: ResourcePolicyMap,
        cas: SharedCas,
        variant: CommitVariant,
    ) -> Self {
        CloudServerActor {
            core: ServerCore::new(id, catalog, resource_map, cas, variant),
            last: ServerCounters::default(),
            proof_eval_delay: safetx_types::Duration::ZERO,
        }
    }

    /// Sets the simulated compute time charged per proof evaluation.
    #[must_use]
    pub fn with_proof_eval_delay(mut self, delay: safetx_types::Duration) -> Self {
        self.proof_eval_delay = delay;
        self
    }

    /// The wrapped sans-io core.
    #[must_use]
    pub fn core(&self) -> &ServerCore<NodeId> {
        &self.core
    }

    /// Mutable access to the wrapped core (harness seeding).
    pub fn core_mut(&mut self) -> &mut ServerCore<NodeId> {
        &mut self.core
    }

    /// This server's id.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.core.id()
    }

    /// Installs an initial policy version at the replica.
    pub fn install_policy(&mut self, policy: safetx_types::PolicyId, version: PolicyVersion) {
        self.core.install_policy(policy, version);
    }

    /// The replica's installed versions.
    #[must_use]
    pub fn installed_versions(&self) -> VersionMap {
        self.core.installed_versions()
    }

    /// Mutable access to the local data store (harness seeding).
    pub fn store_mut(&mut self) -> &mut LocalStore {
        self.core.store_mut()
    }

    /// Read access to the local data store.
    #[must_use]
    pub fn store(&self) -> &LocalStore {
        self.core.store()
    }

    /// Mutable access to the integrity constraints (harness seeding).
    pub fn constraints_mut(&mut self) -> &mut ConstraintSet {
        self.core.constraints_mut()
    }

    /// Runs `f` with mutable access to the ambient fact base.
    pub fn with_ambient<R>(&mut self, f: impl FnOnce(&mut FactBase) -> R) -> R {
        self.core.with_ambient(f)
    }

    /// The participant write-ahead log.
    #[must_use]
    pub fn wal(&self) -> &Wal<ParticipantRecord> {
        self.core.wal()
    }

    /// Publishes counter deltas and marks accumulated by the core since the
    /// previous call.
    fn flush_counters(&mut self, ctx: &mut Context<'_, Msg>) {
        let counters = self.core.counters();
        let proofs = counters.proofs - self.last.proofs;
        let forced = counters.forced_logs - self.last.forced_logs;
        if proofs > 0 {
            ctx.count("proofs", proofs);
            for _ in 0..proofs {
                ctx.mark(format!("proof:{}", self.core.id()));
            }
        }
        if forced > 0 {
            ctx.count("forced_logs", forced);
            for _ in 0..forced {
                ctx.mark("log:forced");
            }
        }
        let cache = counters.proof_cache;
        let last = self.last.proof_cache;
        if cache.hits > last.hits {
            ctx.count("proof_cache_hits", cache.hits - last.hits);
        }
        if cache.misses > last.misses {
            ctx.count("proof_cache_misses", cache.misses - last.misses);
        }
        if cache.invalidations > last.invalidations {
            ctx.count(
                "proof_cache_invalidations",
                cache.invalidations - last.invalidations,
            );
        }
        self.last = counters;
    }
}

impl Actor<Msg> for CloudServerActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let before = self.core.counters().proofs;
        let outgoing = self.core.handle(ctx.now(), from, msg);
        let proofs_now = self.core.counters().proofs - before;
        self.flush_counters(ctx);
        // Proof evaluation costs compute time: replies leave only after it.
        let delay = self.proof_eval_delay.saturating_mul(proofs_now);
        for (to, msg) in outgoing {
            if delay.is_zero() {
                ctx.send(to, msg);
            } else {
                ctx.send_after(to, msg, delay);
            }
        }
    }

    fn on_crash(&mut self) {
        self.core.crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        for (to, msg) in self.core.restart() {
            ctx.send(to, msg);
        }
    }
}
