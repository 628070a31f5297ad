//! Experiment harness: wires a complete simulated deployment.
//!
//! One [`Experiment`] owns a [`World`] containing a master version server,
//! one TM and `n` cloud servers (Figure 2's component layout), plus the
//! shared policy catalog and certificate authorities. Tests, examples and
//! benches use it to seed data, publish policies, submit transactions and
//! read back per-transaction records.

use crate::catalog::{ResourcePolicyMap, SharedCatalog};
use crate::concurrency::ConcurrencyMode;
use crate::consistency::ConsistencyLevel;
use crate::data_plane::SharedCas;
use crate::master::MasterActor;
use crate::messages::{AddressBook, Msg};
use crate::scheme::ProofScheme;
use crate::sim_actor::CloudServerActor;
use crate::tm::{TmActor, TxnRecord};
use crate::tm_core::TmConfig;
use safetx_metrics::ProtocolMetrics;
use safetx_policy::{CaRegistry, CertificateAuthority, Credential, Policy};
use safetx_sim::{NetworkConfig, World};
use safetx_store::{IntegrityConstraint, Value};
use safetx_txn::{CommitVariant, TransactionSpec};
use safetx_types::{
    CaId, DataItemId, Duration, PolicyId, PolicyVersion, ServerId, Timestamp, UserId,
};

/// Deployment and protocol configuration for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// World seed (full determinism).
    pub seed: u64,
    /// Number of cloud servers `S`.
    pub servers: usize,
    /// Number of transaction managers (load-balanced round robin; "each
    /// transaction is handled by only one TM").
    pub tms: usize,
    /// Proof-of-authorization scheme.
    pub scheme: ProofScheme,
    /// Consistency level (φ or ψ).
    pub consistency: ConsistencyLevel,
    /// 2PC/2PVC logging variant.
    pub variant: CommitVariant,
    /// Network model.
    pub network: NetworkConfig,
    /// Whether policy publishes gossip to replicas automatically.
    pub gossip: bool,
    /// Extra gossip delay step per server (staleness spread).
    pub straggler_step: Duration,
    /// Abort commits whose votes stall beyond this.
    pub commit_timeout: Option<Duration>,
    /// Simulated compute time per proof evaluation at a server (covers
    /// proof construction plus the online credential status check).
    pub proof_eval_delay: Duration,
    /// Deploy the **unsafe baseline** instead of a safe scheme: servers
    /// issue and honor access capabilities, and commit is plain 2PC with no
    /// policy validation — the Section-II system 2PVC replaces. For hazard
    /// measurements only.
    pub unsafe_baseline: bool,
    /// Whether servers keep the versioned proof cache (wall-clock fast
    /// path). Counters and outcomes are identical either way; disable only
    /// to measure the cold evaluation path.
    pub proof_cache: bool,
    /// How servers isolate concurrent transactions: pessimistic locks or
    /// optimistic snapshot reads validated at the 2PVC vote. Defaults to
    /// the `SAFETX_CONCURRENCY_MODE` environment variable (then locking).
    pub concurrency: ConcurrencyMode,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 0,
            servers: 3,
            tms: 1,
            scheme: ProofScheme::Deferred,
            consistency: ConsistencyLevel::View,
            variant: CommitVariant::Standard,
            network: NetworkConfig::default(),
            gossip: true,
            straggler_step: Duration::ZERO,
            commit_timeout: None,
            proof_eval_delay: Duration::ZERO,
            unsafe_baseline: false,
            proof_cache: true,
            concurrency: ConcurrencyMode::from_env(),
        }
    }
}

/// Aggregate results of a run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Per-transaction records from the TM.
    pub records: Vec<TxnRecord>,
    /// Proof evaluations counted at the servers (cross-check for the
    /// per-transaction metrics).
    pub server_proofs: u64,
    /// Raw network sends observed by the simulator (includes query
    /// traffic and gossip; superset of the paper-model message counts).
    pub raw_messages_sent: u64,
    /// Forced log writes across TM and servers.
    pub forced_logs: u64,
    /// Proof-cache instrumentation summed across servers. Wall-clock
    /// effect only: cache hits are still counted in `server_proofs` and the
    /// per-transaction metrics, so Table I numbers are unaffected.
    pub proof_cache: safetx_metrics::ProofCacheStats,
}

impl ExperimentReport {
    /// Sum of the paper-model metrics over all transactions.
    #[must_use]
    pub fn totals(&self) -> ProtocolMetrics {
        self.records.iter().map(|r| r.metrics).sum()
    }

    /// Committed transaction count.
    #[must_use]
    pub fn commits(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_commit())
            .count()
    }

    /// Aborted transaction count.
    #[must_use]
    pub fn aborts(&self) -> usize {
        self.records.len() - self.commits()
    }
}

/// A complete simulated deployment.
pub struct Experiment {
    world: World<Msg>,
    book: AddressBook,
    catalog: SharedCatalog,
    cas: SharedCas,
    next_credential_user: u64,
    next_tm: usize,
}

impl Experiment {
    /// Builds the deployment: master, one TM, `config.servers` servers, one
    /// certificate authority (`CA0`), an empty catalog and a single-policy
    /// resource map bound to [`PolicyId`] 0.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        assert!(config.tms >= 1, "at least one TM required");
        let book = AddressBook::layout(config.tms, config.servers);
        let catalog = SharedCatalog::new();
        let mut registry = CaRegistry::new();
        registry.register(CertificateAuthority::new(
            CaId::new(0),
            0x5eed ^ config.seed,
        ));
        let cas = SharedCas::new(registry);

        let mut world = World::with_network(config.seed, config.network.clone());
        let mut master = MasterActor::new(catalog.clone(), book.clone())
            .with_straggler_step(config.straggler_step);
        if !config.gossip {
            master = master.without_gossip();
        }
        let master_node = world.add_node(master);
        debug_assert_eq!(master_node, book.master);

        let tm_config = TmConfig {
            baseline_no_validation: config.unsafe_baseline,
            watchdog: config.commit_timeout,
            ..TmConfig::new(config.scheme, config.consistency, config.variant)
        };
        for &tm in &book.tms {
            let tm_node = world.add_node(TmActor::new(book.clone(), tm_config));
            debug_assert_eq!(tm_node, tm);
        }

        for i in 0..config.servers {
            let id = ServerId::new(i as u64);
            let server = CloudServerActor::new(
                id,
                catalog.clone(),
                ResourcePolicyMap::single(PolicyId::new(0)),
                cas.clone(),
                config.variant,
            )
            .with_proof_eval_delay(config.proof_eval_delay);
            let mut server = server;
            if config.unsafe_baseline {
                server.core_mut().set_unsafe_baseline(true);
            }
            server.core_mut().set_proof_cache(config.proof_cache);
            server.core_mut().set_concurrency(config.concurrency);
            let node = world.add_node(server);
            debug_assert_eq!(node, book.server_node(id));
        }

        Experiment {
            world,
            book,
            catalog,
            cas,
            next_credential_user: 0,
            next_tm: 0,
        }
    }

    /// The shared policy catalog.
    #[must_use]
    pub fn catalog(&self) -> &SharedCatalog {
        &self.catalog
    }

    /// The shared certificate authorities.
    #[must_use]
    pub fn cas(&self) -> &SharedCas {
        &self.cas
    }

    /// The address book.
    #[must_use]
    pub fn book(&self) -> &AddressBook {
        &self.book
    }

    /// Direct world access (tracing, failure injection, custom actors).
    pub fn world_mut(&mut self) -> &mut World<Msg> {
        &mut self.world
    }

    /// Read-only world access.
    #[must_use]
    pub fn world(&self) -> &World<Msg> {
        &self.world
    }

    /// Schedules a policy publish at `delay` (simulated time): the catalog
    /// is updated and gossip sent when the instant arrives, so the master's
    /// answers never see the future.
    pub fn publish_policy(&mut self, policy: Policy, delay: Duration) {
        let master = self.book.master;
        self.world
            .post(delay, master, master, Msg::AdminPublishPolicy { policy });
    }

    /// Installs a policy version directly at every replica (initial state,
    /// bypassing gossip).
    pub fn install_everywhere(&mut self, policy: PolicyId, version: PolicyVersion) {
        for (&sid, &node) in &self.book.servers.clone() {
            let server = self
                .world
                .actor_mut::<CloudServerActor>(node)
                .unwrap_or_else(|| panic!("server {sid} not found"));
            server.install_policy(policy, version);
        }
    }

    /// Installs a policy version at one replica only (staleness setup).
    pub fn install_at(&mut self, server: ServerId, policy: PolicyId, version: PolicyVersion) {
        let node = self.book.server_node(server);
        self.world
            .actor_mut::<CloudServerActor>(node)
            .expect("server exists")
            .install_policy(policy, version);
    }

    /// Seeds a data item at a server.
    pub fn seed_item(&mut self, server: ServerId, item: DataItemId, value: Value) {
        let node = self.book.server_node(server);
        self.world
            .actor_mut::<CloudServerActor>(node)
            .expect("server exists")
            .store_mut()
            .write(item, value, Timestamp::ZERO);
    }

    /// Adds an integrity constraint at a server.
    pub fn add_constraint(&mut self, server: ServerId, constraint: IntegrityConstraint) {
        let node = self.book.server_node(server);
        self.world
            .actor_mut::<CloudServerActor>(node)
            .expect("server exists")
            .constraints_mut()
            .push(constraint);
    }

    /// Binds a resource to a policy at every server (multi-domain
    /// deployments; the default maps everything to [`PolicyId`] 0).
    pub fn bind_resource(&mut self, resource: &str, policy: PolicyId) {
        for &node in self.book.servers.clone().values() {
            self.world
                .actor_mut::<CloudServerActor>(node)
                .expect("server exists")
                .core_mut()
                .with_resource_map(|map| map.bind(resource, policy));
        }
    }

    /// Adds an ambient fact (rule-language text) at a server.
    ///
    /// # Panics
    ///
    /// Panics when the fact does not parse (test/bench configuration bug).
    pub fn add_ambient_fact(&mut self, server: ServerId, fact: &str) {
        let node = self.book.server_node(server);
        self.world
            .actor_mut::<CloudServerActor>(node)
            .expect("server exists")
            .with_ambient(|ambient| ambient.insert_text(fact))
            .expect("ambient fact parses");
    }

    /// Issues a credential from `CA0` asserting `statement` about `user`.
    pub fn issue_credential(
        &mut self,
        user: UserId,
        statement: safetx_policy::Atom,
        issued_at: Timestamp,
        expires_at: Timestamp,
    ) -> Credential {
        self.next_credential_user += 1;
        self.cas.with_mut(|registry| {
            registry
                .ca_mut(CaId::new(0))
                .expect("CA0 registered")
                .issue(user, statement, issued_at, expires_at)
        })
    }

    /// Submits a transaction after `delay`, load-balancing across TMs in
    /// round-robin order.
    pub fn submit(&mut self, spec: TransactionSpec, credentials: Vec<Credential>, delay: Duration) {
        let tm_index = self.next_tm % self.book.tms.len();
        self.next_tm += 1;
        self.submit_to(tm_index, spec, credentials, delay);
    }

    /// Submits a transaction to a specific TM.
    ///
    /// # Panics
    ///
    /// Panics when `tm_index` is out of range.
    pub fn submit_to(
        &mut self,
        tm_index: usize,
        spec: TransactionSpec,
        credentials: Vec<Credential>,
        delay: Duration,
    ) {
        let tm = self.book.tms[tm_index];
        self.world
            .post(delay, tm, tm, Msg::Begin { spec, credentials });
    }

    /// Runs until quiescence.
    pub fn run(&mut self) {
        self.world.run_to_quiescence();
    }

    /// Collects the report.
    ///
    /// # Panics
    ///
    /// Panics when the TM actor cannot be found (never happens for worlds
    /// built by [`Experiment::new`]).
    #[must_use]
    pub fn report(&self) -> ExperimentReport {
        let mut records: Vec<TxnRecord> = self
            .book
            .tms
            .iter()
            .flat_map(|&tm| {
                self.world
                    .actor::<TmActor>(tm)
                    .expect("TM exists")
                    .completed()
                    .to_vec()
            })
            .collect();
        records.sort_by_key(|r| (r.finished_at, r.txn));
        ExperimentReport {
            records,
            server_proofs: self.world.stats().counter("proofs"),
            raw_messages_sent: self.world.stats().messages_sent,
            // Both the TM and the servers count their forces through the
            // world counter, so no separate WAL sum is needed.
            forced_logs: self.world.stats().counter("forced_logs"),
            proof_cache: safetx_metrics::ProofCacheStats {
                hits: self.world.stats().counter("proof_cache_hits"),
                misses: self.world.stats().counter("proof_cache_misses"),
                invalidations: self.world.stats().counter("proof_cache_invalidations"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::AbortReason;
    use safetx_policy::{Atom, Constant, PolicyBuilder};
    use safetx_txn::{Operation, QuerySpec};
    use safetx_types::{AdminDomain, TxnId};

    fn base_policy() -> Policy {
        PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
            .rules_text(
                "grant(read, customers) :- role(U, sales_rep).\n\
                 grant(write, inventory) :- role(U, sales_rep).",
            )
            .unwrap()
            .build()
    }

    fn strict_policy_v2() -> Policy {
        base_policy().updated(
            "grant(read, customers) :- role(U, manager).\n\
             grant(write, inventory) :- role(U, manager)."
                .parse()
                .unwrap(),
        )
    }

    fn sales_rep_credential(exp: &mut Experiment) -> Credential {
        exp.issue_credential(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("bob"), Constant::symbol("sales_rep")],
            ),
            Timestamp::ZERO,
            Timestamp::from_millis(1_000_000),
        )
    }

    fn three_query_txn() -> TransactionSpec {
        TransactionSpec::new(
            TxnId::new(1),
            UserId::new(1),
            vec![
                QuerySpec::new(
                    ServerId::new(0),
                    "read",
                    "customers",
                    vec![Operation::Read(DataItemId::new(0))],
                ),
                QuerySpec::new(
                    ServerId::new(1),
                    "write",
                    "inventory",
                    vec![Operation::Add(DataItemId::new(10), -1)],
                ),
                QuerySpec::new(
                    ServerId::new(2),
                    "write",
                    "inventory",
                    vec![Operation::Write(DataItemId::new(20), Value::Int(7))],
                ),
            ],
        )
    }

    fn setup(scheme: ProofScheme, consistency: ConsistencyLevel) -> Experiment {
        let mut exp = Experiment::new(ExperimentConfig {
            scheme,
            consistency,
            ..Default::default()
        });
        exp.catalog().publish(base_policy());
        exp.install_everywhere(PolicyId::new(0), PolicyVersion::INITIAL);
        exp.seed_item(ServerId::new(1), DataItemId::new(10), Value::Int(5));
        exp
    }

    fn run_one(
        scheme: ProofScheme,
        consistency: ConsistencyLevel,
    ) -> (Experiment, ExperimentReport) {
        let mut exp = setup(scheme, consistency);
        let cred = sales_rep_credential(&mut exp);
        exp.submit(three_query_txn(), vec![cred], Duration::ZERO);
        exp.run();
        let report = exp.report();
        (exp, report)
    }

    #[test]
    fn every_scheme_commits_a_clean_transaction() {
        for scheme in ProofScheme::ALL {
            for consistency in ConsistencyLevel::ALL {
                let (_, report) = run_one(scheme, consistency);
                assert_eq!(
                    report.commits(),
                    1,
                    "{scheme}/{consistency} should commit: {:?}",
                    report.records.first().map(|r| r.outcome)
                );
            }
        }
    }

    #[test]
    fn committed_writes_are_applied_at_participants() {
        let (exp, report) = run_one(ProofScheme::Punctual, ConsistencyLevel::View);
        assert_eq!(report.commits(), 1);
        let node = exp.book().server_node(ServerId::new(1));
        let server = exp.world().actor::<CloudServerActor>(node).unwrap();
        assert_eq!(server.store().read_int(DataItemId::new(10)), Some(4));
    }

    #[test]
    fn missing_credential_aborts_with_proof_false() {
        for scheme in ProofScheme::ALL {
            let mut exp = setup(scheme, ConsistencyLevel::View);
            exp.submit(three_query_txn(), vec![], Duration::ZERO);
            exp.run();
            let report = exp.report();
            assert_eq!(report.aborts(), 1, "{scheme} should abort");
            assert_eq!(
                report.records[0].outcome.abort_reason(),
                Some(AbortReason::ProofFalse),
                "{scheme}"
            );
        }
    }

    #[test]
    fn integrity_violation_aborts() {
        let mut exp = setup(ProofScheme::Deferred, ConsistencyLevel::View);
        // Item 10 must stay ≥ 5; the transaction decrements it to 4.
        exp.add_constraint(
            ServerId::new(1),
            IntegrityConstraint::Range {
                item: DataItemId::new(10),
                lo: 5,
                hi: 100,
            },
        );
        let cred = sales_rep_credential(&mut exp);
        exp.submit(three_query_txn(), vec![cred], Duration::ZERO);
        exp.run();
        let report = exp.report();
        assert_eq!(report.aborts(), 1);
        assert_eq!(
            report.records[0].outcome.abort_reason(),
            Some(AbortReason::IntegrityViolation)
        );
        // No write leaked.
        let node = exp.book().server_node(ServerId::new(1));
        let server = exp.world().actor::<CloudServerActor>(node).unwrap();
        assert_eq!(server.store().read_int(DataItemId::new(10)), Some(5));
    }

    #[test]
    fn stale_replica_is_updated_by_2pvc_and_commits() {
        // v2 published but server 2 still at v1: under Deferred/view the
        // commit-time validation detects the divergence, updates the stale
        // replica and re-validates. v2 requires manager role, so Bob's
        // sales_rep credential fails AFTER the update — the Fig. 1 unsafe
        // commit becomes an abort.
        let mut exp = setup(ProofScheme::Deferred, ConsistencyLevel::View);
        exp.catalog().publish(strict_policy_v2());
        exp.install_at(ServerId::new(0), PolicyId::new(0), PolicyVersion(2));
        // servers 1, 2 remain at v1
        let cred = sales_rep_credential(&mut exp);
        exp.submit(three_query_txn(), vec![cred], Duration::ZERO);
        exp.run();
        let report = exp.report();
        assert_eq!(report.aborts(), 1);
        assert_eq!(
            report.records[0].outcome.abort_reason(),
            Some(AbortReason::ProofFalse)
        );
        let totals = report.totals();
        assert_eq!(totals.rounds, 2, "one update round");
    }

    #[test]
    fn incremental_punctual_aborts_on_newer_version_mid_transaction() {
        let mut exp = setup(ProofScheme::IncrementalPunctual, ConsistencyLevel::View);
        // Server 0 (first query) at v1; server 1 already at v2 (gossip beat
        // the transaction): Definition 8's view instance breaks.
        exp.catalog().publish(strict_policy_v2());
        exp.install_at(ServerId::new(1), PolicyId::new(0), PolicyVersion(2));
        let cred = sales_rep_credential(&mut exp);
        exp.submit(three_query_txn(), vec![cred], Duration::ZERO);
        exp.run();
        let report = exp.report();
        assert_eq!(
            report.records[0].outcome.abort_reason(),
            Some(AbortReason::VersionInconsistency)
        );
    }

    #[test]
    fn incremental_punctual_fast_forwards_older_replicas() {
        // First server at v2; second still at v1. The pin mechanism forces
        // the later replica forward, keeping the view consistent (the
        // "forced to have a consistent view with the first server" rule).
        let mut exp = setup(ProofScheme::IncrementalPunctual, ConsistencyLevel::View);
        exp.catalog().publish(strict_policy_v2());
        exp.install_everywhere(PolicyId::new(0), PolicyVersion(2));
        exp.install_at(ServerId::new(1), PolicyId::new(0), PolicyVersion(2));
        // Manager credential satisfies v2 everywhere.
        let cred = exp.issue_credential(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("bob"), Constant::symbol("manager")],
            ),
            Timestamp::ZERO,
            Timestamp::from_millis(1_000_000),
        );
        exp.submit(three_query_txn(), vec![cred], Duration::ZERO);
        exp.run();
        assert_eq!(exp.report().commits(), 1);
    }

    #[test]
    fn revoked_credential_is_caught_at_commit() {
        // Bob's credential is revoked mid-transaction; Deferred evaluates
        // proofs only at commit and must see the revocation.
        let mut exp = setup(ProofScheme::Deferred, ConsistencyLevel::View);
        let cred = sales_rep_credential(&mut exp);
        let cred_id = cred.id();
        exp.submit(three_query_txn(), vec![cred], Duration::ZERO);
        // Revoke at t=1ms, well before the commit-time validation.
        exp.cas().with_mut(|registry| {
            registry.revoke(CaId::new(0), cred_id, Timestamp::from_millis(1));
        });
        exp.run();
        let report = exp.report();
        assert_eq!(report.aborts(), 1);
        assert_eq!(
            report.records[0].outcome.abort_reason(),
            Some(AbortReason::ProofFalse)
        );
    }

    #[test]
    fn forced_logs_match_2n_plus_1_for_a_clean_commit() {
        let (_, report) = run_one(ProofScheme::Deferred, ConsistencyLevel::View);
        // n = 3 participants: 2n + 1 = 7.
        assert_eq!(report.forced_logs, 7);
    }

    #[test]
    fn lock_conflict_aborts_one_of_two_contending_transactions() {
        let mut exp = setup(ProofScheme::Punctual, ConsistencyLevel::View);
        let cred = sales_rep_credential(&mut exp);
        let t1 = three_query_txn();
        let mut t2 = three_query_txn();
        t2.id = TxnId::new(2);
        exp.submit(t1, vec![cred.clone()], Duration::ZERO);
        exp.submit(t2, vec![cred], Duration::from_micros(100));
        exp.run();
        let report = exp.report();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.commits(), 1);
        // The experiment's mode follows SAFETX_CONCURRENCY_MODE: contention
        // surfaces at the query under 2PL and at the vote under OCC.
        let expected = match ConcurrencyMode::from_env() {
            ConcurrencyMode::Locking => AbortReason::LockConflict,
            ConcurrencyMode::Occ => AbortReason::ValidationConflict,
        };
        assert_eq!(
            report
                .records
                .iter()
                .find(|r| !r.outcome.is_commit())
                .unwrap()
                .outcome
                .abort_reason(),
            Some(expected)
        );
    }

    #[test]
    fn gossip_propagates_policies_to_replicas() {
        let mut exp = setup(ProofScheme::Deferred, ConsistencyLevel::View);
        exp.publish_policy(strict_policy_v2(), Duration::ZERO);
        exp.run();
        for i in 0..3 {
            let node = exp.book().server_node(ServerId::new(i));
            let server = exp.world().actor::<CloudServerActor>(node).unwrap();
            assert_eq!(
                server.installed_versions()[&PolicyId::new(0)],
                PolicyVersion(2),
                "server {i} converged"
            );
        }
    }
}
