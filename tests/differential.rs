//! Differential oracle: the deterministic simulator and the threaded
//! runtime drive the *same* sans-io `TmCore`, so identical transaction
//! streams must produce identical outcomes, abort reasons, proof views and
//! paper-model cost counters in both.
//!
//! Every cell of the 4 schemes × 2 consistency levels matrix runs a
//! scripted scenario battery (clean commit, missing credential, integrity
//! violation, stale-replica divergence, post-upgrade commit) plus seeded
//! random streams, once on each runtime, and the per-transaction
//! observations are compared field by field. Wall-clock artifacts
//! (timestamps, latency) are excluded from the comparison; everything the
//! protocol determines — including the Table I message/proof/round counts,
//! which both runtimes now derive from the shared core accounting — must
//! be equal.
//!
//! No faults and no reply deadlines are configured: with a reliable
//! network both runtimes see the same event streams modulo arrival order,
//! and the core's outputs must not depend on that order.

use safetx_core::{
    AbortReason, ConsistencyLevel, Experiment, ExperimentConfig, ProofScheme, TxnRecord,
};
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, ExecutionResult};
use safetx_store::{IntegrityConstraint, Value};
use safetx_txn::{CommitVariant, Operation, QuerySpec, TransactionSpec};
use safetx_types::{
    AdminDomain, CaId, DataItemId, Duration, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId,
    UserId,
};

const SERVERS: usize = 3;
const ITEMS_PER_SERVER: u64 = 4;
const SEED_VALUE: i64 = 10;
/// The item guarded by the integrity-violation scenario (outside the
/// random stream's item range).
const GUARDED_SLOT: u64 = ITEMS_PER_SERVER + 1;

const VARIANTS: [CommitVariant; 3] = [
    CommitVariant::Standard,
    CommitVariant::PresumedAbort,
    CommitVariant::PresumedCommit,
];

/// Everything the protocol (as opposed to the clock or the scheduler)
/// determines about one executed transaction.
#[derive(Debug, PartialEq)]
struct Observation {
    committed: bool,
    reason: Option<AbortReason>,
    queries_executed: usize,
    messages: u64,
    proofs: u64,
    rounds: u64,
    forced_logs: u64,
    /// The proof view, normalized: evaluation facts only, sorted (arrival
    /// order differs between a virtual-time world and OS threads).
    view: Vec<(ServerId, String, String, PolicyId, PolicyVersion, bool)>,
}

fn normalize_view(proofs: &[safetx_policy::ProofOfAuthorization]) -> Vec<ViewEntry> {
    let mut view: Vec<ViewEntry> = proofs
        .iter()
        .map(|p| {
            (
                p.server,
                p.request.action.clone(),
                p.request.resource.clone(),
                p.policy_id,
                p.policy_version,
                p.truth(),
            )
        })
        .collect();
    view.sort();
    view
}

type ViewEntry = (ServerId, String, String, PolicyId, PolicyVersion, bool);

impl Observation {
    fn from_record(r: &TxnRecord) -> Self {
        Observation {
            committed: r.outcome.is_commit(),
            reason: r.outcome.abort_reason(),
            queries_executed: r.queries_executed,
            messages: r.metrics.messages,
            proofs: r.metrics.proofs,
            rounds: r.metrics.rounds,
            forced_logs: r.metrics.forced_logs,
            view: normalize_view(r.view.proofs()),
        }
    }

    fn from_result(r: &ExecutionResult) -> Self {
        Observation {
            committed: r.outcome.is_commit(),
            reason: r.outcome.abort_reason(),
            queries_executed: r.queries_executed,
            messages: r.metrics.messages,
            proofs: r.metrics.proofs,
            rounds: r.metrics.rounds,
            forced_logs: r.metrics.forced_logs,
            view: normalize_view(r.view.proofs()),
        }
    }
}

fn base_policy() -> Policy {
    PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build()
}

fn manager_only_v2() -> Policy {
    base_policy().updated(
        "grant(read, records) :- role(U, manager).\n\
         grant(write, records) :- role(U, manager)."
            .parse()
            .expect("rules parse"),
    )
}

fn role_atom(role: &str) -> Atom {
    Atom::fact("role", vec![Constant::symbol("u1"), Constant::symbol(role)])
}

/// One runtime under test: the same setup and execution surface over the
/// simulator's `Experiment` and the threaded `Cluster`.
enum Side {
    Sim(Box<Experiment>, usize),
    Threaded(Box<Cluster>),
    Net(Box<NetCluster>),
}

impl Side {
    fn sim(scheme: ProofScheme, consistency: ConsistencyLevel, variant: CommitVariant) -> Side {
        let mut exp = Experiment::new(ExperimentConfig {
            servers: SERVERS,
            scheme,
            consistency,
            variant,
            ..Default::default()
        });
        exp.catalog().publish(base_policy());
        exp.install_everywhere(PolicyId::new(0), PolicyVersion::INITIAL);
        for s in 0..SERVERS as u64 {
            for j in 0..=GUARDED_SLOT {
                exp.seed_item(
                    ServerId::new(s),
                    DataItemId::new(s * 100 + j),
                    Value::Int(SEED_VALUE),
                );
            }
        }
        Side::Sim(Box::new(exp), 0)
    }

    /// The threaded runtime.
    fn threaded(
        scheme: ProofScheme,
        consistency: ConsistencyLevel,
        variant: CommitVariant,
    ) -> Side {
        let cluster = Cluster::new(ClusterConfig {
            servers: SERVERS,
            scheme,
            consistency,
            variant,
            ..Default::default()
        });
        cluster.publish_policy(base_policy());
        for s in 0..SERVERS as u64 {
            cluster.configure_server(ServerId::new(s), move |core| {
                for j in 0..=GUARDED_SLOT {
                    core.store_mut().write(
                        DataItemId::new(s * 100 + j),
                        Value::Int(SEED_VALUE),
                        Timestamp::ZERO,
                    );
                }
            });
        }
        Side::Threaded(Box::new(cluster))
    }

    /// The socket runtime: identical setup over `NetCluster`, every
    /// protocol message crossing an in-process `UnixStream` pair as an
    /// encoded frame.
    fn net(scheme: ProofScheme, consistency: ConsistencyLevel, variant: CommitVariant) -> Side {
        let cluster = NetCluster::new(ClusterConfig {
            servers: SERVERS,
            scheme,
            consistency,
            variant,
            ..Default::default()
        });
        cluster.publish_policy(base_policy());
        for s in 0..SERVERS as u64 {
            cluster.configure_server(ServerId::new(s), move |core| {
                for j in 0..=GUARDED_SLOT {
                    core.store_mut().write(
                        DataItemId::new(s * 100 + j),
                        Value::Int(SEED_VALUE),
                        Timestamp::ZERO,
                    );
                }
            });
        }
        Side::Net(Box::new(cluster))
    }

    fn credential(&mut self, role: &str) -> Credential {
        let statement = role_atom(role);
        match self {
            Side::Sim(exp, _) => {
                exp.issue_credential(UserId::new(1), statement, Timestamp::ZERO, Timestamp::MAX)
            }
            Side::Threaded(cluster) => cluster.cas().with_mut(|registry| {
                registry.ca_mut(CaId::new(0)).expect("CA0").issue(
                    UserId::new(1),
                    statement,
                    Timestamp::ZERO,
                    Timestamp::MAX,
                )
            }),
            Side::Net(cluster) => cluster.cas().with_mut(|registry| {
                registry.ca_mut(CaId::new(0)).expect("CA0").issue(
                    UserId::new(1),
                    statement,
                    Timestamp::ZERO,
                    Timestamp::MAX,
                )
            }),
        }
    }

    /// Publishes to the catalog only — replicas stay stale.
    fn publish_catalog_only(&mut self, policy: Policy) {
        match self {
            Side::Sim(exp, _) => exp.catalog().publish(policy),
            Side::Threaded(cluster) => cluster.catalog().publish(policy),
            Side::Net(cluster) => cluster.catalog().publish(policy),
        };
    }

    fn install_at(&mut self, server: ServerId, policy: PolicyId, version: PolicyVersion) {
        match self {
            Side::Sim(exp, _) => exp.install_at(server, policy, version),
            Side::Threaded(cluster) => {
                cluster.configure_server(server, move |core| core.install_policy(policy, version));
            }
            Side::Net(cluster) => {
                cluster.configure_server(server, move |core| core.install_policy(policy, version));
            }
        }
    }

    fn install_everywhere(&mut self, policy: PolicyId, version: PolicyVersion) {
        for s in 0..SERVERS as u64 {
            self.install_at(ServerId::new(s), policy, version);
        }
    }

    fn add_guard_constraint(&mut self, server: ServerId, item: DataItemId) {
        let constraint = IntegrityConstraint::Range {
            item,
            lo: SEED_VALUE,
            hi: SEED_VALUE + 100,
        };
        match self {
            Side::Sim(exp, _) => exp.add_constraint(server, constraint),
            Side::Threaded(cluster) => {
                cluster.configure_server(server, move |core| {
                    core.constraints_mut().push(constraint);
                });
            }
            Side::Net(cluster) => {
                cluster.configure_server(server, move |core| {
                    core.constraints_mut().push(constraint);
                });
            }
        }
    }

    fn execute(&mut self, spec: TransactionSpec, credentials: Vec<Credential>) -> Observation {
        match self {
            Side::Sim(exp, taken) => {
                exp.submit(spec, credentials, Duration::ZERO);
                exp.run();
                let report = exp.report();
                assert_eq!(report.records.len(), *taken + 1, "one record per txn");
                *taken += 1;
                Observation::from_record(report.records.last().expect("record"))
            }
            Side::Threaded(cluster) => {
                Observation::from_result(&cluster.execute(&spec, &credentials))
            }
            Side::Net(cluster) => Observation::from_result(&cluster.execute(&spec, &credentials)),
        }
    }

    fn shutdown(self) {
        match self {
            Side::Threaded(cluster) => cluster.shutdown(),
            Side::Net(cluster) => cluster.shutdown(),
            Side::Sim(..) => {}
        }
    }
}

fn q(server: u64, action: &str, op: Operation) -> QuerySpec {
    QuerySpec::new(ServerId::new(server), action, "records", vec![op])
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A random multi-query spec over the seeded items (never the guarded one).
fn random_spec(rng: &mut Rng, txn: u64) -> TransactionSpec {
    let n = 1 + (rng.next() % 3) as usize;
    let queries = (0..n)
        .map(|_| {
            let server = rng.next() % SERVERS as u64;
            let item = DataItemId::new(server * 100 + rng.next() % ITEMS_PER_SERVER);
            if rng.next().is_multiple_of(2) {
                q(server, "read", Operation::Read(item))
            } else {
                q(server, "write", Operation::Add(item, 1))
            }
        })
        .collect();
    TransactionSpec::new(TxnId::new(txn), UserId::new(1), queries)
}

/// Runs the full scripted + seeded stream on one side, returning labelled
/// observations.
fn run_stream(mut side: Side, seed: u64) -> Vec<(String, Observation)> {
    let member = side.credential("member");
    let mut out = Vec::new();
    let mut txn = 0u64;
    let run = |side: &mut Side,
               out: &mut Vec<(String, Observation)>,
               label: String,
               spec: TransactionSpec,
               creds: Vec<Credential>| {
        out.push((label, side.execute(spec, creds)));
    };

    // 1. Clean three-server commit.
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(0))),
            q(1, "write", Operation::Add(DataItemId::new(101), 1)),
            q(2, "write", Operation::Add(DataItemId::new(202), -1)),
        ],
    );
    txn += 1;
    run(
        &mut side,
        &mut out,
        "clean-commit".into(),
        spec,
        vec![member.clone()],
    );

    // 2. No credentials: every scheme must refuse (ProofFalse).
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(1))),
            q(2, "write", Operation::Add(DataItemId::new(201), 1)),
        ],
    );
    txn += 1;
    run(&mut side, &mut out, "no-credential".into(), spec, vec![]);

    // 3. Integrity violation: the guarded item may not drop below seed.
    let guarded = DataItemId::new(100 + GUARDED_SLOT);
    side.add_guard_constraint(ServerId::new(1), guarded);
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(2))),
            q(1, "write", Operation::Add(guarded, -1)),
        ],
    );
    txn += 1;
    run(
        &mut side,
        &mut out,
        "integrity-violation".into(),
        spec,
        vec![member.clone()],
    );

    // 4. Seeded random stream under the v1 policy.
    let mut rng = Rng(seed | 1);
    for i in 0..4 {
        let spec = random_spec(&mut rng, txn);
        txn += 1;
        run(
            &mut side,
            &mut out,
            format!("random-{i}"),
            spec,
            vec![member.clone()],
        );
    }

    // 5. Divergence: v2 (manager-only) in the catalog and at server 0;
    // servers 1–2 stay at v1. Every scheme must refuse the member
    // credential one way or another — and both runtimes must agree on
    // which way.
    side.publish_catalog_only(manager_only_v2());
    side.install_at(ServerId::new(0), PolicyId::new(0), PolicyVersion(2));
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(3))),
            q(1, "write", Operation::Add(DataItemId::new(100), 1)),
        ],
    );
    txn += 1;
    run(
        &mut side,
        &mut out,
        "stale-divergence".into(),
        spec,
        vec![member.clone()],
    );

    // 6. Upgrade everywhere, switch to a manager credential: commits again.
    side.install_everywhere(PolicyId::new(0), PolicyVersion(2));
    let manager = side.credential("manager");
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(0))),
            q(1, "write", Operation::Add(DataItemId::new(102), 1)),
            q(2, "read", Operation::Read(DataItemId::new(200))),
        ],
    );
    run(
        &mut side,
        &mut out,
        "post-upgrade-commit".into(),
        spec,
        vec![manager],
    );

    side.shutdown();
    out
}

#[test]
fn sim_and_threaded_runtimes_agree_on_every_cell() {
    let mut commits = 0usize;
    let mut aborts = 0usize;
    for (i, scheme) in ProofScheme::ALL.into_iter().enumerate() {
        for (j, consistency) in ConsistencyLevel::ALL.into_iter().enumerate() {
            let variant = VARIANTS[(i + j) % VARIANTS.len()];
            let seed = 0x5eed_d1ff ^ ((i as u64) << 8) ^ (j as u64);
            let sim = run_stream(Side::sim(scheme, consistency, variant), seed);
            let threaded = run_stream(Side::threaded(scheme, consistency, variant), seed);
            assert_eq!(sim.len(), threaded.len(), "{scheme}/{consistency}");
            for ((label, s), (_, t)) in sim.iter().zip(threaded.iter()) {
                assert_eq!(
                    s, t,
                    "{scheme}/{consistency}/{variant:?} diverged on {label}"
                );
                if s.committed {
                    commits += 1;
                } else {
                    aborts += 1;
                }
            }
        }
    }
    // The battery must genuinely exercise both outcomes in every run.
    assert!(commits > 0, "differential battery committed nothing");
    assert!(aborts > 0, "differential battery aborted nothing");
}

/// The wire-protocol runtime is held to the full three-way oracle: for
/// every scheme × consistency cell, the socket deployment — where every
/// protocol message is encoded into a length-prefixed frame, crosses a
/// real `UnixStream`, and is decoded on the far side — must produce the
/// same outcomes, abort reasons, Table I counters and normalized proof
/// views as both the deterministic simulator and the threaded runtime.
#[test]
fn net_runtime_agrees_with_sim_and_threaded_on_every_cell() {
    let mut commits = 0usize;
    let mut aborts = 0usize;
    for (i, scheme) in ProofScheme::ALL.into_iter().enumerate() {
        for (j, consistency) in ConsistencyLevel::ALL.into_iter().enumerate() {
            let variant = VARIANTS[(i + j) % VARIANTS.len()];
            let seed = 0x0e77_caf3 ^ ((i as u64) << 8) ^ (j as u64);
            let sim = run_stream(Side::sim(scheme, consistency, variant), seed);
            let net = run_stream(Side::net(scheme, consistency, variant), seed);
            let threaded = run_stream(Side::threaded(scheme, consistency, variant), seed);
            assert_eq!(sim.len(), net.len(), "{scheme}/{consistency}");
            assert_eq!(threaded.len(), net.len(), "{scheme}/{consistency}");
            // Observation for observation — Table I counters and proof
            // views included.
            for (((label, s), (_, t)), (_, n)) in sim.iter().zip(threaded.iter()).zip(net.iter()) {
                let cell = format!("{scheme}/{consistency}/{variant:?}");
                assert_eq!(s, n, "{cell}: net diverged from sim on {label}");
                assert_eq!(t, n, "{cell}: net diverged from threaded on {label}");
                assert_eq!(s, t, "{cell}: threaded diverged from sim on {label}");
                if n.committed {
                    commits += 1;
                } else {
                    aborts += 1;
                }
            }
        }
    }
    assert!(commits > 0, "net differential battery committed nothing");
    assert!(aborts > 0, "net differential battery aborted nothing");
}

/// Replaying the same seed on the same runtime is byte-identical — the
/// guarantee the oracle's cross-runtime comparison stands on.
#[test]
fn each_runtime_is_deterministic_under_replay() {
    let scheme = ProofScheme::IncrementalPunctual;
    let consistency = ConsistencyLevel::Global;
    let a = run_stream(Side::sim(scheme, consistency, CommitVariant::Standard), 7);
    let b = run_stream(Side::sim(scheme, consistency, CommitVariant::Standard), 7);
    assert_eq!(a, b, "simulator replay diverged");
    let threaded = || Side::threaded(scheme, consistency, CommitVariant::Standard);
    let a = run_stream(threaded(), 7);
    let b = run_stream(threaded(), 7);
    assert_eq!(a, b, "threaded replay diverged");
}
