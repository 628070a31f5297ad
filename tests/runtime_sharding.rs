//! Sharded-deployment oracle.
//!
//! Two guarantees pin the partitioned runtime to the unsharded one:
//!
//! 1. **One shard is the plain cluster.** A `ShardedCluster` with a single
//!    shard routes every transaction down the exact `Cluster::execute`
//!    path, so an identical transaction stream — scripted scenarios plus
//!    seeded random specs, across all 4 schemes × 2 consistency levels —
//!    must produce identical outcomes, abort reasons, Table I counters and
//!    normalized proof views. Wall-clock artifacts are excluded, exactly
//!    as in `tests/differential.rs`.
//!
//! 2. **Cross-shard 2PVC stays safe.** At 2 and 4 shards, transactions
//!    spanning shards are driven by one coordinating TM through 2PVC over
//!    the union of participant servers. Every commit must pass the
//!    Definition 4 trusted-transaction audit, decision records must be
//!    force-logged into *every* participant shard's log (local recovery),
//!    and the router's accounting must conserve exactly:
//!    `submitted == commits + aborts` per route class, and through the
//!    service layer `submissions == commits + aborts + sheds`.

use safetx_core::{trusted, AbortReason, ConsistencyLevel, ProofScheme};
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{
    Cluster, ClusterConfig, ExecutionResult, ShardedCluster, ShardedConfig, TxnRoute,
};
use safetx_service::{RuntimeKind, ServiceConfig, TxnService};
use safetx_store::{IntegrityConstraint, Value};
use safetx_txn::{Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{
    AdminDomain, CaId, DataItemId, PolicyId, PolicyVersion, ServerId, Timestamp, TxnId, UserId,
};
use std::sync::Arc;

const SERVERS: usize = 3;
const ITEMS_PER_SERVER: u64 = 4;
const SEED_VALUE: i64 = 10;
const GUARDED_SLOT: u64 = ITEMS_PER_SERVER + 1;

type ViewEntry = (ServerId, String, String, PolicyId, PolicyVersion, bool);

/// Everything the protocol (not the clock or the scheduler) determines.
#[derive(Debug, PartialEq)]
struct Observation {
    committed: bool,
    reason: Option<AbortReason>,
    queries_executed: usize,
    messages: u64,
    proofs: u64,
    rounds: u64,
    forced_logs: u64,
    view: Vec<ViewEntry>,
}

impl Observation {
    fn from_result(r: &ExecutionResult) -> Self {
        let mut view: Vec<ViewEntry> = r
            .view
            .proofs()
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
        Observation {
            committed: r.outcome.is_commit(),
            reason: r.outcome.abort_reason(),
            queries_executed: r.queries_executed,
            messages: r.metrics.messages,
            proofs: r.metrics.proofs,
            rounds: r.metrics.rounds,
            forced_logs: r.metrics.forced_logs,
            view,
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

/// One deployment under test: the plain threaded cluster, or a sharded
/// deployment with any shard count (the 1-shard case is the oracle).
enum Side {
    Threaded(Box<Cluster>),
    Sharded(Box<ShardedCluster>),
}

impl Side {
    fn threaded(scheme: ProofScheme, consistency: ConsistencyLevel) -> Side {
        let cluster = Cluster::new(ClusterConfig {
            servers: SERVERS,
            scheme,
            consistency,
            ..Default::default()
        });
        cluster.publish_policy(base_policy());
        let side = Side::Threaded(Box::new(cluster));
        side.seed_items();
        side
    }

    fn sharded(
        shards: usize,
        servers: usize,
        scheme: ProofScheme,
        consistency: ConsistencyLevel,
    ) -> Side {
        let cluster = ShardedCluster::new(ShardedConfig {
            shards,
            cluster: ClusterConfig {
                servers,
                scheme,
                consistency,
                ..Default::default()
            },
        });
        cluster.publish_policy(base_policy());
        let side = Side::Sharded(Box::new(cluster));
        side.seed_items();
        side
    }

    fn total_servers(&self) -> u64 {
        match self {
            Side::Threaded(c) => c.config().servers as u64,
            Side::Sharded(c) => c.total_servers() as u64,
        }
    }

    fn seed_items(&self) {
        for s in 0..self.total_servers() {
            self.configure_server(ServerId::new(s), move |core| {
                for j in 0..=GUARDED_SLOT {
                    core.store_mut().write(
                        DataItemId::new(s * 100 + j),
                        Value::Int(SEED_VALUE),
                        Timestamp::ZERO,
                    );
                }
            });
        }
    }

    fn configure_server(
        &self,
        server: ServerId,
        f: impl FnOnce(&mut safetx_core::ServerCore<safetx_runtime::Addr>) + Send + 'static,
    ) {
        match self {
            Side::Threaded(c) => c.configure_server(server, f),
            Side::Sharded(c) => c.configure_server(server, f),
        }
    }

    fn credential(&self, role: &str) -> Credential {
        let statement = role_atom(role);
        let cas = match self {
            Side::Threaded(c) => c.cas(),
            Side::Sharded(c) => c.cas(),
        };
        cas.with_mut(|registry| {
            registry.ca_mut(CaId::new(0)).expect("CA0").issue(
                UserId::new(1),
                statement,
                Timestamp::ZERO,
                Timestamp::MAX,
            )
        })
    }

    fn publish_catalog_only(&self, policy: Policy) {
        match self {
            Side::Threaded(c) => c.catalog().publish(policy),
            Side::Sharded(c) => c.catalog().publish(policy),
        };
    }

    fn install_at(&self, server: ServerId, policy: PolicyId, version: PolicyVersion) {
        self.configure_server(server, move |core| core.install_policy(policy, version));
    }

    fn execute(&self, spec: &TransactionSpec, credentials: &[Credential]) -> Observation {
        match self {
            Side::Threaded(c) => Observation::from_result(&c.execute(spec, credentials)),
            Side::Sharded(c) => Observation::from_result(&c.execute(spec, credentials)),
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

/// The scripted + seeded stream from the differential oracle, run on one
/// deployment. Labels make divergences pinpointable.
fn run_stream(side: &Side, seed: u64) -> Vec<(String, Observation)> {
    let member = side.credential("member");
    let mut out = Vec::new();
    let mut txn = 0u64;

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
    out.push((
        "clean-commit".into(),
        side.execute(&spec, std::slice::from_ref(&member)),
    ));

    // 2. No credentials: every scheme must refuse.
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(1))),
            q(2, "write", Operation::Add(DataItemId::new(201), 1)),
        ],
    );
    txn += 1;
    out.push(("no-credential".into(), side.execute(&spec, &[])));

    // 3. Integrity violation on a guarded item.
    let guarded = DataItemId::new(100 + GUARDED_SLOT);
    side.configure_server(ServerId::new(1), move |core| {
        core.constraints_mut().push(IntegrityConstraint::Range {
            item: guarded,
            lo: SEED_VALUE,
            hi: SEED_VALUE + 100,
        });
    });
    let spec = TransactionSpec::new(
        TxnId::new(txn),
        UserId::new(1),
        vec![
            q(0, "read", Operation::Read(DataItemId::new(2))),
            q(1, "write", Operation::Add(guarded, -1)),
        ],
    );
    txn += 1;
    out.push((
        "integrity-violation".into(),
        side.execute(&spec, std::slice::from_ref(&member)),
    ));

    // 4. Seeded random stream.
    let mut rng = Rng(seed | 1);
    for i in 0..4 {
        let spec = random_spec(&mut rng, txn);
        txn += 1;
        out.push((
            format!("random-{i}"),
            side.execute(&spec, std::slice::from_ref(&member)),
        ));
    }

    // 5. Divergence: v2 in the catalog and at server 0 only.
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
    out.push((
        "stale-divergence".into(),
        side.execute(&spec, std::slice::from_ref(&member)),
    ));

    // 6. Upgrade everywhere; a manager credential commits again.
    for s in 0..SERVERS as u64 {
        side.install_at(ServerId::new(s), PolicyId::new(0), PolicyVersion(2));
    }
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
    out.push((
        "post-upgrade-commit".into(),
        side.execute(&spec, &[manager]),
    ));

    out
}

/// Guarantee 1: a 1-shard `ShardedCluster` is outcome-, counter- and
/// view-identical to the plain threaded `Cluster` in all eight cells.
#[test]
fn one_shard_matches_threaded_on_every_cell() {
    let mut commits = 0usize;
    let mut aborts = 0usize;
    for (i, scheme) in ProofScheme::ALL.into_iter().enumerate() {
        for (j, consistency) in ConsistencyLevel::ALL.into_iter().enumerate() {
            let seed = 0x5aa4_ded0 ^ ((i as u64) << 8) ^ (j as u64);
            let threaded = run_stream(&Side::threaded(scheme, consistency), seed);
            let sharded_side = Side::sharded(1, SERVERS, scheme, consistency);
            let sharded = run_stream(&sharded_side, seed);
            if let Side::Sharded(cluster) = &sharded_side {
                let route = cluster.route_counters();
                assert_eq!(
                    route.cross_shard_submitted, 0,
                    "one shard can have no cross-shard transactions"
                );
                assert_eq!(route.single_shard_submitted, sharded.len() as u64);
                assert!(route.conserves(), "{route:?}");
            }
            assert_eq!(threaded.len(), sharded.len(), "{scheme}/{consistency}");
            for ((label, t), (_, s)) in threaded.iter().zip(sharded.iter()) {
                assert_eq!(
                    t, s,
                    "{scheme}/{consistency}: 1-shard deployment diverged on {label}"
                );
                if t.committed {
                    commits += 1;
                } else {
                    aborts += 1;
                }
            }
        }
    }
    assert!(commits > 0, "battery committed nothing");
    assert!(aborts > 0, "battery aborted nothing");
}

/// A cross-shard write spec: one `Add` on the first server of each of the
/// given shards.
fn cross_spec(cluster: &ShardedCluster, txn: u64, shards: &[usize]) -> TransactionSpec {
    let per_shard = cluster.servers_per_shard() as u64;
    let queries = shards
        .iter()
        .map(|&shard| {
            let server = shard as u64 * per_shard;
            q(
                server,
                "write",
                Operation::Add(DataItemId::new(server * 100 + txn % ITEMS_PER_SERVER), 1),
            )
        })
        .collect();
    TransactionSpec::new(TxnId::new(txn), UserId::new(1), queries)
}

/// Guarantee 2: the cross-shard 2PVC matrix. At 2 and 4 shards, across
/// all eight scheme × consistency cells: cross-shard commits pass the
/// Definition 4 audit, decision records replicate into every participant
/// shard's log, and routing accounting conserves exactly.
#[test]
fn cross_shard_matrix_is_safe_and_conserves() {
    for shards in [2usize, 4] {
        for scheme in ProofScheme::ALL {
            for consistency in ConsistencyLevel::ALL {
                let side = Side::sharded(shards, 2, scheme, consistency);
                let Side::Sharded(cluster) = &side else {
                    unreachable!()
                };
                let member = side.credential("member");
                let authority = cluster.catalog().latest_versions();

                let mut submitted = 0u64;
                let mut single_submitted = 0u64;
                let mut commits = 0u64;
                let mut aborts = 0u64;
                let mut cross_commits = Vec::new();
                for g in 0..8u64 {
                    // Rotate: single-shard, two-shard, all-shard, and one
                    // denied two-shard submission.
                    let (participants, creds): (Vec<usize>, Vec<Credential>) = match g % 4 {
                        0 => (vec![(g as usize) % shards], vec![member.clone()]),
                        1 => (vec![0, 1], vec![member.clone()]),
                        2 => ((0..shards).collect(), vec![member.clone()]),
                        _ => (vec![0, shards - 1], vec![]),
                    };
                    let spec = cross_spec(cluster, g, &participants);
                    let route = cluster.route_of(&spec);
                    assert_eq!(
                        route.is_single(),
                        participants.len() == 1,
                        "router misclassified {participants:?}"
                    );
                    if let TxnRoute::Cross(ref p) = route {
                        assert_eq!(p.len(), participants.len());
                    }
                    submitted += 1;
                    single_submitted += u64::from(route.is_single());
                    let result = cluster.execute(&spec, &creds);
                    if result.is_commit() {
                        commits += 1;
                        assert!(
                            trusted::is_trusted(&result.view, consistency, &authority),
                            "{shards}/{scheme}/{consistency}: commit failed Definition 4"
                        );
                        if participants.len() > 1 {
                            cross_commits.push((spec.id, participants));
                        }
                    } else {
                        aborts += 1;
                        if creds.is_empty() {
                            assert_eq!(
                                result.outcome.abort_reason(),
                                Some(AbortReason::ProofFalse),
                                "uncredentialed submissions are policy-denied"
                            );
                        }
                    }
                }

                // Denied cross-shard submissions must abort; credentialed
                // ones must commit in this uncontended, fault-free run.
                assert_eq!(aborts, 2, "{shards}/{scheme}/{consistency}");
                assert_eq!(commits, 6, "{shards}/{scheme}/{consistency}");

                // Every participant shard's decision log answers Commit for
                // each cross-shard commit it took part in.
                for (txn, participants) in &cross_commits {
                    for &s in participants {
                        assert_eq!(
                            cluster.shard(s).logged_decision(*txn),
                            Some(Decision::Commit),
                            "{shards}/{scheme}/{consistency}: shard {s} on {txn}"
                        );
                    }
                }

                let route = cluster.route_counters();
                assert!(route.conserves(), "{route:?}");
                assert_eq!(route.submitted(), submitted);
                // Each execution is counted in exactly its own route class.
                assert_eq!(route.single_shard_submitted, single_submitted);
                assert!(route.cross_shard_submitted > 0);
                assert_eq!(
                    route.single_shard_commits + route.cross_shard_commits,
                    commits
                );
            }
        }
    }
}

/// Conservation through the service layer: with a sharded backend,
/// `submissions == commits + aborts + sheds` exactly, route counters
/// surface in the stats snapshot, and every commit passes Definition 4.
#[test]
fn sharded_service_conserves_and_audits() {
    let cluster = ShardedCluster::new(ShardedConfig {
        shards: 2,
        cluster: ClusterConfig {
            servers: 2,
            scheme: ProofScheme::Punctual,
            consistency: ConsistencyLevel::View,
            ..Default::default()
        },
    });
    cluster.publish_policy(base_policy());
    let cluster = Arc::new(cluster);
    let member = cluster.cas().with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).expect("CA0").issue(
            UserId::new(1),
            role_atom("member"),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    });
    let service = TxnService::with_runtime(
        RuntimeKind::Sharded(cluster.clone()),
        ServiceConfig {
            workers: 3,
            queue_depth: 8,
            ..Default::default()
        },
    );
    let mut handles = Vec::new();
    let mut sheds = 0u64;
    for g in 0..24u64 {
        // Mix single-shard (server g%4) and cross-shard (servers 0 and 2)
        // submissions, with every sixth one uncredentialed.
        let queries = if g % 3 == 2 {
            vec![
                q(0, "write", Operation::Add(DataItemId::new(g), 1)),
                q(2, "write", Operation::Add(DataItemId::new(g + 100), 1)),
            ]
        } else {
            vec![q(g % 4, "write", Operation::Add(DataItemId::new(g), 1))]
        };
        let creds = if g % 6 == 5 {
            vec![]
        } else {
            vec![member.clone()]
        };
        let spec = TransactionSpec::new(TxnId::new(g), UserId::new(1), queries);
        match service.try_submit(spec, creds) {
            Ok(h) => handles.push(h),
            Err(safetx_service::AdmissionError::Overloaded) => sheds += 1,
            Err(e) => panic!("unexpected admission error {e:?}"),
        }
    }
    let authority = cluster.catalog().latest_versions();
    for handle in handles {
        let done = handle.wait();
        if done.outcome.is_commit() {
            assert!(
                trusted::is_trusted(&done.view, ConsistencyLevel::View, &authority),
                "a served commit failed the Definition 4 audit"
            );
        }
    }
    let stats = service.shutdown();
    assert!(stats.conserves(), "{stats:?}");
    assert_eq!(stats.overload_rejections, sheds);
    assert_eq!(
        stats.commits + stats.terminal_aborts + stats.retries_exhausted + sheds,
        stats.submissions,
        "submissions == commits + aborts + sheds"
    );
    assert!(stats.route.conserves(), "{:?}", stats.route);
    assert!(stats.route.single_shard_submitted > 0);
    assert!(stats.route.cross_shard_submitted > 0);
    // The JSON snapshot surfaces the split for BENCH emitters.
    let json = stats.clone().to_json();
    assert_eq!(
        json.get("single_shard_commits")
            .and_then(safetx_metrics::Json::as_u64),
        Some(stats.route.single_shard_commits)
    );
    assert_eq!(
        json.get("cross_shard_commits")
            .and_then(safetx_metrics::Json::as_u64),
        Some(stats.route.cross_shard_commits)
    );
}
