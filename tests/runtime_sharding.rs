//! Partitioned-deployment oracle: a deployment split into decision-log
//! groups (`ClusterConfig::groups`) against the unpartitioned one.
//!
//! 1. **One group's traffic is the plain cluster's.** A transaction whose
//!    participants all live in one group runs the same TM over the same
//!    link as on an unpartitioned cluster; only the log its decision goes
//!    to differs. So an identical transaction stream — scripted scenarios
//!    plus seeded random specs, across all 4 schemes × 2 consistency
//!    levels — confined to group 0 of a 2-group deployment must produce
//!    the outcomes, abort reasons, Table I counters and normalized proof
//!    views of a plain cluster of that group's size. Wall-clock artifacts
//!    are excluded, exactly as in `tests/differential.rs`.
//!
//! 2. **Cross-group 2PVC stays safe.** At 2 and 4 groups, transactions
//!    spanning groups are driven by one coordinating TM through 2PVC over
//!    the union of participant servers. Every commit must pass the
//!    Definition 4 trusted-transaction audit, decision records must be
//!    force-logged into *every* participant group's log (local recovery)
//!    and no other, and the route accounting must conserve exactly:
//!    `submitted == commits + aborts` per route class, and through the
//!    service layer `submissions == commits + aborts + sheds`.

use safetx_core::{trusted, AbortReason, ConsistencyLevel, ProofScheme};
use safetx_metrics::RouteCounters;
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, Policy, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig, Deployment, ExecutionResult, Link, LinkedCluster};
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

/// A deployment of `groups` decision-log groups of `per_group` servers
/// each, policy published and every server's items seeded.
fn deployment(
    groups: usize,
    per_group: usize,
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
) -> Cluster {
    let cluster = Cluster::new(ClusterConfig {
        servers: groups * per_group,
        groups,
        scheme,
        consistency,
        ..Default::default()
    });
    seed(&cluster);
    cluster
}

/// Publishes the base policy and seeds every server's items.
fn seed<L: Link>(cluster: &LinkedCluster<L>) {
    cluster.publish_policy(base_policy());
    for server in cluster.server_ids() {
        let s = server.index();
        cluster.configure_server(server, move |core| {
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

fn credential(cluster: &dyn Deployment, role: &str) -> Credential {
    cluster.cas().with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).expect("CA0").issue(
            UserId::new(1),
            role_atom(role),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    })
}

fn install_at(cluster: &Cluster, server: ServerId, policy: PolicyId, version: PolicyVersion) {
    cluster.configure_server(server, move |core| core.install_policy(policy, version));
}

fn execute(cluster: &Cluster, spec: &TransactionSpec, credentials: &[Credential]) -> Observation {
    Observation::from_result(&cluster.execute(spec, credentials))
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
/// deployment: every query goes to one of the first `SERVERS` servers.
/// Labels make divergences pinpointable.
fn run_stream(cluster: &Cluster, seed: u64) -> Vec<(String, Observation)> {
    let member = credential(cluster, "member");
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
        execute(cluster, &spec, std::slice::from_ref(&member)),
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
    out.push(("no-credential".into(), execute(cluster, &spec, &[])));

    // 3. Integrity violation on a guarded item.
    let guarded = DataItemId::new(100 + GUARDED_SLOT);
    cluster.configure_server(ServerId::new(1), move |core| {
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
        execute(cluster, &spec, std::slice::from_ref(&member)),
    ));

    // 4. Seeded random stream.
    let mut rng = Rng(seed | 1);
    for i in 0..4 {
        let spec = random_spec(&mut rng, txn);
        txn += 1;
        out.push((
            format!("random-{i}"),
            execute(cluster, &spec, std::slice::from_ref(&member)),
        ));
    }

    // 5. Divergence: v2 in the catalog and at server 0 only.
    cluster.catalog().publish(manager_only_v2());
    install_at(
        cluster,
        ServerId::new(0),
        PolicyId::new(0),
        PolicyVersion(2),
    );
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
        execute(cluster, &spec, std::slice::from_ref(&member)),
    ));

    // 6. Upgrade everywhere; a manager credential commits again.
    for s in 0..SERVERS as u64 {
        install_at(
            cluster,
            ServerId::new(s),
            PolicyId::new(0),
            PolicyVersion(2),
        );
    }
    let manager = credential(cluster, "manager");
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
        execute(cluster, &spec, &[manager]),
    ));

    out
}

/// Guarantee 1: a stream confined to group 0 of a 2-group × 3-server
/// deployment is outcome-, counter- and view-identical to the same stream
/// on a plain 3-server `Cluster` in all eight cells, and every execution is
/// counted as single-group. The plain cluster counts no routes at all.
#[test]
fn one_shard_matches_threaded_on_every_cell() {
    let mut commits = 0usize;
    let mut aborts = 0usize;
    for (i, scheme) in ProofScheme::ALL.into_iter().enumerate() {
        for (j, consistency) in ConsistencyLevel::ALL.into_iter().enumerate() {
            let seed = 0x5aa4_ded0 ^ ((i as u64) << 8) ^ (j as u64);
            let plain = deployment(1, SERVERS, scheme, consistency);
            let threaded = run_stream(&plain, seed);
            assert_eq!(plain.route_counters(), RouteCounters::default());
            let grouped = deployment(2, SERVERS, scheme, consistency);
            let sharded = run_stream(&grouped, seed);
            let route = grouped.route_counters();
            assert_eq!(
                route.cross_shard_submitted, 0,
                "a stream inside one group has no cross-group transactions"
            );
            assert_eq!(route.single_shard_submitted, sharded.len() as u64);
            assert!(route.conserves(), "{route:?}");
            assert_eq!(threaded.len(), sharded.len(), "{scheme}/{consistency}");
            for ((label, t), (_, s)) in threaded.iter().zip(sharded.iter()) {
                assert_eq!(
                    t, s,
                    "{scheme}/{consistency}: group 0 of two diverged on {label}"
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

/// Servers per group in the cross-group matrix.
const PER_GROUP: usize = 2;

/// A cross-group write spec: one `Add` on the first server of each of the
/// given groups.
fn cross_spec(txn: u64, groups: &[usize]) -> TransactionSpec {
    let queries = groups
        .iter()
        .map(|&group| {
            let server = (group * PER_GROUP) as u64;
            q(
                server,
                "write",
                Operation::Add(DataItemId::new(server * 100 + txn % ITEMS_PER_SERVER), 1),
            )
        })
        .collect();
    TransactionSpec::new(TxnId::new(txn), UserId::new(1), queries)
}

/// One cell of the cross-group 2PVC matrix on a seeded deployment of
/// `groups` groups: cross-group commits pass the Definition 4 audit,
/// decision records replicate into every participant group's log, and
/// routing accounting conserves exactly.
fn cross_group_cell<L: Link>(cluster: &LinkedCluster<L>, groups: usize, cell: &str) {
    let consistency = cluster.config().consistency;
    let member = credential(cluster, "member");
    let authority = cluster.catalog().latest_versions();

    let mut submitted = 0u64;
    let mut single_submitted = 0u64;
    let mut commits = 0u64;
    let mut aborts = 0u64;
    let mut cross_commits = Vec::new();
    for g in 0..8u64 {
        // Rotate: single-group, two-group, all-group, and one denied
        // two-group submission.
        let (participants, creds): (Vec<usize>, Vec<Credential>) = match g % 4 {
            0 => (vec![(g as usize) % groups], vec![member.clone()]),
            1 => (vec![0, 1], vec![member.clone()]),
            2 => ((0..groups).collect(), vec![member.clone()]),
            _ => (vec![0, groups - 1], vec![]),
        };
        let spec = cross_spec(g, &participants);
        let route = cluster.route_of(&spec);
        assert_eq!(route.groups(), participants, "{cell}: router misclassified");
        submitted += 1;
        single_submitted += u64::from(route.is_single());
        let result = cluster.execute(&spec, &creds);
        if result.is_commit() {
            commits += 1;
            assert!(
                trusted::is_trusted(&result.view, consistency, &authority),
                "{cell}: commit failed Definition 4"
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

    // Denied cross-group submissions must abort; credentialed ones must
    // commit in this uncontended, fault-free run.
    assert_eq!(aborts, 2, "{cell}");
    assert_eq!(commits, 6, "{cell}");

    // Every participant group's decision log answers Commit for each
    // cross-group commit it took part in, and no other group's log knows it.
    for (txn, participants) in &cross_commits {
        for group in 0..groups {
            let want = participants.contains(&group).then_some(Decision::Commit);
            assert_eq!(
                cluster.group_decision(group, *txn),
                want,
                "{cell}: group {group} on {txn}"
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

/// Guarantee 2: the cross-group 2PVC matrix at 2 and 4 groups on the
/// channel link and at 2 groups on the socket link, across all eight
/// scheme × consistency cells.
#[test]
fn cross_shard_matrix_is_safe_and_conserves() {
    for scheme in ProofScheme::ALL {
        for consistency in ConsistencyLevel::ALL {
            for groups in [2usize, 4] {
                let cluster = deployment(groups, PER_GROUP, scheme, consistency);
                let cell = format!("threaded {groups} groups {scheme}/{consistency}");
                cross_group_cell(&cluster, groups, &cell);
            }
            let cluster = NetCluster::new(ClusterConfig {
                servers: 2 * PER_GROUP,
                groups: 2,
                scheme,
                consistency,
                ..Default::default()
            });
            seed(&cluster);
            cross_group_cell(&cluster, 2, &format!("net 2 groups {scheme}/{consistency}"));
        }
    }
}

/// Conservation through the service layer: with a grouped backend,
/// `submissions == commits + aborts + sheds` exactly, route counters
/// surface in the stats snapshot, and every commit passes Definition 4.
#[test]
fn sharded_service_conserves_and_audits() {
    let cluster = Arc::new(deployment(
        2,
        PER_GROUP,
        ProofScheme::Punctual,
        ConsistencyLevel::View,
    ));
    let member = credential(&**cluster, "member");
    let service = TxnService::with_runtime(
        RuntimeKind::Sharded(cluster.clone()),
        ServiceConfig {
            workers: 3,
            queue_depth: 8,
            ..Default::default()
        },
    );
    assert!(Arc::ptr_eq(service.cluster(), &cluster));
    let mut handles = Vec::new();
    let mut sheds = 0u64;
    for g in 0..24u64 {
        // Mix single-group (server g%4) and cross-group (servers 0 and 2)
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
    // The JSON snapshot surfaces the split.
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
