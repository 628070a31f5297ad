//! Seeded chaos suite, generic over three runtimes: the threaded
//! channel cluster, the socket-backed net cluster, and the threaded
//! cluster split into two decision-log groups. Every runtime is driven through the same seeded fault
//! schedules (message drops, duplicates, delays, reorders — and for the
//! net runtime byte corruption, mid-frame truncation and hard
//! disconnects — plus scheduled server crashes with mid-run restart and
//! recovery).
//!
//! Invariants asserted per schedule, identically for every runtime:
//!
//! * **Safety (Definition 4)** — no transaction that reported COMMIT may
//!   fail the post-hoc trust audit over its recorded proof view.
//! * **Decision-log agreement** — a transaction committed at the driver
//!   iff the coordinator decision log says COMMIT for it.
//! * **Store consistency** — after the cluster quiesces, every crashed
//!   server is restarted and in-doubt state resolved through the
//!   coordinator-inquiry path; each replica's items must then equal the
//!   seed value plus exactly the committed deltas — no lost, duplicated,
//!   or phantom writes, whatever the fault schedule did.
//!
//! Default sweep: 25 seeds per (scheme, consistency) cell = 200 schedules
//! per runtime. `SAFETX_CHAOS_SEEDS=<n>` overrides the per-cell seed
//! count (CI smoke uses a small fixed subset). A faults-disabled pass
//! additionally checks that all three runtimes produce byte-identical
//! outcome streams on the same workload — the differential-oracle
//! property restated through this harness.

use safetx_core::{trusted, ConsistencyLevel, ProofScheme, TxnOutcome};
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{
    Cluster, ClusterConfig, CrashPoint, CrashRule, Deployment, FaultPlan, MsgKind,
};
use safetx_service::{RetryPolicy, ServiceConfig, TxnService};
use safetx_store::{LocalStore, Value};
use safetx_txn::{CommitVariant, Decision, Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, TxnId, UserId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const SERVERS: usize = 3;
const GROUPS: usize = 2;
const PER_GROUP: usize = 2;
const ITEMS_PER_SERVER: u64 = 4;
const TXNS_PER_SCHEDULE: u64 = 8;
const SEED_VALUE: i64 = 10;

const VARIANTS: [CommitVariant; 3] = [
    CommitVariant::Standard,
    CommitVariant::PresumedAbort,
    CommitVariant::PresumedCommit,
];

fn seeds_per_cell() -> u64 {
    std::env::var("SAFETX_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25)
}

/// Which deployment a schedule runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runtime {
    /// In-process threads over crossbeam channels.
    Threaded,
    /// Real byte streams over Unix sockets, with the transport fault
    /// fabric interposed at the frame layer.
    Net,
    /// The threaded cluster in decision-log groups, with cross-group
    /// 2PVC coordinators.
    Sharded,
}

impl Runtime {
    fn label(self) -> &'static str {
        match self {
            Runtime::Threaded => "threaded",
            Runtime::Net => "net",
            Runtime::Sharded => "sharded",
        }
    }
}

/// The schedule's cluster configuration for `seed`.
fn config(scheme: ProofScheme, consistency: ConsistencyLevel, seed: u64) -> ClusterConfig {
    ClusterConfig {
        servers: SERVERS,
        scheme,
        consistency,
        variant: VARIANTS[(seed % 3) as usize],
        // Generous against the plans' ≤2 ms injected delays, small
        // enough that dropped-message timeouts don't dominate.
        reply_timeout: Some(Duration::from_millis(10)),
        ..Default::default()
    }
}

/// Runs `run` on one of the three deployments behind the uniform
/// [`Deployment`] surface, policy published and every audited slot
/// seeded: the same schedule driver and the same audits run against all of
/// them. The deployment shuts down when `run` returns.
fn with_cluster<R>(
    runtime: Runtime,
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    seed: u64,
    run: impl FnOnce(&dyn Deployment) -> R,
) -> R {
    let config = config(scheme, consistency, seed);
    let seeded = |cluster: &dyn Deployment| {
        seed_cluster(cluster);
        run(cluster)
    };
    match runtime {
        Runtime::Threaded => seeded(&Cluster::new(config)),
        Runtime::Net => seeded(&*NetCluster::new(config)),
        Runtime::Sharded => seeded(&Cluster::new(ClusterConfig {
            servers: GROUPS * PER_GROUP,
            groups: GROUPS,
            ..config
        })),
    }
}

/// Publishes the write policy and writes the well-known seed value into
/// every audited slot.
fn seed_cluster(cluster: &dyn Deployment) {
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build();
    cluster.publish_policy(policy);
    for server in cluster.server_ids() {
        let s = server.index();
        cluster.with_store(server, &mut |store: &mut LocalStore| {
            for j in 0..ITEMS_PER_SERVER {
                store.write(
                    DataItemId::new(s * 100 + j),
                    Value::Int(SEED_VALUE),
                    Timestamp::ZERO,
                );
            }
        });
    }
}

/// Reads every audited slot of `server` back for the post-run store
/// audit.
fn probe_items(cluster: &dyn Deployment, server: ServerId) -> Vec<(u64, Option<i64>)> {
    let s = server.index();
    let mut items = Vec::new();
    cluster.with_store(server, &mut |store: &mut LocalStore| {
        items = (0..ITEMS_PER_SERVER)
            .map(|j| (s * 100 + j, store.read_int(DataItemId::new(s * 100 + j))))
            .collect();
    });
    items
}

/// Arms the deployment's fault fabric with the seed's chaos mix plus the
/// schedule's crash rules: one [`FaultPlan`] for every runtime. The
/// threaded and grouped runtimes apply it at the message layer; the net
/// runtime applies it at the frame layer, where the same plan adds byte
/// corruption, mid-frame truncation and hard disconnects to the mix.
fn set_chaos_plan(cluster: &dyn Deployment, seed: u64) {
    let mut plan = FaultPlan::chaos(seed);
    plan.crashes = crash_rules(seed, cluster.server_ids().len() as u64);
    cluster.set_fault_plan(plan);
}

fn member_credential(cluster: &dyn Deployment) -> Credential {
    cluster.cas().with_mut(|registry| {
        registry.ca_mut(CaId::new(0)).unwrap().issue(
            UserId::new(1),
            Atom::fact(
                "role",
                vec![Constant::symbol("u1"), Constant::symbol("member")],
            ),
            Timestamp::ZERO,
            Timestamp::MAX,
        )
    })
}

/// The participant set for transaction `i` of a schedule. Flat runtimes
/// always span every server; the grouped runtime alternates between a
/// cross-group transaction (all servers) and a single-group one, so both
/// the local 2PV/2PVC path and the cross-group coordinator face the
/// fault schedule.
fn participants(runtime: Runtime, i: u64) -> Vec<u64> {
    match runtime {
        Runtime::Threaded | Runtime::Net => (0..SERVERS as u64).collect(),
        Runtime::Sharded if i.is_multiple_of(2) => (0..(GROUPS * PER_GROUP) as u64).collect(),
        Runtime::Sharded => {
            let per = PER_GROUP as u64;
            let base = ((i / 2) % GROUPS as u64) * per;
            (base..base + per).collect()
        }
    }
}

/// One write per participant server, all on the same slot — commits move
/// the participants' items in lockstep, which makes the post-run store
/// audit exact.
fn spec(cluster: &dyn Deployment, servers: &[u64], slot: u64) -> TransactionSpec {
    let queries = servers
        .iter()
        .map(|&s| {
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(s * 100 + slot), 1)],
            )
        })
        .collect();
    TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries)
}

/// On a fifth of the seeds, one scheduled crash rotating over victims and
/// protocol points. Shared between the channel-layer and frame-layer
/// plans so every runtime faces the same crash schedule.
fn crash_rules(seed: u64, servers: u64) -> Vec<CrashRule> {
    if seed % 5 != 3 {
        return Vec::new();
    }
    let points = [
        CrashPoint::BeforeReceive(MsgKind::PrepareToCommit),
        CrashPoint::AfterSend(MsgKind::CommitReply),
        CrashPoint::AfterReceive(MsgKind::Decision),
    ];
    vec![CrashRule {
        server: ServerId::new(seed % servers),
        point: points[((seed / 5) % 3) as usize],
    }]
}

/// Runs one seeded schedule on one runtime and audits it.
/// Returns (commits, aborts).
fn run_schedule(
    runtime: Runtime,
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    seed: u64,
) -> (u64, u64) {
    with_cluster(runtime, scheme, consistency, seed, |cluster| {
        schedule_on(cluster, runtime, scheme, consistency, seed)
    })
}

fn schedule_on(
    cluster: &dyn Deployment,
    runtime: Runtime,
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
    seed: u64,
) -> (u64, u64) {
    let name = runtime.label();
    let cred = member_credential(cluster);
    let authority = cluster.catalog().latest_versions();
    set_chaos_plan(cluster, seed);

    let mut committed: Vec<TxnId> = Vec::new();
    let mut aborted: Vec<TxnId> = Vec::new();
    let mut expected_delta: HashMap<u64, i64> = HashMap::new();
    for i in 0..TXNS_PER_SCHEDULE {
        let slot = (seed.wrapping_add(i)) % ITEMS_PER_SERVER;
        let servers = participants(runtime, i);
        let spec = spec(cluster, &servers, slot);
        let txn = spec.id;
        let result = cluster.execute(&spec, std::slice::from_ref(&cred));
        if result.is_commit() {
            // Safety: a committed transaction must audit as trusted
            // (Definition 4) over the proofs its TM actually saw —
            // whatever the network did to the messages carrying them.
            assert!(
                trusted::is_trusted(&result.view, consistency, &authority),
                "{name} {scheme}/{consistency} seed {seed}: committed txn {txn} fails Definition 4"
            );
            for &s in &servers {
                *expected_delta.entry(s * 100 + slot).or_insert(0) += 1;
            }
            committed.push(txn);
        } else {
            aborted.push(txn);
        }
        // A scheduled crash mid-run: restart immediately (the driver is
        // between transactions, so recovery inquiries are answerable) and
        // keep going — later transactions exercise the recovered server.
        for server in cluster.crashed_servers() {
            cluster.restart_server(server);
        }
    }

    // Quiesce: let delay sleepers (≤ 2 ms) flush, stop injecting, restart
    // any straggler crash, and resolve every in-doubt participant from the
    // coordinator decision log.
    std::thread::sleep(Duration::from_millis(5));
    cluster.clear_fault_plan();
    for server in cluster.crashed_servers() {
        cluster.restart_server(server);
    }
    std::thread::sleep(Duration::from_millis(5));
    cluster.resolve_in_doubt();

    // Decision-log agreement: driver outcome == coordinator log.
    for &txn in &committed {
        assert_eq!(
            cluster.logged_decision(txn),
            Some(Decision::Commit),
            "{name} {scheme}/{consistency} seed {seed}: commit of {txn} not in the decision log"
        );
    }
    for &txn in &aborted {
        assert_ne!(
            cluster.logged_decision(txn),
            Some(Decision::Commit),
            "{name} {scheme}/{consistency} seed {seed}: driver saw {txn} abort but the log says commit"
        );
    }

    // Store consistency: each replica's items carry exactly the committed
    // deltas — crashes, drops, duplicates and truncations included.
    for server in cluster.server_ids() {
        for (item, value) in probe_items(cluster, server) {
            let expected = SEED_VALUE + expected_delta.get(&item).copied().unwrap_or(0);
            assert_eq!(
                value,
                Some(expected),
                "{name} {scheme}/{consistency} seed {seed}: item {item} inconsistent after recovery"
            );
        }
    }

    (committed.len() as u64, aborted.len() as u64)
}

/// The full sweep for one runtime: every scheme × consistency cell,
/// `seeds_per_cell()` seeds each, cells spread across the seed space so
/// every cell sees different fault mixes.
fn sweep(runtime: Runtime) {
    let seeds = seeds_per_cell();
    let mut schedules = 0u64;
    let mut commits = 0u64;
    let mut aborts = 0u64;
    for scheme in ProofScheme::ALL {
        for consistency in ConsistencyLevel::ALL {
            for seed in 0..seeds {
                let cell = (scheme as u64) * 31 + (consistency as u64) * 101;
                let (c, a) =
                    run_schedule(runtime, scheme, consistency, seed.wrapping_add(cell * 1000));
                schedules += 1;
                commits += c;
                aborts += a;
            }
        }
    }
    assert_eq!(schedules, 8 * seeds);
    // Recorded in EXPERIMENTS.md; visible with `--nocapture`.
    println!(
        "{} chaos sweep: {schedules} schedules ({} txns), {commits} commits, {aborts} aborts, 0 safety violations",
        runtime.label(),
        schedules * TXNS_PER_SCHEDULE
    );
    // The mix must actually exercise both outcomes across the sweep.
    assert!(
        commits > 0,
        "{} chaos sweep committed nothing",
        runtime.label()
    );
    assert!(
        aborts > 0 || seeds < 3,
        "{} chaos sweep aborted nothing — faults are not biting",
        runtime.label()
    );
}

#[test]
fn chaos_sweep_preserves_safety_and_store_consistency() {
    sweep(Runtime::Threaded);
}

#[test]
fn net_chaos_sweep_preserves_safety_and_store_consistency() {
    sweep(Runtime::Net);
}

#[test]
fn sharded_chaos_sweep_preserves_safety_and_store_consistency() {
    sweep(Runtime::Sharded);
}

/// With no fault plan armed, every runtime must run the same workload to
/// the same per-transaction outcome stream, and replays must be
/// byte-identical — the differential-oracle property restated through
/// the chaos harness, guarding against the fabric perturbing the
/// fault-free path.
#[test]
fn faults_disabled_runs_are_byte_identical_across_runtimes_and_replays() {
    fn outcome_stream(runtime: Runtime) -> String {
        with_cluster(
            runtime,
            ProofScheme::Deferred,
            ConsistencyLevel::View,
            0,
            stream_on,
        )
    }

    fn stream_on(cluster: &dyn Deployment) -> String {
        let cred = member_credential(cluster);
        let mut stream = String::new();
        for i in 0..TXNS_PER_SCHEDULE {
            let slot = i % ITEMS_PER_SERVER;
            // All runtimes run the *same* spec shape here: the first
            // `SERVERS` servers, which the grouped deployment spreads
            // over both groups (cross-group every time).
            let servers: Vec<u64> = (0..SERVERS as u64).collect();
            let spec = spec(cluster, &servers, slot);
            let result = cluster.execute(&spec, std::slice::from_ref(&cred));
            match &result.outcome {
                TxnOutcome::Committed { .. } => stream.push_str("commit\n"),
                TxnOutcome::Aborted { reason, .. } => {
                    stream.push_str(&format!("abort:{reason:?}\n"));
                }
            }
        }
        stream
    }

    let reference = outcome_stream(Runtime::Threaded);
    assert_eq!(reference, "commit\n".repeat(TXNS_PER_SCHEDULE as usize));
    for runtime in [Runtime::Threaded, Runtime::Net, Runtime::Sharded] {
        let first = outcome_stream(runtime);
        let second = outcome_stream(runtime);
        assert_eq!(
            first,
            reference,
            "{} faults-disabled outcomes diverge from the threaded oracle",
            runtime.label()
        );
        assert_eq!(
            first,
            second,
            "{} faults-disabled replay is not byte-identical",
            runtime.label()
        );
    }
}

#[test]
fn service_under_chaos_conserves_and_surfaces_fault_counters() {
    for seed in [11u64, 42, 97] {
        let config = config(ProofScheme::Deferred, ConsistencyLevel::View, seed);
        let cluster = Arc::new(Cluster::new(config));
        seed_cluster(&**cluster);
        let cred = member_credential(&**cluster);
        let authority = cluster.catalog().latest_versions();
        cluster.set_fault_plan(FaultPlan::chaos(seed));
        let service = TxnService::new(
            cluster.clone(),
            ServiceConfig {
                workers: 2,
                queue_depth: 32,
                retry: RetryPolicy::default(),
                seed,
            },
        );
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let slot = i % ITEMS_PER_SERVER;
                let queries = (0..SERVERS as u64)
                    .map(|s| {
                        QuerySpec::new(
                            ServerId::new(s),
                            "write",
                            "records",
                            vec![Operation::Add(DataItemId::new(s * 100 + slot), 1)],
                        )
                    })
                    .collect();
                let spec = TransactionSpec::new(cluster.next_txn_id(), UserId::new(1), queries);
                service
                    .submit_blocking(spec, vec![cred.clone()])
                    .expect("service open")
            })
            .collect();
        for handle in handles {
            let done = handle.wait();
            if done.outcome.is_commit() {
                assert!(
                    trusted::is_trusted(&done.view, ConsistencyLevel::View, &authority),
                    "seed {seed}: committed service txn fails Definition 4"
                );
            }
        }
        let mut stats = service.shutdown();
        assert!(stats.conserves(), "seed {seed}: {stats:?}");
        // The cluster's fault counters ride along in the stats snapshot
        // and its JSON export, next to dropped_replies.
        assert_eq!(stats.faults, cluster.fault_counters(), "seed {seed}");
        let json = stats.to_json().render();
        for key in [
            "faults_dropped",
            "faults_delayed",
            "faults_duplicated",
            "faults_corrupted",
            "faults_truncated",
            "disconnects",
            "reconnect_exhausted",
            "server_crashes",
            "recoveries",
            "timeout_aborts",
            "unavailable_retries",
            "dropped_replies",
        ] {
            assert!(json.contains(key), "seed {seed}: {key} missing from JSON");
        }
    }
}
