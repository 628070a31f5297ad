//! Load-generation harness for the concurrent transaction service.
//!
//! Sweeps proof scheme × consistency level × closed-loop client count over
//! `safetx-service` (worker pool + admission queue + abort-retry) on the
//! threaded runtime, then demonstrates open-loop Poisson arrivals and
//! deterministic overload shedding. Prints a machine-readable report on
//! stdout and self-validates it: the emitted JSON must re-parse, and for
//! every cell `commits + terminal_aborts + retries_exhausted +
//! overload_rejections == submissions`.
//!
//! Transaction *outcome totals* are deterministic under a fixed seed: the
//! policy-denied fraction is positional, authorized transactions retry
//! transient aborts until they commit, and the overload section holds one
//! server's host shut so the shed count is exact. Latencies and throughput are
//! wall-clock and vary run to run; outcomes do not. The one-line summary
//! goes to stderr; `scripts/loadgen_totals.sh` prints the report's
//! `outcome_totals`, one key per line, for diffing two runs.
//!
//! ```bash
//! cargo run --release -p safetx-bench --bin loadgen [-- [--smoke] [--net] [txns_per_client] [seed]] > report.json
//! ```
//!
//! `--smoke` runs the small-n CI configuration (2 servers, 4 clients,
//! ~200 transactions) with the same validation.
//!
//! `--net` swaps the execution backend for the wire-protocol runtime
//! (`safetx-net`): the same service layer, but every protocol message is
//! encoded into a length-prefixed frame and crosses a `UnixStream`. The
//! outcome totals must be byte-identical to a threaded run with the same
//! arguments — CI diffs the two. The concurrency mode comes from
//! `SAFETX_CONCURRENCY_MODE`, as for every runtime.

use safetx_core::{trusted, ConcurrencyMode, ConsistencyLevel, ProofScheme};
use safetx_metrics::Json;
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig};
use safetx_service::{
    run_closed_loop, run_open_loop, RetryPolicy, RuntimeKind, ServiceConfig, TxnService,
};
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use safetx_workload::PoissonArrivals;
use std::sync::Arc;

/// Data items seeded per server; transaction keys are spread over these.
const ITEMS_PER_SERVER: u64 = 64;
/// Every DENY_EVERY-th submission goes out without credentials and is
/// policy-denied — a deterministic terminal-abort fraction.
const DENY_EVERY: u64 = 8;

fn build_runtime(
    net: bool,
    servers: usize,
    scheme: ProofScheme,
    consistency: ConsistencyLevel,
) -> RuntimeKind {
    let config = ClusterConfig {
        servers,
        scheme,
        consistency,
        ..Default::default()
    };
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member).",
        )
        .expect("rules parse")
        .build();
    let runtime = if net {
        RuntimeKind::Net(Arc::new(NetCluster::new(config)))
    } else {
        RuntimeKind::Threaded(Arc::new(Cluster::new(config)))
    };
    runtime.publish_policy(policy);
    for server in runtime.server_ids() {
        runtime.with_store(server, &mut |store| {
            for j in 0..ITEMS_PER_SERVER {
                store.write(
                    DataItemId::new(server.index() * 100 + j),
                    Value::Int(10),
                    Timestamp::ZERO,
                );
            }
        });
    }
    runtime
}

fn member_credential(runtime: &RuntimeKind) -> Credential {
    runtime.cas().with_mut(|registry| {
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

/// A read-modify-write across every server, on slot `(g·7) mod 64` of
/// each: contention is real but bounded and outcomes are positional.
fn spec_for(runtime: &RuntimeKind, global_index: u64) -> TransactionSpec {
    let servers = runtime.config().servers as u64;
    let queries = (0..servers)
        .map(|s| {
            let item = s * 100 + (global_index * 7) % ITEMS_PER_SERVER;
            QuerySpec::new(
                ServerId::new(s),
                "write",
                "records",
                vec![Operation::Add(DataItemId::new(item), 1)],
            )
        })
        .collect();
    TransactionSpec::new(runtime.next_txn_id(), UserId::new(1), queries)
}

fn denied(global_index: u64) -> bool {
    global_index % DENY_EVERY == DENY_EVERY - 1
}

/// Running aggregate of outcome totals across every section — the part of
/// the report that must be identical run to run under a fixed seed.
#[derive(Default)]
struct Totals {
    submissions: u64,
    commits: u64,
    terminal_aborts: u64,
    retries_exhausted: u64,
    overload_rejections: u64,
}

impl Totals {
    fn absorb(&mut self, stats: &safetx_service::ServiceStats) {
        self.submissions += stats.submissions;
        self.commits += stats.commits;
        self.terminal_aborts += stats.terminal_aborts;
        self.retries_exhausted += stats.retries_exhausted;
        self.overload_rejections += stats.overload_rejections;
    }

    fn to_json(&self) -> Json {
        Json::object()
            .with("submissions", self.submissions)
            .with("commits", self.commits)
            .with("terminal_aborts", self.terminal_aborts)
            .with("retries_exhausted", self.retries_exhausted)
            .with("overload_rejections", self.overload_rejections)
    }
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        // Generous budget: in the closed loop every authorized transaction
        // retries transient aborts until it commits, so commit totals are
        // a function of the deterministic denied fraction alone.
        max_retries: 64,
        base_backoff: std::time::Duration::from_micros(50),
        max_backoff: std::time::Duration::from_millis(2),
        jitter_percent: 50,
        ..RetryPolicy::default()
    }
}

/// One closed-loop sweep cell. Returns its JSON row and folds outcome
/// totals into `totals`.
fn closed_loop_cell(
    runtime: RuntimeKind,
    clients: usize,
    per_client: usize,
    seed: u64,
    totals: &mut Totals,
) -> Json {
    let (scheme, consistency) = (runtime.config().scheme, runtime.config().consistency);
    let service = TxnService::with_runtime(
        runtime.clone(),
        ServiceConfig {
            workers: clients.min(8),
            queue_depth: (2 * clients).max(8),
            retry: retry_policy(),
            seed,
        },
    );
    let cred = member_credential(&runtime);
    let report = run_closed_loop(&service, clients, per_client, |client, index| {
        let g = (client * per_client + index) as u64;
        let creds = if denied(g) {
            vec![]
        } else {
            vec![cred.clone()]
        };
        (spec_for(&runtime, g), creds)
    });

    // Post-hoc Definition 4 audit: every commit's recorded view must be
    // trusted against the catalog's latest policy versions.
    let authority = runtime.catalog().latest_versions();
    let audited = report
        .completions
        .iter()
        .filter(|c| c.outcome.is_commit())
        .filter(|c| trusted::is_trusted(&c.view, consistency, &authority))
        .count();
    assert_eq!(
        audited,
        report.commits(),
        "{scheme}/{consistency}: a committed view failed the Definition 4 audit"
    );

    let mut stats = service.shutdown();
    assert!(
        stats.conserves(),
        "{scheme}/{consistency}/{clients}: outcome accounting leaked: {stats:?}"
    );
    totals.absorb(&stats);
    let throughput = stats.throughput_tps(report.wall);
    Json::object()
        .with("mode", "closed_loop")
        .with("scheme", format!("{scheme}"))
        .with("consistency", format!("{consistency}"))
        .with("clients", clients)
        .with("per_client", per_client)
        .with("wall_ms", report.wall.as_secs_f64() * 1_000.0)
        .with("throughput_tps", throughput)
        .with("audited_commits", audited)
        .with("stats", stats.to_json())
}

/// Open-loop Poisson section: arrivals do not wait for completions. The
/// queue is deeper than the arrival count so outcome totals stay
/// deterministic; shedding is demonstrated by the gated overload section.
fn open_loop_section(net: bool, seed: u64, count: usize, totals: &mut Totals) -> Json {
    let runtime = build_runtime(net, 3, ProofScheme::Punctual, ConsistencyLevel::View);
    let service = TxnService::with_runtime(
        runtime.clone(),
        ServiceConfig {
            workers: 4,
            queue_depth: count.max(8),
            retry: retry_policy(),
            seed,
        },
    );
    let cred = member_credential(&runtime);
    let arrivals = PoissonArrivals::new(safetx_types::Duration::from_micros(300), seed);
    let rate = arrivals.rate_per_sec();
    let report = run_open_loop(&service, arrivals, count, |index| {
        let g = index as u64;
        let creds = if denied(g) {
            vec![]
        } else {
            vec![cred.clone()]
        };
        (spec_for(&runtime, g), creds)
    });
    let mut stats = service.shutdown();
    assert!(stats.conserves(), "open loop leaked outcomes: {stats:?}");
    totals.absorb(&stats);
    Json::object()
        .with("mode", "open_loop")
        .with("arrival_rate_per_sec", rate)
        .with("offered", report.offered)
        .with("rejected", report.rejected)
        .with("wall_ms", report.wall.as_secs_f64() * 1_000.0)
        .with("throughput_tps", stats.throughput_tps(report.wall))
        .with("stats", stats.to_json())
}

/// Deterministic overload demonstration: gate server 0 shut, park
/// the single worker on it, fill the queue to depth, and burst `extra`
/// more submissions — exactly `extra` are shed. Then open the gate and
/// drain; everything admitted commits.
fn overload_section(net: bool, seed: u64, extra: usize, totals: &mut Totals) -> Json {
    let depth = 4usize;
    let runtime = build_runtime(net, 2, ProofScheme::Deferred, ConsistencyLevel::View);
    let service = TxnService::with_runtime(
        runtime.clone(),
        ServiceConfig {
            workers: 1,
            queue_depth: depth,
            retry: retry_policy(),
            seed,
        },
    );
    let cred = member_credential(&runtime);

    // A store closure holds server 0's host, so this recv stalls the
    // server (and the worker executing against it) until the gate opens.
    // with_store blocks its caller, hence the helper thread; nothing is
    // submitted before it holds.
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let (held, is_held) = std::sync::mpsc::channel();
    let gated = runtime.clone();
    let stall = std::thread::spawn(move || {
        gated.with_store(ServerId::new(0), &mut |_store| {
            held.send(()).expect("the section waits");
            let _ = gate_rx.recv();
        });
    });
    is_held.recv().expect("server 0 is held");

    // Park the worker: submit one job and wait until it leaves the queue
    // (the worker is now blocked inside execute on the gated server).
    let mut handles = vec![service
        .try_submit(spec_for(&runtime, 0), vec![cred.clone()])
        .expect("empty queue admits")];
    while service.queue_len() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // Fill the queue to depth, then burst past it.
    let mut rejected = 0u64;
    for g in 0..(depth + extra) as u64 {
        match service.try_submit(spec_for(&runtime, g + 1), vec![cred.clone()]) {
            Ok(h) => handles.push(h),
            Err(err) => {
                assert_eq!(err, safetx_service::AdmissionError::Overloaded);
                rejected += 1;
            }
        }
    }
    assert_eq!(
        rejected, extra as u64,
        "shedding must reject exactly the burst past queue depth"
    );
    gate_tx.send(()).expect("gate listener alive");
    stall.join().expect("stall helper");
    for handle in handles {
        assert!(handle.wait().outcome.is_commit(), "admitted work commits");
    }
    let mut stats = service.shutdown();
    assert!(stats.conserves(), "overload section leaked: {stats:?}");
    totals.absorb(&stats);
    Json::object()
        .with("mode", "overload")
        .with("queue_depth", depth)
        .with("burst_past_depth", extra)
        .with("rejected", rejected)
        .with("stats", stats.to_json())
}

/// Re-parses the emitted JSON and checks conservation on every section —
/// the same check CI's smoke step relies on.
fn validate(text: &str) {
    let parsed = Json::parse(text).expect("emitted JSON must re-parse");
    let num = |obj: &Json, key: &str| {
        obj.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing numeric field {key}"))
    };
    let check = |cell: &Json, what: &str| {
        let stats = cell.get("stats").expect("cell has stats");
        let submissions = num(stats, "submissions");
        let accounted = num(stats, "commits")
            + num(stats, "terminal_aborts")
            + num(stats, "retries_exhausted")
            + num(stats, "overload_rejections");
        assert_eq!(
            accounted, submissions,
            "{what}: commits + aborts + rejections != submissions"
        );
    };
    let cells = parsed
        .get("closed_loop")
        .and_then(Json::as_array)
        .expect("closed_loop array");
    assert!(!cells.is_empty(), "sweep produced no cells");
    for (i, cell) in cells.iter().enumerate() {
        check(cell, &format!("closed_loop[{i}]"));
    }
    check(parsed.get("open_loop").expect("open_loop"), "open_loop");
    check(parsed.get("overload").expect("overload"), "overload");
    let totals = parsed.get("outcome_totals").expect("outcome_totals");
    assert!(
        num(totals, "overload_rejections") > 0,
        "no shedding observed"
    );
    assert!(
        num(totals, "terminal_aborts") > 0,
        "no policy denials observed"
    );
}

fn main() {
    let mut smoke = false;
    let mut net = false;
    let mut positional = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--net" {
            net = true;
        } else {
            positional.push(arg);
        }
    }
    let per_client: usize = positional
        .first()
        .map(|s| s.parse().expect("txns_per_client"))
        .unwrap_or(25);
    let seed: u64 = positional
        .get(1)
        .map(|s| s.parse().expect("seed"))
        .unwrap_or(42);

    let (servers, client_counts, schemes, levels): (
        usize,
        Vec<usize>,
        Vec<ProofScheme>,
        Vec<ConsistencyLevel>,
    ) = if smoke {
        // Small-n CI configuration: 2 servers, 4 clients, 2 cells × 100
        // closed-loop transactions (~200 plus the open-loop/overload
        // sections).
        (
            2,
            vec![4],
            vec![ProofScheme::Deferred, ProofScheme::Continuous],
            vec![ConsistencyLevel::View],
        )
    } else {
        (
            3,
            vec![2, 4, 8],
            ProofScheme::ALL.to_vec(),
            ConsistencyLevel::ALL.to_vec(),
        )
    };

    let mut totals = Totals::default();
    let mut cells = Vec::new();
    for &scheme in &schemes {
        for &consistency in &levels {
            for &clients in &client_counts {
                eprintln!("closed loop: {scheme} / {consistency} / {clients} clients");
                cells.push(closed_loop_cell(
                    build_runtime(net, servers, scheme, consistency),
                    clients,
                    per_client,
                    seed,
                    &mut totals,
                ));
            }
        }
    }
    eprintln!("open loop: Poisson arrivals");
    let open = open_loop_section(net, seed, if smoke { 40 } else { 80 }, &mut totals);
    eprintln!("overload: gated burst");
    let overload = overload_section(net, seed, 6, &mut totals);

    let config_json = Json::object()
        .with("smoke", smoke)
        .with("runtime", if net { "net" } else { "threaded" })
        .with("servers", servers)
        .with("per_client", per_client)
        .with("seed", seed)
        .with("deny_every", DENY_EVERY)
        .with("concurrency", ConcurrencyMode::from_env().to_string());
    let report = Json::object()
        .with("config", config_json)
        .with("closed_loop", Json::Arr(cells))
        .with("open_loop", open)
        .with("overload", overload)
        .with("outcome_totals", totals.to_json());
    let text = report.render();
    validate(&text);
    println!("{text}");
    eprintln!(
        "loadgen OK: {} submissions, {} commits, {} terminal aborts, {} exhausted, {} shed",
        totals.submissions,
        totals.commits,
        totals.terminal_aborts,
        totals.retries_exhausted,
        totals.overload_rejections
    );
}
