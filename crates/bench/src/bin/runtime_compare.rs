//! Before/after harness for the runtime hot-path overhaul.
//!
//! Runs the most server-bound loadgen cell — Continuous / Global, 3
//! servers, 8 closed-loop clients — with the proof cache both enabled and
//! disabled, and prints one JSON document with outcome totals and
//! throughput (also written to `BENCH_runtime.json`). The
//! `net_vs_threaded` section runs the same cell on the wire-protocol
//! runtime (`safetx-net`) at batch 1 and 16: outcome totals must be
//! identical to the threaded rows, throughput measures the encode/frame/
//! syscall tax. The binary deliberately uses only the API surface shared by
//! the pre-overhaul tree (commit `acee853`) and this one, so the exact
//! same source builds in a worktree at the old commit; `BENCH_runtime.json`
//! pairs the two runs:
//!
//! ```bash
//! # after (this tree)
//! cargo run --release -p safetx-bench --bin runtime_compare -- after
//! # before (worktree at the pre-overhaul commit, same file dropped in)
//! git worktree add /tmp/safetx-before <commit>
//! cp crates/bench/src/bin/runtime_compare.rs /tmp/safetx-before/crates/bench/src/bin/
//! (cd /tmp/safetx-before && cargo run --release -p safetx-bench --bin runtime_compare -- before)
//! ```
//!
//! Outcome totals (submissions / commits / terminal aborts / exhausted
//! retries) are deterministic under the fixed seed and must be identical
//! across the pair; wall-clock throughput is the measured quantity.
//!
//! The `batching` section sweeps the server-round batch limit
//! (`server_batch` 1 vs 16) with and without a simulated 100 µs physical
//! WAL-sync cost: outcome totals must be identical across the sweep, while
//! `physical_syncs` drops below `forced_logs` under batching and the
//! synced cells show the group-commit throughput win.
//!
//! The `lock_vs_occ` section sweeps the contention knob (how many distinct
//! item slots the workload spreads over, plus an optional hot-key skew
//! that routes every k-th transaction to slot 0) across both concurrency
//! modes. Each cell records throughput and the per-reason transient-abort
//! breakdown, so the crossover — locking wins under heavy write contention
//! (conflicts surface before work is wasted), OCC wins when conflicts are
//! rare (no lock-hold window across the vote round-trip) — is visible in
//! one JSON document.

use safetx_core::{ConcurrencyMode, ConsistencyLevel, ProofScheme, ServerCore};
use safetx_metrics::Json;
use safetx_net::NetCluster;
use safetx_policy::{Atom, Constant, Credential, PolicyBuilder};
use safetx_runtime::{Cluster, ClusterConfig};
use safetx_service::{run_closed_loop, RetryPolicy, RuntimeKind, ServiceConfig, TxnService};
use safetx_store::Value;
use safetx_txn::{Operation, QuerySpec, TransactionSpec};
use safetx_types::{AdminDomain, CaId, DataItemId, PolicyId, ServerId, Timestamp, UserId};
use std::sync::Arc;

const SERVERS: usize = 3;
const CLIENTS: usize = 8;
const PER_CLIENT: usize = 40;
const ITEMS_PER_SERVER: u64 = 64;
const DENY_EVERY: u64 = 8;
const SEED: u64 = 42;

fn build_runtime(
    net: bool,
    proof_cache: bool,
    server_batch: usize,
    wal_sync_cost: Option<std::time::Duration>,
) -> RuntimeKind {
    let config = ClusterConfig {
        servers: SERVERS,
        scheme: ProofScheme::Continuous,
        consistency: ConsistencyLevel::Global,
        server_batch: Some(server_batch),
        wal_sync_cost,
        ..Default::default()
    };
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member), region(U, east).",
        )
        .expect("rules parse")
        .build();
    if net {
        let cluster = NetCluster::new(config);
        cluster.publish_policy(policy);
        for s in 0..SERVERS as u64 {
            cluster.configure_server(ServerId::new(s), |core| seed(core, s, proof_cache));
        }
        RuntimeKind::Net(Arc::new(cluster))
    } else {
        let cluster = Cluster::new(config);
        cluster.publish_policy(policy);
        for s in 0..SERVERS as u64 {
            cluster.configure_server(ServerId::new(s), |core| seed(core, s, proof_cache));
        }
        RuntimeKind::Threaded(Arc::new(cluster))
    }
}

/// Seeds server `s`'s items and sets its proof cache, whichever address
/// type its runtime gives the core.
fn seed<A: Clone>(core: &mut ServerCore<A>, s: u64, proof_cache: bool) {
    core.set_proof_cache(proof_cache);
    for j in 0..ITEMS_PER_SERVER {
        core.store_mut().write(
            DataItemId::new(s * 100 + j),
            Value::Int(10),
            Timestamp::ZERO,
        );
    }
}

/// A four-credential wallet, the shape a real principal carries: the two
/// the policy needs plus two bystanders every proof context still hauls.
fn wallet(runtime: &RuntimeKind) -> Vec<Credential> {
    runtime.cas().with_mut(|registry| {
        let ca = registry.ca_mut(CaId::new(0)).unwrap();
        ["member", "auditor", "oncall", "east"]
            .iter()
            .enumerate()
            .map(|(i, tag)| {
                let predicate = if i == 3 { "region" } else { "role" };
                ca.issue(
                    UserId::new(1),
                    Atom::fact(
                        predicate,
                        vec![Constant::symbol("u1"), Constant::symbol(*tag)],
                    ),
                    Timestamp::ZERO,
                    Timestamp::MAX,
                )
            })
            .collect()
    })
}

fn spec_for(runtime: &RuntimeKind, global_index: u64) -> TransactionSpec {
    let slot = (global_index * 7) % ITEMS_PER_SERVER;
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
    TransactionSpec::new(runtime.next_txn_id(), UserId::new(1), queries)
}

fn run_cell(net: bool, proof_cache: bool, server_batch: usize, sync_cost_us: u64) -> Json {
    let wal_sync_cost = (sync_cost_us > 0).then(|| std::time::Duration::from_micros(sync_cost_us));
    let runtime = build_runtime(net, proof_cache, server_batch, wal_sync_cost);
    let service = TxnService::with_runtime(
        runtime.clone(),
        ServiceConfig {
            workers: CLIENTS,
            queue_depth: 2 * CLIENTS,
            retry: RetryPolicy {
                max_retries: 64,
                base_backoff: std::time::Duration::from_micros(50),
                max_backoff: std::time::Duration::from_millis(2),
                jitter_percent: 50,
                ..RetryPolicy::default()
            },
            seed: SEED,
        },
    );
    let creds = wallet(&runtime);
    let report = run_closed_loop(&service, CLIENTS, PER_CLIENT, |client, index| {
        let g = (client * PER_CLIENT + index) as u64;
        let wallet = if g % DENY_EVERY == DENY_EVERY - 1 {
            vec![]
        } else {
            creds.clone()
        };
        (spec_for(&runtime, g), wallet)
    });
    let stats = service.shutdown();
    assert!(stats.conserves(), "outcome accounting leaked: {stats:?}");
    let throughput = stats.throughput_tps(report.wall);
    Json::object()
        .with("runtime", if net { "net" } else { "threaded" })
        .with("proof_cache", proof_cache)
        .with("server_batch", server_batch)
        .with("wal_sync_cost_us", sync_cost_us)
        .with("scheme", "Continuous")
        .with("consistency", "global")
        .with("servers", SERVERS)
        .with("clients", CLIENTS)
        .with("per_client", PER_CLIENT)
        .with("seed", SEED)
        .with("wall_ms", report.wall.as_secs_f64() * 1_000.0)
        .with("throughput_tps", throughput)
        .with("submissions", stats.submissions)
        .with("commits", stats.commits)
        .with("terminal_aborts", stats.terminal_aborts)
        .with("retries_exhausted", stats.retries_exhausted)
        .with("overload_rejections", stats.overload_rejections)
        .with("forced_logs", stats.wal.forced_logs)
        .with("physical_syncs", stats.wal.physical_syncs)
        .with("frames_sent", stats.transport.frames_sent)
        .with("frames_received", stats.transport.frames_received)
        .with("bytes_sent", stats.transport.bytes_sent)
        .with("bytes_received", stats.transport.bytes_received)
}

/// One contention cell: the threaded runtime in an explicit concurrency
/// mode, all clients armed with full wallets (no policy denials — the
/// measured quantity is pure data contention), spreading writes over
/// `slots` item slots per server. When `hot_every > 0`, every k-th
/// transaction targets slot 0 instead: a hot-key skew.
fn run_contention_cell(mode: ConcurrencyMode, slots: u64, hot_every: u64) -> Json {
    let config = ClusterConfig {
        servers: SERVERS,
        scheme: ProofScheme::Continuous,
        consistency: ConsistencyLevel::Global,
        server_batch: Some(1),
        concurrency: Some(mode),
        ..Default::default()
    };
    let policy = PolicyBuilder::new(PolicyId::new(0), AdminDomain::new(0))
        .rules_text(
            "grant(read, records) :- role(U, member).\n\
             grant(write, records) :- role(U, member), region(U, east).",
        )
        .expect("rules parse")
        .build();
    let cluster = Cluster::new(config);
    cluster.publish_policy(policy);
    for s in 0..SERVERS as u64 {
        cluster.configure_server(ServerId::new(s), |core| seed(core, s, true));
    }
    let runtime = RuntimeKind::Threaded(Arc::new(cluster));
    let service = TxnService::with_runtime(
        runtime.clone(),
        ServiceConfig {
            workers: CLIENTS,
            queue_depth: 2 * CLIENTS,
            retry: RetryPolicy {
                max_retries: 64,
                base_backoff: std::time::Duration::from_micros(50),
                max_backoff: std::time::Duration::from_millis(2),
                jitter_percent: 50,
                ..RetryPolicy::default()
            },
            seed: SEED,
        },
    );
    let creds = wallet(&runtime);
    let report = run_closed_loop(&service, CLIENTS, PER_CLIENT, |client, index| {
        let g = (client * PER_CLIENT + index) as u64;
        let slot = if hot_every > 0 && g.is_multiple_of(hot_every) {
            0
        } else {
            (g * 7) % slots.max(1)
        };
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
        (
            TransactionSpec::new(runtime.next_txn_id(), UserId::new(1), queries),
            creds.clone(),
        )
    });
    let stats = service.shutdown();
    assert!(stats.conserves(), "outcome accounting leaked: {stats:?}");
    let throughput = stats.throughput_tps(report.wall);
    Json::object()
        .with("concurrency", mode.to_string())
        .with("slots", slots)
        .with("hot_every", hot_every)
        .with("servers", SERVERS)
        .with("clients", CLIENTS)
        .with("per_client", PER_CLIENT)
        .with("seed", SEED)
        .with("wall_ms", report.wall.as_secs_f64() * 1_000.0)
        .with("throughput_tps", throughput)
        .with("submissions", stats.submissions)
        .with("commits", stats.commits)
        .with("terminal_aborts", stats.terminal_aborts)
        .with("retries_exhausted", stats.retries_exhausted)
        .with("retry_attempts", stats.retry_attempts)
        .with("retry_lock_conflicts", stats.retry_lock_conflicts)
        .with(
            "retry_validation_conflicts",
            stats.retry_validation_conflicts,
        )
        .with("retry_stale_versions", stats.retry_stale_versions)
        .with("retry_timeouts", stats.retry_timeouts)
}

fn main() {
    let label = std::env::args().nth(1).unwrap_or_else(|| "run".into());
    // Warm-up pass so thread spawn and allocator effects do not land in
    // the measured cells.
    let _ = run_cell(false, true, 1, 0);
    let doc = Json::object()
        .with("label", label)
        .with("cache_on", run_cell(false, true, 1, 0))
        .with("cache_off", run_cell(false, false, 1, 0))
        .with(
            "batching",
            Json::object()
                .with("batch_1", run_cell(false, true, 1, 0))
                .with("batch_16", run_cell(false, true, 16, 0))
                .with("batch_1_synced", run_cell(false, true, 1, 100))
                .with("batch_16_synced", run_cell(false, true, 16, 100)),
        )
        // The wire tax, measured: the same cell on the socket runtime,
        // where every message is encoded, framed and syscalled. Outcome
        // totals must match the threaded rows; throughput is the price of
        // the wire (and the batching rows show coalescing clawing it back).
        .with(
            "net_vs_threaded",
            Json::object()
                .with("threaded_batch_1", run_cell(false, true, 1, 0))
                .with("threaded_batch_16", run_cell(false, true, 16, 0))
                .with("net_batch_1", run_cell(true, true, 1, 0))
                .with("net_batch_16", run_cell(true, true, 16, 0)),
        )
        // The lock-vs-OCC crossover: low contention (64 slots), high
        // contention (4 slots) and a hot-key skew (every 2nd transaction
        // hits slot 0), each in both concurrency modes.
        .with(
            "lock_vs_occ",
            Json::object()
                .with(
                    "low_locking",
                    run_contention_cell(ConcurrencyMode::Locking, 64, 0),
                )
                .with("low_occ", run_contention_cell(ConcurrencyMode::Occ, 64, 0))
                .with(
                    "high_locking",
                    run_contention_cell(ConcurrencyMode::Locking, 4, 0),
                )
                .with("high_occ", run_contention_cell(ConcurrencyMode::Occ, 4, 0))
                .with(
                    "hot_locking",
                    run_contention_cell(ConcurrencyMode::Locking, 64, 2),
                )
                .with("hot_occ", run_contention_cell(ConcurrencyMode::Occ, 64, 2)),
        );
    let text = doc.render();
    std::fs::write("BENCH_runtime.json", &text).expect("write BENCH_runtime.json");
    println!("{text}");
}
