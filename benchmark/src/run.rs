//! One run of one workload: set-up, warm-up, the timed window, the traced
//! replay, the output checks, and the result the contract asks for.

use crate::deploy::{seeded_sum, set_up};
use crate::inline::{replay, Replay};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::span::{self_time_by_name, self_times_ns, to_json as spans_to_json};
use crate::stats::{capped_percentile, median};
use crate::timed::{column, mid, segment_spread, SegmentStats, TimedRun, SEGMENTS};
use crate::workloads::{self, Load, Stream, Transport, Workload, SERVERS};
use crate::{micro, timed, Args};
use safetx_core::{ConsistencyLevel, ProofScheme};
use safetx_metrics::{Json, TransportCounters};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Load offered before the first segment's window opens. Measured on this
/// host: the first second of load after idle runs three times faster than
/// steady state, so the warm-up is the same load, not a sleep.
const FIRST_WARM_UP: Duration = Duration::from_secs(3);

/// Load offered before every later segment's window: the host is already
/// out of its burst; this fills the new deployment's proof cache and lets
/// its threads settle.
const WARM_UP: Duration = Duration::from_millis(500);

/// Deployments built per segment: the last one is measured, every one is
/// timed from nothing to ready for its first submission, so `setup_s` is the
/// median of thirty. The first is timed from the start of the process.
const SET_UPS_PER_SEGMENT: usize = 3;

/// Segment `k` draws stream positions from `k * SEGMENT_STRIDE` on, so its
/// inputs do not depend on how far the segment before it got.
const SEGMENT_STRIDE: u64 = 1_000_000;

/// Transactions of the stream the traced replay covers.
const REPLAY_TXNS: u64 = 2_000;

/// `--smoke` divides every size by this.
const SMOKE_DIVISOR: u32 = 20;

/// Per-layer metric → the spans whose self time it reports.
const SPAN_METRICS: [(&str, &[&str]); 9] = [
    ("core.tm_step_us", &["tm.start", "tm.step"]),
    ("core.server_exec_query_us", &["server.exec_query"]),
    ("core.server_validate_us", &["server.validate"]),
    ("core.server_prepare_commit_us", &["server.prepare_commit"]),
    ("core.server_decision_us", &["server.decision"]),
    ("core.master_lookup_us", &["master.lookup"]),
    ("store.decision_force_us", &["decision.force"]),
    ("net.encode_us_per_txn", &["net.encode"]),
    ("net.decode_us_per_txn", &["net.decode"]),
];

/// The root span of a transaction; its self time is the harness's own
/// routing, in no layer.
const ROOT_SPAN: &str = "txn";

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Also replay the head of the stream with spans, time the single-call
    /// loops, and print the per-layer metrics in place of the end-to-end
    /// ones. The detail file holds whatever was measured either way.
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// When the process entered `main`.
    pub process_start: Instant,
}

/// One output check: its name, whether it held, and what was seen.
struct Check {
    name: &'static str,
    ok: bool,
    seen: String,
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, seen: String) {
    checks.push(Check { name, ok, seen });
}

/// Exact protocol cost of one clean commit with `n` participants and `u`
/// queries — Table I with one voting round and no stale replica: messages,
/// proofs, forced log writes (2n + 1 for every scheme). Only the cells a
/// workload without policy churn runs in are tabled.
fn table_one(
    scheme: ProofScheme,
    level: ConsistencyLevel,
    n: u64,
    u: u64,
) -> Option<(u64, u64, u64)> {
    let logs = 2 * n + 1;
    match (scheme, level) {
        // Prepare + vote, decision + ack; proofs once, at commit.
        (ProofScheme::Deferred, ConsistencyLevel::View) => Some((4 * n, u, logs)),
        // 2PV before query i reaches i servers both ways, plus one master
        // retrieval per 2PV and one at commit.
        (ProofScheme::Continuous, ConsistencyLevel::Global) => {
            Some((u * (u + 1) + u + 4 * n + 1, u * (u + 1) / 2 + u, logs))
        }
        _ => None,
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

struct Measured {
    values: Vec<(&'static str, f64)>,
}

impl Measured {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The contract's `metrics` object for one registry list.
    fn object(&self, registry: &[Metric]) -> Json {
        let mut out = Json::object();
        for metric in registry {
            let value = self
                .get(metric.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", metric.name));
            out = out.with(
                metric.name,
                Json::object()
                    .with("value", value)
                    .with("unit", metric.unit),
            );
        }
        out
    }
}

/// What the segments of one run add up to: the outputs the checks look at,
/// and the counter movement inside the measured windows.
#[derive(Default)]
struct Totals {
    submissions: u64,
    commits: u64,
    /// Segments whose `ServiceStats::conserves()` failed.
    leaking_segments: u64,
    untrusted: u64,
    store_sum: i64,
    store_expected: i64,
    shed: u64,
    /// Net transport: `(tm side, server side)` counters summed over edges.
    edges: Option<(TransportCounters, TransportCounters)>,
    window: Window,
    late_ms: Vec<f64>,
}

/// Counter deltas between the probe at a window's start and the probe after
/// the segment drained, summed over segments.
#[derive(Default)]
struct Window {
    commits: u64,
    retry_attempts: u64,
    retry_lock_conflicts: u64,
    retry_stale_versions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_invalidations: u64,
    engine_evals: u64,
    forced_logs: u64,
    physical_syncs: u64,
    frames: u64,
    bytes: u64,
}

impl Totals {
    fn add(&mut self, w: &Workload, run: &TimedRun) {
        let stats = &run.stats;
        self.submissions += stats.submissions;
        self.commits += stats.commits;
        self.leaking_segments += u64::from(!stats.conserves());
        self.untrusted += run.untrusted;
        self.store_sum += run.store_sum;
        self.store_expected += seeded_sum(w) + (SERVERS * stats.commits) as i64;
        self.shed += stats.overload_rejections;
        if let Some((tm, servers)) = &run.edges {
            let sums = self.edges.get_or_insert_with(Default::default);
            sums.0.merge(tm);
            sums.1.merge(servers);
        }
        let (a, b) = (&run.before, &run.after);
        let win = &mut self.window;
        win.commits += b.stats.commits - a.stats.commits;
        win.retry_attempts += b.stats.retry_attempts - a.stats.retry_attempts;
        win.retry_lock_conflicts += b.stats.retry_lock_conflicts - a.stats.retry_lock_conflicts;
        win.retry_stale_versions += b.stats.retry_stale_versions - a.stats.retry_stale_versions;
        win.cache_hits += b.servers.proof_cache.hits - a.servers.proof_cache.hits;
        win.cache_misses += b.servers.proof_cache.misses - a.servers.proof_cache.misses;
        win.cache_invalidations +=
            b.servers.proof_cache.invalidations - a.servers.proof_cache.invalidations;
        win.engine_evals += b.engine_evals - a.engine_evals;
        win.forced_logs += b.stats.wal.forced_logs - a.stats.wal.forced_logs;
        win.physical_syncs += b.stats.wal.physical_syncs - a.stats.wal.physical_syncs;
        win.frames += b.stats.transport.frames_sent - a.stats.transport.frames_sent;
        win.bytes += b.stats.transport.bytes_sent - a.stats.transport.bytes_sent;
        self.late_ms
            .extend(run.late_ns.iter().map(|&ns| ns as f64 / 1e6));
    }
}

/// Runs the workload and returns `(process exit code, contract line)`.
pub fn execute(opts: &Options) -> (ExitCode, Json) {
    let w = opts.workload;
    let divisor = if opts.smoke { SMOKE_DIVISOR } else { 1 };
    let window = Duration::from_secs_f64(opts.seconds) / divisor / SEGMENTS as u32;
    // Each segment runs on a deployment of its own: the set-ups give
    // `setup_s` a median, and whatever a deployment settles into for a
    // while (which threads share a processor, where the heap landed) is
    // drawn once per segment instead of once per run.
    let mut set_up_times = Vec::new();
    let mut segments = Vec::new();
    let mut totals = Totals::default();
    let mut rss_bytes_per_commit = f64::NAN;
    let mut first_clock = Some(opts.process_start);
    for k in 0..SEGMENTS {
        let warm = if k == 0 { FIRST_WARM_UP } else { WARM_UP } / divisor;
        let queue_depth = match w.load {
            Load::Closed { .. } => 0,
            // Deeper than every arrival of the segment, so nothing is shed.
            Load::Open { rate_per_s } => {
                (rate_per_s * (warm + window).as_secs_f64() * 1.5) as usize + 64
            }
        };
        // What a process does before it can submit its first transaction:
        // the seeded stream, then cluster, policy, items, wallets, service.
        let mut ready = None;
        for _ in 0..SET_UPS_PER_SEGMENT {
            drop(ready.take());
            let started = first_clock.take().unwrap_or_else(Instant::now);
            let stream = Stream::new(w, opts.seed);
            let deployment = set_up(w, opts.seed, queue_depth);
            set_up_times.push(started.elapsed().as_secs_f64());
            ready = Some((stream, deployment));
        }
        let (stream, deployment) = ready.expect("at least one set-up");
        let first_position = k as u64 * SEGMENT_STRIDE;
        let run = timed::run(deployment, w, &stream, first_position, warm, window);
        segments.push(SegmentStats::of(&run.samples, run.t0_ns, &run.stolen));
        totals.add(w, &run);
        if k == 0 {
            // The WAL, the decision log and the proof cache are in memory
            // and unbounded, so a deployment's memory grows with the work
            // it has done. A peak in megabytes would rise with every
            // throughput gain; growth per transaction does not. Only the
            // first deployment counts: later ones grow into what the
            // allocator kept from it.
            rss_bytes_per_commit = run.resident_growth / run.stats.submissions as f64;
        }
    }
    let mut m = Measured { values: Vec::new() };
    let mut checks = Vec::new();
    m.set("commit_tps", mid(&column(&segments, |s| s.commit_tps)));
    m.set(
        "commit_p50_ms",
        mid(&column(&segments, |s| s.commit_p50_ms)),
    );
    m.set(
        "commit_p95_ms",
        mid(&column(&segments, |s| s.commit_p95_ms)),
    );
    m.set("rss_bytes_per_commit", rss_bytes_per_commit);
    m.set(
        "setup_s",
        median(&set_up_times).expect("at least one set-up"),
    );
    timed_checks(&mut checks, w, &totals);
    let mut detail = Json::object();
    if opts.trace {
        timed_layers(&mut m, &totals, &segments);
        let scale = divisor as usize;
        let txns = (REPLAY_TXNS / u64::from(divisor)).max(50);
        let stream = Stream::new(w, opts.seed);
        let plain = replay(w, &stream, txns, false);
        let traced = replay(w, &stream, txns, true);
        replay_layers(&mut m, &mut checks, w, &plain, &traced);
        for (name, value) in micro::single_calls(scale) {
            m.set(name, value);
        }
        m.set(
            "host.nproc",
            std::thread::available_parallelism().map_or(1, usize::from) as f64,
        );
        m.set("host.spin_ms", micro::spin_ms());
        write_json(
            &opts.out_dir.join(format!("trace_{}.json", w.name)),
            &spans_to_json(&traced.spans),
        );
        detail = detail.with(
            "hop_model",
            hop_model(&m, w, traced.routed as f64 / txns as f64),
        );
    }

    let attempted = totals.submissions;
    let failed = attempted - totals.commits;
    let correct = checks.iter().all(|c| c.ok);

    // The contract's line: one list or the other.
    let printed: &[Metric] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for metric in printed {
        let value = m.get(metric.name).expect("measured above");
        println!(
            "{:<46} {:>16.6} {:<6} ({} is better)",
            metric.name,
            value,
            metric.unit,
            metric.better.as_str()
        );
    }
    for c in &checks {
        println!(
            "check {:<40} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.seen
        );
    }

    let line = Json::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", m.object(printed));
    // The detail file: everything this run measured.
    let measured: Vec<Metric> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter().filter(|_| opts.trace))
        .copied()
        .collect();

    let numbers = |values: Vec<f64>| Json::Arr(values.into_iter().map(Json::from).collect());
    detail = detail
        .with("workload", w.name)
        .with("seed", opts.seed)
        .with("segment_seconds", window.as_secs_f64())
        .with("smoke", opts.smoke)
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("failed_share", ratio(failed, attempted))
        .with("metrics", m.object(&measured))
        .with(
            "segments",
            Json::object()
                .with("commits", numbers(column(&segments, |s| s.commits as f64)))
                .with("slices", numbers(column(&segments, |s| s.slices as f64)))
                .with(
                    "clean_slices",
                    numbers(column(&segments, |s| s.clean_slices as f64)),
                )
                .with("commit_tps", numbers(column(&segments, |s| s.commit_tps)))
                .with(
                    "commit_p50_ms",
                    numbers(column(&segments, |s| s.commit_p50_ms)),
                )
                .with(
                    "commit_p95_ms",
                    numbers(column(&segments, |s| s.commit_p95_ms)),
                )
                .with(
                    "p95_percentile_used",
                    column(&segments, |s| s.p95_used)
                        .into_iter()
                        .fold(95.0, f64::min),
                )
                .with(
                    "p99_percentile_used",
                    column(&segments, |s| s.p99_used)
                        .into_iter()
                        .fold(99.0, f64::min),
                )
                .with("segment_spread", segment_spread(&segments)),
        )
        .with("set_up_s", numbers(set_up_times))
        .with(
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::object()
                            .with("name", c.name)
                            .with("ok", c.ok)
                            .with("seen", c.seen.as_str())
                    })
                    .collect(),
            ),
        );
    write_json(&opts.out_dir.join(format!("run_{}.json", w.name)), &detail);

    let code = if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    (code, line)
}

fn write_json(path: &Path, doc: &Json) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Checks on what the timed segments produced.
fn timed_checks(checks: &mut Vec<Check>, w: &Workload, t: &Totals) {
    check(
        checks,
        "service_stats_conserve",
        t.leaking_segments == 0,
        format!("{} segments leak outcomes", t.leaking_segments),
    );
    check(
        checks,
        "every_submission_commits",
        t.commits == t.submissions && t.submissions > 0,
        format!("{} of {}", t.commits, t.submissions),
    );
    check(
        checks,
        "every_commit_is_trusted",
        t.untrusted == 0,
        format!("{} untrusted views", t.untrusted),
    );
    check(
        checks,
        "stores_sum_to_seed_plus_commits",
        t.store_sum == t.store_expected,
        format!("{} against {}", t.store_sum, t.store_expected),
    );
    if let Some((tm, servers)) = &t.edges {
        check(
            checks,
            "net_frames_sent_equal_received",
            tm.frames_sent == servers.frames_received
                && servers.frames_sent == tm.frames_received
                && tm.frames_sent > 0,
            format!(
                "tm {}/{} servers {}/{}",
                tm.frames_sent, tm.frames_received, servers.frames_sent, servers.frames_received
            ),
        );
        let decode_errors = tm.decode_errors + servers.decode_errors;
        check(
            checks,
            "net_decode_errors_zero",
            decode_errors == 0,
            format!("{decode_errors}"),
        );
    }
    if matches!(w.load, Load::Open { .. }) {
        check(
            checks,
            "open_loop_sheds_nothing",
            t.shed == 0,
            format!("{} shed", t.shed),
        );
    }
}

/// Per-layer metrics from the public counters of the measured windows.
fn timed_layers(m: &mut Measured, t: &Totals, segments: &[SegmentStats]) {
    let win = &t.window;
    let per_commit = |count: u64| ratio(count, win.commits);
    m.set(
        "service.queue_wait_p50_ms",
        mid(&column(segments, |s| s.queue_wait_p50_ms)),
    );
    m.set(
        "service.queue_wait_p95_ms",
        mid(&column(segments, |s| s.queue_wait_p95_ms)),
    );
    m.set(
        "service.attempts_per_commit",
        1.0 + per_commit(win.retry_attempts),
    );
    m.set(
        "service.retry_lock_conflicts_per_commit",
        per_commit(win.retry_lock_conflicts),
    );
    m.set(
        "service.retry_stale_versions_per_commit",
        per_commit(win.retry_stale_versions),
    );
    m.set(
        "service.commit_p99_ms",
        mid(&column(segments, |s| s.commit_p99_ms)),
    );
    m.set(
        "runtime.execute_p50_ms",
        mid(&column(segments, |s| s.execute_p50_ms)),
    );
    m.set(
        "core.proof_cache_hit_ratio",
        ratio(win.cache_hits, win.cache_hits + win.cache_misses),
    );
    m.set(
        "core.proof_cache_invalidations_per_kcommit",
        1_000.0 * per_commit(win.cache_invalidations),
    );
    m.set("core.engine_evals_per_commit", per_commit(win.engine_evals));
    m.set("store.forced_logs_per_commit", per_commit(win.forced_logs));
    m.set(
        "store.physical_syncs_per_commit",
        per_commit(win.physical_syncs),
    );
    m.set("net.frames_per_commit", per_commit(win.frames));
    m.set("net.bytes_per_commit", per_commit(win.bytes));
    m.set("harness.segment_spread", segment_spread(segments));
    let slices: usize = segments.iter().map(|s| s.slices).sum();
    let clean: usize = segments.iter().map(|s| s.clean_slices).sum();
    m.set(
        "harness.clean_slice_share",
        ratio(clean as u64, slices as u64),
    );
    let mut late = t.late_ms.clone();
    m.set(
        "harness.generator_late_p95_ms",
        capped_percentile(&mut late, 95.0).map_or(0.0, |(value, _)| value),
    );
}

/// Per-layer metrics and checks from the two replays (spans off, then on).
fn replay_layers(
    m: &mut Measured,
    checks: &mut Vec<Check>,
    w: &Workload,
    plain: &Replay,
    traced: &Replay,
) {
    let txns = traced.txns as f64;
    let by_name = self_time_by_name(&traced.spans);
    let mut cpu_us = 0.0;
    for (metric, spans) in SPAN_METRICS {
        let ns: u64 = spans.iter().filter_map(|span| by_name.get(span)).sum();
        let us = ns as f64 / 1e3 / txns;
        m.set(metric, us);
        cpu_us += us;
    }
    m.set("core.messages_per_txn", traced.messages as f64 / txns);
    m.set("core.proofs_per_txn", traced.proofs as f64 / txns);
    m.set("core.rounds_per_txn", traced.rounds as f64 / txns);
    m.set("core.forced_logs_per_txn", traced.forced_logs as f64 / txns);
    m.set("net.wire_bytes_per_txn", traced.wire_bytes as f64 / txns);
    m.set("inline.cpu_us_per_txn", cpu_us);
    // The device wait the workload models, summed over the servers; they
    // pay it in parallel, so a commit's critical path holds a third of it.
    let sync_cost_us = w.wal_sync_cost.map_or(0.0, |cost| cost.as_secs_f64() * 1e6);
    m.set(
        "store.wal_sync_wait_us_per_txn",
        sync_cost_us * traced.physical_syncs as f64 / txns,
    );
    // Time in no layer's code: channel or socket transit, wake-ups,
    // scheduling, the data-plane worker hand-off, and that device wait.
    let p50_us = m.get("commit_p50_ms").expect("end-to-end first") * 1e3;
    m.set("runtime.hop_wait_us_per_txn", p50_us - cpu_us);
    m.set(
        "harness.trace_overhead_pct",
        100.0 * (traced.wall.as_secs_f64() - plain.wall.as_secs_f64()) / plain.wall.as_secs_f64(),
    );

    check(
        checks,
        "replay_commits_every_transaction",
        traced.commits == traced.txns && plain.commits == plain.txns,
        format!(
            "{} and {} of {}",
            plain.commits, traced.commits, traced.txns
        ),
    );
    let expected_sum = seeded_sum(w) + (SERVERS * traced.commits) as i64;
    check(
        checks,
        "replay_stores_sum_to_seed_plus_commits",
        traced.store_sum == expected_sum && plain.store_sum == expected_sum,
        format!("{} against {expected_sum}", traced.store_sum),
    );
    let counts = |r: &Replay| {
        (
            r.messages,
            r.proofs,
            r.rounds,
            r.forced_logs,
            r.physical_syncs,
            r.wire_bytes,
        )
    };
    check(
        checks,
        "replay_counts_repeat_exactly",
        counts(plain) == counts(traced),
        format!("{:?} and {:?}", counts(plain), counts(traced)),
    );
    check(
        checks,
        "harness_counts_equal_tm_core_accounting",
        traced.messages == traced.core_messages && traced.proofs == traced.core_proofs,
        format!(
            "messages {} against {}, proofs {} against {}",
            traced.messages, traced.core_messages, traced.proofs, traced.core_proofs
        ),
    );
    if !w.churns() {
        let (messages, proofs, logs) = table_one(w.scheme, w.consistency, SERVERS, SERVERS)
            .expect("workload schemes are tabled");
        let seen = (traced.messages, traced.proofs, traced.forced_logs);
        let want = (
            messages * traced.txns,
            proofs * traced.txns,
            logs * traced.txns,
        );
        check(
            checks,
            "replay_counts_equal_table_one",
            seen == want,
            format!("{seen:?} against {want:?} (messages, proofs, forced logs)"),
        );
    }
    // Every span outside the root is attributed to a named metric, and the
    // named metrics add up to the self times the tree gives.
    let own = self_times_ns(&traced.spans);
    let outside_root: u64 = traced
        .spans
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.name != ROOT_SPAN)
        .map(|(_, &ns)| ns)
        .sum();
    let attributed = cpu_us * txns * 1e3;
    let unattributed = by_name.get(ROOT_SPAN).copied().unwrap_or(0) as f64 / 1e3 / txns;
    check(
        checks,
        "span_self_times_sum_to_inline_cpu",
        (outside_root as f64 - attributed).abs() <= 0.02 * attributed,
        format!(
            "{:.2} us/txn in spans, {:.2} us/txn attributed, {:.2} us/txn harness routing",
            outside_root as f64 / 1e3 / txns,
            cpu_us,
            unattributed
        ),
    );
}

/// The hop model next to what the timed run left unexplained: messages that
/// cross a thread boundary, times the measured cost of one crossing. Sends
/// to several servers overlap, so the product is a ceiling on the hops'
/// share of the critical path, not an estimate of it.
fn hop_model(m: &Measured, w: &Workload, routed_per_txn: f64) -> Json {
    let get = |name: &str| m.get(name).expect("measured above");
    let hop_us = match w.transport {
        Transport::Threaded => get("runtime.channel_hop_us"),
        Transport::Net => get("net.socket_hop_us"),
    };
    Json::object()
        .with("commit_p50_us", get("commit_p50_ms") * 1e3)
        .with("inline_cpu_us_per_txn", get("inline.cpu_us_per_txn"))
        .with("hop_wait_us_per_txn", get("runtime.hop_wait_us_per_txn"))
        .with("routed_messages_per_txn", routed_per_txn)
        .with("hop_us", hop_us)
        .with("routed_messages_times_hop_us", routed_per_txn * hop_us)
}

pub fn command(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SAFETX_"))
    {
        return Err(format!(
            "{} is set: the benchmark measures the defaults, unset every SAFETX_* variable",
            name.to_string_lossy()
        ));
    }
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: must be in (0, 600]"));
    }
    let trace = match args.value("--trace").ok_or("--trace is required")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    let opts = Options {
        workload,
        seed: args.parsed("--seed")?.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke: args.has("--smoke"),
        out_dir: PathBuf::from(args.value("--out-dir").unwrap_or("benchmark/out")),
        process_start,
    };
    let (code, line) = execute(&opts);
    println!("{}", line.render());
    Ok(code)
}
