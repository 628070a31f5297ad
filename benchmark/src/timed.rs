//! One timed segment: warm-up load, then a measured window of the same
//! load, observed through `TxnService` completions and the public counters.

use crate::deploy::{on_server, spec_for, Deployment};
use crate::stats::{capped_percentile, median, quartile_spread};
use crate::workloads::{Load, Stream, Workload, SERVERS};
use safetx_core::{trusted, ServerCounters};
use safetx_metrics::TransportCounters;
use safetx_service::{AdmissionError, Completion, RuntimeKind, ServiceStats};
use safetx_types::ServerId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Segments of one run, each on a deployment of its own; a reported value
/// is the median over them.
pub const SEGMENTS: usize = 10;

/// The window is watched in slices of this length: a slice during which the
/// kernel counted time stolen by the hypervisor measured the host, not the
/// program, and is left out of the segment's statistics.
pub const SLICE: Duration = Duration::from_millis(100);

/// With fewer undisturbed slices than this, all of a segment's slices count:
/// two slices are too few to stand for it.
const MIN_CLEAN_SLICES: usize = 3;

/// One completed submission. Times are nanoseconds; `done_ns` counts from
/// the start of the load (warm-up included).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    /// Submission (open loop: due instant) to completion, queueing and
    /// retries included.
    pub latency_ns: u64,
    pub queue_wait_ns: u64,
    pub attempts: u32,
    pub committed: bool,
}

/// Public counters read at one instant.
#[derive(Debug, Clone)]
pub struct Probe {
    pub stats: ServiceStats,
    /// `ServerCore::counters` summed over the servers.
    pub servers: ServerCounters,
    /// `DataPlane::engine_evaluations` summed over the servers.
    pub engine_evals: u64,
}

fn probe(dep: &Deployment) -> Probe {
    let mut servers = ServerCounters::default();
    let mut engine_evals = 0;
    for s in 0..SERVERS {
        let (tx, rx) = mpsc::channel();
        on_server!(dep.runtime(), ServerId::new(s), move |core| {
            let _ = tx.send((core.counters(), core.data_plane().engine_evaluations()));
        });
        let (counters, evals) = rx.recv().expect("server answers the probe");
        servers.proofs += counters.proofs;
        servers.forced_logs += counters.forced_logs;
        servers.physical_syncs += counters.physical_syncs;
        servers.proof_cache.merge(&counters.proof_cache);
        engine_evals += evals;
    }
    Probe {
        stats: dep.service.stats(),
        servers,
        engine_evals,
    }
}

/// Everything one timed segment observed.
pub struct TimedRun {
    pub samples: Vec<Sample>,
    /// Start of the measured window, from the start of the load.
    pub t0_ns: u64,
    /// Per slice of the window, in order: did the kernel count stolen time?
    pub stolen: Vec<bool>,
    /// What the load (warm-up included) added to the process's resident
    /// set, in bytes.
    pub resident_growth: f64,
    /// Commits whose recorded view failed the Definition-4 audit.
    pub untrusted: u64,
    /// Open loop: how late each arrival due inside the window was offered.
    pub late_ns: Vec<u64>,
    /// Counters at the start of the window and after the load drained.
    pub before: Probe,
    pub after: Probe,
    /// Final service statistics, after shutdown.
    pub stats: ServiceStats,
    /// Sum of every item value in every store after the run.
    pub store_sum: i64,
    /// Net transport: `(tm side, server side)` counters summed over edges.
    pub edges: Option<(TransportCounters, TransportCounters)>,
}

/// What one load thread saw complete.
#[derive(Default)]
struct ClientTally {
    samples: Vec<Sample>,
    untrusted: u64,
}

impl ClientTally {
    /// Audits and records one completion. The view is dropped here: kept
    /// for the whole run, the views would be most of the process's memory.
    fn record(
        &mut self,
        dep: &Deployment,
        w: &Workload,
        submit_offset: Duration,
        lateness: Duration,
        done: &Completion,
    ) {
        let committed = done.outcome.is_commit();
        if committed && !trusted::is_trusted(&done.view, w.consistency, dep.runtime().catalog()) {
            self.untrusted += 1;
        }
        self.samples.push(Sample {
            done_ns: (submit_offset + done.latency).as_nanos() as u64,
            latency_ns: (lateness + done.latency).as_nanos() as u64,
            queue_wait_ns: done.queue_wait.as_nanos() as u64,
            attempts: done.attempts,
            committed,
        });
    }
}

fn sleep_until(deadline: Instant) {
    if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// The process's resident set in bytes (`VmRSS` of `/proc/self/status`);
/// NaN where the kernel does not report it.
fn resident_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let rest = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0)
}

/// Jiffies the hypervisor has taken from this guest so far (the `steal`
/// column of `/proc/stat`); 0 where the kernel does not report it.
fn stolen_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Drives `w`'s load against `dep` for `warm + window`, drawing stream
/// positions from `first_position` on, then drains, shuts the service down
/// and audits the stores.
pub fn run(
    dep: Deployment,
    w: &Workload,
    stream: &Stream,
    first_position: u64,
    warm: Duration,
    window: Duration,
) -> TimedRun {
    let resident_before = resident_bytes();
    let origin = Instant::now();
    let next = AtomicU64::new(first_position);
    // Closed loop: clients stop drawing once set. Open loop: arrivals due at
    // or after `end_ns` are not offered.
    let stop = AtomicBool::new(false);
    let end_ns = AtomicU64::new(u64::MAX);
    let (handle_tx, handle_rx) = mpsc::channel();

    let (tallies, late, shed, before, t0_ns, stolen, resident_growth) =
        std::thread::scope(|scope| {
            // The load threads copy these references in.
            let (dep, next, stop, end_ns) = (&dep, &next, &stop, &end_ns);
            let mut clients = Vec::new();
            let mut generator = None;
            match w.load {
                Load::Closed { clients: n } => {
                    drop(handle_tx);
                    for _ in 0..n {
                        clients.push(scope.spawn(move || {
                            let mut tally = ClientTally::default();
                            while !stop.load(Ordering::Acquire) {
                                let draw = stream.draw(next.fetch_add(1, Ordering::Relaxed));
                                if let Some(step) = draw.churn {
                                    dep.churn(step.replica);
                                }
                                let spec = spec_for(dep.runtime().next_txn_id(), &draw);
                                let submit_offset = origin.elapsed();
                                let done = dep
                                    .service
                                    .submit_blocking(spec, dep.wallets[draw.user].clone())
                                    .expect("service is open")
                                    .wait();
                                tally.record(dep, w, submit_offset, Duration::ZERO, &done);
                            }
                            tally
                        }));
                    }
                }
                Load::Open { rate_per_s } => {
                    generator = Some(scope.spawn(move || {
                        let mut late = Vec::new();
                        let mut shed = 0u64;
                        for due_ns in stream.arrivals_ns(rate_per_s, first_position) {
                            if due_ns >= end_ns.load(Ordering::Acquire) {
                                break;
                            }
                            let due = Duration::from_nanos(due_ns);
                            sleep_until(origin + due);
                            let draw = stream.draw(next.fetch_add(1, Ordering::Relaxed));
                            let spec = spec_for(dep.runtime().next_txn_id(), &draw);
                            let submit_offset = origin.elapsed();
                            let lateness = submit_offset.saturating_sub(due);
                            late.push((due_ns, lateness.as_nanos() as u64));
                            match dep.service.try_submit(spec, dep.wallets[draw.user].clone()) {
                                Ok(handle) => handle_tx
                                    .send((handle, submit_offset, lateness))
                                    .expect("collector outlives the generator"),
                                Err(AdmissionError::Overloaded) => shed += 1,
                                Err(AdmissionError::Closed) => unreachable!("service is open"),
                            }
                        }
                        drop(handle_tx);
                        (late, shed)
                    }));
                    clients.push(scope.spawn(move || {
                        let mut tally = ClientTally::default();
                        for (handle, submit_offset, lateness) in handle_rx {
                            let done = handle.wait();
                            tally.record(dep, w, submit_offset, lateness, &done);
                        }
                        tally
                    }));
                }
            }

            // The warm-up is load, not sleep: it leaves the post-idle burst
            // regime and fills the proof cache before the window opens.
            sleep_until(origin + warm);
            let before = probe(dep);
            let t0 = origin.elapsed();
            let slices = (window.as_nanos() / SLICE.as_nanos()).max(1) as u32;
            end_ns.store((t0 + SLICE * slices).as_nanos() as u64, Ordering::Release);
            let mut stolen = Vec::with_capacity(slices as usize);
            let mut jiffies = stolen_jiffies();
            for k in 1..=slices {
                sleep_until(origin + t0 + SLICE * k);
                let now = stolen_jiffies();
                stolen.push(now != jiffies);
                jiffies = now;
            }
            stop.store(true, Ordering::Release);

            let (late, shed) = generator.map_or((Vec::new(), 0), |g| g.join().expect("generator"));
            let tallies: Vec<ClientTally> = clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect();
            // Read before shutdown frees anything: the WAL, the decision log
            // and the proof cache only grow while a deployment lives.
            let resident_growth = resident_bytes() - resident_before;
            (
                tallies,
                late,
                shed,
                before,
                t0.as_nanos() as u64,
                stolen,
                resident_growth,
            )
        });

    let after = probe(&dep);
    let runtime = dep.runtime().clone();
    let stats = dep.service.shutdown();
    assert_eq!(
        stats.overload_rejections, shed,
        "every shed arrival is counted"
    );

    let mut store_sum = 0i64;
    for s in 0..SERVERS {
        let (tx, rx) = mpsc::channel();
        on_server!(&runtime, ServerId::new(s), move |core| {
            let sum: i64 = core
                .store()
                .iter()
                .filter_map(|(_, item)| item.value.as_int())
                .sum();
            let _ = tx.send(sum);
        });
        store_sum += rx.recv().expect("server answers the audit");
    }
    let edges = match &runtime {
        RuntimeKind::Net(cluster) => {
            let mut tm = TransportCounters::default();
            let mut servers = TransportCounters::default();
            for s in 0..SERVERS {
                let (tm_side, server_side) = cluster.edge_counters(ServerId::new(s));
                tm.merge(&tm_side);
                servers.merge(&server_side);
            }
            Some((tm, servers))
        }
        _ => None,
    };

    let late_ns = late
        .into_iter()
        .filter(|&(due_ns, _)| due_ns >= t0_ns)
        .map(|(_, late)| late)
        .collect();
    let mut samples = Vec::new();
    let mut untrusted = 0;
    for tally in tallies {
        samples.extend(tally.samples);
        untrusted += tally.untrusted;
    }
    TimedRun {
        samples,
        t0_ns,
        stolen,
        resident_growth,
        untrusted,
        late_ns,
        before,
        after,
        stats,
        store_sum,
        edges,
    }
}

/// The end-to-end and service-level values of one segment, over the commits
/// that completed in its undisturbed slices.
#[derive(Debug, Clone, Copy)]
pub struct SegmentStats {
    pub commits: usize,
    pub slices: usize,
    pub clean_slices: usize,
    pub commit_tps: f64,
    pub commit_p50_ms: f64,
    pub commit_p95_ms: f64,
    pub commit_p99_ms: f64,
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p95_ms: f64,
    /// Latency minus queue wait of commits that needed one attempt.
    pub execute_p50_ms: f64,
    /// The percentiles the sample count supported for the p95 / p99 values.
    pub p95_used: f64,
    pub p99_used: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Which slices count: the undisturbed ones, or all when too few are.
fn counted_slices(stolen: &[bool]) -> Vec<bool> {
    let clean = stolen.iter().filter(|&&s| !s).count();
    if clean < MIN_CLEAN_SLICES {
        vec![true; stolen.len()]
    } else {
        stolen.iter().map(|&s| !s).collect()
    }
}

impl SegmentStats {
    /// `stolen` marks, per slice of the window that opened at `t0_ns`,
    /// whether the kernel counted stolen time.
    pub fn of(samples: &[Sample], t0_ns: u64, stolen: &[bool]) -> SegmentStats {
        let counted = counted_slices(stolen);
        let clean_slices = stolen.iter().filter(|&&s| !s).count();
        let slice_ns = SLICE.as_nanos() as u64;
        let commits: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.committed && s.done_ns >= t0_ns)
            .filter(|s| {
                let slice = ((s.done_ns - t0_ns) / slice_ns) as usize;
                counted.get(slice).copied().unwrap_or(false)
            })
            .collect();
        let counted_s = counted.iter().filter(|&&c| c).count() as f64 * SLICE.as_secs_f64();
        let mut latency: Vec<f64> = commits.iter().map(|s| ms(s.latency_ns)).collect();
        let mut wait: Vec<f64> = commits.iter().map(|s| ms(s.queue_wait_ns)).collect();
        let mut execute: Vec<f64> = commits
            .iter()
            .filter(|s| s.attempts == 1)
            .map(|s| ms(s.latency_ns.saturating_sub(s.queue_wait_ns)))
            .collect();
        let at = |samples: &mut [f64], asked: f64| {
            capped_percentile(samples, asked).unwrap_or((f64::NAN, asked))
        };
        let (commit_p95_ms, p95_used) = at(&mut latency, 95.0);
        let (commit_p99_ms, p99_used) = at(&mut latency, 99.0);
        SegmentStats {
            commits: commits.len(),
            slices: stolen.len(),
            clean_slices,
            commit_tps: commits.len() as f64 / counted_s,
            commit_p50_ms: at(&mut latency, 50.0).0,
            commit_p95_ms,
            commit_p99_ms,
            queue_wait_p50_ms: at(&mut wait, 50.0).0,
            queue_wait_p95_ms: at(&mut wait, 95.0).0,
            execute_p50_ms: at(&mut execute, 50.0).0,
            p95_used,
            p99_used,
        }
    }
}

/// One column of the segments, in order.
pub fn column(segments: &[SegmentStats], f: impl Fn(&SegmentStats) -> f64) -> Vec<f64> {
    segments.iter().map(f).collect()
}

/// Median over segments; NaN when there are none.
pub fn mid(column: &[f64]) -> f64 {
    median(column).unwrap_or(f64::NAN)
}

/// How far the segments disagree: the distance between the quartiles as a
/// share of the median, of whichever of throughput, median and tail latency
/// disagrees most (an open loop's throughput is its offered rate and never
/// disagrees; its tail does).
pub fn segment_spread(segments: &[SegmentStats]) -> f64 {
    let of = |f: fn(&SegmentStats) -> f64| {
        quartile_spread(&column(segments, f)).unwrap_or(f64::INFINITY)
    };
    of(|s| s.commit_tps)
        .max(of(|s| s.commit_p50_ms))
        .max(of(|s| s.commit_p95_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(done_ms: u64, latency_ms: u64) -> Sample {
        Sample {
            done_ns: done_ms * 1_000_000,
            latency_ns: latency_ms * 1_000_000,
            queue_wait_ns: 0,
            attempts: 1,
            committed: true,
        }
    }

    #[test]
    fn a_segment_counts_only_commits_of_undisturbed_window_slices() {
        // Window opens at 1 s; four 100 ms slices, the second stolen.
        let samples = [
            commit(950, 1),   // warm-up
            commit(1_010, 2), // slice 0
            commit(1_090, 2), // slice 0
            commit(1_150, 9), // slice 1, stolen
            commit(1_250, 4), // slice 2
            commit(1_399, 4), // slice 3
            commit(1_400, 7), // past the window
            Sample {
                committed: false,
                ..commit(1_020, 50)
            },
        ];
        let stats = SegmentStats::of(&samples, 1_000_000_000, &[false, true, false, false]);
        assert_eq!(stats.commits, 4);
        assert_eq!((stats.slices, stats.clean_slices), (4, 3));
        assert!((stats.commit_tps - 4.0 / 0.3).abs() < 1e-9);
        assert_eq!(stats.commit_p50_ms, 2.0);
        assert_eq!(
            stats.commit_p95_ms, 2.0,
            "four samples support the median only"
        );
        assert_eq!(stats.p95_used, 50.0);
    }

    #[test]
    fn stolen_slices_are_left_out_unless_too_few_remain() {
        assert_eq!(
            counted_slices(&[false, true, false, false, true]),
            vec![true, false, true, true, false]
        );
        // Two undisturbed slices are too few to stand for a segment.
        assert_eq!(
            counted_slices(&[true, false, true, false, true]),
            vec![true; 5]
        );
    }
}
