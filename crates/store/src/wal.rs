//! Write-ahead logging.
//!
//! 2PC's resilience "can be achieved … by recording the progress of the
//! protocol in the logs of the TM and participant"; 2PVC additionally
//! force-logs the `(vi, pi)` policy-version tuples with each vote. [`Wal`]
//! models a durable log with the forced/non-forced distinction that the
//! paper's log-complexity metric (`2n + 1` forced writes) counts.
//!
//! Durability model: everything appended before a crash survives it —
//! the simulator never loses log records, it only loses volatile actor
//! state. *Forced* records are counted separately because forcing is the
//! expensive operation in the metric.
//! A log may be truncated at its head ([`Wal::truncate_front_while`]) once
//! its owner has checkpointed what the head records describe.
//!
//! # Logical forces vs physical syncs
//!
//! The paper's `2n + 1` metric counts *logical* forces: how many times the
//! protocol demanded a record be durable before proceeding
//! ([`Wal::forced_count`]). Each force is made durable by one physical
//! device sync before [`Wal::force`] returns ([`Wal::physical_sync_count`],
//! the device's own count, equal to it). An optional per-sync cost
//! ([`Wal::set_sync_cost`]) models the device latency a sync pays. The
//! syncing thread waits it out off the processor, as one blocked in
//! `fsync` does: it sleeps and spins only the stretch a sleep may
//! overshoot by.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One log record with its durability class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalEntry<R> {
    /// The application record.
    pub record: R,
    /// Whether the append was forced (synchronously durable before the
    /// protocol proceeded).
    pub forced: bool,
}

/// A write-ahead log: appended at the tail, truncated at the head.
///
/// # Examples
///
/// ```
/// use safetx_store::Wal;
///
/// let mut wal: Wal<&str> = Wal::new();
/// wal.force("prepared");
/// wal.append("end");
/// assert_eq!(wal.forced_count(), 1);
/// assert_eq!(wal.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Wal<R> {
    entries: VecDeque<WalEntry<R>>,
    forced: u64,
    /// Physical device syncs performed, one per force.
    physical: u64,
    /// Modeled device latency of one physical sync, in nanoseconds.
    sync_cost_nanos: u64,
}

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Wal {
            entries: VecDeque::new(),
            forced: 0,
            physical: 0,
            sync_cost_nanos: 0,
        }
    }
}

impl<R> Wal<R> {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a forced (synchronously durable) record: one physical sync,
    /// performed before this returns, and one more logical force — the
    /// paper's metric.
    pub fn force(&mut self, record: R) {
        self.entries.push_back(WalEntry {
            record,
            forced: true,
        });
        self.forced += 1;
        self.physical += 1;
        if self.sync_cost_nanos > 0 {
            device_wait(Duration::from_nanos(self.sync_cost_nanos));
        }
    }

    /// Sets the modeled device latency of one physical sync. Zero (the
    /// default) makes syncs free, preserving pure-counter behaviour. A
    /// sync blocks its thread for at least `cost`, asleep but for a spun
    /// last stretch; a sleep that wakes late makes it last longer.
    pub fn set_sync_cost(&mut self, cost: Duration) {
        self.sync_cost_nanos = u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
    }

    /// The modeled device latency of one physical sync.
    #[must_use]
    pub fn sync_cost(&self) -> Duration {
        Duration::from_nanos(self.sync_cost_nanos)
    }

    /// Appends a non-forced record (durable eventually; cheap).
    pub fn append(&mut self, record: R) {
        self.entries.push_back(WalEntry {
            record,
            forced: false,
        });
    }

    /// Drops records from the head while `checkpointed` holds, stopping at
    /// the first it must keep: amortised O(1) per append; counts unchanged.
    pub fn truncate_front_while(&mut self, mut checkpointed: impl FnMut(&R) -> bool) {
        while self
            .entries
            .front()
            .is_some_and(|e| checkpointed(&e.record))
        {
            self.entries.pop_front();
        }
    }

    /// All entries still held, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &WalEntry<R>> {
        self.entries.iter()
    }

    /// Iterates over the records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &R> {
        self.entries.iter().map(|e| &e.record)
    }

    /// The most recent record, if any.
    #[must_use]
    pub fn last(&self) -> Option<&R> {
        self.entries.back().map(|e| &e.record)
    }

    /// Number of forced appends so far (the paper's log-complexity metric).
    #[must_use]
    pub fn forced_count(&self) -> u64 {
        self.forced
    }

    /// Number of physical device syncs performed: one per force, so equal
    /// to [`Wal::forced_count`].
    #[must_use]
    pub fn physical_sync_count(&self) -> u64 {
        self.physical
    }

    /// Entries still held (appends minus truncated ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<R: fmt::Display> fmt::Display for Wal<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "{} {}",
                if e.forced { "FORCE" } else { "write" },
                e.record
            )?;
        }
        Ok(())
    }
}

/// Blocks for `cost` the way a thread blocked on a device does: off the
/// processor. It sleeps to the deadline less [`nap_margin`], in slices of
/// at most [`NAP_SLICE`], and spins the rest, so it never returns early; a
/// cost within the margin is spun whole. A sleep can wake late, so a sync
/// can also end late: when the processors are oversubscribed or the host of
/// a virtual machine is busy, by milliseconds now and then.
fn device_wait(cost: Duration) {
    let start = Instant::now();
    let wake = cost.saturating_sub(nap_margin());
    while let Some(nap) = wake.checked_sub(start.elapsed()) {
        std::thread::sleep(nap.min(NAP_SLICE));
    }
    while start.elapsed() < cost {
        std::hint::spin_loop();
    }
}

/// How long before the deadline a sync's nap ends: what a sleep overshoots
/// by, namely the timer slack (the main thread's, which threads inherit; 50 µs
/// where the OS does not say) plus [`WAKE_UP`], at most [`MAX_MARGIN`].
/// Read once per process.
fn nap_margin() -> Duration {
    static MARGIN: OnceLock<Duration> = OnceLock::new();
    *MARGIN.get_or_init(|| {
        let slack = std::fs::read_to_string("/proc/self/timerslack_ns")
            .ok()
            .and_then(|slack| slack.trim().parse().ok())
            .unwrap_or(50_000);
        (Duration::from_nanos(slack) + WAKE_UP).min(MAX_MARGIN)
    })
}

/// What a sleep overshoots by beyond the timer slack: on a 2-vCPU virtual
/// machine, a 44 µs sleep woke 55–59 µs late at the median under a 50 µs
/// slack.
const WAKE_UP: Duration = Duration::from_micros(20);

/// The largest margin: a cost of 100 µs or more always naps.
const MAX_MARGIN: Duration = Duration::from_micros(90);

/// The longest single sleep. On a 2-vCPU virtual machine a sleep of about
/// 1 ms woke 74–87 µs late at the median, with a tail of milliseconds; in
/// slices of 100 µs, 100 syncs of 1 ms took 100.1–112.3 ms, against
/// 100.8–127.7 ms in one sleep each (110 batches each, interleaved).
const NAP_SLICE: Duration = Duration::from_micros(100);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_preserved() {
        let mut wal = Wal::new();
        wal.force(1);
        wal.append(2);
        wal.force(3);
        let recs: Vec<i32> = wal.records().copied().collect();
        assert_eq!(recs, vec![1, 2, 3]);
        assert_eq!(wal.last(), Some(&3));
    }

    #[test]
    fn forced_count_tracks_only_forces() {
        let mut wal = Wal::new();
        for i in 0..5 {
            wal.append(i);
        }
        wal.force(99);
        assert_eq!(wal.forced_count(), 1);
        assert_eq!(wal.len(), 6);
    }

    #[test]
    fn display_marks_durability_class() {
        let mut wal = Wal::new();
        wal.force("prepared");
        wal.append("end");
        let text = wal.to_string();
        assert!(text.contains("FORCE prepared"));
        assert!(text.contains("write end"));
    }

    #[test]
    fn truncation_drops_only_the_checkpointed_head_and_keeps_the_counts() {
        let mut wal = Wal::new();
        for i in 0..6 {
            wal.force(i);
        }
        // Stops at the first record it must keep, even though later ones
        // (4, 5) would pass.
        wal.truncate_front_while(|&r| r != 3);
        assert_eq!(wal.records().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!((wal.forced_count(), wal.physical_sync_count()), (6, 6));
        wal.append(6);
        wal.truncate_front_while(|_| true);
        assert!(wal.is_empty());
        assert_eq!(wal.last(), None);
        assert_eq!(wal.forced_count(), 6);
    }

    #[test]
    fn empty_log_reports_empty() {
        let wal: Wal<u8> = Wal::new();
        assert!(wal.is_empty());
        assert_eq!(wal.last(), None);
    }

    #[test]
    fn every_force_is_one_physical_sync() {
        let mut wal = Wal::new();
        for i in 0..4 {
            wal.force(i);
            assert_eq!(wal.physical_sync_count(), wal.forced_count());
        }
        wal.append(99);
        assert_eq!(wal.forced_count(), 4);
        assert_eq!(wal.physical_sync_count(), 4, "an append syncs nothing");
        let forced: Vec<bool> = wal.entries().map(|e| e.forced).collect();
        assert_eq!(forced, vec![true, true, true, true, false]);
    }

    #[test]
    fn every_physical_sync_lasts_at_least_its_cost() {
        for (micros, syncs) in [(1, 200), (40, 100), (100, 100), (1_000, 10)] {
            let cost = Duration::from_micros(micros);
            let mut wal = Wal::new();
            wal.set_sync_cost(cost);
            assert_eq!(wal.sync_cost(), cost);
            for i in 0..syncs {
                let start = Instant::now();
                wal.force(i);
                let took = start.elapsed();
                assert!(took >= cost, "sync {i} at {cost:?} returned after {took:?}");
            }
            assert_eq!(wal.physical_sync_count(), syncs);
        }
    }

    /// Nanoseconds the calling thread has run on a processor.
    #[cfg(target_os = "linux")]
    fn on_cpu_nanos() -> u128 {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .expect("the thread's schedstat")
            .split_whitespace()
            .next()
            .and_then(|nanos| nanos.parse().ok())
            .expect("run time first in schedstat")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_sync_within_the_margin_runs_for_about_its_cost() {
        // Below the margin a sync is spun whole and does nothing else:
        // 20 000 syncs of 1 µs keep the thread on a processor for about
        // 20 ms (reading the timer slack on every sync made it 51 ms or
        // more). Run
        // time, not wall time: a busy host may take the processor away
        // mid-spin, which stretches the wall time but not the run time.
        let cost = Duration::from_micros(1);
        let mut wal = Wal::new();
        wal.set_sync_cost(cost);
        let before = on_cpu_nanos();
        for i in 0..20_000 {
            wal.force(i);
        }
        let on_cpu = on_cpu_nanos() - before;
        assert!(
            on_cpu < (cost * 20_000 * 2).as_nanos(),
            "20 000 syncs of {cost:?} ran {on_cpu} ns"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_device_sync_waits_off_the_processor() {
        let cost = Duration::from_millis(1);
        let mut wal = Wal::new();
        wal.set_sync_cost(cost);
        let (start, before) = (Instant::now(), on_cpu_nanos());
        for i in 0..100 {
            wal.force(i);
        }
        let (wall, on_cpu) = (start.elapsed(), on_cpu_nanos() - before);
        assert!(
            on_cpu * 4 <= wall.as_nanos(),
            "the syncing thread ran {on_cpu} ns of {wall:?}"
        );
        assert!(
            wall < cost * 100 * 6 / 5,
            "100 syncs of {cost:?} took {wall:?}"
        );
    }
}
