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
//! protocol demanded a record be durable before proceeding. A real log
//! device amortizes those demands with **group commit**: every force issued
//! inside a [`Wal::begin_group`]/[`Wal::end_group`] window is made durable
//! by a single physical sync at the end of the window. [`Wal::forced_count`]
//! keeps the paper's per-transaction accounting byte-identical whether or
//! not grouping is active; [`Wal::physical_sync_count`] counts the actual
//! device syncs the amortization saves. An optional per-sync cost
//! ([`Wal::set_sync_cost`]) models the device latency a sync pays, so
//! benchmarks can show the wall-clock effect of coalescing.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

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
    /// Physical device syncs performed (≤ `forced`; strictly fewer when
    /// group commit coalesced forces).
    physical: u64,
    /// Open `begin_group` windows (nesting supported; only the outermost
    /// `end_group` syncs).
    group_depth: u32,
    /// A force happened inside the current group window and its sync is
    /// still owed.
    pending_sync: bool,
    /// Modeled device latency of one physical sync, in nanoseconds.
    sync_cost_nanos: u64,
}

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Wal {
            entries: VecDeque::new(),
            forced: 0,
            physical: 0,
            group_depth: 0,
            pending_sync: false,
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

    /// Appends a forced (synchronously durable) record. Outside a group
    /// window the sync happens immediately (one physical sync per force,
    /// the classic behaviour); inside a window the sync is deferred to
    /// [`Wal::end_group`]. Either way the logical force count — the
    /// paper's metric — advances by exactly one.
    pub fn force(&mut self, record: R) {
        self.entries.push_back(WalEntry {
            record,
            forced: true,
        });
        self.forced += 1;
        if self.group_depth > 0 {
            self.pending_sync = true;
        } else {
            self.physical_sync();
        }
    }

    /// Opens a group-commit window: forces issued until the matching
    /// [`Wal::end_group`] share one physical sync. Windows nest; only the
    /// outermost close syncs.
    pub fn begin_group(&mut self) {
        self.group_depth += 1;
    }

    /// Closes a group-commit window. Closing the outermost window performs
    /// one physical sync covering every force issued inside it (none if no
    /// force happened). Records forced in the window are durable once this
    /// returns — callers must not release replies that depend on those
    /// forces before calling it.
    pub fn end_group(&mut self) {
        debug_assert!(self.group_depth > 0, "end_group without begin_group");
        self.group_depth = self.group_depth.saturating_sub(1);
        if self.group_depth == 0 && self.pending_sync {
            self.pending_sync = false;
            self.physical_sync();
        }
    }

    /// Sets the modeled device latency of one physical sync. Zero (the
    /// default) makes syncs free, preserving pure-counter behaviour.
    pub fn set_sync_cost(&mut self, cost: std::time::Duration) {
        self.sync_cost_nanos = u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
    }

    /// The modeled device latency of one physical sync.
    #[must_use]
    pub fn sync_cost(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.sync_cost_nanos)
    }

    /// One physical device sync: pays the modeled latency and counts it.
    fn physical_sync(&mut self) {
        self.physical += 1;
        if self.sync_cost_nanos > 0 {
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_nanos(self.sync_cost_nanos);
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
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
    /// Unaffected by group commit: a coalesced force still counts.
    #[must_use]
    pub fn forced_count(&self) -> u64 {
        self.forced
    }

    /// Number of physical device syncs performed. Equals
    /// [`Wal::forced_count`] without group commit; strictly smaller when
    /// any group window coalesced two or more forces.
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
    fn ungrouped_forces_sync_one_to_one() {
        let mut wal = Wal::new();
        for i in 0..4 {
            wal.force(i);
        }
        wal.append(99);
        assert_eq!(wal.forced_count(), 4);
        assert_eq!(wal.physical_sync_count(), 4, "no group: one sync per force");
    }

    #[test]
    fn group_commit_coalesces_physical_syncs_without_touching_logical_count() {
        let mut wal = Wal::new();
        wal.force(0); // classic force before the window
        wal.begin_group();
        wal.force(1);
        wal.append(2);
        wal.force(3);
        wal.force(4);
        // Nothing synced yet: the window is still open.
        assert_eq!(wal.physical_sync_count(), 1);
        wal.end_group();
        assert_eq!(
            wal.forced_count(),
            4,
            "logical metric unchanged by grouping"
        );
        assert_eq!(
            wal.physical_sync_count(),
            2,
            "three grouped forces, one sync"
        );
        // Entry durability classes are untouched.
        let forced: Vec<bool> = wal.entries().map(|e| e.forced).collect();
        assert_eq!(forced, vec![true, true, false, true, true]);
    }

    #[test]
    fn empty_group_performs_no_sync() {
        let mut wal: Wal<u8> = Wal::new();
        wal.begin_group();
        wal.append(1);
        wal.end_group();
        assert_eq!(wal.forced_count(), 0);
        assert_eq!(wal.physical_sync_count(), 0);
    }

    #[test]
    fn nested_groups_sync_once_at_the_outermost_close() {
        let mut wal = Wal::new();
        wal.begin_group();
        wal.force(1);
        wal.begin_group();
        wal.force(2);
        wal.end_group();
        assert_eq!(wal.physical_sync_count(), 0, "inner close must not sync");
        wal.end_group();
        assert_eq!(wal.forced_count(), 2);
        assert_eq!(wal.physical_sync_count(), 1);
    }

    #[test]
    fn sync_cost_is_paid_per_physical_sync() {
        let mut wal = Wal::new();
        wal.set_sync_cost(std::time::Duration::from_micros(200));
        assert_eq!(wal.sync_cost(), std::time::Duration::from_micros(200));
        let start = std::time::Instant::now();
        wal.begin_group();
        for i in 0..8 {
            wal.force(i);
        }
        wal.end_group();
        let grouped = start.elapsed();
        assert_eq!(wal.physical_sync_count(), 1);
        // Eight coalesced forces paid one sync, not eight: well under the
        // 8 × 200µs an ungrouped log would spin.
        assert!(
            grouped < std::time::Duration::from_micros(8 * 200),
            "group window paid more than one sync: {grouped:?}"
        );
    }
}
