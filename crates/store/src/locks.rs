//! Strict two-phase locking.
//!
//! Participants take shared locks for reads and exclusive locks for writes
//! as queries execute, and hold them until the 2PC/2PVC decision arrives
//! (strictness); conflicts are reported to the caller, which may abort the
//! transaction (no-wait policy — simple and deadlock-free, appropriate for
//! the simulation's sequential query model).

use safetx_types::{DataItemId, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared locks.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockOutcome {
    /// The lock was granted (or was already held in a sufficient mode).
    Granted,
    /// Another transaction holds an incompatible lock.
    Conflict {
        /// One of the conflicting holders.
        holder: TxnId,
    },
}

impl LockOutcome {
    /// True when the request succeeded.
    #[must_use]
    pub fn is_granted(self) -> bool {
        matches!(self, LockOutcome::Granted)
    }
}

#[derive(Debug, Clone, Default)]
struct ItemLock {
    sharers: BTreeSet<TxnId>,
    exclusive: Option<TxnId>,
}

/// A no-wait lock manager for one server.
///
/// # Examples
///
/// ```
/// use safetx_store::{LockManager, LockMode};
/// use safetx_types::{DataItemId, TxnId};
///
/// let mut lm = LockManager::new();
/// let x = DataItemId::new(0);
/// assert!(lm.acquire(TxnId::new(1), x, LockMode::Shared).is_granted());
/// assert!(!lm.acquire(TxnId::new(2), x, LockMode::Exclusive).is_granted());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockManager {
    locks: HashMap<DataItemId, ItemLock>,
}

impl LockManager {
    /// Creates an empty lock manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a lock, upgrading shared→exclusive when the requester is the
    /// sole sharer.
    pub fn acquire(&mut self, txn: TxnId, item: DataItemId, mode: LockMode) -> LockOutcome {
        let lock = self.locks.entry(item).or_default();
        match mode {
            LockMode::Shared => match lock.exclusive {
                Some(holder) if holder != txn => LockOutcome::Conflict { holder },
                Some(_) => LockOutcome::Granted, // own exclusive covers shared
                None => {
                    lock.sharers.insert(txn);
                    LockOutcome::Granted
                }
            },
            LockMode::Exclusive => {
                if let Some(holder) = lock.exclusive {
                    return if holder == txn {
                        LockOutcome::Granted
                    } else {
                        LockOutcome::Conflict { holder }
                    };
                }
                match lock.sharers.iter().find(|&&t| t != txn) {
                    Some(&holder) => LockOutcome::Conflict { holder },
                    None => {
                        lock.sharers.remove(&txn);
                        lock.exclusive = Some(txn);
                        LockOutcome::Granted
                    }
                }
            }
        }
    }

    /// Releases every lock held by `txn` (commit or abort). Returns the
    /// number of items released.
    pub fn release_all(&mut self, txn: TxnId) -> usize {
        let mut released = 0;
        self.locks.retain(|_, lock| {
            if lock.exclusive == Some(txn) {
                lock.exclusive = None;
                released += 1;
            }
            if lock.sharers.remove(&txn) {
                released += 1;
            }
            lock.exclusive.is_some() || !lock.sharers.is_empty()
        });
        released
    }

    /// True when `txn` holds a lock on `item` in at least `mode`.
    #[must_use]
    pub fn holds(&self, txn: TxnId, item: DataItemId, mode: LockMode) -> bool {
        let Some(lock) = self.locks.get(&item) else {
            return false;
        };
        match mode {
            LockMode::Shared => lock.sharers.contains(&txn) || lock.exclusive == Some(txn),
            LockMode::Exclusive => lock.exclusive == Some(txn),
        }
    }

    /// Number of items currently locked by anyone.
    #[must_use]
    pub fn locked_items(&self) -> usize {
        self.locks.len()
    }

    /// Drops every lock (server crash wipes volatile state).
    pub fn clear(&mut self) {
        self.locks.clear();
    }
}

/// Number of independent lock shards in a [`ShardedLockManager`].
///
/// Fixed (not configurable) so the item→shard mapping is stable.
pub const LOCK_SHARDS: usize = 16;

/// A sharded, internally-synchronized no-wait lock manager.
///
/// Same per-item semantics as [`LockManager`] (shared/exclusive modes,
/// sole-sharer upgrade, own-exclusive-covers-shared, no-wait conflicts), but
/// the item space is split across [`LOCK_SHARDS`] independently-locked maps
/// keyed by a hash of the [`DataItemId`]. Threads acquiring locks for
/// different items proceed in parallel instead of funneling through one map,
/// and all methods take `&self`, so the manager can be shared behind an
/// `Arc` without an outer mutex.
///
/// No server uses it: a `ServerCore` is driven by one thread at a time
/// through `&mut self` and owns a plain [`LockManager`]. It stays for
/// callers that do share one lock table between threads, and for the
/// benchmark's lock micro-measurement.
///
/// Since each item maps to exactly one shard, per-item mutual exclusion (the
/// only invariant the no-wait protocol needs) is preserved: two requests for
/// the same item always serialize on the same shard lock. `release_all`
/// visits every shard, which is exactly what the single-map `retain` did.
///
/// # Examples
///
/// ```
/// use safetx_store::{LockMode, ShardedLockManager};
/// use safetx_types::{DataItemId, TxnId};
///
/// let lm = ShardedLockManager::new();
/// let x = DataItemId::new(0);
/// assert!(lm.acquire(TxnId::new(1), x, LockMode::Shared).is_granted());
/// assert!(!lm.acquire(TxnId::new(2), x, LockMode::Exclusive).is_granted());
/// ```
#[derive(Debug, Default)]
pub struct ShardedLockManager {
    shards: [Mutex<LockManager>; LOCK_SHARDS],
}

impl ShardedLockManager {
    /// Creates an empty sharded lock manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, item: DataItemId) -> &Mutex<LockManager> {
        // Multiplicative (Fibonacci) mix so clustered item ids still spread
        // across shards; the map inside each shard re-hashes anyway.
        let mixed = item.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 60) as usize % LOCK_SHARDS]
    }

    /// Requests a lock, upgrading shared→exclusive when the requester is the
    /// sole sharer. See [`LockManager::acquire`].
    pub fn acquire(&self, txn: TxnId, item: DataItemId, mode: LockMode) -> LockOutcome {
        self.shard(item)
            .lock()
            .expect("lock shard poisoned")
            .acquire(txn, item, mode)
    }

    /// Releases every lock held by `txn` across all shards (commit or
    /// abort). Returns the number of items released.
    pub fn release_all(&self, txn: TxnId) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lock shard poisoned").release_all(txn))
            .sum()
    }

    /// True when `txn` holds a lock on `item` in at least `mode`.
    #[must_use]
    pub fn holds(&self, txn: TxnId, item: DataItemId, mode: LockMode) -> bool {
        self.shard(item)
            .lock()
            .expect("lock shard poisoned")
            .holds(txn, item, mode)
    }

    /// Number of items currently locked by anyone.
    #[must_use]
    pub fn locked_items(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lock shard poisoned").locked_items())
            .sum()
    }

    /// Drops every lock (server crash wipes volatile state).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("lock shard poisoned").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (TxnId, TxnId, DataItemId) {
        (TxnId::new(1), TxnId::new(2), DataItemId::new(0))
    }

    #[test]
    fn shared_locks_coexist() {
        let (t1, t2, x) = ids();
        let mut lm = LockManager::new();
        assert!(lm.acquire(t1, x, LockMode::Shared).is_granted());
        assert!(lm.acquire(t2, x, LockMode::Shared).is_granted());
        assert!(lm.holds(t1, x, LockMode::Shared));
        assert!(lm.holds(t2, x, LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes_everything() {
        let (t1, t2, x) = ids();
        let mut lm = LockManager::new();
        assert!(lm.acquire(t1, x, LockMode::Exclusive).is_granted());
        assert_eq!(
            lm.acquire(t2, x, LockMode::Shared),
            LockOutcome::Conflict { holder: t1 }
        );
        assert_eq!(
            lm.acquire(t2, x, LockMode::Exclusive),
            LockOutcome::Conflict { holder: t1 }
        );
    }

    #[test]
    fn reacquire_is_idempotent_and_own_exclusive_covers_shared() {
        let (t1, _, x) = ids();
        let mut lm = LockManager::new();
        assert!(lm.acquire(t1, x, LockMode::Exclusive).is_granted());
        assert!(lm.acquire(t1, x, LockMode::Exclusive).is_granted());
        assert!(lm.acquire(t1, x, LockMode::Shared).is_granted());
        assert!(lm.holds(t1, x, LockMode::Shared));
    }

    #[test]
    fn sole_sharer_upgrades() {
        let (t1, t2, x) = ids();
        let mut lm = LockManager::new();
        assert!(lm.acquire(t1, x, LockMode::Shared).is_granted());
        assert!(lm.acquire(t1, x, LockMode::Exclusive).is_granted());
        assert!(lm.holds(t1, x, LockMode::Exclusive));
        assert!(!lm.acquire(t2, x, LockMode::Shared).is_granted());
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let (t1, t2, x) = ids();
        let mut lm = LockManager::new();
        assert!(lm.acquire(t1, x, LockMode::Shared).is_granted());
        assert!(lm.acquire(t2, x, LockMode::Shared).is_granted());
        assert_eq!(
            lm.acquire(t1, x, LockMode::Exclusive),
            LockOutcome::Conflict { holder: t2 }
        );
    }

    #[test]
    fn release_all_frees_items() {
        let (t1, t2, x) = ids();
        let y = DataItemId::new(1);
        let mut lm = LockManager::new();
        lm.acquire(t1, x, LockMode::Exclusive);
        lm.acquire(t1, y, LockMode::Shared);
        assert_eq!(lm.release_all(t1), 2);
        assert_eq!(lm.locked_items(), 0);
        assert!(lm.acquire(t2, x, LockMode::Exclusive).is_granted());
    }

    #[test]
    fn release_preserves_other_holders() {
        let (t1, t2, x) = ids();
        let mut lm = LockManager::new();
        lm.acquire(t1, x, LockMode::Shared);
        lm.acquire(t2, x, LockMode::Shared);
        lm.release_all(t1);
        assert!(lm.holds(t2, x, LockMode::Shared));
        assert!(!lm.holds(t1, x, LockMode::Shared));
    }

    #[test]
    fn sharded_matches_single_map_semantics() {
        let (t1, t2, x) = ids();
        let lm = ShardedLockManager::new();
        // Shared coexistence.
        assert!(lm.acquire(t1, x, LockMode::Shared).is_granted());
        assert!(lm.acquire(t2, x, LockMode::Shared).is_granted());
        // Upgrade blocked by the other sharer.
        assert_eq!(
            lm.acquire(t1, x, LockMode::Exclusive),
            LockOutcome::Conflict { holder: t2 }
        );
        lm.release_all(t2);
        // Sole-sharer upgrade; own exclusive covers shared.
        assert!(lm.acquire(t1, x, LockMode::Exclusive).is_granted());
        assert!(lm.acquire(t1, x, LockMode::Shared).is_granted());
        assert!(lm.holds(t1, x, LockMode::Exclusive));
        assert_eq!(
            lm.acquire(t2, x, LockMode::Shared),
            LockOutcome::Conflict { holder: t1 }
        );
    }

    #[test]
    fn sharded_release_all_spans_shards() {
        let t1 = TxnId::new(1);
        let lm = ShardedLockManager::new();
        // Enough distinct items to land in several shards.
        for i in 0..64 {
            assert!(lm
                .acquire(t1, DataItemId::new(i), LockMode::Exclusive)
                .is_granted());
        }
        assert_eq!(lm.locked_items(), 64);
        assert_eq!(lm.release_all(t1), 64);
        assert_eq!(lm.locked_items(), 0);
    }

    #[test]
    fn sharded_clear_wipes_everything() {
        let (t1, t2, x) = ids();
        let lm = ShardedLockManager::new();
        lm.acquire(t1, x, LockMode::Exclusive);
        lm.clear();
        assert_eq!(lm.locked_items(), 0);
        assert!(lm.acquire(t2, x, LockMode::Exclusive).is_granted());
    }

    #[test]
    fn sharded_is_consistent_under_concurrent_hammering() {
        use std::sync::Arc;
        let lm = Arc::new(ShardedLockManager::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    let txn = TxnId::new(t);
                    let mut granted = Vec::new();
                    for i in 0..256 {
                        let item = DataItemId::new(i % 32);
                        if lm.acquire(txn, item, LockMode::Exclusive).is_granted() {
                            granted.push(item);
                            assert!(lm.holds(txn, item, LockMode::Exclusive));
                        }
                    }
                    granted.sort_unstable();
                    granted.dedup();
                    assert_eq!(lm.release_all(txn), granted.len());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(lm.locked_items(), 0);
    }
}
