//! One cloud server's host: a lock around its [`ServerCore`], and the queue
//! whoever holds that lock serves.
//!
//! The paper's system model has one kind of cloud server — data, a policy
//! replica that may lag, a log — reached by TMs over some network. A
//! [`Host`] is that server, whichever network carries its messages: a
//! socket link's connection reader serves the message it read
//! ([`Host::serve`]), the channel link queues each message
//! ([`Host::deliver`]) for whoever holds the lock, and the control plane —
//! configure, crash, restart, WAL accounting, in-doubt resolution — is
//! plain methods that take the same lock between rounds.
//!
//! The invariants (DESIGN.md §5a):
//!
//! * **A brief hold is waited for** ([`HAND_OFF_SPIN`]), a longer one handed
//!   off. **The holder serves the queue** before its own work, and looks again
//!   after letting go, serving what queued meanwhile unless a new holder
//!   has the lock (bound by the same rule): nothing is stranded, no send
//!   waits past the bound, and every control-plane call is a fence.
//! * **One critical section per crash**, whether the harness crashes the
//!   host or a crash point fires in a round: [`Host::crashed`] is true the
//!   moment either returns.
//! * **Stale inbox.** A message reaches the [`Host::incarnation`] it was
//!   sent to or nobody; a dead host serves nothing.
//! * **No two host locks.** A round replies only to coordinators, never to
//!   another host, so no thread ever holds two host locks.
//! * **Lock order.** Host lock before any lock of the link (`emit` runs
//!   under it), so link teardown unblocks its writers before it asks for
//!   the host lock; the queue's own lock is a leaf.
//! * **Bounded state.** After a round, a host whose fabric's sleepers hold
//!   nothing and whose queue is empty forgets its decided memo: every
//!   other message reaches it in its sender's order, and a coordinator
//!   sends only decision resends after a decision.

use crate::fault::{CrashPoint, Fabric};
use safetx_core::{Msg, MsgKind, ServerCore};
use safetx_metrics::WalStats;
use safetx_types::{ServerId, Timestamp, TxnId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a sender tries for a held host lock before it leaves its
/// message to the holder: longer than most rounds, shorter than the sleep
/// and cross-processor wake-up a hand-off costs (EXPERIMENTS.md).
pub(crate) const HAND_OFF_SPIN: Duration = Duration::from_micros(20);

/// Protocol time: microseconds since the deployment's epoch.
#[must_use]
pub fn now_since(epoch: Instant) -> Timestamp {
    Timestamp::from_micros(epoch.elapsed().as_micros() as u64)
}

/// What a host needs of its link's peer addresses.
pub trait PeerAddr: Clone {
    /// An address whose replies go nowhere: the sender of messages the
    /// control plane feeds a core directly (termination answers), whose
    /// acknowledgments nobody waits for.
    fn nobody() -> Self;
}

/// Where a queued message's replies go: the link's send to a coordinator.
pub(crate) type Outbox<A> = Box<dyn Fn(&A, Msg) + Send + Sync>;

struct HostState<A> {
    /// `None` while crashed.
    core: Option<ServerCore<A>>,
    /// Where a crash parks the core (the checkpoint — store and decided
    /// memo — and the WAL's live tail) until [`Host::restart`] recovers it.
    salvage: Option<ServerCore<A>>,
}

/// A host's queue ([`Host::open_queue`]): messages not yet served, each
/// with the incarnation it was sent to.
struct Queue<A> {
    msgs: Mutex<VecDeque<(u64, A, Msg)>>,
    outbox: Outbox<A>,
    device: Option<Thread>,
}

impl<A> Queue<A> {
    fn msgs(&self) -> MutexGuard<'_, VecDeque<(u64, A, Msg)>> {
        self.msgs.lock().expect("host queue lock")
    }
}

/// One cloud server behind a lock; see the module docs.
pub struct Host<A> {
    server: ServerId,
    epoch: Instant,
    /// Crash points and crash/recovery counters.
    fabric: Arc<Fabric>,
    state: Mutex<HostState<A>>,
    /// Crashes plus restarts so far. Relaxed: it is changed and compared
    /// under the host lock; read without it, it only stamps a send, which
    /// then races the crash as any concurrent send does.
    incarnation: AtomicU64,
    queue: OnceLock<Queue<A>>,
}

impl<A: PeerAddr> Host<A> {
    /// Wraps a configured core.
    #[must_use]
    pub fn new(core: ServerCore<A>, epoch: Instant, fabric: Arc<Fabric>) -> Host<A> {
        Host {
            server: core.id(),
            epoch,
            fabric,
            state: Mutex::new(HostState {
                core: Some(core),
                salvage: None,
            }),
            incarnation: AtomicU64::new(0),
            queue: OnceLock::new(),
        }
    }

    /// The server this host runs.
    #[must_use]
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The fabric this host's crash points and counters live on.
    #[must_use]
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The incarnation a message sent now is addressed to: every crash and
    /// every restart begins a new one.
    #[must_use]
    pub(crate) fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::Relaxed)
    }

    /// Gives the host a queue for [`Host::deliver`], served one message at
    /// a time, the replies going to `outbox` — by the senders, or by the
    /// `device` thread they only wake, which then calls [`Host::drain`].
    /// Panics when the host has a queue already.
    pub(crate) fn open_queue(&self, outbox: Outbox<A>, device: Option<Thread>) {
        let queue = Queue {
            msgs: Mutex::default(),
            outbox,
            device,
        };
        assert!(self.queue.set(queue).is_ok(), "the host's queue is open");
    }

    /// Serves `msg`, sent to `incarnation`, on the sender's thread if the
    /// lock comes free within [`HAND_OFF_SPIN`] — the queue first, so its
    /// earlier messages keep their order; else queues it for the holder, or
    /// for the device thread it wakes. Panics without a queue.
    pub(crate) fn deliver(&self, incarnation: u64, from: A, msg: Msg) {
        let queue = self.queue.get().expect("a host opened for delivery");
        if let Some(device) = &queue.device {
            queue.msgs().push_back((incarnation, from, msg));
            return device.unpark();
        }
        match self.try_state(HAND_OFF_SPIN) {
            Some(mut state) => {
                self.serve_queue(&mut state);
                if incarnation == self.incarnation() {
                    self.run(&mut state, from, msg, |to, msg| (queue.outbox)(to, msg));
                }
            }
            None => queue.msgs().push_back((incarnation, from, msg)),
        }
        self.drain();
    }

    /// Serves the queue until it is empty, unless someone holds the lock
    /// (who then does). Looking again after letting go strands nothing: a
    /// message queued while the lock was held is there to see.
    pub(crate) fn drain(&self) {
        let Some(queue) = self.queue.get() else {
            return;
        };
        while !queue.msgs().is_empty() {
            let Some(mut state) = self.try_state(Duration::ZERO) else {
                return;
            };
            self.serve_queue(&mut state);
        }
    }

    /// The host lock, if it is free or comes free within `spin`.
    fn try_state(&self, spin: Duration) -> Option<MutexGuard<'_, HostState<A>>> {
        let start = Instant::now();
        loop {
            match self.state.try_lock() {
                Ok(state) => return Some(state),
                Err(TryLockError::WouldBlock) if start.elapsed() < spin => std::hint::spin_loop(),
                Err(TryLockError::WouldBlock) => return None,
                Err(TryLockError::Poisoned(_)) => panic!("host lock (a round panicked)"),
            }
        }
    }

    fn state(&self) -> MutexGuard<'_, HostState<A>> {
        self.state.lock().expect("host lock (a round panicked)")
    }

    /// Runs `f` under the host lock, serving the queue before and after.
    fn locked<R>(&self, f: impl FnOnce(&mut HostState<A>) -> R) -> R {
        let mut state = self.state();
        self.serve_queue(&mut state);
        let out = f(&mut state);
        drop(state);
        self.drain();
        out
    }

    /// Serves the queue one message at a time until it is empty, dropping
    /// what was sent to an earlier incarnation.
    fn serve_queue(&self, state: &mut HostState<A>) {
        let Some(queue) = self.queue.get() else {
            return;
        };
        let incarnation = self.incarnation();
        loop {
            // Popped in a statement of its own: the queue's lock is a leaf,
            // free again before the message is served.
            let Some((to, from, msg)) = queue.msgs().pop_front() else {
                return;
            };
            if to == incarnation {
                self.run(state, from, msg, |to, msg| (queue.outbox)(to, msg));
            }
        }
    }

    /// Serves one message on the calling thread: feeds it to
    /// [`ServerCore::handle`] and hands each reply to `emit` as it is.
    /// `emit` runs under the host lock, so every peer sees replies in the
    /// order the messages were served.
    ///
    /// The armed plan's crash points are cut here, for every link:
    /// `BeforeReceive` kills the server with the matching message
    /// unprocessed, `AfterReceive` once it is handled and its replies are
    /// out, `AfterSend` once the matching reply has been emitted — the
    /// replies after it die with the server.
    ///
    /// Returns `false` when the host is dead — it was already (the message
    /// is dropped), or a crash point fired on this message.
    pub fn serve(&self, from: A, msg: Msg, emit: impl FnMut(&A, Msg)) -> bool {
        self.locked(|state| self.run(state, from, msg, emit))
    }

    /// [`Host::serve`] under a lock already held.
    fn run(
        &self,
        state: &mut HostState<A>,
        from: A,
        msg: Msg,
        mut emit: impl FnMut(&A, Msg),
    ) -> bool {
        let Some(core) = state.core.as_mut() else {
            return false;
        };
        let armed = self.fabric.is_armed();
        let crash_at = |point| armed && self.fabric.take_crash(self.server, point);
        let kind = MsgKind::of(&msg);
        let mut crashed = crash_at(CrashPoint::BeforeReceive(kind));
        if !crashed {
            crashed = crash_at(CrashPoint::AfterReceive(kind));
            for (to, reply) in core.handle(now_since(self.epoch), from, msg) {
                // The matching reply — and with it the force the server
                // already performed — escapes first.
                let sent = crash_at(CrashPoint::AfterSend(MsgKind::of(&reply)));
                emit(&to, reply);
                if sent {
                    crashed = true;
                    break;
                }
            }
        }
        if crashed {
            self.crash_locked(state);
        } else if self.fabric.held.load(Ordering::Acquire) == 0
            && self.queue.get().is_none_or(|q| q.msgs().is_empty())
        {
            // Bounded state: no message can overtake a decision any more
            // (the count read first: a just-delivered one is still queued).
            core.forget_decisions();
        }
        !crashed
    }

    /// Wipes the volatile state (locks, unprepared transactions) and parks the core, checkpoint and WAL tail with it, in the
    /// salvage slot.
    fn crash_locked(&self, state: &mut HostState<A>) -> bool {
        let Some(mut core) = state.core.take() else {
            return false;
        };
        core.crash();
        state.salvage = Some(core);
        self.incarnation.fetch_add(1, Ordering::Relaxed);
        self.fabric.count(|c| &mut c.server_crashes);
        true
    }

    /// Kills the server as if its process died: volatile state is lost,
    /// the checkpoint (store and decided memo) and the WAL's live tail
    /// survive for [`Host::restart`], and whatever was queued to it is
    /// dropped. Idempotent — `false` when the host was crashed already.
    pub fn crash(&self) -> bool {
        let crashed = self.crash_locked(&mut self.state());
        self.drain();
        crashed
    }

    /// True while the host is crashed.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.locked(|state| state.core.is_none())
    }

    /// Brings a crashed host back: rebuilds its protocol state from the
    /// checkpoint and the WAL's tail ([`ServerCore::recover_from_wal`] —
    /// the tail's decisions added to the memo, and locks re-acquired for
    /// in-doubt transactions) and returns the transactions still in doubt.
    /// A link with threads per incarnation must have retired the dead
    /// one's first.
    ///
    /// # Panics
    ///
    /// Panics when the host is not crashed.
    pub fn restart(&self) -> Vec<TxnId> {
        let recovered = self.locked(|state| {
            let mut core = state.salvage.take()?;
            let in_doubt = core.recover_from_wal();
            state.core = Some(core);
            self.incarnation.fetch_add(1, Ordering::Relaxed);
            Some(in_doubt)
        });
        // Released first: a refused restart must not poison the host.
        let in_doubt = recovered
            .unwrap_or_else(|| panic!("server {} is not crashed: nothing to restart", self.server));
        self.fabric.count(|c| &mut c.recoveries);
        in_doubt
    }

    /// Runs `f` on the live core, between rounds; `None` while crashed.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut ServerCore<A>) -> R) -> Option<R> {
        self.locked(|state| state.core.as_mut().map(f))
    }

    /// WAL accounting of the live core, or of the salvaged one.
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        self.locked(|state| {
            let core = state.core.as_ref().or(state.salvage.as_ref());
            core.map(ServerCore::wal_stats).unwrap_or_default()
        })
    }

    /// Tells each transaction the live core still holds state for what
    /// `answer(txn, in_doubt)` says happened to it (`None` leaves it
    /// alone), synchronously and from [`PeerAddr::nobody`], one message
    /// each; returns how many were told.
    pub fn terminate_leftovers(&self, answer: impl Fn(TxnId, bool) -> Option<Msg>) -> usize {
        self.with_core(|core| {
            let in_doubt = core.in_doubt_txns();
            let mut told = 0;
            for txn in core.active_txn_ids() {
                if let Some(msg) = answer(txn, in_doubt.contains(&txn)) {
                    // Its acknowledgment goes to nobody.
                    let _ = core.handle(now_since(self.epoch), A::nobody(), msg);
                    told += 1;
                }
            }
            told
        })
        .unwrap_or(0)
    }
}
