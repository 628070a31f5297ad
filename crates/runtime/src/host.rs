//! One cloud server's host: a lock around its [`ServerCore`].
//!
//! The paper's system model has one kind of cloud server — data, a policy
//! replica that may lag, a log — reached by TMs over some network. A
//! [`Host`] is that server, whichever network carries its messages: the
//! thread that received a round's messages (a channel link's server
//! thread, a socket link's connection reader) takes the lock and runs the
//! round itself, and the control plane — configure, crash, restart, WAL
//! accounting, in-doubt resolution — is plain methods that take the same
//! lock between rounds.
//!
//! Three invariants hold for every link (DESIGN.md §5a):
//!
//! * **One critical section per crash.** Whether the harness crashes the
//!   host ([`Host::crash`]) or a scheduled crash point fires inside
//!   [`Host::serve`], the core moves to the salvage slot before the lock is
//!   released: [`Host::crashed`] is true the moment either returns.
//! * **Stale inbox.** A dead host serves nothing ([`Host::serve`] returns
//!   `false` and drops the round), so whatever was queued to an
//!   incarnation dies with it; links join the dead incarnation's threads
//!   before [`Host::restart`] installs the recovered core.
//! * **Lock order.** The host lock is taken before any lock of the link
//!   (`emit` runs under it); link teardown must therefore unblock its
//!   writers *before* asking for the host lock.

use crate::fault::{CrashPoint, Fabric};
use safetx_core::{coalesce_replies, Msg, MsgKind, ServerCore};
use safetx_metrics::WalStats;
use safetx_types::{ServerId, Timestamp, TxnId};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Protocol time: microseconds since the deployment's epoch.
#[must_use]
pub fn now_since(epoch: Instant) -> Timestamp {
    Timestamp::from_micros(epoch.elapsed().as_micros() as u64)
}

/// What a host needs of its link's peer addresses.
pub trait PeerAddr: Clone {
    /// Reply-coalescing key: unique among live peers and stable for the
    /// peer's logical lifetime (the invariant documented on
    /// [`safetx_core::coalesce_replies`]).
    fn key(&self) -> u64;
    /// An address whose replies go nowhere: the sender of messages the
    /// control plane feeds a core directly (termination answers), whose
    /// acknowledgments nobody waits for.
    fn nobody() -> Self;
}

struct HostState<A> {
    /// `None` while crashed.
    core: Option<ServerCore<A>>,
    /// Where a crash parks the core (store + WAL — the durable state)
    /// until [`Host::restart`] recovers it.
    salvage: Option<ServerCore<A>>,
}

/// One cloud server behind a lock; see the module docs.
pub struct Host<A> {
    server: ServerId,
    epoch: Instant,
    /// Crash points and crash/recovery counters.
    fabric: Arc<Fabric>,
    state: Mutex<HostState<A>>,
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

    fn state(&self) -> MutexGuard<'_, HostState<A>> {
        self.state.lock().expect("host lock (a round panicked)")
    }

    /// Runs one round on the calling thread: feeds `round` (drained) to
    /// [`ServerCore::run_round`] and hands every reply to `emit`, one
    /// coalesced message per destination — first the protocol plane's
    /// replies, which leave before the round's proof evaluation runs, then
    /// the replies that evaluation feeds. `emit` runs under the host lock,
    /// so every peer sees rounds in the order they ran.
    ///
    /// The armed plan's crash points are cut here, for every link:
    /// `BeforeReceive` kills the server with the matching message (and the
    /// rest of the round) unprocessed, `AfterReceive` right after
    /// processing it, `AfterSend` once the matching reply has been emitted
    /// — the rest of the batch dies with the server.
    ///
    /// Returns `false` when the host is dead — it was already (the round
    /// is dropped), or a crash point fired in this round.
    pub fn serve(&self, round: &mut Vec<(A, Msg)>, mut emit: impl FnMut(&A, Msg)) -> bool {
        let mut state = self.state();
        let Some(core) = state.core.as_mut() else {
            round.clear();
            return false;
        };
        let cut = self.fabric.is_armed() && self.cut_at_crash_point(round);
        let out = core.run_round(now_since(self.epoch), round.drain(..));
        let mut sent_last = self.emit_until_crash(out.replies, &mut emit);
        if let Some(deferred) = out.deferred.filter(|_| !sent_last) {
            sent_last = self.emit_until_crash(deferred.run(now_since(self.epoch)), &mut emit);
        }
        let crashed = cut || sent_last;
        if crashed {
            self.crash_locked(&mut state);
        }
        !crashed
    }

    /// Applies the receive-side crash points to a round before the core
    /// sees it, truncating the round where the server dies.
    fn cut_at_crash_point(&self, round: &mut Vec<(A, Msg)>) -> bool {
        // A Batch envelope is by definition its inner messages in order;
        // flatten so the cut lands at message granularity.
        let mut flat = Vec::with_capacity(round.len());
        for (from, msg) in round.drain(..) {
            match msg {
                Msg::Batch(inner) => flat.extend(inner.into_iter().map(|m| (from.clone(), m))),
                other => flat.push((from, other)),
            }
        }
        *round = flat;
        for (i, (_, msg)) in round.iter().enumerate() {
            let kind = MsgKind::of(msg);
            for (point, keep) in [
                // The matching message dies with the server.
                (CrashPoint::BeforeReceive(kind), i),
                (CrashPoint::AfterReceive(kind), i + 1),
            ] {
                if self.fabric.take_crash(self.server, point) {
                    round.truncate(keep);
                    return true;
                }
            }
        }
        false
    }

    /// Emits `outputs`, coalesced per destination, until an `AfterSend`
    /// crash point fires (`true`): the matching message — and with it the
    /// force the server already performed — escapes first.
    fn emit_until_crash(&self, outputs: Vec<(A, Msg)>, emit: &mut impl FnMut(&A, Msg)) -> bool {
        for (to, msg) in coalesce_replies(outputs, A::key) {
            let crash_after = self.fabric.is_armed() && {
                let sent = |kind| {
                    self.fabric
                        .take_crash(self.server, CrashPoint::AfterSend(kind))
                };
                match &msg {
                    Msg::Batch(inner) => inner.iter().map(MsgKind::of).any(sent),
                    other => sent(MsgKind::of(other)),
                }
            };
            emit(&to, msg);
            if crash_after {
                return true;
            }
        }
        false
    }

    /// Wipes the volatile state (locks, in-flight rounds, decided memo)
    /// and parks the core in the salvage slot.
    fn crash_locked(&self, state: &mut HostState<A>) -> bool {
        let Some(mut core) = state.core.take() else {
            return false;
        };
        core.crash();
        state.salvage = Some(core);
        let crashes = &self.fabric.stats.server_crashes;
        crashes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Kills the server as if its process died: volatile state is lost,
    /// the store and WAL survive for [`Host::restart`]. Idempotent —
    /// `false` when the host was crashed already.
    pub fn crash(&self) -> bool {
        self.crash_locked(&mut self.state())
    }

    /// True while the host is crashed.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state().core.is_none()
    }

    /// Brings a crashed host back: rebuilds its protocol state from the
    /// WAL ([`ServerCore::recover_from_wal`] — the decided memo, and locks
    /// re-acquired for in-doubt transactions) and returns the transactions
    /// still in doubt. The link must have retired the dead incarnation's
    /// threads first.
    ///
    /// # Panics
    ///
    /// Panics when the host is not crashed.
    pub fn restart(&self) -> Vec<TxnId> {
        let mut state = self.state();
        let Some(mut core) = state.salvage.take() else {
            // Released first: a refused restart must not poison the host.
            drop(state);
            panic!("server {} is not crashed: nothing to restart", self.server);
        };
        let in_doubt = core.recover_from_wal();
        state.core = Some(core);
        let recoveries = &self.fabric.stats.recoveries;
        recoveries.fetch_add(1, Ordering::Relaxed);
        in_doubt
    }

    /// Runs `f` on the live core, between rounds; `None` while crashed.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut ServerCore<A>) -> R) -> Option<R> {
        self.state().core.as_mut().map(f)
    }

    /// WAL accounting of the live core, or of the salvaged one.
    #[must_use]
    pub fn wal_stats(&self) -> WalStats {
        let state = self.state();
        let core = state.core.as_ref().or(state.salvage.as_ref());
        core.map(ServerCore::wal_stats).unwrap_or_default()
    }

    /// Tells each transaction the live core still holds state for what
    /// `answer(txn, in_doubt)` says happened to it (`None` leaves it
    /// alone), synchronously and from [`PeerAddr::nobody`]; returns how
    /// many were told.
    pub fn terminate_leftovers(&self, answer: impl Fn(TxnId, bool) -> Option<Msg>) -> usize {
        self.with_core(|core| {
            let in_doubt = core.in_doubt_txns();
            let msgs: Vec<(A, Msg)> = core
                .active_txn_ids()
                .into_iter()
                .filter_map(|txn| Some((A::nobody(), answer(txn, in_doubt.contains(&txn))?)))
                .collect();
            let told = msgs.len();
            // Decisions and inquiry answers are protocol-plane only: the
            // round defers nothing, and its acknowledgments go to nobody.
            let _ = core.run_round(now_since(self.epoch), msgs);
            told
        })
        .unwrap_or(0)
    }
}
