//! Deterministic, seeded fault injection for the threaded cluster.
//!
//! A [`FaultPlan`] describes *what can go wrong* on the wire and *when
//! servers die*: per-edge probabilistic rules (drop / duplicate / delay /
//! reorder, in permille) plus fire-once crash points pinned to protocol
//! message kinds. The cluster routes every protocol send through a single
//! choke point; when a plan is armed, that choke point consults the plan.
//! When no plan is armed the choke point is one relaxed atomic load and a
//! predicted-not-taken branch — the satellite requirement that runs with
//! faults disabled stay byte-identical in behaviour to a build without the
//! layer at all.
//!
//! # Determinism
//!
//! Every probabilistic decision is a pure function of
//! `(plan seed, edge, per-edge sequence number, message kind)` via
//! splitmix64 — no global RNG, no time. Two runs that deliver the same
//! message sequence on an edge take identical fault decisions on that
//! edge. Cross-edge interleaving still depends on OS scheduling (threads
//! race), so the guarantee is *per-edge determinism*, which is what makes
//! failing chaos seeds replayable in practice: the fault pattern a seed
//! produces is stable even though thread timing is not.

use safetx_core::MsgKind;
use safetx_metrics::FaultCounters;
use safetx_types::ServerId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One end of a cluster edge, as seen by fault rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// A transaction manager (the caller of `Cluster::execute`).
    Coordinator,
    /// A cloud server thread.
    Server(ServerId),
}

impl Peer {
    /// Dense index used for per-edge sequence counters: coordinator is 0,
    /// server *i* is *i + 1*. Public so wire-level fabrics (`safetx-net`)
    /// can hash edges identically to the channel fabric.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Peer::Coordinator => 0,
            Peer::Server(id) => id.index() as usize + 1,
        }
    }
}

/// Which peers one side of an [`EdgeRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerMatch {
    /// Every peer.
    #[default]
    Any,
    /// Any cloud server.
    AnyServer,
    /// The coordinator side.
    Coordinator,
    /// One specific server.
    Server(ServerId),
}

impl PeerMatch {
    /// Whether this matcher covers `peer`.
    #[must_use]
    pub fn matches(self, peer: Peer) -> bool {
        match self {
            PeerMatch::Any => true,
            PeerMatch::AnyServer => matches!(peer, Peer::Server(_)),
            PeerMatch::Coordinator => peer == Peer::Coordinator,
            PeerMatch::Server(id) => peer == Peer::Server(id),
        }
    }
}

/// A per-edge probabilistic fault rule. Probabilities are in permille
/// (chances in 1000); a message is subject to the *first* rule whose
/// `from`/`to` matchers cover its edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeRule {
    /// Sender matcher.
    pub from: PeerMatch,
    /// Receiver matcher.
    pub to: PeerMatch,
    /// Chance the message is silently dropped.
    pub drop_permille: u32,
    /// Chance the message is delivered twice.
    pub duplicate_permille: u32,
    /// Chance the message is held back before delivery.
    pub delay_permille: u32,
    /// Lower bound of the injected delay, microseconds.
    pub delay_min_us: u64,
    /// Upper bound of the injected delay, microseconds.
    pub delay_max_us: u64,
    /// Chance the message is deferred behind later traffic (delivered via a
    /// short detour so a younger message can overtake it).
    pub reorder_permille: u32,
}

/// Where in the protocol a scheduled crash fires. Each rule fires at most
/// once per armed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The server dies *instead of* receiving the next matching message:
    /// the message is lost with it (e.g. crash before the prepare
    /// request arrives).
    BeforeReceive(MsgKind),
    /// The server dies right after fully processing the next matching
    /// message (e.g. crash after logging the prepare and acting on the
    /// decision).
    AfterReceive(MsgKind),
    /// The server dies right after the next matching message it sends has
    /// left (e.g. crash after the YES vote is on the wire — the classic
    /// in-doubt window).
    AfterSend(MsgKind),
}

/// One scheduled server crash.
#[derive(Debug, Clone, Copy)]
pub struct CrashRule {
    /// The victim.
    pub server: ServerId,
    /// The protocol moment.
    pub point: CrashPoint,
}

/// A complete seeded fault schedule for one cluster run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic roll.
    pub seed: u64,
    /// Probabilistic per-edge rules (first match wins).
    pub rules: Vec<EdgeRule>,
    /// Fire-once crash points.
    pub crashes: Vec<CrashRule>,
}

impl FaultPlan {
    /// A ready-made chaos mix: one `Any → Any` rule whose probabilities
    /// are themselves derived from `seed`, so a sweep over seeds explores
    /// different fault intensities. Drop/duplicate/reorder stay ≤ 3% and
    /// delays ≤ 2 ms so that runs with a sane reply timeout still make
    /// progress.
    #[must_use]
    pub fn chaos(seed: u64) -> FaultPlan {
        let r = |salt: u64, modulo: u64| splitmix64(seed ^ salt.wrapping_mul(0x9e37_79b9)) % modulo;
        FaultPlan {
            seed,
            rules: vec![EdgeRule {
                from: PeerMatch::Any,
                to: PeerMatch::Any,
                drop_permille: r(1, 31) as u32,
                duplicate_permille: r(2, 31) as u32,
                delay_permille: 20 + r(3, 60) as u32,
                delay_min_us: 20,
                delay_max_us: 200 + r(4, 1800),
                reorder_permille: r(5, 31) as u32,
            }],
            crashes: Vec::new(),
        }
    }

    /// The fault decision for one message on `from → to`, given the
    /// edge-local sequence number of that message.
    pub(crate) fn roll(&self, from: Peer, to: Peer, kind: MsgKind, seq: u64) -> Verdict {
        let Some(rule) = self
            .rules
            .iter()
            .find(|r| r.from.matches(from) && r.to.matches(to))
        else {
            return Verdict::Deliver;
        };
        let base = self
            .seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add((from.index() as u64) << 32)
            .wrapping_add((to.index() as u64) << 16)
            .wrapping_add(kind.salt())
            ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let sub = |salt: u64| splitmix64(base.wrapping_add(salt));
        if sub(1) % 1000 < u64::from(rule.drop_permille) {
            return Verdict::Drop;
        }
        if sub(2) % 1000 < u64::from(rule.duplicate_permille) {
            return Verdict::Duplicate;
        }
        if sub(3) % 1000 < u64::from(rule.delay_permille) {
            let span = rule.delay_max_us.saturating_sub(rule.delay_min_us) + 1;
            let us = rule.delay_min_us + sub(4) % span;
            return Verdict::Delay {
                by: Duration::from_micros(us),
                reorder: false,
            };
        }
        if sub(5) % 1000 < u64::from(rule.reorder_permille) {
            // A short detour: enough for queue neighbours to overtake.
            return Verdict::Delay {
                by: Duration::from_micros(30 + sub(6) % 270),
                reorder: true,
            };
        }
        Verdict::Deliver
    }
}

/// What the choke point does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Pass through.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Hold back, then deliver (possibly behind younger messages).
    Delay {
        /// How long to hold it.
        by: Duration,
        /// Count as a reorder rather than a delay.
        reorder: bool,
    },
}

/// An armed plan plus its fire-once crash flags.
pub(crate) struct ArmedPlan {
    pub(crate) plan: FaultPlan,
    fired: Vec<AtomicBool>,
}

impl ArmedPlan {
    pub(crate) fn new(plan: FaultPlan) -> ArmedPlan {
        let fired = plan
            .crashes
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        ArmedPlan { plan, fired }
    }

    /// Consumes (at most once) a crash rule for `server` matching `pred`.
    pub(crate) fn take_crash(
        &self,
        server: ServerId,
        pred: impl Fn(CrashPoint) -> bool,
    ) -> Option<CrashPoint> {
        for (rule, fired) in self.plan.crashes.iter().zip(&self.fired) {
            if rule.server == server && pred(rule.point) && !fired.swap(true, Ordering::AcqRel) {
                return Some(rule.point);
            }
        }
        None
    }
}

/// Lock-free fault/recovery counters, snapshotted into
/// [`safetx_metrics::FaultCounters`].
#[derive(Debug, Default)]
pub(crate) struct FaultStats {
    pub(crate) dropped: AtomicU64,
    pub(crate) delayed: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) reordered: AtomicU64,
    pub(crate) server_crashes: AtomicU64,
    pub(crate) recoveries: AtomicU64,
    pub(crate) timeout_aborts: AtomicU64,
}

impl FaultStats {
    pub(crate) fn snapshot(&self) -> FaultCounters {
        FaultCounters {
            faults_dropped: self.dropped.load(Ordering::Relaxed),
            faults_delayed: self.delayed.load(Ordering::Relaxed),
            faults_duplicated: self.duplicated.load(Ordering::Relaxed),
            faults_reordered: self.reordered.load(Ordering::Relaxed),
            server_crashes: self.server_crashes.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            timeout_aborts: self.timeout_aborts.load(Ordering::Relaxed),
            // Wire-only faults: a channel fabric never corrupts, truncates
            // or disconnects (those live in `safetx_net`'s frame fabric).
            ..FaultCounters::default()
        }
    }
}

/// splitmix64: the statelessly seeded generator behind every roll.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_plan(rule: EdgeRule) -> FaultPlan {
        FaultPlan {
            seed: 42,
            rules: vec![rule],
            crashes: Vec::new(),
        }
    }

    #[test]
    fn rolls_are_deterministic_per_edge() {
        let plan = FaultPlan::chaos(7);
        let a = Peer::Coordinator;
        let b = Peer::Server(ServerId::new(1));
        for seq in 0..200 {
            assert_eq!(
                plan.roll(a, b, MsgKind::ExecQuery, seq),
                plan.roll(a, b, MsgKind::ExecQuery, seq),
            );
        }
    }

    #[test]
    fn no_matching_rule_delivers() {
        let plan = edge_plan(EdgeRule {
            from: PeerMatch::Server(ServerId::new(3)),
            to: PeerMatch::Coordinator,
            drop_permille: 1000,
            ..EdgeRule::default()
        });
        // Different edge: untouched.
        let v = plan.roll(
            Peer::Coordinator,
            Peer::Server(ServerId::new(0)),
            MsgKind::ExecQuery,
            0,
        );
        assert_eq!(v, Verdict::Deliver);
        // Matching edge: always dropped.
        let v = plan.roll(
            Peer::Server(ServerId::new(3)),
            Peer::Coordinator,
            MsgKind::QueryDone,
            0,
        );
        assert_eq!(v, Verdict::Drop);
    }

    #[test]
    fn permille_probabilities_are_roughly_respected() {
        let plan = edge_plan(EdgeRule {
            from: PeerMatch::Any,
            to: PeerMatch::Any,
            drop_permille: 250,
            ..EdgeRule::default()
        });
        let drops = (0..4000)
            .filter(|&seq| {
                plan.roll(
                    Peer::Coordinator,
                    Peer::Server(ServerId::new(0)),
                    MsgKind::Decision,
                    seq,
                ) == Verdict::Drop
            })
            .count();
        // 25% ± generous slack.
        assert!((700..1300).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn crash_rules_fire_once() {
        let armed = ArmedPlan::new(FaultPlan {
            seed: 0,
            rules: Vec::new(),
            crashes: vec![CrashRule {
                server: ServerId::new(1),
                point: CrashPoint::AfterSend(MsgKind::CommitReply),
            }],
        });
        let pred = |p: CrashPoint| p == CrashPoint::AfterSend(MsgKind::CommitReply);
        assert!(armed.take_crash(ServerId::new(0), pred).is_none());
        assert!(armed.take_crash(ServerId::new(1), pred).is_some());
        assert!(armed.take_crash(ServerId::new(1), pred).is_none());
    }

    #[test]
    fn chaos_plans_differ_by_seed_and_stay_bounded() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let ra = a.rules[0];
        let rb = b.rules[0];
        assert!(
            (ra.drop_permille, ra.delay_permille, ra.delay_max_us)
                != (rb.drop_permille, rb.delay_permille, rb.delay_max_us)
        );
        for plan in [a, b] {
            let r = plan.rules[0];
            assert!(r.drop_permille <= 30);
            assert!(r.duplicate_permille <= 30);
            assert!(r.delay_max_us <= 2000);
        }
    }
}
