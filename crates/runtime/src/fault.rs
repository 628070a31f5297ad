//! Deterministic, seeded fault injection: one plan, one fabric, two
//! applicators.
//!
//! A [`FaultPlan`] describes *what can go wrong* between a TM and a server
//! and *when servers die*: per-edge probabilistic rules (in permille) plus
//! fire-once crash points pinned to protocol message kinds. Every
//! deployment owns one [`Fabric`]; every protocol send consults it. The
//! channel link applies a verdict to a message as an in-memory object
//! (drop / duplicate / delay / reorder — `cluster.rs`); the socket link
//! applies it to a frame as bytes on a stream (`safetx-net`), which adds
//! the faults only a wire can suffer: payload corruption, mid-frame
//! truncation and hard disconnects. Crash points fire where a host serves
//! its rounds ([`crate::Host::serve`]), whichever link feeds it.
//!
//! With no plan armed every consultation is one relaxed atomic load and a
//! predicted-not-taken branch, so a faults-disabled run behaves exactly
//! like a build without the layer.
//!
//! # Determinism
//!
//! Every probabilistic decision is a pure function of
//! `(plan seed, edge, per-edge sequence number, message kind)` via
//! splitmix64 — no global RNG, no time. Two runs that carry the same
//! message sequence on an edge take identical fault decisions on that
//! edge. Cross-edge interleaving still depends on OS scheduling (threads
//! race), so the guarantee is *per-edge determinism*, which is what makes
//! failing chaos seeds replayable in practice: the fault pattern a seed
//! produces is stable even though thread timing is not.

use safetx_core::MsgKind;
use safetx_metrics::FaultCounters;
use safetx_types::ServerId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

/// One end of a cluster edge, as seen by fault rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// A transaction manager (the caller of `execute`).
    Coordinator,
    /// A cloud server.
    Server(ServerId),
}

impl Peer {
    /// Dense index folded into every roll: coordinator is 0, server *i* is
    /// *i + 1* — the same on both links, so an edge hashes identically
    /// whichever applicator rolls it.
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
///
/// `reorder_permille` exists only for messages (a FIFO stream cannot
/// reorder) and the last three permilles only for frames; each applicator
/// ignores the fields of the other.
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
    /// Chance the message is held back before delivery. On a stream this
    /// delays everything behind it too — head-of-line blocking, which is
    /// exactly what a slow link does.
    pub delay_permille: u32,
    /// Lower bound of the injected delay, microseconds.
    pub delay_min_us: u64,
    /// Upper bound of the injected delay, microseconds.
    pub delay_max_us: u64,
    /// Chance the message is deferred behind later traffic (delivered via a
    /// short detour so a younger message can overtake it).
    pub reorder_permille: u32,
    /// Chance the frame's payload is bit-flipped (always detected by the
    /// receiver's decoder; see `safetx_net::fault`).
    pub corrupt_permille: u32,
    /// Chance the frame is cut off mid-write and the stream killed — the
    /// receiver sees a framing desync / unexpected EOF.
    pub truncate_permille: u32,
    /// Chance the stream is hard-closed instead of carrying the frame.
    pub disconnect_permille: u32,
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

/// Which applicator is rolling: the two differ only in the faults that
/// follow drop / duplicate / delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A message moved as an in-memory object (the channel link).
    Message,
    /// A frame written to a byte stream (the socket link).
    Frame,
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
    /// different fault intensities. Drop/duplicate/reorder stay ≤ 3 %,
    /// delays ≤ 2 ms, corruption ≤ 2 % and the stream-killing faults
    /// (truncate, disconnect) ≤ 1 % each, so that runs with a sane reply
    /// timeout and a bounded reconnect budget still make progress.
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
                corrupt_permille: r(5, 21) as u32,
                truncate_permille: r(6, 11) as u32,
                disconnect_permille: r(7, 11) as u32,
            }],
            crashes: Vec::new(),
        }
    }

    /// The fault decision for one message (or frame) on `from → to`, given
    /// its edge-local sequence number.
    #[must_use]
    pub fn roll(&self, layer: Layer, from: Peer, to: Peer, kind: MsgKind, seq: u64) -> Verdict {
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
        let hit = |salt: u64, permille: u32| sub(salt) % 1000 < u64::from(permille);
        if hit(1, rule.drop_permille) {
            return Verdict::Drop;
        }
        if hit(2, rule.duplicate_permille) {
            return Verdict::Duplicate;
        }
        if hit(3, rule.delay_permille) {
            let span = rule.delay_max_us.saturating_sub(rule.delay_min_us) + 1;
            let us = rule.delay_min_us + sub(4) % span;
            return Verdict::Delay {
                by: Duration::from_micros(us),
                reorder: false,
            };
        }
        match layer {
            // A short detour: enough for queue neighbours to overtake.
            Layer::Message if hit(5, rule.reorder_permille) => Verdict::Delay {
                by: Duration::from_micros(30 + sub(6) % 270),
                reorder: true,
            },
            Layer::Frame if hit(5, rule.corrupt_permille) => Verdict::Corrupt { roll: sub(6) },
            Layer::Frame if hit(7, rule.truncate_permille) => Verdict::Truncate { roll: sub(8) },
            Layer::Frame if hit(9, rule.disconnect_permille) => Verdict::Disconnect,
            _ => Verdict::Deliver,
        }
    }
}

/// What an applicator does with one message or frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Pass through.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Hold back, then deliver (a message possibly behind younger ones).
    Delay {
        /// How long to hold it.
        by: Duration,
        /// Count as a reorder rather than a delay.
        reorder: bool,
    },
    /// Flip payload bits (frames only; guaranteed detectable).
    Corrupt {
        /// Seeded roll choosing which bit to flip.
        roll: u64,
    },
    /// Write a strict prefix of the frame, then kill the stream.
    Truncate {
        /// Seeded roll choosing the cut point.
        roll: u64,
    },
    /// Kill the stream without writing the frame.
    Disconnect,
}

/// An armed plan plus its fire-once crash flags.
#[derive(Debug)]
struct ArmedPlan {
    plan: FaultPlan,
    fired: Vec<AtomicBool>,
}

impl ArmedPlan {
    fn new(plan: FaultPlan) -> ArmedPlan {
        let fired = plan
            .crashes
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        ArmedPlan { plan, fired }
    }

    /// Consumes (at most once) a crash rule for `server` at `point`.
    fn take_crash(&self, server: ServerId, point: CrashPoint) -> bool {
        self.plan
            .crashes
            .iter()
            .zip(&self.fired)
            .any(|(rule, fired)| {
                rule.server == server && rule.point == point && !fired.swap(true, Ordering::AcqRel)
            })
    }
}

/// A deployment's fault fabric: the armed plan, if any, and the counters.
/// Shared by the link's applicator (rolls) and the hosts (crash points).
#[derive(Debug, Default)]
pub struct Fabric {
    /// Mirrors `armed.is_some()`; checked without taking the lock.
    enabled: AtomicBool,
    armed: RwLock<Option<ArmedPlan>>,
    /// Messages the channel link's sleepers hold, the only ones a later
    /// send can overtake: up before a sleeper starts, down (AcqRel) after
    /// it delivers, so a host's Acquire read of 0 sees each one queued.
    pub(crate) held: AtomicU64,
    /// What the fabric, the hosts and the coordinators counted.
    counters: Mutex<FaultCounters>,
    /// Stale replies no coordinator was waiting for (not a fault: reported
    /// as the deployment's `dropped_replies`).
    pub stale_replies: AtomicU64,
}

impl Fabric {
    /// Counts one more of what `field` picks.
    pub fn count(&self, field: impl FnOnce(&mut FaultCounters) -> &mut u64) {
        *field(&mut self.counters.lock().unwrap_or_else(|e| e.into_inner())) += 1;
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        *self.counters.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms `plan`: every subsequent send rolls against it and its crash
    /// points start unfired. Replaces any armed plan.
    pub fn arm(&self, plan: FaultPlan) {
        *self.armed.write().expect("fault plan lock") = Some(ArmedPlan::new(plan));
        self.enabled.store(true, Ordering::Release);
    }

    /// Disarms the fabric; sends pass through untouched again (the
    /// counters are kept).
    pub fn disarm(&self) {
        self.enabled.store(false, Ordering::Release);
        *self.armed.write().expect("fault plan lock") = None;
    }

    /// Whether a plan is armed (one relaxed load).
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The fault decision for one outbound message or frame.
    #[must_use]
    pub fn verdict(&self, layer: Layer, from: Peer, to: Peer, kind: MsgKind, seq: u64) -> Verdict {
        if !self.is_armed() {
            return Verdict::Deliver;
        }
        let armed = self.armed.read().expect("fault plan lock");
        armed.as_ref().map_or(Verdict::Deliver, |armed| {
            armed.plan.roll(layer, from, to, kind, seq)
        })
    }

    /// Consumes (at most once) a crash rule for `server` at `point`.
    #[must_use]
    pub fn take_crash(&self, server: ServerId, point: CrashPoint) -> bool {
        if !self.is_armed() {
            return false;
        }
        let armed = self.armed.read().expect("fault plan lock");
        armed
            .as_ref()
            .is_some_and(|armed| armed.take_crash(server, point))
    }
}

/// splitmix64: the statelessly seeded generator behind every roll.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TM: Peer = Peer::Coordinator;
    const S1: Peer = Peer::Server(ServerId::new(1));

    fn edge_plan(rule: EdgeRule) -> FaultPlan {
        FaultPlan {
            seed: 42,
            rules: vec![rule],
            crashes: Vec::new(),
        }
    }

    fn render(verdict: Verdict) -> String {
        match verdict {
            Verdict::Deliver => ".".to_owned(),
            Verdict::Drop => "x".to_owned(),
            Verdict::Duplicate => "2".to_owned(),
            Verdict::Delay { by, reorder: false } => format!("d{}", by.as_micros()),
            Verdict::Delay { by, reorder: true } => format!("r{}", by.as_micros()),
            Verdict::Corrupt { roll } => format!("c{roll:x}"),
            Verdict::Truncate { roll } => format!("t{roll:x}"),
            Verdict::Disconnect => "!".to_owned(),
        }
    }

    /// The first 32 verdicts of `FaultPlan::chaos(seed)` on TM→S1
    /// (`PrepareToCommit`) and S1→TM (`CommitReply`), per applicator —
    /// captured at 5e6d18f from `FaultPlan::chaos` (message rows) and
    /// `NetFaultPlan::chaos` (frame rows) before the two were merged.
    /// Every chaos seed, and `tests/dropped_replies.rs`'s exact pin,
    /// explores the schedule these rows begin.
    #[test]
    fn merged_roll_reproduces_both_parents_schedules() {
        let pins = [
            (Layer::Message, 1, TM, ". . . . . . . . 2 x . . . . . . . x . . . . . . . . . . . . . ."),
            (Layer::Message, 1, S1, ". . . . . . . . . . . . . . . d416 . . . . . . . . . . . . . . . ."),
            (Layer::Message, 7, TM, ". . . . . . d1549 . . . . . . . . . . 2 d1362 . . . . . . . . . . . d1277 ."),
            (Layer::Message, 7, S1, ". . d605 . . . . . . . d23 . . . . . d1134 . . . . . d946 . . . d1093 . . . . ."),
            (Layer::Message, 42, TM, ". . . . x . . . . . . . . d230 . . . . . . . . . . . . . . . . . ."),
            (Layer::Message, 42, S1, ". . . . . . . . . . d700 . . . . . d87 . . . . . . . . . . . . . . ."),
            (Layer::Frame, 1, TM, ". . . . . . . . 2 x . . . . . . . x . . . . . . . . . . . . . ."),
            (Layer::Frame, 1, S1, ". . . . . . . . . . . . . . . d416 . . . . . . . . . . . . . . . ."),
            (Layer::Frame, 7, TM, ". . . . . . d1549 . . . . . . . . . . 2 d1362 . . . . . . . . . . . d1277 ."),
            (Layer::Frame, 7, S1, ". . d605 . . . . . . . d23 . . . . . d1134 . . . . . d946 . . . d1093 . . . . ."),
            (Layer::Frame, 42, TM, ". . . . x . . ce2fe4d54c2ad6a82 . . . . . d230 . . . . . . . . . . . . cc170d8331d0dc57a . . . . ."),
            (Layer::Frame, 42, S1, ". . . . . . . t786215ee6b3acbad . . d700 . . . . . d87 . . cf9bf65e55db71a32 . . . . . te55ec51201771635 . . . . . ."),
        ];
        for (layer, seed, from, want) in pins {
            let plan = FaultPlan::chaos(seed);
            let (to, kind) = match from {
                Peer::Coordinator => (S1, MsgKind::PrepareToCommit),
                Peer::Server(_) => (TM, MsgKind::CommitReply),
            };
            let got: Vec<String> = (0..32)
                .map(|seq| render(plan.roll(layer, from, to, kind, seq)))
                .collect();
            assert_eq!(got.join(" "), want, "{layer:?} seed {seed} from {from:?}");
        }
    }

    #[test]
    fn rolls_are_deterministic_per_edge() {
        let plan = FaultPlan::chaos(7);
        for layer in [Layer::Message, Layer::Frame] {
            for seq in 0..200 {
                assert_eq!(
                    plan.roll(layer, TM, S1, MsgKind::ExecQuery, seq),
                    plan.roll(layer, TM, S1, MsgKind::ExecQuery, seq),
                );
            }
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
            Layer::Message,
            Peer::Coordinator,
            Peer::Server(ServerId::new(0)),
            MsgKind::ExecQuery,
            0,
        );
        assert_eq!(v, Verdict::Deliver);
        // Matching edge: always dropped.
        let v = plan.roll(
            Layer::Message,
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
                    Layer::Message,
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
    fn each_applicator_ignores_the_other_layers_faults() {
        let plan = edge_plan(EdgeRule {
            reorder_permille: 1000,
            corrupt_permille: 1000,
            ..EdgeRule::default()
        });
        for seq in 0..64 {
            assert!(matches!(
                plan.roll(Layer::Message, TM, S1, MsgKind::Decision, seq),
                Verdict::Delay { reorder: true, .. }
            ));
            assert!(matches!(
                plan.roll(Layer::Frame, TM, S1, MsgKind::Decision, seq),
                Verdict::Corrupt { .. }
            ));
        }
    }

    #[test]
    fn disarmed_fabric_delivers_and_never_crashes() {
        let fabric = Fabric::default();
        let v = fabric.verdict(Layer::Frame, TM, S1, MsgKind::Decision, 0);
        assert_eq!(v, Verdict::Deliver);
        let point = CrashPoint::AfterSend(MsgKind::CommitReply);
        assert!(!fabric.take_crash(ServerId::new(0), point));
    }

    #[test]
    fn armed_crash_rules_fire_once_and_disarm_clears() {
        let fabric = Fabric::default();
        let point = CrashPoint::AfterSend(MsgKind::CommitReply);
        fabric.arm(FaultPlan {
            seed: 0,
            rules: Vec::new(),
            crashes: vec![CrashRule {
                server: ServerId::new(1),
                point,
            }],
        });
        assert!(!fabric.take_crash(ServerId::new(0), point));
        assert!(fabric.take_crash(ServerId::new(1), point));
        assert!(!fabric.take_crash(ServerId::new(1), point));
        fabric.disarm();
        assert_eq!(
            fabric.verdict(Layer::Message, TM, S1, MsgKind::Decision, 0),
            Verdict::Deliver
        );
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
        assert!((ra.drop_permille, ra.corrupt_permille) != (rb.drop_permille, rb.corrupt_permille));
        for plan in [a, b] {
            let r = plan.rules[0];
            assert!(r.drop_permille <= 30);
            assert!(r.duplicate_permille <= 30);
            assert!(r.reorder_permille <= 30);
            assert!(r.delay_max_us <= 2000);
            assert!(r.corrupt_permille <= 20);
            assert!(r.truncate_permille <= 10);
            assert!(r.disconnect_permille <= 10);
        }
    }
}
