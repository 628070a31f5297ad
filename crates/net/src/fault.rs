//! Deterministic, seeded transport fault injection for the socket runtime.
//!
//! The threaded cluster's [`FaultPlan`] perturbs messages as in-memory
//! objects; this module perturbs them as *bytes on a stream*. A
//! [`NetFaultPlan`] carries the same per-edge rule / seeded-splitmix64
//! shape (drop, duplicate, delay) plus the faults only a wire can suffer:
//! payload byte corruption, mid-frame truncation, and hard disconnects.
//! Every stream write in [`crate::NetCluster`] and [`crate::ServerHost`]
//! funnels through a `NetFabric` choke point; when no plan is armed the
//! choke point is one relaxed atomic load, so a faults-disabled run is
//! byte-identical in behaviour to a build without the layer.
//!
//! # Determinism
//!
//! As in the channel fabric, every probabilistic decision is a pure
//! function of `(plan seed, edge, edge-local sequence number, message
//! kind)` via splitmix64 — per-edge fault patterns are replayable by seed
//! even though thread and socket timing are not.
//!
//! # Corruption is always detectable
//!
//! The codec is length-prefixed with no checksum, so an arbitrary bit
//! flip *could* decode into a different valid message — which would be a
//! silent payload mutation no commit protocol can survive. Real links
//! don't work that way: Ethernet/TCP checksums turn almost every flip
//! into a *detected* loss. `corrupt_payload` models that contract: it
//! flips a seeded payload bit and, if the mutated bytes still decode, it
//! additionally clobbers the version byte so the receiver always observes
//! a [`WireError`] (counted as a decode error, mapped to the reply
//! deadline) and never a forged protocol message.
//!
//! [`FaultPlan`]: safetx_runtime::FaultPlan
//! [`WireError`]: crate::WireError

use crate::wire::decode_msg;
use safetx_metrics::FaultCounters;
use safetx_runtime::{CrashPoint, CrashRule, MsgKind, Peer, PeerMatch};
use safetx_types::ServerId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Duration;

/// A per-edge probabilistic transport fault rule. Probabilities are in
/// permille; a frame is subject to the *first* rule whose `from`/`to`
/// matchers cover its edge (same first-match semantics as the threaded
/// [`EdgeRule`](safetx_runtime::EdgeRule)).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetEdgeRule {
    /// Sender matcher.
    pub from: PeerMatch,
    /// Receiver matcher.
    pub to: PeerMatch,
    /// Chance the frame is silently dropped (never written).
    pub drop_permille: u32,
    /// Chance the frame is written twice back-to-back.
    pub duplicate_permille: u32,
    /// Chance the frame is held back before being written. On a FIFO
    /// stream this delays everything behind it too — head-of-line
    /// blocking, which is exactly what a slow link does.
    pub delay_permille: u32,
    /// Lower bound of the injected delay, microseconds.
    pub delay_min_us: u64,
    /// Upper bound of the injected delay, microseconds.
    pub delay_max_us: u64,
    /// Chance the frame's payload is bit-flipped (always detected by the
    /// receiver's decoder; see the module docs).
    pub corrupt_permille: u32,
    /// Chance the frame is cut off mid-write and the stream killed — the
    /// receiver sees a framing desync / unexpected EOF.
    pub truncate_permille: u32,
    /// Chance the stream is hard-closed instead of carrying the frame.
    pub disconnect_permille: u32,
}

/// A complete seeded transport fault schedule for one net-cluster run.
///
/// Crash rules reuse the threaded runtime's [`CrashRule`]: the victim is
/// a [`ServerHost`](crate::ServerHost), and the protocol
/// moments ([`CrashPoint`]) are interpreted against the frames it
/// receives and sends.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Seed for every probabilistic roll.
    pub seed: u64,
    /// Probabilistic per-edge rules (first match wins).
    pub rules: Vec<NetEdgeRule>,
    /// Fire-once server crash points.
    pub crashes: Vec<CrashRule>,
}

impl NetFaultPlan {
    /// A ready-made chaos mix mirroring [`FaultPlan::chaos`]: one
    /// `Any → Any` rule whose probabilities derive from `seed`.
    /// Drop/duplicate stay ≤ 3%, delays ≤ 2 ms, corruption ≤ 2%, and the
    /// stream-killing faults (truncate, disconnect) ≤ 1% each so runs
    /// with a sane reply timeout and bounded reconnect budget still make
    /// progress.
    ///
    /// [`FaultPlan::chaos`]: safetx_runtime::FaultPlan::chaos
    #[must_use]
    pub fn chaos(seed: u64) -> NetFaultPlan {
        let r = |salt: u64, modulo: u64| splitmix64(seed ^ salt.wrapping_mul(0x9e37_79b9)) % modulo;
        NetFaultPlan {
            seed,
            rules: vec![NetEdgeRule {
                from: PeerMatch::Any,
                to: PeerMatch::Any,
                drop_permille: r(1, 31) as u32,
                duplicate_permille: r(2, 31) as u32,
                delay_permille: 20 + r(3, 60) as u32,
                delay_min_us: 20,
                delay_max_us: 200 + r(4, 1800),
                corrupt_permille: r(5, 21) as u32,
                truncate_permille: r(6, 11) as u32,
                disconnect_permille: r(7, 11) as u32,
            }],
            crashes: Vec::new(),
        }
    }

    /// The fault decision for one frame on `from → to`, given the
    /// edge-local sequence number of that frame. Same base-hash shape as
    /// the threaded fabric so edges roll identically across runtimes.
    pub(crate) fn roll(&self, from: Peer, to: Peer, kind: MsgKind, seq: u64) -> NetVerdict {
        let Some(rule) = self
            .rules
            .iter()
            .find(|r| r.from.matches(from) && r.to.matches(to))
        else {
            return NetVerdict::Deliver;
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
            return NetVerdict::Drop;
        }
        if sub(2) % 1000 < u64::from(rule.duplicate_permille) {
            return NetVerdict::Duplicate;
        }
        if sub(3) % 1000 < u64::from(rule.delay_permille) {
            let span = rule.delay_max_us.saturating_sub(rule.delay_min_us) + 1;
            let us = rule.delay_min_us + sub(4) % span;
            return NetVerdict::Delay(Duration::from_micros(us));
        }
        if sub(5) % 1000 < u64::from(rule.corrupt_permille) {
            return NetVerdict::Corrupt { roll: sub(6) };
        }
        if sub(7) % 1000 < u64::from(rule.truncate_permille) {
            return NetVerdict::Truncate { roll: sub(8) };
        }
        if sub(9) % 1000 < u64::from(rule.disconnect_permille) {
            return NetVerdict::Disconnect;
        }
        NetVerdict::Deliver
    }
}

/// What the frame-layer choke point does with one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetVerdict {
    /// Write the frame as-is.
    Deliver,
    /// Never write the frame (silent loss).
    Drop,
    /// Write the frame twice back-to-back.
    Duplicate,
    /// Sleep, then write the frame (head-of-line blocking).
    Delay(Duration),
    /// Flip payload bits (guaranteed-detectable; see module docs).
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

/// Flips one seeded payload bit, then guarantees the receiver's decoder
/// refuses the result: if the mutated payload still decodes (the codec
/// has no checksum), the version byte is clobbered too — modeling a
/// link-layer CRC that converts corruption into detected loss.
pub(crate) fn corrupt_payload(payload: &mut [u8], roll: u64) {
    if payload.is_empty() {
        return;
    }
    let pos = (roll as usize) % payload.len();
    let bit = 1u8 << ((roll >> 32) % 8);
    payload[pos] ^= bit;
    if decode_msg(payload).is_ok() {
        payload[0] ^= 0x80;
    }
}

/// The cut point for a truncated frame of `total` bytes: a strict prefix
/// length in `[1, total - 1]` (partial length prefix or partial payload,
/// both desync the receiver's framing).
pub(crate) fn truncate_len(total: usize, roll: u64) -> usize {
    debug_assert!(total >= 2);
    1 + (roll as usize) % (total - 1)
}

/// An armed plan plus its fire-once crash flags (mirror of the threaded
/// `ArmedPlan`).
struct ArmedNetPlan {
    plan: NetFaultPlan,
    fired: Vec<AtomicBool>,
}

impl ArmedNetPlan {
    fn new(plan: NetFaultPlan) -> ArmedNetPlan {
        let fired = plan
            .crashes
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect();
        ArmedNetPlan { plan, fired }
    }

    fn take_crash(
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

/// Lock-free transport-fault counters, merged into
/// [`safetx_metrics::FaultCounters`] by the cluster.
#[derive(Debug, Default)]
pub(crate) struct NetFaultStats {
    pub(crate) dropped: AtomicU64,
    pub(crate) delayed: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) corrupted: AtomicU64,
    pub(crate) truncated: AtomicU64,
    pub(crate) disconnects: AtomicU64,
    /// Hosts torn down by a crash (scheduled or harness-driven).
    pub(crate) server_crashes: AtomicU64,
    /// Hosts rebuilt from their WAL after a crash.
    pub(crate) recoveries: AtomicU64,
}

impl NetFaultStats {
    pub(crate) fn snapshot(&self) -> FaultCounters {
        FaultCounters {
            faults_dropped: self.dropped.load(Ordering::Relaxed),
            faults_delayed: self.delayed.load(Ordering::Relaxed),
            faults_duplicated: self.duplicated.load(Ordering::Relaxed),
            faults_corrupted: self.corrupted.load(Ordering::Relaxed),
            faults_truncated: self.truncated.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            server_crashes: self.server_crashes.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            ..FaultCounters::default()
        }
    }
}

/// The shared frame-layer choke point: every stream write in the net
/// runtime consults this fabric. Disarmed (the default), `verdict` is one
/// relaxed atomic load and an early return.
#[derive(Debug, Default)]
pub(crate) struct NetFabric {
    enabled: AtomicBool,
    armed: RwLock<Option<ArmedNetPlan>>,
    pub(crate) stats: NetFaultStats,
}

impl std::fmt::Debug for ArmedNetPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmedNetPlan")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl NetFabric {
    /// Arms `plan`; subsequent writes roll against it.
    pub(crate) fn arm(&self, plan: NetFaultPlan) {
        *self.armed.write().expect("fabric lock") = Some(ArmedNetPlan::new(plan));
        self.enabled.store(true, Ordering::Release);
    }

    /// Disarms the fabric; writes pass through untouched again.
    pub(crate) fn disarm(&self) {
        self.enabled.store(false, Ordering::Release);
        *self.armed.write().expect("fabric lock") = None;
    }

    /// Whether a plan is armed (one relaxed load).
    pub(crate) fn is_armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The fault decision for one outbound frame.
    pub(crate) fn verdict(&self, from: Peer, to: Peer, kind: MsgKind, seq: u64) -> NetVerdict {
        if !self.enabled.load(Ordering::Relaxed) {
            return NetVerdict::Deliver;
        }
        let guard = self.armed.read().expect("fabric lock");
        match guard.as_ref() {
            Some(armed) => armed.plan.roll(from, to, kind, seq),
            None => NetVerdict::Deliver,
        }
    }

    /// Consumes (at most once) a crash rule for `server` matching `pred`.
    pub(crate) fn take_crash(
        &self,
        server: ServerId,
        pred: impl Fn(CrashPoint) -> bool,
    ) -> Option<CrashPoint> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let guard = self.armed.read().expect("fabric lock");
        guard
            .as_ref()
            .and_then(|armed| armed.take_crash(server, pred))
    }
}

/// splitmix64 — local copy of the runtime crate's seeded generator (the
/// original is crate-private; the constants must stay in lockstep so the
/// same seed explores comparable intensities across fabrics).
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_msg;
    use safetx_core::Msg;
    use safetx_types::TxnId;

    #[test]
    fn rolls_are_deterministic_per_edge() {
        let plan = NetFaultPlan::chaos(7);
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
    fn chaos_plans_differ_by_seed_and_stay_bounded() {
        let a = NetFaultPlan::chaos(1);
        let b = NetFaultPlan::chaos(2);
        assert!(
            (a.rules[0].drop_permille, a.rules[0].corrupt_permille)
                != (b.rules[0].drop_permille, b.rules[0].corrupt_permille)
        );
        for plan in [a, b] {
            let r = plan.rules[0];
            assert!(r.drop_permille <= 30);
            assert!(r.duplicate_permille <= 30);
            assert!(r.delay_max_us <= 2000);
            assert!(r.corrupt_permille <= 20);
            assert!(r.truncate_permille <= 10);
            assert!(r.disconnect_permille <= 10);
        }
    }

    #[test]
    fn corruption_is_always_refused_by_the_decoder() {
        let msgs = [
            Msg::Ack { txn: TxnId::new(7) },
            Msg::Inquiry {
                txn: TxnId::new(9),
                from_server: ServerId::new(0),
            },
        ];
        for msg in &msgs {
            for roll in 0..512u64 {
                let mut payload = encode_msg(msg);
                corrupt_payload(&mut payload, splitmix64(roll));
                assert!(
                    decode_msg(&payload).is_err(),
                    "corrupted payload decoded: roll {roll}"
                );
            }
        }
    }

    #[test]
    fn truncation_always_yields_a_strict_prefix() {
        for total in 2..64 {
            for roll in 0..64u64 {
                let cut = truncate_len(total, roll);
                assert!(cut >= 1 && cut < total, "cut {cut} of {total}");
            }
        }
    }

    #[test]
    fn disarmed_fabric_delivers_and_never_crashes() {
        let fabric = NetFabric::default();
        let v = fabric.verdict(
            Peer::Coordinator,
            Peer::Server(ServerId::new(0)),
            MsgKind::Decision,
            0,
        );
        assert_eq!(v, NetVerdict::Deliver);
        assert!(fabric.take_crash(ServerId::new(0), |_| true).is_none());
    }

    #[test]
    fn armed_crash_rules_fire_once_and_disarm_clears() {
        let fabric = NetFabric::default();
        fabric.arm(NetFaultPlan {
            seed: 0,
            rules: Vec::new(),
            crashes: vec![CrashRule {
                server: ServerId::new(1),
                point: CrashPoint::AfterSend(MsgKind::CommitReply),
            }],
        });
        let pred = |p: CrashPoint| p == CrashPoint::AfterSend(MsgKind::CommitReply);
        assert!(fabric.take_crash(ServerId::new(0), pred).is_none());
        assert!(fabric.take_crash(ServerId::new(1), pred).is_some());
        assert!(fabric.take_crash(ServerId::new(1), pred).is_none());
        fabric.disarm();
        assert_eq!(
            fabric.verdict(
                Peer::Coordinator,
                Peer::Server(ServerId::new(0)),
                MsgKind::Decision,
                0
            ),
            NetVerdict::Deliver
        );
    }
}
