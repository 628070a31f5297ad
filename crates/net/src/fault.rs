//! The frame-level fault applicator: what `safetx_runtime`'s one
//! [`FaultPlan`] does to bytes on a stream.
//!
//! The channel link perturbs messages as in-memory objects; the socket
//! link perturbs them as *frames*. Every stream write of
//! [`crate::NetCluster`] and [`crate::ServerHost`] funnels through
//! `write_through_fabric`, which rolls the frame against the
//! deployment's [`Fabric`] — same seeded per-edge rules, same drop /
//! duplicate / delay — and adds the faults only a wire can suffer: payload
//! byte corruption, mid-frame truncation, and hard disconnects. When no
//! plan is armed the roll is one relaxed atomic load, so a faults-disabled
//! run is byte-identical in behaviour to a build without the layer.
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

use crate::runtime::EdgeStats;
use crate::wire::{decode_msg, encode_frame, write_frame};
use safetx_core::{Msg, MsgKind};
use safetx_runtime::{Fabric, Layer, Peer, Verdict};
use std::io::Write;

/// What the fault fabric did with one outbound frame.
pub(crate) enum WireFate {
    /// The stream is still usable (frame written, dropped, duplicated…).
    Intact,
    /// The stream must be killed (mid-frame truncation or disconnect).
    Kill,
}

/// The single choke point every stream write funnels through: rolls the
/// frame against the armed fault plan and performs the verdict. Counts
/// frames it actually writes into `stats`; fault decisions are counted on
/// the fabric. `WireFate::Kill` (and any I/O error) means the caller must
/// tear the stream down — the generation-guarded reconnect paths take it
/// from there.
pub(crate) fn write_through_fabric<W: Write>(
    fabric: &Fabric,
    (from, to): (Peer, Peer),
    seq: u64,
    writer: &mut W,
    msg: &Msg,
    stats: &EdgeStats,
) -> std::io::Result<WireFate> {
    match fabric.verdict(Layer::Frame, from, to, MsgKind::of(msg), seq) {
        Verdict::Deliver => stats.note_sent(write_frame(writer, msg)?),
        Verdict::Drop => fabric.count(|c| &mut c.faults_dropped),
        Verdict::Duplicate => {
            fabric.count(|c| &mut c.faults_duplicated);
            let frame = encode_frame(msg);
            for _ in 0..2 {
                writer.write_all(&frame)?;
                stats.note_sent(frame.len());
            }
        }
        // Head-of-line blocking: a FIFO stream delays everything behind
        // the frame too, so there is nothing to reorder.
        Verdict::Delay { by, .. } => {
            fabric.count(|c| &mut c.faults_delayed);
            std::thread::sleep(by);
            stats.note_sent(write_frame(writer, msg)?);
        }
        Verdict::Corrupt { roll } => {
            fabric.count(|c| &mut c.faults_corrupted);
            let mut frame = encode_frame(msg);
            // Past the `u32` length prefix: the receiver must still frame it.
            corrupt_payload(&mut frame[4..], roll);
            writer.write_all(&frame)?;
            stats.note_sent(frame.len());
        }
        Verdict::Truncate { roll } => {
            fabric.count(|c| &mut c.faults_truncated);
            let frame = encode_frame(msg);
            let cut = truncate_len(frame.len(), roll);
            writer.write_all(&frame[..cut])?;
            // Push the partial bytes onto the wire before the kill, so the
            // receiver really observes a mid-frame desync, not a clean cut.
            let _ = writer.flush();
            return Ok(WireFate::Kill);
        }
        Verdict::Disconnect => {
            fabric.count(|c| &mut c.disconnects);
            return Ok(WireFate::Kill);
        }
    }
    Ok(WireFate::Intact)
}

/// Flips one seeded payload bit, then guarantees the receiver's decoder
/// refuses the result: if the mutated payload still decodes (the codec
/// has no checksum), the version byte is clobbered too — modeling a
/// link-layer CRC that converts corruption into detected loss.
fn corrupt_payload(payload: &mut [u8], roll: u64) {
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
fn truncate_len(total: usize, roll: u64) -> usize {
    debug_assert!(total >= 2);
    1 + (roll as usize) % (total - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_msg;
    use safetx_runtime::splitmix64;
    use safetx_types::{ServerId, TxnId};

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
}
