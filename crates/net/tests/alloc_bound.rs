//! A decoded count is a claim, not an allocation size.
//!
//! A sequence's `u32` count is only checked against the bytes left in the
//! payload, and an element can be far larger in memory than the one byte
//! that check allows it on the wire. So the decoder must not reserve
//! `count × size_of::<T>()` up front: a 1 MiB `Begin` whose credential
//! count claims 2²⁰ would reserve 96 MiB before failing `Truncated`, and
//! at `MAX_FRAME_LEN` about 1.5 GiB. This test decodes that payload under
//! a counting allocator and bounds the largest single allocation.

use safetx_core::Msg;
use safetx_net::{decode_msg, encode_msg, WireError};
use safetx_txn::TransactionSpec;
use safetx_types::{TxnId, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest single allocation (or reallocation) since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; recording a size in an atomic has no
// effect on the memory returned. A test crate is the only way to observe
// the allocations the decoder makes, hence the `unsafe impl` here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `ptr`, `layout`
        // and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees on `ptr` and
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_huge_credential_count_reserves_no_more_than_the_payload_decodes() {
    const CLAIMED: u32 = 1 << 20;
    // A `Begin` with no queries and no credentials ends in the credential
    // count: claim 2²⁰ and back the claim with 1 MiB of zeros, enough for
    // the count check but for only ~18 700 (56-byte) credentials.
    let mut payload = encode_msg(&Msg::Begin {
        spec: TransactionSpec::new(TxnId::new(0), UserId::new(0), vec![]),
        credentials: vec![],
    });
    let count_at = payload.len() - 4;
    payload[count_at..].copy_from_slice(&CLAIMED.to_le_bytes());
    payload.resize(payload.len() + CLAIMED as usize, 0);

    LARGEST.store(0, Ordering::Relaxed);
    let verdict = decode_msg(&payload).map(|_| ());
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(verdict, Err(WireError::Truncated));
    assert!(
        largest <= 4 * payload.len(),
        "decoding a {} B payload made a {largest} B allocation",
        payload.len()
    );
}
