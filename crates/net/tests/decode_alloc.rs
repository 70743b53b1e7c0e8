//! Decoding a hostile frame allocates no more than the frame itself.
//!
//! A collection's length prefix is bounded by the bytes left in the
//! frame, but an element can be far larger in memory than on the wire:
//! an `Envelope<AwcMessage>` is 56 bytes in memory. Presizing from the
//! prefix alone, a maximal `Deliver` frame whose `msgs` length equals
//! its remaining bytes would reserve room for that many envelopes,
//! 896 MiB at once, before its first element fails to decode. A
//! counting global allocator records the largest single request made
//! while such a frame decodes.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running concurrently would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use discsp_awc::AwcMessage;
use discsp_core::Wire;
use discsp_net::{RunFrame, MAX_FRAME_LEN};

struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// plain atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_maximal_deliver_frame_decodes_within_its_own_size() {
    // Header, tick and an empty `msgs` vector; the empty vector's
    // 4-byte length is replaced by one naming every byte that follows.
    let mut frame = Vec::new();
    RunFrame::<AwcMessage>::Deliver {
        tick: 0,
        msgs: Vec::new(),
    }
    .encode(&mut frame);
    frame.truncate(frame.len() - 4);
    let body = MAX_FRAME_LEN as usize - frame.len() - 4;
    (body as u32).encode(&mut frame);
    // 0xFF bytes: the first envelope fails on its message tag.
    frame.resize(MAX_FRAME_LEN as usize, 0xFF);

    ENABLED.store(true, Ordering::Relaxed);
    let decoded = RunFrame::<AwcMessage>::from_bytes(&frame);
    ENABLED.store(false, Ordering::Relaxed);

    assert!(decoded.is_err(), "the hostile frame must not decode");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= frame.len(),
        "decoding a {}-byte frame made a {largest}-byte allocation",
        frame.len()
    );
}
