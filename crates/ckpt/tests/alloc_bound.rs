//! Decoding reserves only what its bytes can hold: a payload of B bytes
//! that claims the largest element count its length prefix admits must
//! fail `Truncated` having allocated at most a small constant times B, for
//! every container kind — not `count × size_of::<T>()`.
//!
//! One `#[test]` only: the counting allocator is process-global, and the
//! count is gated on the measuring thread.

use fasda_ckpt::{CkptError, Persist, Reader, Writer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps an atomic counter and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Payload size, bytes.
const B: usize = 1 << 20;

/// A B-byte payload: a length prefix claiming one element per remaining
/// byte (the most `Reader::get_len` admits), then a first element — a
/// string — whose own length runs past the end, then zeros.
fn forged() -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(B - 8);
    w.put_usize(usize::MAX >> 1);
    let mut bytes = w.into_bytes();
    bytes.resize(B, 0);
    bytes
}

/// Bytes allocated while decoding the forged payload as `T`, which must
/// fail `Truncated`.
fn allocated_decoding<T: Persist>() -> u64 {
    let bytes = forged();
    let before = BYTES.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let got = T::load(&mut Reader::new(&bytes, "forged"));
    MEASURING.with(|m| m.set(false));
    let spent = BYTES.load(Ordering::Relaxed) - before;
    assert!(matches!(got, Err(CkptError::Truncated { .. })), "decoding did not fail Truncated");
    drop(got);
    spent
}

#[test]
fn forged_counts_reserve_at_most_a_constant_times_the_payload() {
    // A `String` is 24 bytes in memory, so an unbounded reservation of
    // the claimed count would be ≥ 24 × B.
    let kinds = [
        ("Vec", allocated_decoding::<Vec<String>>()),
        ("VecDeque", allocated_decoding::<VecDeque<String>>()),
        ("HashMap", allocated_decoding::<HashMap<String, u64>>()),
        ("HashSet", allocated_decoding::<HashSet<String>>()),
    ];
    for (kind, spent) in kinds {
        assert!(spent <= 4 * B as u64, "{kind}: {spent} bytes allocated for a {B}-byte payload");
    }
}
