//! A counting global allocator: the system allocator plus two counters
//! that only move while armed. It is armed around `Session::execute` in
//! traced passes and nowhere else, so the untraced window pays one relaxed
//! load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed throughout: the counters are statistics and publish no other data.
static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow counts as one allocation of the added bytes.
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes and calls allocated, on any thread, while `f` runs.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (bytes, count) = (BYTES.load(Ordering::Relaxed), COUNT.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (
        out,
        BYTES.load(Ordering::Relaxed) - bytes,
        COUNT.load(Ordering::Relaxed) - count,
    )
}
