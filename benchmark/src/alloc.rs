//! Heap accounting for the benchmark process: a counting global allocator
//! that tracks allocation calls, live bytes and the peak of live bytes.
//!
//! `jaws_bench::alloc_counter` counts allocation calls only; `peak_heap_mb`
//! needs live and peak bytes as well, so the benchmark carries its own
//! wrapper. All counters are statistics read between replays, so relaxed
//! atomics suffice: no other data is published through them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Set while the benchmark's own reference work runs; see [`untracked`].
static UNTRACKED: AtomicBool = AtomicBool::new(false);

/// [`System`] wrapper that counts `alloc`/`alloc_zeroed`/`realloc` calls and
/// tracks live and peak heap bytes.
pub struct Tracking;

fn grew(bytes: usize) {
    if UNTRACKED.load(Relaxed) {
        return;
    }
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    if !UNTRACKED.load(Relaxed) {
        LIVE.fetch_sub(bytes, Relaxed);
    }
}

fn counted() {
    if !UNTRACKED.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the additions only update atomic
// counters, which cannot violate any allocator invariant.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            counted();
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

/// Allocation calls since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Highest live heap size since process start or the last [`reset_peak`], in
/// bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live heap size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Runs `f` with the heap accounting paused, for the benchmark's own
/// reference work. A block allocated inside such a call must be freed inside
/// one too, and `f` must free no block allocated outside them. No other
/// thread may allocate meanwhile; the jaws-par workers are idle between
/// replays.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    UNTRACKED.store(true, Relaxed);
    let r = f();
    UNTRACKED.store(false, Relaxed);
    r
}
