//! Counting global allocator: live heap, its high-water mark and the
//! number of allocations, per thread.
//!
//! The benchmark drives the serial engine from one thread, so the
//! calling thread's counters cover the whole simulation. Counters are
//! thread-local `Cell`s: no atomics on the allocation path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// `System` plus the counters above.
pub struct Counting;

#[inline]
fn grow(bytes: u64) {
    let live = LIVE.with(|c| {
        let v = c.get() + bytes;
        c.set(v);
        v
    });
    PEAK.with(|p| {
        if live > p.get() {
            p.set(live)
        }
    });
}

#[inline]
fn shrink(bytes: u64) {
    LIVE.with(|c| c.set(c.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only thread-local counters and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        grow(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        shrink(layout.size() as u64);
        grow(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restarts the high-water mark from the current live size and returns
/// that size (the baseline the next [`peak`] is measured against).
pub fn reset_peak() -> u64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.with(Cell::get)
}
