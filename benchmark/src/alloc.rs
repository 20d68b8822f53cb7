//! Allocation counting for the traced run.
//!
//! [`CountingAlloc`] wraps the system allocator and bumps one relaxed atomic
//! per `alloc`/`realloc` while [`set_counting`] is on. The binary installs
//! it with `#[global_allocator]`; with counting off (every untraced run) the
//! only cost is one relaxed load of a flag nothing writes. Where it is not
//! installed (library tests) [`allocations`] stays at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator.
pub struct CountingAlloc;

#[inline]
fn bump() {
    // Relaxed: a statistic that publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller upholds; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turn counting on (traced run) or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, on every thread of the process.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
