//! A counting `#[global_allocator]`: every allocation of the harness
//! process — engines, servers and routers run in-process — adds to two
//! relaxed counters. Allocations per op repeat exactly on the in-process
//! workloads, so they explain `ops_per_s` without a clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since the process started. A `realloc`
/// counts as one allocation of the bytes it grows by.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_count_allocations_and_growth() {
        let (c0, b0) = totals();
        let mut v: Vec<u8> = Vec::with_capacity(1_000);
        std::hint::black_box(&mut v);
        let (c1, b1) = totals();
        assert!(c1 > c0, "with_capacity allocates");
        assert!(b1 - b0 >= 1_000);
        v.reserve_exact(5_000);
        std::hint::black_box(&mut v);
        let (c2, b2) = totals();
        assert!(c2 > c1, "growing reallocates");
        assert!(b2 - b1 >= 4_000, "and counts the growth, got {}", b2 - b1);
    }
}
