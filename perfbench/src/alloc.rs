//! A tallying global allocator: it passes through to the system
//! allocator and counts every `alloc`/`realloc` the process makes
//! (frees are not counted), the technique of the core crate's
//! `alloc_discipline` test. The count is process-wide, so a per-layer
//! tally is exact only while one thread runs — which is how the traced
//! driver calls the layers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct TallyingAllocator;

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method adds to a counter and forwards its arguments
// unchanged to `System`, so the caller's contract passes straight
// through to an allocator that honours it.
// rpr-check: allow(unsafe-block): implementing GlobalAlloc is inherently unsafe; this shim adds a counter and delegates straight to System
unsafe impl GlobalAlloc for TallyingAllocator {
    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::alloc
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) } // rpr-check: allow(unsafe-block): forwards the caller's own safety contract to System
    }

    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::dealloc
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) } // rpr-check: allow(unsafe-block): forwards the caller's own safety contract to System
    }

    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::realloc
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) } // rpr-check: allow(unsafe-block): forwards the caller's own safety contract to System
    }
}

#[global_allocator]
static GLOBAL: TallyingAllocator = TallyingAllocator;

/// Heap allocations (including reallocations) since process start.
pub fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_reallocations() {
        let before = allocations();
        let mut v: Vec<u64> = Vec::with_capacity(1);
        v.extend(0..1024);
        std::hint::black_box(&v);
        // One allocation plus at least one growth.
        assert!(allocations() - before >= 2);
    }
}
