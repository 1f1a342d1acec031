//! Allocation-discipline regression (ISSUE 7 satellite 3): once the
//! [`BufferPool`] is warm, the pooled encode→decode loop must be
//! zero-alloc per frame. A tallying global allocator counts every
//! `alloc`/`realloc` the process makes; the steady-state window after
//! warmup must count zero.
//!
//! This lives in its own integration-test binary because the global
//! allocator is process-wide — sharing it with other tests would let
//! their allocations bleed into the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rpr_core::{
    BufferPool, EncoderConfig, ReconstructionMode, RegionLabel, RegionList, RhythmicEncoder,
    SoftwareDecoder,
};
use rpr_frame::{GrayFrame, Plane};

/// Passes through to the system allocator, counting every allocation
/// and reallocation (frees are free: returning a pooled buffer must
/// not count against the discipline).
struct TallyingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// rpr-check: allow(unsafe-block): implementing GlobalAlloc is inherently unsafe; this test-only shim adds a counter and delegates straight to System
unsafe impl GlobalAlloc for TallyingAllocator {
    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::alloc
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) } // rpr-check: allow(unsafe-block): forwards the caller's own safety contract to System
    }

    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::dealloc
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) } // rpr-check: allow(unsafe-block): forwards the caller's own safety contract to System
    }

    // rpr-check: allow(unsafe-block): required signature of GlobalAlloc::realloc
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) } // rpr-check: allow(unsafe-block): forwards the caller's own safety contract to System
    }
}

#[global_allocator]
static GLOBAL: TallyingAllocator = TallyingAllocator;

fn textured_frame(w: u32, h: u32, seed: u32) -> GrayFrame {
    Plane::from_fn(w, h, |x, y| (x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ seed) as u8)
}

/// Mixed-rhythm region set exercising every status class per frame:
/// full-rate, strided, and temporally skipped regions.
fn regions(w: u32, h: u32) -> RegionList {
    RegionList::new_lossy(
        w,
        h,
        vec![
            RegionLabel::new(2, 2, w / 2, h / 2, 1, 1),
            RegionLabel::new(w / 3, h / 3, w / 2, h / 2, 2, 1),
            RegionLabel::new(0, h / 2, w, h / 4, 1, 2),
        ],
    )
}

#[test]
fn steady_state_encode_decode_is_zero_alloc() {
    let (w, h) = (64u32, 48u32);
    let pool = BufferPool::new();
    let regions = regions(w, h);
    let mut enc = RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
    let mut dec =
        SoftwareDecoder::with_pool(w, h, ReconstructionMode::BlockNearest, pool.clone());

    // Pre-build input frames so frame synthesis cannot allocate inside
    // the measured window.
    let frames: Vec<GrayFrame> = (0..4).map(|i| textured_frame(w, h, i)).collect();

    // Warmup: size the pool's buffers and every internal scratch
    // vector. Several passes over the inputs so both the encoder's and
    // the decoder's reuse paths have seen every shape they will see
    // again — including the post-eviction mix once the depth-4 history
    // starts recycling (its first eviction is at the fifth frame, and
    // the pool pops LIFO, so buffers may still grow for a few frames
    // after that while sizes shake out).
    for idx in 0..16u64 {
        let frame = &frames[(idx % 4) as usize];
        let encoded = enc.encode(frame, idx, &regions);
        let out = dec.decode_owned(encoded);
        dec.recycle_output(out);
    }

    // The tally is process-wide, so runtime machinery outside the loop
    // (test harness threads, lazy std init) can rarely contribute a
    // stray allocation. Measure independent 32-frame windows and
    // require at least one to be exactly zero: a real per-frame leak
    // allocates in EVERY window (≥32 calls), so it can never pass,
    // while unrelated one-off noise cannot flake the assertion.
    let mut idx = 16u64;
    let mut grew = u64::MAX;
    for _ in 0..5 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for _ in 0..32 {
            let frame = &frames[(idx % 4) as usize];
            let encoded = enc.encode(frame, idx, &regions);
            let out = dec.decode_owned(encoded);
            dec.recycle_output(out);
            idx += 1;
        }
        grew = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        if grew == 0 {
            break;
        }
    }

    let stats = pool.stats();
    assert_eq!(
        grew, 0,
        "steady-state encode/decode kept allocating: {grew} heap allocations \
         in the last of five 32-frame windows (pool stats: {stats:?})"
    );
    // The loop really did go through the pool, not around it.
    assert!(stats.gets > 0, "pool was never used: {stats:?}");
}

/// The `Pipeline` shape: encoder and decoder share one pool, but the
/// decoded plane goes to the task and is dropped, never recycled. The
/// buffers the history evicts still come back to the encoder, so
/// encoding allocates nothing and each decode allocates exactly its
/// output plane.
#[test]
fn dropped_output_planes_cost_one_allocation_per_decode_and_none_per_encode() {
    let (w, h) = (64u32, 48u32);
    let pool = BufferPool::new();
    let regions = regions(w, h);
    let mut enc = RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
    let mut dec =
        SoftwareDecoder::with_pool(w, h, ReconstructionMode::BlockNearest, pool.clone());
    let frames: Vec<GrayFrame> = (0..4).map(|i| textured_frame(w, h, i)).collect();

    let mut idx = 0u64;
    // One frame through the pair, the plane dropped; returns the
    // (encode, decode) allocation counts.
    let mut step = || {
        let frame = &frames[(idx % 4) as usize];
        let a = ALLOC_CALLS.load(Ordering::Relaxed);
        let encoded = enc.encode(frame, idx, &regions);
        let b = ALLOC_CALLS.load(Ordering::Relaxed);
        drop(dec.decode_owned(encoded));
        let c = ALLOC_CALLS.load(Ordering::Relaxed);
        idx += 1;
        (b - a, c - b)
    };
    for _ in 0..16 {
        step();
    }

    // As above: one clean 32-frame window in five.
    let mut tally = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        tally = (0, 0);
        for _ in 0..32 {
            let (e, d) = step();
            tally = (tally.0 + e, tally.1 + d);
        }
        if tally == (0, 32) {
            break;
        }
    }
    assert_eq!(
        tally,
        (0, 32),
        "(encode, decode) allocations over the last of five 32-frame windows; \
         want none for encode and one output plane per decode (pool stats: {:?})",
        pool.stats()
    );
}
