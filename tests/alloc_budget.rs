//! Allocation budget of the camera path, in tier-1.
//!
//! `Pipeline` builds its encoder and decoder on one `BufferPool`, so
//! the frames the decoder's history evicts come back to the encoder,
//! and it refills one policy context from the task's feedback instead
//! of cloning it. This test runs a 256x192 pose sequence through
//! `PipelineCapture` + `PoseTask` in the executor's loop shape and,
//! after warm-up, holds a window of frames to at most 5 allocations a
//! frame: the decoded plane the task takes, the policy's `RegionList`,
//! and the task's three vectors (scored detections, ground truth and
//! the feedback it hands on).
//!
//! A second test holds the decoder alone to its one allocation a frame:
//! on a pool shared with the encoder, a warm `SoftwareDecoder` whose
//! planes are dropped allocates exactly its plane per frame, over
//! full-frame, stride-2 and skipped pose frames, and the encoder none.
//!
//! A third holds the pipeline's three measurement recorders (traffic,
//! framebuffer footprint, region statistics) to no allocation at all
//! over 10,000 warm frames: they keep running totals, not per-frame
//! logs, so a camera's accounting does not grow with its uptime.
//!
//! It lives in its own test binary because the tallying allocator is
//! process-wide: other tests' allocations would bleed into the tally.
//! The tests here take one lock, so they never overlap either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rhythmic_pixel_regions::core::{
    BufferPool, EncoderConfig, ReconstructionMode, RegionLabel, RegionList, RhythmicEncoder,
    SoftwareDecoder,
};
use rhythmic_pixel_regions::frame::GrayFrame;
use rhythmic_pixel_regions::memsim::{FrameTraffic, FramebufferPool, TrafficRecorder};
use rhythmic_pixel_regions::stream::{CaptureStage, Feedback, TaskStage};
use rhythmic_pixel_regions::workloads::datasets::VideoDataset;
use rhythmic_pixel_regions::workloads::{
    Baseline, PipelineCapture, PipelineConfig, PoseDataset, PoseTask, RegionStatsCollector,
};

/// Passes through to the system allocator, counting every allocation
/// and reallocation (frees are not counted).
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

/// Held by each test for its whole run, so one test's allocations
/// never land in the other's tally.
static SERIAL: Mutex<()> = Mutex::new(());

const W: u32 = 256;
const H: u32 = 192;
/// Seventeen policy cycles (`Rp { cycle_length: 5 }`). The shared
/// buffers settle within four; the rest runs the pipeline's one
/// per-frame log (the captured-fraction series), which grows by
/// doubling, past its 64-entry growth, so the first windows hold no
/// amortized growth.
const WARMUP: usize = 85;
const WINDOW: usize = 20;
const WINDOWS: usize = 5;
/// Per frame: the decoded plane, the `RegionList`, and the task's
/// scored detections, ground-truth boxes and feedback vector.
const BUDGET_PER_FRAME: u64 = 5;

#[test]
fn pose_camera_path_stays_within_five_allocations_per_frame() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let frames_total = WARMUP + WINDOW * WINDOWS;
    let ds = PoseDataset::new(W, H, frames_total, 7);
    // Rendered up front, so frame synthesis stays out of the tally.
    let frames: Vec<GrayFrame> = (0..frames_total).map(|i| ds.frame(i)).collect();
    let mut frames = frames.into_iter();
    let cfg = PipelineConfig::new(W, H, Baseline::Rp { cycle_length: 5 });
    let mut capture = PipelineCapture::new(cfg);
    let mut task = PoseTask::new(&ds);
    let mut feedback = Feedback::empty();
    let mut idx = 0u64;
    // The loop `run_sync` and each executor stream run.
    let mut step = |n: usize| {
        for frame in frames.by_ref().take(n) {
            let out = capture.process(frame, &feedback, false);
            feedback = task.consume(idx, out);
            idx += 1;
        }
    };

    step(WARMUP);
    // The tally is process-wide, so the test harness can rarely add a
    // stray allocation. A per-frame excess shows in every window; one
    // clean window in five is required.
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        step(WINDOW);
        let grew = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        windows.push(grew);
        if grew <= BUDGET_PER_FRAME * WINDOW as u64 {
            return;
        }
    }
    panic!(
        "the pose camera path allocated {windows:?} times in {WINDOWS} windows of {WINDOW} \
         frames; the budget is {BUDGET_PER_FRAME} a frame ({} a window)",
        BUDGET_PER_FRAME * WINDOW as u64
    );
}

#[test]
fn warm_decoder_allocates_only_its_plane_on_pose_frames() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ds = PoseDataset::new(W, H, 8, 11);
    let frames: Vec<GrayFrame> = (0..8).map(|i| ds.frame(i)).collect();
    let full = RegionList::full_frame(W, H);
    let body = RegionList::new(W, H, vec![RegionLabel::new(61, 17, 130, 150, 2, 2)])
        .expect("in-frame region");
    let kinds = [&full, &body, &body];
    let pool = BufferPool::new();
    let mut enc = RhythmicEncoder::with_pool(W, H, EncoderConfig::default(), pool.clone());
    let mut dec = SoftwareDecoder::with_pool(W, H, ReconstructionMode::BlockNearest, pool);
    let mut idx = 0u64;
    // One frame through the pair, the plane dropped as the task drops
    // it; returns the (encode, decode) allocation counts.
    let mut step = || {
        let frame = &frames[idx as usize % frames.len()];
        // Every third frame is a full capture; the others carry the
        // skip-2 region, sampled on even frame indices, skipped on odd.
        let regions = kinds[idx as usize % 3];
        let a = ALLOC_CALLS.load(Ordering::Relaxed);
        let encoded = enc.encode(frame, idx, regions);
        let b = ALLOC_CALLS.load(Ordering::Relaxed);
        drop(dec.decode_owned(encoded));
        let c = ALLOC_CALLS.load(Ordering::Relaxed);
        idx += 1;
        (b - a, c - b)
    };
    for _ in 0..24 {
        step();
    }
    // As above: one clean window in five.
    const FRAMES: u64 = 30;
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let mut tally = (0, 0);
        for _ in 0..FRAMES {
            let (e, d) = step();
            tally = (tally.0 + e, tally.1 + d);
        }
        windows.push(tally);
        if tally == (0, FRAMES) {
            return;
        }
    }
    panic!(
        "(encode, decode) allocations in {WINDOWS} windows of {FRAMES} pose frames: {windows:?}; \
         want no encode allocations and exactly one decoded plane per frame"
    );
}

#[test]
fn warm_recorders_allocate_nothing_over_ten_thousand_frames() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const FRAMES: u64 = 10_000;
    let full = RegionList::full_frame(W, H);
    let body = RegionList::new(W, H, vec![RegionLabel::new(61, 17, 130, 150, 2, 2)])
        .expect("in-frame region");
    // Each attempt builds fresh recorders, so a per-frame log would
    // grow (by doubling) inside every attempt's 10,000 frames. As
    // above, one clean attempt in five is required.
    let mut attempts = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let mut traffic = TrafficRecorder::new(30.0);
        let mut footprint = FramebufferPool::new(4);
        let mut stats = RegionStatsCollector::new(30.0);
        // The shape of `Pipeline`'s per-frame record: a full capture
        // every fifth frame, one strided region in between.
        let mut step = |i: u64| {
            let is_full = i.is_multiple_of(5);
            let payload = if is_full { u64::from(W * H) } else { 65 * 75 };
            let metadata = u64::from(W * H) / 4 + i % 7;
            traffic.record_frame(FrameTraffic::written_and_read(payload, metadata));
            footprint.admit_raw(payload + metadata);
            stats.observe(if is_full { &full } else { &body }, is_full);
        };
        // Warm: fill the footprint window.
        for i in 0..8 {
            step(i);
        }
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for i in 8..8 + FRAMES {
            step(i);
        }
        let grew = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        attempts.push(grew);
        if grew == 0 {
            assert_eq!(traffic.summary().frames, 8 + FRAMES);
            return;
        }
    }
    panic!(
        "the traffic, footprint and region-stats recorders allocated {attempts:?} times over \
         {FRAMES} warm frames in {WINDOWS} attempts; want 0: they keep running totals"
    );
}
