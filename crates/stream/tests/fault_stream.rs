//! Fault injection through the staged stream executor: corrupted
//! encoded frames flowing through the capture stage must surface as
//! typed rejections — never a worker panic (which would poison the
//! whole scope) and never a silently wrong frame delivered to the
//! task — under every backpressure mode, including the lossy
//! `DropOldest` and `Degrade` modes.
//!
//! The capture stages here use skip=1 regions only, so every decode is
//! independent of decoder history; that keeps per-frame assertions
//! sound even when `DropOldest` throws raw frames away.

use rpr_core::{
    EncodedFrame, RegionLabel, RegionList, RhythmicEncoder, SoftwareDecoder,
};
use rpr_frame::GrayFrame;
use rpr_stream::{
    run_stream, BackpressureMode, CaptureStage, Feedback, FrameSource, StreamConfig,
    TaskStage,
};
use rpr_testkit::{gen_frame_with, FramePattern, TestRng, ALL_FAULTS};

const W: u32 = 16;
const H: u32 = 12;
const FRAMES: u64 = 40;
const SEED: u64 = 0xBEEF;

/// Deterministic per-index frame so any stage can recompute the source
/// content from the frame index alone (survives frame drops).
fn frame_for(idx: u64) -> GrayFrame {
    gen_frame_with(&mut TestRng::new(SEED ^ idx), W, H, FramePattern::Gradient)
}

/// Skip=1 regions: no temporally skipped pixels, decode is pure.
fn regions() -> RegionList {
    RegionList::new(
        W,
        H,
        vec![RegionLabel::new(1, 1, 9, 7, 2, 1), RegionLabel::new(6, 4, 10, 8, 1, 1)],
    )
    .unwrap()
}

/// The reference decode of frame `idx`, computed outside the stream.
fn expected_decode(idx: u64) -> GrayFrame {
    let encoded = RhythmicEncoder::new(W, H).encode(&frame_for(idx), idx, &regions());
    SoftwareDecoder::new(W, H).decode(&encoded)
}

struct SeededSource {
    next: u64,
}

impl FrameSource for SeededSource {
    // The frame carries its own source index so the capture stage can
    // key encoding on it even after `DropOldest` evicts frames.
    type Frame = (u64, GrayFrame);
    fn next_frame(&mut self) -> Option<(u64, GrayFrame)> {
        if self.next >= FRAMES {
            return None;
        }
        let f = (self.next, frame_for(self.next));
        self.next += 1;
        Some(f)
    }
}

/// What the capture stage hands the task for each frame.
enum Delivery {
    /// The frame survived DRAM: its decode.
    Decoded(GrayFrame),
    /// The read-back was corrupted and the decoder rejected it.
    Rejected,
}

/// Capture stage that encodes, injects a fault on every `fault_every`th
/// frame (cycling through all fault kinds), and only forwards decodes
/// that passed validation.
struct FaultyCapture {
    encoder: RhythmicEncoder,
    decoder: SoftwareDecoder,
    regions: RegionList,
    fault_every: u64,
    processed: u64,
    injected: u64,
    rejected: u64,
    degraded_seen: u64,
    rng: TestRng,
}

impl FaultyCapture {
    fn new(fault_every: u64) -> Self {
        FaultyCapture {
            encoder: RhythmicEncoder::new(W, H),
            decoder: SoftwareDecoder::new(W, H),
            regions: regions(),
            fault_every,
            processed: 0,
            injected: 0,
            rejected: 0,
            degraded_seen: 0,
            rng: TestRng::new(SEED),
        }
    }

    fn corrupt(&mut self, encoded: &EncodedFrame) -> Option<EncodedFrame> {
        // Cycle the starting kind per injection; skip inapplicable draws.
        let base = (self.injected as usize) % ALL_FAULTS.len();
        for i in 0..ALL_FAULTS.len() {
            let k = ALL_FAULTS[(base + i) % ALL_FAULTS.len()];
            if let Some(bad) = k.inject(encoded, &mut self.rng) {
                return Some(bad);
            }
        }
        None
    }
}

impl CaptureStage for FaultyCapture {
    type Frame = (u64, GrayFrame);
    type Output = (u64, Delivery);
    type Summary = FaultyCaptureSummary;

    fn process(
        &mut self,
        (idx, frame): (u64, GrayFrame),
        _feedback: &Feedback,
        degraded: bool,
    ) -> Self::Output {
        self.processed += 1;
        if degraded {
            self.degraded_seen += 1;
        }
        let encoded = self.encoder.encode(&frame, idx, &self.regions);
        let stored = if self.fault_every > 0 && idx % self.fault_every == self.fault_every - 1 {
            match self.corrupt(&encoded) {
                Some(bad) => {
                    self.injected += 1;
                    bad
                }
                None => encoded.clone(),
            }
        } else {
            encoded.clone()
        };
        match self.decoder.try_decode(&stored) {
            Ok(out) => (idx, Delivery::Decoded(out)),
            Err(_) => {
                self.rejected += 1;
                (idx, Delivery::Rejected)
            }
        }
    }

    fn finish(self) -> FaultyCaptureSummary {
        FaultyCaptureSummary {
            processed: self.processed,
            injected: self.injected,
            rejected: self.rejected,
            degraded_seen: self.degraded_seen,
        }
    }
}

struct FaultyCaptureSummary {
    processed: u64,
    injected: u64,
    rejected: u64,
    degraded_seen: u64,
}

/// Task that checks every delivered decode against the out-of-band
/// reference for its index.
struct CheckingTask {
    decoded_ok: u64,
    rejected: u64,
    mismatches: Vec<u64>,
}

impl CheckingTask {
    fn new() -> Self {
        CheckingTask { decoded_ok: 0, rejected: 0, mismatches: Vec::new() }
    }
}

impl TaskStage for CheckingTask {
    type Input = (u64, Delivery);
    type Output = CheckingTask;

    fn consume(&mut self, _stream_idx: u64, input: Self::Input) -> Feedback {
        let (capture_idx, delivery) = input;
        match delivery {
            Delivery::Decoded(out) => {
                if out == expected_decode(capture_idx) {
                    self.decoded_ok += 1;
                } else {
                    self.mismatches.push(capture_idx);
                }
            }
            Delivery::Rejected => self.rejected += 1,
        }
        Feedback::empty()
    }

    fn finish(self) -> CheckingTask {
        self
    }
}

fn run_with(config: StreamConfig, fault_every: u64) -> (FaultyCaptureSummary, CheckingTask) {
    let result = run_stream(
        0,
        SeededSource { next: 0 },
        FaultyCapture::new(fault_every),
        CheckingTask::new(),
        config,
    );
    (result.capture, result.task)
}

#[test]
fn blocking_stream_detects_every_fault_and_delivers_the_rest() {
    let (capture, task) = run_with(StreamConfig::blocking(), 3);
    assert_eq!(capture.processed, FRAMES, "blocking mode is lossless");
    assert!(capture.injected > 0, "faults were injected");
    assert_eq!(
        capture.rejected, capture.injected,
        "every injected fault is rejected, nothing else is"
    );
    assert_eq!(task.rejected, capture.rejected);
    assert_eq!(task.decoded_ok, FRAMES - capture.rejected);
    assert!(task.mismatches.is_empty(), "silent wrong frames: {:?}", task.mismatches);
}

#[test]
fn drop_oldest_stream_never_delivers_wrong_pixels() {
    let config = StreamConfig {
        raw_capacity: 2,
        backpressure: BackpressureMode::DropOldest,
        ..Default::default()
    };
    let (capture, task) = run_with(config, 2);
    // Frames may be dropped, but whatever arrives is either a typed
    // rejection or byte-identical to the reference decode.
    assert!(capture.processed <= FRAMES);
    assert!(capture.processed > 0);
    assert_eq!(capture.rejected, capture.injected);
    assert!(task.mismatches.is_empty(), "silent wrong frames: {:?}", task.mismatches);
    assert_eq!(task.decoded_ok + task.rejected, capture.processed);
}

#[test]
fn degrade_stream_completes_with_faults_detected() {
    let config = StreamConfig {
        raw_capacity: 1,
        backpressure: BackpressureMode::Degrade,
        ..Default::default()
    };
    let (capture, task) = run_with(config, 4);
    assert_eq!(capture.processed, FRAMES, "degrade mode never drops frames");
    // Degradation is timing-dependent; it may or may not trigger, but it
    // can never exceed the processed count.
    assert!(capture.degraded_seen <= capture.processed);
    assert_eq!(capture.rejected, capture.injected);
    assert!(task.mismatches.is_empty(), "silent wrong frames: {:?}", task.mismatches);
    assert_eq!(task.decoded_ok + task.rejected, FRAMES);
}

#[test]
fn clean_stream_has_no_rejections_in_any_mode() {
    for mode in [BackpressureMode::Block, BackpressureMode::DropOldest, BackpressureMode::Degrade] {
        let config = StreamConfig::blocking().with_backpressure(mode);
        let (capture, task) = run_with(config, 0);
        assert_eq!(capture.injected, 0);
        assert_eq!(capture.rejected, 0, "{mode:?}");
        assert_eq!(task.rejected, 0, "{mode:?}");
        assert!(task.mismatches.is_empty(), "{mode:?}: {:?}", task.mismatches);
        assert_eq!(task.decoded_ok, capture.processed, "{mode:?}");
    }
}
