//! Spill and replay stages bridging streams to the `.rpr` wire format.
//!
//! Four adapters connect the staged executor to [`rpr_wire`]:
//!
//! - [`EncodeCapture`] — a [`CaptureStage`] running the region policy
//!   and rhythmic encoder, emitting [`EncodedFrame`]s instead of
//!   decoded frames: the capture half of a *record* pipeline.
//! - [`WireSink`] — a [`TaskStage`] appending every encoded frame to a
//!   [`ContainerWriter`]: the spill half. Its feedback is always
//!   empty, so a record stream free-runs at source rate.
//! - [`WireSource`] — a [`FrameSource`] yielding validated
//!   [`EncodedFrame`]s back out of a container: the replay input.
//! - [`DecodeCapture`] — a [`CaptureStage`] turning replayed encoded
//!   frames into [`GrayFrame`]s through a [`SoftwareDecoder`], so the
//!   original task stages consume a replay exactly as they would a
//!   live capture.
//!
//! Record: `source → EncodeCapture → WireSink` produces a `.rpr`.
//! Replay: `WireSource → DecodeCapture → task` feeds the archived
//! stream to any [`TaskStage`]. Because the decoder's output is a
//! pure function of the encoded-frame sequence, replaying a container
//! reproduces the recorded run's task inputs byte for byte.

use std::io::Write;

use rpr_core::{
    DecoderStats, EncodedFrame, Policy, PolicyContext, ReconstructionMode, RegionRuntime,
    SoftwareDecoder,
};
use rpr_frame::GrayFrame;
use rpr_wire::{
    frame_chunk, ContainerReader, ContainerWriter, FrameEntry, WireError, WriterStats,
};

use crate::stage::{CaptureStage, Feedback, FrameSource, TaskStage};

/// A [`FrameSource`] replaying the frames of a `.rpr` container in
/// index order. Each frame is decoded through the zero-copy view and
/// fully validated; the first wire error ends the stream early and is
/// kept for inspection via [`WireSource::error`].
pub struct WireSource {
    bytes: Vec<u8>,
    entries: Vec<FrameEntry>,
    cursor: usize,
    error: Option<WireError>,
}

impl WireSource {
    /// Opens a finished container through its trailing index.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from [`ContainerReader::open`].
    pub fn new(bytes: Vec<u8>) -> Result<Self, WireError> {
        let entries = ContainerReader::open(&bytes)?.entries().to_vec();
        Ok(WireSource { bytes, entries, cursor: 0, error: None })
    }

    /// Opens a container by sequential chunk scan — the recovery path
    /// for unfinished files that never got an index.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from [`ContainerReader::scan`].
    pub fn recover(bytes: Vec<u8>) -> Result<Self, WireError> {
        let entries = ContainerReader::scan(&bytes)?.entries().to_vec();
        Ok(WireSource { bytes, entries, cursor: 0, error: None })
    }

    /// Total frames the container indexes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the container indexes no frames.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The wire error that ended the stream early, if any.
    pub fn error(&self) -> Option<&WireError> {
        self.error.as_ref()
    }
}

impl FrameSource for WireSource {
    type Frame = EncodedFrame;

    fn next_frame(&mut self) -> Option<EncodedFrame> {
        if self.error.is_some() {
            return None;
        }
        let entry = self.entries.get(self.cursor)?;
        self.cursor += 1;
        match frame_chunk(&self.bytes, entry).and_then(|v| v.to_validated_frame()) {
            Ok(frame) => Some(frame),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// A [`TaskStage`] spilling every consumed [`EncodedFrame`] into a
/// [`ContainerWriter`]. Feedback is always empty (a sink extracts
/// nothing), so a record pipeline free-runs at source rate. The first
/// write error is latched and surfaced by [`WireSink::finish`];
/// subsequent frames are discarded rather than written after a gap.
pub struct WireSink<W: Write + Send> {
    writer: Option<ContainerWriter<W>>,
    error: Option<WireError>,
}

impl<W: Write + Send> WireSink<W> {
    /// Starts a container on `sink` (header written immediately).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the sink rejects the header.
    pub fn new(sink: W) -> Result<Self, WireError> {
        Ok(WireSink { writer: Some(ContainerWriter::new(sink)?), error: None })
    }
}

impl<W: Write + Send> TaskStage for WireSink<W> {
    type Input = EncodedFrame;
    type Output = Result<(W, WriterStats), WireError>;

    fn consume(&mut self, _frame_idx: u64, input: EncodedFrame) -> Feedback {
        if let Some(writer) = self.writer.as_mut() {
            if let Err(e) = writer.append(&input) {
                self.error = Some(e);
                self.writer = None;
            }
        }
        Feedback::empty()
    }

    fn finish(self) -> Self::Output {
        match (self.error, self.writer) {
            (Some(e), _) => Err(e),
            (None, Some(writer)) => writer.finish(),
            (None, None) => unreachable!("writer only vacates when an error is latched"),
        }
    }
}

/// Summary returned by [`DecodeCapture::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeSummary {
    /// The decoder's pixel-provenance counters.
    pub stats: DecoderStats,
    /// Frames rejected by [`EncodedFrame::validate`] and replaced with
    /// black frames (0 for a clean container).
    pub rejected: u64,
}

/// A [`CaptureStage`] reconstructing replayed [`EncodedFrame`]s into
/// the [`GrayFrame`]s the original task stages consume. Frames that
/// fail validation decode to black (and are counted) instead of
/// panicking, keeping a replay robust to damaged archives. Frames from
/// the wire readers ([`WireSource`], the serve path's stream decoder)
/// arrive already validated, so the stage skips the check for them and
/// decodes each frame by value, without a clone.
pub struct DecodeCapture {
    decoder: SoftwareDecoder,
    rejected: u64,
}

impl DecodeCapture {
    /// A decoder-backed capture stage for `width x height` frames
    /// under the default [`ReconstructionMode::BlockNearest`].
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_mode(width, height, ReconstructionMode::default())
    }

    /// Same, with an explicit reconstruction mode (must match the mode
    /// used when the stream was recorded to reproduce it exactly).
    pub fn with_mode(width: u32, height: u32, mode: ReconstructionMode) -> Self {
        DecodeCapture { decoder: SoftwareDecoder::with_mode(width, height, mode), rejected: 0 }
    }
}

impl CaptureStage for DecodeCapture {
    type Frame = EncodedFrame;
    type Output = GrayFrame;
    type Summary = DecodeSummary;

    fn process(&mut self, frame: EncodedFrame, _feedback: &Feedback, _degraded: bool) -> GrayFrame {
        match self.decoder.try_decode_owned(frame) {
            Ok(decoded) => decoded,
            Err(_) => {
                self.rejected += 1;
                GrayFrame::new(self.decoder.width(), self.decoder.height())
            }
        }
    }

    fn finish(self) -> DecodeSummary {
        DecodeSummary { stats: *self.decoder.stats(), rejected: self.rejected }
    }
}

/// A [`CaptureStage`] running the region policy and rhythmic encoder
/// but emitting the *encoded* frames — the producer half of a record
/// pipeline, feeding a [`WireSink`].
///
/// Under queue pressure (`degraded == true` in
/// [`BackpressureMode::Degrade`](crate::queue::BackpressureMode))
/// the stage plans with empty feedback, which collapses the policy to
/// its cheapest rhythm for that frame.
pub struct EncodeCapture {
    runtime: RegionRuntime,
    policy: Box<dyn Policy + Send>,
    width: u32,
    height: u32,
    frame_idx: u64,
}

impl EncodeCapture {
    /// An encode stage for `width x height` frames driven by `policy`.
    pub fn new(width: u32, height: u32, policy: Box<dyn Policy + Send>) -> Self {
        EncodeCapture { runtime: RegionRuntime::new(width, height), policy, width, height, frame_idx: 0 }
    }
}

impl CaptureStage for EncodeCapture {
    type Frame = GrayFrame;
    type Output = EncodedFrame;
    type Summary = ();

    fn process(&mut self, frame: GrayFrame, feedback: &Feedback, degraded: bool) -> EncodedFrame {
        let (features, detections) = if degraded {
            (Vec::new(), Vec::new())
        } else {
            (feedback.features.clone(), feedback.detections.clone())
        };
        let ctx = PolicyContext {
            frame_idx: self.frame_idx,
            width: self.width,
            height: self.height,
            features,
            detections,
        };
        self.runtime.apply_policy(&mut *self.policy, ctx);
        self.frame_idx += 1;
        self.runtime.encode_frame(&frame)
    }

    fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_stream;
    use crate::stage::StreamConfig;
    use rpr_core::{CycleLengthPolicy, FeaturePolicy, RegionLabel, RegionList, RhythmicEncoder};
    use rpr_frame::Plane;
    use rpr_wire::write_container;

    fn textured(w: u32, h: u32, t: u32) -> GrayFrame {
        Plane::from_fn(w, h, |x, y| ((x * 5) ^ (y * 3) ^ (t * 17)) as u8)
    }

    fn encoded_sequence(n: u32) -> Vec<EncodedFrame> {
        let mut enc = RhythmicEncoder::new(32, 24);
        let full = RegionList::new(32, 24, vec![RegionLabel::full_frame(32, 24)]).unwrap();
        let part =
            RegionList::new(32, 24, vec![RegionLabel::new(4, 4, 16, 12, 1, 1)]).unwrap();
        (0..n)
            .map(|t| {
                let regions = if t == 0 { &full } else { &part };
                enc.encode(&textured(32, 24, t), u64::from(t), regions)
            })
            .collect()
    }

    struct VecSource(Vec<GrayFrame>);
    impl FrameSource for VecSource {
        type Frame = GrayFrame;
        fn next_frame(&mut self) -> Option<GrayFrame> {
            if self.0.is_empty() {
                None
            } else {
                Some(self.0.remove(0))
            }
        }
    }

    /// Task that remembers every frame it consumed.
    struct Collect(Vec<GrayFrame>);
    impl TaskStage for Collect {
        type Input = GrayFrame;
        type Output = Vec<GrayFrame>;
        fn consume(&mut self, _frame_idx: u64, input: GrayFrame) -> Feedback {
            self.0.push(input);
            Feedback::empty()
        }
        fn finish(self) -> Vec<GrayFrame> {
            self.0
        }
    }

    #[test]
    fn wire_source_replays_containers_in_order() {
        let frames = encoded_sequence(4);
        let bytes = write_container(&frames).unwrap();
        let mut src = WireSource::new(bytes).unwrap();
        assert_eq!(src.len(), 4);
        for f in &frames {
            assert_eq!(src.next_frame().as_ref(), Some(f));
        }
        assert!(src.next_frame().is_none());
        assert!(src.error().is_none());
    }

    #[test]
    fn wire_source_stops_at_first_corruption() {
        let frames = encoded_sequence(3);
        let mut bytes = write_container(&frames).unwrap();
        // Corrupt the second frame chunk's payload.
        let chunks = rpr_wire::list_chunks(&bytes).unwrap();
        bytes[chunks[1].payload.start + 40] ^= 0xFF;
        let mut src = WireSource::new(bytes).unwrap();
        assert!(src.next_frame().is_some());
        assert!(src.next_frame().is_none(), "corrupt frame ends the stream");
        assert!(matches!(src.error(), Some(WireError::ChecksumMismatch { .. })));
        assert!(src.next_frame().is_none(), "the stream stays ended");
    }

    #[test]
    fn record_stream_spills_a_replayable_container() {
        // Record: raw frames → policy+encoder → container.
        let raws: Vec<GrayFrame> = (0..5).map(|t| textured(32, 24, t)).collect();
        let policy = Box::new(CycleLengthPolicy::new(3, FeaturePolicy::new()));
        let capture = EncodeCapture::new(32, 24, policy);
        let sink = WireSink::new(Vec::new()).unwrap();
        let result = run_stream(
            0,
            VecSource(raws.clone()),
            capture,
            sink,
            StreamConfig::blocking(),
        );
        let (bytes, stats) = result.task.unwrap();
        assert_eq!(stats.frames, 5);

        // Replay: container → decoder → collected task inputs.
        let src = WireSource::new(bytes).unwrap();
        let replayed = run_stream(
            1,
            src,
            DecodeCapture::new(32, 24),
            Collect(Vec::new()),
            StreamConfig::blocking(),
        );
        assert_eq!(replayed.capture.rejected, 0);
        let frames = replayed.task;
        assert_eq!(frames.len(), 5);
        // Frame 0 is a full capture: replay reproduces it losslessly.
        assert_eq!(frames[0], raws[0]);
    }

    #[test]
    fn replay_equals_direct_decode() {
        let frames = encoded_sequence(6);
        let bytes = write_container(&frames).unwrap();

        let mut direct = SoftwareDecoder::new(32, 24);
        let expected: Vec<GrayFrame> = frames.iter().map(|f| direct.decode(f)).collect();

        let result = run_stream(
            0,
            WireSource::new(bytes).unwrap(),
            DecodeCapture::new(32, 24),
            Collect(Vec::new()),
            StreamConfig::blocking(),
        );
        assert_eq!(result.task, expected, "staged replay must be bit-identical");
        assert_eq!(result.capture.stats.frames, 6);
    }

    #[test]
    fn decode_capture_moves_wire_validated_frames_into_history() {
        // A frame read back from a container arrives marked validated,
        // and DecodeCapture decodes it by value: its mask buffer moves
        // into the decoder's history instead of being cloned.
        let bytes = write_container(&encoded_sequence(2)).unwrap();
        let frame = rpr_wire::ContainerReader::open(&bytes).unwrap().frame(1).unwrap();
        assert!(frame.is_validated());
        let mask = frame.metadata().mask.as_bytes().as_ptr();
        let mut stage = DecodeCapture::new(32, 24);
        stage.process(frame, &Feedback::empty(), false);
        let held = stage.decoder.history().current().unwrap();
        assert_eq!(held.metadata().mask.as_bytes().as_ptr(), mask, "the frame was cloned");
        assert_eq!(stage.finish().rejected, 0);
    }

    #[test]
    fn decode_capture_substitutes_black_for_invalid_frames() {
        let frames = encoded_sequence(2);
        let good = &frames[1];
        let bad = EncodedFrame::from_raw_parts(
            good.width(),
            good.height(),
            good.frame_idx(),
            {
                let mut p = good.pixels().to_vec();
                p[0] ^= 0xAA;
                p
            },
            good.metadata().clone(),
            good.integrity(),
        );
        let mut stage = DecodeCapture::new(32, 24);
        let fb = Feedback::empty();
        let out = stage.process(bad, &fb, false);
        assert!(out.as_slice().iter().all(|&p| p == 0), "invalid frame decodes black");
        let summary = stage.finish();
        assert_eq!(summary.rejected, 1);
    }
}
