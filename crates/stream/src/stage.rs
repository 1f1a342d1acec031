//! The stage contracts of the capture pipeline.
//!
//! A stream is three stages — source, capture, task — plus a feedback
//! edge running backwards from the task to the capture stage (the
//! paper's §4.3 application loop: what the task extracted from frame
//! *t−1* decides the region labels of frame *t*). The executor runs
//! them on two threads joined by one bounded queue:
//!
//! ```text
//!   source ──raw──▶ capture ──▶ task
//!   (thread)           ▲          │    (calling thread)
//!                      └─feedback─┘
//! ```
//!
//! The feedback edge makes the capture and task stages lock-step (frame
//! t is encoded only after the task returned frame t−1's feedback), so
//! the executor runs both in one loop on one thread, which is what
//! keeps its output bit-identical to the synchronous pipeline.
//! Throughput scaling therefore comes from running *many streams*
//! concurrently, not from racing ahead within one stream — matching a
//! real multi-camera system, where each sensor's feedback loop is
//! causally serial.

use crate::queue::BackpressureMode;
use rpr_core::Feature;
use rpr_frame::Rect;

/// What the task stage feeds back to the capture stage: the features
/// and scored detections extracted from the last processed frame,
/// which the region policy turns into the next frame's region labels.
#[derive(Debug, Clone, Default)]
pub struct Feedback {
    /// Tracked features (SLAM-style workloads).
    pub features: Vec<Feature>,
    /// Detection boxes with displacement estimates (detector-style
    /// workloads).
    pub detections: Vec<(Rect, f64)>,
}

impl Feedback {
    /// Feedback carrying no regions — what the capture stage uses for
    /// the first frame and when degrading under queue pressure.
    pub fn empty() -> Self {
        Feedback::default()
    }
}

/// Stage 1: produces raw sensor/ISP frames in capture order.
pub trait FrameSource: Send {
    /// The raw frame type.
    type Frame: Send;

    /// The next frame, or `None` at end of stream.
    fn next_frame(&mut self) -> Option<Self::Frame>;
}

/// Stage 2: the capture path (region policy, rhythmic encoder, memory
/// traffic accounting, decoder) squeezed between the sensor and the
/// task.
pub trait CaptureStage: Send {
    /// Raw frame type consumed.
    type Frame: Send;
    /// Processed (decoded) frame type emitted to the task.
    type Output: Send;
    /// What `finish` returns (e.g. traffic measurements).
    type Summary: Send;

    /// Processes one raw frame under the regions implied by
    /// `feedback`. When `degraded` is true the stage should fall back
    /// to a lower rhythm (the executor raises it when the downstream
    /// queue signalled pressure in [`BackpressureMode::Degrade`]).
    fn process(&mut self, frame: Self::Frame, feedback: &Feedback, degraded: bool)
        -> Self::Output;

    /// Consumes the stage, returning its run summary.
    fn finish(self) -> Self::Summary;
}

/// Stage 3: the vision task. Consumes processed frames, returns the
/// feedback that will shape the *next* frame's capture.
pub trait TaskStage: Send {
    /// Processed frame type consumed.
    type Input: Send;
    /// What `finish` returns (e.g. accuracy metrics).
    type Output: Send;

    /// Consumes one processed frame (with its source index) and
    /// returns the feedback for the next frame.
    fn consume(&mut self, frame_idx: u64, input: Self::Input) -> Feedback;

    /// Consumes the stage, returning the task's final output.
    fn finish(self) -> Self::Output;
}

/// Queue sizing and backpressure configuration of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Capacity of the source→capture queue.
    pub raw_capacity: usize,
    /// Backpressure mode of the source→capture queue, the stream's only
    /// queue. Capture hands its output straight to the task, so no
    /// processed frame can be dropped and the feedback lock-step holds
    /// in every mode.
    pub backpressure: BackpressureMode,
    /// Serving-side frame identity attached to every stage span this
    /// stream emits (the per-frame `frame_seq` is filled in from the
    /// stage's own frame index). `None` for standalone benchmark
    /// streams that have no tenant/camera identity.
    pub trace_ctx: Option<rpr_trace::FrameCtx>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            raw_capacity: 4,
            backpressure: BackpressureMode::Block,
            trace_ctx: None,
        }
    }
}

impl StreamConfig {
    /// A blocking (lossless, deterministic) configuration.
    pub fn blocking() -> Self {
        StreamConfig::default()
    }

    /// Same queue under a different backpressure mode.
    pub fn with_backpressure(mut self, mode: BackpressureMode) -> Self {
        self.backpressure = mode;
        self
    }

    /// Attaches a serving-side frame context to the stream's spans.
    pub fn with_trace_ctx(mut self, ctx: rpr_trace::FrameCtx) -> Self {
        self.trace_ctx = Some(ctx);
        self
    }
}
