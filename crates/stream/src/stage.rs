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

/// A stateful rewrite of the task→capture feedback edge.
///
/// This is the hook the prediction subsystem (`rpr-predict`) plugs
/// into: the transform observes every processed frame the capture
/// stage emits and rewrites the *next* feedback before the capture
/// stage's region policy sees it — e.g. forward-projecting t−1
/// detections by estimated camera motion so the labels land where the
/// objects will be at frame t. The transform runs inside the capture
/// stage, so it keeps the lock-step determinism contract: same
/// frames + same feedback in ⇒ same rewritten feedback out.
pub trait FeedbackTransform<Out>: Send {
    /// Observes one processed frame as it leaves the capture stage.
    fn observe(&mut self, output: &Out);

    /// Rewrites the feedback for the frame about to be captured.
    fn transform(&mut self, feedback: Feedback) -> Feedback;
}

/// A [`CaptureStage`] adapter that routes the feedback edge through a
/// [`FeedbackTransform`] before the inner stage sees it.
#[derive(Debug)]
pub struct TransformedCapture<C, T> {
    inner: C,
    transform: T,
}

impl<C, T> TransformedCapture<C, T> {
    /// Wraps `inner` so that every feedback passes through `transform`
    /// and every output is observed by it.
    pub fn new(inner: C, transform: T) -> Self {
        TransformedCapture { inner, transform }
    }

    /// The wrapped stage and transform.
    pub fn into_parts(self) -> (C, T) {
        (self.inner, self.transform)
    }
}

impl<C, T> CaptureStage for TransformedCapture<C, T>
where
    C: CaptureStage,
    T: FeedbackTransform<C::Output>,
{
    type Frame = C::Frame;
    type Output = C::Output;
    type Summary = C::Summary;

    fn process(&mut self, frame: Self::Frame, feedback: &Feedback, degraded: bool)
        -> Self::Output {
        let rewritten = self.transform.transform(feedback.clone());
        let output = self.inner.process(frame, &rewritten, degraded);
        self.transform.observe(&output);
        output
    }

    fn finish(self) -> Self::Summary {
        self.inner.finish()
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes frames and records the feedback it was handed.
    struct EchoCapture {
        seen: Vec<usize>,
    }

    impl CaptureStage for EchoCapture {
        type Frame = u64;
        type Output = u64;
        type Summary = Vec<usize>;

        fn process(&mut self, frame: u64, feedback: &Feedback, _degraded: bool) -> u64 {
            self.seen.push(feedback.detections.len());
            frame
        }

        fn finish(self) -> Vec<usize> {
            self.seen
        }
    }

    /// Appends one synthetic detection per observed frame.
    struct CountingTransform {
        observed: usize,
    }

    impl FeedbackTransform<u64> for CountingTransform {
        fn observe(&mut self, _output: &u64) {
            self.observed += 1;
        }

        fn transform(&mut self, mut feedback: Feedback) -> Feedback {
            for _ in 0..self.observed {
                feedback.detections.push((Rect::new(0, 0, 1, 1), 0.0));
            }
            feedback
        }
    }

    #[test]
    fn transform_rewrites_feedback_and_observes_outputs() {
        let mut stage = TransformedCapture::new(
            EchoCapture { seen: Vec::new() },
            CountingTransform { observed: 0 },
        );
        for t in 0..4 {
            let out = stage.process(t, &Feedback::empty(), false);
            assert_eq!(out, t);
        }
        let (inner, transform) = stage.into_parts();
        // Frame t sees one synthetic detection per previously observed
        // frame: 0, 1, 2, 3.
        assert_eq!(inner.finish(), vec![0, 1, 2, 3]);
        assert_eq!(transform.observed, 4);
    }
}
