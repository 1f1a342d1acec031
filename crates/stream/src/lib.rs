//! rpr-stream: staged multi-camera pipeline executor.
//!
//! This crate turns the synchronous capture pipeline (sensor → ISP →
//! rhythmic encoder → memory traffic → decoder → vision task) into a
//! staged *stream*: a source thread feeding one bounded queue with an
//! explicit backpressure policy, and a lock-step capture→task loop on
//! the calling thread. A [`StreamManager`] multiplexes N such camera
//! streams over a shared worker pool — the system shape the paper's
//! multi-camera evaluation implies but the synchronous runner cannot
//! express.
//!
//! Determinism contract: under [`BackpressureMode::Block`] a stream's
//! outputs are bit-identical to [`run_sync`], the synchronous loop over
//! the same stages, because the task→capture feedback edge keeps the
//! two stages in lock-step (frame *t* is encoded only after frame
//! *t−1*'s task feedback arrived). `rpr-workloads` relies on this to route its
//! experiments through the executor without changing any published
//! number.
//!
//! Module map:
//! - [`queue`] — bounded [`StageQueue`] and the three
//!   [`BackpressureMode`]s (block / drop-oldest / degrade).
//! - [`stage`] — the [`FrameSource`] / [`CaptureStage`] / [`TaskStage`]
//!   contracts and the [`Feedback`] edge.
//! - [`executor`] — [`run_stream`], one stream on a source thread plus
//!   the calling thread; [`run_sync`], the same stages in one loop.
//! - [`manager`] — [`StreamManager`], N streams on a worker pool.
//! - [`telemetry`] — queue depths, per-stage latency histograms, fps;
//!   serde-JSON exportable.
//! - [`wire`] — spill/replay stages bridging streams to the `.rpr`
//!   container format: [`EncodeCapture`] → [`WireSink`] records,
//!   [`WireSource`] → [`DecodeCapture`] replays.

#![deny(missing_docs)]

pub mod executor;
pub mod manager;
pub mod queue;
pub mod source;
pub mod stage;
mod sync;
pub mod telemetry;
pub mod wire;

pub use executor::{run_stream, run_sync, StreamResult};
pub use manager::{StreamManager, StreamPool, StreamSpec};
pub use queue::{BackpressureMode, QueueTelemetry, StageQueue, TryPush};
pub use source::{channel_source, ChannelSource, SourceHandle};
pub use stage::{
    CaptureStage, Feedback, FeedbackTransform, FrameSource, StreamConfig, TaskStage,
    TransformedCapture,
};
pub use wire::{DecodeCapture, DecodeSummary, EncodeCapture, WireSink, WireSource};
pub use telemetry::{LatencyHistogram, StageTelemetry, StreamTelemetry, LATENCY_BUCKETS_US};
