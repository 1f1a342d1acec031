//! Per-stream telemetry: stage latency histograms, queue counters, and
//! end-to-end throughput, exportable as serde JSON.
//!
//! The JSON schema (documented in `DESIGN.md`) is stable:
//!
//! ```json
//! {
//!   "stream_id": 0,
//!   "frames_in": 120, "frames_out": 118, "frames_dropped": 2,
//!   "wall_time_s": 1.9, "end_to_end_fps": 62.1,
//!   "queues": [ {"name": "raw", "capacity": 4, "mode": "Block", ...} ],
//!   "stages": [ {"name": "capture", "latency": {"count": 118, ...}} ]
//! }
//! ```

use crate::queue::QueueTelemetry;
use serde::{Deserialize, Serialize};

/// The histogram type itself lives in `rpr-trace` (the live metrics
/// plane shards and merges it there); re-exported here so the stream
/// telemetry schema and call sites are unchanged.
pub use rpr_trace::{LatencyHistogram, LATENCY_BUCKETS_US};

/// Telemetry for one stage of one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTelemetry {
    /// Stage name (`"source"`, `"capture"`, `"task"`).
    pub name: String,
    /// Frames this stage completed.
    pub frames: u64,
    /// Per-frame processing latency.
    pub latency: LatencyHistogram,
    /// Frames processed in degraded (lower-rhythm) mode; only the
    /// capture stage ever reports a non-zero value.
    pub degraded_frames: u64,
}

impl StageTelemetry {
    /// An empty record for a named stage.
    pub fn new(name: &str) -> Self {
        StageTelemetry {
            name: name.to_string(),
            frames: 0,
            latency: LatencyHistogram::new(),
            degraded_frames: 0,
        }
    }
}

/// The complete telemetry of one camera stream's run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamTelemetry {
    /// Which stream this is (index into the manager's spec list).
    pub stream_id: usize,
    /// Frames the source produced.
    pub frames_in: u64,
    /// Frames that reached the task stage.
    pub frames_out: u64,
    /// Frames evicted by drop-oldest queues.
    pub frames_dropped: u64,
    /// Wall-clock duration of the stream's run, seconds.
    pub wall_time_s: f64,
    /// `frames_out / wall_time_s`.
    pub end_to_end_fps: f64,
    /// One entry per queue (the executor owns one: `raw`).
    pub queues: Vec<QueueTelemetry>,
    /// One entry per stage.
    pub stages: Vec<StageTelemetry>,
}

impl StreamTelemetry {
    /// Aggregate fps across a set of streams (sum of per-stream fps).
    pub fn aggregate_fps(streams: &[StreamTelemetry]) -> f64 {
        streams.iter().map(|s| s.end_to_end_fps).sum()
    }
}

/// Throughput in frames per second, guarded against zero or negative
/// wall time (returns 0.0 instead of `inf`/`NaN`). Every
/// `frames / wall_time` division in the stack routes through here.
pub fn frames_per_second(frames: u64, wall_time_s: f64) -> f64 {
    if wall_time_s > 0.0 {
        frames as f64 / wall_time_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram unit tests moved to `rpr-trace` (crates/trace/src/
    // hist.rs) with the type; what stays here is the re-export contract
    // the stream telemetry schema depends on.
    #[test]
    fn reexported_histogram_keeps_schema_and_behaviour() {
        let mut h = LatencyHistogram::new();
        h.record(std::time::Duration::from_micros(40));
        assert_eq!(h.buckets.len(), LATENCY_BUCKETS_US.len() + 1);
        assert_eq!(h.count, 1);
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.starts_with("{\"count\":1,\"sum_ns\":40000,"), "{json}");
    }

    #[test]
    fn frames_per_second_guards_zero_wall_time() {
        assert_eq!(frames_per_second(100, 0.0), 0.0);
        assert_eq!(frames_per_second(100, -1.0), 0.0);
        assert_eq!(frames_per_second(0, 0.0), 0.0);
        assert_eq!(frames_per_second(60, 2.0), 30.0);
        assert!(frames_per_second(u64::MAX, 0.0).is_finite());
    }

    #[test]
    fn telemetry_serializes_to_json() {
        let t = StreamTelemetry {
            stream_id: 3,
            frames_in: 10,
            frames_out: 9,
            frames_dropped: 1,
            wall_time_s: 0.5,
            end_to_end_fps: 18.0,
            queues: vec![],
            stages: vec![StageTelemetry::new("capture")],
        };
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("\"stream_id\":3"));
        assert!(json.contains("\"capture\""));
        let back: StreamTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
