//! The single-stream executor: a source thread feeding a bounded `raw`
//! queue, and one lock-step capture→task loop on the calling thread
//! that closes the task→capture feedback edge frame by frame.

use crate::queue::{BackpressureMode, StageQueue};
use crate::stage::{CaptureStage, Feedback, FrameSource, StreamConfig, TaskStage};
use crate::telemetry::{frames_per_second, StageTelemetry, StreamTelemetry};
use std::time::Instant;

/// Everything one stream's run produced.
#[derive(Debug, Clone)]
pub struct StreamResult<CaptureSummary, TaskOutput> {
    /// Which stream this is.
    pub stream_id: usize,
    /// The capture stage's summary (e.g. traffic measurements).
    pub capture: CaptureSummary,
    /// The task stage's final output (e.g. accuracy metrics).
    pub task: TaskOutput,
    /// Queue/latency/throughput telemetry.
    pub telemetry: StreamTelemetry,
}

/// Runs one stream's stages in a plain loop on the calling thread — the
/// synchronous reference [`run_stream`] reproduces under
/// [`BackpressureMode::Block`]. Frame 0 sees empty feedback, every
/// later frame sees the task's feedback on the frame before it, and no
/// frame is ever degraded. Returns the capture summary and task output.
pub fn run_sync<S, C, T>(mut source: S, mut capture: C, mut task: T) -> (C::Summary, T::Output)
where
    S: FrameSource,
    C: CaptureStage<Frame = S::Frame>,
    T: TaskStage<Input = C::Output>,
{
    let mut feedback = Feedback::empty();
    let mut idx = 0u64;
    while let Some(frame) = source.next_frame() {
        let out = capture.process(frame, &feedback, false);
        feedback = task.consume(idx, out);
        idx += 1;
    }
    (capture.finish(), task.finish())
}

/// Runs one stream to completion: the source on its own thread, capture
/// and task in lock-step on the calling thread.
///
/// The source pushes into the `raw` queue, where the backpressure mode
/// acts. The calling thread takes each raw frame, encodes it under the
/// task's feedback on the frame before it (the first frame uses empty
/// feedback), and hands the result straight to the task. Capture and
/// task never overlap within a stream, so a second thread between them
/// would buy nothing; parallelism comes from running many streams. Under
/// [`BackpressureMode::Block`] the outputs are bit-identical to
/// [`run_sync`] over the same stages. Under `DropOldest` the raw queue
/// evicts stale frames; under `Degrade` the capture stage is told to
/// lower its rhythm whenever the source found the queue full.
pub fn run_stream<S, C, T>(
    stream_id: usize,
    mut source: S,
    mut capture: C,
    mut task: T,
    config: StreamConfig,
) -> StreamResult<C::Summary, T::Output>
where
    S: FrameSource,
    C: CaptureStage<Frame = S::Frame>,
    T: TaskStage<Input = C::Output>,
{
    let raw_q: StageQueue<(u64, S::Frame)> =
        StageQueue::new("raw", config.raw_capacity, config.backpressure);

    let started = Instant::now();
    let (capture_summary, task_output, stage_stats) = std::thread::scope(|scope| {
        let source_worker = scope.spawn(|| {
            rpr_trace::thread_label(rpr_trace::names::STAGE_SOURCE);
            let mut stats = StageTelemetry::new("source");
            let mut idx = 0u64;
            loop {
                let _span = stage_span(rpr_trace::names::STAGE_SOURCE, idx, config.trace_ctx);
                let t0 = Instant::now();
                let Some(frame) = source.next_frame() else { break };
                stats.latency.record(t0.elapsed());
                stats.frames += 1;
                if !raw_q.push((idx, frame)) {
                    break;
                }
                idx += 1;
            }
            raw_q.close();
            stats
        });

        let mut capture_stats = StageTelemetry::new("capture");
        let mut task_stats = StageTelemetry::new("task");
        let mut feedback = Feedback::empty();
        // Under lossless Block backpressure, raw frames are drained in
        // batches to amortize the queue crossing. The lossy modes keep
        // per-frame pops: a frame parked in a local batch could neither
        // be evicted for freshness (DropOldest) nor observe pressure
        // promptly (Degrade).
        let batch_raw = config.backpressure == BackpressureMode::Block;
        let mut batch: Vec<(u64, S::Frame)> = Vec::new();
        loop {
            batch.clear();
            if batch_raw {
                if raw_q.pop_up_to(config.raw_capacity.max(1), &mut batch) == 0 {
                    break;
                }
            } else {
                match raw_q.pop() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            for (idx, frame) in batch.drain(..) {
                let degraded = raw_q.take_pressure();
                if degraded {
                    capture_stats.degraded_frames += 1;
                }
                let span = stage_span(rpr_trace::names::STAGE_CAPTURE, idx, config.trace_ctx);
                let t0 = Instant::now();
                let out = capture.process(frame, &feedback, degraded);
                capture_stats.latency.record(t0.elapsed());
                drop(span);
                capture_stats.frames += 1;

                let span = stage_span(rpr_trace::names::STAGE_TASK, idx, config.trace_ctx);
                let t0 = Instant::now();
                feedback = task.consume(idx, out);
                task_stats.latency.record(t0.elapsed());
                drop(span);
                task_stats.frames += 1;
            }
        }

        let source_stats = source_worker.join().expect("source worker must not panic");
        (capture.finish(), task.finish(), vec![source_stats, capture_stats, task_stats])
    });
    let wall = started.elapsed().as_secs_f64();

    let queues = vec![raw_q.telemetry()];
    let frames_in = stage_stats[0].frames;
    let frames_out = stage_stats[2].frames;
    let frames_dropped = queues[0].dropped;
    let telemetry = StreamTelemetry {
        stream_id,
        frames_in,
        frames_out,
        frames_dropped,
        wall_time_s: wall,
        end_to_end_fps: frames_per_second(frames_out, wall),
        queues,
        stages: stage_stats,
    };
    StreamResult { stream_id, capture: capture_summary, task: task_output, telemetry }
}

/// The span of one stage's work on frame `idx`, carrying the stream's
/// serving-side identity when it has one.
fn stage_span(
    name: &'static str,
    idx: u64,
    ctx: Option<rpr_trace::FrameCtx>,
) -> rpr_trace::Span {
    let span = rpr_trace::span(name, "stream").with_frame(idx);
    match ctx {
        Some(base) => span.with_ctx(base.for_frame(idx)),
        None => span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source yielding `n` numbered u32 frames.
    struct Counter {
        next: u32,
        n: u32,
    }

    impl FrameSource for Counter {
        type Frame = u32;

        fn next_frame(&mut self) -> Option<u32> {
            if self.next >= self.n {
                return None;
            }
            let v = self.next;
            self.next += 1;
            Some(v)
        }
    }

    /// Capture stage: doubles the frame and adds the feedback's
    /// detection count (exercises the feedback path), recording the
    /// sequence it saw.
    struct Doubler {
        seen: Vec<(u32, usize, bool)>,
    }

    impl CaptureStage for Doubler {
        type Frame = u32;
        type Output = u32;
        type Summary = Vec<(u32, usize, bool)>;

        fn process(&mut self, frame: u32, feedback: &Feedback, degraded: bool) -> u32 {
            self.seen.push((frame, feedback.detections.len(), degraded));
            frame * 2 + feedback.detections.len() as u32
        }

        fn finish(self) -> Self::Summary {
            self.seen
        }
    }

    /// Task stage: sums its inputs and always reports one detection.
    struct Summer {
        total: u64,
    }

    impl TaskStage for Summer {
        type Input = u32;
        type Output = u64;

        fn consume(&mut self, _idx: u64, input: u32) -> Feedback {
            self.total += u64::from(input);
            Feedback {
                features: vec![],
                detections: vec![(rpr_frame::Rect::new(0, 0, 4, 4), 1.0)],
            }
        }

        fn finish(self) -> u64 {
            self.total
        }
    }

    fn run(n: u32, config: StreamConfig) -> StreamResult<Vec<(u32, usize, bool)>, u64> {
        run_stream(0, Counter { next: 0, n }, Doubler { seen: vec![] }, Summer { total: 0 }, config)
    }

    #[test]
    fn matches_the_synchronous_loop_exactly() {
        let staged = run(20, StreamConfig::blocking());
        let (sync_seen, sync_total) =
            run_sync(Counter { next: 0, n: 20 }, Doubler { seen: vec![] }, Summer { total: 0 });
        assert_eq!(staged.capture, sync_seen);
        assert_eq!(staged.task, sync_total);
        // Summer always reports one detection, so frame t sees 1 from t = 1.
        let expected: u64 = (0..20u64).map(|t| t * 2 + u64::from(t > 0)).sum();
        assert_eq!(sync_total, expected);
        assert_eq!(staged.telemetry.frames_in, 20);
        assert_eq!(staged.telemetry.frames_out, 20);
        assert_eq!(staged.telemetry.frames_dropped, 0);
    }

    #[test]
    fn first_frame_gets_empty_feedback_then_lock_step() {
        let staged = run(5, StreamConfig::blocking());
        assert_eq!(staged.capture[0], (0, 0, false), "frame 0 sees empty feedback");
        for (i, entry) in staged.capture.iter().enumerate().skip(1) {
            assert_eq!(*entry, (i as u32, 1, false), "frame {i} sees frame {}'s feedback", i - 1);
        }
    }

    #[test]
    fn telemetry_counts_all_stages() {
        let staged = run(12, StreamConfig::blocking());
        let names: Vec<&str> =
            staged.telemetry.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["source", "capture", "task"]);
        for stage in &staged.telemetry.stages {
            assert_eq!(stage.frames, 12);
            assert_eq!(stage.latency.count, 12);
        }
        // One queue per stream: the source→capture `raw` edge.
        assert_eq!(staged.telemetry.queues.len(), 1);
        assert_eq!(staged.telemetry.queues[0].name, "raw");
        assert_eq!(staged.telemetry.queues[0].pushed, 12);
        assert!(staged.telemetry.end_to_end_fps > 0.0);
    }

    #[test]
    fn drop_oldest_keeps_stream_order() {
        // A tiny raw queue with a slow capture stage cannot drop under
        // Block; with DropOldest it may, but whatever survives must
        // stay in source order.
        let staged = run(
            50,
            StreamConfig {
                raw_capacity: 1,
                backpressure: BackpressureMode::DropOldest,
                ..Default::default()
            },
        );
        let frames: Vec<u32> = staged.capture.iter().map(|(f, _, _)| *f).collect();
        let mut sorted = frames.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(frames, sorted, "processed frames stay strictly increasing");
        assert_eq!(
            staged.telemetry.frames_out + staged.telemetry.frames_dropped,
            50,
            "every frame is either processed or counted as dropped"
        );
    }
}
