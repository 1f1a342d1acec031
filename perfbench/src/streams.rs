//! The closed-loop camera workloads (`pose_rp`, `slam_predict`):
//! pre-rendered frames through `Pipeline` and a vision task on the
//! staged executor, plus the traced synchronous driver that splits the
//! same frames layer by layer.

use std::time::{Duration, Instant};

use rpr_core::{RhythmicEncoder, SoftwareDecoder};
use rpr_frame::{GrayFrame, PixelFormat};
use rpr_memsim::{FramebufferPool, TrafficRecorder};
use rpr_stream::{
    CaptureStage, Feedback, FrameSource, StreamConfig, StreamManager, StreamSpec, TaskStage,
};
use rpr_vision::{ate_rmse, mean_average_precision, relative_pose_error, Pose2d};
use rpr_wire::{frame_chunk, ContainerReader, ContainerWriter};
use rpr_workloads::datasets::VideoDataset;
use rpr_workloads::{
    Baseline, Pipeline, PipelineCapture, PipelineConfig, PolicyKind, PoseDataset, PoseTask,
    SlamDataset, SlamTask,
};

use crate::alloc::allocations;
use crate::ledger::{measure, now, Ledger};
use crate::{layer, Outcome};

/// A camera dataset together with the vision task that consumes it.
pub trait Camera: VideoDataset + Sync {
    /// The task stage run on this camera's decoded frames.
    type Task<'a>: TaskStage<Input = GrayFrame>
    where
        Self: 'a;

    /// True when a larger gated accuracy is better (mAP), false for an
    /// error (RPE).
    const HIGHER_IS_BETTER: bool;

    /// A fresh task for this camera.
    fn task(&self) -> Self::Task<'_>;

    /// The accuracy figures of a finished run, the gated one first:
    /// mAP@0.5 for pose; translational RPE then ATE, in millimetres,
    /// for SLAM.
    fn score<'a>(&'a self, out: <Self::Task<'a> as TaskStage>::Output) -> Score;
}

/// Named accuracy figures of one run; the first is the gated one.
pub type Score = Vec<(&'static str, f64)>;

impl Camera for PoseDataset {
    type Task<'a> = PoseTask<'a>;
    const HIGHER_IS_BETTER: bool = true;

    fn task(&self) -> PoseTask<'_> {
        PoseTask::new(self)
    }

    fn score<'a>(&'a self, out: <PoseTask<'a> as TaskStage>::Output) -> Score {
        vec![("map", mean_average_precision(&out, 0.5))]
    }
}

impl Camera for SlamDataset {
    type Task<'a> = SlamTask;
    const HIGHER_IS_BETTER: bool = false;

    fn task(&self) -> SlamTask {
        SlamTask::new(self)
    }

    /// ATE over one sequence swings several-fold between seeds,
    /// so the gated figure is the per-frame translational RPE (the
    /// other axis of the paper's Fig. 9a).
    fn score(&self, out: <SlamTask as TaskStage>::Output) -> Score {
        let mm = self.mm_per_px;
        let estimated: Vec<Pose2d> = out
            .estimated
            .iter()
            .map(|p| Pose2d::new(p.x * mm, p.y * mm, p.theta))
            .collect();
        let gt = self.gt_trajectory_mm();
        let rpe =
            relative_pose_error(&estimated, &gt, 1).map_or(f64::NAN, |r| r.translational_rmse);
        vec![
            ("rpe_mm", rpe),
            ("ate_mm", ate_rmse(&estimated, &gt).unwrap_or(f64::NAN)),
        ]
    }
}

/// The fixed shape of a closed-loop workload; only the seed varies.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Cameras, one stream each.
    pub cameras: usize,
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// Frames per camera sequence.
    pub frames: usize,
    /// Sequences each camera runs in turn, one per executor pass;
    /// several average out how much a seed's scene changes the work.
    pub sequences: usize,
    /// Region policy of the rhythmic pipeline.
    pub policy: PolicyKind,
}

impl Shape {
    /// The pipeline configuration every camera runs.
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig::new(self.width, self.height, Baseline::Rp { cycle_length: 5 })
            .with_policy(self.policy)
    }
}

/// Two pose cameras, feature-guided rhythmic regions.
pub const POSE_RP: Shape = Shape {
    cameras: 2,
    width: 256,
    height: 192,
    frames: 120,
    sequences: 1,
    policy: PolicyKind::CycleFeature,
};

/// One SLAM camera, motion-predicted rhythmic regions.
pub const SLAM_PREDICT: Shape = Shape {
    cameras: 1,
    width: 256,
    height: 192,
    frames: 45,
    sequences: 8,
    policy: PolicyKind::CyclePredictive,
};

/// Dataset seed of sequence `i` under benchmark seed `seed`.
pub fn camera_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64 * 7919)
}

/// Renders every frame of `ds`, timing each as a `workloads.render`
/// sample.
pub fn render<D: VideoDataset>(ds: &D, ledger: &mut Ledger) -> Vec<GrayFrame> {
    (0..ds.len())
        .map(|t| ledger.time(layer::RENDER, || ds.frame(t)))
        .collect()
}

/// A [`FrameSource`] handing over pre-rendered frames by value.
struct Prerendered(std::vec::IntoIter<GrayFrame>);

impl FrameSource for Prerendered {
    type Frame = GrayFrame;

    fn next_frame(&mut self) -> Option<GrayFrame> {
        self.0.next()
    }
}

/// Stamps the moment the capture stage receives each frame.
struct StampCapture<C> {
    inner: C,
    starts: Vec<Instant>,
}

impl<C: CaptureStage> CaptureStage for StampCapture<C> {
    type Frame = C::Frame;
    type Output = C::Output;
    type Summary = (C::Summary, Vec<Instant>);

    fn process(&mut self, frame: C::Frame, feedback: &Feedback, degraded: bool) -> C::Output {
        self.starts.push(now());
        self.inner.process(frame, feedback, degraded)
    }

    fn finish(self) -> Self::Summary {
        (self.inner.finish(), self.starts)
    }
}

/// Stamps the moment the task returns each frame's feedback.
pub struct StampTask<T> {
    inner: T,
    ends: Vec<Instant>,
}

impl<T> StampTask<T> {
    /// Wraps `inner`, reserving room for `frames` stamps so stamping
    /// allocates nothing on the measured path.
    pub fn new(inner: T, frames: usize) -> Self {
        StampTask {
            inner,
            ends: Vec::with_capacity(frames),
        }
    }
}

impl<T: TaskStage> TaskStage for StampTask<T> {
    type Input = T::Input;
    type Output = (T::Output, Vec<Instant>);

    fn consume(&mut self, frame_idx: u64, input: T::Input) -> Feedback {
        let feedback = self.inner.consume(frame_idx, input);
        self.ends.push(now());
        feedback
    }

    fn finish(self) -> Self::Output {
        (self.inner.finish(), self.ends)
    }
}

/// What one camera's run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CameraResult {
    /// Task accuracy figures.
    pub score: Score,
    /// Simulated DRAM read+write bytes over the run.
    pub dram_bytes: u64,
}

impl CameraResult {
    /// Errors unless `self` reproduces `reference` bit for bit.
    pub fn check(&self, reference: &CameraResult, what: &str) -> Result<(), String> {
        let bits = |s: &Score| s.iter().map(|(n, v)| (*n, v.to_bits())).collect::<Vec<_>>();
        if bits(&self.score) != bits(&reference.score) || self.dram_bytes != reference.dram_bytes {
            return Err(format!(
                "{what}: accuracy {:?} / DRAM bytes {} differ from the traced synchronous run's \
                 {:?} / {}",
                self.score, self.dram_bytes, reference.score, reference.dram_bytes
            ));
        }
        Ok(())
    }
}

/// One camera's traced synchronous run.
pub struct TracedCamera {
    /// The outputs the executor must reproduce.
    pub result: CameraResult,
    /// The `.rpr` container of the run's encoded frames.
    pub container: Vec<u8>,
    /// The encoded frames, in order.
    pub encoded: Vec<rpr_core::EncodedFrame>,
    /// Regions the policy planned, summed over frames.
    pub regions: u64,
    /// Encoder comparisons per pixel over the run.
    pub comparisons_per_pixel: f64,
}

/// Runs one camera through the synchronous loop the executor would
/// run, timing each layer. `Pipeline::process_frame` is timed whole;
/// encoder, traffic model and decoder are replayed on shadow instances
/// fed the same inputs (their output checked byte for byte against the
/// pipeline's), and the rest of capture is `core.policy`. The shadow
/// encoder's frames are also written to a container and read back
/// (`wire.write`, `wire.read`).
pub fn traced_camera<D: Camera>(
    ds: &D,
    frames: &[GrayFrame],
    cfg: PipelineConfig,
    ledger: &mut Ledger,
) -> Result<TracedCamera, String> {
    let (w, h) = (cfg.width, cfg.height);
    let format: PixelFormat = cfg.format;
    let mut pipeline = Pipeline::new(cfg);
    let mut task = ds.task();
    let mut encoder = RhythmicEncoder::new(w, h);
    let mut decoder = SoftwareDecoder::new(w, h);
    let mut traffic = TrafficRecorder::new(cfg.fps);
    let mut framebuffers = FramebufferPool::new(4);
    let mut writer = ContainerWriter::new(Vec::new()).map_err(|e| e.to_string())?;
    let mut encoded_frames = Vec::with_capacity(frames.len());
    let mut feedback = Feedback::empty();
    let mut regions = 0u64;

    for (t, raw) in frames.iter().enumerate() {
        let raw = raw.clone();
        // What `PipelineCapture::process` does for an undegraded frame.
        let capture = measure(|| {
            pipeline.process_frame(&raw, feedback.features.clone(), feedback.detections.clone())
        });
        let planned = pipeline.planned_regions().clone();
        regions += planned.len() as u64;
        let encode = measure(|| encoder.encode(&raw, t as u64, &planned));
        let encoded = encode.value;
        let model = measure(|| {
            traffic.record_encoded_read(&encoded, format);
            traffic.record_encoded_write(&encoded, format);
            framebuffers.admit_encoded(&encoded, format);
        });
        let decode = measure(|| decoder.decode(&encoded));
        if decode.value != capture.value {
            return Err(format!(
                "frame {t}: the shadow decode differs from Pipeline::process_frame's output"
            ));
        }
        ledger.add(layer::ENCODE, encode.ns, encode.allocs);
        ledger.add(layer::TRAFFIC, model.ns, model.allocs);
        ledger.add(layer::DECODE, decode.ns, decode.allocs);
        ledger.add(
            layer::POLICY,
            capture.ns - encode.ns - model.ns - decode.ns,
            capture.allocs - encode.allocs - model.allocs - decode.allocs,
        );
        ledger
            .time(layer::WIRE_WRITE, || writer.append(&encoded))
            .map_err(|e| e.to_string())?;
        encoded_frames.push(encoded);
        feedback = ledger.time(layer::TASK, || task.consume(t as u64, capture.value));
    }

    let (container, _) = writer.finish().map_err(|e| e.to_string())?;
    let reader = ContainerReader::open(&container).map_err(|e| e.to_string())?;
    for (entry, expected) in reader.entries().iter().zip(&encoded_frames) {
        let read = ledger
            .time(layer::WIRE_READ, || {
                frame_chunk(&container, entry)?.to_validated_frame()
            })
            .map_err(|e| e.to_string())?;
        if &read != expected {
            return Err(format!(
                "frame {}: the container read-back differs",
                entry.frame_idx
            ));
        }
    }

    let measurements = pipeline.finish();
    if traffic.summary() != measurements.traffic {
        return Err("the shadow traffic model disagrees with the pipeline's".to_string());
    }
    let dram_bytes = measurements.traffic.read_bytes + measurements.traffic.write_bytes;
    Ok(TracedCamera {
        result: CameraResult {
            score: ds.score(task.finish()),
            dram_bytes,
        },
        container,
        encoded: encoded_frames,
        regions,
        comparisons_per_pixel: encoder.stats().comparisons_per_pixel(),
    })
}

/// Task accuracy of `frames` captured full-frame (the FCH baseline) —
/// the reference `accuracy_vs_fch` divides by.
pub fn full_capture_score<D: Camera>(ds: &D, frames: &[GrayFrame]) -> Score {
    let cfg = PipelineConfig::new(ds.width(), ds.height(), Baseline::Fch);
    let mut capture = PipelineCapture::new(cfg);
    let mut task = ds.task();
    let mut feedback = Feedback::empty();
    for (t, raw) in frames.iter().enumerate() {
        let out = capture.process(raw.clone(), &feedback, false);
        feedback = task.consume(t as u64, out);
    }
    ds.score(task.finish())
}

/// Accumulated measurements of the untraced executor passes.
#[derive(Debug, Default)]
struct Executed {
    wall: Duration,
    frames: u64,
    attempted: u64,
    allocs: u64,
    latencies_ns: Vec<u64>,
    /// Sum over passes of the per-stream frame period, ns.
    period_ns_sum: f64,
    passes: u64,
}

/// One camera sequence: its dataset, pre-rendered frames, and the
/// traced run's outputs every executor pass must reproduce.
struct Sequence<D> {
    ds: D,
    frames: Vec<GrayFrame>,
}

/// One pass of every camera through the staged executor, each camera
/// on one of its sequences, checked against the traced run's outputs.
fn executor_pass<D: Camera>(
    streams: &[(&Sequence<D>, &CameraResult)],
    cfg: PipelineConfig,
    out: &mut Executed,
) -> Result<(), String> {
    let n = streams[0].0.frames.len();
    let specs: Vec<_> = streams
        .iter()
        .map(|(seq, _)| {
            StreamSpec::new(
                Prerendered(seq.frames.clone().into_iter()),
                StampCapture {
                    inner: PipelineCapture::new(cfg),
                    starts: Vec::with_capacity(n),
                },
                StampTask::new(seq.ds.task(), n),
            )
            .with_config(StreamConfig::blocking())
        })
        .collect();
    let manager = StreamManager::new(streams.len());
    let a0 = allocations();
    let t0 = now();
    let results = manager.run_all(specs);
    let wall = t0.elapsed();
    out.allocs += allocations() - a0;

    out.wall += wall;
    out.passes += 1;
    out.period_ns_sum += wall.as_nanos() as f64 / n as f64;
    for (r, (seq, expected)) in results.into_iter().zip(streams) {
        out.attempted += n as u64;
        out.frames += r.telemetry.frames_out;
        let ((measurements, starts), (task_out, ends)) = (r.capture, r.task);
        out.latencies_ns.extend(
            starts
                .iter()
                .zip(&ends)
                .map(|(s, e)| e.saturating_duration_since(*s).as_nanos() as u64),
        );
        let result = CameraResult {
            score: seq.ds.score(task_out),
            dram_bytes: measurements.traffic.read_bytes + measurements.traffic.write_bytes,
        };
        result.check(expected, &format!("stream {}", r.stream_id))?;
        if r.telemetry.frames_out != n as u64 {
            return Err(format!(
                "stream {} delivered {} of {n} frames",
                r.stream_id, r.telemetry.frames_out
            ));
        }
    }
    Ok(())
}

fn set_up<D: Camera>(
    shape: &Shape,
    seed: u64,
    make: fn(u32, u32, usize, u64) -> D,
    ledger: &mut Ledger,
) -> Vec<Sequence<D>> {
    (0..shape.cameras * shape.sequences)
        .map(|i| {
            let ds = make(
                shape.width,
                shape.height,
                shape.frames,
                camera_seed(seed, i),
            );
            let frames = render(&ds, ledger);
            Sequence { ds, frames }
        })
        .collect()
}

/// Runs a closed-loop workload. Camera `c` runs its sequences
/// `c·sequences .. (c+1)·sequences` in turn, one per executor pass.
pub fn run<D: Camera>(
    shape: &Shape,
    make: fn(u32, u32, usize, u64) -> D,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut render_ledger = Ledger::new();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(setup.take());
        let t0 = now();
        setup = Some(set_up(shape, seed, make, &mut render_ledger));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let seqs = setup.expect("at least one set-up ran");
    let cfg = shape.config();

    // The traced synchronous run is the reference every executor pass
    // must reproduce.
    let mut ledger = Ledger::new();
    let traced: Vec<TracedCamera> = seqs
        .iter()
        .map(|seq| traced_camera(&seq.ds, &seq.frames, cfg, &mut ledger))
        .collect::<Result<_, _>>()?;
    let reference: Vec<CameraResult> = traced.iter().map(|t| t.result.clone()).collect();

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut executed = Executed::default();
    // Whole rotations only, so every sequence weighs the same.
    while executed.wall < budget || !(executed.passes as usize).is_multiple_of(shape.sequences) {
        let k = executed.passes as usize % shape.sequences;
        let streams: Vec<_> = (0..shape.cameras)
            .map(|c| c * shape.sequences + k)
            .map(|i| (&seqs[i], &reference[i]))
            .collect();
        executor_pass(&streams, cfg, &mut executed)?;
    }

    let n_frames = (seqs.len() * shape.frames) as f64;
    let wire_bytes: usize = traced.iter().map(|t| t.container.len()).sum();
    let dram_bytes: u64 = reference.iter().map(|r| r.dram_bytes).sum();
    out.attempted = executed.attempted;
    out.failed = executed.attempted - executed.frames;
    out.setup_s = setup_s;
    out.fps = executed.frames as f64 / executed.wall.as_secs_f64();
    out.latencies_ns = executed.latencies_ns;
    out.dram_bytes_per_frame = dram_bytes as f64 / n_frames;
    out.wire_bytes_per_frame = wire_bytes as f64 / n_frames;
    out.scores = reference.iter().map(|r| r.score.clone()).collect();
    out.higher_accuracy_is_better = D::HIGHER_IS_BETTER;
    out.allocs_per_frame = executed.allocs as f64 / executed.frames as f64;

    if !trace {
        out.fch_scores = seqs
            .iter()
            .map(|seq| full_capture_score(&seq.ds, &seq.frames))
            .collect();
        return Ok(out);
    }
    // More traced passes until the traced half of the budget is spent,
    // each reproducing the reference exactly.
    let t0 = now();
    let mut traced_frames = 0;
    while t0.elapsed() < budget {
        for (seq, expected) in seqs.iter().zip(&reference) {
            traced_camera(&seq.ds, &seq.frames, cfg, &mut ledger)?
                .result
                .check(expected, "traced pass")?;
            traced_frames += seq.frames.len();
        }
    }
    let traced_wall = t0.elapsed().as_secs_f64() * 1e9;
    let layers = [
        layer::POLICY,
        layer::ENCODE,
        layer::TRAFFIC,
        layer::DECODE,
        layer::TASK,
    ];
    let traced_sum: f64 = layers.iter().map(|l| ledger.ns_per_frame(l)).sum();
    let traced_allocs: f64 = layers.iter().map(|l| ledger.allocs_per_frame(l)).sum();
    ledger.adopt(&render_ledger, &[layer::RENDER]);
    // The serving tier's share of shipping the cameras: each camera's
    // first sequence streamed through `Server::step`.
    let first: Vec<&TracedCamera> = traced.iter().step_by(shape.sequences).collect();
    let containers: Vec<&[u8]> = first.iter().map(|t| t.container.as_slice()).collect();
    let encoded: Vec<&[rpr_core::EncodedFrame]> =
        first.iter().map(|t| t.encoded.as_slice()).collect();
    let ingest = crate::fleet::ingest_shadow(&containers, &encoded, &mut ledger)?;

    let regions: u64 = traced.iter().map(|t| t.regions).sum();
    out.layers = Some(crate::LayerReport {
        ledger,
        untraced_ns_per_frame: executed.period_ns_sum / executed.passes as f64,
        traced_ns_per_frame: traced_sum,
        hop_allocs_per_frame: out.allocs_per_frame - traced_allocs,
        traced_wall_ns_per_frame: traced_wall / traced_frames as f64,
        regions_per_frame: regions as f64 / n_frames,
        comparisons_per_pixel: traced.iter().map(|t| t.comparisons_per_pixel).sum::<f64>()
            / traced.len() as f64,
        lag_p99_ns: ingest.lag_p99_ns,
        idle_step_frac: ingest.idle_step_frac,
    });
    Ok(out)
}

/// Runs `pose_rp`.
pub fn pose_rp(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    run(&POSE_RP, PoseDataset::new, seed, seconds, trace)
}

/// Runs `slam_predict`.
pub fn slam_predict(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    run(&SLAM_PREDICT, SlamDataset::new, seed, seconds, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        cameras: 2,
        width: 64,
        height: 48,
        frames: 8,
        sequences: 1,
        policy: PolicyKind::CycleFeature,
    };

    fn tiny() -> (Vec<Sequence<PoseDataset>>, Vec<CameraResult>) {
        let mut ledger = Ledger::new();
        let seqs = set_up(&TINY, 3, PoseDataset::new, &mut ledger);
        let reference = seqs
            .iter()
            .map(|s| traced_camera(&s.ds, &s.frames, TINY.config(), &mut ledger).map(|t| t.result))
            .collect::<Result<_, _>>()
            .expect("the traced run passes its own checks");
        (seqs, reference)
    }

    fn pass(
        seqs: &[Sequence<PoseDataset>],
        reference: &[CameraResult],
    ) -> Result<Executed, String> {
        let streams: Vec<_> = seqs.iter().zip(reference).collect();
        let mut out = Executed::default();
        executor_pass(&streams, TINY.config(), &mut out).map(|()| out)
    }

    #[test]
    fn the_executor_reproduces_the_traced_run() {
        let (seqs, reference) = tiny();
        let out = pass(&seqs, &reference).expect("outputs agree");
        assert_eq!(out.frames, 16);
        assert_eq!(out.latencies_ns.len(), 16);
    }

    #[test]
    fn an_injected_output_mismatch_fails_the_check() {
        let (seqs, reference) = tiny();
        let mut wrong_accuracy = reference.clone();
        wrong_accuracy[1].score[0].1 += 1e-12;
        let mut wrong_dram = reference.clone();
        wrong_dram[0].dram_bytes += 1;
        for bad in [wrong_accuracy, wrong_dram] {
            let err = pass(&seqs, &bad).expect_err("a mismatch must fail");
            assert!(
                err.contains("differ from the traced synchronous run"),
                "{err}"
            );
        }
    }
}
