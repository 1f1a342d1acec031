//! The workloads as staged streams: adapters that plug the experiment
//! [`Pipeline`] and the three vision tasks into `rpr-stream`'s stage
//! contracts, plus one-call staged runners.
//!
//! The same stage objects drive both runners: `run_*_staged` through
//! [`rpr_stream::run_stream`] and the synchronous `run_*_with` through
//! [`rpr_stream::run_sync`]. Under [`StreamConfig`]'s blocking default
//! the two are bit-identical (the feedback edge keeps capture and task
//! in lock-step), which is asserted by this module's tests and the
//! workspace property tests.
//! The payoff is the multi-camera shape: `*_spec` constructors build
//! [`StreamSpec`]s that a [`rpr_stream::StreamManager`] can multiplex
//! over a shared worker pool.

use crate::datasets::{FaceDataset, PoseDataset, SlamDataset, VideoDataset};
use crate::runner::{Measurements, Pipeline, PipelineConfig};
use crate::tasks::face::eye_mouth_fraction;
use crate::tasks::pose::crisp_fraction;
use crate::tasks::slam::wrap_angle;
use crate::tasks::{detection_displacements, FaceOutcome, PoseOutcome, SlamOutcome};
use rpr_core::Feature;
use rpr_frame::{GrayFrame, Rect};
use rpr_sensor::CameraPose;
use rpr_stream::{
    run_stream, CaptureStage, Feedback, FrameSource, StreamConfig, StreamSpec, StreamTelemetry,
    TaskStage,
};
use rpr_vision::{
    ate_rmse, detect_blobs_into, estimate_rigid_motion, match_descriptors, mean_average_precision,
    relative_pose_error, Blob, BlobScratch, OrbConfig, OrbDetector, OrbFeature, Pose2d,
};

/// A [`FrameSource`] that renders a dataset's frames in order.
#[derive(Debug)]
pub struct DatasetSource<'a, D> {
    dataset: &'a D,
    next: usize,
}

impl<'a, D: VideoDataset> DatasetSource<'a, D> {
    /// A source starting at the dataset's first frame.
    pub fn new(dataset: &'a D) -> Self {
        DatasetSource { dataset, next: 0 }
    }
}

impl<D: VideoDataset + Sync> FrameSource for DatasetSource<'_, D> {
    type Frame = GrayFrame;

    fn next_frame(&mut self) -> Option<GrayFrame> {
        if self.next >= self.dataset.len() {
            return None;
        }
        let frame = self.dataset.frame(self.next);
        self.next += 1;
        Some(frame)
    }
}

/// The experiment [`Pipeline`] as a [`CaptureStage`]: region policy,
/// rhythmic encoder, traffic accounting, and decoder in one stage.
///
/// When the executor signals `degraded` (queue pressure under
/// [`rpr_stream::BackpressureMode::Degrade`]) the stage drops the
/// frame's feedback, so the policy plans no task-guided regions — the
/// lowest-rhythm capture the policy allows.
#[derive(Debug)]
pub struct PipelineCapture {
    pipeline: Pipeline,
}

impl PipelineCapture {
    /// Wraps a fresh pipeline for `cfg`.
    pub fn new(cfg: PipelineConfig) -> Self {
        PipelineCapture { pipeline: Pipeline::new(cfg) }
    }

    /// Wraps an existing pipeline — e.g. one with a recording tap
    /// installed ([`Pipeline::set_encoded_tap`]).
    pub fn from_pipeline(pipeline: Pipeline) -> Self {
        PipelineCapture { pipeline }
    }
}

impl CaptureStage for PipelineCapture {
    type Frame = GrayFrame;
    type Output = GrayFrame;
    type Summary = Measurements;

    fn process(&mut self, frame: GrayFrame, feedback: &Feedback, degraded: bool) -> GrayFrame {
        if degraded {
            self.pipeline.process_feedback(&frame, &Feedback::empty())
        } else {
            self.pipeline.process_feedback(&frame, feedback)
        }
    }

    fn finish(self) -> Measurements {
        self.pipeline.finish()
    }
}

/// Per-frame evaluation pairs: (scored detections, ground-truth boxes).
pub type FramesEval = Vec<(Vec<(Rect, f64)>, Vec<Rect>)>;

/// The face-detection task as a [`TaskStage`]: blob detection scored
/// against ground truth, with face trajectories fed back as regions.
#[derive(Debug)]
pub struct FaceTask<'a> {
    dataset: &'a FaceDataset,
    frame_area: u64,
    scratch: BlobScratch,
    blobs: Vec<Blob>,
    prev_boxes: Vec<Rect>,
    frames_eval: FramesEval,
}

impl<'a> FaceTask<'a> {
    /// A task evaluating against `dataset`'s ground truth.
    pub fn new(dataset: &'a FaceDataset) -> Self {
        FaceTask {
            dataset,
            frame_area: u64::from(dataset.width()) * u64::from(dataset.height()),
            scratch: BlobScratch::new(),
            blobs: Vec::new(),
            prev_boxes: Vec::new(),
            // One entry per dataset frame, so consuming never grows it.
            frames_eval: Vec::with_capacity(dataset.len()),
        }
    }
}

impl TaskStage for FaceTask<'_> {
    type Input = GrayFrame;
    type Output = FramesEval;

    fn consume(&mut self, frame_idx: u64, processed: GrayFrame) -> Feedback {
        // Faces: bright blobs of face-like area and aspect ratio, with
        // resolved facial structure. A real face detector keys on the
        // dark eye/mouth pattern; blur or downscaling erases it, which
        // is the paper's FCL accuracy-loss mechanism.
        let frame_area = self.frame_area;
        detect_blobs_into(
            &mut self.scratch,
            &processed,
            150,
            frame_area / 900,
            &mut self.blobs,
        );
        let detections: Vec<(Rect, f64)> = self
            .blobs
            .iter()
            .filter(|b| {
                let aspect = f64::from(b.bbox.h) / f64::from(b.bbox.w.max(1));
                b.area < frame_area / 6
                    && (0.6..=2.2).contains(&aspect)
                    && eye_mouth_fraction(&processed, &b.bbox) >= 0.025
            })
            .map(|b| (b.bbox, b.area as f64))
            .collect();

        let boxes = detections.iter().map(|(r, _)| r);
        let policy_detections = detection_displacements(boxes.clone(), &self.prev_boxes, 8.0);
        self.prev_boxes.clear();
        self.prev_boxes.extend(boxes.copied());
        let gts = self.dataset.gt_bboxes(frame_idx as usize);
        self.frames_eval.push((detections, gts));
        Feedback { features: Vec::new(), detections: policy_detections }
    }

    fn finish(self) -> FramesEval {
        self.frames_eval
    }
}

/// The pose-estimation task as a [`TaskStage`]: person detection
/// scored against ground truth, with the tracked box fed back as a
/// region.
#[derive(Debug)]
pub struct PoseTask<'a> {
    dataset: &'a PoseDataset,
    min_area: u64,
    scratch: BlobScratch,
    blobs: Vec<Blob>,
    prev_boxes: Vec<Rect>,
    frames_eval: FramesEval,
}

impl<'a> PoseTask<'a> {
    /// A task evaluating against `dataset`'s ground truth.
    pub fn new(dataset: &'a PoseDataset) -> Self {
        PoseTask {
            dataset,
            min_area: u64::from(dataset.width()) * u64::from(dataset.height()) / 600,
            scratch: BlobScratch::new(),
            blobs: Vec::new(),
            prev_boxes: Vec::new(),
            // One entry per dataset frame, so consuming never grows it.
            frames_eval: Vec::with_capacity(dataset.len()),
        }
    }
}

impl TaskStage for PoseTask<'_> {
    type Input = GrayFrame;
    type Output = FramesEval;

    fn consume(&mut self, frame_idx: u64, processed: GrayFrame) -> Feedback {
        // The person is the single dominant bright blob — but a
        // detection only counts when the skeleton is actually
        // *resolved*: a real pose network needs crisp limb pixels, so
        // we gate on the fraction of near-full-brightness pixels in the
        // box (box-filter downscaling and blur wash these out, which is
        // how FCL loses accuracy in the paper).
        detect_blobs_into(
            &mut self.scratch,
            &processed,
            150,
            self.min_area.max(8),
            &mut self.blobs,
        );
        let detections: Vec<(Rect, f64)> = self
            .blobs
            .first()
            .filter(|b| crisp_fraction(&processed, &b.bbox) >= 0.08)
            .map(|b| (b.bbox, b.area as f64))
            .into_iter()
            .collect();

        let boxes = detections.iter().map(|(r, _)| r);
        // Articulated limbs move ~2x faster than the body centroid the
        // box tracker measures; scale the proxy so swinging wrists and
        // ankles are still sampled at an adequate temporal rate.
        let policy_detections = detection_displacements(boxes.clone(), &self.prev_boxes, 8.0)
            .into_iter()
            .map(|(r, d)| (r, d * 2.0))
            .collect();
        self.prev_boxes.clear();
        self.prev_boxes.extend(boxes.copied());
        let gts = vec![self.dataset.gt_bbox(frame_idx as usize)];
        self.frames_eval.push((detections, gts));
        Feedback { features: Vec::new(), detections: policy_detections }
    }

    fn finish(self) -> FramesEval {
        self.frames_eval
    }
}

/// What the staged SLAM task accumulates: the estimated trajectory (in
/// pixels) and the count of constant-velocity fallbacks.
#[derive(Debug, Clone)]
pub struct SlamTrack {
    /// Estimated camera poses, one per processed frame.
    pub estimated: Vec<CameraPose>,
    /// Frames where motion estimation fell back to constant velocity.
    pub tracking_failures: u32,
}

/// The visual-odometry task as a [`TaskStage`]: ORB features matched
/// frame to frame into a camera trajectory, and fed back as regions.
pub struct SlamTask {
    orb: OrbDetector,
    cx: f64,
    cy: f64,
    prev_features: Vec<OrbFeature>,
    estimated: Vec<CameraPose>,
    tracking_failures: u32,
    /// Frames consumed so far; equals the dataset index under blocking
    /// backpressure, and keeps the trajectory indices consistent even
    /// when upstream frames were dropped.
    processed: usize,
}

impl std::fmt::Debug for SlamTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlamTask")
            .field("processed", &self.processed)
            .field("tracking_failures", &self.tracking_failures)
            .finish()
    }
}

impl SlamTask {
    /// A task tracking against `dataset`'s geometry.
    pub fn new(dataset: &SlamDataset) -> Self {
        // Feature budget proportional to frame area (the paper's
        // reference point is ~1500 features at 1080p).
        let area = u64::from(dataset.width()) * u64::from(dataset.height());
        let n_features = (area / 1400).clamp(60, 1500) as usize;
        SlamTask {
            orb: OrbDetector::new(OrbConfig { n_features, ..OrbConfig::default() }),
            cx: f64::from(dataset.width()) / 2.0,
            cy: f64::from(dataset.height()) / 2.0,
            prev_features: Vec::new(),
            estimated: vec![dataset.gt_pose(0)],
            tracking_failures: 0,
            processed: 0,
        }
    }
}

impl TaskStage for SlamTask {
    type Input = GrayFrame;
    type Output = SlamTrack;

    fn consume(&mut self, _frame_idx: u64, processed: GrayFrame) -> Feedback {
        let t = self.processed;
        let features = self.orb.detect(&processed);

        let mut displacement_of: Vec<Option<f64>> = vec![None; features.len()];
        if t > 0 {
            let matches = match_descriptors(&self.prev_features, &features, 64, 0.8);
            let pairs: Vec<((f64, f64), (f64, f64))> = matches
                .iter()
                .map(|m| {
                    let p = self.prev_features[m.query].keypoint;
                    let q = features[m.train].keypoint;
                    ((p.x - self.cx, p.y - self.cy), (q.x - self.cx, q.y - self.cy))
                })
                .collect();
            for m in &matches {
                let p = self.prev_features[m.query].keypoint;
                let q = features[m.train].keypoint;
                displacement_of[m.train] = Some(p.distance(&q));
            }

            let prev_pose = self.estimated[t - 1];
            let estimate = estimate_rigid_motion(&pairs, 150, 2.0, 0xB0B + t as u64)
                .filter(|(_, inliers)| inliers.len() >= 8);
            let next = match estimate {
                Some((rigid, _)) => {
                    // Image transform v' = R(a) v + tau maps to camera
                    // motion: theta' = theta - a; c' = c - R(theta') tau.
                    let theta = wrap_angle(prev_pose.theta - rigid.theta);
                    let (s, c) = theta.sin_cos();
                    CameraPose::new(
                        prev_pose.x - (c * rigid.tx - s * rigid.ty),
                        prev_pose.y - (s * rigid.tx + c * rigid.ty),
                        theta,
                    )
                }
                None => {
                    self.tracking_failures += 1;
                    // Constant-velocity fallback.
                    if t >= 2 {
                        let before = self.estimated[t - 2];
                        CameraPose::new(
                            2.0 * prev_pose.x - before.x,
                            2.0 * prev_pose.y - before.y,
                            wrap_angle(2.0 * prev_pose.theta - before.theta),
                        )
                    } else {
                        prev_pose
                    }
                }
            };
            self.estimated.push(next);
        }

        // Feature hand-off to the policy: regions for the next frame.
        let policy_features = features
            .iter()
            .enumerate()
            .map(|(i, f)| Feature {
                x: f.keypoint.x,
                y: f.keypoint.y,
                size: f.keypoint.size,
                octave: f.keypoint.octave,
                // Unmatched (new) features count as fast so they are
                // sampled densely until tracked.
                displacement: displacement_of[i].unwrap_or(8.0),
            })
            .collect();
        self.prev_features = features;
        self.processed += 1;
        Feedback { features: policy_features, detections: Vec::new() }
    }

    fn finish(self) -> SlamTrack {
        SlamTrack { estimated: self.estimated, tracking_failures: self.tracking_failures }
    }
}

/// A ready-to-run face-detection stream.
pub type FaceSpec<'a> = StreamSpec<DatasetSource<'a, FaceDataset>, PipelineCapture, FaceTask<'a>>;
/// A ready-to-run pose-estimation stream.
pub type PoseSpec<'a> = StreamSpec<DatasetSource<'a, PoseDataset>, PipelineCapture, PoseTask<'a>>;
/// A ready-to-run visual-SLAM stream.
pub type SlamSpec<'a> = StreamSpec<DatasetSource<'a, SlamDataset>, PipelineCapture, SlamTask>;

/// Builds a face-detection stream spec (for [`rpr_stream::StreamManager`]).
pub fn face_spec<'a>(
    dataset: &'a FaceDataset,
    cfg: PipelineConfig,
    stream: StreamConfig,
) -> FaceSpec<'a> {
    StreamSpec::new(DatasetSource::new(dataset), PipelineCapture::new(cfg), FaceTask::new(dataset))
        .with_config(stream)
}

/// Builds a pose-estimation stream spec.
pub fn pose_spec<'a>(
    dataset: &'a PoseDataset,
    cfg: PipelineConfig,
    stream: StreamConfig,
) -> PoseSpec<'a> {
    StreamSpec::new(DatasetSource::new(dataset), PipelineCapture::new(cfg), PoseTask::new(dataset))
        .with_config(stream)
}

/// Builds a visual-SLAM stream spec.
pub fn slam_spec<'a>(
    dataset: &'a SlamDataset,
    cfg: PipelineConfig,
    stream: StreamConfig,
) -> SlamSpec<'a> {
    StreamSpec::new(DatasetSource::new(dataset), PipelineCapture::new(cfg), SlamTask::new(dataset))
        .with_config(stream)
}

/// IoU-0.5 mean average precision over all frames, and each frame's
/// average precision.
fn detection_scores(frames_eval: &FramesEval) -> (f64, Vec<f64>) {
    let map = mean_average_precision(frames_eval, 0.5);
    let per_frame_ap = frames_eval
        .iter()
        .map(|(d, g)| rpr_vision::average_precision(d, g, 0.5))
        .collect();
    (map, per_frame_ap)
}

/// Assembles a [`FaceOutcome`] from a face stream's capture summary and
/// task output.
pub fn face_outcome(measurements: Measurements, frames_eval: FramesEval) -> FaceOutcome {
    let (map, per_frame_ap) = detection_scores(&frames_eval);
    FaceOutcome { map, per_frame_ap, measurements }
}

/// Assembles a [`PoseOutcome`] from a pose stream's capture summary and
/// task output.
pub fn pose_outcome(measurements: Measurements, frames_eval: FramesEval) -> PoseOutcome {
    let (map, per_frame_ap) = detection_scores(&frames_eval);
    PoseOutcome { map, per_frame_ap, measurements }
}

/// Assembles a [`SlamOutcome`] from a SLAM stream's capture summary and
/// tracked trajectory.
pub fn slam_outcome(dataset: &SlamDataset, measurements: Measurements, track: SlamTrack) -> SlamOutcome {
    let mm = dataset.mm_per_px;
    let estimated_mm: Vec<Pose2d> =
        track.estimated.iter().map(|p| Pose2d::new(p.x * mm, p.y * mm, p.theta)).collect();
    let gt_mm = dataset.gt_trajectory_mm();
    let ate = ate_rmse(&estimated_mm, &gt_mm).unwrap_or(f64::NAN);
    let rpe = relative_pose_error(&estimated_mm, &gt_mm, 1);
    SlamOutcome {
        ate_mm: ate,
        rpe_translational_mm: rpe.map_or(f64::NAN, |r| r.translational_rmse),
        rpe_rotational_deg: rpe.map_or(f64::NAN, |r| r.rotational_rmse.to_degrees()),
        tracking_failures: track.tracking_failures,
        estimated_mm,
        measurements,
    }
}

/// Runs the face workload through the staged executor as one stream,
/// returning the outcome plus the stream's telemetry.
pub fn run_face_staged(
    dataset: &FaceDataset,
    cfg: PipelineConfig,
    stream: StreamConfig,
) -> (FaceOutcome, StreamTelemetry) {
    let spec = face_spec(dataset, cfg, stream);
    let r = run_stream(0, spec.source, spec.capture, spec.task, spec.config);
    (face_outcome(r.capture, r.task), r.telemetry)
}

/// Runs the pose workload through the staged executor as one stream.
pub fn run_pose_staged(
    dataset: &PoseDataset,
    cfg: PipelineConfig,
    stream: StreamConfig,
) -> (PoseOutcome, StreamTelemetry) {
    let spec = pose_spec(dataset, cfg, stream);
    let r = run_stream(0, spec.source, spec.capture, spec.task, spec.config);
    (pose_outcome(r.capture, r.task), r.telemetry)
}

/// Runs the SLAM workload through the staged executor as one stream.
pub fn run_slam_staged(
    dataset: &SlamDataset,
    cfg: PipelineConfig,
    stream: StreamConfig,
) -> (SlamOutcome, StreamTelemetry) {
    let spec = slam_spec(dataset, cfg, stream);
    let r = run_stream(0, spec.source, spec.capture, spec.task, spec.config);
    (slam_outcome(dataset, r.capture, r.task), r.telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{run_face_with, run_pose_with, run_slam_with};
    use crate::Baseline;

    /// Byte-identical equivalence between the staged executor (Block
    /// mode) and `run_sync` over the same stages, via serialized JSON.
    #[test]
    fn staged_face_matches_synchronous_exactly() {
        let ds = FaceDataset::new(128, 96, 12, 2, 5);
        let cfg = PipelineConfig::new(128, 96, Baseline::Rp { cycle_length: 5 });
        let sync = run_face_with(&ds, cfg);
        let (staged, telemetry) = run_face_staged(&ds, cfg, StreamConfig::blocking());
        assert_eq!(
            serde_json::to_string(&staged).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
        assert_eq!(telemetry.frames_in, 12);
        assert_eq!(telemetry.frames_out, 12);
        assert_eq!(telemetry.frames_dropped, 0);
    }

    #[test]
    fn staged_pose_matches_synchronous_exactly() {
        let ds = PoseDataset::new(128, 96, 10, 3);
        let cfg = PipelineConfig::new(128, 96, Baseline::Rp { cycle_length: 5 });
        let sync = run_pose_with(&ds, cfg);
        let (staged, _) = run_pose_staged(&ds, cfg, StreamConfig::blocking());
        assert_eq!(
            serde_json::to_string(&staged).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
    }

    #[test]
    fn staged_slam_matches_synchronous_exactly() {
        let ds = SlamDataset::new(128, 96, 10, 7);
        let cfg = PipelineConfig::new(128, 96, Baseline::Rp { cycle_length: 5 });
        let sync = run_slam_with(&ds, cfg);
        let (staged, _) = run_slam_staged(&ds, cfg, StreamConfig::blocking());
        assert_eq!(
            serde_json::to_string(&staged).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
    }

    #[test]
    fn degrade_mode_still_processes_every_frame() {
        let ds = PoseDataset::new(128, 96, 10, 3);
        let cfg = PipelineConfig::new(128, 96, Baseline::Rp { cycle_length: 5 });
        let stream = StreamConfig { raw_capacity: 1, ..Default::default() }
            .with_backpressure(rpr_stream::BackpressureMode::Degrade);
        let (out, telemetry) = run_pose_staged(&ds, cfg, stream);
        assert_eq!(telemetry.frames_out, 10, "degrade never drops frames");
        assert_eq!(out.per_frame_ap.len(), 10);
    }
}
