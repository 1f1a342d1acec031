//! The experiment pipeline: one frame at a time, a workload's frames
//! flow through the configured [`Baseline`]'s capture path while the
//! traffic, footprint, and region statistics the paper reports are
//! recorded on the side.

use crate::{Baseline, H264Model, RegionStats, RegionStatsCollector};
use rpr_core::{
    AdaptiveCyclePolicy, BufferPool, CycleLengthPolicy, EncodedFrame, EncoderStats, Feature,
    FeaturePolicy, FeaturePolicyParams, KalmanPolicy, Policy, PolicyContext, ReconstructionMode,
    RegionLabel, RegionList, RegionRuntime, SoftwareDecoder,
};
use rpr_frame::{downscale_box, GrayFrame, PixelFormat, Plane, Rect};
use rpr_memsim::{FrameTraffic, FramebufferPool, TrafficRecorder, TrafficSummary};
use rpr_stream::Feedback;
use rpr_vision::{kmeans, resize_bilinear};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which region-selection policy drives the rhythmic baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's example policy: cycle-length full captures +
    /// feature/detection-guided regions (§4.3.1).
    #[default]
    CycleFeature,
    /// Cycle-length full captures + Kalman-predicted regions (§4.3.1's
    /// "prediction strategies, e.g., with Kalman filters").
    CycleKalman,
    /// Motion-adaptive cycle length (§4.3.1's adaptive-cycle future
    /// direction) around the feature policy.
    AdaptiveCycle {
        /// Shortest cycle under heavy motion.
        min_cycle: u64,
        /// Longest cycle for static scenes.
        max_cycle: u64,
    },
    /// Cycle-length full captures + Euphrates-style motion-vector
    /// regions: block motion between the two most recent decoded frames
    /// ("readily available in memory") adds moving-cluster regions on
    /// top of the task's detections (§4.3.1).
    CycleMotion,
    /// The feature policy wrapped in `rpr-predict`'s motion-compensated
    /// forward projection: block motion between the two most recent
    /// decoded frames feeds a RANSAC ego-motion fit, and the planned
    /// t−1 labels are rewritten to predicted-t labels before they reach
    /// the encoder.
    CyclePredictive,
}

/// Static configuration of an experiment pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frame rate used for throughput and rate accounting.
    pub fps: f64,
    /// Pixel format used for byte accounting (the gray pipeline's
    /// relative numbers are format-independent; RGB888 reproduces the
    /// paper's absolute scale).
    pub format: PixelFormat,
    /// The capture strategy under evaluation.
    pub baseline: Baseline,
    /// Feature-policy tuning for the rhythmic configurations.
    pub policy_params: FeaturePolicyParams,
    /// Which policy drives region selection for rhythmic baselines.
    pub policy_kind: PolicyKind,
    /// Seed for the multi-ROI k-means clustering.
    pub seed: u64,
}

impl PipelineConfig {
    /// A config with sensible defaults for `width x height` at 30 fps.
    ///
    /// Byte accounting uses RGB888, the paper's frame format: payload
    /// traffic scales with 3 bytes/pixel while the EncMask stays 2
    /// bits/pixel, reproducing the paper's ~8 % metadata overhead.
    pub fn new(width: u32, height: u32, baseline: Baseline) -> Self {
        PipelineConfig {
            width,
            height,
            fps: 30.0,
            format: PixelFormat::Rgb888,
            baseline,
            policy_params: FeaturePolicyParams::default(),
            policy_kind: PolicyKind::default(),
            seed: 0x9E37,
        }
    }

    /// Switches the rhythmic policy (builder style).
    pub fn with_policy(mut self, policy_kind: PolicyKind) -> Self {
        self.policy_kind = policy_kind;
        self
    }
}

/// Everything the memory side of an experiment measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurements {
    /// Aggregated DRAM traffic.
    pub traffic: TrafficSummary,
    /// Mean resident framebuffer bytes.
    pub mean_footprint_bytes: f64,
    /// Peak resident framebuffer bytes.
    pub peak_footprint_bytes: u64,
    /// Per-frame captured-pixel fraction (1.0 for full-frame paths).
    pub captured_fractions: Vec<f64>,
    /// Table 4 region statistics (rhythmic baselines only).
    pub region_stats: Option<RegionStats>,
    /// Encoder work counters (rhythmic baselines only).
    pub encoder: Option<EncoderStats>,
}

impl Measurements {
    /// Mean captured fraction across all frames.
    pub fn mean_captured_fraction(&self) -> f64 {
        if self.captured_fractions.is_empty() {
            0.0
        } else {
            self.captured_fractions.iter().sum::<f64>() / self.captured_fractions.len() as f64
        }
    }
}

/// An observer of the encoded frames the rhythmic capture path
/// produces — what [`Pipeline::set_encoded_tap`] installs.
pub type EncodedTap = Box<dyn FnMut(&EncodedFrame) + Send>;

/// The per-baseline frame pipeline. Tasks push raw frames in (together
/// with the features/detections their policy planning needs) and get
/// the frame their algorithm will actually see back.
pub struct Pipeline {
    cfg: PipelineConfig,
    runtime: RegionRuntime,
    decoder: SoftwareDecoder,
    traffic: TrafficRecorder,
    pool: FramebufferPool,
    h264: Option<H264Model>,
    policy: Box<dyn Policy + Send>,
    /// The policy's input: the task's latest features and detections.
    /// Kept across frames and refilled in place, so its vectors keep
    /// their capacity.
    ctx: PolicyContext,
    stats: RegionStatsCollector,
    fractions: Vec<f64>,
    frame_idx: u64,
    /// The two most recent decoded frames (newest last), kept for the
    /// motion-vector and predictive policies. Once both slots exist the
    /// older one is overwritten in place each frame.
    decoded_history: Vec<GrayFrame>,
    /// The captured-region rectangles of the same two frames. Decoded
    /// pixels outside these rects are stale copies, so only blocks
    /// inside them carry motion evidence.
    captured_history: Vec<Vec<Rect>>,
    /// Motion-estimate handle shared with the predictive policy
    /// (`Some` only for [`PolicyKind::CyclePredictive`]).
    motion: Option<rpr_predict::SharedMotion>,
    /// Observer invoked with every encoded frame the rhythmic path
    /// produces (the record half of wire record/replay). `None` costs
    /// nothing; the rhythmic branch is the only caller.
    encoded_tap: Option<EncodedTap>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("baseline", &self.cfg.baseline)
            .field("policy", &self.policy.name())
            .field("frame_idx", &self.frame_idx)
            .finish()
    }
}

impl Pipeline {
    /// Creates the pipeline for one experiment run.
    pub fn new(cfg: PipelineConfig) -> Self {
        let cycle = match cfg.baseline {
            Baseline::Rp { cycle_length } => cycle_length,
            Baseline::MultiRoi { cycle_length, .. } => cycle_length,
            _ => 10,
        };
        let h264 = match cfg.baseline {
            Baseline::H264 { quality } => Some(H264Model::new(quality, cycle)),
            _ => None,
        };
        let window = if matches!(cfg.baseline, Baseline::H264 { .. }) { 3 } else { 4 };
        let feature_policy = FeaturePolicy::with_params(cfg.policy_params);
        let mut motion = None;
        let policy: Box<dyn Policy + Send> = match cfg.policy_kind {
            PolicyKind::CycleFeature | PolicyKind::CycleMotion => {
                Box::new(CycleLengthPolicy::new(cycle, feature_policy))
            }
            PolicyKind::CycleKalman => {
                Box::new(CycleLengthPolicy::new(cycle, KalmanPolicy::new()))
            }
            PolicyKind::AdaptiveCycle { min_cycle, max_cycle } => {
                Box::new(AdaptiveCyclePolicy::new(min_cycle, max_cycle, feature_policy))
            }
            PolicyKind::CyclePredictive => {
                let handle = rpr_predict::SharedMotion::new();
                motion = Some(handle.clone());
                Box::new(rpr_predict::PredictivePolicy::new(
                    Box::new(CycleLengthPolicy::new(cycle, feature_policy)),
                    handle,
                ))
            }
        };
        // One buffer pool from encoder to decoder: the frames the
        // decoder's history evicts come back to the encoder.
        let buffers = BufferPool::new();
        Pipeline {
            runtime: RegionRuntime::with_pool(cfg.width, cfg.height, buffers.clone()),
            decoder: SoftwareDecoder::with_pool(
                cfg.width,
                cfg.height,
                ReconstructionMode::BlockNearest,
                buffers,
            ),
            traffic: TrafficRecorder::new(cfg.fps),
            pool: FramebufferPool::new(window),
            h264,
            policy,
            ctx: PolicyContext::default(),
            stats: RegionStatsCollector::new(cfg.fps),
            fractions: Vec::new(),
            frame_idx: 0,
            decoded_history: Vec::new(),
            captured_history: Vec::new(),
            motion,
            encoded_tap: None,
            cfg,
        }
    }

    /// True when this pipeline's policy consumes decoded-frame motion.
    fn uses_motion_history(&self) -> bool {
        matches!(
            self.cfg.policy_kind,
            PolicyKind::CycleMotion | PolicyKind::CyclePredictive
        )
    }

    /// The region labels the policy planned for the most recent frame —
    /// what the tracking runner scores against ground-truth tracks.
    pub fn planned_regions(&self) -> &RegionList {
        self.runtime.regions()
    }

    /// The shared motion-estimate handle (`Some` only for
    /// [`PolicyKind::CyclePredictive`]) — lets callers read the ego
    /// fit's inlier fraction after each frame.
    pub fn motion(&self) -> Option<&rpr_predict::SharedMotion> {
        self.motion.as_ref()
    }

    /// Installs an observer for every [`EncodedFrame`] the rhythmic
    /// (`Rp`) capture path produces, in frame order — the hook wire
    /// recording attaches to. Frame-based baselines never encode, so
    /// the tap never fires for them.
    pub fn set_encoded_tap(&mut self, tap: EncodedTap) {
        self.encoded_tap = Some(tap);
    }

    /// The configured baseline.
    pub fn baseline(&self) -> Baseline {
        self.cfg.baseline
    }

    /// True when the *next* processed frame is a periodic full capture
    /// (always true for the frame-based baselines).
    pub fn next_is_full_capture(&self) -> bool {
        match self.cfg.baseline {
            Baseline::Rp { cycle_length } | Baseline::MultiRoi { cycle_length, .. } => {
                self.frame_idx.is_multiple_of(cycle_length)
            }
            _ => true,
        }
    }

    /// Pushes one raw sensor/ISP frame through the capture path.
    ///
    /// `features` and `detections` are what the task extracted from the
    /// *previous* processed frame; the rhythmic and multi-ROI baselines
    /// use them to plan this frame's regions.
    pub fn process_frame(
        &mut self,
        raw: &GrayFrame,
        features: Vec<Feature>,
        detections: Vec<(Rect, f64)>,
    ) -> GrayFrame {
        self.ctx.features = features;
        self.ctx.detections = detections;
        self.capture(raw)
    }

    /// [`Self::process_frame`] reading the task's feedback by
    /// reference: it is copied into the policy context the pipeline
    /// keeps across frames, so planning allocates no feedback vectors
    /// once their capacity has grown.
    pub fn process_feedback(&mut self, raw: &GrayFrame, feedback: &Feedback) -> GrayFrame {
        self.ctx.features.clone_from(&feedback.features);
        self.ctx.detections.clone_from(&feedback.detections);
        self.capture(raw)
    }

    /// The body of [`Self::process_frame`], planning from `self.ctx`.
    fn capture(&mut self, raw: &GrayFrame) -> GrayFrame {
        let _span = rpr_trace::span(rpr_trace::names::PIPELINE_FRAME, "workloads")
            .with_frame(self.frame_idx);
        let bpp = self.cfg.format.bytes_per_pixel() as u64;
        let frame_bytes = u64::from(self.cfg.width) * u64::from(self.cfg.height) * bpp;
        let fraction_of_frame = |bytes: u64| bytes as f64 / frame_bytes.max(1) as f64;
        // Each branch yields the frame the task sees plus this frame's
        // one record: its traffic, its resident framebuffer bytes and
        // its captured-pixel fraction.
        let (out, traffic, resident, fraction) = match self.cfg.baseline {
            Baseline::Fch => {
                (raw.clone(), FrameTraffic::written_and_read(frame_bytes, 0), frame_bytes, 1.0)
            }
            Baseline::Fcl { factor } => {
                let small = downscale_box(raw, factor.max(1));
                let small_bytes =
                    u64::from(small.width()) * u64::from(small.height()) * bpp;
                // Upscale back so the task sees full-frame coordinates
                // (with the lost detail gone).
                (
                    resize_bilinear(&small, self.cfg.width, self.cfg.height),
                    FrameTraffic::written_and_read(small_bytes, 0),
                    small_bytes,
                    fraction_of_frame(small_bytes),
                )
            }
            Baseline::Rp { .. } => {
                if let [prev, cur] = &self.decoded_history[..] {
                    match self.cfg.policy_kind {
                        PolicyKind::CycleMotion => {
                            let mvs = rpr_vision::estimate_block_motion(prev, cur, 16, 8);
                            self.ctx.detections.extend(rpr_vision::moving_regions(&mvs, 1.5));
                        }
                        PolicyKind::CyclePredictive => {
                            if let Some(motion) = &self.motion {
                                let mvs = rpr_vision::estimate_block_motion(prev, cur, 16, 8);
                                // Three gates keep the ego fit honest:
                                // decoded pixels outside the captured
                                // regions are stale copies that vote
                                // "zero motion" with zero SAD (keep only
                                // blocks freshly captured in both
                                // frames); flat blocks tie at many
                                // offsets and the zero bias turns them
                                // into confident spurious zero vectors;
                                // and a match whose window fell on stale
                                // content shows up as a high residual.
                                let fresh: Vec<_> = mvs
                                    .into_iter()
                                    .filter(|v| {
                                        (match &self.captured_history[..] {
                                            [ra, rb] => {
                                                covers_block(ra, &v.block)
                                                    && covers_block(rb, &v.block)
                                            }
                                            _ => true,
                                        }) && textured_block(cur, &v.block)
                                            && v.sad <= v.block.area() * MAX_SAD_PER_PX
                                    })
                                    .collect();
                                // Tracked regions can be as small as one
                                // block pair; small sets take the
                                // translation-only path inside the fit.
                                let cfg = rpr_predict::EgoEstimatorConfig {
                                    min_vectors: 2,
                                    ..Default::default()
                                };
                                motion.update(fresh, &cfg);
                            }
                        }
                        _ => {}
                    }
                }
                self.runtime.apply_policy(&mut *self.policy, &mut self.ctx);
                let planned = self.runtime.regions();
                let is_full = planned.len() == 1
                    && planned.labels()[0]
                        == RegionLabel::full_frame(self.cfg.width, self.cfg.height);
                self.stats.observe(planned, is_full);
                let encoded = self.runtime.encode_frame(raw);
                if let Some(tap) = self.encoded_tap.as_mut() {
                    tap(&encoded);
                }
                let payload = encoded.pixel_count() as u64 * bpp;
                let metadata = encoded.metadata_bytes() as u64;
                let fraction = encoded.captured_fraction();
                let decoded = self.decoder.decode_owned(encoded);
                if self.uses_motion_history() {
                    self.remember(&decoded);
                }
                (
                    decoded,
                    FrameTraffic::written_and_read(payload, metadata),
                    payload + metadata,
                    fraction,
                )
            }
            Baseline::MultiRoi { max_regions, cycle_length } => {
                if self.frame_idx.is_multiple_of(cycle_length) {
                    (raw.clone(), FrameTraffic::written_and_read(frame_bytes, 0), frame_bytes, 1.0)
                } else {
                    let boxes =
                        self.cluster_rois(&self.ctx.features, &self.ctx.detections, max_regions);
                    let roi_bytes: u64 =
                        boxes.iter().map(|b| b.area() * bpp).sum();
                    // Grouped per-region storage decodes to the regions
                    // pasted on black.
                    let mut out: GrayFrame = Plane::new(self.cfg.width, self.cfg.height);
                    for b in &boxes {
                        for y in b.y..b.bottom() {
                            for x in b.x..b.right() {
                                out.set(x, y, raw.get(x, y).unwrap_or(0));
                            }
                        }
                    }
                    (
                        out,
                        FrameTraffic::written_and_read(roi_bytes, 0),
                        roi_bytes,
                        fraction_of_frame(roi_bytes),
                    )
                }
            }
            Baseline::H264 { .. } => {
                let codec = self.h264.as_mut().expect("H264 baseline has a codec");
                let coded = codec.encode(raw);
                let (read, write) = codec.frame_traffic_bytes(self.cfg.width, self.cfg.height, &coded);
                // Capture writes the raw frame; the consumer reads the
                // decoded frame; the codec adds its own reference traffic.
                let traffic = FrameTraffic {
                    payload_write: frame_bytes + write * bpp,
                    payload_read: frame_bytes + read * bpp,
                    ..FrameTraffic::default()
                };
                // One buffer per frame; the 3-frame window keeps the
                // codec's current + reference + reconstruction resident.
                (coded.reconstruction, traffic, frame_bytes, 1.0)
            }
        };
        self.traffic.record_frame(traffic);
        self.pool.admit_raw(resident);
        self.fractions.push(fraction);
        self.frame_idx += 1;
        out
    }

    /// Makes `decoded`, with the rects of the regions it was captured
    /// under, the newest motion-history entry. The two slots form a
    /// ring: once both exist the older is overwritten in place, so the
    /// steady state copies a plane rather than allocating one.
    fn remember(&mut self, decoded: &GrayFrame) {
        let rects = self.runtime.regions().iter().map(|r| r.rect());
        match (&mut self.decoded_history[..], &mut self.captured_history[..]) {
            ([older, _], [older_rects, _]) => {
                older.as_mut_slice().copy_from_slice(decoded.as_slice());
                older_rects.clear();
                older_rects.extend(rects);
                self.decoded_history.swap(0, 1);
                self.captured_history.swap(0, 1);
            }
            _ => {
                self.decoded_history.push(decoded.clone());
                self.captured_history.push(rects.collect());
            }
        }
    }

    /// Clusters the policy's would-be regions into at most
    /// `max_regions` full-resolution boxes (the paper's multi-ROI
    /// emulation via k-means, §5.3).
    fn cluster_rois(
        &self,
        features: &[Feature],
        detections: &[(Rect, f64)],
        max_regions: usize,
    ) -> Vec<Rect> {
        let policy = FeaturePolicy::with_params(self.cfg.policy_params);
        let mut labels: Vec<RegionLabel> =
            features.iter().map(|f| policy.label_for_feature(f)).collect();
        labels.extend(detections.iter().map(|(r, d)| policy.label_for_detection(r, *d)));
        let list = RegionList::new_lossy(self.cfg.width, self.cfg.height, labels);
        if list.is_empty() {
            return Vec::new();
        }
        if list.len() <= max_regions {
            return list.iter().map(|r| r.rect()).collect();
        }
        let centers: Vec<(f64, f64)> = list
            .iter()
            .map(|r| {
                let c = r.rect().center();
                (c.0, c.1)
            })
            .collect();
        let result = kmeans(&centers, max_regions, 20, self.cfg.seed)
            .expect("non-empty points and k > 0");
        let mut boxes: Vec<Option<Rect>> = vec![None; max_regions];
        for (i, region) in list.iter().enumerate() {
            let k = result.assignments[i];
            let r = region.rect().clamped(self.cfg.width, self.cfg.height);
            boxes[k] = Some(match boxes[k] {
                Some(b) => b.union(&r),
                None => r,
            });
        }
        boxes.into_iter().flatten().collect()
    }

    /// Finalizes the run, returning the memory-side measurements.
    pub fn finish(self) -> Measurements {
        Measurements {
            traffic: self.traffic.summary(),
            mean_footprint_bytes: self.pool.mean_bytes(),
            peak_footprint_bytes: self.pool.peak_bytes(),
            captured_fractions: self.fractions,
            region_stats: self.stats.finish(),
            encoder: self
                .cfg
                .baseline
                .is_rhythmic()
                .then(|| *self.runtime.encoder().stats()),
        }
    }
}

/// True when `block` lies entirely inside one of `rects` — the test for
/// "this block's pixels were freshly captured, not stale copies".
fn covers_block(rects: &[Rect], block: &Rect) -> bool {
    rects
        .iter()
        .any(|r| r.intersection(block).is_some_and(|i| i.area() == block.area()))
}

/// Highest plausible per-pixel SAD for a match onto fresh content;
/// above this the match window likely straddled stale pixels.
const MAX_SAD_PER_PX: u64 = 16;

/// Mean absolute deviation a block must exceed to be worth matching:
/// flat blocks tie at many offsets, so their vectors carry no signal.
const MIN_BLOCK_MAD: u64 = 4;

/// Whether the block has enough texture for its match to be
/// trustworthy.
fn textured_block(frame: &GrayFrame, block: &Rect) -> bool {
    let area = block.area().max(1);
    let mut sum = 0u64;
    for y in block.y..block.y.saturating_add(block.h) {
        for x in block.x..block.x.saturating_add(block.w) {
            sum += u64::from(frame.get_clamped(i64::from(x), i64::from(y)));
        }
    }
    let mean = sum / area;
    let mut dev = 0u64;
    for y in block.y..block.y.saturating_add(block.h) {
        for x in block.x..block.x.saturating_add(block.w) {
            dev += u64::from(frame.get_clamped(i64::from(x), i64::from(y))).abs_diff(mean);
        }
    }
    dev / area >= MIN_BLOCK_MAD
}

/// One row of an experiment: a task run on a dataset under a baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Task name ("visual-slam", "pose-estimation", "face-detection").
    pub task: String,
    /// Dataset name.
    pub dataset: String,
    /// Baseline label ("FCH", "RP10", ...).
    pub baseline: String,
    /// Named accuracy metrics (e.g. `ate_mm`, `map`).
    pub accuracy: BTreeMap<String, f64>,
    /// Memory-side measurements.
    pub measurements: Measurements,
}

impl ExperimentResult {
    /// Assembles a result row.
    pub fn new(
        task: &str,
        dataset: &str,
        baseline: Baseline,
        accuracy: BTreeMap<String, f64>,
        measurements: Measurements,
    ) -> Self {
        ExperimentResult {
            task: task.to_string(),
            dataset: dataset.to_string(),
            baseline: baseline.label(),
            accuracy,
            measurements,
        }
    }

    /// Total throughput in MB/s (write + read) — Fig. 8's y-axis.
    pub fn throughput_mb_s(&self) -> f64 {
        self.measurements.traffic.throughput_mb_s
    }

    /// Mean footprint in MB — Fig. 8's memory axis.
    pub fn mean_footprint_mb(&self) -> f64 {
        self.measurements.mean_footprint_bytes / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: u32, h: u32, t: u32) -> GrayFrame {
        Plane::from_fn(w, h, |x, y| ((x * 3) ^ (y * 7) ^ (t * 11)) as u8)
    }

    fn run(baseline: Baseline, frames: u32) -> Measurements {
        let mut p = Pipeline::new(PipelineConfig::new(64, 48, baseline));
        for t in 0..frames {
            let feats = vec![Feature::new(20.0, 20.0, 16.0).with_displacement(1.0)];
            let _ = p.process_frame(&textured(64, 48, t), feats, vec![]);
        }
        p.finish()
    }

    #[test]
    fn fch_moves_full_frames() {
        let m = run(Baseline::Fch, 5);
        assert_eq!(m.traffic.write_bytes, 5 * 64 * 48 * 3); // RGB888
        assert_eq!(m.traffic.read_bytes, 5 * 64 * 48 * 3);
        assert_eq!(m.mean_captured_fraction(), 1.0);
    }

    #[test]
    fn fcl_divides_traffic_by_factor_squared() {
        let m = run(Baseline::Fcl { factor: 4 }, 5);
        assert_eq!(m.traffic.write_bytes, 5 * (64 / 4) * (48 / 4) * 3);
    }

    #[test]
    fn rp_reduces_traffic_vs_fch() {
        let fch = run(Baseline::Fch, 10);
        let rp = run(Baseline::Rp { cycle_length: 5 }, 10);
        assert!(rp.traffic.write_bytes < fch.traffic.write_bytes);
        assert!(rp.region_stats.is_some());
        assert!(rp.encoder.is_some());
        // Full captures on frames 0 and 5.
        assert_eq!(rp.captured_fractions[0], 1.0);
        assert_eq!(rp.captured_fractions[5], 1.0);
        assert!(rp.captured_fractions[1] < 0.5);
    }

    #[test]
    fn rp_decode_preserves_region_pixels() {
        let mut p = Pipeline::new(PipelineConfig::new(64, 48, Baseline::Rp { cycle_length: 5 }));
        let raw0 = textured(64, 48, 0);
        let d0 = p.process_frame(&raw0, vec![], vec![]);
        assert_eq!(d0, raw0, "full capture decodes losslessly");
        let raw1 = textured(64, 48, 1);
        let feats = vec![Feature::new(30.0, 24.0, 10.0).with_displacement(9.0)];
        let d1 = p.process_frame(&raw1, feats, vec![]);
        // Inside the feature region the fresh pixels are present.
        assert_eq!(d1.get(30, 24), raw1.get(30, 24));
    }

    #[test]
    fn predictive_policy_runs_end_to_end_and_stays_in_bounds() {
        // Content scrolls right 4 px/frame.
        let scroll = |t: u32| {
            Plane::from_fn(96, 64, |x, y| {
                let sx = x.wrapping_sub(t * 4);
                ((sx.wrapping_mul(13)) ^ (y.wrapping_mul(29))).wrapping_mul(31) as u8
            })
        };
        let cfg = PipelineConfig::new(96, 64, Baseline::Rp { cycle_length: 4 })
            .with_policy(PolicyKind::CyclePredictive);
        let mut p = Pipeline::new(cfg);
        for t in 0..9u32 {
            let det = vec![(Rect::new(30, 20, 20, 20), 0.0)];
            let _ = p.process_frame(&scroll(t), vec![], det);
            for r in p.planned_regions().labels() {
                assert!(r.right() <= 96 && r.bottom() <= 64, "out of bounds {r}");
            }
        }
        let m = p.finish();
        assert!(m.region_stats.is_some());
        assert!(m.encoder.is_some());
        // Full captures survive prediction untouched.
        assert_eq!(m.captured_fractions[0], 1.0);
        assert_eq!(m.captured_fractions[4], 1.0);
        assert!(m.captured_fractions[1] < 1.0);
    }

    #[test]
    fn multiroi_caps_region_count_and_costs_more_than_rp() {
        let mut many_feats = Vec::new();
        for i in 0..40 {
            many_feats.push(
                Feature::new(f64::from(i % 8) * 8.0, f64::from(i / 8) * 9.0, 8.0)
                    .with_displacement(1.0),
            );
        }
        let cfg_roi = PipelineConfig::new(
            64,
            48,
            Baseline::MultiRoi { max_regions: 4, cycle_length: 5 },
        );
        let mut roi = Pipeline::new(cfg_roi);
        let cfg_rp = PipelineConfig::new(64, 48, Baseline::Rp { cycle_length: 5 });
        let mut rp = Pipeline::new(cfg_rp);
        for t in 0..10u32 {
            let frame = textured(64, 48, t);
            let _ = roi.process_frame(&frame, many_feats.clone(), vec![]);
            let _ = rp.process_frame(&frame, many_feats.clone(), vec![]);
        }
        let m_roi = roi.finish();
        let m_rp = rp.finish();
        assert!(
            m_roi.traffic.write_bytes > m_rp.traffic.write_bytes,
            "multi-ROI {} vs RP {}",
            m_roi.traffic.write_bytes,
            m_rp.traffic.write_bytes
        );
    }

    #[test]
    fn h264_traffic_exceeds_fch() {
        let fch = run(Baseline::Fch, 6);
        let h = run(Baseline::H264 { quality: crate::H264Quality::Medium }, 6);
        assert!(
            h.traffic.write_bytes + h.traffic.read_bytes
                > fch.traffic.write_bytes + fch.traffic.read_bytes
        );
        assert!(h.peak_footprint_bytes >= fch.peak_footprint_bytes / 2);
    }

    #[test]
    fn result_row_carries_labels() {
        let m = run(Baseline::Rp { cycle_length: 10 }, 3);
        let mut acc = BTreeMap::new();
        acc.insert("map".to_string(), 0.9);
        let r = ExperimentResult::new(
            "face-detection",
            "face-seq1",
            Baseline::Rp { cycle_length: 10 },
            acc,
            m,
        );
        assert_eq!(r.baseline, "RP10");
        assert!(r.throughput_mb_s() > 0.0);
    }
}
