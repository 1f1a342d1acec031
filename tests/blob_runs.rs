//! The run labeller against the flood fill on decoded pose frames, in
//! tier-1.
//!
//! `PoseTask` labels blobs by row runs with a reused scratch
//! (`detect_blobs_into`), counts crisp pixels over row slices and
//! keeps its buffers across frames. This test replays the pose
//! workload at 256x192 under FCH and under Rp{5} with a reference task
//! written the old way: the `detect_blobs_scalar` flood fill, a
//! per-pixel crisp count and fresh vectors every frame. On every
//! decoded frame `detect_blobs` must equal `detect_blobs_scalar` bit
//! for bit, and `run_pose_with` must score the same mAP and per-frame
//! AP as the reference run.

use rhythmic_pixel_regions::frame::{GrayFrame, Rect};
use rhythmic_pixel_regions::stream::{run_sync, Feedback, TaskStage};
use rhythmic_pixel_regions::vision::{detect_blobs, detect_blobs_scalar, Blob};
use rhythmic_pixel_regions::workloads::staged::FramesEval;
use rhythmic_pixel_regions::workloads::tasks::run_pose_with;
use rhythmic_pixel_regions::workloads::{
    pose_outcome, Baseline, DatasetSource, PipelineCapture, PipelineConfig, PoseDataset,
};

const W: u32 = 256;
const H: u32 = 192;
const FRAMES: usize = 48;

fn bits(blobs: &[Blob]) -> Vec<(Rect, u64, u64, u64, u64)> {
    blobs
        .iter()
        .map(|b| {
            (
                b.bbox,
                b.area,
                b.cx.to_bits(),
                b.cy.to_bits(),
                b.mean_intensity.to_bits(),
            )
        })
        .collect()
}

/// Crisp-pixel fraction of `bbox`, one pixel at a time.
fn crisp_fraction_per_pixel(frame: &GrayFrame, bbox: &Rect) -> f64 {
    let mut crisp = 0u64;
    for y in bbox.y..bbox.bottom().min(frame.height()) {
        for x in bbox.x..bbox.right().min(frame.width()) {
            if frame.get(x, y).unwrap_or(0) >= 210 {
                crisp += 1;
            }
        }
    }
    crisp as f64 / bbox.area().max(1) as f64
}

/// Nearest-centre displacement against the previous frame's boxes, or
/// `default` for a box with no counterpart within its own size.
fn displacements(current: &[Rect], previous: &[Rect], default: f64) -> Vec<(Rect, f64)> {
    current
        .iter()
        .map(|c| {
            let (cx, cy) = c.center();
            let nearest = previous
                .iter()
                .map(|p| {
                    let (px, py) = p.center();
                    ((cx - px).powi(2) + (cy - py).powi(2)).sqrt()
                })
                .fold(f64::MAX, f64::min);
            let d = if nearest == f64::MAX || nearest > f64::from(c.w.max(c.h)) {
                default
            } else {
                nearest
            };
            (*c, d)
        })
        .collect()
}

/// The pose task on the flood-fill reference, which also checks
/// `detect_blobs` against it on every frame it sees.
struct ReferencePoseTask<'a> {
    dataset: &'a PoseDataset,
    min_area: u64,
    prev_boxes: Vec<Rect>,
    frames_eval: FramesEval,
    checked: usize,
}

impl TaskStage for ReferencePoseTask<'_> {
    type Input = GrayFrame;
    type Output = (FramesEval, usize);

    fn consume(&mut self, frame_idx: u64, processed: GrayFrame) -> Feedback {
        let blobs = detect_blobs_scalar(&processed, 150, self.min_area.max(8));
        assert_eq!(
            bits(&detect_blobs(&processed, 150, self.min_area.max(8))),
            bits(&blobs),
            "frame {frame_idx}: run labeller differs from the flood fill"
        );
        self.checked += 1;
        let detections: Vec<(Rect, f64)> = blobs
            .first()
            .filter(|b| crisp_fraction_per_pixel(&processed, &b.bbox) >= 0.08)
            .map(|b| (b.bbox, b.area as f64))
            .into_iter()
            .collect();
        let gts = vec![self.dataset.gt_bbox(frame_idx as usize)];
        self.frames_eval.push((detections.clone(), gts));
        let boxes: Vec<Rect> = detections.iter().map(|(r, _)| *r).collect();
        let detections = displacements(&boxes, &self.prev_boxes, 8.0)
            .into_iter()
            .map(|(r, d)| (r, d * 2.0))
            .collect();
        self.prev_boxes = boxes;
        Feedback {
            features: Vec::new(),
            detections,
        }
    }

    fn finish(self) -> (FramesEval, usize) {
        (self.frames_eval, self.checked)
    }
}

#[test]
fn run_labeller_matches_flood_fill_on_decoded_pose_frames() {
    for seed in [3u64, 11] {
        let ds = PoseDataset::new(W, H, FRAMES, seed);
        for baseline in [Baseline::Fch, Baseline::Rp { cycle_length: 5 }] {
            let cfg = PipelineConfig::new(W, H, baseline);
            let task = ReferencePoseTask {
                dataset: &ds,
                min_area: u64::from(W) * u64::from(H) / 600,
                prev_boxes: Vec::new(),
                frames_eval: Vec::new(),
                checked: 0,
            };
            let (measurements, (frames_eval, checked)) =
                run_sync(DatasetSource::new(&ds), PipelineCapture::new(cfg), task);
            assert_eq!(checked, FRAMES);
            let reference = pose_outcome(measurements, frames_eval);
            let fast = run_pose_with(&ds, cfg);
            let tag = format!("seed {seed}, {baseline:?}");
            assert!(
                reference.map > 0.0,
                "{tag}: the reference run detects nothing"
            );
            assert_eq!(fast.map.to_bits(), reference.map.to_bits(), "{tag}: mAP");
            let ap = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                ap(&fast.per_frame_ap),
                ap(&reference.per_frame_ap),
                "{tag}: per-frame AP"
            );
        }
    }
}
