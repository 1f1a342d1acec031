//! The human-pose-estimation workload (paper §5.3): person tracking by
//! bright-skeleton blob detection, measured by IoU mAP, with regions
//! planned from the tracked person box ("skeletal pose joints for
//! determining the regions", §5.3.2).

use crate::datasets::{PoseDataset, VideoDataset};
use crate::runner::{Measurements, PipelineConfig};
use crate::staged::{pose_outcome, pose_spec, run_pose_staged};
use crate::Baseline;
use rpr_frame::Rect;
use rpr_stream::{run_sync, StreamConfig};
use serde::{Deserialize, Serialize};

/// Result of one pose-estimation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoseOutcome {
    /// IoU-0.5 mean average precision over all frames, in `[0, 1]`.
    pub map: f64,
    /// Per-frame average precision.
    pub per_frame_ap: Vec<f64>,
    /// Memory-side measurements.
    pub measurements: Measurements,
}

/// Runs the pose workload on `dataset` under `baseline`, as a 1-stream
/// instance of the staged executor (bit-identical to the synchronous
/// [`run_pose_with`] under blocking backpressure).
pub fn run_pose(dataset: &PoseDataset, baseline: Baseline) -> PoseOutcome {
    let cfg = PipelineConfig::new(dataset.width(), dataset.height(), baseline);
    run_pose_staged(dataset, cfg, StreamConfig::blocking()).0
}

/// Runs the pose workload with an explicit pipeline configuration: the
/// pose stream's stages under the synchronous [`rpr_stream::run_sync`].
pub fn run_pose_with(dataset: &PoseDataset, cfg: PipelineConfig) -> PoseOutcome {
    let spec = pose_spec(dataset, cfg, StreamConfig::blocking());
    let (measurements, frames_eval) = run_sync(spec.source, spec.capture, spec.task);
    pose_outcome(measurements, frames_eval)
}

/// Fraction of pixels in `bbox` at near-full skeleton brightness
/// (≥ 210 of the renderer's 230) — the limb-resolution proxy.
pub(crate) fn crisp_fraction(frame: &rpr_frame::GrayFrame, bbox: &Rect) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> PoseDataset {
        PoseDataset::new(192, 144, 20, 5)
    }

    #[test]
    fn fch_map_is_high() {
        let out = run_pose(&dataset(), Baseline::Fch);
        assert!(out.map > 0.8, "FCH mAP {}", out.map);
        assert_eq!(out.per_frame_ap.len(), 20);
    }

    #[test]
    fn rp_trades_little_accuracy_for_traffic() {
        let ds = dataset();
        let fch = run_pose(&ds, Baseline::Fch);
        let rp = run_pose(&ds, Baseline::Rp { cycle_length: 5 });
        assert!(
            rp.measurements.traffic.write_bytes < fch.measurements.traffic.write_bytes
        );
        assert!(rp.map > fch.map * 0.6, "RP mAP {} vs FCH {}", rp.map, fch.map);
    }

    #[test]
    fn fcl_hurts_map() {
        let ds = dataset();
        let fch = run_pose(&ds, Baseline::Fch);
        let fcl = run_pose(&ds, Baseline::Fcl { factor: 4 });
        assert!(fcl.map <= fch.map + 1e-9, "FCL {} vs FCH {}", fcl.map, fch.map);
    }
}
