//! The face-detection workload (paper §5.3): faces tracked through a
//! choke-point scene, measured by IoU mAP, with regions planned from
//! face trajectories ("we use face trajectory for face detection …
//! for determining the regions", §5.3.2).

use crate::datasets::{FaceDataset, VideoDataset};
use crate::runner::{Measurements, PipelineConfig};
use crate::staged::{face_outcome, face_spec, run_face_staged};
use crate::Baseline;
use rpr_frame::Rect;
use rpr_stream::{run_sync, StreamConfig};
use serde::{Deserialize, Serialize};

/// Result of one face-detection run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaceOutcome {
    /// IoU-0.5 mean average precision over all frames.
    pub map: f64,
    /// Per-frame average precision.
    pub per_frame_ap: Vec<f64>,
    /// Memory-side measurements.
    pub measurements: Measurements,
}

/// Runs the face workload on `dataset` under `baseline`, as a 1-stream
/// instance of the staged executor (bit-identical to the synchronous
/// [`run_face_with`] under blocking backpressure).
pub fn run_face(dataset: &FaceDataset, baseline: Baseline) -> FaceOutcome {
    let cfg = PipelineConfig::new(dataset.width(), dataset.height(), baseline);
    run_face_staged(dataset, cfg, StreamConfig::blocking()).0
}

/// Runs the face workload with an explicit pipeline configuration: the
/// face stream's stages under the synchronous [`rpr_stream::run_sync`].
pub fn run_face_with(dataset: &FaceDataset, cfg: PipelineConfig) -> FaceOutcome {
    let spec = face_spec(dataset, cfg, StreamConfig::blocking());
    let (measurements, frames_eval) = run_sync(spec.source, spec.capture, spec.task);
    face_outcome(measurements, frames_eval)
}

/// Fraction of dark (eye/mouth) pixels inside the inscribed ellipse of
/// a candidate box — the facial-structure proxy. Pixels outside the
/// ellipse (background corners) are excluded.
pub(crate) fn eye_mouth_fraction(frame: &rpr_frame::GrayFrame, bbox: &Rect) -> f64 {
    let (cx, cy) = bbox.center();
    let hw = f64::from(bbox.w) / 2.0;
    let hh = f64::from(bbox.h) / 2.0;
    let mut dark = 0u64;
    let mut total = 0u64;
    for y in bbox.y..bbox.bottom().min(frame.height()) {
        for x in bbox.x..bbox.right().min(frame.width()) {
            let nx = (f64::from(x) - cx) / hw.max(1.0);
            let ny = (f64::from(y) - cy) / hh.max(1.0);
            if nx * nx + ny * ny > 0.8 {
                continue;
            }
            total += 1;
            if frame.get(x, y).unwrap_or(255) < 80 {
                dark += 1;
            }
        }
    }
    dark as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> FaceDataset {
        FaceDataset::new(192, 144, 24, 3, 21)
    }

    #[test]
    fn fch_detects_faces_well() {
        let out = run_face(&dataset(), Baseline::Fch);
        assert!(out.map > 0.6, "FCH mAP {}", out.map);
    }

    #[test]
    fn rp_reduces_traffic_with_bounded_loss() {
        let ds = dataset();
        let fch = run_face(&ds, Baseline::Fch);
        let rp = run_face(&ds, Baseline::Rp { cycle_length: 5 });
        assert!(
            rp.measurements.traffic.write_bytes < fch.measurements.traffic.write_bytes
        );
        assert!(rp.map > fch.map * 0.5, "RP mAP {} vs FCH {}", rp.map, fch.map);
    }

    #[test]
    fn higher_cycle_length_discards_more() {
        let ds = FaceDataset::new(192, 144, 31, 3, 22);
        let rp5 = run_face(&ds, Baseline::Rp { cycle_length: 5 });
        let rp15 = run_face(&ds, Baseline::Rp { cycle_length: 15 });
        assert!(
            rp15.measurements.traffic.write_bytes < rp5.measurements.traffic.write_bytes,
            "RP15 {} vs RP5 {}",
            rp15.measurements.traffic.write_bytes,
            rp5.measurements.traffic.write_bytes
        );
    }
}
