//! The visual-SLAM workload (paper §3.4, §5.3): ORB-feature visual
//! odometry over the synthetic textured world, with region labels
//! derived from feature attributes exactly as the paper's case study
//! prescribes — `size` → region footprint, `octave` → stride, observed
//! displacement → temporal rate.

use crate::datasets::{SlamDataset, VideoDataset};
use crate::runner::{Measurements, PipelineConfig};
use crate::staged::{run_slam_staged, slam_outcome, slam_spec};
use crate::Baseline;
use rpr_stream::{run_sync, StreamConfig};
use rpr_vision::Pose2d;
use serde::{Deserialize, Serialize};

/// Result of one V-SLAM run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlamOutcome {
    /// Absolute trajectory error RMSE in millimetres (the paper's
    /// headline metric: 43 mm FCH → 51 mm RP10).
    pub ate_mm: f64,
    /// Per-frame translational relative pose error, millimetres.
    pub rpe_translational_mm: f64,
    /// Per-frame rotational relative pose error, degrees.
    pub rpe_rotational_deg: f64,
    /// Frames where motion estimation fell back to constant velocity.
    pub tracking_failures: u32,
    /// Estimated trajectory in millimetres.
    pub estimated_mm: Vec<Pose2d>,
    /// Memory-side measurements.
    pub measurements: Measurements,
}

/// Runs visual odometry on `dataset` under `baseline`, as a 1-stream
/// instance of the staged executor (bit-identical to the synchronous
/// [`run_slam_with`] under blocking backpressure).
pub fn run_slam(dataset: &SlamDataset, baseline: Baseline) -> SlamOutcome {
    let cfg = PipelineConfig::new(dataset.width(), dataset.height(), baseline);
    run_slam_staged(dataset, cfg, StreamConfig::blocking()).0
}

/// Runs visual odometry with an explicit pipeline configuration: the
/// SLAM stream's stages under the synchronous [`rpr_stream::run_sync`].
pub fn run_slam_with(dataset: &SlamDataset, cfg: PipelineConfig) -> SlamOutcome {
    let spec = slam_spec(dataset, cfg, StreamConfig::blocking());
    let (measurements, track) = run_sync(spec.source, spec.capture, spec.task);
    slam_outcome(dataset, measurements, track)
}

pub(crate) fn wrap_angle(t: f64) -> f64 {
    let mut a = t % (2.0 * std::f64::consts::PI);
    if a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    } else if a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> SlamDataset {
        SlamDataset::new(192, 144, 16, 77)
    }

    #[test]
    fn fch_tracking_is_accurate() {
        let out = run_slam(&small_dataset(), Baseline::Fch);
        assert!(out.ate_mm.is_finite());
        assert!(out.ate_mm < 6.0, "FCH ATE {} mm", out.ate_mm);
        assert_eq!(out.estimated_mm.len(), 16);
    }

    #[test]
    fn rp_is_close_to_fch_and_cheaper() {
        let ds = small_dataset();
        let fch = run_slam(&ds, Baseline::Fch);
        let rp = run_slam(&ds, Baseline::Rp { cycle_length: 5 });
        assert!(
            rp.measurements.traffic.write_bytes < fch.measurements.traffic.write_bytes,
            "RP must reduce write traffic"
        );
        assert!(rp.ate_mm.is_finite());
        assert!(rp.ate_mm < 30.0, "RP5 ATE {} mm", rp.ate_mm);
    }

    #[test]
    fn fcl_degrades_accuracy() {
        let ds = small_dataset();
        let fch = run_slam(&ds, Baseline::Fch);
        let fcl = run_slam(&ds, Baseline::Fcl { factor: 4 });
        assert!(
            fcl.ate_mm > fch.ate_mm || fcl.tracking_failures > fch.tracking_failures,
            "FCL ({} mm, {} failures) should be worse than FCH ({} mm, {} failures)",
            fcl.ate_mm,
            fcl.tracking_failures,
            fch.ate_mm,
            fch.tracking_failures
        );
    }

    #[test]
    fn region_stats_report_feature_regions() {
        let out = run_slam(&small_dataset(), Baseline::Rp { cycle_length: 5 });
        let stats = out.measurements.region_stats.expect("rhythmic run has stats");
        assert!(stats.avg_regions > 10.0, "avg regions {}", stats.avg_regions);
        assert!(stats.min_stride >= 1 && stats.max_stride <= 4);
    }
}
