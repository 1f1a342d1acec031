//! Region-label statistics — the observed workload characterization of
//! paper Table 4 (average number of regions, region size range, stride
//! range, and temporal rate range).

use rpr_core::RegionList;
use serde::{Deserialize, Serialize};

/// Aggregated region statistics over the regional (non-full-capture)
/// frames of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionStats {
    /// Average number of regions per regional frame.
    pub avg_regions: f64,
    /// Smallest region edge observed `(w, h)`.
    pub min_size: (u32, u32),
    /// Largest region edge observed `(w, h)`.
    pub max_size: (u32, u32),
    /// Smallest stride observed.
    pub min_stride: u32,
    /// Largest stride observed.
    pub max_stride: u32,
    /// Fastest sampling interval observed, in milliseconds at the run's
    /// frame rate (= skip_min / fps).
    pub min_rate_ms: f64,
    /// Slowest sampling interval observed, in milliseconds.
    pub max_rate_ms: f64,
    /// Regional frames observed.
    pub frames: u64,
}

/// Accumulates the Table 4 statistics while a workload runs, as
/// running counts, sums and ranges: its memory does not grow with the
/// number of frames observed.
#[derive(Debug, Clone)]
pub struct RegionStatsCollector {
    fps: f64,
    /// Regional frames observed.
    frames: u64,
    /// Regions summed over those frames.
    regions: u64,
    min_size: (u32, u32),
    max_size: (u32, u32),
    min_stride: u32,
    max_stride: u32,
    min_skip: u32,
    max_skip: u32,
}

impl RegionStatsCollector {
    /// Creates a collector for a run at `fps`.
    pub fn new(fps: f64) -> Self {
        RegionStatsCollector {
            fps,
            frames: 0,
            regions: 0,
            min_size: (u32::MAX, u32::MAX),
            max_size: (0, 0),
            min_stride: u32::MAX,
            max_stride: 0,
            min_skip: u32::MAX,
            max_skip: 0,
        }
    }

    /// Records a planned region list. `is_full_capture` frames are
    /// excluded (Table 4 characterizes the feature-guided regions, not
    /// the periodic full scans).
    pub fn observe(&mut self, regions: &RegionList, is_full_capture: bool) {
        if is_full_capture {
            return;
        }
        self.frames += 1;
        self.regions += regions.len() as u64;
        for r in regions {
            self.min_size = (self.min_size.0.min(r.w), self.min_size.1.min(r.h));
            self.max_size = (self.max_size.0.max(r.w), self.max_size.1.max(r.h));
            self.min_stride = self.min_stride.min(r.stride);
            self.max_stride = self.max_stride.max(r.stride);
            self.min_skip = self.min_skip.min(r.skip);
            self.max_skip = self.max_skip.max(r.skip);
        }
    }

    /// Finalizes the statistics; `None` when no regional frame carried
    /// any region.
    pub fn finish(&self) -> Option<RegionStats> {
        if self.frames == 0 || self.max_stride == 0 {
            return None;
        }
        // A degenerate (zero/negative/non-finite) frame rate must not
        // leak inf/NaN rates into serialized reports.
        let frame_ms = if self.fps.is_finite() && self.fps > 0.0 {
            1000.0 / self.fps
        } else {
            0.0
        };
        Some(RegionStats {
            avg_regions: self.regions as f64 / self.frames as f64,
            min_size: self.min_size,
            max_size: self.max_size,
            min_stride: self.min_stride,
            max_stride: self.max_stride,
            min_rate_ms: f64::from(self.min_skip) * frame_ms,
            max_rate_ms: f64::from(self.max_skip) * frame_ms,
            frames: self.frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::RegionLabel;

    fn list(labels: Vec<RegionLabel>) -> RegionList {
        RegionList::new_lossy(640, 480, labels)
    }

    #[test]
    fn collects_ranges() {
        let mut c = RegionStatsCollector::new(30.0);
        c.observe(
            &list(vec![
                RegionLabel::new(0, 0, 70, 70, 1, 1),
                RegionLabel::new(100, 100, 230, 230, 4, 3),
            ]),
            false,
        );
        c.observe(&list(vec![RegionLabel::new(0, 0, 90, 80, 2, 2)]), false);
        let s = c.finish().unwrap();
        assert_eq!(s.frames, 2);
        assert!((s.avg_regions - 1.5).abs() < 1e-12);
        assert_eq!(s.min_size, (70, 70));
        assert_eq!(s.max_size, (230, 230));
        assert_eq!(s.min_stride, 1);
        assert_eq!(s.max_stride, 4);
        // 30 fps: skip 1 → 33.3 ms, skip 3 → 100 ms — Table 4's rates.
        assert!((s.min_rate_ms - 33.33).abs() < 0.1);
        assert!((s.max_rate_ms - 100.0).abs() < 0.1);
    }

    #[test]
    fn full_captures_excluded() {
        let mut c = RegionStatsCollector::new(30.0);
        c.observe(&RegionList::full_frame(640, 480), true);
        assert!(c.finish().is_none());
        c.observe(&list(vec![RegionLabel::new(0, 0, 50, 50, 1, 1)]), false);
        let s = c.finish().unwrap();
        assert_eq!(s.frames, 1);
        assert_eq!(s.max_size, (50, 50));
    }

    #[test]
    fn empty_collector_is_none() {
        assert!(RegionStatsCollector::new(30.0).finish().is_none());
    }

    #[test]
    fn zero_regional_frames_with_full_captures_only_is_none() {
        let mut c = RegionStatsCollector::new(30.0);
        for _ in 0..5 {
            c.observe(&RegionList::full_frame(640, 480), true);
        }
        assert!(c.finish().is_none());
    }

    #[test]
    fn single_frame_run_produces_finite_stats() {
        let mut c = RegionStatsCollector::new(30.0);
        c.observe(&list(vec![RegionLabel::new(0, 0, 50, 50, 2, 3)]), false);
        let s = c.finish().unwrap();
        assert_eq!(s.frames, 1);
        assert_eq!(s.avg_regions, 1.0);
        assert_eq!((s.min_stride, s.max_stride), (2, 2));
        assert!(s.min_rate_ms.is_finite() && s.max_rate_ms.is_finite());
        assert_eq!(s.min_rate_ms, s.max_rate_ms);
    }

    #[test]
    fn degenerate_fps_never_serializes_nan_or_inf() {
        for fps in [0.0, -30.0, f64::NAN, f64::INFINITY] {
            let mut c = RegionStatsCollector::new(fps);
            c.observe(&list(vec![RegionLabel::new(0, 0, 50, 50, 1, 2)]), false);
            let s = c.finish().unwrap();
            assert!(s.min_rate_ms.is_finite(), "fps {fps}: min {}", s.min_rate_ms);
            assert!(s.max_rate_ms.is_finite(), "fps {fps}: max {}", s.max_rate_ms);
            let json = serde_json::to_string(&s).unwrap();
            assert!(!json.contains("null"), "fps {fps}: {json}");
            let back: RegionStats = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
        }
    }
}
