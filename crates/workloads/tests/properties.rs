//! Property tests for the workloads crate: datasets, codec, baselines.

use proptest::prelude::*;
use rpr_core::{RegionLabel, RegionList};
use rpr_frame::Plane;
use rpr_workloads::datasets::{FaceDataset, PoseDataset, SlamDataset, VideoDataset};
use rpr_workloads::{H264Model, H264Quality, RegionStatsCollector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every dataset renders deterministic frames of the advertised
    /// geometry, and all ground truth stays inside the frame.
    #[test]
    fn datasets_are_consistent(seed in 0u64..30, idx in 0usize..8) {
        let slam = SlamDataset::new(96, 72, 10, seed);
        prop_assert_eq!(slam.frame(idx), slam.frame(idx));
        prop_assert_eq!(slam.frame(idx).width(), 96);

        let pose = PoseDataset::new(96, 72, 10, seed);
        let bbox = pose.gt_bbox(idx);
        prop_assert!(bbox.right() <= 96 && bbox.bottom() <= 72);
        prop_assert!(!bbox.is_empty());

        let face = FaceDataset::new(96, 72, 10, 3, seed);
        for b in face.gt_bboxes(idx) {
            prop_assert!(b.right() <= 96 && b.bottom() <= 72);
            prop_assert!(b.area() > 0);
        }
    }

    /// The codec's bitrate falls and distortion rises monotonically
    /// with coarser quantization, on any textured frame.
    #[test]
    fn h264_rate_distortion_ordering(seed in 0u32..40) {
        let frame = Plane::from_fn(48, 48, |x, y| {
            (128.0
                + 90.0 * ((f64::from(x) * 0.31 + f64::from(seed)).sin()
                    * (f64::from(y) * 0.17).cos())) as u8
        });
        let hi = H264Model::new(H264Quality::High, 10).encode(&frame);
        let md = H264Model::new(H264Quality::Medium, 10).encode(&frame);
        let lo = H264Model::new(H264Quality::Low, 10).encode(&frame);
        prop_assert!(hi.bits >= md.bits);
        prop_assert!(md.bits >= lo.bits);
        let psnr_hi = hi.reconstruction.psnr(&frame).unwrap();
        let psnr_lo = lo.reconstruction.psnr(&frame).unwrap();
        prop_assert!(psnr_hi >= psnr_lo - 0.2, "{psnr_hi} vs {psnr_lo}");
    }

    /// P-frames of an unchanged scene always cost (far) fewer bits than
    /// the I-frame, at any quality.
    #[test]
    fn static_pframes_are_cheap(pick in 0u8..3) {
        let quality = match pick {
            0 => H264Quality::High,
            1 => H264Quality::Medium,
            _ => H264Quality::Low,
        };
        let frame = Plane::from_fn(48, 48, |x, y| ((x * 5) ^ (y * 3)) as u8);
        let mut codec = H264Model::new(quality, 10);
        let i = codec.encode(&frame);
        let p = codec.encode(&frame);
        prop_assert!(p.bits < i.bits / 2, "P {} vs I {}", p.bits, i.bits);
    }

    /// The SLAM dataset's ground-truth trajectory and its mm conversion
    /// agree for every frame.
    #[test]
    fn slam_gt_units(seed in 0u64..20, idx in 0usize..6) {
        let ds = SlamDataset::new(80, 60, 8, seed);
        let mm = ds.gt_trajectory_mm();
        let pose = ds.gt_pose(idx);
        prop_assert!((mm[idx].x - pose.x * ds.mm_per_px).abs() < 1e-9);
        prop_assert!((mm[idx].y - pose.y * ds.mm_per_px).abs() < 1e-9);
        prop_assert_eq!(mm[idx].theta, pose.theta);
    }

    /// The region-statistics collector keeps running counts and sums,
    /// not a per-frame log; `finish()` equals, bit for bit, a naive
    /// fold over the regional frames' region lists.
    #[test]
    fn region_stats_equal_a_fold_over_the_frames(
        frames in proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec(
                    (0u32..600, 0u32..440, 1u32..200, 1u32..200, 1u32..6, 1u32..6),
                    0..6,
                ),
            ),
            0..60,
        ),
        fps in 1.0f64..120.0,
    ) {
        let lists: Vec<(bool, RegionList)> = frames
            .into_iter()
            .map(|(pick, labels)| {
                let labels = labels
                    .into_iter()
                    .map(|(x, y, w, h, stride, skip)| RegionLabel::new(x, y, w, h, stride, skip))
                    .collect();
                (pick == 0, RegionList::new_lossy(640, 480, labels))
            })
            .collect();
        let mut collector = RegionStatsCollector::new(fps);
        for (full, list) in &lists {
            collector.observe(list, *full);
        }
        let got = collector.finish();

        let regional: Vec<&RegionList> =
            lists.iter().filter(|(full, _)| !full).map(|(_, l)| l).collect();
        let labels: Vec<&RegionLabel> = regional.iter().flat_map(|l| l.labels()).collect();
        if regional.is_empty() || labels.is_empty() {
            prop_assert!(got.is_none());
        } else {
            let got = got.unwrap();
            let counts: Vec<usize> = regional.iter().map(|l| l.len()).collect();
            let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            prop_assert_eq!(got.avg_regions.to_bits(), avg.to_bits());
            prop_assert_eq!(got.frames, counts.len() as u64);
            let min_w = labels.iter().map(|r| r.w).min().unwrap();
            let min_h = labels.iter().map(|r| r.h).min().unwrap();
            let max_w = labels.iter().map(|r| r.w).max().unwrap();
            let max_h = labels.iter().map(|r| r.h).max().unwrap();
            prop_assert_eq!(got.min_size, (min_w, min_h));
            prop_assert_eq!(got.max_size, (max_w, max_h));
            prop_assert_eq!(got.min_stride, labels.iter().map(|r| r.stride).min().unwrap());
            prop_assert_eq!(got.max_stride, labels.iter().map(|r| r.stride).max().unwrap());
            let frame_ms = 1000.0 / fps;
            let min_skip = labels.iter().map(|r| r.skip).min().unwrap();
            let max_skip = labels.iter().map(|r| r.skip).max().unwrap();
            prop_assert_eq!(got.min_rate_ms.to_bits(), (f64::from(min_skip) * frame_ms).to_bits());
            prop_assert_eq!(got.max_rate_ms.to_bits(), (f64::from(max_skip) * frame_ms).to_bits());
        }
    }

    /// Face ground truth only ever reports faces with meaningful
    /// visibility (the ≥30 % rule).
    #[test]
    fn face_gt_visibility_rule(seed in 0u64..20) {
        let ds = FaceDataset::new(96, 72, 60, 4, seed);
        for idx in 0..60 {
            for (b, s) in ds.gt_bboxes(idx).iter().zip(ds.sprites()) {
                let full = u64::from(s.w) * u64::from(s.h);
                // Clamped boxes can belong to any sprite; just enforce
                // the area floor relative to the smallest sprite.
                let min_full = ds.sprites().iter().map(|s| u64::from(s.w) * u64::from(s.h)).min().unwrap();
                prop_assert!(b.area() * 10 >= min_full.min(full) * 2);
            }
        }
    }
}
