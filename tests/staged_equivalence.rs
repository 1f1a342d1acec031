//! Property tests for the staged executor's determinism contract: under
//! blocking backpressure, a 1-stream `run_stream` run is byte-identical
//! (compared through serialized JSON) to `run_sync` over the same
//! stages for any dataset seed and baseline. Under the lossy modes the
//! executor may drop or degrade frames, but never reorders or loses
//! track of them.

use proptest::prelude::*;
use rhythmic_pixel_regions::stream::{
    run_stream, BackpressureMode, Feedback, StreamConfig, TaskStage,
};
use rhythmic_pixel_regions::workloads::tasks::{run_face_with, run_pose_with, run_slam_with};
use rhythmic_pixel_regions::workloads::{
    pose_outcome, pose_spec, run_face_staged, run_pose_staged, run_slam_staged, Baseline,
    FaceDataset, PipelineConfig, PoseDataset, SlamDataset,
};

const W: u32 = 96;
const H: u32 = 72;

fn baseline_strategy() -> impl Strategy<Value = Baseline> {
    (0u8..5, 1u64..8).prop_map(|(kind, cycle)| match kind {
        0 => Baseline::Fch,
        1 => Baseline::Fcl { factor: 2 },
        2 => Baseline::MultiRoi { max_regions: 4, cycle_length: cycle },
        3 => Baseline::H264 { quality: rhythmic_pixel_regions::workloads::H264Quality::Medium },
        _ => Baseline::Rp { cycle_length: cycle },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Staged == `run_sync` for the pose workload.
    #[test]
    fn staged_pose_equals_synchronous(
        baseline in baseline_strategy(),
        seed in 0u64..1000,
        frames in 4usize..9,
    ) {
        let ds = PoseDataset::new(W, H, frames, seed);
        let cfg = PipelineConfig::new(W, H, baseline);
        let sync = run_pose_with(&ds, cfg);
        let (staged, telemetry) = run_pose_staged(&ds, cfg, StreamConfig::blocking());
        prop_assert_eq!(
            serde_json::to_string(&staged).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
        prop_assert_eq!(telemetry.frames_out, frames as u64);
        prop_assert_eq!(telemetry.frames_dropped, 0);
    }

    /// Staged == `run_sync` for the face workload.
    #[test]
    fn staged_face_equals_synchronous(
        baseline in baseline_strategy(),
        seed in 0u64..1000,
        frames in 4usize..9,
    ) {
        let ds = FaceDataset::new(W, H, frames, 2, seed);
        let cfg = PipelineConfig::new(W, H, baseline);
        let sync = run_face_with(&ds, cfg);
        let (staged, _) = run_face_staged(&ds, cfg, StreamConfig::blocking());
        prop_assert_eq!(
            serde_json::to_string(&staged).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
    }

    /// Staged == `run_sync` for the SLAM workload (the deepest state:
    /// ORB features, RANSAC seeding, and the estimated trajectory all
    /// must line up frame for frame).
    #[test]
    fn staged_slam_equals_synchronous(
        baseline in baseline_strategy(),
        seed in 0u64..1000,
        frames in 4usize..9,
    ) {
        let ds = SlamDataset::new(W, H, frames, seed);
        let cfg = PipelineConfig::new(W, H, baseline);
        let sync = run_slam_with(&ds, cfg);
        let (staged, _) = run_slam_staged(&ds, cfg, StreamConfig::blocking());
        prop_assert_eq!(
            serde_json::to_string(&staged).unwrap(),
            serde_json::to_string(&sync).unwrap()
        );
    }
}

/// A task wrapper recording the source index of every frame it consumed.
struct Indexed<T> {
    inner: T,
    seen: Vec<u64>,
}

impl<T: TaskStage> TaskStage for Indexed<T> {
    type Input = T::Input;
    type Output = (T::Output, Vec<u64>);

    fn consume(&mut self, frame_idx: u64, input: T::Input) -> Feedback {
        self.seen.push(frame_idx);
        self.inner.consume(frame_idx, input)
    }

    fn finish(self) -> Self::Output {
        (self.inner.finish(), self.seen)
    }
}

/// The lossy modes on a tiny raw queue: every source frame is either
/// consumed or counted as dropped, the task sees source order, and
/// `Degrade` lowers the rhythm instead of dropping.
#[test]
fn lossy_modes_account_for_every_frame_in_source_order() {
    const FRAMES: usize = 16;
    let ds = PoseDataset::new(W, H, FRAMES, 11);
    let cfg = PipelineConfig::new(W, H, Baseline::Rp { cycle_length: 3 });
    for mode in [BackpressureMode::DropOldest, BackpressureMode::Degrade] {
        for raw_capacity in [1, 2] {
            let stream = StreamConfig { raw_capacity, backpressure: mode, ..Default::default() };
            let spec = pose_spec(&ds, cfg, stream);
            let task = Indexed { inner: spec.task, seen: Vec::new() };
            let r = run_stream(0, spec.source, spec.capture, task, spec.config);
            let t = &r.telemetry;
            let (frames_eval, seen) = r.task;
            let label = format!("{mode:?}, raw_capacity {raw_capacity}");
            assert_eq!(t.frames_in, FRAMES as u64, "{label}");
            assert_eq!(t.frames_out + t.frames_dropped, t.frames_in, "{label}");
            assert_eq!(seen.len() as u64, t.frames_out, "{label}");
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "{label}: indices {seen:?}");
            assert!(seen.iter().all(|&i| i < FRAMES as u64), "{label}");
            if mode == BackpressureMode::Degrade {
                assert_eq!(t.frames_dropped, 0, "{label}: degrade never drops");
            }
            let outcome = pose_outcome(r.capture, frames_eval);
            assert_eq!(outcome.per_frame_ap.len() as u64, t.frames_out, "{label}");
        }
    }
}
