//! Multi-camera capture service on the staged executor.
//!
//! Part 1 multiplexes a homogeneous fleet of four pose-tracking
//! cameras over [`StreamManager`]'s shared worker pool; part 2 runs a
//! heterogeneous trio (pose + face + SLAM) as independently staged
//! streams. Both print the per-stage telemetry the executor records.
//!
//! Run with: `cargo run --release --example multi_camera`

use rhythmic_pixel_regions::stream::{
    BackpressureMode, StreamConfig, StreamManager, StreamTelemetry,
};
use rhythmic_pixel_regions::workloads::{
    pose_outcome, pose_spec, run_face_staged, run_pose_staged, run_slam_staged, Baseline,
    FaceDataset, PipelineConfig, PoseDataset, SlamDataset,
};

fn main() {
    let (w, h, frames) = (160u32, 120u32, 24usize);
    let cfg = PipelineConfig::new(w, h, Baseline::Rp { cycle_length: 5 });
    let stream = StreamConfig::blocking();

    // 1. A homogeneous fleet: four pose cameras (different scenes) on
    //    the shared worker pool.
    let cameras: Vec<PoseDataset> =
        (0..4).map(|i| PoseDataset::new(w, h, frames, 11 + i)).collect();
    let manager = StreamManager::default();
    println!("fleet: 4 pose cameras on {} pool worker(s)", manager.workers());
    let specs = cameras.iter().map(|ds| pose_spec(ds, cfg, stream)).collect();
    let results = manager.run_all(specs);

    let telemetry: Vec<StreamTelemetry> =
        results.iter().map(|r| r.telemetry.clone()).collect();
    println!("aggregate throughput: {:.1} fps", StreamTelemetry::aggregate_fps(&telemetry));
    for t in &telemetry {
        let capture = &t.stages[1];
        println!(
            "  stream {}: {} frames, capture mean {:.2} ms, raw-queue max depth {}",
            t.stream_id,
            t.frames_out,
            capture.latency.mean_s() * 1e3,
            t.queues[0].max_depth,
        );
    }
    for r in results {
        let id = r.stream_id;
        let out = pose_outcome(r.capture, r.task);
        println!(
            "  stream {id}: mAP {:.3}, traffic {:.2} MB/s",
            out.map, out.measurements.traffic.throughput_mb_s
        );
    }

    // 2. A heterogeneous trio: each task type is its own staged stream.
    let pose_ds = PoseDataset::new(w, h, frames, 21);
    let face_ds = FaceDataset::new(w, h, frames, 2, 22);
    let slam_ds = SlamDataset::new(w, h, frames, 23);
    let ((pose, _), (face, _), (slam, slam_tel)) = std::thread::scope(|scope| {
        let hp = scope.spawn(|| run_pose_staged(&pose_ds, cfg, stream));
        let hf = scope.spawn(|| run_face_staged(&face_ds, cfg, stream));
        let hs = scope.spawn(|| run_slam_staged(&slam_ds, cfg, stream));
        (
            hp.join().expect("pose stream"),
            hf.join().expect("face stream"),
            hs.join().expect("slam stream"),
        )
    });
    println!("\nheterogeneous trio:");
    println!("  pose: mAP {:.3}", pose.map);
    println!("  face: mAP {:.3}", face.map);
    println!("  slam: ATE {:.1} mm, {} tracking failures", slam.ate_mm, slam.tracking_failures);

    // 3. The full telemetry schema, as the JSON a service would export.
    println!(
        "\nslam stream telemetry (JSON):\n{}",
        serde_json::to_string_pretty(&slam_tel).expect("telemetry serializes")
    );

    // Under pressure a queue can also drop stale frames or degrade the
    // capture rhythm instead of blocking:
    let _ = stream.with_backpressure(BackpressureMode::DropOldest);
    let _ = stream.with_backpressure(BackpressureMode::Degrade);
}
