//! Multi-camera scaling of the staged stream executor: N pose-tracking
//! cameras multiplexed over a shared worker pool vs the same N cameras
//! run sequentially through the synchronous pipeline.
//!
//! Usage:
//!
//! ```text
//! stream_scaling [--streams N] [--backpressure block|drop-oldest|degrade]
//!                [--frames N] [--out FILE]
//! ```
//!
//! Without `--streams` the binary sweeps the baseline series
//! {1, 2, 4, 8} and, with `--out`, writes the full JSON record
//! (telemetry included) — that is how `BENCH_stream.json` at the repo
//! root is produced. Speedup over sequential is bounded by the core
//! count, which the record stores honestly as `host_cores`.

use rpr_bench::{print_table, Scale};
use rpr_stream::{BackpressureMode, StreamConfig, StreamManager, StreamTelemetry};
use rpr_workloads::tasks::run_pose_with;
use rpr_workloads::{pose_outcome, pose_spec, Baseline, PipelineConfig, PoseDataset};
use std::time::Instant;

struct Args {
    streams: Option<usize>,
    backpressure: BackpressureMode,
    frames: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: None,
        backpressure: BackpressureMode::Block,
        frames: Scale::from_env().frames,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--streams" => {
                args.streams = Some(value("--streams").parse().unwrap_or_else(|_| {
                    eprintln!("--streams must be a positive integer");
                    std::process::exit(2);
                }));
            }
            "--backpressure" => {
                let v = value("--backpressure");
                args.backpressure = BackpressureMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown backpressure mode {v:?} (block|drop-oldest|degrade)");
                    std::process::exit(2);
                });
            }
            "--frames" => {
                args.frames = value("--frames").parse().unwrap_or_else(|_| {
                    eprintln!("--frames must be a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = Some(value("--out")),
            "--help" | "-h" => {
                println!(
                    "stream_scaling [--streams N] [--backpressure block|drop-oldest|degrade] \
                     [--frames N] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One scaling measurement: N cameras staged-vs-sequential.
struct Run {
    streams: usize,
    mode: BackpressureMode,
    sequential_s: f64,
    staged_s: f64,
    aggregate_fps: f64,
    mean_map: f64,
    dropped: u64,
    telemetry: Vec<StreamTelemetry>,
}

fn measure(streams: usize, mode: BackpressureMode, frames: usize) -> Run {
    let scale = Scale::from_env();
    let baseline = Baseline::Rp { cycle_length: 5 };
    // One independent camera (different seed/trajectory) per stream.
    let datasets: Vec<PoseDataset> = (0..streams)
        .map(|i| PoseDataset::new(scale.width, scale.height, frames, 7000 + i as u64))
        .collect();
    let cfg = PipelineConfig::new(scale.width, scale.height, baseline);
    // The synchronous reference: the same cameras, one after another.
    let t0 = Instant::now();
    for ds in &datasets {
        let _ = run_pose_with(ds, cfg);
    }
    let sequential_s = t0.elapsed().as_secs_f64();

    // The staged executor: one spec per camera on a shared pool.
    let stream_cfg = StreamConfig::default().with_backpressure(mode);
    let specs = datasets.iter().map(|ds| pose_spec(ds, cfg, stream_cfg)).collect();
    let t0 = Instant::now();
    let results = StreamManager::default().run_all(specs);
    let staged_s = t0.elapsed().as_secs_f64();

    let telemetry: Vec<StreamTelemetry> = results.iter().map(|r| r.telemetry.clone()).collect();
    let aggregate_fps = StreamTelemetry::aggregate_fps(&telemetry);
    let dropped = telemetry.iter().map(|t| t.frames_dropped).sum();
    let maps: Vec<f64> = results.into_iter().map(|r| pose_outcome(r.capture, r.task).map).collect();
    let mean_map = maps.iter().sum::<f64>() / maps.len().max(1) as f64;
    Run { streams, mode, sequential_s, staged_s, aggregate_fps, mean_map, dropped, telemetry }
}

/// Builds the JSON record for one run.
fn run_json(run: &Run) -> serde_json::Value {
    serde_json::json!({
        "streams": run.streams,
        "backpressure": run.mode.label(),
        "sequential_s": run.sequential_s,
        "staged_s": run.staged_s,
        "speedup": run.sequential_s / run.staged_s.max(1e-12),
        "aggregate_fps": run.aggregate_fps,
        "mean_map": run.mean_map,
        "frames_dropped": run.dropped,
        "per_stream": serde_json::to_value(&run.telemetry).expect("telemetry serializes"),
    })
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let series: Vec<usize> = match args.streams {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4, 8],
    };

    let runs: Vec<Run> =
        series.iter().map(|&n| measure(n, args.backpressure, args.frames)).collect();

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.streams.to_string(),
                r.mode.label().to_string(),
                format!("{:.3}", r.sequential_s),
                format!("{:.3}", r.staged_s),
                format!("{:.2}x", r.sequential_s / r.staged_s.max(1e-12)),
                format!("{:.1}", r.aggregate_fps),
                format!("{:.3}", r.mean_map),
                r.dropped.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Stream scaling ({host_cores} host cores)"),
        &["streams", "mode", "sequential s", "staged s", "speedup", "agg fps", "mAP", "dropped"],
        &rows,
    );

    let record = serde_json::json!({
        "bench": "stream_scaling",
        "host_cores": host_cores,
        "frames_per_stream": args.frames,
        "runs": runs.iter().map(run_json).collect::<Vec<_>>(),
    });
    let pretty = serde_json::to_string_pretty(&record).expect("record serializes");
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, pretty + "\n") {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("\nwrote {}", path);
        }
        None => println!("\n{pretty}"),
    }
}
