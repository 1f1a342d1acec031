//! Wire-format size and replay accounting: records each workload's
//! rhythmic capture stream into an in-memory `.rpr` container and
//! reports what the mask coding bought — run-coded mask bytes vs the
//! raw 2-bit-per-pixel mask — plus container overhead and read/replay
//! timings.
//!
//! Usage:
//!
//! ```text
//! wire_bench [--frames N] [--out FILE] [--check FILE]
//! ```
//!
//! With `--out`, writes the full JSON record — that is how
//! `BENCH_wire.json` at the repo root is produced. With `--check`, it
//! compares each run against the same workload and cycle length in a
//! committed record and exits 1 when any run's `container_bytes` or
//! `mask_bytes_written` grew. The sizes are seeded and exact, so the
//! bound has no slack; the record must have been made at the same
//! scale and frame count.

use rpr_bench::{print_table, Scale};
use rpr_wire::{read_all, WriterStats};
use rpr_workloads::{
    record_face, record_pose, record_slam, replay_task_inputs, Baseline, FaceDataset,
    PipelineConfig, PoseDataset, SlamDataset,
};
use serde::Deserialize;
use std::time::Instant;

struct Args {
    frames: usize,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { frames: Scale::from_env().frames, out: None, check: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--frames" => {
                args.frames = value("--frames").parse().unwrap_or_else(|_| {
                    eprintln!("--frames must be a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = Some(value("--out")),
            "--check" => args.check = Some(value("--check")),
            "--help" | "-h" => {
                println!("wire_bench [--frames N] [--out FILE] [--check FILE]");
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

/// One workload recorded into a container and replayed back.
struct Run {
    workload: &'static str,
    cycle_length: u64,
    stats: WriterStats,
    read_s: f64,
    replay_s: f64,
    frames_replayed: usize,
}

fn measure(workload: &'static str, cycle_length: u64, frames: usize) -> Run {
    let scale = Scale::from_env();
    let cfg = PipelineConfig::new(scale.width, scale.height, Baseline::Rp { cycle_length });
    let (bytes, stats) = match workload {
        "slam" => {
            let ds = SlamDataset::new(scale.width, scale.height, frames, 5000);
            let (_, bytes, stats) = record_slam(&ds, cfg).expect("recording cannot fail in memory");
            (bytes, stats)
        }
        "pose" => {
            let ds = PoseDataset::new(scale.width, scale.height, frames, 7000);
            let (_, bytes, stats) = record_pose(&ds, cfg).expect("recording cannot fail in memory");
            (bytes, stats)
        }
        _ => {
            let ds = FaceDataset::new(scale.width, scale.height, frames, 1, 3);
            let (_, bytes, stats) = record_face(&ds, cfg).expect("recording cannot fail in memory");
            (bytes, stats)
        }
    };

    let t0 = Instant::now();
    let decoded = read_all(&bytes).expect("fresh container parses");
    let read_s = t0.elapsed().as_secs_f64();
    assert_eq!(decoded.len() as u64, stats.frames, "index must cover every recorded frame");

    let t0 = Instant::now();
    let inputs = replay_task_inputs(&bytes).expect("fresh container replays");
    let replay_s = t0.elapsed().as_secs_f64();

    Run { workload, cycle_length, stats, read_s, replay_s, frames_replayed: inputs.len() }
}

fn run_json(run: &Run) -> serde_json::Value {
    let s = &run.stats;
    serde_json::json!({
        "workload": run.workload,
        "cycle_length": run.cycle_length,
        "frames": s.frames,
        "payload_bytes": s.payload_bytes,
        "raw_mask_bytes": s.raw_mask_bytes,
        "run_mask_bytes": s.run_mask_bytes,
        "mask_bytes_written": s.mask_bytes_written,
        "run_frames": s.run_frames,
        "container_bytes": s.container_bytes,
        "mask_compression": s.run_mask_bytes as f64 / (s.raw_mask_bytes.max(1)) as f64,
        "container_overhead": s.container_bytes as f64
            / (s.payload_bytes + s.mask_bytes_written).max(1) as f64,
        "read_s": run.read_s,
        "replay_s": run.replay_s,
        "frames_replayed": run.frames_replayed,
    })
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();

    let mut runs = Vec::new();
    for workload in ["slam", "pose", "face"] {
        for cycle_length in [5u64, 10, 15] {
            runs.push(measure(workload, cycle_length, args.frames));
        }
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let s = &r.stats;
            vec![
                r.workload.to_string(),
                format!("RP{}", r.cycle_length),
                s.frames.to_string(),
                s.payload_bytes.to_string(),
                s.raw_mask_bytes.to_string(),
                s.run_mask_bytes.to_string(),
                format!("{:.2}x", s.raw_mask_bytes as f64 / s.run_mask_bytes.max(1) as f64),
                format!("{}/{}", s.run_frames, s.frames),
                s.container_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Wire format ({}x{}, {} frames)", scale.width, scale.height, args.frames),
        &[
            "workload",
            "baseline",
            "frames",
            "payload B",
            "raw mask B",
            "run mask B",
            "mask ratio",
            "run frames",
            "container B",
        ],
        &rows,
    );

    let record = serde_json::json!({
        "bench": "wire_roundtrip",
        "width": scale.width,
        "height": scale.height,
        "frames_per_run": args.frames,
        "runs": runs.iter().map(run_json).collect::<Vec<_>>(),
    });
    // Read the committed record before `--out` can overwrite it: CI
    // names the same file for both.
    let failures = match &args.check {
        Some(path) => check_sizes(path, &runs),
        None => Vec::new(),
    };
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
    if let Some(path) = &args.check {
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("wire size check failed: {f}");
            }
            std::process::exit(1);
        }
        println!("wire sizes within {path}");
    }
}

/// The part of a committed `BENCH_wire.json` that `--check` reads.
#[derive(Deserialize)]
struct Committed {
    runs: Vec<CommittedRun>,
}

/// One committed run's key and its two bounded sizes.
#[derive(Deserialize)]
struct CommittedRun {
    workload: String,
    cycle_length: u64,
    container_bytes: u64,
    mask_bytes_written: u64,
}

/// Every run whose `container_bytes` or `mask_bytes_written` exceeds
/// the same run's value in the committed record at `path`, described
/// for the log. The sizes are seeded and exact, so any growth is a
/// change in the format or the recorded streams. A run missing from
/// the record, or a record that cannot be read, is a failure too.
fn check_sizes(path: &str, runs: &[Run]) -> Vec<String> {
    let committed: Committed = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(c) => c,
        Err(e) => return vec![format!("cannot read {path}: {e}")],
    };
    let mut failures = Vec::new();
    for run in runs {
        let name = format!("{} RP{}", run.workload, run.cycle_length);
        let Some(old) = committed
            .runs
            .iter()
            .find(|c| c.workload == run.workload && c.cycle_length == run.cycle_length)
        else {
            failures.push(format!("{name} is not in {path}"));
            continue;
        };
        let sizes = [
            ("container_bytes", run.stats.container_bytes, old.container_bytes),
            ("mask_bytes_written", run.stats.mask_bytes_written, old.mask_bytes_written),
        ];
        for (field, new, was) in sizes {
            if new > was {
                failures.push(format!("{name} {field}: {new} > {was}"));
            }
        }
    }
    failures
}
