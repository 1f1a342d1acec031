//! The repository benchmark: one workload per invocation, end-to-end
//! metrics from untraced runs (`--trace 0`) or per-layer metrics from a
//! traced run (`--trace 1`). The last line of standard output is the
//! result object; the lines before it are provenance and a readable
//! summary.
//!
//! ```text
//! perfbench --workload pose_rp|slam_predict|fleet_replay --seed N --seconds S --trace 0|1
//! ```
//!
//! Any output check that fails ends the run with exit code 1 and no
//! result line.

mod alloc;
mod fleet;
mod ledger;
mod stats;
mod streams;

use std::fmt::Write as _;

use ledger::Ledger;
use stats::{median, percentile, samples_beyond, windowed_percentile, MIN_TAIL};

/// Set-ups per run; `setup_s` is their median. Host speed on a shared
/// 2-vCPU machine drifts by a fifth over seconds, so the set-ups must
/// span several seconds for their median to repeat between runs.
pub const SETUP_REPEATS: usize = 9;

/// Consecutive windows a run's latency samples are split into. A
/// latency percentile is the median of the windows' percentiles, so a
/// burst of host noise moves a few windows, not the metric.
const LATENCY_WINDOWS: usize = 10;

/// Layer names, after the repository's modules.
pub mod layer {
    /// `VideoDataset::frame` (simulator; set-up only).
    pub const RENDER: &str = "workloads.render";
    /// Region planning and motion fit: capture minus the shadowed layers.
    pub const POLICY: &str = "core.policy";
    /// `RhythmicEncoder::encode`.
    pub const ENCODE: &str = "core.encode";
    /// `SoftwareDecoder::decode` / `DecodeCapture::process`.
    pub const DECODE: &str = "core.decode";
    /// `TrafficRecorder::record_encoded_*` + `FramebufferPool::admit_encoded`.
    pub const TRAFFIC: &str = "memsim.traffic";
    /// `TaskStage::consume` of the pose or SLAM task.
    pub const TASK: &str = "vision.task";
    /// `ContainerWriter::append`.
    pub const WIRE_WRITE: &str = "wire.write";
    /// `frame_chunk` + `to_validated_frame`.
    pub const WIRE_READ: &str = "wire.read";
    /// `Server::step`.
    pub const SERVE_STEP: &str = "serve.step";

    /// Every ledger layer, in pipeline order.
    pub const ALL: [&str; 9] = [
        RENDER, POLICY, ENCODE, TRAFFIC, DECODE, TASK, WIRE_WRITE, WIRE_READ, SERVE_STEP,
    ];
}

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("fps", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("dram_bytes_per_frame", "B"),
    ("wire_bytes_per_frame", "B"),
    ("accuracy_vs_fch", "ratio"),
    ("allocs_per_frame", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer statistics reported for every ledger layer.
const LAYER_STATS: [(&str, &str); 4] = [
    ("ns_p50", "ns"),
    ("ns_p99", "ns"),
    ("ns_per_frame", "ns"),
    ("allocs_per_frame", "count"),
];

/// Per-layer metrics beyond the ledger statistics: name and unit.
const LAYER_EXTRAS: [(&str, &str); 8] = [
    ("core.policy.regions_per_frame", "count"),
    ("core.encode.comparisons_per_pixel", "count"),
    ("stream.frame_ns", "ns"),
    ("stream.hop_ns_per_frame", "ns"),
    ("stream.hop.allocs_per_frame", "count"),
    ("trace.overhead_frac", "ratio"),
    ("serve.idle_step_frac", "ratio"),
    ("loadgen.lag_p99_us", "us"),
];

/// Metric names and units, in output order.
type Catalogue = Vec<(String, &'static str)>;
/// Metric names and values, in output order.
type Metrics = Vec<(String, f64)>;

/// End-to-end metrics as a catalogue.
fn end_to_end_catalogue() -> Catalogue {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

/// Per-layer metrics (`--trace 1`): name and unit.
pub fn per_layer() -> Catalogue {
    let mut v: Catalogue = layer::ALL
        .iter()
        .flat_map(|l| {
            LAYER_STATS
                .iter()
                .map(move |(s, u)| (format!("{l}.{s}"), *u))
        })
        .collect();
    v.extend(LAYER_EXTRAS.iter().map(|(n, u)| (n.to_string(), *u)));
    v
}

/// The per-layer side of a traced run.
pub struct LayerReport {
    /// Per-frame samples of every layer.
    pub ledger: Ledger,
    /// Untraced time per frame the measured-path layers add up to: the
    /// per-stream frame period (closed loop) or mean latency (open loop).
    pub untraced_ns_per_frame: f64,
    /// Sum of the measured-path layers' mean per-frame times.
    pub traced_ns_per_frame: f64,
    /// Untraced allocations per frame minus the measured-path layers'.
    pub hop_allocs_per_frame: f64,
    /// The traced run's counterpart of `untraced_ns_per_frame`: the
    /// traced driver's wall time per frame, shadows included (closed
    /// loop), or its mean latency (open loop).
    pub traced_wall_ns_per_frame: f64,
    /// Regions the policy planned per frame.
    pub regions_per_frame: f64,
    /// Encoder comparisons per pixel.
    pub comparisons_per_pixel: f64,
    /// 99th-percentile open-loop release lateness, ns.
    pub lag_p99_ns: f64,
    /// Share of `Server::step` calls that made no progress.
    pub idle_step_frac: f64,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Frames offered on the measured path.
    pub attempted: u64,
    /// Frames offered that never reached task output.
    pub failed: u64,
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Task-output frames per wall second, all cameras (on
    /// `fleet_replay`, of the saturated replay; untraced runs only).
    pub fps: f64,
    /// Per-frame latencies, ns, in the order the frames ran.
    pub latencies_ns: Vec<u64>,
    /// Simulated DRAM read+write bytes per frame.
    pub dram_bytes_per_frame: f64,
    /// `.rpr` container bytes per frame.
    pub wire_bytes_per_frame: f64,
    /// Per camera, the task accuracy figures of the rhythmic run.
    pub scores: Vec<streams::Score>,
    /// Per camera, the same figures on full-frame captures.
    pub fch_scores: Vec<streams::Score>,
    /// True when the gated (first) accuracy figure is better larger.
    pub higher_accuracy_is_better: bool,
    /// Heap allocations per task-output frame on the measured path.
    pub allocs_per_frame: f64,
    /// The traced run's layers (`--trace 1` only).
    pub layers: Option<LayerReport>,
}

/// Peak resident set size (VmHWM) of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics of `out`.
fn end_to_end(out: &Outcome) -> Result<Metrics, String> {
    let latency_ms = |p| {
        windowed_percentile(&out.latencies_ns, LATENCY_WINDOWS, p)
            .map(|ns| ns / 1e6)
            .ok_or("too few latency samples")
    };
    let (p50, p90) = (latency_ms(50.0)?, latency_ms(90.0)?);
    let gated = |scores: &[streams::Score]| {
        scores.iter().map(|s| s[0].1).sum::<f64>() / scores.len() as f64
    };
    let (rp, fch) = (gated(&out.scores), gated(&out.fch_scores));
    let accuracy_vs_fch = if out.higher_accuracy_is_better {
        rp / fch
    } else {
        fch / rp
    };
    let values = [
        median(&out.setup_s),
        out.fps,
        p50,
        p90,
        out.dram_bytes_per_frame,
        out.wire_bytes_per_frame,
        accuracy_vs_fch,
        out.allocs_per_frame,
        peak_rss_mb()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|((n, _), v)| (n.to_string(), v))
        .collect())
}

fn layer_metrics(r: &LayerReport) -> Metrics {
    let l = &r.ledger;
    let mut v: Metrics = Vec::new();
    for name in layer::ALL {
        v.push((format!("{name}.ns_p50"), l.ns_percentile(name, 50.0)));
        v.push((format!("{name}.ns_p99"), l.ns_percentile(name, 99.0)));
        v.push((format!("{name}.ns_per_frame"), l.ns_per_frame(name)));
        v.push((format!("{name}.allocs_per_frame"), l.allocs_per_frame(name)));
    }
    let extras = [
        r.regions_per_frame,
        r.comparisons_per_pixel,
        r.untraced_ns_per_frame,
        r.untraced_ns_per_frame - r.traced_ns_per_frame,
        r.hop_allocs_per_frame,
        r.traced_wall_ns_per_frame / r.untraced_ns_per_frame - 1.0,
        r.idle_step_frac,
        r.lag_p99_ns / 1e3,
    ];
    v.extend(
        LAYER_EXTRAS
            .iter()
            .zip(extras)
            .map(|((n, _), x)| (n.to_string(), x)),
    );
    v
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Errors unless `metrics` is exactly `catalogue`, every value finite.
fn check_catalogue(metrics: &[(String, f64)], catalogue: &Catalogue) -> Result<(), String> {
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = catalogue.iter().map(|(n, _)| n.as_str()).collect();
    if names != expected {
        return Err(format!(
            "metrics {names:?} differ from the catalogue {expected:?}"
        ));
    }
    match metrics.iter().find(|(_, v)| !v.is_finite()) {
        Some((n, v)) => Err(format!("metric {n} is {v}")),
        None => Ok(()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Prints what produced this output: host, build and run settings.
fn print_provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# provenance {{\"nproc\": {nproc}, \"commit\": \"{commit}\", \"profile\": \"{profile}\", \
         \"rustc\": \"{rustc}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
}

/// The readable summary printed above the result line.
fn print_summary(out: &Outcome, metrics: &[(String, f64, &str)]) {
    for (i, rp) in out.scores.iter().enumerate() {
        let fch = out.fch_scores.get(i);
        let figures: Vec<String> = rp
            .iter()
            .enumerate()
            .map(|(k, (name, v))| match fch.and_then(|f| f.get(k)) {
                Some((_, f)) => format!("{name} = {v:.6} (full capture {f:.6})"),
                None => format!("{name} = {v:.6}"),
            })
            .collect();
        println!("# sequence {i} accuracy: {}", figures.join(", "));
    }
    println!("# set-ups: {:?} s", out.setup_s);
    let mut sorted = out.latencies_ns.clone();
    sorted.sort_unstable();
    if samples_beyond(sorted.len(), 99.0) >= MIN_TAIL {
        let p99 = percentile(&sorted, 99.0).unwrap_or(0);
        println!(
            "# latency_p99_ms = {:.6} (not gated; see README.md)",
            p99 as f64 / 1e6
        );
    }
    println!(
        "# fail_frac = {:.6} ({} of {} frames); {} latency samples",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.latencies_ns.len()
    );
    if let Some(r) = &out.layers {
        println!("# layer ledger (mean ns/frame; share of the untraced frame time):");
        for name in layer::ALL {
            let ns = r.ledger.ns_per_frame(name);
            println!(
                "#   {name:<18} {ns:>12.0} ns  {:>6.1}%  ({} samples)",
                100.0 * ns / r.untraced_ns_per_frame,
                r.ledger.frames(name)
            );
        }
        let hop = r.untraced_ns_per_frame - r.traced_ns_per_frame;
        println!(
            "#   measured-path layers {:.0} ns + stream.hop {hop:.0} ns = untraced {:.0} ns/frame",
            r.traced_ns_per_frame, r.untraced_ns_per_frame
        );
    }
    for (name, value, unit) in metrics {
        println!("# {name:<40} {value:>16.6} {unit}");
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out = match args.workload.as_str() {
        "pose_rp" => streams::pose_rp(args.seed, args.seconds, args.trace),
        "slam_predict" => streams::slam_predict(args.seed, args.seconds, args.trace),
        "fleet_replay" => fleet::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other} (pose_rp|slam_predict|fleet_replay)"
        )),
    }?;
    let (metrics, catalogue): (Metrics, Catalogue) = if args.trace {
        let report = out
            .layers
            .as_ref()
            .ok_or("the traced run produced no ledger")?;
        (layer_metrics(report), per_layer())
    } else {
        (end_to_end(&out)?, end_to_end_catalogue())
    };
    check_catalogue(&metrics, &catalogue)?;
    let with_units: Vec<(String, f64, &str)> = metrics
        .into_iter()
        .zip(&catalogue)
        .map(|((n, v), (_, u))| (n, v, *u))
        .collect();
    print_summary(&out, &with_units);
    println!("{}", result_line(out.attempted, out.failed, &with_units));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    print_provenance(&args);
    if let Err(e) = run(&args) {
        eprintln!("perfbench: output check failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = benchmark_json();
        let entries = |section: &str| json.split(section).nth(1).unwrap_or("").to_string();
        let e2e = entries("\"end_to_end\"");
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing from end_to_end"
            );
        }
        let layers = entries("\"per_layer\"");
        for (name, unit) in per_layer() {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} missing from per_layer"
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + per_layer().len()
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(5, 1, &[("fps".to_string(), 1.5, "frames/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": \
             {\"fps\": {\"value\": 1.5, \"unit\": \"frames/s\"}}}"
        );
    }

    #[test]
    fn catalogue_check_rejects_missing_and_non_finite_metrics() {
        let catalogue = vec![("a".to_string(), "s"), ("b".to_string(), "s")];
        assert!(check_catalogue(&[("a".into(), 1.0), ("b".into(), 2.0)], &catalogue).is_ok());
        assert!(check_catalogue(&[("a".into(), 1.0)], &catalogue).is_err());
        assert!(check_catalogue(&[("a".into(), 1.0), ("b".into(), f64::NAN)], &catalogue).is_err());
    }
}
