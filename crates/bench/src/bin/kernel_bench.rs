//! Hot-path kernel throughput: every chunked kernel measured against
//! the scalar reference it is differentially tested against, the pose
//! task's blob labeller against its flood fill, plus the combined
//! pooled encode→decode pipeline against the per-pixel
//! streaming/reference pipeline.
//!
//! Usage:
//!
//! ```text
//! kernel_bench [--frames N] [--out FILE]
//! ```
//!
//! Each kernel and its reference are timed back to back in alternating
//! rounds; a row reports each side's median MB/s and the median of the
//! per-round speedups, so host drift slower than one round stays out
//! of the ratio.
//!
//! With `--out`, writes a `RunReport` whose `accuracy` map carries the
//! per-kernel MB/s (scalar and chunked) and the speedup ratios — that
//! is how `BENCH_kernels.json` at the repo root is produced, and what
//! CI diffs against `ci/baseline_kernels.json` via `rpr-report diff`
//! (the committed baseline pins only the machine-portable speedup
//! ratios, not absolute MB/s).

use rpr_bench::{print_table, Scale};
use rpr_core::kernels;
use rpr_core::{
    BufferPool, EncoderConfig, PixelStatus, ReconstructionMode, RegionLabel, RegionList,
    RhythmicEncoder, SoftwareDecoder, StreamingEncoder,
};
use rpr_frame::{GrayFrame, Plane};
use rpr_testkit::ReferenceDecoder;
use rpr_trace::{RunReport, REPORT_SCHEMA_VERSION};
use rpr_vision::{detect_blobs_into, detect_blobs_scalar, BlobScratch};
use rpr_wire::{crc32, rle};
use rpr_workloads::datasets::VideoDataset;
use rpr_workloads::PoseDataset;
use std::collections::BTreeMap;
use std::time::Instant;

struct Args {
    frames: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { frames: Scale::from_env().frames, out: None };
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
            "--help" | "-h" => {
                println!("kernel_bench [--frames N] [--out FILE]");
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

/// Rounds per scalar/chunked pair; an odd count has a middle value.
const ROUNDS: usize = 9;

/// Times `f` for at least 20 ms and 2 calls and returns MB/s given
/// `bytes` processed per call.
fn mb_per_s(bytes: usize, f: &mut impl FnMut()) -> f64 {
    let mut iters = 0u64;
    let t0 = Instant::now();
    loop {
        f();
        iters += 1;
        if iters >= 2 && t0.elapsed().as_secs_f64() >= 0.02 {
            break;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (bytes as f64 * iters as f64) / secs / 1e6
}

fn median(mut v: [f64; ROUNDS]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[ROUNDS / 2]
}

/// Measures one kernel against its scalar reference: `f(false)` runs
/// the reference and `f(true)` the chunked kernel, each processing
/// `bytes` per call. The two sides are timed back to back in
/// `ROUNDS` alternating rounds (the first side swaps every round), so
/// host drift slower than one round moves both sides alike and cancels
/// in that round's ratio. Reports each side's median MB/s and the median of the
/// per-round ratios.
fn pair(kernel: &'static str, bytes: usize, mut f: impl FnMut(bool)) -> Pair {
    for _ in 0..3 {
        f(false);
        f(true);
    }
    let (mut scalar, mut chunked, mut ratio) = ([0.0; ROUNDS], [0.0; ROUNDS], [0.0; ROUNDS]);
    for r in 0..ROUNDS {
        if r % 2 == 0 {
            scalar[r] = mb_per_s(bytes, &mut || f(false));
            chunked[r] = mb_per_s(bytes, &mut || f(true));
        } else {
            chunked[r] = mb_per_s(bytes, &mut || f(true));
            scalar[r] = mb_per_s(bytes, &mut || f(false));
        }
        ratio[r] = chunked[r] / scalar[r];
    }
    Pair {
        kernel,
        scalar_mb_s: median(scalar),
        chunked_mb_s: median(chunked),
        speedup: median(ratio),
    }
}

fn textured_frame(w: u32, h: u32, seed: u32) -> GrayFrame {
    Plane::from_fn(w, h, |x, y| (x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ seed) as u8)
}

/// Mixed-rhythm region set: full-rate, spatially strided, and
/// temporally skipped regions, so the mask holds all four status
/// classes and realistic run structure.
fn regions(w: u32, h: u32) -> RegionList {
    RegionList::new_lossy(
        w,
        h,
        vec![
            RegionLabel::new(2, 2, w / 2, h / 2, 1, 1),
            RegionLabel::new(w / 3, h / 3, w / 2, h / 2, 2, 1),
            RegionLabel::new(0, h / 2, w, h / 4, 1, 2),
        ],
    )
}

/// One scalar-vs-chunked measurement (medians over rounds).
struct Pair {
    kernel: &'static str,
    scalar_mb_s: f64,
    chunked_mb_s: f64,
    speedup: f64,
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    let (w, h) = (scale.width, scale.height);
    let regions = regions(w, h);
    let frames: Vec<GrayFrame> = (0..4).map(|i| textured_frame(w, h, i)).collect();
    let pixels = (w * h) as usize;

    // One representative encoded frame supplies the mask, priority
    // rows, and payload every kernel chews on.
    let mut enc = RhythmicEncoder::new(w, h);
    let encoded = enc.encode(&frames[0], 1, &regions);
    let mask_bytes: Vec<u8> = encoded.metadata().mask.as_bytes().to_vec();
    let payload: Vec<u8> = encoded.pixels().to_vec();
    let row_pris: Vec<Vec<u8>> = (0..h)
        .map(|y| {
            (0..w).map(|x| encoded.metadata().mask.get(x, y).priority()).collect()
        })
        .collect();

    let mut runs = Vec::new();

    // Mask packing: priority rows into the 2-bit mask, one row per
    // call at the row's true (possibly misaligned) start entry.
    {
        let mut packed = vec![0u8; mask_bytes.len()];
        let row = |y: u32| (y as usize) * (w as usize);
        runs.push(pair("mask_pack", pixels, |chunked| {
            for (y, pri) in row_pris.iter().enumerate() {
                if chunked {
                    kernels::pack_priority_row(&mut packed, row(y as u32), pri);
                } else {
                    kernels::pack_priority_row_scalar(&mut packed, row(y as u32), pri);
                }
            }
            std::hint::black_box(&packed);
        }));
    }

    // Regional gather: the encoder's payload compaction.
    {
        let mut out = Vec::with_capacity(pixels);
        runs.push(pair("gather", pixels, |chunked| {
            out.clear();
            for (y, pri) in row_pris.iter().enumerate() {
                if chunked {
                    kernels::gather_regional(pri, frames[0].row(y as u32), &mut out);
                } else {
                    kernels::gather_regional_scalar(pri, frames[0].row(y as u32), &mut out);
                }
            }
            std::hint::black_box(out.len());
        }));
    }

    // Mask-run coding, both directions, against the per-entry
    // references.
    {
        let mut out = Vec::new();
        rle::compress(&mask_bytes, pixels, &mut out);
        let compressed = out.clone();
        runs.push(pair("mask_compress", mask_bytes.len(), |chunked| {
            out.clear();
            if chunked {
                rle::compress(&mask_bytes, pixels, &mut out);
            } else {
                rle::compress_scalar(&mask_bytes, pixels, &mut out);
            }
            std::hint::black_box(out.len());
        }));
        let mut packed = Vec::new();
        runs.push(pair("mask_inflate", mask_bytes.len(), |chunked| {
            if chunked {
                rle::inflate_into(&compressed, pixels, &mut packed).expect("own runs");
                std::hint::black_box(packed.len());
            } else {
                let v = rle::inflate_scalar(&compressed, pixels).expect("own runs");
                std::hint::black_box(v.len());
            }
        }));
    }

    // CRC32 over the regional payload.
    runs.push(pair("crc32", payload.len(), |chunked| {
        std::hint::black_box(if chunked {
            crc32::update(0xFFFF_FFFF, &payload)
        } else {
            crc32::update_scalar(0xFFFF_FFFF, &payload)
        });
    }));

    // A pose-like frame: one large stride-2 region, sampled. The span
    // encoder and the word-wide decoder against the per-pixel
    // references they are pinned to in the kernel-equivalence battery.
    {
        let strided = RegionList::new_lossy(
            w,
            h,
            vec![RegionLabel::new(w / 4, h / 8, w / 2, h * 3 / 4, 2, 2)],
        );
        let pool = BufferPool::new();
        let mut enc = RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
        runs.push(pair("strided_encode", pixels, |chunked| {
            if chunked {
                enc.encode(&frames[0], 0, &strided).recycle(&pool);
            } else {
                let mut stream = StreamingEncoder::begin(w, h, 0, strided.clone());
                for &v in frames[0].as_slice() {
                    let _: PixelStatus = stream.push(v);
                }
                std::hint::black_box(stream.finish().pixel_count());
            }
        }));

        // The decoder on the three frame kinds a pose camera sends: a
        // full-frame capture, the stride-2 region sampled, and the same
        // region skipped. Each timed decoder decodes its frame over the
        // output of its own previous call. The skipped pair first decodes
        // a full frame of `frames[1]`, so that even its first call copies
        // the region from a history rather than filling it black.
        let full = RegionList::full_frame(w, h);
        let history = enc.encode(&frames[1], 0, &full);
        let decodes = [
            ("full_decode", enc.encode(&frames[0], 0, &full), false),
            ("strided_decode", enc.encode(&frames[0], 0, &strided), false),
            ("skipped_decode", enc.encode(&frames[0], 1, &strided), true),
        ];
        for (kernel, encoded, primed) in decodes {
            let mut dec =
                SoftwareDecoder::with_pool(w, h, ReconstructionMode::BlockNearest, pool.clone());
            let mut refdec = ReferenceDecoder::new(w, h, ReconstructionMode::BlockNearest);
            if primed {
                let out = dec.decode(&history);
                dec.recycle_output(out);
                refdec.decode(&history);
            }
            runs.push(pair(kernel, pixels, |chunked| {
                if chunked {
                    let out = dec.decode(&encoded);
                    dec.recycle_output(out);
                } else {
                    std::hint::black_box(refdec.decode(&encoded).as_slice().len());
                }
            }));
        }
    }

    // Blob labelling on rendered pose frames at the pose task's
    // threshold and minimum area: the run labeller with a reused
    // scratch against the flood fill it is pinned to in the
    // blob-equivalence battery.
    {
        let ds = PoseDataset::new(w, h, 8, 2000);
        let pose: Vec<GrayFrame> = (0..ds.len()).map(|i| ds.frame(i)).collect();
        let min_area = u64::from(w) * u64::from(h) / 600;
        let mut scratch = BlobScratch::new();
        let mut blobs = Vec::new();
        runs.push(pair("blob_label", pixels * pose.len(), |chunked| {
            for frame in &pose {
                if chunked {
                    detect_blobs_into(&mut scratch, frame, 150, min_area, &mut blobs);
                    std::hint::black_box(blobs.len());
                } else {
                    std::hint::black_box(detect_blobs_scalar(frame, 150, min_area).len());
                }
            }
        }));
    }

    // Combined single-core encode→decode pipeline: the pooled chunked
    // path against the per-pixel streaming encoder + reference decoder
    // it is pinned to in the kernel-equivalence battery. This is the
    // ratio the ≥2x acceptance bar applies to.
    {
        let pool = BufferPool::new();
        let mut enc = RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
        let mut dec = SoftwareDecoder::with_pool(w, h, ReconstructionMode::BlockNearest, pool);
        let mut refdec = ReferenceDecoder::new(w, h, ReconstructionMode::BlockNearest);
        // Each side keeps its own frame index across calls.
        let (mut chunked_idx, mut scalar_idx) = (0u64, 0u64);
        runs.push(pair("pipeline", pixels * args.frames, |chunked| {
            for _ in 0..args.frames {
                if chunked {
                    let frame = &frames[(chunked_idx % 4) as usize];
                    let e = enc.encode(frame, chunked_idx, &regions);
                    let out = dec.decode_owned(e);
                    dec.recycle_output(out);
                    chunked_idx += 1;
                } else {
                    let frame = &frames[(scalar_idx % 4) as usize];
                    let mut stream = StreamingEncoder::begin(w, h, scalar_idx, regions.clone());
                    for y in 0..h {
                        for &v in frame.row(y) {
                            let _: PixelStatus = stream.push(v);
                        }
                    }
                    let e = stream.finish();
                    std::hint::black_box(refdec.decode(&e).as_slice().len());
                    scalar_idx += 1;
                }
            }
        }));
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|p| {
            vec![
                p.kernel.to_string(),
                format!("{:.1}", p.scalar_mb_s),
                format!("{:.1}", p.chunked_mb_s),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    print_table(
        &format!("Hot-path kernels ({w}x{h}, pipeline x{} frames)", args.frames),
        &["kernel", "scalar MB/s", "chunked MB/s", "speedup"],
        &rows,
    );

    let mut accuracy = BTreeMap::new();
    for p in &runs {
        accuracy.insert(format!("{}_scalar_mb_s", p.kernel), p.scalar_mb_s);
        accuracy.insert(format!("{}_chunked_mb_s", p.kernel), p.chunked_mb_s);
        accuracy.insert(format!("{}_speedup", p.kernel), p.speedup);
    }
    let report = RunReport {
        schema_version: REPORT_SCHEMA_VERSION,
        task: "kernel_bench".to_string(),
        dataset: format!("{w}x{h} mixed-rhythm regions, pipeline x{} frames", args.frames),
        baseline: "scalar-reference".to_string(),
        frames: args.frames as u64,
        accuracy,
        ..RunReport::default()
    };
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
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
