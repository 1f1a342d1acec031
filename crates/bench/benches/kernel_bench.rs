//! Criterion benches for the chunked hot-path kernels, each paired
//! with the scalar reference it is differentially tested against
//! (`kernel_equivalence` suites, TESTING.md). The `kernel_bench`
//! binary produces the committed `BENCH_kernels.json` from the same
//! workloads; this harness is for interactive, statistically rigorous
//! comparison while optimizing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpr_core::kernels;
use rpr_core::{
    BufferPool, EncoderConfig, ReconstructionMode, RegionLabel, RegionList, RhythmicEncoder,
    SoftwareDecoder,
};
use rpr_frame::{GrayFrame, Plane};
use rpr_wire::{crc32, rle};
use std::time::Duration;

const W: u32 = 256;
const H: u32 = 192;
const PIXELS: usize = (W as usize) * (H as usize);

fn textured_frame(seed: u32) -> GrayFrame {
    Plane::from_fn(W, H, |x, y| (x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ seed) as u8)
}

fn regions() -> RegionList {
    RegionList::new_lossy(
        W,
        H,
        vec![
            RegionLabel::new(2, 2, W / 2, H / 2, 1, 1),
            RegionLabel::new(W / 3, H / 3, W / 2, H / 2, 2, 1),
            RegionLabel::new(0, H / 2, W, H / 4, 1, 2),
        ],
    )
}

/// The mask bytes, per-row priorities, and payload of one
/// representatively encoded frame.
fn sample() -> (Vec<u8>, Vec<Vec<u8>>, Vec<u8>) {
    let mut enc = RhythmicEncoder::new(W, H);
    let encoded = enc.encode(&textured_frame(0), 1, &regions());
    let mask = encoded.metadata().mask.as_bytes().to_vec();
    let pris = (0..H)
        .map(|y| (0..W).map(|x| encoded.metadata().mask.get(x, y).priority()).collect())
        .collect();
    (mask, pris, encoded.pixels().to_vec())
}

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
}

fn bench_mask_kernels(c: &mut Criterion) {
    let (mask, pris, _) = sample();
    let frame = textured_frame(0);

    let mut group = c.benchmark_group("kernel/mask_pack");
    configure(&mut group);
    group.throughput(Throughput::Bytes(PIXELS as u64));
    let mut packed = vec![0u8; mask.len()];
    for chunked in [false, true] {
        let name = if chunked { "chunked" } else { "scalar" };
        group.bench_with_input(BenchmarkId::from_parameter(name), &chunked, |b, &chunked| {
            b.iter(|| {
                for (y, pri) in pris.iter().enumerate() {
                    let start = y * W as usize;
                    if chunked {
                        kernels::pack_priority_row(&mut packed, start, pri);
                    } else {
                        kernels::pack_priority_row_scalar(&mut packed, start, pri);
                    }
                }
                criterion::black_box(&packed);
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("kernel/gather");
    configure(&mut group);
    group.throughput(Throughput::Bytes(PIXELS as u64));
    let mut out = Vec::with_capacity(PIXELS);
    for chunked in [false, true] {
        let name = if chunked { "chunked" } else { "scalar" };
        group.bench_with_input(BenchmarkId::from_parameter(name), &chunked, |b, &chunked| {
            b.iter(|| {
                out.clear();
                for (y, pri) in pris.iter().enumerate() {
                    let src = frame.row(y as u32);
                    if chunked {
                        kernels::gather_regional(pri, src, &mut out);
                    } else {
                        kernels::gather_regional_scalar(pri, src, &mut out);
                    }
                }
                criterion::black_box(out.len());
            });
        });
    }
    group.finish();
}

fn bench_wire_kernels(c: &mut Criterion) {
    let (mask, _, payload) = sample();
    let mut compressed = Vec::new();
    rle::compress(&mask, PIXELS, &mut compressed);

    let mut group = c.benchmark_group("kernel/mask_compress");
    configure(&mut group);
    group.throughput(Throughput::Bytes(mask.len() as u64));
    let mut out = Vec::new();
    for chunked in [false, true] {
        let name = if chunked { "chunked" } else { "scalar" };
        group.bench_with_input(BenchmarkId::from_parameter(name), &chunked, |b, &chunked| {
            b.iter(|| {
                out.clear();
                let n = if chunked {
                    rle::compress(&mask, PIXELS, &mut out)
                } else {
                    rle::compress_scalar(&mask, PIXELS, &mut out)
                };
                criterion::black_box(n);
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("kernel/mask_inflate");
    configure(&mut group);
    group.throughput(Throughput::Bytes(mask.len() as u64));
    let mut packed = Vec::new();
    for chunked in [false, true] {
        let name = if chunked { "chunked" } else { "scalar" };
        group.bench_with_input(BenchmarkId::from_parameter(name), &chunked, |b, &chunked| {
            b.iter(|| {
                if chunked {
                    rle::inflate_into(&compressed, PIXELS, &mut packed)
                        .expect("own compression inflates");
                    criterion::black_box(packed.len());
                } else {
                    let v =
                        rle::inflate_scalar(&compressed, PIXELS).expect("own compression inflates");
                    criterion::black_box(v.len());
                }
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("kernel/crc32");
    configure(&mut group);
    group.throughput(Throughput::Bytes(payload.len() as u64));
    for chunked in [false, true] {
        let name = if chunked { "chunked" } else { "scalar" };
        group.bench_with_input(BenchmarkId::from_parameter(name), &chunked, |b, &chunked| {
            b.iter(|| {
                let crc = if chunked {
                    crc32::update(0xFFFF_FFFF, &payload)
                } else {
                    crc32::update_scalar(0xFFFF_FFFF, &payload)
                };
                criterion::black_box(crc);
            });
        });
    }
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let regions = regions();
    let frames: Vec<GrayFrame> = (0..4).map(textured_frame).collect();

    let mut group = c.benchmark_group("kernel/pipeline");
    configure(&mut group);
    group.throughput(Throughput::Bytes(PIXELS as u64));

    let pool = BufferPool::new();
    let mut enc = RhythmicEncoder::with_pool(W, H, EncoderConfig::default(), pool.clone());
    let mut dec = SoftwareDecoder::with_pool(W, H, ReconstructionMode::BlockNearest, pool);
    let mut idx = 0u64;
    group.bench_function("pooled_encode_decode", |b| {
        b.iter(|| {
            let frame = &frames[(idx % 4) as usize];
            let e = enc.encode(frame, idx, &regions);
            let out = dec.decode_owned(e);
            dec.recycle_output(out);
            idx += 1;
        });
    });
    group.finish();
}

criterion_group!(kernel_bench, bench_mask_kernels, bench_wire_kernels, bench_pipeline);
criterion_main!(kernel_bench);
