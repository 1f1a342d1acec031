//! `SoftwareDecoder`'s row walk against per-pixel references, in
//! tier-1.
//!
//! The decoder reads each row's mask as bytes. A repeated byte is one
//! bulk copy or fill (`R` from the payload, `N` black, `Sk` from the
//! previous plane), an `R·St` pair byte writes each payload byte twice,
//! and any other byte goes a pixel at a time through the nearest-anchor
//! recurrence. A row's chamfer distances are written in bulk only when
//! the row below holds an `St`. Each case here must decode byte for byte
//! as testkit's `ReferenceDecoder` does, in both modes, with the
//! `DecoderStats` a per-pixel count of the mask implies:
//!
//! - seeded masks built row by row from runs, `R·St` pairs and stride
//!   2–5 grids, with uniform `R`, `N`, `Sk` and `St` rows mixed in, at
//!   widths 128–131 (every 2-bit row phase) and 256;
//! - `R·St` pairs starting at every `x mod 32`, with `St` rows above and
//!   below, and `St` rows right after uniform rows;
//! - encoder output for region sets with strides 2–5 and regions that
//!   touch, over sampled and skipped frames.
//!
//! Every decoder draws its planes from a poisoned pool and gets them
//! back, so a pixel the walk misses shows stale bytes. Unvalidated
//! frames (offsets past the payload, a truncated payload, a short offset
//! table, a mask shorter than the frame) must decode without a panic as
//! a per-pixel spec of that handling does.

use rpr_core::{
    BufferPool, DecoderStats, EncMask, EncodedFrame, FrameMetadata, PixelStatus,
    ReconstructionMode, RegionLabel, RegionList, RhythmicEncoder, RowOffsets, SoftwareDecoder,
};
use rpr_frame::Plane;
use rpr_testkit::ReferenceDecoder;

const MODES: [ReconstructionMode; 2] = [
    ReconstructionMode::BlockNearest,
    ReconstructionMode::FifoReplicate,
];
const POISON: u8 = 0xA5;

/// Small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % u64::from(bound.max(1))) as u32
    }
}

const R: PixelStatus = PixelStatus::Regional;
const ST: PixelStatus = PixelStatus::Strided;
const SK: PixelStatus = PixelStatus::Skipped;
const N: PixelStatus = PixelStatus::NonRegional;

/// One mask row: runs of one status, `R·St` pairs and stride grids
/// (`R` then `stride - 1` `St`) at random lengths and phases, or one
/// status across the whole row.
fn random_row(rng: &mut Lcg, w: u32) -> Vec<PixelStatus> {
    let all = [N, ST, SK, R];
    if rng.next(4) == 0 {
        return vec![all[rng.next(4) as usize]; w as usize];
    }
    let mut row = Vec::with_capacity(w as usize);
    while row.len() < w as usize {
        let len = 1 + rng.next(70) as usize;
        match rng.next(4) {
            0 | 1 => row.extend(std::iter::repeat_n(all[rng.next(4) as usize], len)),
            2 => row.extend((0..len).map(|k| if k % 2 == 0 { R } else { ST })),
            _ => {
                let stride = 2 + rng.next(4) as usize;
                row.extend((0..len).map(|k| if k % stride == 0 { R } else { ST }));
            }
        }
    }
    row.truncate(w as usize);
    row
}

fn mask_from_rows(w: u32, rows: &[Vec<PixelStatus>]) -> EncMask {
    let mut mask = EncMask::new(w, rows.len() as u32);
    for (y, row) in rows.iter().enumerate() {
        for (x, &s) in row.iter().enumerate() {
            mask.set(x as u32, y as u32, s);
        }
    }
    mask
}

/// A consistent frame over `mask`: one payload byte per `R` pixel.
fn frame_from_mask(mask: EncMask, idx: u64) -> EncodedFrame {
    let (w, h) = (mask.width(), mask.height());
    let meta = FrameMetadata::from_mask(mask);
    let n = meta.row_offsets.total() as u64;
    let pixels = (0..n)
        .map(|i| (i.wrapping_mul(37) ^ idx.wrapping_mul(101)) as u8)
        .collect();
    EncodedFrame::new(w, h, idx, pixels, meta)
}

/// The stats one frame adds, from a per-pixel count of its mask
/// (entries past the packed bytes count as `N`).
fn frame_stats(e: &EncodedFrame, had_history: bool) -> DecoderStats {
    let bytes = e.metadata().mask.as_bytes();
    let mut s = DecoderStats {
        frames: 1,
        ..DecoderStats::default()
    };
    for i in 0..(e.width() * e.height()) as usize {
        match bytes.get(i / 4).map_or(0, |b| (b >> (2 * (i % 4))) & 0b11) {
            0b11 => s.regional += 1,
            0b01 => s.interpolated += 1,
            0b10 if had_history => s.from_history += 1,
            _ => s.black += 1,
        }
    }
    s
}

fn add(a: DecoderStats, b: DecoderStats) -> DecoderStats {
    DecoderStats {
        frames: a.frames + b.frames,
        regional: a.regional + b.regional,
        interpolated: a.interpolated + b.interpolated,
        from_history: a.from_history + b.from_history,
        black: a.black + b.black,
    }
}

/// The per-pixel spec of decoding any frame, unvalidated ones
/// included: row `y`'s `R` pixels take the bytes of its offset-table
/// span in order, black once the span runs out or lies outside the
/// payload; mask entries past the packed bytes read as `N`; skipped
/// pixels come from `prev`, black without it.
fn spec_decode(e: &EncodedFrame, mode: ReconstructionMode, prev: Option<&[u8]>) -> Vec<u8> {
    let (w, h) = (e.width() as usize, e.height() as usize);
    let bytes = e.metadata().mask.as_bytes();
    let entry = |i: usize| bytes.get(i / 4).map_or(0, |b| (b >> (2 * (i % 4))) & 0b11);
    let mut out = vec![0u8; w * h];
    let mut dist = vec![u32::MAX; w * h];
    let mut last = 0u8;
    for y in 0..h {
        let span = e.metadata().row_offsets.row_span(y as u32);
        let row = e
            .pixels()
            .get(span.start as usize..span.end as usize)
            .unwrap_or(&[]);
        let mut next = 0;
        let mut left: Option<(u32, u8)> = None;
        for x in 0..w {
            let i = y * w + x;
            let (v, d) = match entry(i) {
                0b11 => {
                    let v = row.get(next).copied().unwrap_or(0);
                    next += 1;
                    left = Some((x as u32, v));
                    (v, 0)
                }
                0b01 if mode == ReconstructionMode::FifoReplicate => (last, 0),
                0b01 => {
                    let l = left.map(|(xr, v)| (x as u32 - xr, v));
                    let a =
                        (y > 0 && dist[i - w] != u32::MAX).then(|| (dist[i - w] + 1, out[i - w]));
                    match (l, a) {
                        (Some((dl, vl)), Some((da, _))) if dl <= da => (vl, dl),
                        (_, Some((da, va))) => (va, da),
                        (Some((dl, vl)), None) => (vl, dl),
                        (None, None) => (0, u32::MAX),
                    }
                }
                0b10 => prev.map_or((0, u32::MAX), |p| (p[i], 0)),
                _ => (0, u32::MAX),
            };
            out[i] = v;
            dist[i] = d;
            last = v;
        }
    }
    out
}

/// Both modes' production decoders (on a poisoned pool) and references
/// over one geometry, fed the same frames.
struct Bench {
    decoders: Vec<SoftwareDecoder>,
    references: Vec<ReferenceDecoder>,
    expected: [DecoderStats; 2],
    prev: [Option<Vec<u8>>; 2],
}

impl Bench {
    fn new(w: u32, h: u32) -> Self {
        Bench {
            decoders: MODES
                .iter()
                .map(|&m| SoftwareDecoder::with_pool(w, h, m, BufferPool::poisoned(POISON)))
                .collect(),
            references: MODES
                .iter()
                .map(|&m| ReferenceDecoder::new(w, h, m))
                .collect(),
            expected: [DecoderStats::default(); 2],
            prev: [None, None],
        }
    }

    /// Decodes `e` in both modes and checks output and stats; `what`
    /// names the case. The reference decoder sees only consistent
    /// frames; the per-pixel spec sees every frame.
    fn check(&mut self, e: &EncodedFrame, what: &str) {
        let consistent = e.validate().is_ok();
        for (k, mode) in MODES.iter().enumerate() {
            let spec = spec_decode(e, *mode, self.prev[k].as_deref());
            let dec = &mut self.decoders[k];
            let out = dec.decode_owned(e.clone());
            assert_eq!(
                out.as_slice(),
                &spec[..],
                "{what} {mode:?}: against the per-pixel spec"
            );
            if consistent {
                let reference = self.references[k].decode(e);
                assert_eq!(out, reference, "{what} {mode:?}: against ReferenceDecoder");
            }
            self.expected[k] = add(self.expected[k], frame_stats(e, self.prev[k].is_some()));
            assert_eq!(*dec.stats(), self.expected[k], "{what} {mode:?}: stats");
            self.prev[k] = Some(spec);
            dec.recycle_output(out);
        }
    }
}

#[test]
fn seeded_masks_decode_as_the_references_do() {
    for seed in 0..40u64 {
        let w = [128, 129, 130, 131, 256][seed as usize % 5];
        let h = 24;
        let mut rng = Lcg(seed ^ 0x5EED_D3C0);
        let mut bench = Bench::new(w, h);
        for idx in 0..4u64 {
            let mut rows: Vec<Vec<PixelStatus>> = (0..h).map(|_| random_row(&mut rng, w)).collect();
            // An `St` row right after each uniform row: the rows whose
            // distances are written only because the row below reads
            // them.
            for y in (1..h as usize).step_by(6) {
                let s = [R, N, SK, ST][(y / 6 + idx as usize) % 4];
                rows[y - 1] = vec![s; w as usize];
                rows[y] = if rng.next(2) == 0 {
                    vec![ST; w as usize]
                } else {
                    random_row(&mut rng, w)
                };
            }
            let e = frame_from_mask(mask_from_rows(w, &rows), idx);
            bench.check(&e, &format!("seed {seed} width {w} frame {idx}"));
        }
    }
}

#[test]
fn pairs_at_every_phase_decode_as_the_references_do() {
    for w in [128u32, 129, 130, 131, 256] {
        let mut bench = Bench::new(w, 8);
        for phase in 0..32usize {
            for len in [1usize, 2, 3, 4, 7, 8, 33, 64, 65] {
                let mut rng = Lcg((phase * 131 + len) as u64);
                let len = len.min(w as usize - phase);
                let pairs = |base: PixelStatus| -> Vec<PixelStatus> {
                    (0..w as usize)
                        .map(|x| match x.checked_sub(phase) {
                            Some(k) if k < len => {
                                if k % 2 == 0 {
                                    R
                                } else {
                                    ST
                                }
                            }
                            _ => base,
                        })
                        .collect()
                };
                let rows = vec![
                    // Pairs in row 0 (nothing above), pairs after an `St`
                    // row, pairs inside `St` and `Sk` rows, and `St` rows
                    // below pairs and below uniform rows.
                    pairs(N),
                    vec![ST; w as usize],
                    pairs(ST),
                    vec![ST; w as usize],
                    pairs(SK),
                    random_row(&mut rng, w),
                    vec![R; w as usize],
                    vec![ST; w as usize],
                ];
                let e = frame_from_mask(mask_from_rows(w, &rows), (phase * 16 + len) as u64);
                bench.check(&e, &format!("width {w} pairs at {phase} len {len}"));
            }
        }
    }
}

fn textured(w: u32, h: u32, seed: u32) -> rpr_frame::GrayFrame {
    Plane::from_fn(w, h, |x, y| {
        (x.wrapping_mul(29) ^ y.wrapping_mul(13) ^ seed) as u8
    })
}

/// Region sets with strides 2–5: one region, two that touch side by
/// side at different strides and phases, one stacked on another, and
/// a strided region that starts in row 0 and column 0.
fn region_sets(seed: u64, w: u32, h: u32) -> Vec<RegionLabel> {
    let mut rng = Lcg(seed ^ 0xC0DE);
    let stride = 2 + rng.next(4);
    let skip = 1 + rng.next(2);
    let x = rng.next(w / 3);
    let y = rng.next(h / 3);
    let rw = 8 + rng.next(w / 2);
    let rh = 4 + rng.next(h / 2);
    let a = RegionLabel::new(x, y, rw, rh, stride, skip);
    match seed % 4 {
        0 => vec![a],
        1 => vec![
            a,
            RegionLabel::new(
                x + rw,
                y + rng.next(3),
                4 + rng.next(w / 3),
                rh,
                2 + rng.next(4),
                1 + rng.next(2),
            ),
        ],
        2 => vec![
            a,
            RegionLabel::new(x, y + rh, rw, 4 + rng.next(h / 3), 2 + rng.next(4), skip),
        ],
        _ => vec![
            RegionLabel::new(0, 0, rw, rh, stride, 1),
            RegionLabel::new(rw, 0, 9, rh, 1, 2),
        ],
    }
}

#[test]
fn encoded_strided_and_touching_regions_decode_as_the_references_do() {
    for seed in 0..40u64 {
        let w = [128, 129, 130, 131, 256][seed as usize % 5];
        let h = 40;
        let regions = RegionList::new_lossy(w, h, region_sets(seed, w, h));
        let mut encoder = RhythmicEncoder::new(w, h);
        let mut bench = Bench::new(w, h);
        for idx in 0..4u64 {
            let e = encoder.encode(&textured(w, h, (seed * 5 + idx) as u32), idx, &regions);
            bench.check(&e, &format!("seed {seed} width {w} frame {idx}"));
        }
    }
}

#[test]
fn unvalidated_frames_decode_without_panicking() {
    for seed in 0..20u64 {
        let w = [128, 129, 130, 131, 256][seed as usize % 5];
        let h = 16;
        let mut rng = Lcg(seed ^ 0xBAD);
        let mut bench = Bench::new(w, h);
        for idx in 0..6u64 {
            let rows: Vec<Vec<PixelStatus>> = (0..h).map(|_| random_row(&mut rng, w)).collect();
            let good = frame_from_mask(mask_from_rows(w, &rows), idx);
            let meta = good.metadata().clone();
            let total = meta.row_offsets.total();
            let pixels = good.pixels().to_vec();
            let (what, pixels, meta) = match idx {
                0 => (
                    "payload cut in half",
                    pixels[..pixels.len() / 2].to_vec(),
                    meta,
                ),
                1 => {
                    let offsets = meta
                        .row_offsets
                        .as_slice()
                        .iter()
                        .map(|&o| o + total / 2 + 7)
                        .collect();
                    (
                        "offsets past the payload",
                        pixels,
                        FrameMetadata {
                            row_offsets: RowOffsets::from_raw_offsets(offsets),
                            ..meta
                        },
                    )
                }
                2 => {
                    let offsets = meta.row_offsets.as_slice().iter().rev().copied().collect();
                    (
                        "offsets in reverse",
                        pixels,
                        FrameMetadata {
                            row_offsets: RowOffsets::from_raw_offsets(offsets),
                            ..meta
                        },
                    )
                }
                3 => {
                    let offsets = meta.row_offsets.as_slice()[..h as usize / 2].to_vec();
                    (
                        "offset table cut short",
                        pixels,
                        FrameMetadata {
                            row_offsets: RowOffsets::from_raw_offsets(offsets),
                            ..meta
                        },
                    )
                }
                4 => {
                    let mask = mask_from_rows(w, &rows[..h as usize / 2 + 1]);
                    (
                        "mask shorter than the frame",
                        pixels,
                        FrameMetadata { mask, ..meta },
                    )
                }
                _ => ("empty payload", Vec::new(), meta),
            };
            let e = EncodedFrame::from_raw_parts(w, h, idx, pixels, meta, good.integrity());
            if total > 0 {
                assert!(e.validate().is_err(), "seed {seed}: {what} must be invalid");
            }
            bench.check(&e, &format!("seed {seed} width {w}: {what}"));
        }
    }
}
