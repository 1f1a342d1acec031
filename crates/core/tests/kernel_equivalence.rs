//! Differential kernel-equivalence battery (ISSUE 7 satellite 1).
//!
//! Every chunked hot-path kernel must be byte-identical to its
//! retained scalar reference on arbitrary inputs, with the degenerate
//! shapes called out explicitly: widths not divisible by 8 or 64,
//! zero-region frames, full-keep masks, and single-pixel regions. The
//! whole-pipeline checks then pin the kernelized encoder to the
//! per-pixel [`StreamingEncoder`] and the run-based decoder to the
//! naive [`rpr_testkit::ReferenceDecoder`] — under a poisoned
//! [`BufferPool`], so a kernel reading recycled memory it never wrote
//! shows up as a sentinel-valued divergence.
//!
//! The encoder has two row paths: rows whose region spans are disjoint
//! go span by span (mask templates, arithmetic counts, strided
//! gathers), rows with overlapping spans merge in priority space. The
//! span battery pins the first to the second — a region set plus a
//! duplicate of one member forces the priority path on every row the
//! duplicate covers without changing the output — and both to the
//! per-pixel [`StreamingEncoder`].

use proptest::prelude::*;
use rpr_core::kernels;
use rpr_core::{
    BufferPool, EncMask, EncodedFrame, EncoderConfig, FrameMetadata, PixelStatus,
    ReconstructionMode, RegionLabel, RegionList, RhythmicEncoder, RowOffsets, SoftwareDecoder,
    StreamingEncoder,
};
use rpr_frame::{GrayFrame, Plane};
use rpr_testkit::ReferenceDecoder;

/// Widths that stress every chunk boundary: below one packed byte,
/// straddling the 4-entry byte, the 8-lane gather word, and the
/// 32-entry pack word, plus comfortable multiples.
const AWKWARD_WIDTHS: [u32; 10] = [1, 3, 4, 7, 9, 31, 32, 33, 63, 65];

fn textured_frame(w: u32, h: u32, seed: u32) -> GrayFrame {
    Plane::from_fn(w, h, |x, y| (x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ seed) as u8)
}

/// Strategy: a priority row (values 0..=3) of awkward length.
fn priority_row() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 0..200)
}

/// Strategy: raw packed mask bytes plus a window [start, start+len)
/// of entries that may start at any 2-bit phase.
fn packed_window() -> impl Strategy<Value = (Vec<u8>, usize, usize)> {
    (proptest::collection::vec(0u8..=255, 1..64), 0usize..16, 0usize..260)
        .prop_map(|(packed, start, len)| (packed, start, len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The u64 row packer and the per-entry scalar packer produce
    /// byte-identical masks at every start phase.
    #[test]
    fn row_packer_equals_scalar(row in priority_row(), start in 0usize..13) {
        let bytes = (start + row.len()).div_ceil(4).max(1);
        let mut fast = vec![0u8; bytes];
        let mut slow = vec![0u8; bytes];
        kernels::pack_priority_row(&mut fast, start, &row);
        kernels::pack_priority_row_scalar(&mut slow, start, &row);
        prop_assert_eq!(fast, slow);
    }

    /// The vectorized status counter matches the scalar tally.
    #[test]
    fn priority_counter_equals_scalar(row in priority_row()) {
        prop_assert_eq!(
            kernels::count_priorities(&row),
            kernels::count_priorities_scalar(&row)
        );
    }

    /// The 8-lane regional gather matches the per-pixel gather, even
    /// when the source row is shorter than the priority row.
    #[test]
    fn regional_gather_equals_scalar(row in priority_row(), short in 0usize..5) {
        let src: Vec<u8> = (0..row.len().saturating_sub(short))
            .map(|i| (i as u8).wrapping_mul(37))
            .collect();
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        let n_fast = kernels::gather_regional(&row, &src, &mut fast);
        let n_slow = kernels::gather_regional_scalar(&row, &src, &mut slow);
        prop_assert_eq!(n_fast, n_slow);
        prop_assert_eq!(fast, slow);
    }

    /// The word-popcount `R` counter agrees with a per-entry count of
    /// `R` entries, from any 2-bit phase.
    #[test]
    fn regional_counter_equals_scalar((packed, start, len) in packed_window()) {
        let slow = (start..start + len)
            .filter(|&i| kernels::entry_at(&packed, i) == 0b11)
            .count() as u64;
        prop_assert_eq!(kernels::count_regional(&packed, start, len), slow);
    }

    /// The word-at-a-time consistency check agrees with the per-pixel
    /// reference on consistent tables and on tables with one entry
    /// moved (which may reverse a span), with rows starting mid-byte
    /// and all-`R` padding bits after the last entry.
    #[test]
    fn consistency_check_equals_scalar((mask, row, delta) in padded_mask()) {
        let meta = FrameMetadata::from_mask(mask);
        prop_assert!(meta.is_consistent());
        prop_assert!(meta.is_consistent_scalar());
        let mut offsets = meta.row_offsets.as_slice().to_vec();
        offsets[row as usize + 1] += delta;
        let moved = FrameMetadata {
            row_offsets: RowOffsets::from_raw_offsets(offsets),
            mask: meta.mask.clone(),
        };
        prop_assert_eq!(moved.is_consistent(), moved.is_consistent_scalar());
        prop_assert_eq!(moved.is_consistent(), delta == 0);
    }

    /// The template span writer matches the per-entry writer for every
    /// status, anchor stride (0 = none) and 2-bit/32-entry phase, into
    /// a mask that may end inside the span.
    #[test]
    fn span_mask_writer_equals_scalar(
        start in 0usize..70,
        len in 0usize..300,
        status in 0u8..4,
        stride in 0usize..40,
        cut in 0usize..8,
    ) {
        let bytes = (start + len).div_ceil(4).saturating_sub(cut).max(1);
        let mut fast = vec![0u8; bytes];
        let mut slow = vec![0u8; bytes];
        kernels::write_span_mask(&mut fast, start, len, status, stride);
        kernels::write_span_mask_scalar(&mut slow, start, len, status, stride);
        prop_assert_eq!(fast, slow);
    }

    /// The strided gather matches the per-pixel gather.
    #[test]
    fn strided_gather_equals_scalar(
        span in proptest::collection::vec(0u8..=255, 0..300),
        stride in 0usize..9,
    ) {
        let (mut fast, mut slow) = (vec![7u8], vec![7u8]);
        let n_fast = kernels::gather_strided(&span, stride, &mut fast);
        let n_slow = kernels::gather_strided_scalar(&span, stride, &mut slow);
        prop_assert_eq!(n_fast, n_slow);
        prop_assert_eq!(fast, slow);
    }
}

/// Spans that touch, written one after another, equal the same spans
/// painted into a priority row and packed, and their strided gathers
/// equal the priority row's regional gather.
#[test]
fn touching_spans_equal_the_priority_row() {
    for stride in 1..=5usize {
        for a in 0..=40usize {
            for b in [a, a + 1, a + stride, a + 33] {
                let b = b.min(70);
                // Spans [a, b) strided from `a`, then [b, 70) skipped,
                // then nothing; the row sits at a misaligned entry.
                let start = 3 + a % 4;
                let mut pri = vec![0u8; 70];
                for (x, p) in pri.iter_mut().enumerate().take(b).skip(a) {
                    *p = if (x - a) % stride == 0 { 3 } else { 2 };
                }
                for p in pri.iter_mut().skip(b) {
                    *p = 1;
                }
                let bytes = (start + 70).div_ceil(4);
                let mut spans = vec![0u8; bytes];
                kernels::write_span_mask(&mut spans, start + a, b - a, 0b01, stride);
                kernels::write_span_mask(&mut spans, start + b, 70 - b, 0b10, 0);
                let mut painted = vec![0u8; bytes];
                kernels::pack_priority_row_scalar(&mut painted, start, &pri);
                assert_eq!(spans, painted, "stride {stride} a {a} b {b}");

                let src: Vec<u8> = (0..70).map(|i| (i * 37 % 251) as u8).collect();
                let (mut g_span, mut g_row) = (Vec::new(), Vec::new());
                kernels::gather_strided(&src[a..b], stride, &mut g_span);
                kernels::gather_regional_scalar(&pri, &src, &mut g_row);
                assert_eq!(g_span, g_row, "stride {stride} a {a} b {b}");
            }
        }
    }
}

/// Per-status pixel counts of a frame, indexed by wire bits, as the
/// per-pixel streaming encoder classifies it.
fn streaming_encode(frame: &GrayFrame, idx: u64, regions: &RegionList) -> (EncodedFrame, [u64; 4]) {
    let mut stream = StreamingEncoder::begin(frame.width(), frame.height(), idx, regions.clone());
    let mut counts = [0u64; 4];
    for &px in frame.as_slice() {
        counts[stream.push(px).bits() as usize] += 1;
    }
    (stream.finish(), counts)
}

/// Region sets for the span battery: one region per stride 1..=5 at
/// every x phase (stride phase and 2-bit/32-entry mask phase) and
/// every y phase, plus touching and overlapping pairs.
fn strided_region_sets(w: u32, h: u32) -> Vec<(String, Vec<RegionLabel>)> {
    let mut sets = Vec::new();
    for stride in 1..=5u32 {
        for x0 in 0..(4 * stride).min(w) {
            for y0 in 0..stride.min(h) {
                let r =
                    RegionLabel::new(x0, y0, w - x0 - (x0 % 3).min(w - x0 - 1), h - y0, stride, 2);
                sets.push((format!("stride {stride} at ({x0},{y0})"), vec![r]));
            }
        }
        let mid = w / 2;
        if mid > 0 {
            sets.push((
                format!("touching stride {stride}"),
                vec![
                    RegionLabel::new(0, 0, mid, h, stride, 1),
                    RegionLabel::new(mid, 1, w - mid, h - 1, 1 + stride % 3, 2),
                ],
            ));
        }
        sets.push((
            format!("overlapping stride {stride}"),
            vec![
                RegionLabel::new(0, 0, w.div_ceil(3) * 2, h, stride, 1),
                RegionLabel::new(w / 3, 1, w - w / 3, h - 1, 1 + stride % 2, 2),
            ],
        ));
    }
    sets
}

/// The span path against the priority-row path and the per-pixel
/// streaming encoder, for every set of [`strided_region_sets`] at every
/// awkward width, on sampled and skipped frames, out of a poisoned
/// pool that the frames are recycled into. The duplicate of the first
/// region overlaps it on every row, which sends those rows down the
/// priority-row path with the same statuses.
#[test]
fn span_path_matches_priority_path_and_streaming_reference() {
    for &w in &AWKWARD_WIDTHS {
        let h = 11;
        for (name, labels) in strided_region_sets(w, h) {
            let regions = RegionList::new_lossy(w, h, labels.clone());
            let mut doubled_labels = labels.clone();
            doubled_labels.push(labels[0]);
            let doubled = RegionList::new_lossy(w, h, doubled_labels);
            let pool = BufferPool::poisoned(0xA5);
            let mut spans =
                RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
            let mut merged =
                RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
            for idx in 0..4u64 {
                let frame = textured_frame(w, h, w ^ idx as u32);
                let a = spans.encode(&frame, idx, &regions);
                let b = merged.encode(&frame, idx, &doubled);
                let (expect, counts) = streaming_encode(&frame, idx, &regions);
                assert_eq!(a, expect, "width {w} {name} frame {idx}: span path");
                assert_eq!(b, expect, "width {w} {name} frame {idx}: priority path");
                assert_eq!(
                    spans.stats().status_counts,
                    merged.stats().status_counts,
                    "width {w} {name} frame {idx}"
                );
                let before = spans.stats().status_counts;
                a.recycle(&pool);
                b.recycle(&pool);
                if idx == 0 {
                    assert_eq!(before, counts, "width {w} {name}: status counts");
                }
            }
            assert_eq!(spans.stats().pixels_out, merged.stats().pixels_out, "{name}");
            assert_eq!(spans.stats().metadata_bytes, merged.stats().metadata_bytes, "{name}");
        }
    }
}

/// The decoder against the reference decoder in both modes on the
/// span battery's region sets, sampled and skipped frames alternating,
/// decoding out of a poisoned pool.
#[test]
fn decoder_matches_reference_on_strided_sets() {
    for &w in &AWKWARD_WIDTHS {
        let h = 11;
        for (name, labels) in strided_region_sets(w, h) {
            let regions = RegionList::new_lossy(w, h, labels);
            for mode in [ReconstructionMode::BlockNearest, ReconstructionMode::FifoReplicate] {
                let pool = BufferPool::poisoned(0x5A);
                let mut enc =
                    RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
                let mut dec = SoftwareDecoder::with_pool(w, h, mode, pool.clone());
                let mut reference = ReferenceDecoder::new(w, h, mode);
                for idx in 0..4u64 {
                    let frame = textured_frame(w, h, (idx as u32 * 3) ^ w);
                    let encoded = enc.encode(&frame, idx, &regions);
                    let out = dec.decode(&encoded);
                    assert_eq!(
                        out,
                        reference.decode(&encoded),
                        "width {w} {name} {mode:?} frame {idx}"
                    );
                    dec.recycle_output(out);
                }
                assert_eq!(
                    dec.stats().regional,
                    enc.stats().status_counts[PixelStatus::Regional.bits() as usize],
                    "width {w} {name} {mode:?}"
                );
            }
        }
    }
}

/// Strategy: a `width x height` mask with widths 1..=70 (so rows start
/// at every 2-bit phase) from random packed bytes, with every padding
/// bit of the last byte set (padding that would read as `R` if a
/// counter overran the mask), plus a row index and an offset delta.
fn padded_mask() -> impl Strategy<Value = (EncMask, u32, u32)> {
    (1u32..=70, 1u32..=8)
        .prop_flat_map(|(w, h)| {
            let n = (w as usize * h as usize).div_ceil(4);
            (Just(w), Just(h), proptest::collection::vec(0u8..=255, n..=n), 0..h, 0u32..3)
        })
        .prop_map(|(w, h, mut bytes, row, delta)| {
            let rem = (w as usize * h as usize) % 4;
            if let (Some(last), true) = (bytes.last_mut(), rem != 0) {
                *last |= 0xFF << (2 * rem);
            }
            (EncMask::from_raw_bytes(w, h, bytes).expect("sized to w x h"), row, delta)
        })
}

/// Regression: a row shorter than its misaligned head used to recurse
/// forever in `pack_priority_row` (any width-1 frame hit it). Sweep
/// every small (start, len) pair deterministically so the fix cannot
/// rot behind RNG luck.
#[test]
fn row_packer_terminates_and_matches_on_tiny_misaligned_rows() {
    for start in 0..9usize {
        for len in 0..7usize {
            let row: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
            let bytes = (start + len).div_ceil(4).max(1);
            let mut fast = vec![0u8; bytes];
            let mut slow = vec![0u8; bytes];
            kernels::pack_priority_row(&mut fast, start, &row);
            kernels::pack_priority_row_scalar(&mut slow, start, &row);
            assert_eq!(fast, slow, "start {start} len {len}");
        }
    }
}

/// Builds the degenerate region sets the issue calls out, per width.
fn degenerate_region_sets(w: u32, h: u32) -> Vec<(&'static str, Vec<RegionLabel>)> {
    vec![
        ("zero-region", vec![]),
        ("full-keep", vec![RegionLabel::new(0, 0, w, h, 1, 1)]),
        ("single-pixel", vec![RegionLabel::new(w / 2, h / 2, 1, 1, 1, 1)]),
        (
            "strided-band",
            vec![RegionLabel::new(0, h / 3, w, (h / 3).max(1), 2, 2)],
        ),
        (
            "overlapping-corners",
            vec![
                RegionLabel::new(0, 0, w.div_ceil(2) + 1, h.div_ceil(2) + 1, 1, 2),
                RegionLabel::new(w / 2, h / 2, w - w / 2, h - h / 2, 3, 1),
            ],
        ),
    ]
}

/// The kernelized whole-frame encoder must stay byte-identical to the
/// per-pixel [`StreamingEncoder`] across every awkward width and
/// degenerate region set.
#[test]
fn encoder_matches_streaming_reference_on_degenerate_shapes() {
    for &w in &AWKWARD_WIDTHS {
        let h = 9;
        for (name, labels) in degenerate_region_sets(w, h) {
            let frame = textured_frame(w, h, w);
            let regions = RegionList::new_lossy(w, h, labels);
            let mut enc = RhythmicEncoder::new(w, h);
            for idx in 0..3u64 {
                let encoded = enc.encode(&frame, idx, &regions);
                let mut streaming = StreamingEncoder::begin(w, h, idx, regions.clone());
                for &px in frame.as_slice() {
                    streaming.push(px);
                }
                assert_eq!(
                    streaming.finish(),
                    encoded,
                    "width {w} set {name} frame {idx}"
                );
            }
        }
    }
}

/// The run-based decoder must match the naive reference decoder in
/// both modes on every degenerate shape — decoding out of a poisoned
/// pool, so any read of recycled memory the kernels did not overwrite
/// surfaces as a sentinel divergence.
#[test]
fn decoder_matches_reference_on_degenerate_shapes() {
    for &w in &AWKWARD_WIDTHS {
        let h = 10;
        for (name, labels) in degenerate_region_sets(w, h) {
            let pool = BufferPool::poisoned(0xA5);
            let regions = RegionList::new_lossy(w, h, labels);
            let mut enc =
                RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
            for mode in [ReconstructionMode::BlockNearest, ReconstructionMode::FifoReplicate] {
                let mut dec = SoftwareDecoder::with_pool(w, h, mode, pool.clone());
                let mut reference = ReferenceDecoder::new(w, h, mode);
                for idx in 0..4u64 {
                    let frame = textured_frame(w, h, idx as u32 ^ w);
                    let encoded = enc.encode(&frame, idx, &regions);
                    let out = dec.decode(&encoded);
                    let expect = reference.decode(&encoded);
                    assert_eq!(out, expect, "width {w} set {name} mode {mode:?} frame {idx}");
                    // Recycle so later frames decode into poisoned
                    // buffers rather than fresh zeroed ones.
                    dec.recycle_output(out);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized multi-frame pipeline: pooled kernelized encode/decode
    /// against the reference decoder, any geometry.
    #[test]
    fn pipeline_matches_reference(
        w in 1u32..40,
        h in 1u32..24,
        seed in 0u32..1000,
        mode_fifo in 0u8..2,
    ) {
        let mode = if mode_fifo == 1 {
            ReconstructionMode::FifoReplicate
        } else {
            ReconstructionMode::BlockNearest
        };
        let pool = BufferPool::poisoned(0x5A);
        let labels = vec![
            RegionLabel::new(seed % w, seed % h, 1 + seed % 9, 1 + seed % 7, 1 + seed % 4, 1 + seed % 3),
            RegionLabel::new((seed * 7) % w, (seed * 3) % h, 1 + seed % 5, 1 + seed % 11, 1, 2),
        ];
        let regions = RegionList::new_lossy(w, h, labels);
        let mut enc = RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
        let mut dec = SoftwareDecoder::with_pool(w, h, mode, pool.clone());
        let mut reference = ReferenceDecoder::new(w, h, mode);
        for idx in 0..3u64 {
            let frame = textured_frame(w, h, seed ^ idx as u32);
            let encoded = enc.encode(&frame, idx, &regions);
            let out = dec.decode(&encoded);
            prop_assert_eq!(&out, &reference.decode(&encoded));
            dec.recycle_output(out);
        }
    }
}
