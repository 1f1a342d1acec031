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

use proptest::prelude::*;
use rpr_core::kernels;
use rpr_core::{
    BufferPool, EncMask, EncoderConfig, FrameMetadata, ReconstructionMode, RegionLabel, RegionList,
    RhythmicEncoder, RowOffsets, SoftwareDecoder, StreamingEncoder,
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

    /// The word-skipping run scanner and the per-entry scalar scanner
    /// report identical (status, run-length) sequences from any phase.
    #[test]
    fn run_scanner_equals_scalar((packed, start, len) in packed_window()) {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        kernels::for_each_run(&packed, start, len, |s, n| fast.push((s, n)));
        kernels::for_each_run_scalar(&packed, start, len, |s, n| slow.push((s, n)));
        prop_assert_eq!(fast, slow);
    }

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

    /// The word-popcount `R` counter agrees with summing the scalar
    /// run scanner's `R` runs, from any 2-bit phase.
    #[test]
    fn regional_counter_equals_scalar((packed, start, len) in packed_window()) {
        let mut slow = 0u64;
        kernels::for_each_run_scalar(&packed, start, len, |s, n| {
            if s == 0b11 {
                slow += n as u64;
            }
        });
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
