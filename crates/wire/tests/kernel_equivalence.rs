//! Differential equivalence battery for the wire-layer kernels: the
//! slicing-by-16 CRC32 and the word-wise mask-run coder must be
//! byte-identical to their retained per-byte / per-entry references on
//! arbitrary inputs, including lengths not divisible by 4, 8 or 16,
//! empty inputs, misaligned resume phases, and runs starting at every
//! entry phase.

use proptest::prelude::*;
use rpr_core::{EncMask, EncodedFrame, FrameMetadata};
use rpr_wire::rle::{self, CODE_PATTERN, CODE_REPEAT};
use rpr_wire::varint::write_varint;
use rpr_wire::{crc32, encode_frame, EncodedFrameView, MaskCodec};

/// Entries `[0, pixels)` of a mask built from `(kind, len)` segments
/// laid end to end: a kind below 4 is a solid run of that status, and
/// any other kind is a pattern byte repeated at absolute slots — the
/// shapes the coder has to find, at whatever phase they land.
fn segmented_mask(segments: &[(u8, usize)]) -> (Vec<u8>, usize) {
    let pixels: usize = segments.iter().map(|&(_, len)| len).sum();
    let mut packed = vec![0u8; pixels.div_ceil(4)];
    let mut i = 0;
    for &(kind, len) in segments {
        let pat = if kind < 4 { 0b0101_0101 * kind } else { kind };
        for k in i..i + len {
            packed[k / 4] |= pat & (0b11 << (2 * (k % 4)));
        }
        i += len;
    }
    (packed, pixels)
}

/// Fast and reference compressors agree, and both inflaters invert
/// the runs exactly.
fn assert_codes_and_inverts(packed: &[u8], pixels: usize) {
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    let n_fast = rle::compress(packed, pixels, &mut fast);
    let n_slow = rle::compress_scalar(packed, pixels, &mut slow);
    assert_eq!(n_fast, n_slow);
    assert_eq!(&fast, &slow);
    assert_eq!(fast.len(), n_fast);
    let back = rle::inflate(&fast, pixels).expect("own runs inflate");
    assert_eq!(&back, &rle::inflate_scalar(&fast, pixels).expect("own runs inflate"));
    assert_eq!(&back[..], packed);
    let mut reused = vec![0xFFu8; 7];
    rle::inflate_into(&fast, pixels, &mut reused).expect("own runs inflate into a reused buffer");
    assert_eq!(reused, back);
}

/// Zeroes the entries of `packed` at and past `pixels`: padding the
/// encoder never writes, and that the runs cannot carry.
fn canonical(mut packed: Vec<u8>, pixels: usize) -> Vec<u8> {
    for i in pixels..packed.len() * 4 {
        packed[i / 4] &= !(0b11 << (2 * (i % 4)));
    }
    packed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slicing-by-16 CRC equals the bytewise scalar CRC on any byte
    /// string.
    #[test]
    fn crc32_equals_scalar(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        prop_assert_eq!(crc32::crc32(&bytes), crc32::crc32_scalar(&bytes));
    }

    /// Incremental updates agree with the scalar path at any split
    /// point — the 16-byte fold must handle misaligned heads and short
    /// tails on resume.
    #[test]
    fn crc32_update_equals_scalar_at_any_split(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
        split_pick in 0usize..300,
    ) {
        let split = split_pick.min(bytes.len());
        let (head, tail) = bytes.split_at(split);
        let fast = crc32::update(crc32::update(0xFFFF_FFFF, head), tail);
        let slow = crc32::update_scalar(crc32::update_scalar(0xFFFF_FFFF, head), tail);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast ^ 0xFFFF_FFFF, crc32::crc32(&bytes));
    }

    /// The word-wise coder equals the per-entry reference on any packed
    /// mask, at any pixel count it can hold — including counts not
    /// divisible by 4 or 32 and non-zero padding past the count.
    #[test]
    fn mask_compress_equals_scalar_on_any_bytes(
        packed in proptest::collection::vec(0u8..=255, 0..80),
        trim in 0usize..4,
    ) {
        let pixels = (packed.len() * 4).saturating_sub(trim);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        prop_assert_eq!(
            rle::compress(&packed, pixels, &mut fast),
            rle::compress_scalar(&packed, pixels, &mut slow)
        );
        prop_assert_eq!(&fast, &slow);
        assert_codes_and_inverts(&canonical(packed, pixels), pixels);
    }

    /// Masks made of solid and pattern segments — the rhythmic shapes —
    /// code identically on both paths and inflate back exactly.
    #[test]
    fn mask_runs_equal_scalar_on_segmented_masks(
        segments in proptest::collection::vec((0u8..=255, 1usize..80), 0..24),
    ) {
        let (packed, pixels) = segmented_mask(&segments);
        assert_codes_and_inverts(&packed, pixels);
    }
}

/// Every start phase, every run length 1..=40, each solid status and a
/// spread of pattern bytes: the coder agrees with its reference and
/// both inflaters reproduce the mask, so the head/fill/tail split and
/// the absolute-slot alignment hold wherever a run lands.
#[test]
fn runs_at_every_phase_and_length_match_the_references() {
    let kinds = [0u8, 1, 2, 3, 0x77, 0xDD, 0x57, 0x1B, 0xE4, 0x5D];
    for start in 0..12usize {
        for len in 1..=40usize {
            for kind in kinds {
                let (packed, pixels) = segmented_mask(&[(2, start), (kind, len), (1, 5)]);
                assert_codes_and_inverts(&packed, pixels);
            }
        }
    }
}

/// Hand-written run streams at every phase: a pattern run and a repeat
/// of it, inflated by both paths.
#[test]
fn pattern_and_repeat_runs_inflate_like_the_reference_at_every_phase() {
    for start in 0..12usize {
        for len in 1..=40usize {
            for pat in [0x77u8, 0xDD, 0x1B, 0xFF, 0x00] {
                let pixels = start + 2 * len + 5;
                let mut runs = Vec::new();
                if start > 0 {
                    write_varint(&mut runs, (start as u64) << 3 | 0b10);
                }
                write_varint(&mut runs, (len as u64) << 3 | u64::from(CODE_PATTERN));
                runs.push(pat);
                write_varint(&mut runs, (len as u64) << 3 | u64::from(CODE_REPEAT));
                write_varint(&mut runs, 5 << 3 | 0b01);
                let fast = rle::inflate(&runs, pixels).unwrap();
                assert_eq!(
                    fast,
                    rle::inflate_scalar(&runs, pixels).unwrap(),
                    "{start} {len} {pat:#x}"
                );
                let (expect, _) = segmented_mask(&[(2, start), (pat, 2 * len), (1, 5)]);
                assert_eq!(fast, expect, "{start} {len} {pat:#x}");
            }
        }
    }
}

/// A mask whose padding bits past `width * height` are set cannot be
/// carried by runs; even the forced run codec falls back to raw, and
/// the frame comes back bit-identical.
#[test]
fn non_canonical_tail_falls_back_to_raw() {
    let (w, h) = (5u32, 3u32); // 15 entries: one padding entry
    let mut bytes = EncMask::new(w, h).as_bytes().to_vec();
    *bytes.last_mut().unwrap() |= 0b1000_0000; // padding entry = Sk
    let mask = EncMask::from_raw_bytes(w, h, bytes).unwrap();
    let frame = EncodedFrame::new(w, h, 3, Vec::new(), FrameMetadata::from_mask(mask));
    for codec in [MaskCodec::Auto, MaskCodec::Rle] {
        let mut blob = Vec::new();
        let stats = encode_frame(&frame, codec, &mut blob).unwrap();
        assert!(!stats.mask_runs, "{codec:?}");
        let view = EncodedFrameView::parse(&blob).unwrap();
        assert!(view.mask_is_borrowed());
        assert_eq!(view.to_validated_frame().unwrap(), frame);
    }
}

/// Zero-length input is a degenerate shape both CRC paths and both
/// mask-run paths must agree on without touching their word fast
/// paths.
#[test]
fn empty_inputs_agree() {
    assert_eq!(crc32::crc32(&[]), crc32::crc32_scalar(&[]));
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    assert_eq!(rle::compress(&[], 0, &mut fast), rle::compress_scalar(&[], 0, &mut slow));
    assert_eq!(fast, slow);
    assert_eq!(rle::inflate(&fast, 0).ok(), rle::inflate_scalar(&slow, 0).ok());
}
