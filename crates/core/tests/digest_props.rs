//! The frame digest catches every single-bit change.
//!
//! `EncodedFrame::compute_integrity` absorbs the geometry, the frame
//! index, the payload, the packed mask (padding bits included) and the
//! offset table through steps that are each a bijection in what they
//! absorb, so flipping any one bit of any hashed byte must change the
//! digest. Widths 1..=70 put rows at every 2-bit phase of the packed
//! mask, and the random payload lengths cover tails shorter than one
//! 32-byte block as well as whole blocks plus a tail.

use proptest::prelude::*;
use rpr_core::{EncMask, EncodedFrame, FrameMetadata, RowOffsets};

/// Strategy: `(width, height, frame_idx, mask bytes, payload)` with a
/// mask of exactly `width * height` 2-bit entries, random padding bits
/// in its last byte, and a payload of 0..=100 bytes.
fn frame_parts() -> impl Strategy<Value = (u32, u32, u64, Vec<u8>, Vec<u8>)> {
    (1u32..=70, 1u32..=6, 0u64..u64::MAX).prop_flat_map(|(w, h, idx)| {
        let mask_len = (w as usize * h as usize).div_ceil(4);
        (
            Just(w),
            Just(h),
            Just(idx),
            proptest::collection::vec(0u8..=255, mask_len..=mask_len),
            proptest::collection::vec(0u8..=255, 0..=100),
        )
    })
}

/// Rebuilds a frame from raw parts, keeping the original digest.
fn reassemble(
    (w, h, idx): (u32, u32, u64),
    mask: &EncMask,
    offsets: &[u32],
    payload: &[u8],
    integrity: u64,
) -> EncodedFrame {
    let meta = FrameMetadata {
        row_offsets: RowOffsets::from_raw_offsets(offsets.to_vec()),
        mask: mask.clone(),
    };
    EncodedFrame::from_raw_parts(w, h, idx, payload.to_vec(), meta, integrity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_single_bit_flip_changes_the_digest((w, h, idx, mask_bytes, payload) in frame_parts()) {
        let mask = EncMask::from_raw_bytes(w, h, mask_bytes.clone()).expect("sized to w x h");
        let meta = FrameMetadata::from_mask(mask.clone());
        let offsets = meta.row_offsets.as_slice().to_vec();
        let frame = EncodedFrame::new(w, h, idx, payload.clone(), meta);
        let sealed = frame.integrity();
        prop_assert_eq!(frame.compute_integrity(), sealed);

        for bit in 0..32 {
            for geometry in [(w ^ 1 << bit, h, idx), (w, h ^ 1 << bit, idx)] {
                let f = reassemble(geometry, &mask, &offsets, &payload, sealed);
                prop_assert_ne!(f.compute_integrity(), sealed, "geometry {:?}", geometry);
            }
        }
        for bit in 0..64 {
            let f = reassemble((w, h, idx ^ 1 << bit), &mask, &offsets, &payload, sealed);
            prop_assert_ne!(f.compute_integrity(), sealed, "frame_idx bit {}", bit);
        }
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut p = payload.clone();
                p[i] ^= 1 << bit;
                let f = reassemble((w, h, idx), &mask, &offsets, &p, sealed);
                prop_assert_ne!(f.compute_integrity(), sealed, "payload byte {} bit {}", i, bit);
            }
        }
        for i in 0..mask_bytes.len() {
            for bit in 0..8 {
                let mut m = mask_bytes.clone();
                m[i] ^= 1 << bit;
                let flipped = EncMask::from_raw_bytes(w, h, m).expect("same length");
                let f = reassemble((w, h, idx), &flipped, &offsets, &payload, sealed);
                prop_assert_ne!(f.compute_integrity(), sealed, "mask byte {} bit {}", i, bit);
            }
        }
        for i in 0..offsets.len() {
            for bit in 0..32 {
                let mut o = offsets.clone();
                o[i] ^= 1 << bit;
                let f = reassemble((w, h, idx), &mask, &o, &payload, sealed);
                prop_assert_ne!(f.compute_integrity(), sealed, "offset {} bit {}", i, bit);
            }
        }
    }
}
