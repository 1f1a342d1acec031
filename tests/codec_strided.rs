//! The production codec against the per-pixel references on pose-like
//! region sets, in tier-1.
//!
//! `RhythmicEncoder` encodes a row span by span when its regions'
//! spans are disjoint and merges overlapping spans in priority space;
//! `SoftwareDecoder` decodes repeated mask bytes in bulk and other
//! bytes a pixel at a time. Each must stay byte-identical to the per-pixel
//! `StreamingEncoder` and `ReferenceDecoder`, and the encoder's
//! `EncoderStats` must equal the counts a per-pixel pass implies
//! (they model the paper's Table 5 and §6.2 work numbers).
//!
//! 64 seeded cases cover the frame kinds a pose workload produces:
//! full-frame captures, one large stride-2 region on sampled and on
//! skipped frames, and a stride-2 region overlapped by a full-rate one.

use rpr_core::{
    EncodedFrame, EncoderStats, ReconstructionMode, RegionLabel, RegionList, RhythmicEncoder,
    SoftwareDecoder, StreamingEncoder,
};
use rpr_frame::{GrayFrame, Plane};
use rpr_testkit::ReferenceDecoder;

/// Small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u32) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) % u64::from(bound.max(1))) as u32
    }
}

/// The region set of case `seed` on a `w x h` frame.
fn pose_like_regions(seed: u64, w: u32, h: u32) -> (&'static str, RegionList) {
    let mut rng = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
    let x = rng.next(w / 3);
    let y = rng.next(h / 3);
    let rw = w / 3 + rng.next(w - x - w / 3);
    let rh = h / 3 + rng.next(h - y - h / 3);
    let body = RegionLabel::new(x, y, rw, rh, 2, 2);
    match seed % 4 {
        0 => ("full-frame", RegionList::full_frame(w, h)),
        1 => ("stride-2", RegionList::new(w, h, vec![body]).expect("in-frame region")),
        2 => {
            // Two bodies side by side, the second one frame out of phase.
            let right = RegionLabel::new(x + rw, y + 1, (w - x - rw).max(1), rh - 1, 2, 3);
            ("stride-2 pair", RegionList::new_lossy(w, h, vec![body, right]))
        }
        _ => {
            let head = RegionLabel::new(x + rw / 4, y + 1, rw / 2, rh / 3, 1, 1);
            ("overlapping", RegionList::new(w, h, vec![body, head]).expect("in-frame regions"))
        }
    }
}

fn textured(w: u32, h: u32, seed: u32) -> GrayFrame {
    Plane::from_fn(w, h, |x, y| (x.wrapping_mul(29) ^ y.wrapping_mul(13) ^ seed) as u8)
}

/// Encodes per pixel, adding the frame's work and output counts to
/// `stats` as the hybrid engine with run-length reuse accounts them:
/// one comparison per shortlisted region per row.
fn streaming_encode(
    frame: &GrayFrame,
    idx: u64,
    regions: &RegionList,
    stats: &mut EncoderStats,
) -> EncodedFrame {
    let (w, h) = (frame.width(), frame.height());
    let mut stream = StreamingEncoder::begin(w, h, idx, regions.clone());
    for &px in frame.as_slice() {
        let status = stream.push(px);
        stats.status_counts[status.bits() as usize] += 1;
    }
    for y in 0..h {
        let live = regions.labels().iter().filter(|r| r.contains_row(y)).count() as u64;
        stats.rows_total += 1;
        stats.shortlist_len_sum += live;
        stats.comparisons += live;
        stats.rows_skipped += u64::from(live == 0);
    }
    let encoded = stream.finish();
    stats.frames += 1;
    stats.pixels_in += u64::from(w) * u64::from(h);
    stats.pixels_out += encoded.pixel_count() as u64;
    stats.payload_bytes += encoded.pixel_count() as u64;
    stats.metadata_bytes += encoded.metadata().size_bytes() as u64;
    encoded
}

#[test]
fn codec_matches_per_pixel_references_on_pose_like_frames() {
    for seed in 0..64u64 {
        // Widths 128..=131 put rows at every 2-bit mask phase.
        let (w, h) = (128 + (seed % 4) as u32, 72);
        let (kind, regions) = pose_like_regions(seed, w, h);
        let mut encoder = RhythmicEncoder::new(w, h);
        let mut expected_stats = EncoderStats::default();
        let modes = [ReconstructionMode::BlockNearest, ReconstructionMode::FifoReplicate];
        let mut decoders = modes.map(|m| SoftwareDecoder::with_mode(w, h, m));
        let mut references = modes.map(|m| ReferenceDecoder::new(w, h, m));
        // Frames 0..4 alternate sampled and skipped for skip-2 regions.
        for idx in 0..4u64 {
            let frame = textured(w, h, (seed * 7 + idx) as u32);
            let encoded = encoder.encode(&frame, idx, &regions);
            let expected = streaming_encode(&frame, idx, &regions, &mut expected_stats);
            assert_eq!(encoded, expected, "seed {seed} ({kind}) frame {idx}: encoded frame");
            assert_eq!(encoded.integrity(), expected.integrity(), "seed {seed} frame {idx}");
            assert_eq!(*encoder.stats(), expected_stats, "seed {seed} ({kind}) frame {idx}");
            for (dec, reference) in decoders.iter_mut().zip(references.iter_mut()) {
                let mode = reference.mode();
                let out = dec.decode(&encoded);
                assert_eq!(
                    out,
                    reference.decode(&expected),
                    "seed {seed} ({kind}) frame {idx} {mode:?}: decoded frame"
                );
            }
        }
    }
}
