use crate::{FrameMetadata, PixelStatus};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Odd multiplier of the digest's mixing step (2^64 / golden ratio).
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Starting states of the digest's four lanes and of its final fold
/// (the first hex digits of pi; any distinct values would do).
const LANE_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];
const FOLD_SEED: u64 = 0x4528_21e6_38d0_1377;

/// One absorb step: a multiply by an odd constant, then an xor-shift.
/// Both are bijections on `u64`, so `mix(h ^ w)` maps distinct words
/// `w` to distinct states for any fixed `h`.
#[inline(always)]
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(MIX_MUL);
    x ^ (x >> 32)
}

/// Folds the four lanes, then the byte length, into one state.
#[inline]
fn fold_lanes(lanes: [u64; 4], len: usize) -> u64 {
    let h = lanes.iter().fold(FOLD_SEED, |h, &lane| mix(h ^ lane));
    mix(h ^ len as u64)
}

/// The word-at-a-time digest that seals an encoded frame's contents.
///
/// Four independent lanes each absorb one little-endian u64 of every
/// 32-byte block, so the multiplies of a block overlap instead of
/// forming one serial chain. The lanes fold into one state, then the
/// byte length, then the sub-block tail byte by byte. Every step is a
/// bijection in the word or byte it absorbs, so changing any single
/// word of `bytes` changes the digest. Independent of the host's byte
/// order and dependency-free, so a DMA engine could compute it while
/// streaming the frame out.
fn frame_digest(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes);
            *lane = mix(*lane ^ word);
        }
    }
    let mut h = fold_lanes(lanes, bytes.len());
    for &b in blocks.remainder() {
        h = mix(h ^ u64::from(b));
    }
    h
}

/// [`frame_digest`] of the little-endian byte image of `words`,
/// computed without materializing it: a u64 word is two consecutive
/// entries, low entry first.
fn frame_digest_u32(words: &[u32]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = words.chunks_exact(8);
    for block in &mut blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            let word = pair.iter().rev().fold(0u64, |w, &v| w << 32 | u64::from(v));
            *lane = mix(*lane ^ word);
        }
    }
    let mut h = fold_lanes(lanes, 4 * words.len());
    for &v in blocks.remainder() {
        for b in v.to_le_bytes() {
            h = mix(h ^ u64::from(b));
        }
    }
    h
}

/// One encoded frame: the tightly packed regional (`R`) pixels in
/// original raster-scan order, plus the metadata needed to decode them
/// (paper §3.2–3.3).
///
/// Preserving raster order — instead of grouping pixels per region the
/// way multi-ROI cameras do — keeps DRAM writes sequential and stores
/// overlapping regions' pixels exactly once, which is what lets the
/// representation scale to hundreds of regions.
///
/// # Validity travels with the frame
///
/// A frame carries a private *validated* marker, the proof that its
/// contents passed the full [`EncodedFrame::validate`] check. Only two
/// paths set it: the consuming [`EncodedFrame::validated`] (which the
/// wire layer's `to_validated_frame*` return) and the encoders, whose
/// output is consistent by construction (debug builds still assert it).
/// Every public constructor — [`EncodedFrame::new`],
/// [`EncodedFrame::new_shared`], [`EncodedFrame::from_raw_parts`],
/// [`EncodedFrame::from_shared_parts`] — and deserialization yield
/// unmarked frames. `validate`, the decoder's `try_decode*` and the
/// wire writer skip the full check on a marked frame, so a frame is
/// proved valid once, where its bytes enter the process.
///
/// The marker is sound because the type has no `&mut` access to its
/// contents: every accessor borrows immutably and the only consuming
/// one, [`EncodedFrame::recycle`], dismantles the frame. Keep it that
/// way. The marker takes no part in equality or the serialized form: a
/// marked frame equals its unmarked copy and serializes identically.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    /// Original frame width in pixels.
    width: u32,
    /// Original frame height in pixels.
    height: u32,
    /// Index of the frame in the capture sequence.
    frame_idx: u64,
    /// Packed `R` pixel values in raster order.
    pixels: Bytes,
    /// Per-row offsets and EncMask.
    metadata: FrameMetadata,
    /// Digest ([`frame_digest`]) over geometry, frame index, payload,
    /// and metadata, written at assembly time.
    /// [`EncodedFrame::validate`] recomputes it to catch content
    /// corruption (payload bit rot, mask bit flips, stale metadata)
    /// that the structural checks cannot see.
    integrity: u64,
    /// True once the contents passed the full validation (see the type
    /// docs); never serialized, never compared.
    validated: bool,
}

impl PartialEq for EncodedFrame {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.height == other.height
            && self.frame_idx == other.frame_idx
            && self.pixels == other.pixels
            && self.metadata == other.metadata
            && self.integrity == other.integrity
    }
}

impl Eq for EncodedFrame {}

impl Serialize for EncodedFrame {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("width".to_string(), self.width.to_value()),
            ("height".to_string(), self.height.to_value()),
            ("frame_idx".to_string(), self.frame_idx.to_value()),
            ("pixels".to_string(), self.pixels.to_value()),
            ("metadata".to_string(), self.metadata.to_value()),
            ("integrity".to_string(), self.integrity.to_value()),
        ])
    }
}

impl Deserialize for EncodedFrame {
    /// Always yields an unmarked frame: bytes from outside the process
    /// carry no proof.
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::de::field;
        let map =
            v.as_map().ok_or_else(|| serde::DeError::custom("expected map for EncodedFrame"))?;
        Ok(EncodedFrame {
            width: field(map, "width")?,
            height: field(map, "height")?,
            frame_idx: field(map, "frame_idx")?,
            pixels: field(map, "pixels")?,
            metadata: field(map, "metadata")?,
            integrity: field(map, "integrity")?,
            validated: false,
        })
    }
}

impl EncodedFrame {
    /// Assembles an encoded frame, sealing its current contents with an
    /// integrity digest. The constructor does not check structural
    /// consistency (so inconsistently assembled frames can be modeled)
    /// and returns an unmarked frame; use [`EncodedFrame::validated`]
    /// (or [`EncodedFrame::validate`]) before trusting the contents.
    pub fn new(
        width: u32,
        height: u32,
        frame_idx: u64,
        pixels: Vec<u8>,
        metadata: FrameMetadata,
    ) -> Self {
        Self::new_shared(width, height, frame_idx, std::sync::Arc::new(pixels), metadata)
    }

    /// [`EncodedFrame::new`] over an already-shared payload buffer
    /// ([`crate::BufferPool::get_shared`]): sealing reuses the
    /// buffer's existing ref-count block, so the pooled encode path
    /// allocates nothing. Unmarked, like `new`.
    pub fn new_shared(
        width: u32,
        height: u32,
        frame_idx: u64,
        pixels: std::sync::Arc<Vec<u8>>,
        metadata: FrameMetadata,
    ) -> Self {
        let mut frame =
            Self::from_shared_parts(width, height, frame_idx, pixels, metadata, 0);
        frame.integrity = frame.compute_integrity();
        frame
    }

    /// Reassembles a frame from raw parts *without* recomputing the
    /// digest — the shape a frame has after its bytes sat in (possibly
    /// faulty) DRAM: the digest still describes what was written, while
    /// the contents may have rotted. This is the constructor fault
    /// injectors use; [`EncodedFrame::validate`] detects the mismatch.
    /// The result is unmarked.
    pub fn from_raw_parts(
        width: u32,
        height: u32,
        frame_idx: u64,
        pixels: Vec<u8>,
        metadata: FrameMetadata,
        integrity: u64,
    ) -> Self {
        EncodedFrame {
            width,
            height,
            frame_idx,
            pixels: Bytes::from(pixels),
            metadata,
            integrity,
            validated: false,
        }
    }

    /// [`EncodedFrame::from_raw_parts`] over an already-shared payload
    /// buffer, for pooled promotion paths that must not allocate a new
    /// ref-count block per frame. The result is unmarked.
    pub fn from_shared_parts(
        width: u32,
        height: u32,
        frame_idx: u64,
        pixels: std::sync::Arc<Vec<u8>>,
        metadata: FrameMetadata,
        integrity: u64,
    ) -> Self {
        EncodedFrame {
            width,
            height,
            frame_idx,
            pixels: Bytes::from_shared(pixels),
            metadata,
            integrity,
            validated: false,
        }
    }

    /// Marks an encoder's own output as validated. The encoders build
    /// consistent frames by construction; debug builds re-prove it.
    pub(crate) fn sealed_by_encoder(mut self) -> Self {
        debug_assert!(self.check().is_ok(), "the encoder produced an invalid frame");
        self.validated = true;
        self
    }

    /// Runs the full [`EncodedFrame::validate`] check once and returns
    /// the frame marked as validated, so later boundaries
    /// (`validate`, the decoder's `try_decode*`, the wire writer) skip
    /// it. A frame that is already marked is returned as is.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CorruptEncodedFrame`] describing the
    /// first inconsistency found; the frame is dropped.
    pub fn validated(mut self) -> crate::Result<Self> {
        if !self.validated {
            self.check()?;
            self.validated = true;
        }
        Ok(self)
    }

    /// True when the frame carries the validated marker (see the type
    /// docs).
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// The digest stored when the frame was assembled.
    pub fn integrity(&self) -> u64 {
        self.integrity
    }

    /// Dismantles the frame, returning its buffers to `pool` so the
    /// next encode reuses them instead of allocating. The payload is
    /// recovered — ref-count block included — only when this frame is
    /// its sole owner (the payload `Bytes` is shared by `clone`d
    /// frames); shared payloads are simply dropped. [`crate::FrameHistory`]
    /// calls this on every frame it evicts.
    pub fn recycle(self, pool: &crate::BufferPool) {
        pool.put_shared(self.pixels.into_shared());
        pool.put_vec(self.metadata.mask.into_raw_bytes());
        pool.put_words(self.metadata.row_offsets.into_raw_offsets());
    }

    /// Recomputes the integrity digest from the frame's current
    /// contents: geometry and frame index as two words, then a
    /// word-at-a-time digest (four multiply-xor lanes over 32-byte
    /// blocks) of the payload, the mask bytes, and the offset table's
    /// little-endian image, each absorbed with a bijective step. Equal
    /// to [`EncodedFrame::integrity`] when the frame is bit-identical
    /// to what [`EncodedFrame::new`] sealed; a change to any single
    /// word of those inputs changes it.
    pub fn compute_integrity(&self) -> u64 {
        let geometry = u64::from(self.width) | u64::from(self.height) << 32;
        [
            geometry,
            self.frame_idx,
            frame_digest(&self.pixels),
            frame_digest(self.metadata.mask.as_bytes()),
            frame_digest_u32(self.metadata.row_offsets.as_slice()),
        ]
        .into_iter()
        .fold(FOLD_SEED, |h, word| mix(h ^ word))
    }

    /// Original (decoded-space) frame width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Original (decoded-space) frame height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Position of this frame in the capture sequence.
    pub fn frame_idx(&self) -> u64 {
        self.frame_idx
    }

    /// The packed regional pixel payload.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Number of stored (`R`) pixels.
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// The frame's decode metadata.
    pub fn metadata(&self) -> &FrameMetadata {
        &self.metadata
    }

    /// Fetches the stored value of the `R` pixel at decoded coordinate
    /// `(x, y)`: per-row offset plus the count of `R` entries before `x`
    /// (the PMMU translation, paper §4.2.1). Returns `None` when the
    /// pixel is not `R` or out of bounds.
    pub fn fetch_regional(&self, x: u32, y: u32) -> Option<u8> {
        if x >= self.width || y >= self.height {
            return None;
        }
        if self.metadata.mask.get(x, y) != PixelStatus::Regional {
            return None;
        }
        let offset =
            self.metadata.row_offsets.offset_of_row(y) + self.metadata.mask.regional_before(x, y);
        self.pixels.get(usize::try_from(offset).ok()?).copied()
    }

    /// Payload bytes (1 byte per stored pixel in the reference gray
    /// pipeline; multi-byte formats scale this in the traffic model).
    pub fn payload_bytes(&self) -> usize {
        self.pixels.len()
    }

    /// Metadata bytes (EncMask + per-row offsets).
    pub fn metadata_bytes(&self) -> usize {
        self.metadata.size_bytes()
    }

    /// Total DRAM footprint of this frame: payload plus metadata.
    pub fn total_bytes(&self) -> usize {
        self.payload_bytes() + self.metadata_bytes()
    }

    /// Integrity check for a frame read back from (possibly corrupted)
    /// storage. Structural checks first — the mask geometry, the offset
    /// table's shape (row count, monotonicity, totals), and the payload
    /// length must all agree — then the content digest, which catches
    /// corruption the structure cannot see (payload bit rot, mask
    /// status flips that preserve per-row counts, stale frame indices).
    ///
    /// A frame that carries the validated marker (see the type docs)
    /// passed this check already and returns `Ok` at once. Use
    /// [`EncodedFrame::validated`] to keep the proof with the frame.
    ///
    /// A frame that passes `validate` decodes without panicking: every
    /// row span is a forward range inside the payload holding exactly
    /// as many pixels as the mask marks `R` on that row.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::CorruptEncodedFrame`] describing the
    /// first inconsistency found.
    pub fn validate(&self) -> crate::Result<()> {
        if self.validated {
            return Ok(());
        }
        self.check()
    }

    /// The full check behind [`EncodedFrame::validate`], ignoring the
    /// marker.
    fn check(&self) -> crate::Result<()> {
        let corrupt = |reason: String| crate::CoreError::CorruptEncodedFrame { reason };
        if self.metadata.mask.width() != self.width
            || self.metadata.mask.height() != self.height
        {
            return Err(corrupt(format!(
                "mask is {}x{} but frame is {}x{}",
                self.metadata.mask.width(),
                self.metadata.mask.height(),
                self.width,
                self.height
            )));
        }
        if self.metadata.row_offsets.rows() != self.height {
            return Err(corrupt(format!(
                "offset table covers {} rows but frame has {}",
                self.metadata.row_offsets.rows(),
                self.height
            )));
        }
        if !self.metadata.row_offsets.is_monotonic() {
            return Err(corrupt("row offsets are not monotonically non-decreasing".into()));
        }
        let base = self.metadata.row_offsets.as_slice().first().copied().unwrap_or(0);
        if base != 0 {
            return Err(corrupt(format!("offset table starts at {base} instead of 0")));
        }
        if u64::from(self.metadata.row_offsets.total()) != self.pixels.len() as u64 {
            return Err(corrupt(format!(
                "offsets claim {} pixels but payload holds {}",
                self.metadata.row_offsets.total(),
                self.pixels.len()
            )));
        }
        if !self.metadata.is_consistent() {
            return Err(corrupt("per-row offsets disagree with the EncMask".into()));
        }
        let computed = self.compute_integrity();
        if computed != self.integrity {
            return Err(corrupt(format!(
                "integrity digest mismatch: stored {:#018x}, contents hash to {computed:#018x}",
                self.integrity
            )));
        }
        Ok(())
    }

    /// Fraction of the original frame's pixels that were stored, the
    /// quantity reported under each frame of the paper's Figs. 10–15.
    pub fn captured_fraction(&self) -> f64 {
        let total = self.width as f64 * self.height as f64;
        if total == 0.0 {
            0.0
        } else {
            self.pixels.len() as f64 / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncMask, FrameMetadata};

    fn tiny_encoded() -> EncodedFrame {
        // 4x2 frame; R pixels at (1,0), (3,0), (0,1).
        let mut mask = EncMask::new(4, 2);
        mask.set(1, 0, PixelStatus::Regional);
        mask.set(3, 0, PixelStatus::Regional);
        mask.set(0, 1, PixelStatus::Regional);
        mask.set(2, 1, PixelStatus::Strided);
        let meta = FrameMetadata::from_mask(mask);
        EncodedFrame::new(4, 2, 7, vec![10, 20, 30], meta)
    }

    #[test]
    fn fetch_regional_translates_addresses() {
        let f = tiny_encoded();
        assert_eq!(f.fetch_regional(1, 0), Some(10));
        assert_eq!(f.fetch_regional(3, 0), Some(20));
        assert_eq!(f.fetch_regional(0, 1), Some(30));
    }

    #[test]
    fn fetch_regional_rejects_non_r_pixels() {
        let f = tiny_encoded();
        assert_eq!(f.fetch_regional(0, 0), None); // N
        assert_eq!(f.fetch_regional(2, 1), None); // St
        assert_eq!(f.fetch_regional(9, 9), None); // out of bounds
    }

    #[test]
    fn accounting_adds_payload_and_metadata() {
        let f = tiny_encoded();
        assert_eq!(f.payload_bytes(), 3);
        assert_eq!(f.metadata_bytes(), 2 + 8); // 8 px mask + 2 rows * 4 B
        assert_eq!(f.total_bytes(), 13);
    }

    #[test]
    fn captured_fraction_counts_stored_pixels() {
        let f = tiny_encoded();
        assert!((f.captured_fraction() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn frame_idx_is_preserved() {
        assert_eq!(tiny_encoded().frame_idx(), 7);
    }

    #[test]
    fn fresh_frames_validate_clean() {
        assert!(tiny_encoded().validate().is_ok());
    }

    /// Rebuilds `f` with one field replaced, carrying the original
    /// digest — the testkit injectors' corruption model.
    fn reassemble(
        f: &EncodedFrame,
        pixels: Vec<u8>,
        metadata: FrameMetadata,
        frame_idx: u64,
    ) -> EncodedFrame {
        EncodedFrame::from_raw_parts(
            f.width(),
            f.height(),
            frame_idx,
            pixels,
            metadata,
            f.integrity(),
        )
    }

    #[test]
    fn payload_bit_flip_is_detected() {
        let f = tiny_encoded();
        let mut pixels = f.pixels().to_vec();
        pixels[1] ^= 0x40;
        let bad = reassemble(&f, pixels, f.metadata().clone(), f.frame_idx());
        assert!(matches!(bad.validate(), Err(crate::CoreError::CorruptEncodedFrame { .. })));
    }

    #[test]
    fn stale_frame_idx_is_detected() {
        let f = tiny_encoded();
        let bad = reassemble(&f, f.pixels().to_vec(), f.metadata().clone(), 6);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn payload_truncation_is_detected() {
        let f = tiny_encoded();
        let bad =
            reassemble(&f, f.pixels()[..2].to_vec(), f.metadata().clone(), f.frame_idx());
        assert!(bad.validate().is_err());
    }

    #[test]
    fn mask_flip_preserving_row_counts_is_detected() {
        // St -> Sk keeps every per-row R count identical; only the
        // digest can see it.
        let f = tiny_encoded();
        let mut meta = f.metadata().clone();
        assert_eq!(meta.mask.get(2, 1), PixelStatus::Strided);
        meta.mask.set(2, 1, PixelStatus::Skipped);
        let bad = reassemble(&f, f.pixels().to_vec(), meta, f.frame_idx());
        assert!(meta_err_mentions(&bad, "digest"));
    }

    #[test]
    fn truncated_offset_table_is_detected() {
        let f = tiny_encoded();
        let mut meta = f.metadata().clone();
        meta.row_offsets = crate::RowOffsets::from_row_counts(&[3]);
        let bad = reassemble(&f, f.pixels().to_vec(), meta, f.frame_idx());
        assert!(meta_err_mentions(&bad, "rows"));
    }

    #[test]
    fn non_monotonic_offsets_are_detected() {
        // Crafted so span lengths still match the mask's R counts (row 0
        // holds 2 R, row 1 holds 1 R) while a span runs backwards; the
        // old validate() accepted shapes like this and decode panicked.
        let f = tiny_encoded();
        let mut meta = f.metadata().clone();
        meta.row_offsets = crate::RowOffsets::from_raw_offsets(vec![0, 4, 3]);
        let bad = reassemble(&f, f.pixels().to_vec(), meta, f.frame_idx());
        assert!(meta_err_mentions(&bad, "monotonic"));
    }

    #[test]
    fn shifted_offset_base_is_detected() {
        // First entry non-zero with a consistent-looking tail: without
        // the leading-zero check the decoder would read the wrong span.
        let f = tiny_encoded();
        let mut meta = f.metadata().clone();
        meta.row_offsets = crate::RowOffsets::from_raw_offsets(vec![1, 3, 3]);
        let bad = reassemble(&f, f.pixels().to_vec(), meta, f.frame_idx());
        assert!(bad.validate().is_err());
    }

    #[test]
    fn from_raw_parts_roundtrips_clean_frames() {
        let f = tiny_encoded();
        let copy = reassemble(&f, f.pixels().to_vec(), f.metadata().clone(), f.frame_idx());
        assert_eq!(copy, f);
        assert!(copy.validate().is_ok());
    }

    #[test]
    fn digest_of_the_tiny_frame_is_pinned() {
        // Pins the container-version-2 digest: changing it breaks every
        // recorded `.rpr` file and needs a FORMAT_VERSION bump.
        let f = tiny_encoded();
        assert_eq!(f.integrity(), 0x263a_9ad6_80db_5e00, "{:#018x}", f.integrity());
        assert_eq!(f.compute_integrity(), f.integrity());
    }

    #[test]
    fn digest_absorbs_lanes_length_and_tail() {
        // Empty input, sub-block tails, whole blocks, and a block plus
        // tail all differ, and so do the same bytes at another length.
        let bytes: Vec<u8> = (0..100u8).collect();
        let digests: Vec<u64> = [0, 1, 31, 32, 33, 64, 100]
            .iter()
            .map(|&n| frame_digest(&bytes[..n]))
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(frame_digest(&[0; 8]), frame_digest(&[0; 9]), "length is absorbed");
    }

    #[test]
    fn u32_digest_equals_digest_of_le_bytes() {
        for n in 0..40u32 {
            let words: Vec<u32> = (0..n).map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0xa5).collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(frame_digest_u32(&words), frame_digest(&bytes), "n {n}");
        }
    }

    #[test]
    fn public_constructors_and_deserialize_yield_unmarked_frames() {
        let f = tiny_encoded();
        assert!(!f.is_validated());
        let shared = EncodedFrame::new_shared(
            4,
            2,
            7,
            std::sync::Arc::new(f.pixels().to_vec()),
            f.metadata().clone(),
        );
        assert!(!shared.is_validated());
        let raw = reassemble(&f, f.pixels().to_vec(), f.metadata().clone(), f.frame_idx());
        assert!(!raw.is_validated());
        let from_shared = EncodedFrame::from_shared_parts(
            4,
            2,
            7,
            std::sync::Arc::new(f.pixels().to_vec()),
            f.metadata().clone(),
            f.integrity(),
        );
        assert!(!from_shared.is_validated());
        let marked = f.clone().validated().unwrap();
        let back = EncodedFrame::from_value(&marked.to_value()).unwrap();
        assert!(!back.is_validated(), "deserialized bytes carry no proof");
        assert_eq!(back, marked);
    }

    #[test]
    fn marker_is_outside_equality_and_the_serialized_form() {
        let plain = tiny_encoded();
        let marked = plain.clone().validated().unwrap();
        assert!(marked.is_validated());
        assert!(marked.clone().is_validated(), "clones keep the proof");
        assert_eq!(marked, plain);
        assert_eq!(marked.to_value(), plain.to_value());
        let value = marked.to_value();
        let keys: Vec<&str> =
            value.as_map().unwrap_or_default().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["width", "height", "frame_idx", "pixels", "metadata", "integrity"]);
    }

    #[test]
    fn validated_checks_once_and_refuses_corrupt_frames() {
        let f = tiny_encoded();
        let mut pixels = f.pixels().to_vec();
        pixels[0] ^= 1;
        let bad = reassemble(&f, pixels, f.metadata().clone(), f.frame_idx());
        assert!(matches!(bad.validated(), Err(crate::CoreError::CorruptEncodedFrame { .. })));
        let good = f.validated().unwrap();
        assert!(good.validate().is_ok());
        assert!(good.validated().unwrap().is_validated());
    }

    #[test]
    fn encoder_output_is_marked() {
        let frame = rpr_frame::Plane::from_fn(8, 4, |x, y| (x + 8 * y) as u8);
        let regions =
            crate::RegionList::new(8, 4, vec![crate::RegionLabel::new(1, 0, 5, 4, 2, 1)]).unwrap();
        let encoded = crate::RhythmicEncoder::new(8, 4).encode(&frame, 0, &regions);
        assert!(encoded.is_validated());
        assert!(encoded.metadata().is_consistent());
        assert_eq!(encoded.compute_integrity(), encoded.integrity());
    }

    fn meta_err_mentions(frame: &EncodedFrame, needle: &str) -> bool {
        match frame.validate() {
            Err(crate::CoreError::CorruptEncodedFrame { reason }) => {
                assert!(reason.contains(needle), "reason {reason:?} missing {needle:?}");
                true
            }
            other => panic!("expected CorruptEncodedFrame, got {other:?}"),
        }
    }
}
