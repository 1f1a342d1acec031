//! The canonical little-endian frame blob and its zero-copy view.
//!
//! One [`rpr_core::EncodedFrame`] serializes to one *frame blob*:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  width        u32 LE
//!      4     4  height       u32 LE
//!      8     8  frame_idx    u64 LE
//!     16     8  integrity    u64 LE  (word-at-a-time frame digest,
//!                                    carried verbatim; see
//!                                    `EncodedFrame::compute_integrity`)
//!     24     1  mask_encoding: 0 = raw packed 2-bit, 1 = mask runs
//!     25     —  mask_len     varint, then mask_len mask bytes
//!      …     —  payload_len  varint, then payload_len payload bytes
//! ```
//!
//! The payload sits last and unencoded so a parsed
//! [`EncodedFrameView`] can borrow it straight out of the input slice;
//! when the mask is raw-encoded the view borrows that too (the
//! `Cow::Borrowed` zero-copy path). The blob carries no row-offset
//! table: a valid frame's table is the running count of `R` entries
//! per mask row, so the parser derives it from the mask and refuses a
//! blob whose derived total disagrees with `payload_len`.

use std::borrow::Cow;

use rpr_core::kernels::count_regional;
use rpr_core::{EncMask, EncodedFrame, FrameMetadata, RowOffsets};

use crate::varint::{read_varint, write_varint};
use crate::{bytes, rle, Result, WireError};

/// Fixed-size prefix of a frame blob, before the varint fields.
pub const FRAME_HEADER_LEN: usize = 25;

/// Hard cap on either frame dimension; declared dimensions above this
/// are rejected before any allocation.
pub const MAX_DIMENSION: u32 = 1 << 16;

/// Hard cap on `width * height` (64 Mpx) — bounds every allocation the
/// parser can make from untrusted headers.
pub const MAX_PIXELS: u64 = 1 << 26;

/// How the EncMask is coded inside a frame blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskCodec {
    /// Measure both and keep whichever is smaller (the default).
    #[default]
    Auto,
    /// Always store the packed 2-bit bytes verbatim.
    Raw,
    /// Always run-code ([`crate::rle`]; falls back to raw for the rare
    /// mask whose trailing padding bits are non-canonical, since runs
    /// cannot represent them and byte-identity would be lost).
    Rle,
}

const MASK_ENC_RAW: u8 = 0;
const MASK_ENC_RUNS: u8 = 1;

/// Size accounting for one encoded frame blob, the raw material of the
/// `wire_roundtrip` bench's runs-vs-raw comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEncodeStats {
    /// Size of the packed 2-bit mask (what raw encoding would store).
    pub raw_mask_bytes: usize,
    /// Size the run coding of the same mask occupies; 0 when the runs
    /// were not written ([`MaskCodec::Raw`], or a non-canonical tail).
    pub run_mask_bytes: usize,
    /// Mask bytes actually written (the smaller of the two under
    /// [`MaskCodec::Auto`]).
    pub mask_bytes: usize,
    /// True when the written mask is run-coded.
    pub mask_runs: bool,
    /// Payload bytes written.
    pub payload_bytes: usize,
    /// Total blob size including the fixed header and varints.
    pub encoded_bytes: usize,
}

/// True when the unused high bits of the last packed byte are zero —
/// the canonical layout [`EncMask::new`] maintains. Runs can only
/// reproduce canonical tails, so non-canonical masks are stored raw.
fn tail_is_canonical(packed: &[u8], pixels: usize) -> bool {
    let rem = pixels % 4;
    if rem == 0 {
        return true;
    }
    match packed.last() {
        None => true,
        Some(tail) => tail >> (rem * 2) == 0,
    }
}

/// Serializes `frame` as one frame blob appended to `out`.
///
/// The frame must pass [`EncodedFrame::validate`]: the wire format
/// only carries self-consistent frames, so every parse failure on the
/// read side is genuine corruption rather than a sloppy writer. It is
/// also why the row-offset table stays off the wire: a valid frame's
/// table is the one its mask implies. A frame marked validated
/// (encoder output, or a frame read back through
/// [`EncodedFrameView::to_validated_frame`]) is not checked again.
///
/// # Errors
///
/// [`WireError::InvalidFrame`] when the frame fails validation.
pub fn encode_frame(
    frame: &EncodedFrame,
    codec: MaskCodec,
    out: &mut Vec<u8>,
) -> Result<FrameEncodeStats> {
    frame
        .validate()
        .map_err(|e| WireError::InvalidFrame { reason: e.to_string() })?;

    let start = out.len();
    out.extend_from_slice(&frame.width().to_le_bytes());
    out.extend_from_slice(&frame.height().to_le_bytes());
    out.extend_from_slice(&frame.frame_idx().to_le_bytes());
    out.extend_from_slice(&frame.integrity().to_le_bytes());

    let mask = frame.metadata().mask.as_bytes();
    let pixels = bytes::usize_from(
        u64::from(frame.width()) * u64::from(frame.height()),
        "frame pixel count",
    )?;
    let raw_mask_bytes = mask.len();
    let mut run_mask_bytes = 0;
    let mut mask_runs = false;
    if codec != MaskCodec::Raw && tail_is_canonical(mask, pixels) {
        // Write the runs once, straight into `out`, then slide the
        // length varint in front of them; refused runs are cut off.
        let encoding_at = out.len();
        out.push(MASK_ENC_RUNS);
        let runs_at = out.len();
        run_mask_bytes = rle::compress(mask, pixels, out);
        mask_runs = codec == MaskCodec::Rle || run_mask_bytes < raw_mask_bytes;
        if mask_runs {
            let len_bytes = write_varint(out, run_mask_bytes as u64);
            if let Some(tail) = out.get_mut(runs_at..) {
                tail.rotate_right(len_bytes);
            }
        } else {
            out.truncate(encoding_at);
        }
    }
    if !mask_runs {
        out.push(MASK_ENC_RAW);
        write_varint(out, raw_mask_bytes as u64);
        out.extend_from_slice(mask);
    }

    let payload = frame.pixels();
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);

    Ok(FrameEncodeStats {
        raw_mask_bytes,
        run_mask_bytes,
        mask_bytes: if mask_runs { run_mask_bytes } else { raw_mask_bytes },
        mask_runs,
        payload_bytes: payload.len(),
        encoded_bytes: out.len() - start,
    })
}

/// A frame blob decoded *in place* over a borrowed byte slice.
///
/// The payload is always a borrow of the input; the mask is borrowed
/// too when it was stored raw (`Cow::Borrowed`) and inflated into an
/// owned buffer only when it was run-coded. The row-offset table is
/// derived from the mask. Parsing performs the structural checks
/// needed to make every accessor panic-free but does not verify the
/// integrity digest — promote to an owned
/// [`EncodedFrame`] with [`EncodedFrameView::to_validated_frame`]
/// before trusting the contents.
#[derive(Debug, Clone)]
pub struct EncodedFrameView<'a> {
    width: u32,
    height: u32,
    frame_idx: u64,
    integrity: u64,
    mask: Cow<'a, [u8]>,
    row_offsets: Vec<u32>,
    payload: &'a [u8],
}

impl<'a> EncodedFrameView<'a> {
    /// Parses one frame blob from the start of `buf`, returning the
    /// view and the number of bytes it occupied.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for every malformation: truncation,
    /// malformed varints, dimension/pixel-count limits, bad mask runs,
    /// or a payload length other than the mask's `R` count. Never
    /// panics, whatever the input bytes.
    pub fn parse_prefix(buf: &'a [u8]) -> Result<(Self, usize)> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(WireError::Truncated {
                what: "frame header",
                needed: FRAME_HEADER_LEN as u64,
                available: buf.len() as u64,
            });
        }
        let width = bytes::le_u32(buf, 0, "frame width")?;
        let height = bytes::le_u32(buf, 4, "frame height")?;
        let frame_idx = bytes::le_u64(buf, 8, "frame index")?;
        let integrity = bytes::le_u64(buf, 16, "frame integrity digest")?;
        let mask_encoding = bytes::byte_at(buf, 24, "mask encoding byte")?;

        for (dim, what) in [(width, "frame width"), (height, "frame height")] {
            if dim > MAX_DIMENSION {
                return Err(WireError::LimitExceeded {
                    what,
                    value: u64::from(dim),
                    limit: u64::from(MAX_DIMENSION),
                });
            }
        }
        let pixels = u64::from(width) * u64::from(height);
        if pixels > MAX_PIXELS {
            return Err(WireError::LimitExceeded {
                what: "frame pixel count",
                value: pixels,
                limit: MAX_PIXELS,
            });
        }
        let pixels = bytes::usize_from(pixels, "frame pixel count")?;

        let mut pos = FRAME_HEADER_LEN;
        let mask_len = read_varint(buf, &mut pos, "mask length")?;
        let available = (buf.len() - pos) as u64;
        if mask_len > available {
            return Err(WireError::Truncated {
                what: "frame mask",
                needed: mask_len,
                available,
            });
        }
        let mask_len = bytes::usize_from(mask_len, "mask length")?;
        let mask_bytes = bytes::slice_at(buf, pos, mask_len, "frame mask")?;
        pos += mask_len;
        let expected_mask = pixels.div_ceil(4);
        let mask: Cow<'a, [u8]> = match mask_encoding {
            MASK_ENC_RAW => {
                if mask_len != expected_mask {
                    return Err(WireError::CorruptFrame {
                        reason: format!(
                            "raw mask is {mask_len} bytes, {width}x{height} needs {expected_mask}"
                        ),
                    });
                }
                Cow::Borrowed(mask_bytes)
            }
            MASK_ENC_RUNS => Cow::Owned(rle::inflate(mask_bytes, pixels)?),
            other => {
                return Err(WireError::CorruptFrame {
                    reason: format!("unknown mask encoding {other}"),
                })
            }
        };

        let payload_len = read_varint(buf, &mut pos, "payload length")?;
        if payload_len > MAX_PIXELS {
            return Err(WireError::LimitExceeded {
                what: "payload length",
                value: payload_len,
                limit: MAX_PIXELS,
            });
        }
        let available = (buf.len() - pos) as u64;
        if payload_len > available {
            return Err(WireError::Truncated {
                what: "frame payload",
                needed: payload_len,
                available,
            });
        }
        let row_offsets = derive_row_offsets(&mask, width, height)?;
        let derived = row_offsets.last().copied().map_or(0, u64::from);
        if derived != payload_len {
            return Err(WireError::CorruptFrame {
                reason: format!(
                    "mask holds {derived} regional pixels but the payload is {payload_len} bytes"
                ),
            });
        }
        let payload_len = bytes::usize_from(payload_len, "payload length")?;
        let payload = bytes::slice_at(buf, pos, payload_len, "frame payload")?;
        pos += payload_len;

        Ok((
            EncodedFrameView { width, height, frame_idx, integrity, mask, row_offsets, payload },
            pos,
        ))
    }

    /// Parses a buffer that must hold exactly one frame blob (the shape
    /// of a container frame chunk's payload).
    ///
    /// # Errors
    ///
    /// Everything [`EncodedFrameView::parse_prefix`] raises, plus
    /// [`WireError::CorruptFrame`] when bytes trail the blob.
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        let (view, consumed) = Self::parse_prefix(buf)?;
        if consumed != buf.len() {
            return Err(WireError::CorruptFrame {
                reason: format!("{} trailing bytes after frame blob", buf.len() - consumed),
            });
        }
        Ok(view)
    }

    /// Original frame width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Original frame height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Position of the frame in its capture sequence.
    pub fn frame_idx(&self) -> u64 {
        self.frame_idx
    }

    /// The frame digest carried from the original [`EncodedFrame`].
    pub fn integrity(&self) -> u64 {
        self.integrity
    }

    /// The packed 2-bit mask bytes (borrowed from the input when the
    /// blob stored them raw).
    pub fn mask_bytes(&self) -> &[u8] {
        &self.mask
    }

    /// True when the mask bytes are a zero-copy borrow of the input
    /// slice (raw mask encoding) rather than inflated mask runs.
    pub fn mask_is_borrowed(&self) -> bool {
        matches!(self.mask, Cow::Borrowed(_))
    }

    /// The cumulative row-offset table (length `height + 1`), derived
    /// from the mask at parse time.
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// The packed regional payload, borrowed from the input slice.
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// The 2-bit status of pixel `(x, y)`, or `None` out of bounds.
    pub fn status_bits(&self, x: u32, y: u32) -> Option<u8> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let i =
            usize::try_from(u64::from(y) * u64::from(self.width) + u64::from(x)).ok()?;
        Some((self.mask.get(i / 4)? >> ((i % 4) * 2)) & 0b11)
    }

    /// Promotes the view to an owned [`EncodedFrame`], copying the
    /// mask and payload. The digest travels verbatim, so the result
    /// compares equal to the frame originally serialized — and
    /// [`EncodedFrame::validate`] still detects content corruption
    /// that slipped past the structural parse.
    pub fn to_frame(&self) -> EncodedFrame {
        self.clone().into_frame()
    }

    /// [`EncodedFrameView::to_frame`] consuming the view: an inflated
    /// (run-coded) mask and the derived row-offset table move into the
    /// frame; only a borrowed raw mask and the payload are copied.
    fn into_frame(self) -> EncodedFrame {
        let mask = EncMask::from_raw_bytes(self.width, self.height, self.mask.into_owned())
            // rpr-check: allow(panic-surface): parse_prefix checked the mask is exactly width*height 2-bit entries, so from_raw_bytes cannot fail on any view this crate constructs
            .expect("parse sized the mask to width x height");
        let metadata =
            FrameMetadata { row_offsets: RowOffsets::from_raw_offsets(self.row_offsets), mask };
        EncodedFrame::from_raw_parts(
            self.width,
            self.height,
            self.frame_idx,
            self.payload.to_vec(),
            metadata,
            self.integrity,
        )
    }

    /// [`EncodedFrameView::to_frame`] promoting into buffers recycled
    /// from `pool`, so a long-lived stream decoder reaches a
    /// zero-allocation steady state: the mask, offset table, and
    /// payload copies all reuse returned capacity.
    pub fn to_frame_in(&self, pool: &rpr_core::BufferPool) -> EncodedFrame {
        let mut mask_vec = pool.get_vec();
        mask_vec.extend_from_slice(&self.mask);
        let mask = EncMask::from_raw_bytes(self.width, self.height, mask_vec)
            // rpr-check: allow(panic-surface): parse_prefix checked the mask is exactly width*height 2-bit entries, so from_raw_bytes cannot fail on any view this crate constructs
            .expect("parse sized the mask to width x height");
        let mut offsets = pool.get_words();
        offsets.extend_from_slice(&self.row_offsets);
        let mut payload = pool.get_shared();
        std::sync::Arc::make_mut(&mut payload).extend_from_slice(self.payload);
        let metadata =
            FrameMetadata { row_offsets: RowOffsets::from_raw_offsets(offsets), mask };
        EncodedFrame::from_shared_parts(
            self.width,
            self.height,
            self.frame_idx,
            payload,
            metadata,
            self.integrity,
        )
    }

    /// [`EncodedFrameView::to_frame`] plus one full
    /// [`EncodedFrame::validate`] pass. The frame comes back marked
    /// validated ([`EncodedFrame::validated`]), so later boundaries —
    /// the decoder's `try_decode*`, a re-encode through
    /// [`encode_frame`] — do not check it again.
    ///
    /// # Errors
    ///
    /// [`WireError::CorruptFrame`] wrapping the validation failure.
    pub fn to_validated_frame(&self) -> Result<EncodedFrame> {
        self.clone().into_validated_frame()
    }

    /// [`EncodedFrameView::to_validated_frame`] consuming the view, so
    /// the inflated mask and the offset table move into the frame
    /// instead of being copied.
    ///
    /// # Errors
    ///
    /// [`WireError::CorruptFrame`] wrapping the validation failure.
    pub fn into_validated_frame(self) -> Result<EncodedFrame> {
        validated(self.into_frame())
    }

    /// [`EncodedFrameView::to_frame_in`] plus one full
    /// [`EncodedFrame::validate`] pass; marked validated like
    /// [`EncodedFrameView::to_validated_frame`].
    ///
    /// # Errors
    ///
    /// [`WireError::CorruptFrame`] wrapping the validation failure.
    pub fn to_validated_frame_in(&self, pool: &rpr_core::BufferPool) -> Result<EncodedFrame> {
        validated(self.to_frame_in(pool))
    }
}

/// The cumulative row-offset table a `width x height` mask implies:
/// entry `y + 1` adds row `y`'s `R` count to entry `y`, starting at 0
/// (the only table [`EncodedFrame::validate`] accepts).
fn derive_row_offsets(mask: &[u8], width: u32, height: u32) -> Result<Vec<u32>> {
    let width = bytes::usize_from(u64::from(width), "frame width")?;
    let rows = bytes::usize_from(u64::from(height), "frame height")?;
    let mut offsets = Vec::with_capacity(rows + 1);
    let mut total = 0u64;
    offsets.push(0);
    for y in 0..rows {
        total += count_regional(mask, y * width, width);
        // At most width * height <= MAX_PIXELS, so it fits.
        offsets.push(u32::try_from(total).map_err(|_| WireError::CorruptFrame {
            reason: format!("row offset {total} overflows u32"),
        })?);
    }
    Ok(offsets)
}

/// Validates a promoted frame, mapping the failure to a wire error.
fn validated(frame: EncodedFrame) -> Result<EncodedFrame> {
    frame.validated().map_err(|e| WireError::CorruptFrame { reason: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::PixelStatus;

    fn sample_frame(frame_idx: u64) -> EncodedFrame {
        let mut mask = EncMask::new(24, 10);
        let mut payload = Vec::new();
        for y in 3..8 {
            for x in 5..17 {
                if (x + y) % 3 != 0 {
                    mask.set(x, y, PixelStatus::Regional);
                    payload.push((x * 7 + y * 13) as u8);
                } else {
                    mask.set(x, y, PixelStatus::Strided);
                }
            }
        }
        let meta = FrameMetadata::from_mask(mask);
        EncodedFrame::new(24, 10, frame_idx, payload, meta)
    }

    fn encode(frame: &EncodedFrame, codec: MaskCodec) -> (Vec<u8>, FrameEncodeStats) {
        let mut buf = Vec::new();
        let stats = encode_frame(frame, codec, &mut buf).unwrap();
        assert_eq!(stats.encoded_bytes, buf.len());
        (buf, stats)
    }

    #[test]
    fn roundtrip_auto_is_byte_identical() {
        let frame = sample_frame(42);
        let (buf, stats) = encode(&frame, MaskCodec::Auto);
        assert!(stats.mask_runs, "runny sample mask should pick runs");
        let view = EncodedFrameView::parse(&buf).unwrap();
        assert_eq!(view.frame_idx(), 42);
        let back = view.to_validated_frame().unwrap();
        assert_eq!(back, frame);
        assert!(back.is_validated(), "promotion carries the proof");
        assert!(!view.to_frame().is_validated(), "plain promotion does not");
    }

    #[test]
    fn roundtrip_raw_is_byte_identical_and_zero_copy() {
        let frame = sample_frame(7);
        let (buf, stats) = encode(&frame, MaskCodec::Raw);
        assert!(!stats.mask_runs);
        assert_eq!(stats.mask_bytes, stats.raw_mask_bytes);
        let view = EncodedFrameView::parse(&buf).unwrap();
        assert!(view.mask_is_borrowed(), "raw mask must be a zero-copy borrow");
        // The payload always borrows: its bytes live inside `buf`.
        let buf_range = buf.as_ptr() as usize..buf.as_ptr() as usize + buf.len();
        assert!(buf_range.contains(&(view.payload().as_ptr() as usize)));
        assert_eq!(view.to_validated_frame().unwrap(), frame);
    }

    #[test]
    fn run_coded_view_inflates_mask() {
        let frame = sample_frame(1);
        let (buf, _) = encode(&frame, MaskCodec::Rle);
        let view = EncodedFrameView::parse(&buf).unwrap();
        assert!(!view.mask_is_borrowed());
        assert_eq!(view.mask_bytes(), frame.metadata().mask.as_bytes());
    }

    #[test]
    fn view_accessors_match_frame() {
        let frame = sample_frame(3);
        let (buf, _) = encode(&frame, MaskCodec::Auto);
        let view = EncodedFrameView::parse(&buf).unwrap();
        assert_eq!(view.width(), frame.width());
        assert_eq!(view.height(), frame.height());
        assert_eq!(view.integrity(), frame.integrity());
        assert_eq!(view.payload(), frame.pixels());
        assert_eq!(view.row_offsets(), frame.metadata().row_offsets.as_slice());
        for y in 0..frame.height() {
            for x in 0..frame.width() {
                assert_eq!(
                    view.status_bits(x, y).unwrap(),
                    frame.metadata().mask.get(x, y).bits()
                );
            }
        }
        assert_eq!(view.status_bits(frame.width(), 0), None);
    }

    #[test]
    fn pooled_promotion_matches_plain_promotion() {
        let frame = sample_frame(8);
        let pool = rpr_core::BufferPool::new();
        for codec in [MaskCodec::Raw, MaskCodec::Rle] {
            let (buf, _) = encode(&frame, codec);
            let view = EncodedFrameView::parse(&buf).unwrap();
            let pooled = view.to_validated_frame_in(&pool).unwrap();
            assert!(pooled.is_validated());
            assert!(!view.to_frame_in(&pool).is_validated());
            assert_eq!(pooled, view.to_validated_frame().unwrap());
            assert_eq!(pooled, frame);
            pooled.recycle(&pool);
        }
        assert!(pool.stats().puts > 0);
    }

    #[test]
    fn consuming_promotion_moves_buffers_and_matches_copying_promotion() {
        let frame = sample_frame(5);
        for codec in [MaskCodec::Raw, MaskCodec::Rle] {
            let (buf, _) = encode(&frame, codec);
            let view = EncodedFrameView::parse(&buf).unwrap();
            let copied = view.to_validated_frame().unwrap();
            let (mask_ptr, offsets_ptr) = (view.mask_bytes().as_ptr(), view.row_offsets().as_ptr());
            let borrowed = view.mask_is_borrowed();
            let moved = view.into_validated_frame().unwrap();
            assert_eq!(moved, copied, "{codec:?}");
            assert_eq!(moved, frame, "{codec:?}");
            assert!(moved.is_validated(), "{codec:?}: promotion carries the proof");
            assert_eq!(moved.metadata().row_offsets.as_slice().as_ptr(), offsets_ptr);
            // An inflated mask moves; a borrowed one is copied out.
            assert_eq!(moved.metadata().mask.as_bytes().as_ptr() == mask_ptr, !borrowed);

            // Content corruption past the structural parse (the payload
            // is the blob's last field) is still refused.
            let mut bad = buf.clone();
            *bad.last_mut().unwrap() ^= 0xFF;
            let view = EncodedFrameView::parse(&bad).unwrap();
            assert!(matches!(view.into_validated_frame(), Err(WireError::CorruptFrame { .. })));
        }
    }

    #[test]
    fn invalid_frames_are_refused_by_the_writer() {
        let frame = sample_frame(0);
        let mut pixels = frame.pixels().to_vec();
        pixels[0] ^= 0xFF;
        let bad = EncodedFrame::from_raw_parts(
            frame.width(),
            frame.height(),
            frame.frame_idx(),
            pixels,
            frame.metadata().clone(),
            frame.integrity(),
        );
        let mut buf = Vec::new();
        assert!(matches!(
            encode_frame(&bad, MaskCodec::Auto, &mut buf),
            Err(WireError::InvalidFrame { .. })
        ));
        assert!(buf.is_empty(), "nothing may be written for refused frames");
    }

    #[test]
    fn truncations_at_every_length_are_typed_errors() {
        let frame = sample_frame(9);
        let (buf, _) = encode(&frame, MaskCodec::Auto);
        for len in 0..buf.len() {
            let err = EncodedFrameView::parse(&buf[..len])
                .expect_err("every strict prefix must fail");
            // Any typed error is acceptable; panics are not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn oversized_dimensions_are_rejected_before_allocating() {
        let mut buf = vec![0u8; FRAME_HEADER_LEN + 8];
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            EncodedFrameView::parse_prefix(&buf),
            Err(WireError::LimitExceeded { what: "frame width", .. })
        ));
        // Dimensions inside the cap whose product overflows it.
        buf[0..4].copy_from_slice(&MAX_DIMENSION.to_le_bytes());
        buf[4..8].copy_from_slice(&MAX_DIMENSION.to_le_bytes());
        assert!(matches!(
            EncodedFrameView::parse_prefix(&buf),
            Err(WireError::LimitExceeded { what: "frame pixel count", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected_by_exact_parse() {
        let frame = sample_frame(2);
        let (mut buf, _) = encode(&frame, MaskCodec::Auto);
        buf.push(0);
        assert!(matches!(
            EncodedFrameView::parse(&buf),
            Err(WireError::CorruptFrame { .. })
        ));
        // parse_prefix still succeeds and reports the true length.
        let (view, consumed) = EncodedFrameView::parse_prefix(&buf).unwrap();
        assert_eq!(consumed, buf.len() - 1);
        assert_eq!(view.to_validated_frame().unwrap(), frame);
    }

    #[test]
    fn empty_frame_roundtrips() {
        let mask = EncMask::new(6, 0);
        let meta = FrameMetadata::from_mask(mask);
        let frame = EncodedFrame::new(6, 0, 11, Vec::new(), meta);
        let (buf, _) = encode(&frame, MaskCodec::Auto);
        let back = EncodedFrameView::parse(&buf).unwrap().to_validated_frame().unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn blob_is_header_mask_and_payload_with_no_offset_table() {
        let frame = sample_frame(4);
        for codec in [MaskCodec::Raw, MaskCodec::Rle] {
            let (buf, stats) = encode(&frame, codec);
            let mut expect = FRAME_HEADER_LEN;
            expect += crate::varint::varint_len(stats.mask_bytes as u64) + stats.mask_bytes;
            expect += crate::varint::varint_len(stats.payload_bytes as u64) + stats.payload_bytes;
            assert_eq!(buf.len(), expect, "{codec:?}");
            let view = EncodedFrameView::parse(&buf).unwrap();
            assert_eq!(view.row_offsets(), frame.metadata().row_offsets.as_slice());
        }
    }

    /// A raw-mask blob of the 4x2 frame with `R` at (1, 0) and (2, 1)
    /// and the given payload.
    fn raw_blob(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(MASK_ENC_RAW);
        write_varint(&mut buf, 2); // mask_len
        buf.extend_from_slice(&[0b0000_1100, 0b0011_0000]);
        write_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn offsets_are_derived_from_the_mask() {
        let blob = raw_blob(&[7, 9]);
        let view = EncodedFrameView::parse(&blob).unwrap();
        assert_eq!(view.row_offsets(), &[0, 1, 2]);
    }

    #[test]
    fn payload_length_other_than_the_mask_count_is_a_typed_error() {
        for payload in [&[][..], &[7], &[7, 9, 11]] {
            let err = EncodedFrameView::parse_prefix(&raw_blob(payload)).expect_err("must refuse");
            assert!(matches!(err, WireError::CorruptFrame { .. }), "{err:?}");
            assert!(err.to_string().contains("regional pixels"), "{err}");
        }
    }
}
