use crate::{EncMask, PixelStatus};
use serde::{Deserialize, Serialize};

/// The per-row offset table (paper §3.3): entry `y` counts the encoded
/// (`R`) pixels in all rows strictly above `y`, so the decoder can jump
/// to a row's span of the packed encoded frame in O(1).
///
/// A final entry equal to the total encoded pixel count is appended so
/// `row_span` needs no special casing for the last row.
///
/// # Example
///
/// ```
/// use rpr_core::RowOffsets;
///
/// // Rows containing 3, 0, and 2 encoded pixels.
/// let offsets = RowOffsets::from_row_counts(&[3, 0, 2]);
/// assert_eq!(offsets.offset_of_row(0), 0);
/// assert_eq!(offsets.offset_of_row(2), 3);
/// assert_eq!(offsets.row_span(2), 3..5);
/// assert_eq!(offsets.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowOffsets {
    /// `offsets[y]` = encoded pixels before row `y`; length = rows + 1.
    offsets: Vec<u32>,
}

impl RowOffsets {
    /// Builds the table from the number of encoded pixels in each row.
    pub fn from_row_counts(counts: &[u32]) -> Self {
        Self::from_row_counts_in(counts, Vec::new())
    }

    /// [`RowOffsets::from_row_counts`] into a recycled buffer (cleared
    /// first), so a [`crate::BufferPool`] can recycle the allocation.
    pub fn from_row_counts_in(counts: &[u32], mut offsets: Vec<u32>) -> Self {
        offsets.clear();
        offsets.reserve(counts.len() + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in counts {
            acc += c;
            offsets.push(acc);
        }
        RowOffsets { offsets }
    }

    /// Number of rows covered.
    pub fn rows(&self) -> u32 {
        u32::try_from(self.offsets.len().saturating_sub(1)).unwrap_or(u32::MAX)
    }

    /// Encoded pixels before row `y`. Rows past the table
    /// (`y > rows()`) hold nothing, so they read as [`RowOffsets::total`].
    #[inline]
    pub fn offset_of_row(&self, y: u32) -> u32 {
        usize::try_from(y)
            .ok()
            .and_then(|y| self.offsets.get(y))
            .copied()
            .unwrap_or_else(|| self.total())
    }

    /// The encoded-frame index range holding row `y`'s pixels; empty
    /// at the table's end for rows past it (`y >= rows()`).
    #[inline]
    pub fn row_span(&self, y: u32) -> std::ops::Range<u32> {
        self.offset_of_row(y)..self.offset_of_row(y.saturating_add(1))
    }

    /// Total number of encoded pixels.
    pub fn total(&self) -> u32 {
        // Every constructor stores rows + 1 >= 1 entries.
        self.offsets.last().copied().unwrap_or(0)
    }

    /// The raw cumulative offset entries (length = rows + 1, first
    /// entry 0 for tables built by [`RowOffsets::from_row_counts`]).
    pub fn as_slice(&self) -> &[u32] {
        &self.offsets
    }

    /// Reassembles a table from raw cumulative entries — the shape a
    /// corrupted or tampered table read back from DRAM can have. No
    /// monotonicity or leading-zero invariant is enforced (that is
    /// [`crate::EncodedFrame::validate`]'s job); an empty vector is
    /// normalized to the canonical empty table `[0]`.
    pub fn from_raw_offsets(mut offsets: Vec<u32>) -> Self {
        if offsets.is_empty() {
            offsets.push(0);
        }
        RowOffsets { offsets }
    }

    /// Dismantles the table into its raw entry vector, so a
    /// [`crate::BufferPool`] can recycle the allocation.
    pub fn into_raw_offsets(self) -> Vec<u32> {
        self.offsets
    }

    /// True when the cumulative entries never decrease — the invariant
    /// that keeps every [`RowOffsets::row_span`] a forward range.
    pub fn is_monotonic(&self) -> bool {
        self.offsets.is_sorted()
    }

    /// Byte size of the table in DRAM (4 bytes per row, matching the
    /// paper's metadata accounting; the sentinel entry is an
    /// implementation convenience and is not charged).
    pub fn size_bytes(&self) -> usize {
        (self.offsets.len() - 1) * std::mem::size_of::<u32>()
    }

    /// True when every row is empty.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// The complete decoder-facing metadata for one encoded frame: the
/// per-row offsets and the [`EncMask`] (paper §3.3). Stored alongside
/// the encoded framebuffer in DRAM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameMetadata {
    /// Per-row offsets into the packed encoded frame.
    pub row_offsets: RowOffsets,
    /// Two-bit sampling status per original pixel.
    pub mask: EncMask,
}

impl FrameMetadata {
    /// Builds metadata from a finished mask by counting `R` pixels per
    /// row. Primarily for tests; the encoder produces both in one pass.
    pub fn from_mask(mask: EncMask) -> Self {
        let counts: Vec<u32> = (0..mask.height())
            .map(|y| {
                let regional = mask.row_iter(y).filter(|&s| s == PixelStatus::Regional).count();
                u32::try_from(regional).unwrap_or(u32::MAX)
            })
            .collect();
        FrameMetadata { row_offsets: RowOffsets::from_row_counts(&counts), mask }
    }

    /// Total metadata footprint in bytes (mask + offset table), the
    /// overhead the paper quotes as ~8 % of a 1080p frame.
    pub fn size_bytes(&self) -> usize {
        self.mask.size_bytes() + self.row_offsets.size_bytes()
    }

    /// Consistency check: the offset table's totals must match the
    /// mask's per-row `R` counts. The encoder maintains this invariant;
    /// property tests assert it. Counts a u64 mask word at a time
    /// ([`crate::kernels::count_regional`]).
    pub fn is_consistent(&self) -> bool {
        let width = u64::from(self.mask.width());
        let packed = self.mask.as_bytes();
        self.rows_match(|y| {
            let start = u64::from(y) * width;
            match (usize::try_from(start), usize::try_from(width)) {
                (Ok(start), Ok(len)) => Some(crate::kernels::count_regional(packed, start, len)),
                _ => None,
            }
        })
    }

    /// Per-pixel reference implementation of
    /// [`FrameMetadata::is_consistent`], kept for the
    /// `kernel_equivalence` differential tests.
    pub fn is_consistent_scalar(&self) -> bool {
        self.rows_match(|y| {
            Some(self.mask.row_iter(y).filter(|&s| s == PixelStatus::Regional).count() as u64)
        })
    }

    /// True when the table covers the mask's rows and every row's span
    /// length equals `count(y)` (a `None` count never matches).
    fn rows_match(&self, count: impl Fn(u32) -> Option<u64>) -> bool {
        let offsets = self.row_offsets.as_slice();
        if self.row_offsets.rows() != self.mask.height() {
            return false;
        }
        (0..self.mask.height()).zip(offsets.windows(2)).all(|(y, span)| match span {
            [lo, hi] => count(y) == Some(u64::from(hi.saturating_sub(*lo))),
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_accumulate() {
        let o = RowOffsets::from_row_counts(&[2, 0, 5, 1]);
        assert_eq!(o.rows(), 4);
        assert_eq!(o.offset_of_row(0), 0);
        assert_eq!(o.offset_of_row(1), 2);
        assert_eq!(o.offset_of_row(3), 7);
        assert_eq!(o.total(), 8);
    }

    #[test]
    fn row_span_covers_row_pixels() {
        let o = RowOffsets::from_row_counts(&[2, 0, 5]);
        assert_eq!(o.row_span(0), 0..2);
        assert_eq!(o.row_span(1), 2..2);
        assert_eq!(o.row_span(2), 2..7);
    }

    #[test]
    fn empty_offsets() {
        let o = RowOffsets::from_row_counts(&[]);
        assert_eq!(o.rows(), 0);
        assert!(o.is_empty());
        assert_eq!(o.size_bytes(), 0);
    }

    #[test]
    fn size_bytes_is_four_per_row() {
        let o = RowOffsets::from_row_counts(&[1; 1080]);
        assert_eq!(o.size_bytes(), 4 * 1080);
    }

    #[test]
    fn metadata_from_mask_is_consistent() {
        let mut mask = EncMask::new(6, 3);
        mask.set(0, 0, PixelStatus::Regional);
        mask.set(5, 0, PixelStatus::Regional);
        mask.set(2, 2, PixelStatus::Regional);
        mask.set(3, 2, PixelStatus::Strided);
        let meta = FrameMetadata::from_mask(mask);
        assert!(meta.is_consistent());
        assert_eq!(meta.row_offsets.total(), 3);
        assert_eq!(meta.row_offsets.row_span(0), 0..2);
        assert_eq!(meta.row_offsets.row_span(1), 2..2);
    }

    #[test]
    fn inconsistency_detected() {
        let mut mask = EncMask::new(4, 2);
        mask.set(0, 0, PixelStatus::Regional);
        let bad = FrameMetadata {
            row_offsets: RowOffsets::from_row_counts(&[0, 0]),
            mask,
        };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn metadata_overhead_at_1080p_is_about_8_percent_of_rgb() {
        let meta = FrameMetadata::from_mask(EncMask::new(1920, 1080));
        let rgb_frame_bytes = 1920 * 1080 * 3;
        let overhead = meta.size_bytes() as f64 / rgb_frame_bytes as f64;
        assert!(overhead > 0.07 && overhead < 0.09, "overhead {overhead}");
    }
}
