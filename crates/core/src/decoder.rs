//! The rhythmic pixel decoder (paper §4.2).
//!
//! The decoder fulfills pixel requests in ordinary decoded-frame
//! addressing so unmodified vision software never notices the encoded
//! representation. Requests pass through the [`PixelMmu`] for address
//! translation and are served by the FIFO sampling unit, which
//! dequeues regional pixels, interpolates strided pixels, fetches
//! temporally-skipped pixels from the recent-frame history, and fills
//! black elsewhere.
//!
//! Two reconstruction behaviours are provided:
//!
//! * [`ReconstructionMode::BlockNearest`] — the software decoder's
//!   nearest-anchor upsampling (each strided pixel takes the value of
//!   the stride-grid sample governing its block);
//! * [`ReconstructionMode::FifoReplicate`] — the hardware-faithful FIFO
//!   behaviour (§4.2.2): a strided pixel re-samples whatever value the
//!   response stream produced last.

use crate::kernels;
use crate::{
    BufferPool, EncodedFrame, PixelMmu, PixelRequest, PixelStatus, Result, SubRequestKind,
};
use rpr_frame::{GrayFrame, Plane};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// In-frame `u32` coordinate/offset to `usize`, in one place so the
/// cast is auditable.
#[inline]
fn us(v: u32) -> usize {
    v as usize // rpr-check: allow(truncating-cast): u32 -> usize is lossless on the 32/64-bit targets this crate supports
}

/// Run length (bounded by the pixel count) to a `u64` stats increment.
#[inline]
fn ul(v: usize) -> u64 {
    v as u64 // rpr-check: allow(truncating-cast): usize -> u64 is lossless on the 32/64-bit targets this crate supports
}

/// In-row `usize` position back to the `u32` coordinate space.
#[inline]
fn ux(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Number of recent encoded frames whose metadata the decoder's
/// scratchpad holds (paper §4.2.1: "the four most recent encoded
/// frames").
pub const HISTORY_DEPTH: usize = 4;

/// Ring buffer of the most recent encoded frames, newest first.
#[derive(Debug, Clone, Default)]
pub struct FrameHistory {
    frames: VecDeque<EncodedFrame>,
    /// When set, evicted frames are dismantled into this pool
    /// ([`EncodedFrame::recycle`]) instead of dropped, closing the
    /// encoder's buffer-reuse loop.
    pool: Option<BufferPool>,
}

impl FrameHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        FrameHistory { frames: VecDeque::with_capacity(HISTORY_DEPTH), pool: None }
    }

    /// Creates an empty history that recycles evicted frames' buffers
    /// into `pool`.
    pub fn with_pool(pool: BufferPool) -> Self {
        FrameHistory { frames: VecDeque::with_capacity(HISTORY_DEPTH), pool: Some(pool) }
    }

    /// Pushes a newly encoded frame, evicting the oldest beyond
    /// [`HISTORY_DEPTH`].
    pub fn push(&mut self, frame: EncodedFrame) {
        self.frames.push_front(frame);
        while self.frames.len() > HISTORY_DEPTH {
            if let (Some(old), Some(pool)) = (self.frames.pop_back(), &self.pool) {
                old.recycle(pool);
            }
        }
    }

    /// The most recent frame.
    pub fn current(&self) -> Option<&EncodedFrame> {
        self.frames.front()
    }

    /// The frame `frames_back` frames ago (0 = current).
    pub fn get(&self, frames_back: usize) -> Option<&EncodedFrame> {
        self.frames.get(frames_back)
    }

    /// Number of frames held (at most [`HISTORY_DEPTH`]).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames have been pushed.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Drops all held frames.
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Sum of payload + metadata bytes currently resident — the
    /// framebuffer footprint the memory simulator charges.
    pub fn resident_bytes(&self) -> usize {
        self.frames.iter().map(EncodedFrame::total_bytes).sum()
    }
}

/// How strided (`St`) pixels are reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReconstructionMode {
    /// Nearest stride-anchor upsampling (software decoder default).
    #[default]
    BlockNearest,
    /// Hardware-faithful FIFO behaviour: repeat the previous value
    /// emitted in the response stream.
    FifoReplicate,
}

/// Counters describing how decoded pixels were produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoderStats {
    /// Frames fully decoded.
    pub frames: u64,
    /// Pixels dequeued directly from the current encoded frame.
    pub regional: u64,
    /// Pixels reconstructed by interpolation.
    pub interpolated: u64,
    /// Pixels served from the frame history.
    pub from_history: u64,
    /// Pixels filled black.
    pub black: u64,
}

/// The reference software decoder (the paper also ships one, §5.1): it
/// reconstructs whole frames sequentially and keeps the last decoded
/// frame so temporally skipped pixels resolve to their most recent
/// observed value.
///
/// # Example
///
/// ```
/// use rpr_core::{RegionLabel, RegionList, RhythmicEncoder, SoftwareDecoder};
/// use rpr_frame::Plane;
///
/// let frame = Plane::from_fn(16, 16, |x, y| (x + y) as u8);
/// let regions = RegionList::new(16, 16, vec![RegionLabel::new(0, 0, 8, 8, 1, 1)])?;
/// let mut enc = RhythmicEncoder::new(16, 16);
/// let mut dec = SoftwareDecoder::new(16, 16);
/// let decoded = dec.decode(&enc.encode(&frame, 0, &regions));
/// assert_eq!(decoded.get(3, 3), frame.get(3, 3));
/// # Ok::<(), rpr_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SoftwareDecoder {
    width: u32,
    height: u32,
    mode: ReconstructionMode,
    history: FrameHistory,
    last_decoded: Option<GrayFrame>,
    stats: DecoderStats,
    /// Buffer source for output planes; evicted history frames are
    /// dismantled back into it. Share with the encoder via
    /// [`Self::with_pool`] to close the zero-alloc loop.
    pool: BufferPool,
    /// Persistent chamfer-distance scratch rows (one frame's worth of
    /// state, reset per decode) so steady-state decoding allocates
    /// nothing.
    prev_dist: Vec<u32>,
    cur_dist: Vec<u32>,
}

impl SoftwareDecoder {
    /// Creates a decoder for `width x height` frames using
    /// [`ReconstructionMode::BlockNearest`].
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_mode(width, height, ReconstructionMode::BlockNearest)
    }

    /// Creates a decoder with an explicit reconstruction mode.
    pub fn with_mode(width: u32, height: u32, mode: ReconstructionMode) -> Self {
        Self::with_pool(width, height, mode, BufferPool::new())
    }

    /// Creates a decoder drawing output planes from `pool` and
    /// recycling evicted history frames into it. Hand the encoder the
    /// same pool ([`crate::RhythmicEncoder::with_pool`]) and return
    /// retired output planes via [`Self::recycle_output`], and the
    /// steady-state encode→decode loop performs no heap allocation.
    pub fn with_pool(width: u32, height: u32, mode: ReconstructionMode, pool: BufferPool) -> Self {
        SoftwareDecoder {
            width,
            height,
            mode,
            history: FrameHistory::with_pool(pool.clone()),
            last_decoded: None,
            stats: DecoderStats::default(),
            pool,
            prev_dist: Vec::new(),
            cur_dist: Vec::new(),
        }
    }

    /// The pool this decoder draws output planes from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Returns a retired output plane's buffer to the pool so the next
    /// decode reuses it.
    pub fn recycle_output(&self, frame: GrayFrame) {
        self.pool.put_vec(frame.into_vec());
    }

    /// Frame width the decoder was built for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height the decoder was built for.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Accumulated decode statistics.
    pub fn stats(&self) -> &DecoderStats {
        &self.stats
    }

    /// The encoded-frame history the decoder currently holds.
    pub fn history(&self) -> &FrameHistory {
        &self.history
    }

    /// The most recently decoded full frame, if any.
    pub fn last_decoded(&self) -> Option<&GrayFrame> {
        self.last_decoded.as_ref()
    }

    /// Forgets all history (e.g. on a scene cut).
    pub fn reset(&mut self) {
        self.history.clear();
        self.last_decoded = None;
    }

    /// Validates an encoded frame before decoding it — the defensive
    /// entry point for frames read back from untrusted storage. A frame
    /// that carries the validated marker ([`EncodedFrame::validated`])
    /// skips the full check.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::GeometryMismatch`] for the wrong
    /// frame size or [`crate::CoreError::CorruptEncodedFrame`] when the
    /// payload and metadata disagree; the decoder state is untouched on
    /// error.
    pub fn try_decode(&mut self, encoded: &EncodedFrame) -> Result<GrayFrame> {
        self.check_geometry(encoded)?;
        encoded.validate()?;
        Ok(self.decode(encoded))
    }

    /// [`Self::try_decode`] taking the frame by value, so a valid frame
    /// moves into the history without the clone `try_decode` makes.
    /// Identical output, stats, and errors; a rejected frame is
    /// dropped.
    ///
    /// # Errors
    ///
    /// As [`Self::try_decode`].
    pub fn try_decode_owned(&mut self, encoded: EncodedFrame) -> Result<GrayFrame> {
        self.check_geometry(&encoded)?;
        Ok(self.decode_owned(encoded.validated()?))
    }

    fn check_geometry(&self, encoded: &EncodedFrame) -> Result<()> {
        if (encoded.width(), encoded.height()) != (self.width, self.height) {
            return Err(crate::CoreError::GeometryMismatch {
                expected: (self.width, self.height),
                actual: (encoded.width(), encoded.height()),
            });
        }
        Ok(())
    }

    /// Decodes a full frame, updating the history.
    ///
    /// # Panics
    ///
    /// Panics when the encoded frame's geometry does not match the
    /// decoder's.
    pub fn decode(&mut self, encoded: &EncodedFrame) -> GrayFrame {
        self.decode_owned(encoded.clone())
    }

    /// [`Self::decode`] taking the frame by value: the frame moves into
    /// the history without cloning its mask/payload/offsets, which is
    /// what keeps the pooled steady state allocation-free. Identical
    /// output, stats, and panic contract.
    ///
    /// # Panics
    ///
    /// Panics when the encoded frame's geometry does not match the
    /// decoder's.
    pub fn decode_owned(&mut self, encoded: EncodedFrame) -> GrayFrame {
        // rpr-check: allow(panic-surface): documented panic contract (see doc comment and the should_panic test); try_decode is the fallible entry for untrusted frames
        assert_eq!(
            (encoded.width(), encoded.height()),
            (self.width, self.height),
            "encoded frame geometry mismatch"
        );
        let _span = rpr_trace::span(rpr_trace::names::DECODE, "core")
            .with_frame(encoded.frame_idx());
        let out = match self.mode {
            ReconstructionMode::BlockNearest => self.decode_block_nearest(&encoded),
            ReconstructionMode::FifoReplicate => self.decode_fifo(&encoded),
        };
        self.history.push(encoded);
        // Refresh the retained copy in place (a memcpy, not an alloc)
        // when one exists; geometry is fixed, so lengths always match.
        match &mut self.last_decoded {
            Some(prev) => prev.as_mut_slice().copy_from_slice(out.as_slice()),
            None => self.last_decoded = Some(out.clone()),
        }
        self.stats.frames += 1;
        out
    }

    /// Nearest-anchor reconstruction: strided pixels take the value of
    /// the nearest already-reconstructed in-region pixel (left in the
    /// row, else directly above), which for stride grids is exactly the
    /// governing stride anchor.
    fn decode_block_nearest(&mut self, encoded: &EncodedFrame) -> GrayFrame {
        // Disjoint field borrows: the output buffer, distance scratch,
        // stats, and the previous decoded plane are all live at once.
        let SoftwareDecoder { width, height, last_decoded, stats, pool, prev_dist, cur_dist, .. } =
            self;
        let (width, height) = (*width, *height);
        let w = us(width);
        let meta = encoded.metadata();
        let mask_bytes = meta.mask.as_bytes();
        // Every pixel below is written by exactly one run, so the
        // recycled buffer's stale contents are never observable — the
        // poisoned-pool conformance sweep is what proves that.
        let mut out_vec = pool.get_scratch(w * us(height));
        let prev_plane: Option<&[u8]> = last_decoded.as_ref().map(|p| p.as_slice());
        // Distance (in chamfer steps) from each pixel of the previous row
        // to its data source; u32::MAX marks "no data".
        prev_dist.clear();
        prev_dist.resize(w, u32::MAX);
        cur_dist.clear();
        cur_dist.resize(w, u32::MAX);

        for y in 0..height {
            let span = meta.row_offsets.row_span(y);
            // A frame whose offsets overrun its payload decodes the
            // overrun as black instead of panicking; try_decode's
            // validation is what reports such frames as corrupt.
            let row_pixels =
                encoded.pixels().get(us(span.start)..us(span.end)).unwrap_or(&[]);
            let base = us(y) * w;
            // Split-borrow the plane: everything before this row is
            // final, so the previous row reads straight from the output
            // buffer (the old code copied it to a fresh Vec per row).
            let (done, rest) = out_vec.split_at_mut(base.min(w * us(height)));
            let Some(cur_row) = rest.get_mut(..w) else { continue };
            let prev_row: &[u8] =
                if y == 0 { &[] } else { done.get(base - w..).unwrap_or(&[]) };
            let prev_hist_row = prev_plane.and_then(|p| p.get(base..base + w));
            let mut next_r = 0usize;
            let mut last_r: Option<(u32, u8)> = None;
            let mut x = 0usize;

            kernels::for_each_run(mask_bytes, base, w, |status, run| {
                match PixelStatus::from_bits(status) {
                    PixelStatus::Regional => {
                        // Whole-run payload copy; overruns past the
                        // payload decode as black, as per-pixel
                        // `.get(..).unwrap_or(0)` did.
                        let avail = row_pixels.len().saturating_sub(next_r).min(run);
                        if let (Some(dst), Some(src)) = (
                            cur_row.get_mut(x..x + avail),
                            row_pixels.get(next_r..next_r + avail),
                        ) {
                            dst.copy_from_slice(src);
                        }
                        if let Some(pad) = cur_row.get_mut(x + avail..x + run) {
                            pad.fill(0);
                        }
                        if let Some(d) = cur_dist.get_mut(x..x + run) {
                            d.fill(0);
                        }
                        next_r += run;
                        stats.regional += ul(run);
                        let lx = x + run - 1;
                        last_r = Some((ux(lx), cur_row.get(lx).copied().unwrap_or(0)));
                    }
                    PixelStatus::Strided => {
                        stats.interpolated += ul(run);
                        for i in x..x + run {
                            let left = last_r.map(|(xr, v)| (ux(i) - xr, v));
                            let above = if y == 0 {
                                None
                            } else {
                                match (prev_dist.get(i).copied(), prev_row.get(i).copied()) {
                                    (Some(d), Some(v)) if d != u32::MAX => Some((d + 1, v)),
                                    _ => None,
                                }
                            };
                            let (value, dist) = match (left, above) {
                                (Some((dl, vl)), Some((da, va))) => {
                                    if dl <= da {
                                        (vl, dl)
                                    } else {
                                        (va, da)
                                    }
                                }
                                (Some((dl, vl)), None) => (vl, dl),
                                (None, Some((da, va))) => (va, da),
                                (None, None) => (0, u32::MAX),
                            };
                            if let Some(slot) = cur_row.get_mut(i) {
                                *slot = value;
                            }
                            if let Some(slot) = cur_dist.get_mut(i) {
                                *slot = dist;
                            }
                        }
                    }
                    PixelStatus::Skipped => {
                        if let Some(prow) = prev_hist_row {
                            stats.from_history += ul(run);
                            if let (Some(dst), Some(src)) =
                                (cur_row.get_mut(x..x + run), prow.get(x..x + run))
                            {
                                dst.copy_from_slice(src);
                            }
                            if let Some(d) = cur_dist.get_mut(x..x + run) {
                                d.fill(0);
                            }
                        } else {
                            stats.black += ul(run);
                            if let Some(dst) = cur_row.get_mut(x..x + run) {
                                dst.fill(0);
                            }
                            if let Some(d) = cur_dist.get_mut(x..x + run) {
                                d.fill(u32::MAX);
                            }
                        }
                    }
                    PixelStatus::NonRegional => {
                        stats.black += ul(run);
                        if let Some(dst) = cur_row.get_mut(x..x + run) {
                            dst.fill(0);
                        }
                        if let Some(d) = cur_dist.get_mut(x..x + run) {
                            d.fill(u32::MAX);
                        }
                    }
                }
                x += run;
            });
            std::mem::swap(prev_dist, cur_dist);
        }
        Plane::from_vec(width, height, out_vec)
            .unwrap_or_else(|_| Plane::new(width, height))
    }

    /// Hardware-faithful FIFO reconstruction: one whole-frame
    /// transaction; `St` repeats the last emitted value.
    fn decode_fifo(&mut self, encoded: &EncodedFrame) -> GrayFrame {
        let SoftwareDecoder { width, height, last_decoded, stats, pool, .. } = self;
        let (width, height) = (*width, *height);
        let w = us(width);
        let meta = encoded.metadata();
        let mask_bytes = meta.mask.as_bytes();
        let mut out_vec = pool.get_scratch(w * us(height));
        let prev_plane: Option<&[u8]> = last_decoded.as_ref().map(|p| p.as_slice());
        let mut last_emitted: u8 = 0;
        for y in 0..height {
            let span = meta.row_offsets.row_span(y);
            let row_pixels =
                encoded.pixels().get(us(span.start)..us(span.end)).unwrap_or(&[]);
            let base = us(y) * w;
            let Some(cur_row) = out_vec.get_mut(base..base + w) else { continue };
            let prev_hist_row = prev_plane.and_then(|p| p.get(base..base + w));
            let mut next_r = 0usize;
            let mut x = 0usize;
            kernels::for_each_run(mask_bytes, base, w, |status, run| {
                match PixelStatus::from_bits(status) {
                    PixelStatus::Regional => {
                        let avail = row_pixels.len().saturating_sub(next_r).min(run);
                        if let (Some(dst), Some(src)) = (
                            cur_row.get_mut(x..x + avail),
                            row_pixels.get(next_r..next_r + avail),
                        ) {
                            dst.copy_from_slice(src);
                        }
                        if let Some(pad) = cur_row.get_mut(x + avail..x + run) {
                            pad.fill(0);
                        }
                        next_r += run;
                        stats.regional += ul(run);
                        last_emitted = cur_row.get(x + run - 1).copied().unwrap_or(0);
                    }
                    PixelStatus::Strided => {
                        // Replicates the FIFO's last output; the run
                        // leaves `last_emitted` unchanged because every
                        // pixel re-emits it.
                        stats.interpolated += ul(run);
                        if let Some(dst) = cur_row.get_mut(x..x + run) {
                            dst.fill(last_emitted);
                        }
                    }
                    PixelStatus::Skipped => {
                        if let Some(prow) = prev_hist_row {
                            stats.from_history += ul(run);
                            if let (Some(dst), Some(src)) =
                                (cur_row.get_mut(x..x + run), prow.get(x..x + run))
                            {
                                dst.copy_from_slice(src);
                            }
                            last_emitted = cur_row.get(x + run - 1).copied().unwrap_or(0);
                        } else {
                            stats.black += ul(run);
                            if let Some(dst) = cur_row.get_mut(x..x + run) {
                                dst.fill(0);
                            }
                            last_emitted = 0;
                        }
                    }
                    PixelStatus::NonRegional => {
                        stats.black += ul(run);
                        if let Some(dst) = cur_row.get_mut(x..x + run) {
                            dst.fill(0);
                        }
                        last_emitted = 0;
                    }
                }
                x += run;
            });
        }
        Plane::from_vec(width, height, out_vec)
            .unwrap_or_else(|_| Plane::new(width, height))
    }

    /// Random-access read of a single decoded pixel through the PMMU
    /// translation path, without touching the sequential-decode cache —
    /// the hardware request/response path of Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::OutOfFrame`] for coordinates outside
    /// the decoded framebuffer or when no frame has been pushed yet.
    pub fn read_pixel(&self, mmu: &mut PixelMmu, x: u32, y: u32) -> Result<u8> {
        let subs = mmu.analyze(&self.history, PixelRequest::single(x, y))?;
        Ok(subs.first().map(|s| self.resolve_sub_request(s)).unwrap_or(0))
    }

    /// Reads a rectangular window through the PMMU request path — the
    /// ROI access pattern a vision accelerator issues (one burst per
    /// row of the window). Strided and skipped pixels resolve through
    /// the same translation the hardware performs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::OutOfFrame`] when the window leaves
    /// the decoded framebuffer or no frame has been pushed yet.
    pub fn read_rect(&self, mmu: &mut PixelMmu, rect: rpr_frame::Rect) -> Result<GrayFrame> {
        let mut out: GrayFrame = Plane::new(rect.w, rect.h);
        for row in 0..rect.h {
            let subs = mmu.analyze(
                &self.history,
                PixelRequest { x: rect.x, y: rect.y + row, len: rect.w },
            )?;
            for (i, sub) in subs.iter().enumerate() {
                let x = u32::try_from(i).unwrap_or(u32::MAX);
                out.set(x, row, self.resolve_sub_request(sub));
            }
        }
        Ok(out)
    }

    /// Resolves one translated sub-request to a pixel value.
    fn resolve_sub_request(&self, sub: &crate::SubRequest) -> u8 {
        match sub.kind {
            SubRequestKind::CurrentFrame { offset } => self
                .history
                .current()
                .and_then(|f| f.pixels().get(us(offset)).copied())
                .unwrap_or(0),
            SubRequestKind::HistoryFrame { frames_back, offset } => self
                .history
                .get(usize::from(frames_back))
                .and_then(|f| f.pixels().get(us(offset)).copied())
                .unwrap_or(0),
            SubRequestKind::Interpolate => self
                .history
                .current()
                .map(|f| resolve_strided(f, sub.x, sub.y))
                .unwrap_or(0),
            SubRequestKind::HistoryInterpolate { frames_back } => self
                .history
                .get(usize::from(frames_back))
                .map(|f| resolve_strided(f, sub.x, sub.y))
                .unwrap_or(0),
            SubRequestKind::Black => 0,
        }
    }
}

/// Finds the stride anchor governing a strided pixel by scanning the
/// EncMask: left in the pixel's row, then upward (and left) through
/// earlier rows. For a stride grid this lands exactly on the block's
/// `R` anchor. Returns black when no anchor exists.
fn resolve_strided(frame: &EncodedFrame, x: u32, y: u32) -> u8 {
    let meta = frame.metadata();
    // Left in this row.
    for xx in (0..=x).rev() {
        match meta.mask.get(xx, y) {
            PixelStatus::Regional => return frame.fetch_regional(xx, y).unwrap_or(0),
            PixelStatus::Strided => continue,
            _ => break,
        }
    }
    // Upward: find the nearest row above with data at or left of x.
    for yy in (0..y).rev() {
        match meta.mask.get(x, yy) {
            PixelStatus::Regional => return frame.fetch_regional(x, yy).unwrap_or(0),
            PixelStatus::Strided => {
                for xx in (0..x).rev() {
                    if meta.mask.get(xx, yy) == PixelStatus::Regional {
                        return frame.fetch_regional(xx, yy).unwrap_or(0);
                    }
                    if meta.mask.get(xx, yy) == PixelStatus::NonRegional {
                        break;
                    }
                }
            }
            _ => break,
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionLabel, RegionList, RhythmicEncoder};
    use rpr_frame::Plane;

    fn gradient(w: u32, h: u32) -> GrayFrame {
        Plane::from_fn(w, h, |x, y| (x * 5 + y * 11) as u8)
    }

    #[test]
    fn history_evicts_beyond_depth() {
        let frame = gradient(8, 8);
        let list = RegionList::full_frame(8, 8);
        let mut enc = RhythmicEncoder::new(8, 8);
        let mut history = FrameHistory::new();
        for idx in 0..6 {
            history.push(enc.encode(&frame, idx, &list));
        }
        assert_eq!(history.len(), HISTORY_DEPTH);
        assert_eq!(history.current().unwrap().frame_idx(), 5);
        assert_eq!(history.get(3).unwrap().frame_idx(), 2);
    }

    #[test]
    fn full_frame_roundtrip_is_lossless() {
        let frame = gradient(16, 12);
        let mut enc = RhythmicEncoder::new(16, 12);
        let mut dec = SoftwareDecoder::new(16, 12);
        let decoded = dec.decode(&enc.encode(&frame, 0, &RegionList::full_frame(16, 12)));
        assert_eq!(decoded, frame);
    }

    #[test]
    fn regional_pixels_roundtrip_exactly() {
        let frame = gradient(16, 16);
        let regions =
            RegionList::new(16, 16, vec![RegionLabel::new(2, 3, 9, 7, 1, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(16, 16);
        let mut dec = SoftwareDecoder::new(16, 16);
        let decoded = dec.decode(&enc.encode(&frame, 0, &regions));
        for y in 3..10 {
            for x in 2..11 {
                assert_eq!(decoded.get(x, y), frame.get(x, y), "({x},{y})");
            }
        }
        assert_eq!(decoded.get(0, 0), Some(0));
        assert_eq!(decoded.get(15, 15), Some(0));
    }

    #[test]
    fn strided_pixels_take_block_anchor() {
        let frame = gradient(8, 8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(0, 0, 8, 8, 4, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let mut dec = SoftwareDecoder::new(8, 8);
        let decoded = dec.decode(&enc.encode(&frame, 0, &regions));
        // Every pixel of block (0..4, 0..4) should equal the anchor (0,0).
        let anchor = frame.get(0, 0).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(decoded.get(x, y), Some(anchor), "({x},{y})");
            }
        }
        let anchor2 = frame.get(4, 4).unwrap();
        assert_eq!(decoded.get(7, 7), Some(anchor2));
    }

    #[test]
    fn skipped_pixels_use_previous_decode() {
        // Frame content changes between captures; the skipped frame must
        // show the old content.
        let frame_a = Plane::from_fn(8, 8, |_, _| 100u8);
        let frame_b = Plane::from_fn(8, 8, |_, _| 200u8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(0, 0, 8, 8, 1, 2)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let mut dec = SoftwareDecoder::new(8, 8);
        let d0 = dec.decode(&enc.encode(&frame_a, 0, &regions));
        assert_eq!(d0.get(4, 4), Some(100));
        let d1 = dec.decode(&enc.encode(&frame_b, 1, &regions)); // skipped
        assert_eq!(d1.get(4, 4), Some(100), "skip frame shows stale pixels");
        let d2 = dec.decode(&enc.encode(&frame_b, 2, &regions)); // sampled
        assert_eq!(d2.get(4, 4), Some(200));
    }

    #[test]
    fn skipped_without_history_is_black() {
        let frame = gradient(8, 8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(0, 0, 8, 8, 1, 2)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let mut dec = SoftwareDecoder::new(8, 8);
        // Decode only the off-phase frame.
        let encoded = enc.encode(&frame, 1, &regions);
        let decoded = dec.decode(&encoded);
        assert_eq!(decoded.get(3, 3), Some(0));
    }

    #[test]
    fn fifo_mode_replicates_previous_value() {
        let frame = gradient(8, 1);
        let regions =
            RegionList::new(8, 1, vec![RegionLabel::new(0, 0, 8, 1, 2, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 1);
        let mut dec = SoftwareDecoder::with_mode(8, 1, ReconstructionMode::FifoReplicate);
        let decoded = dec.decode(&enc.encode(&frame, 0, &regions));
        // R at x=0,2,4,6; St at odd x repeats the left value.
        for x in 0..8u32 {
            let expected = frame.get(x - x % 2, 0).unwrap();
            assert_eq!(decoded.get(x, 0), Some(expected), "x={x}");
        }
    }

    #[test]
    fn random_access_matches_full_decode_on_r_and_n() {
        let frame = gradient(16, 16);
        let regions = RegionList::new(
            16,
            16,
            vec![
                RegionLabel::new(1, 1, 6, 6, 2, 1),
                RegionLabel::new(8, 8, 7, 7, 1, 2),
            ],
        )
        .unwrap();
        let mut enc = RhythmicEncoder::new(16, 16);
        let mut dec = SoftwareDecoder::new(16, 16);
        let encoded = enc.encode(&frame, 0, &regions);
        let full = dec.decode(&encoded);
        let mut mmu = PixelMmu::new(16, 16);
        let mask = &encoded.metadata().mask;
        for y in 0..16 {
            for x in 0..16 {
                let status = mask.get(x, y);
                if status == PixelStatus::Regional || status == PixelStatus::NonRegional {
                    let v = dec.read_pixel(&mut mmu, x, y).unwrap();
                    assert_eq!(Some(v), full.get(x, y), "({x},{y}) {status}");
                }
            }
        }
    }

    #[test]
    fn random_access_strided_finds_anchor() {
        let frame = gradient(12, 12);
        let regions =
            RegionList::new(12, 12, vec![RegionLabel::new(2, 2, 8, 8, 4, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(12, 12);
        let mut dec = SoftwareDecoder::new(12, 12);
        dec.decode(&enc.encode(&frame, 0, &regions));
        let mut mmu = PixelMmu::new(12, 12);
        // (5, 5) is governed by the anchor at (2, 2).
        let v = dec.read_pixel(&mut mmu, 5, 5).unwrap();
        assert_eq!(Some(v), frame.get(2, 2));
        // (7, 3): anchor (6, 2).
        let v = dec.read_pixel(&mut mmu, 7, 3).unwrap();
        assert_eq!(Some(v), frame.get(6, 2));
    }

    #[test]
    fn read_rect_matches_full_decode_inside_dense_regions() {
        let frame = gradient(24, 24);
        let regions =
            RegionList::new(24, 24, vec![RegionLabel::new(4, 4, 12, 12, 1, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(24, 24);
        let mut dec = SoftwareDecoder::new(24, 24);
        let full = dec.decode(&enc.encode(&frame, 0, &regions));
        let mut mmu = PixelMmu::new(24, 24);
        let window = dec.read_rect(&mut mmu, rpr_frame::Rect::new(4, 4, 12, 12)).unwrap();
        for y in 0..12 {
            for x in 0..12 {
                assert_eq!(window.get(x, y), full.get(4 + x, 4 + y), "({x},{y})");
            }
        }
        // Out-of-frame windows are rejected.
        assert!(dec.read_rect(&mut mmu, rpr_frame::Rect::new(20, 20, 10, 10)).is_err());
    }

    #[test]
    fn decoder_stats_classify_sources() {
        let frame = gradient(8, 8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(0, 0, 4, 4, 2, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let mut dec = SoftwareDecoder::new(8, 8);
        dec.decode(&enc.encode(&frame, 0, &regions));
        let s = *dec.stats();
        assert_eq!(s.frames, 1);
        assert_eq!(s.regional, 4);
        assert_eq!(s.interpolated, 12);
        assert_eq!(s.black, 48);
        assert_eq!(s.from_history, 0);
    }

    #[test]
    fn resident_bytes_tracks_history() {
        let frame = gradient(8, 8);
        let list = RegionList::full_frame(8, 8);
        let mut enc = RhythmicEncoder::new(8, 8);
        let mut dec = SoftwareDecoder::new(8, 8);
        assert_eq!(dec.history().resident_bytes(), 0);
        dec.decode(&enc.encode(&frame, 0, &list));
        let one = dec.history().resident_bytes();
        assert!(one > 64);
        dec.decode(&enc.encode(&frame, 1, &list));
        assert_eq!(dec.history().resident_bytes(), 2 * one);
    }

    #[test]
    fn owned_try_decode_matches_borrowed_try_decode() {
        // Strided, temporally skipped, and overlapping regions exercise
        // interpolation and history; every other frame is rebuilt
        // unmarked so both the skip and the full check run. A corrupt
        // frame must be refused by both without touching their state.
        let regions = RegionList::new(
            20,
            12,
            vec![RegionLabel::new(1, 1, 12, 8, 2, 1), RegionLabel::new(8, 3, 10, 7, 3, 2)],
        )
        .unwrap();
        for mode in [ReconstructionMode::BlockNearest, ReconstructionMode::FifoReplicate] {
            let mut enc = RhythmicEncoder::new(20, 12);
            let mut borrowed = SoftwareDecoder::with_mode(20, 12, mode);
            let mut owned = SoftwareDecoder::with_mode(20, 12, mode);
            for idx in 0..8u64 {
                let frame = Plane::from_fn(20, 12, |x, y| (x * 7 + y * 3 + idx as u32 * 5) as u8);
                let mut encoded = enc.encode(&frame, idx, &regions);
                if idx % 2 == 1 {
                    encoded = EncodedFrame::from_raw_parts(
                        20,
                        12,
                        idx,
                        encoded.pixels().to_vec(),
                        encoded.metadata().clone(),
                        encoded.integrity(),
                    );
                    assert!(!encoded.is_validated());
                }
                if idx == 5 {
                    let mut pixels = encoded.pixels().to_vec();
                    pixels[0] ^= 0x10;
                    let bad = EncodedFrame::from_raw_parts(
                        20,
                        12,
                        idx,
                        pixels,
                        encoded.metadata().clone(),
                        encoded.integrity(),
                    );
                    assert!(borrowed.try_decode(&bad).is_err());
                    assert!(owned.try_decode_owned(bad).is_err());
                }
                let a = borrowed.try_decode(&encoded).unwrap();
                let b = owned.try_decode_owned(encoded).unwrap();
                assert_eq!(a.as_slice(), b.as_slice(), "{mode:?} frame {idx}");
                assert_eq!(borrowed.stats(), owned.stats(), "{mode:?} frame {idx}");
            }
            assert_eq!(owned.stats().frames, 8);
            assert!(owned.history().current().unwrap().is_validated());
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn decode_rejects_wrong_geometry() {
        let frame = gradient(8, 8);
        let mut enc = RhythmicEncoder::new(8, 8);
        let encoded = enc.encode(&frame, 0, &RegionList::full_frame(8, 8));
        let mut dec = SoftwareDecoder::new(16, 16);
        dec.decode(&encoded);
    }
}
