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
        // Evict first, so the ring never holds more than HISTORY_DEPTH.
        while self.frames.len() >= HISTORY_DEPTH {
            if let (Some(old), Some(pool)) = (self.frames.pop_back(), &self.pool) {
                old.recycle(pool);
            }
        }
        // rpr-check: allow(hot-path-alloc): the ring is bounded at HISTORY_DEPTH, so it grows only until it first holds that many
        self.frames.push_front(frame);
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
    /// Persistent chamfer-distance scratch rows, one row wide and
    /// sized at construction (reset per decode), so decoding allocates
    /// nothing but its output plane.
    prev_dist: Vec<u32>,
    cur_dist: Vec<u32>,
    /// All-zero stand-in for the row above row 0.
    zero_row: Vec<u8>,
    /// One row's mask bytes, for rows that do not start on a mask byte.
    row_mask: Vec<u8>,
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
            prev_dist: vec![u32::MAX; us(width)],
            cur_dist: vec![u32::MAX; us(width)],
            zero_row: vec![0; us(width)],
            row_mask: vec![0; us(width).div_ceil(32) * 8],
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
        let out = self.decode_rows(&encoded);
        // rpr-check: allow(hot-path-alloc): FrameHistory::push, not Vec::push; its ring is checked at its definition
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

    /// Reconstructs every row with [`walk_row`], in either mode.
    ///
    /// Nearest-anchor reconstruction: strided pixels take the value of
    /// the nearest already-reconstructed in-region pixel (left in the
    /// row, else directly above), which for stride grids is exactly the
    /// governing stride anchor. FIFO reconstruction is one whole-frame
    /// transaction in which `St` repeats the last emitted value.
    fn decode_rows(&mut self, encoded: &EncodedFrame) -> GrayFrame {
        // Disjoint field borrows: the output buffer, distance and mask
        // scratch, stats, and the previous decoded plane are all live at
        // once.
        let SoftwareDecoder {
            width,
            height,
            mode,
            last_decoded,
            stats,
            pool,
            prev_dist,
            cur_dist,
            zero_row,
            row_mask,
            ..
        } = self;
        let (width, height) = (*width, *height);
        let w = us(width);
        let meta = encoded.metadata();
        let mask_bytes = meta.mask.as_bytes();
        // Every pixel below is written by exactly one stretch, so the
        // recycled buffer's stale contents are never observable — the
        // poisoned-pool conformance sweep is what proves that.
        let mut out_vec = pool.get_scratch(w * us(height));
        let prev_plane: Option<&[u8]> = last_decoded.as_ref().map(|p| p.as_slice());
        // Distance (in chamfer steps) from each pixel of the previous row
        // to its data source; u32::MAX marks "no data". Row 0 reads the
        // all-MAX row; later rows read what the row above wrote.
        prev_dist.fill(u32::MAX);
        let nearest = *mode == ReconstructionMode::BlockNearest;
        let mut fifo_last = 0u8;
        // Per-status entry counts over the frame, indexed by wire bits.
        let mut tally = [0u64; 4];
        for y in 0..height {
            let base = us(y) * w;
            let span = meta.row_offsets.row_span(y);
            // A frame whose offsets overrun its payload decodes the
            // overrun as black instead of panicking; try_decode's
            // validation is what reports such frames as corrupt.
            let payload = encoded.pixels().get(us(span.start)..us(span.end)).unwrap_or(&[]);
            // Split-borrow the plane: everything before this row is
            // final, so the previous row reads straight from the output
            // buffer.
            let (done, rest) = out_vec.split_at_mut(base.min(w * us(height)));
            let Some(out) = rest.get_mut(..w) else { break };
            let hist = prev_plane.and_then(|p| p.get(base..base + w));
            let io = RowIo { out, payload, next_r: 0, hist };
            // Only an `St` pixel reads the row above's distances. The
            // next row's mask is read first: it may share the scratch.
            let keep_dist = nearest
                && y + 1 < height
                && holds_strided(row_bytes(mask_bytes, base + w, w, row_mask), w);
            let mask = row_bytes(mask_bytes, base, w, row_mask);
            if nearest {
                // Row 0 has no row above; its distances are all
                // u32::MAX, so the zeros standing in for its values are
                // never read.
                let above: &[u8] =
                    if y == 0 { zero_row } else { done.get(base - w..).unwrap_or(&[]) };
                let mut row = NearestRow {
                    io,
                    left: Left { dist: u32::MAX, value: 0 },
                    dist: cur_dist,
                    above,
                    above_dist: prev_dist,
                    keep_dist,
                };
                walk_row(mask, w, &mut tally, &mut row);
                std::mem::swap(prev_dist, cur_dist);
            } else {
                let mut row = FifoRow { io, last: fifo_last };
                walk_row(mask, w, &mut tally, &mut row);
                fifo_last = row.last;
            }
        }
        stats.add_frame(tally, prev_plane.is_some());
        Plane::from_vec(width, height, out_vec)
            // rpr-check: allow(hot-path-alloc): never runs: out_vec holds exactly width * height bytes, so from_vec succeeds
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

/// 2-bit wire statuses (`N` is `0b00`), and the mask bytes of a run of
/// `R·St` pairs (entry 0 in the low bits): `R, St, R, St` when the
/// pairs start on the byte, `St, R, St, R` when they start one entry
/// before it.
const ST: u8 = 0b01;
const SK: u8 = 0b10;
const R: u8 = 0b11;
const PAIRS: u8 = 0x77;
const PAIRS_SHIFTED: u8 = 0xDD;

impl DecoderStats {
    /// Adds one decoded frame's per-status pixel tally (indexed by wire
    /// bits); skipped pixels come from the history when the decoder had
    /// a previous plane, and are black otherwise.
    fn add_frame(&mut self, tally: [u64; 4], had_history: bool) {
        let [n, st, sk, r] = tally;
        self.regional += r;
        self.interpolated += st;
        if had_history {
            self.from_history += sk;
            self.black += n;
        } else {
            self.black += n + sk;
        }
    }
}

/// The mask entries `base..base + w` of one row as bytes, entry `k` in
/// bits `2 * (k % 4)` of byte `k / 4`. A row that starts on a byte is
/// borrowed from the packed mask. Any other row (some rows of widths
/// not divisible by 4), or a mask too short for the frame, is shifted
/// into `scratch` one [`kernels::entry_word`] (32 entries) at a time;
/// entries past the mask read as `N`.
fn row_bytes<'a>(mask: &'a [u8], base: usize, w: usize, scratch: &'a mut [u8]) -> &'a [u8] {
    if base.is_multiple_of(4) {
        if let Some(bytes) = mask.get(base / 4..(base + w).div_ceil(4)) {
            return bytes;
        }
    }
    for (k, word) in scratch.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&kernels::entry_word(mask, base + 32 * k).to_le_bytes());
    }
    scratch
}

/// True when a row's first `w` mask entries, as [`row_bytes`] gives
/// them, hold an `St` entry.
fn holds_strided(mask: &[u8], w: usize) -> bool {
    let whole = mask.get(..w / 4).unwrap_or(mask);
    // Bit 2j of `b & !(b >> 1)` is set where entry j of byte `b` is `01`.
    let strided = whole.iter().fold(0u8, |acc, &b| acc | (b & !(b >> 1)));
    strided & 0x55 != 0 || (4 * whole.len()..w).any(|x| kernels::entry_at(mask, x) == ST)
}

/// How many leading bytes of `bytes` equal `b`, compared 8 at a time.
fn repeat_len(bytes: &[u8], b: u8) -> usize {
    let splat = u64::from(b) * 0x0101_0101_0101_0101;
    let mut words = bytes.chunks_exact(8);
    let mut n = 0;
    for word in &mut words {
        let diff = <[u8; 8]>::try_from(word).map_or(!splat, u64::from_le_bytes) ^ splat;
        if diff != 0 {
            return n + us(diff.trailing_zeros()) / 8;
        }
        n += 8;
    }
    n + words.remainder().iter().take_while(|&&c| c == b).count()
}

/// Adds `n` copies of mask byte `b`'s four entries to `tally`.
#[inline(always)]
fn tally_byte(tally: &mut [u64; 4], b: u8, n: usize) {
    for k in 0..4 {
        if let Some(t) = tally.get_mut(usize::from((b >> (2 * k)) & 0b11)) {
            *t += ul(n);
        }
    }
}

/// What one reconstruction mode does with the stretches of a row that
/// [`walk_row`] hands it: left to right, every entry exactly once.
trait RowSink {
    /// Entries `x..end` all hold `status`.
    fn run(&mut self, status: u8, x: usize, end: usize);
    /// Entries `x..end` alternate `R`, `St`, starting with `R`.
    fn pairs(&mut self, x: usize, end: usize);
    /// Entry `x` holds `status`.
    fn pixel(&mut self, status: u8, x: usize);
}

/// Walks a row's first `w` mask entries a byte (4 entries) at a time,
/// adding the per-status entry counts (indexed by wire bits) to
/// `tally`.
///
/// A byte that repeats one status, or holds `R·St` pairs in either
/// phase, starts a stretch that lasts as long as the byte repeats
/// (found 8 bytes per compare) and goes to `sink` whole. Any other
/// byte, and the entries past the row's last whole byte, go to `sink`
/// one pixel at a time.
fn walk_row(mask: &[u8], w: usize, tally: &mut [u64; 4], sink: &mut impl RowSink) {
    let whole = mask.get(..w / 4).unwrap_or(mask);
    let mut i = 0;
    while let Some(&b) = whole.get(i) {
        let x = 4 * i;
        let n = if matches!(b, 0x00 | 0x55 | 0xAA | 0xFF | PAIRS | PAIRS_SHIFTED) {
            let n = repeat_len(whole.get(i..).unwrap_or(&[]), b).max(1);
            let end = x + 4 * n;
            match b {
                PAIRS => sink.pairs(x, end),
                PAIRS_SHIFTED => {
                    sink.pixel(ST, x);
                    sink.pairs(x + 1, end);
                }
                _ => sink.run(b & 0b11, x, end),
            }
            n
        } else {
            for k in 0..4 {
                sink.pixel((b >> (2 * k)) & 0b11, x + k);
            }
            1
        };
        tally_byte(tally, b, n);
        i += n;
    }
    for x in 4 * whole.len()..w {
        let s = kernels::entry_at(mask, x);
        sink.pixel(s, x);
        if let Some(t) = tally.get_mut(usize::from(s)) {
            *t += 1;
        }
    }
}

/// One output row and where its pixels come from, in both modes: the
/// row's payload and the next byte to take from it, and the previous
/// decoded frame's row when there is one.
struct RowIo<'a> {
    out: &'a mut [u8],
    payload: &'a [u8],
    next_r: usize,
    hist: Option<&'a [u8]>,
}

impl<'a> RowIo<'a> {
    /// Where `N` and `Sk` entries take their values: skipped ones from
    /// the previous frame's row when there is one; `None` is black.
    #[inline(always)]
    fn background(&self, status: u8) -> Option<&'a [u8]> {
        self.hist.filter(|_| status == SK)
    }

    /// The value of one `R`, `N` or `Sk` entry at `x`: the next payload
    /// byte (black once exhausted), or [`Self::background`]'s.
    #[inline(always)]
    fn take(&mut self, status: u8, x: usize) -> Option<u8> {
        if status == R {
            self.next_r += 1;
            return Some(self.payload.get(self.next_r - 1).copied().unwrap_or(0));
        }
        self.background(status).and_then(|h| h.get(x)).copied()
    }

    /// `R`, `N` or `Sk` entries `x..end` as [`Self::take`] gives them, in
    /// one memcpy and one fill of black. Returns the last value, `None`
    /// for black.
    fn run(&mut self, status: u8, x: usize, end: usize) -> Option<u8> {
        let src = if status == R {
            self.next_r += end - x;
            Some(self.payload.get(self.next_r - (end - x)..).unwrap_or(&[]))
        } else {
            self.background(status).and_then(|h| h.get(x..end))
        };
        let dst = self.out.get_mut(x..end)?;
        let Some(src) = src else {
            dst.fill(0);
            return None;
        };
        let n = src.len().min(dst.len());
        let (copied, pad) = dst.split_at_mut(n);
        copied.copy_from_slice(src.get(..n).unwrap_or(&[]));
        if !pad.is_empty() {
            pad.fill(0);
        }
        dst.last().copied()
    }

    /// `R·St` pairs `x..end`: each payload byte is written twice (once
    /// when the stretch ends on its `R`), black past the payload's end.
    /// Returns the last value.
    fn pairs(&mut self, x: usize, end: usize) -> u8 {
        let Some(dst) = self.out.get_mut(x..end) else { return 0 };
        let src = self.payload.get(self.next_r..).unwrap_or(&[]);
        self.next_r += dst.len().div_ceil(2);
        let k = src.len().min(dst.len() / 2);
        let (body, rest) = dst.split_at_mut(2 * k);
        for (pair, &v) in body.chunks_exact_mut(2).zip(src) {
            pair.copy_from_slice(&[v, v]);
        }
        rest.fill(0);
        // The first entry of `rest` is an `R`: the odd last one, or the
        // first past the payload.
        if let (Some(first), Some(&v)) = (rest.first_mut(), src.get(k)) {
            *first = v;
        }
        dst.last().copied().unwrap_or(0)
    }
}

/// Distance to and value of the last `R` pixel seen in a row
/// (`u32::MAX` and 0 before the first).
#[derive(Debug, Clone, Copy)]
struct Left {
    dist: u32,
    value: u8,
}

impl Left {
    /// Moves past `n` entries of `status` (not `St`); `last` is the
    /// value of the last one.
    #[inline(always)]
    fn pass(&mut self, status: u8, n: usize, last: Option<u8>) {
        if status == R {
            *self = Left { dist: 0, value: last.unwrap_or(0) };
        } else {
            self.dist = self.dist.saturating_add(u32::try_from(n).unwrap_or(u32::MAX));
        }
    }

    /// A strided pixel whose above neighbour is at chamfer distance
    /// `above_dist` with value `above`: the last `R` pixel to its left,
    /// unless the pixel above is strictly nearer (a tie goes left);
    /// black at distance `u32::MAX` when neither has data.
    #[inline(always)]
    fn strided(&mut self, above_dist: u32, above: u8) -> (u8, u32) {
        self.dist = self.dist.saturating_add(1);
        let da = above_dist.saturating_add(1);
        if self.dist <= da {
            (self.value, self.dist)
        } else {
            (above, da)
        }
    }
}

/// Nearest-anchor reconstruction of one row. Each pixel's chamfer
/// distance goes to `dist`, which the row below reads as `above_dist`.
/// Only an `St` pixel reads it, so bulk stretches other than `St` write
/// theirs only when `keep_dist` says the row below holds an `St`.
struct NearestRow<'a> {
    io: RowIo<'a>,
    left: Left,
    dist: &'a mut [u32],
    above: &'a [u8],
    above_dist: &'a [u32],
    keep_dist: bool,
}

impl NearestRow<'_> {
    /// The distances of entries `x..end`, when the row below reads them.
    fn kept_dist(&mut self, x: usize, end: usize) -> Option<&mut [u32]> {
        let keep = self.keep_dist;
        self.dist.get_mut(x..end).filter(|_| keep)
    }
}

impl RowSink for NearestRow<'_> {
    fn run(&mut self, status: u8, x: usize, end: usize) {
        if status != ST {
            let last = self.io.run(status, x, end);
            self.left.pass(status, end - x, last);
            if let Some(dist) = self.kept_dist(x, end) {
                dist.fill(last.map_or(u32::MAX, |_| 0));
            }
            return;
        }
        let NearestRow { io, left, dist, above, above_dist, .. } = self;
        let (Some(out), Some(dist)) = (io.out.get_mut(x..end), dist.get_mut(x..end)) else {
            return;
        };
        let above_dist = above_dist.get(x..end).unwrap_or(&[]);
        let above = above.get(x..end).unwrap_or(&[]);
        if let (u32::MAX, true) = (left.dist, above.len() == out.len()) {
            // No `R` yet in this row: every pixel takes the pixel above,
            // or black where that has no data.
            out.copy_from_slice(above);
            let mut blind = false;
            for (d, &p) in dist.iter_mut().zip(above_dist) {
                *d = p.saturating_add(1);
                blind |= p == u32::MAX;
            }
            if blind {
                let unseen = out.iter_mut().zip(above_dist).filter(|(_, &p)| p == u32::MAX);
                unseen.for_each(|(o, _)| *o = 0);
            }
        } else {
            let px = out.iter_mut().zip(dist.iter_mut()).zip(above_dist).zip(above);
            for (((o, d), &p), &a) in px {
                (*o, *d) = left.strided(p, a);
            }
        }
    }

    fn pairs(&mut self, x: usize, end: usize) {
        // Exact whatever the row above holds: each `St` has its `R` at
        // left distance 1, the above pixel's distance + 1 is at least
        // 1, and a tie goes left.
        let value = self.io.pairs(x, end);
        self.left = Left { dist: u32::from((end - x).is_multiple_of(2)), value };
        if let Some(dist) = self.kept_dist(x, end) {
            let mut two = dist.chunks_exact_mut(2);
            for pair in &mut two {
                pair.copy_from_slice(&[0, 1]);
            }
            two.into_remainder().fill(0);
        }
    }

    fn pixel(&mut self, status: u8, x: usize) {
        let (v, d) = if status == ST {
            let above_dist = self.above_dist.get(x).copied().unwrap_or(u32::MAX);
            self.left.strided(above_dist, self.above.get(x).copied().unwrap_or(0))
        } else {
            let v = self.io.take(status, x);
            self.left.pass(status, 1, v);
            (v.unwrap_or(0), v.map_or(u32::MAX, |_| 0))
        };
        if let (Some(o), Some(dist)) = (self.io.out.get_mut(x), self.dist.get_mut(x)) {
            (*o, *dist) = (v, d);
        }
    }
}

/// Hardware-faithful FIFO reconstruction of one row: `last` is the
/// value the response stream emitted last, carried across rows. Every
/// `St` entry re-emits it, so `St` leaves it unchanged.
struct FifoRow<'a> {
    io: RowIo<'a>,
    last: u8,
}

impl RowSink for FifoRow<'_> {
    fn run(&mut self, status: u8, x: usize, end: usize) {
        if status != ST {
            self.last = self.io.run(status, x, end).unwrap_or(0);
        } else if let Some(dst) = self.io.out.get_mut(x..end) {
            dst.fill(self.last);
        }
    }

    fn pairs(&mut self, x: usize, end: usize) {
        self.last = self.io.pairs(x, end);
    }

    fn pixel(&mut self, status: u8, x: usize) {
        if status != ST {
            self.last = self.io.take(status, x).unwrap_or(0);
        }
        if let Some(o) = self.io.out.get_mut(x) {
            *o = self.last;
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
