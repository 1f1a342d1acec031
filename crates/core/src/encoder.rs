//! The rhythmic pixel encoder (paper §4.1).
//!
//! The encoder intercepts the raster-scan pixel stream coming out of the
//! ISP and, guided by the developer's region labels, forwards only the
//! pixels that match some region's stride and skip specification. It is
//! organized exactly like the paper's Fig. 5:
//!
//! * a [`Sequencer`] tracks the current row and pixel location;
//! * once per row, the [`RoiSelector`] shortlists the y-sorted region
//!   list down to the regions whose y-range covers the row;
//! * once per pixel, the [`ComparisonEngine`] checks the shortlist for
//!   x-range and stride membership (with run-length reuse inside a
//!   matched region — §4.1.1's spatial-locality optimization);
//! * a sampler/counter emits the `R` pixels, the per-row offsets, and
//!   the EncMask.
//!
//! Two comparison-engine organizations are modeled (the paper's Table 5
//! ablation): the scalable *hybrid* design that uses the shortlist, and
//! the naive *parallel* design that compares every pixel against every
//! region.
//!
//! [`RhythmicEncoder`] applies the engine's verdicts a row span at a
//! time rather than a pixel at a time. Each shortlisted region covers
//! one span of the row, `Sk`, `St`, or `St` with an `R` anchor every
//! `stride` columns from its left edge. When the row's spans are
//! disjoint (every row of a single-region frame), the status counts
//! are arithmetic, the mask is written from periodic 32-entry word
//! templates ([`kernels::write_span_mask`]) and the payload is a
//! strided copy ([`kernels::gather_strided`]), so the row costs in
//! spans and mask words, not pixels. Rows whose spans overlap fall
//! back to merging priorities in a one-byte-per-pixel row and the
//! count, pack and gather kernels; that path is the span path's
//! differential reference, and both stay byte-identical to the
//! per-pixel [`StreamingEncoder`] with unchanged [`EncoderStats`].

use crate::kernels;
use crate::{
    BufferPool, EncMask, EncodedFrame, FrameMetadata, PixelStatus, RegionLabel, RegionList,
    RowOffsets,
};
use rpr_frame::GrayFrame;
use serde::{Deserialize, Serialize};

/// Which comparison-engine organization to model (paper Table 5).
///
/// Both produce bit-identical output; they differ in the amount of
/// comparison work the stats attribute to the design, which `rpr-hwsim`
/// turns into resource and power estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EngineKind {
    /// Row-level RoI shortlisting plus per-pixel checks against the
    /// shortlist only (the paper's scalable design).
    #[default]
    Hybrid,
    /// Every pixel compared against every region label in parallel —
    /// the strawman whose resource cost explodes with region count.
    Parallel,
}

/// Encoder configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Comparison-engine organization to account for.
    pub engine: EngineKind,
    /// Reuse a region-match verdict for the following `region width`
    /// pixels of the row (§4.1.1). Disabling this models a design
    /// without the spatial-locality optimization; output is unchanged,
    /// only the comparison counts differ.
    pub run_length_reuse: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig { engine: EngineKind::Hybrid, run_length_reuse: true }
    }
}

/// Work and output counters accumulated across encoded frames.
///
/// `comparisons` models the number of region-comparison operations the
/// configured [`EngineKind`] would perform; the hybrid engine's count
/// shrinks dramatically on rows without regions, which is the §6.2
/// "work saving" claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderStats {
    /// Frames encoded.
    pub frames: u64,
    /// Pixels ingested from the sensor stream.
    pub pixels_in: u64,
    /// Pixels stored to the encoded frame (`R`).
    pub pixels_out: u64,
    /// Per-status pixel counts indexed by the 2-bit encoding `[N, St, Sk, R]`.
    pub status_counts: [u64; 4],
    /// Region-comparison operations performed by the modeled engine.
    pub comparisons: u64,
    /// Sum of per-row shortlist lengths (to derive the average).
    pub shortlist_len_sum: u64,
    /// Rows whose shortlist was empty (comparison skipped entirely).
    pub rows_skipped: u64,
    /// Total rows processed.
    pub rows_total: u64,
    /// Encoded payload bytes emitted.
    pub payload_bytes: u64,
    /// Metadata bytes emitted (EncMask + row offsets).
    pub metadata_bytes: u64,
}

impl EncoderStats {
    /// Fraction of ingested pixels that were stored.
    pub fn keep_ratio(&self) -> f64 {
        if self.pixels_in == 0 {
            0.0
        } else {
            self.pixels_out as f64 / self.pixels_in as f64
        }
    }

    /// Average shortlist length over all processed rows.
    pub fn avg_shortlist_len(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            self.shortlist_len_sum as f64 / self.rows_total as f64
        }
    }

    /// Comparisons per ingested pixel — the work-saving metric for the
    /// hybrid-vs-parallel ablation.
    pub fn comparisons_per_pixel(&self) -> f64 {
        if self.pixels_in == 0 {
            0.0
        } else {
            self.comparisons as f64 / self.pixels_in as f64
        }
    }
}

/// Tracks the raster position of the streaming pixel input (paper
/// Fig. 5's "Sequencer").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sequencer {
    width: u32,
    height: u32,
    x: u32,
    y: u32,
}

impl Sequencer {
    /// Creates a sequencer for a `width x height` frame.
    pub fn new(width: u32, height: u32) -> Self {
        Sequencer { width, height, x: 0, y: 0 }
    }

    /// Current column.
    pub fn x(&self) -> u32 {
        self.x
    }

    /// Current row.
    pub fn y(&self) -> u32 {
        self.y
    }

    /// True when the position is at the start of a row.
    pub fn at_row_start(&self) -> bool {
        self.x == 0
    }

    /// True when every pixel of the frame has been consumed.
    pub fn frame_done(&self) -> bool {
        self.y >= self.height
    }

    /// Advances to the next raster position.
    pub fn advance(&mut self) {
        self.x += 1;
        if self.x >= self.width {
            self.x = 0;
            self.y += 1;
        }
    }

    /// Resets to the frame origin.
    pub fn reset(&mut self) {
        self.x = 0;
        self.y = 0;
    }
}

/// Row-level search-space reduction (paper Fig. 5's "RoI selector").
///
/// Regions are y-sorted by [`RegionList`]; the selector sweeps rows in
/// ascending order, adding regions whose top edge has been reached and
/// retiring regions whose bottom edge has passed, so the per-row
/// shortlist costs amortized O(1) per region per frame.
#[derive(Debug, Clone)]
pub struct RoiSelector {
    /// Indices into the region list, in insertion (y-sorted) order.
    next: usize,
    /// Currently live region indices for the most recent row.
    active: Vec<usize>,
}

impl RoiSelector {
    /// Creates a selector positioned before row 0.
    pub fn new() -> Self {
        RoiSelector { next: 0, active: Vec::new() }
    }

    /// Advances to `row` (must be called with non-decreasing rows) and
    /// returns the shortlist of region indices live on that row.
    pub fn advance_to_row<'a>(&'a mut self, regions: &RegionList, row: u32) -> &'a [usize] {
        let labels = regions.labels();
        while self.next < labels.len() && labels[self.next].y <= row {
            // rpr-check: allow(hot-path-alloc): amortized: the selector keeps its capacity across frames, at most one entry per label
            self.active.push(self.next);
            self.next += 1;
        }
        self.active.retain(|&i| labels[i].contains_row(row));
        &self.active
    }

    /// Restarts the sweep for a new frame.
    pub fn reset(&mut self) {
        self.next = 0;
        self.active.clear();
    }
}

impl Default for RoiSelector {
    fn default() -> Self {
        RoiSelector::new()
    }
}

/// Per-pixel membership and rhythm classification (paper Fig. 5's
/// "Comparison engine").
#[derive(Debug, Clone, Copy, Default)]
pub struct ComparisonEngine;

impl ComparisonEngine {
    /// Classifies pixel `(x, y)` on frame `frame_idx` against a single
    /// region, assuming nothing about membership.
    #[inline]
    pub fn classify_one(
        region: &RegionLabel,
        x: u32,
        y: u32,
        frame_idx: u64,
    ) -> PixelStatus {
        if !region.contains(x, y) {
            return PixelStatus::NonRegional;
        }
        if !region.is_sampled_on(frame_idx) {
            return PixelStatus::Skipped;
        }
        if region.keeps_pixel(x, y) {
            PixelStatus::Regional
        } else {
            PixelStatus::Strided
        }
    }

    /// Classifies a pixel against a shortlist, returning the
    /// highest-priority status (R > St > Sk > N) plus the number of
    /// region comparisons performed.
    pub fn classify(
        regions: &RegionList,
        shortlist: &[usize],
        x: u32,
        y: u32,
        frame_idx: u64,
    ) -> (PixelStatus, u64) {
        let labels = regions.labels();
        let mut best = PixelStatus::NonRegional;
        let mut comparisons = 0;
        for &i in shortlist {
            comparisons += 1;
            let status = Self::classify_one(&labels[i], x, y, frame_idx);
            best = best.max_priority(status);
            if best == PixelStatus::Regional {
                break; // nothing can outrank a stored pixel
            }
        }
        (best, comparisons)
    }
}

/// The rhythmic pixel encoder: whole-frame API used by the pipeline and
/// the experiment harness (paper §4.1).
///
/// # Example
///
/// ```
/// use rpr_core::{RegionLabel, RegionList, RhythmicEncoder};
/// use rpr_frame::Plane;
///
/// let frame = Plane::from_fn(32, 32, |x, _| x as u8);
/// let regions = RegionList::new(32, 32, vec![RegionLabel::new(0, 0, 8, 8, 2, 1)])?;
/// let mut enc = RhythmicEncoder::new(32, 32);
/// let encoded = enc.encode(&frame, 0, &regions);
/// assert_eq!(encoded.pixel_count(), 16); // 8x8 strided by 2
/// # Ok::<(), rpr_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RhythmicEncoder {
    width: u32,
    height: u32,
    config: EncoderConfig,
    stats: EncoderStats,
    /// Buffer source for the per-frame mask/payload/offset allocations;
    /// defaults to a private pool, share one via [`Self::with_pool`].
    pool: BufferPool,
    /// Persistent scratch reused across frames (zero-alloc steady
    /// state; see `crates/core/src/pool.rs`). `row_pri` is one row
    /// wide and `row_counts` holds one entry per row, both sized at
    /// construction.
    selector: RoiSelector,
    row_pri: Vec<u8>,
    row_counts: Vec<u32>,
    label_px: Vec<u64>,
    spans: Vec<RowSpan>,
}

/// One shortlisted region's footprint on the row being encoded:
/// columns `[x0, x_end)` all carry `status`, and when `anchors > 0`
/// every `anchors`-th column from `x0` is an `R` anchor instead (a
/// sampled row of a region with that stride).
#[derive(Debug, Clone, Copy)]
struct RowSpan {
    x0: usize,
    x_end: usize,
    status: PixelStatus,
    anchors: usize,
    /// Index of the region label in the frame's list.
    label: usize,
}

impl RhythmicEncoder {
    /// Creates an encoder for `width x height` frames with the default
    /// (hybrid, run-length-reuse) configuration.
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_config(width, height, EncoderConfig::default())
    }

    /// Creates an encoder with an explicit configuration.
    pub fn with_config(width: u32, height: u32, config: EncoderConfig) -> Self {
        Self::with_pool(width, height, config, BufferPool::new())
    }

    /// Creates an encoder drawing its per-frame buffers from `pool`.
    /// Share the pool with the decoder's [`crate::FrameHistory`] (or
    /// call [`crate::EncodedFrame::recycle`] yourself) to close the
    /// reuse loop: after warmup, encoding allocates nothing.
    pub fn with_pool(width: u32, height: u32, config: EncoderConfig, pool: BufferPool) -> Self {
        RhythmicEncoder {
            width,
            height,
            config,
            stats: EncoderStats::default(),
            pool,
            selector: RoiSelector::new(),
            row_pri: vec![0; width as usize],
            row_counts: Vec::with_capacity(height as usize),
            label_px: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The pool this encoder draws per-frame buffers from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Frame width the encoder was built for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height the encoder was built for.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The active configuration.
    pub fn config(&self) -> EncoderConfig {
        self.config
    }

    /// Accumulated work/output statistics.
    pub fn stats(&self) -> &EncoderStats {
        &self.stats
    }

    /// Clears the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = EncoderStats::default();
    }

    /// Encodes one frame against `regions`, producing the packed
    /// encoded frame and its metadata in a single streaming pass. The
    /// frame is consistent by construction and carries the validated
    /// marker ([`EncodedFrame::validated`]); debug builds re-check it.
    ///
    /// # Panics
    ///
    /// Panics when the frame or region-list geometry differs from the
    /// encoder's configured `width x height`.
    pub fn encode(
        &mut self,
        frame: &GrayFrame,
        frame_idx: u64,
        regions: &RegionList,
    ) -> EncodedFrame {
        assert_eq!(
            (frame.width(), frame.height()),
            (self.width, self.height),
            "frame geometry mismatch"
        );
        assert_eq!(
            (regions.width(), regions.height()),
            (self.width, self.height),
            "region list geometry mismatch"
        );

        // Disjoint field borrows: the selector's shortlist stays
        // borrowed across stats/scratch updates below.
        let RhythmicEncoder {
            width, height, config, stats, pool, selector, row_pri, row_counts, label_px, spans,
        } = self;
        let (width, height, config) = (*width, *height, *config);

        let w = width as usize;
        let pixels_total = w * height as usize;
        let mut mask_bytes = pool.get_zeroed(pixels_total.div_ceil(4));
        let mut payload = pool.get_shared();
        // Unique by the pool's contract, so make_mut never clones; the
        // payload is gathered in place and sealed without a new
        // ref-count block.
        let pixels = std::sync::Arc::make_mut(&mut payload);
        // One reservation of the payload's upper bound (exact for
        // regions that do not overlap) instead of growth row by row; a
        // recycled payload already holds it once a region set this
        // large has come round.
        let bound = usize::try_from(regions.kept_pixel_upper_bound()).unwrap_or(usize::MAX);
        // rpr-check: allow(hot-path-alloc): amortized into pooled payload capacity; grows only when the region set outgrows every earlier one
        pixels.reserve(bound.min(pixels_total));
        row_counts.clear();
        selector.reset();
        let labels = regions.labels();
        let all_regions = labels.len() as u64;

        // Per-region-label attribution is recorded only while tracing is
        // on; when it is off the single gate check here is the whole cost.
        let tracing = rpr_trace::is_enabled();
        let _span = if tracing {
            Some(rpr_trace::span(rpr_trace::names::ENCODE, "core").with_frame(frame_idx))
        } else {
            None
        };
        label_px.clear();
        if tracing {
            // rpr-check: allow(hot-path-alloc): tracing only; amortized, the scratch keeps its capacity across frames
            label_px.resize(labels.len(), 0);
        }

        for y in 0..height {
            let shortlist = selector.advance_to_row(regions, y);
            stats.rows_total += 1;
            stats.shortlist_len_sum += shortlist.len() as u64;

            // Account the comparison work of the modeled engine.
            stats.comparisons += match config.engine {
                EngineKind::Parallel => all_regions * u64::from(width),
                EngineKind::Hybrid => {
                    if shortlist.is_empty() {
                        // The selector's row check is the only work.
                        0
                    } else if config.run_length_reuse {
                        // One x-range check per shortlisted region per row:
                        // the verdict is reused across the region's width.
                        shortlist.len() as u64
                    } else {
                        shortlist.len() as u64 * u64::from(width)
                    }
                }
            };

            if shortlist.is_empty() {
                stats.rows_skipped += 1;
                stats.pixels_in += u64::from(width);
                stats.status_counts[PixelStatus::NonRegional.bits() as usize] +=
                    u64::from(width);
                // rpr-check: allow(hot-path-alloc): one entry per row, within the capacity reserved at construction
                row_counts.push(0);
                continue;
            }

            // Sampler + counter. Each shortlisted region covers one span
            // of the row; sorted by start, spans that do not overlap
            // (every row of a single-region frame) need no priority
            // merge, so they are counted, masked and gathered a span at
            // a time. Overlapping rows merge in priority space below.
            spans.clear();
            for &i in shortlist {
                let r = &labels[i];
                let x0 = (r.x as usize).min(w);
                let x_end = (r.right().min(width) as usize).max(x0);
                if x0 == x_end {
                    continue;
                }
                let stride = r.stride.max(1);
                let (status, anchors) = if !r.is_sampled_on(frame_idx) {
                    (PixelStatus::Skipped, 0)
                } else if !(y - r.y).is_multiple_of(stride) {
                    (PixelStatus::Strided, 0)
                } else {
                    (PixelStatus::Strided, stride as usize)
                };
                // rpr-check: allow(hot-path-alloc): amortized: the scratch keeps its capacity across frames, at most one span per label
                spans.push(RowSpan { x0, x_end, status, anchors, label: i });
            }
            spans.sort_unstable_by_key(|s| s.x0);
            let disjoint = spans.windows(2).all(|p| p[0].x_end <= p[1].x0);
            let src = frame.row(y);
            let base = y as usize * w;
            let mut counts = [0u64; 4];
            if disjoint {
                let mut covered = 0usize;
                for s in spans.iter() {
                    let len = s.x_end - s.x0;
                    covered += len;
                    kernels::write_span_mask(
                        &mut mask_bytes,
                        base + s.x0,
                        len,
                        s.status.bits(),
                        s.anchors,
                    );
                    if s.anchors == 0 {
                        counts[usize::from(s.status.priority())] += len as u64;
                        continue;
                    }
                    let span_src = src.get(s.x0..s.x_end).unwrap_or(&[]);
                    let kept = kernels::gather_strided(span_src, s.anchors, pixels);
                    counts[3] += kept as u64;
                    counts[2] += (len - kept) as u64;
                    if let Some(slot) = label_px.get_mut(s.label) {
                        *slot += kept as u64;
                    }
                }
                counts[0] = (w - covered) as u64;
            } else {
                // Paint in *priority* space (one byte per pixel, N=0 <
                // Sk=1 < St=2 < R=3), where the merge is a plain
                // `u8::max` (the 2-bit wire encoding is not ordered by
                // priority), then count, pack and gather.
                row_pri.fill(0);
                for s in spans.iter() {
                    let Some(span) = row_pri.get_mut(s.x0..s.x_end) else { continue };
                    let pri = s.status.priority();
                    if s.anchors == 1 {
                        span.fill(3); // Regional outranks every merge
                        continue;
                    }
                    for p in span.iter_mut() {
                        *p = (*p).max(pri);
                    }
                    if s.anchors > 1 {
                        // Anchor columns: the span starts at the region's
                        // left edge, so step_by lands on its stride grid.
                        for p in span.iter_mut().step_by(s.anchors) {
                            *p = 3;
                        }
                    }
                }

                // Attribute stored pixels to the first shortlist label
                // that samples them (the label whose `R` won the merge).
                if tracing {
                    for (x, &pri) in row_pri.iter().enumerate() {
                        if pri != 3 {
                            continue;
                        }
                        for &i in shortlist {
                            if ComparisonEngine::classify_one(&labels[i], x as u32, y, frame_idx)
                                == PixelStatus::Regional
                            {
                                if let Some(slot) = label_px.get_mut(i) {
                                    *slot += 1;
                                }
                                break;
                            }
                        }
                    }
                }

                counts = kernels::count_priorities(row_pri);
                kernels::pack_priority_row(&mut mask_bytes, base, row_pri);
                kernels::gather_regional(row_pri, src, pixels);
            }
            stats.status_counts[PixelStatus::NonRegional.bits() as usize] += counts[0];
            stats.status_counts[PixelStatus::Skipped.bits() as usize] += counts[1];
            stats.status_counts[PixelStatus::Strided.bits() as usize] += counts[2];
            stats.status_counts[PixelStatus::Regional.bits() as usize] += counts[3];
            stats.pixels_in += u64::from(width);
            // rpr-check: allow(hot-path-alloc): one entry per row, within the capacity reserved at construction
            row_counts.push(u32::try_from(counts[3]).unwrap_or(u32::MAX));
        }

        if tracing {
            for (i, &px) in label_px.iter().enumerate() {
                if px > 0 {
                    let r = &labels[i];
                    rpr_trace::counter_for_region(
                        rpr_trace::names::ENCODER_LABEL_PX,
                        "core",
                        frame_idx,
                        i as u32,
                        r.stride,
                        r.skip,
                        px as f64,
                    );
                }
            }
        }

        let mask = EncMask::from_raw_bytes(width, height, mask_bytes)
            // rpr-check: allow(hot-path-alloc): never runs: mask_bytes holds exactly width * height entries, so from_raw_bytes succeeds
            .unwrap_or_else(|| EncMask::new(width, height));
        let metadata = FrameMetadata {
            row_offsets: RowOffsets::from_row_counts_in(row_counts, pool.get_words()),
            mask,
        };
        stats.frames += 1;
        stats.pixels_out += metadata.row_offsets.total() as u64;
        stats.payload_bytes += metadata.row_offsets.total() as u64;
        stats.metadata_bytes += metadata.size_bytes() as u64;
        EncodedFrame::new_shared(width, height, frame_idx, payload, metadata).sealed_by_encoder()
    }
}

/// A pixel-at-a-time streaming encoder, the shape the hardware block
/// actually has: pixels are pushed in raster order as the sensor scans
/// them out, and the encoded frame materializes incrementally.
///
/// Produces output bit-identical to [`RhythmicEncoder::encode`]
/// (asserted by property tests); used by the cycle-level model in
/// `rpr-hwsim` and wherever per-pixel interleaving matters.
#[derive(Debug, Clone)]
pub struct StreamingEncoder {
    sequencer: Sequencer,
    selector: RoiSelector,
    regions: RegionList,
    frame_idx: u64,
    shortlist: Vec<usize>,
    mask: EncMask,
    pixels: Vec<u8>,
    row_counts: Vec<u32>,
    current_row_count: u32,
    width: u32,
    height: u32,
}

impl StreamingEncoder {
    /// Starts encoding frame `frame_idx` against `regions`.
    pub fn begin(width: u32, height: u32, frame_idx: u64, regions: RegionList) -> Self {
        assert_eq!((regions.width(), regions.height()), (width, height));
        StreamingEncoder {
            sequencer: Sequencer::new(width, height),
            selector: RoiSelector::new(),
            regions,
            frame_idx,
            shortlist: Vec::new(),
            mask: EncMask::new(width, height),
            pixels: Vec::new(),
            row_counts: Vec::new(),
            current_row_count: 0,
            width,
            height,
        }
    }

    /// Pushes the next raster-order pixel, returning its classification.
    ///
    /// # Panics
    ///
    /// Panics when more than `width * height` pixels are pushed.
    pub fn push(&mut self, value: u8) -> PixelStatus {
        assert!(!self.sequencer.frame_done(), "pushed past end of frame");
        let (x, y) = (self.sequencer.x(), self.sequencer.y());
        if self.sequencer.at_row_start() {
            self.shortlist = self.selector.advance_to_row(&self.regions, y).to_vec();
        }
        let (status, _) =
            ComparisonEngine::classify(&self.regions, &self.shortlist, x, y, self.frame_idx);
        if status != PixelStatus::NonRegional {
            self.mask.set(x, y, status);
        }
        if status == PixelStatus::Regional {
            self.pixels.push(value);
            self.current_row_count += 1;
        }
        self.sequencer.advance();
        if self.sequencer.at_row_start() || self.sequencer.frame_done() {
            self.row_counts.push(self.current_row_count);
            self.current_row_count = 0;
        }
        status
    }

    /// True when the whole frame has been pushed.
    pub fn is_complete(&self) -> bool {
        self.sequencer.frame_done()
    }

    /// Finalizes the frame, marked validated like
    /// [`RhythmicEncoder::encode`]'s output.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `width * height` pixels were pushed.
    pub fn finish(self) -> EncodedFrame {
        assert!(self.sequencer.frame_done(), "frame is incomplete");
        let metadata = FrameMetadata {
            row_offsets: RowOffsets::from_row_counts(&self.row_counts),
            mask: self.mask,
        };
        EncodedFrame::new(self.width, self.height, self.frame_idx, self.pixels, metadata)
            .sealed_by_encoder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegionLabel;
    use rpr_frame::Plane;

    fn gradient(w: u32, h: u32) -> GrayFrame {
        Plane::from_fn(w, h, |x, y| (x * 7 + y * 13) as u8)
    }

    #[test]
    fn sequencer_walks_raster_order() {
        let mut s = Sequencer::new(3, 2);
        let mut seen = Vec::new();
        while !s.frame_done() {
            seen.push((s.x(), s.y()));
            s.advance();
        }
        assert_eq!(seen, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn roi_selector_tracks_live_regions() {
        let list = RegionList::new(
            100,
            100,
            vec![
                RegionLabel::new(0, 10, 10, 5, 1, 1),
                RegionLabel::new(0, 12, 10, 20, 1, 1),
                RegionLabel::new(0, 50, 10, 10, 1, 1),
            ],
        )
        .unwrap();
        let mut sel = RoiSelector::new();
        assert!(sel.advance_to_row(&list, 0).is_empty());
        assert_eq!(sel.advance_to_row(&list, 10).len(), 1);
        assert_eq!(sel.advance_to_row(&list, 13).len(), 2);
        assert_eq!(sel.advance_to_row(&list, 20).len(), 1);
        assert_eq!(sel.advance_to_row(&list, 55).len(), 1);
        assert!(sel.advance_to_row(&list, 99).is_empty());
    }

    #[test]
    fn full_frame_region_keeps_everything() {
        let frame = gradient(16, 8);
        let mut enc = RhythmicEncoder::new(16, 8);
        let encoded = enc.encode(&frame, 0, &RegionList::full_frame(16, 8));
        assert_eq!(encoded.pixel_count(), 16 * 8);
        assert_eq!(encoded.pixels(), frame.as_slice());
        assert_eq!(enc.stats().keep_ratio(), 1.0);
    }

    #[test]
    fn empty_region_list_discards_everything() {
        let frame = gradient(16, 8);
        let mut enc = RhythmicEncoder::new(16, 8);
        let encoded = enc.encode(&frame, 0, &RegionList::empty(16, 8));
        assert_eq!(encoded.pixel_count(), 0);
        assert_eq!(enc.stats().rows_skipped, 8);
    }

    #[test]
    fn stride_keeps_one_pixel_per_block() {
        let frame = gradient(8, 8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(0, 0, 8, 8, 2, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let encoded = enc.encode(&frame, 0, &regions);
        assert_eq!(encoded.pixel_count(), 16);
        let meta = encoded.metadata();
        assert_eq!(meta.mask.get(0, 0), PixelStatus::Regional);
        assert_eq!(meta.mask.get(1, 0), PixelStatus::Strided);
        assert_eq!(meta.mask.get(0, 1), PixelStatus::Strided);
        assert_eq!(meta.mask.get(2, 2), PixelStatus::Regional);
    }

    #[test]
    fn skip_marks_whole_region_skipped_off_phase() {
        let frame = gradient(8, 8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(2, 2, 4, 4, 1, 2)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let on = enc.encode(&frame, 0, &regions);
        assert_eq!(on.pixel_count(), 16);
        let off = enc.encode(&frame, 1, &regions);
        assert_eq!(off.pixel_count(), 0);
        assert_eq!(off.metadata().mask.get(3, 3), PixelStatus::Skipped);
        assert_eq!(off.metadata().mask.get(0, 0), PixelStatus::NonRegional);
    }

    #[test]
    fn overlapping_regions_store_pixel_once() {
        let frame = gradient(16, 16);
        let regions = RegionList::new(
            16,
            16,
            vec![
                RegionLabel::new(0, 0, 8, 8, 1, 1),
                RegionLabel::new(4, 4, 8, 8, 1, 1),
            ],
        )
        .unwrap();
        let mut enc = RhythmicEncoder::new(16, 16);
        let encoded = enc.encode(&frame, 0, &regions);
        // 64 + 64 - 16 overlap = 112 unique pixels.
        assert_eq!(encoded.pixel_count(), 112);
    }

    #[test]
    fn overlap_priority_prefers_regional() {
        // A strided region overlapping a full-res region: the full-res
        // region's R wins everywhere they overlap.
        let frame = gradient(8, 8);
        let regions = RegionList::new(
            8,
            8,
            vec![
                RegionLabel::new(0, 0, 8, 8, 4, 1), // sparse
                RegionLabel::new(0, 0, 4, 4, 1, 1), // dense corner
            ],
        )
        .unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        let encoded = enc.encode(&frame, 0, &regions);
        let mask = &encoded.metadata().mask;
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(mask.get(x, y), PixelStatus::Regional);
            }
        }
        // Outside the dense corner the sparse grid applies.
        assert_eq!(mask.get(4, 0), PixelStatus::Regional);
        assert_eq!(mask.get(5, 0), PixelStatus::Strided);
    }

    #[test]
    fn encoded_pixels_preserve_raster_order() {
        let frame = gradient(8, 4);
        let regions = RegionList::new(
            8,
            4,
            vec![
                RegionLabel::new(6, 0, 2, 1, 1, 1),
                RegionLabel::new(0, 0, 2, 1, 1, 1),
            ],
        )
        .unwrap();
        let mut enc = RhythmicEncoder::new(8, 4);
        let encoded = enc.encode(&frame, 0, &regions);
        let expected: Vec<u8> = [0u32, 1, 6, 7]
            .iter()
            .map(|&x| frame.get(x, 0).unwrap())
            .collect();
        assert_eq!(encoded.pixels(), &expected[..]);
    }

    #[test]
    fn metadata_is_always_consistent() {
        let frame = gradient(32, 32);
        let regions = RegionList::new(
            32,
            32,
            vec![
                RegionLabel::new(1, 3, 9, 7, 2, 1),
                RegionLabel::new(8, 8, 16, 16, 3, 2),
                RegionLabel::new(20, 0, 12, 32, 1, 3),
            ],
        )
        .unwrap();
        let mut enc = RhythmicEncoder::new(32, 32);
        for idx in 0..6 {
            let encoded = enc.encode(&frame, idx, &regions);
            assert!(encoded.metadata().is_consistent(), "frame {idx}");
        }
    }

    #[test]
    fn hybrid_engine_does_less_work_than_parallel() {
        let frame = gradient(64, 64);
        let regions = RegionList::new(
            64,
            64,
            (0..20)
                .map(|i| RegionLabel::new((i % 8) * 8, (i / 8) * 8, 6, 6, 1, 1))
                .collect(),
        )
        .unwrap();
        let mut hybrid = RhythmicEncoder::new(64, 64);
        hybrid.encode(&frame, 0, &regions);
        let mut parallel = RhythmicEncoder::with_config(
            64,
            64,
            EncoderConfig { engine: EngineKind::Parallel, run_length_reuse: true },
        );
        parallel.encode(&frame, 0, &regions);
        assert!(
            hybrid.stats().comparisons * 10 < parallel.stats().comparisons,
            "hybrid {} vs parallel {}",
            hybrid.stats().comparisons,
            parallel.stats().comparisons
        );
    }

    #[test]
    fn run_length_reuse_reduces_comparisons() {
        let frame = gradient(64, 64);
        let regions =
            RegionList::new(64, 64, vec![RegionLabel::new(0, 0, 64, 64, 1, 1)]).unwrap();
        let mut with = RhythmicEncoder::new(64, 64);
        with.encode(&frame, 0, &regions);
        let mut without = RhythmicEncoder::with_config(
            64,
            64,
            EncoderConfig { engine: EngineKind::Hybrid, run_length_reuse: false },
        );
        without.encode(&frame, 0, &regions);
        assert!(with.stats().comparisons < without.stats().comparisons);
    }

    #[test]
    fn streaming_matches_whole_frame_encoder() {
        let frame = gradient(24, 16);
        let regions = RegionList::new(
            24,
            16,
            vec![
                RegionLabel::new(0, 2, 10, 6, 2, 1),
                RegionLabel::new(8, 4, 12, 10, 1, 2),
                RegionLabel::new(3, 3, 6, 6, 3, 3),
            ],
        )
        .unwrap();
        for frame_idx in 0..4 {
            let mut whole = RhythmicEncoder::new(24, 16);
            let expected = whole.encode(&frame, frame_idx, &regions);
            let mut streaming =
                StreamingEncoder::begin(24, 16, frame_idx, regions.clone());
            for &px in frame.as_slice() {
                streaming.push(px);
            }
            assert!(streaming.is_complete());
            let actual = streaming.finish();
            assert_eq!(actual, expected, "frame {frame_idx}");
        }
    }

    #[test]
    fn stats_accumulate_across_frames() {
        let frame = gradient(8, 8);
        let regions =
            RegionList::new(8, 8, vec![RegionLabel::new(0, 0, 4, 4, 1, 1)]).unwrap();
        let mut enc = RhythmicEncoder::new(8, 8);
        enc.encode(&frame, 0, &regions);
        enc.encode(&frame, 1, &regions);
        assert_eq!(enc.stats().frames, 2);
        assert_eq!(enc.stats().pixels_in, 128);
        assert_eq!(enc.stats().pixels_out, 32);
        enc.reset_stats();
        assert_eq!(enc.stats().frames, 0);
    }

    #[test]
    fn tracing_attributes_pixels_to_labels() {
        // Distinctive stride/skip values so concurrent tests that also
        // encode (the trace sink is process-global) cannot collide.
        let frame = gradient(20, 20);
        let regions = RegionList::new(
            20,
            20,
            vec![
                RegionLabel::new(0, 0, 10, 10, 5, 1), // 4 px/frame
                RegionLabel::new(0, 12, 20, 5, 1, 7), // sampled on frame 0 only
            ],
        )
        .unwrap();
        let mut enc = RhythmicEncoder::new(20, 20);
        rpr_trace::enable();
        enc.encode(&frame, 0, &regions);
        enc.encode(&frame, 1, &regions);
        rpr_trace::disable();
        let events: Vec<_> = rpr_trace::drain()
            .into_iter()
            .filter(|e| {
                e.name == rpr_trace::names::ENCODER_LABEL_PX
                    && (e.provenance.stride == Some(5) || e.provenance.skip == Some(7))
            })
            .collect();
        let dense: Vec<_> =
            events.iter().filter(|e| e.provenance.stride == Some(5)).collect();
        assert_eq!(dense.len(), 2, "strided label sampled on both frames");
        assert!(dense.iter().all(|e| e.value == 4.0), "10x10 stride-5 keeps 2x2");
        let skipped: Vec<_> =
            events.iter().filter(|e| e.provenance.skip == Some(7)).collect();
        assert_eq!(skipped.len(), 1, "skip-7 label captures only frame 0");
        assert_eq!(skipped[0].value, 100.0);
        assert_eq!(skipped[0].provenance.label_id, Some(1));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn encode_rejects_wrong_frame_size() {
        let frame = gradient(8, 8);
        let mut enc = RhythmicEncoder::new(16, 16);
        enc.encode(&frame, 0, &RegionList::full_frame(16, 16));
    }
}
