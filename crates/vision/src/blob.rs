use rpr_frame::{GrayFrame, Rect};
use serde::{Deserialize, Serialize};

/// A connected component of above-threshold pixels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Blob {
    /// Tight bounding box.
    pub bbox: Rect,
    /// Number of member pixels.
    pub area: u64,
    /// Centroid x.
    pub cx: f64,
    /// Centroid y.
    pub cy: f64,
    /// Mean intensity of member pixels.
    pub mean_intensity: f64,
}

/// Finds connected components of pixels `>= threshold` (4-connectivity)
/// with at least `min_area` pixels, sorted by descending area.
///
/// The synthetic pose and face workloads render their targets as bright
/// structures on darker backgrounds, so blob detection is the
/// sufficient-statistics detector — and, crucially for the evaluation,
/// it degrades gracefully when the rhythmic encoder blanks non-regional
/// pixels (missing pixels go black, shrinking or splitting blobs, which
/// is exactly the accuracy-loss mechanism the paper measures).
///
/// This allocates fresh buffers on every call; a per-frame caller keeps
/// a [`BlobScratch`] and calls [`detect_blobs_into`] instead.
///
/// # Example
///
/// ```
/// use rpr_frame::{Plane, Rect};
/// use rpr_vision::detect_blobs;
///
/// let mut frame = Plane::new(64, 64);
/// frame.fill_rect(Rect::new(10, 12, 8, 6), 255u8);
/// let blobs = detect_blobs(&frame, 128, 4);
/// assert_eq!(blobs.len(), 1);
/// assert_eq!(blobs[0].bbox, Rect::new(10, 12, 8, 6));
/// assert_eq!(blobs[0].area, 48);
/// ```
pub fn detect_blobs(frame: &GrayFrame, threshold: u8, min_area: u64) -> Vec<Blob> {
    let mut blobs = Vec::new();
    detect_blobs_into(
        &mut BlobScratch::default(),
        frame,
        threshold,
        min_area,
        &mut blobs,
    );
    blobs
}

/// One run of above-threshold pixels while labelling, and later the
/// accumulated statistics of the component whose root it is.
#[derive(Debug, Clone, Copy)]
struct Component {
    min_x: u32,
    /// Inclusive.
    max_x: u32,
    min_y: u32,
    /// Inclusive.
    max_y: u32,
    area: u64,
    sum_x: u64,
    sum_y: u64,
    sum_v: u64,
}

impl Component {
    /// The run `row[x0..x1]` of row `y`.
    fn run(row: &[u8], y: usize, x0: usize, x1: usize) -> Component {
        let len = (x1 - x0) as u64;
        Component {
            min_x: x0 as u32,
            max_x: (x1 - 1) as u32,
            min_y: y as u32,
            max_y: y as u32,
            area: len,
            // x0 + (x0 + 1) + … + (x1 - 1); the product is always even.
            sum_x: (x0 + x1 - 1) as u64 * len / 2,
            sum_y: y as u64 * len,
            // A fold, not `sum`: runs are a few pixels long, and the
            // vectorized `sum` loop cost twice as much on pose frames.
            sum_v: row[x0..x1].iter().fold(0, |s, &v| s + u64::from(v)),
        }
    }

    fn absorb(&mut self, other: &Component) {
        self.min_x = self.min_x.min(other.min_x);
        self.max_x = self.max_x.max(other.max_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_y = self.max_y.max(other.max_y);
        self.area += other.area;
        self.sum_x += other.sum_x;
        self.sum_y += other.sum_y;
        self.sum_v += other.sum_v;
    }

    /// The sums are exact integers, so each division rounds once — the
    /// same bits as the flood fill's exact f64 running sums.
    fn blob(&self) -> Blob {
        let area = self.area as f64;
        Blob {
            bbox: Rect::new(
                self.min_x,
                self.min_y,
                self.max_x - self.min_x + 1,
                self.max_y - self.min_y + 1,
            ),
            area: self.area,
            cx: self.sum_x as f64 / area,
            cy: self.sum_y as f64 / area,
            mean_intensity: self.sum_v as f64 / area,
        }
    }
}

/// Buffers [`detect_blobs_into`] reuses across frames: the row runs
/// (later the component statistics) and their union-find parents.
#[derive(Debug, Clone, Default)]
pub struct BlobScratch {
    runs: Vec<Component>,
    parent: Vec<u32>,
}

impl BlobScratch {
    /// Empty scratch; it grows to the largest frame's run count.
    pub fn new() -> Self {
        BlobScratch::default()
    }
}

/// [`detect_blobs`] into `out` (cleared first), reusing `scratch`'s
/// buffers, so a caller that keeps both allocates nothing once they
/// have grown to its frames.
///
/// It labels by runs: each row is split into runs of pixels
/// `>= threshold`, and runs in adjacent rows that overlap in x are
/// joined by union-find, whose root is always the lower run index.
/// Runs are numbered in raster order, so a component's root is the
/// run holding its first raster pixel, and the components come out in
/// the order [`detect_blobs_scalar`]'s flood fill finds them; the
/// stable sort by area then keeps its tie order. The output equals
/// `detect_blobs_scalar`'s field for field, f64 bits included.
///
/// # Example
///
/// ```
/// use rpr_frame::{Plane, Rect};
/// use rpr_vision::{detect_blobs_into, BlobScratch};
///
/// let mut scratch = BlobScratch::new();
/// let mut blobs = Vec::new();
/// let mut frame = Plane::new(64, 64);
/// frame.fill_rect(Rect::new(10, 12, 8, 6), 255u8);
/// detect_blobs_into(&mut scratch, &frame, 128, 4, &mut blobs);
/// assert_eq!(blobs[0].bbox, Rect::new(10, 12, 8, 6));
/// ```
pub fn detect_blobs_into(
    scratch: &mut BlobScratch,
    frame: &GrayFrame,
    threshold: u8,
    min_area: u64,
    out: &mut Vec<Blob>,
) {
    out.clear();
    let BlobScratch { runs, parent } = scratch;
    runs.clear();
    parent.clear();
    let w = frame.width() as usize;
    if w == 0 {
        return;
    }
    let mut above = 0..0;
    for (y, row) in frame.as_slice().chunks_exact(w).enumerate() {
        let start = runs.len();
        for_each_bright_run(row, threshold, |x0, x1| {
            // rpr-check: allow(hot-path-alloc): amortized: the scratch keeps its capacity across frames
            parent.push(runs.len() as u32);
            // rpr-check: allow(hot-path-alloc): amortized: the scratch keeps its capacity across frames
            runs.push(Component::run(row, y, x0, x1));
        });
        let below = start..runs.len();
        join_overlapping(runs, parent, above, below.clone());
        above = below;
    }
    // Point every run at its root: a run's parent is never above its
    // own index, and the runs before it already point at their roots.
    for r in 0..parent.len() {
        parent[r] = parent[parent[r] as usize];
    }
    for r in 0..runs.len() {
        let root = parent[r] as usize;
        if root != r {
            let run = runs[r];
            runs[root].absorb(&run);
        }
    }
    for (r, c) in runs.iter().enumerate() {
        if parent[r] as usize == r && c.area >= min_area {
            // rpr-check: allow(hot-path-alloc): amortized: the caller keeps `out` across frames
            out.push(c.blob());
        }
    }
    out.sort_by_key(|b| std::cmp::Reverse(b.area));
}

/// Calls `f(x0, x1)` for each maximal run `row[x0..x1]` of pixels
/// `>= threshold`, left to right. A 32-pixel chunk whose maximum is
/// below the threshold is skipped whole; the others are turned into a
/// bit mask whose edges are the run ends.
fn for_each_bright_run(row: &[u8], threshold: u8, mut f: impl FnMut(usize, usize)) {
    let splat = u64::from(threshold) * 0x0101_0101_0101_0101;
    let mut open: Option<usize> = None;
    for (c, chunk) in row.chunks(32).enumerate() {
        let base = c * 32;
        if chunk.iter().fold(0, |m, &v| m.max(v)) < threshold {
            if let Some(x0) = open.take() {
                f(x0, base);
            }
            continue;
        }
        let mut bright = 0u64;
        let mut words = chunk.chunks_exact(8);
        for (k, word) in (&mut words).enumerate() {
            let word = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes);
            bright |= bytes_at_least(word, splat) << (8 * k);
        }
        let tail = words.remainder();
        let tail_start = chunk.len() - tail.len();
        for (i, &v) in tail.iter().enumerate() {
            bright |= u64::from(v >= threshold) << (tail_start + i);
        }
        // Bit i is set where pixel i differs from pixel i - 1 (the
        // previous chunk's last pixel for i = 0).
        let carried = u64::from(open.is_some());
        let mut edges = (bright ^ (bright << 1 | carried)) & ((1u64 << chunk.len()) - 1);
        while edges != 0 {
            let x = base + edges.trailing_zeros() as usize;
            match open.take() {
                Some(x0) => f(x0, x),
                None => open = Some(x),
            }
            edges &= edges - 1;
        }
    }
    if let Some(x0) = open {
        f(x0, row.len());
    }
}

/// Bit i of the result is set when byte i of `word` is `>=` byte i of
/// `splat` (unsigned, all eight bytes at once).
fn bytes_at_least(word: u64, splat: u64) -> u64 {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Per byte: 128 + low7(word) - low7(splat), which never borrows
    // across bytes; its high bit says low7(word) >= low7(splat).
    let low_ge = (word | HIGH).wrapping_sub(splat & !HIGH);
    // Where the high bits differ, the word's decides; else the low 7.
    let ge = ((word & !splat) | (!(word ^ splat) & low_ge)) & HIGH;
    // Gather the eight high bits into the low byte, byte i to bit i.
    ((ge >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Unions every run of `above` with every run of `below` it overlaps
/// in x. Both ranges are sorted and disjoint within their row, so one
/// merge-style pass finds every overlapping pair.
fn join_overlapping(
    runs: &[Component],
    parent: &mut [u32],
    above: std::ops::Range<usize>,
    below: std::ops::Range<usize>,
) {
    let (mut i, mut j) = (above.start, below.start);
    while i < above.end && j < below.end {
        let (a, b) = (&runs[i], &runs[j]);
        if a.min_x <= b.max_x && b.min_x <= a.max_x {
            union(parent, i, j);
        }
        if a.max_x <= b.max_x {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// The root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        let grand = parent[parent[x] as usize];
        parent[x] = grand;
        x = grand as usize;
    }
    x
}

/// Joins the sets of `a` and `b` under the lower of their roots.
fn union(parent: &mut [u32], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb) as u32;
    }
}

/// The pixel-by-pixel flood fill [`detect_blobs_into`] replaced, kept
/// unchanged as its differential reference.
pub fn detect_blobs_scalar(frame: &GrayFrame, threshold: u8, min_area: u64) -> Vec<Blob> {
    let w = frame.width() as usize;
    let h = frame.height() as usize;
    if w == 0 || h == 0 {
        return Vec::new();
    }
    let data = frame.as_slice();
    let mut visited = vec![false; w * h];
    let mut blobs = Vec::new();
    let mut stack: Vec<usize> = Vec::new();

    for start in 0..w * h {
        if visited[start] || data[start] < threshold {
            continue;
        }
        // Flood fill.
        let mut min_x = usize::MAX;
        let mut min_y = usize::MAX;
        let mut max_x = 0usize;
        let mut max_y = 0usize;
        let mut area = 0u64;
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        let mut sum_v = 0.0;
        stack.push(start);
        visited[start] = true;
        while let Some(i) = stack.pop() {
            let x = i % w;
            let y = i / w;
            area += 1;
            sum_x += x as f64;
            sum_y += y as f64;
            sum_v += f64::from(data[i]);
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
            // 4-neighbours.
            if x > 0 && !visited[i - 1] && data[i - 1] >= threshold {
                visited[i - 1] = true;
                stack.push(i - 1);
            }
            if x + 1 < w && !visited[i + 1] && data[i + 1] >= threshold {
                visited[i + 1] = true;
                stack.push(i + 1);
            }
            if y > 0 && !visited[i - w] && data[i - w] >= threshold {
                visited[i - w] = true;
                stack.push(i - w);
            }
            if y + 1 < h && !visited[i + w] && data[i + w] >= threshold {
                visited[i + w] = true;
                stack.push(i + w);
            }
        }
        if area >= min_area {
            blobs.push(Blob {
                bbox: Rect::new(
                    min_x as u32,
                    min_y as u32,
                    (max_x - min_x + 1) as u32,
                    (max_y - min_y + 1) as u32,
                ),
                area,
                cx: sum_x / area as f64,
                cy: sum_y / area as f64,
                mean_intensity: sum_v / area as f64,
            });
        }
    }
    blobs.sort_by_key(|b| std::cmp::Reverse(b.area));
    blobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_frame::Plane;

    #[test]
    fn finds_multiple_separate_blobs() {
        let mut frame: GrayFrame = Plane::new(64, 64);
        frame.fill_rect(Rect::new(5, 5, 10, 10), 200);
        frame.fill_rect(Rect::new(40, 40, 4, 4), 220);
        let blobs = detect_blobs(&frame, 128, 1);
        assert_eq!(blobs.len(), 2);
        // Sorted by area descending.
        assert_eq!(blobs[0].area, 100);
        assert_eq!(blobs[1].area, 16);
    }

    #[test]
    fn touching_regions_merge() {
        let mut frame: GrayFrame = Plane::new(32, 32);
        frame.fill_rect(Rect::new(0, 0, 8, 8), 200);
        frame.fill_rect(Rect::new(8, 0, 8, 8), 200); // shares an edge? (8..16)
        let blobs = detect_blobs(&frame, 128, 1);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].bbox, Rect::new(0, 0, 16, 8));
    }

    #[test]
    fn diagonal_only_contact_stays_separate() {
        let mut frame: GrayFrame = Plane::new(16, 16);
        frame.set(4, 4, 200);
        frame.set(5, 5, 200);
        let blobs = detect_blobs(&frame, 128, 1);
        assert_eq!(blobs.len(), 2, "4-connectivity must not merge diagonals");
    }

    #[test]
    fn min_area_filters_specks() {
        let mut frame: GrayFrame = Plane::new(32, 32);
        frame.set(1, 1, 255);
        frame.fill_rect(Rect::new(10, 10, 5, 5), 255);
        let blobs = detect_blobs(&frame, 128, 4);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 25);
    }

    #[test]
    fn centroid_is_geometric_center() {
        let mut frame: GrayFrame = Plane::new(32, 32);
        frame.fill_rect(Rect::new(10, 20, 5, 3), 255);
        let blobs = detect_blobs(&frame, 128, 1);
        assert!((blobs[0].cx - 12.0).abs() < 1e-9);
        assert!((blobs[0].cy - 21.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_is_inclusive() {
        let mut frame: GrayFrame = Plane::new(8, 8);
        frame.set(3, 3, 128);
        assert_eq!(detect_blobs(&frame, 128, 1).len(), 1);
        assert_eq!(detect_blobs(&frame, 129, 1).len(), 0);
    }

    #[test]
    fn empty_and_dark_frames_yield_nothing() {
        let dark: GrayFrame = Plane::new(16, 16);
        assert!(detect_blobs(&dark, 1, 1).is_empty());
        let empty: GrayFrame = Plane::new(0, 0);
        assert!(detect_blobs(&empty, 1, 1).is_empty());
    }

    #[test]
    fn byte_compare_matches_every_pair() {
        for t in 0..=255u8 {
            let splat = u64::from(t) * 0x0101_0101_0101_0101;
            for v in 0..=255u8 {
                for lane in [0, 3, 7] {
                    // The other lanes hold the neighbouring values, so a
                    // borrow or carry between lanes would show.
                    let mut bytes = [v.wrapping_add(1); 8];
                    bytes[lane] = v;
                    let mask = bytes_at_least(u64::from_le_bytes(bytes), splat);
                    let want: u64 = (0..8).map(|i| u64::from(bytes[i] >= t) << i).sum();
                    assert_eq!(mask, want, "byte {v} threshold {t} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn full_frame_blob() {
        let bright = Plane::from_fn(16, 16, |_, _| 255u8);
        let blobs = detect_blobs(&bright, 1, 1);
        assert_eq!(blobs.len(), 1);
        assert_eq!(blobs[0].area, 256);
        assert_eq!(blobs[0].bbox, Rect::new(0, 0, 16, 16));
    }
}
