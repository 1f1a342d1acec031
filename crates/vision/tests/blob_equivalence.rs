//! Differential battery: the run labeller (`detect_blobs_into`, and
//! `detect_blobs` over it) against the flood fill it replaced
//! (`detect_blobs_scalar`).
//!
//! The two must agree byte for byte: the same blobs in the same order,
//! with the same f64 bits in every centroid and mean. Widths run over
//! 1..=70 so that runs start and end on every side of the labeller's
//! 32-pixel chunk edges; the hand-built shapes cover blobs that fill a
//! pixel, a row, a column or the frame, shapes whose arms only merge
//! rows later (U, comb, spiral), diagonal-only contact, ties in area,
//! and `min_area` filtering. One scratch is reused across frames of
//! different sizes throughout, so stale scratch state would show.

use proptest::prelude::*;
use rpr_frame::{GrayFrame, Plane, Rect};
use rpr_vision::{detect_blobs, detect_blobs_into, detect_blobs_scalar, Blob, BlobScratch};

/// A blob as comparable bits: bbox, area, then the f64 fields' bits.
type Key = (Rect, u64, u64, u64, u64);

fn keys(blobs: &[Blob]) -> Vec<Key> {
    blobs
        .iter()
        .map(|b| {
            (
                b.bbox,
                b.area,
                b.cx.to_bits(),
                b.cy.to_bits(),
                b.mean_intensity.to_bits(),
            )
        })
        .collect()
}

/// Asserts that both entry points equal the reference, reusing
/// `scratch` and `out` as a per-frame caller would.
fn check(
    scratch: &mut BlobScratch,
    out: &mut Vec<Blob>,
    frame: &GrayFrame,
    threshold: u8,
    min_area: u64,
) {
    let (w, h) = (frame.width(), frame.height());
    let want = keys(&detect_blobs_scalar(frame, threshold, min_area));
    detect_blobs_into(scratch, frame, threshold, min_area, out);
    assert_eq!(
        keys(out),
        want,
        "{w}x{h}, threshold {threshold}, min_area {min_area}"
    );
    let fresh = keys(&detect_blobs(frame, threshold, min_area));
    assert_eq!(
        fresh, want,
        "detect_blobs on {w}x{h}, threshold {threshold}, min_area {min_area}"
    );
}

/// Small deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }
}

/// A `w x h` frame where each pixel is bright with probability
/// `density / 256`, bright and dark values drawn around 128.
fn speckled(w: u32, h: u32, seed: u64, density: u32) -> GrayFrame {
    let mut rng = Lcg(seed);
    Plane::from_fn(w, h, |_, _| {
        let r = rng.next();
        if r % 256 < density {
            128 + (r >> 8) as u8 % 128
        } else {
            (r >> 8) as u8 % 128
        }
    })
}

/// A frame with `n` random bright rectangles of varied intensity on a
/// dark textured background: blobs that touch, nest and overlap.
fn rectangles(w: u32, h: u32, seed: u64, n: u32) -> GrayFrame {
    let mut rng = Lcg(seed);
    let mut frame = Plane::from_fn(w, h, |x, y| ((x * 7 + y * 3) % 40) as u8);
    for _ in 0..n {
        let x = rng.next() % w;
        let y = rng.next() % h;
        let rw = 1 + rng.next() % (w - x);
        let rh = 1 + rng.next() % (h - y);
        frame.fill_rect(Rect::new(x, y, rw, rh), 150 + (rng.next() % 106) as u8);
    }
    frame
}

const THRESHOLDS: [u8; 5] = [0, 1, 128, 200, 255];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random speckle at any density, width 1..=70, threshold random.
    #[test]
    fn speckle_matches_flood_fill(
        w in 1u32..=70,
        h in 1u32..=24,
        seed in 0u64..u64::MAX,
        density in 0u32..=256,
        threshold in 0u8..=255,
        min_area in 0u64..6,
    ) {
        let frame = speckled(w, h, seed, density);
        let mut scratch = BlobScratch::new();
        let mut out = Vec::new();
        check(&mut scratch, &mut out, &frame, threshold, min_area);
        for t in THRESHOLDS {
            check(&mut scratch, &mut out, &frame, t, min_area);
        }
    }

    /// Overlapping rectangles: large blobs, equal-area ties, min_area
    /// cuts in the middle of the area distribution.
    #[test]
    fn rectangles_match_flood_fill(
        w in 1u32..=70,
        h in 1u32..=40,
        seed in 0u64..u64::MAX,
        n in 0u32..12,
        threshold in 0u8..=255,
        min_area in 0u64..40,
    ) {
        let frame = rectangles(w, h, seed, n);
        let mut scratch = BlobScratch::new();
        let mut out = Vec::new();
        check(&mut scratch, &mut out, &frame, threshold, min_area);
        check(&mut scratch, &mut out, &frame, 150, 1);
    }

    /// One scratch and one output vector across a sequence of frames
    /// of different sizes: nothing of an earlier frame may leak.
    #[test]
    fn reused_scratch_matches_flood_fill(seed in 0u64..u64::MAX, frames in 2usize..8) {
        let mut rng = Lcg(seed);
        let mut scratch = BlobScratch::new();
        let mut out = Vec::new();
        for i in 0..frames {
            let w = 1 + rng.next() % 70;
            let h = 1 + rng.next() % 30;
            let frame = if i % 2 == 0 {
                rectangles(w, h, seed ^ i as u64, rng.next() % 8)
            } else {
                speckled(w, h, seed ^ i as u64, rng.next() % 257)
            };
            let threshold = (rng.next() % 256) as u8;
            let min_area = u64::from(rng.next() % 4);
            check(&mut scratch, &mut out, &frame, threshold, min_area);
        }
    }
}

/// Runs `check` on `frame` at every fixed threshold and a few
/// `min_area`s with one shared scratch.
fn check_all(scratch: &mut BlobScratch, frame: &GrayFrame) {
    let mut out = Vec::new();
    for t in THRESHOLDS {
        for min_area in [0, 1, 2, 5, 64] {
            check(scratch, &mut out, frame, t, min_area);
        }
    }
}

#[test]
fn single_pixel_blobs_on_every_column() {
    let mut scratch = BlobScratch::new();
    for w in 1..=70u32 {
        for x in [0, w / 2, w.saturating_sub(1), 31.min(w - 1), 32.min(w - 1)] {
            let mut frame: GrayFrame = Plane::new(w, 3);
            frame.set(x, 1, 255);
            check_all(&mut scratch, &frame);
        }
    }
}

#[test]
fn full_row_full_column_and_full_frame_blobs() {
    let mut scratch = BlobScratch::new();
    for w in 1..=70u32 {
        let mut row: GrayFrame = Plane::new(w, 5);
        row.fill_rect(Rect::new(0, 2, w, 1), 200);
        check_all(&mut scratch, &row);

        let mut column: GrayFrame = Plane::new(w, 9);
        column.fill_rect(Rect::new(w / 2, 0, 1, 9), 200);
        check_all(&mut scratch, &column);

        let full = Plane::from_fn(w, 7, |x, y| 200 + ((x + y) % 50) as u8);
        check_all(&mut scratch, &full);
    }
}

/// Runs that begin and end on each side of a 32-pixel chunk edge.
#[test]
fn runs_around_chunk_edges() {
    let mut scratch = BlobScratch::new();
    for w in [31u32, 32, 33, 63, 64, 65, 70] {
        for x0 in 0..w {
            for len in [1u32, 2, 31, 32, 33] {
                let len = len.min(w - x0);
                let mut frame: GrayFrame = Plane::new(w, 2);
                frame.fill_rect(Rect::new(x0, 0, len, 1), 255);
                frame.fill_rect(Rect::new(w - 1 - x0.min(w - 1), 1, 1, 1), 255);
                check_all(&mut scratch, &frame);
            }
        }
    }
}

/// A U whose arms are separate runs on every row but the bottom one:
/// the arms only join on the last row.
fn u_shape(w: u32, h: u32) -> GrayFrame {
    let mut frame: GrayFrame = Plane::new(w, h);
    frame.fill_rect(Rect::new(0, 0, 1, h), 220);
    frame.fill_rect(Rect::new(w - 1, 0, 1, h), 220);
    frame.fill_rect(Rect::new(0, h - 1, w, 1), 220);
    frame
}

/// A comb: teeth on every other column, joined by the bottom spine.
fn comb(w: u32, h: u32) -> GrayFrame {
    let mut frame: GrayFrame = Plane::new(w, h);
    for x in (0..w).step_by(2) {
        frame.fill_rect(Rect::new(x, 0, 1, h), 180 + (x % 70) as u8);
    }
    frame.fill_rect(Rect::new(0, h - 1, w, 1), 255);
    frame
}

/// A square spiral of bright 1-pixel walls with 1-pixel gaps, walked
/// inwards: its first raster pixel is far from where it closes.
fn spiral(n: u32) -> GrayFrame {
    let mut frame: GrayFrame = Plane::new(n, n);
    let (mut x0, mut y0, mut x1, mut y1) = (0i64, 0i64, i64::from(n) - 1, i64::from(n) - 1);
    let mut set = |x: i64, y: i64| frame.set(x as u32, y as u32, 240);
    while x0 <= x1 && y0 <= y1 {
        for x in x0..=x1 {
            set(x, y0);
        }
        for y in y0..=y1 {
            set(x1, y);
        }
        for x in x0..=x1 {
            set(x, y1);
        }
        for y in y0 + 2..=y1 {
            set(x0, y);
        }
        if x0 + 2 <= x1 {
            set(x0 + 1, y0 + 2);
        }
        x0 += 2;
        y0 += 2;
        x1 -= 2;
        y1 -= 2;
    }
    frame
}

#[test]
fn shapes_that_merge_late() {
    let mut scratch = BlobScratch::new();
    for w in [2u32, 3, 5, 31, 32, 33, 64, 70] {
        for h in [1u32, 2, 5, 17] {
            check_all(&mut scratch, &u_shape(w, h));
            check_all(&mut scratch, &comb(w, h));
            // The comb mirrored: the spine on top, teeth hanging down.
            let c = comb(w, h);
            let flipped = Plane::from_fn(w, h, |x, y| c.get(x, h - 1 - y).unwrap_or(0));
            check_all(&mut scratch, &flipped);
        }
    }
    for n in 1..=40 {
        let frame = spiral(n);
        assert_eq!(
            detect_blobs_scalar(&frame, 128, 1).len(),
            1,
            "spiral {n} is one component"
        );
        check_all(&mut scratch, &frame);
    }
    // Stairs: each row's run overlaps only the row above's last pixel,
    // the next staircase starts left of the previous one's root.
    for w in [8u32, 33, 70] {
        let frame = Plane::from_fn(w, w, |x, y| if (x + y) % 11 < 3 { 200 } else { 0 });
        check_all(&mut scratch, &frame);
    }
}

#[test]
fn diagonal_only_contact_stays_apart() {
    let mut scratch = BlobScratch::new();
    for w in 1..=70u32 {
        let checker = Plane::from_fn(w, 6, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        check_all(&mut scratch, &checker);
        let n = w.min(20);
        let diagonal = Plane::from_fn(n, n, |x, y| if x == y || x + y == n - 1 { 255 } else { 0 });
        check_all(&mut scratch, &diagonal);
    }
    let checker = Plane::from_fn(9, 9, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
    assert_eq!(detect_blobs(&checker, 128, 1).len(), 41);
}

#[test]
fn equal_areas_keep_first_pixel_order() {
    let mut scratch = BlobScratch::new();
    // Four 3x3 squares and two 9-pixel bars, placed so that their first
    // raster pixels interleave with their centroids.
    let mut frame: GrayFrame = Plane::new(70, 20);
    for (i, r) in [
        Rect::new(50, 1, 3, 3),
        Rect::new(5, 2, 3, 3),
        Rect::new(30, 0, 9, 1),
        Rect::new(20, 6, 3, 3),
        Rect::new(60, 6, 1, 9),
        Rect::new(1, 12, 3, 3),
    ]
    .into_iter()
    .enumerate()
    {
        frame.fill_rect(r, 150 + 10 * i as u8);
    }
    check_all(&mut scratch, &frame);
    let blobs = detect_blobs(&frame, 128, 1);
    assert!(blobs.iter().all(|b| b.area == 9));
    let firsts: Vec<(u32, u32)> = blobs.iter().map(|b| (b.bbox.y, b.bbox.x)).collect();
    assert_eq!(
        firsts,
        vec![(0, 30), (1, 50), (2, 5), (6, 20), (6, 60), (12, 1)]
    );
}

#[test]
fn min_area_filters_the_same_components() {
    let mut scratch = BlobScratch::new();
    let frame = rectangles(70, 40, 7, 10);
    let mut out = Vec::new();
    for min_area in 0..200 {
        check(&mut scratch, &mut out, &frame, 150, min_area);
    }
}

#[test]
fn empty_frames_and_stale_scratch() {
    let mut scratch = BlobScratch::new();
    let mut out = Vec::new();
    check(&mut scratch, &mut out, &rectangles(70, 40, 3, 10), 150, 1);
    assert!(!out.is_empty());
    for (w, h) in [(0, 0), (0, 5), (5, 0)] {
        let empty: GrayFrame = Plane::new(w, h);
        detect_blobs_into(&mut scratch, &empty, 0, 0, &mut out);
        assert!(out.is_empty(), "{w}x{h} must clear the output");
    }
    let dark: GrayFrame = Plane::new(33, 3);
    detect_blobs_into(&mut scratch, &dark, 1, 0, &mut out);
    assert!(out.is_empty());
}
