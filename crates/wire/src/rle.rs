//! Run coding of the 2-bit EncMask by its stride pattern.
//!
//! The EncMask is the dominant metadata cost (2 bits for every pixel of
//! the original frame, ~506 KB at 1080p), and its structure is the
//! paper's rhythm: region interiors are solid `R`/`St`/`Sk` spans, the
//! background is one long `N` run per row gap, and a strided row
//! repeats a short pattern (`R·St·R·St…` at stride 2). The wire format
//! codes the mask as runs in raster order, one varint per run:
//!
//! ```text
//! run := varint( run_len << 3 | code )            run_len >= 1
//! code 0..=3  solid run: every entry is that status
//! code 4      pattern run: one pattern byte follows
//! code 5      pattern run repeating the last pattern byte
//! code 6, 7   reserved, refused
//! ```
//!
//! A pattern run repeats its byte's four entries aligned to absolute
//! entry positions: entry `i` of the mask takes the byte's slot
//! `i % 4`, the same slot it occupies in the packed layout. So `0x77`
//! is `R·St` wherever the run starts, and a whole strided span is one
//! run. Code 5 is a one-slot cache of recent pattern bytes (the
//! recent-value index of the qoir op stream): the second row of a
//! stride-2 region costs a single varint.
//!
//! The decoder requires the runs to cover exactly `width * height`
//! entries; anything else is a typed [`WireError::BadRle`]. Solid runs
//! up to 15 entries fit in one byte. Degenerate masks (per-pixel
//! checkerboards) can still come out larger than the packed mask,
//! which is why the frame codec falls back to raw
//! ([`crate::MaskCodec::Auto`]).
//!
//! **Canonical runs.** At entry `i`, let `solid` be the length of the
//! run of equal entries there and `pattern` the length of the run that
//! matches the four entries `i..i + 4` at their absolute slots (none
//! when fewer than four entries remain). The coder emits the pattern
//! run when it is at least [`MIN_PATTERN_RUN`] entries and longer than
//! `solid`, else the solid run. Both lengths are found by comparing 32
//! entries (one u64 of packed bytes) per step against the repeated
//! byte, and [`inflate_into`] fills each run as a head, one
//! `slice::fill` of its byte and a tail. The per-entry loops
//! [`compress_scalar`] and [`inflate_scalar`] are the references the
//! kernel-equivalence battery pins both to (TESTING.md).

use crate::varint::{read_varint, write_varint};
use crate::{Result, WireError};
use rpr_core::kernels::{entry_at, splat_byte};

/// Run code of a pattern run whose pattern byte follows the varint.
pub const CODE_PATTERN: u8 = 4;
/// Run code of a pattern run repeating the last pattern byte read.
pub const CODE_REPEAT: u8 = 5;
/// Shortest pattern run the coder emits; shorter stretches are coded
/// as solid runs, which a pattern run would not beat.
pub const MIN_PATTERN_RUN: usize = 8;

/// The 2-bit entry that pattern byte `pat` holds at absolute entry
/// position `i`.
#[inline(always)]
fn slot(pat: u8, i: usize) -> u8 {
    (pat >> ((i % 4) * 2)) & 0b11
}

/// The pattern byte formed by entries `i..i + 4`, each at its absolute
/// slot: the high slots of byte `i / 4` and the low slots of the next.
/// Entries past the end of `packed` read as `0`.
#[inline]
fn pattern_at(packed: &[u8], i: usize) -> u8 {
    let byte = |k: usize| packed.get(k).copied().unwrap_or(0);
    let shift = (i % 4) * 2;
    if shift == 0 {
        return byte(i / 4);
    }
    let high = 0xFFu8 << shift;
    (byte(i / 4) & high) | (byte(i / 4 + 1) & !high)
}

/// Number of entries from `start` (and before `end`) that match `pat`
/// at their absolute slots. Per entry up to a byte boundary, then 32
/// entries per u64 compare, then whole bytes, then per entry.
fn match_len(packed: &[u8], start: usize, end: usize, pat: u8) -> usize {
    let mut i = start;
    while i < end && !i.is_multiple_of(4) {
        if entry_at(packed, i) != slot(pat, i) {
            return i - start;
        }
        i += 1;
    }
    let splat = u64::from_ne_bytes([pat; 8]);
    while i + 32 <= end {
        let Some(word) = packed.get(i / 4..i / 4 + 8) else {
            break;
        };
        let diff = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes) ^ splat;
        if diff != 0 {
            return i + (diff.trailing_zeros() / 2) as usize - start; // rpr-check: allow(truncating-cast): trailing_zeros of a u64 is at most 64
        }
        i += 32;
    }
    while i + 4 <= end && packed.get(i / 4) == Some(&pat) {
        i += 4;
    }
    while i < end && entry_at(packed, i) == slot(pat, i) {
        i += 1;
    }
    i - start
}

/// Appends one pattern run, as code 5 when `pat` repeats the last
/// pattern byte and as code 4 plus the byte otherwise.
fn write_pattern_run(out: &mut Vec<u8>, run: usize, pat: u8, last: &mut Option<u8>) {
    if *last == Some(pat) {
        write_varint(out, (run as u64) << 3 | u64::from(CODE_REPEAT));
    } else {
        write_varint(out, (run as u64) << 3 | u64::from(CODE_PATTERN));
        out.push(pat);
        *last = Some(pat);
    }
}

/// Run-codes `pixels` 2-bit entries of `packed` into `out` (the
/// canonical runs of the module docs). Entries past the end of
/// `packed` read as `0` (`N`). Returns the number of bytes appended.
pub fn compress(packed: &[u8], pixels: usize, out: &mut Vec<u8>) -> usize {
    let start_len = out.len();
    let mut last = None;
    let mut i = 0;
    while i < pixels {
        let status = entry_at(packed, i);
        let solid = match_len(packed, i, pixels, splat_byte(status));
        // Four equal entries form a splat pattern byte, whose run is
        // exactly the solid run: only a shorter solid run can lose.
        if solid < 4 && i + 4 <= pixels {
            let pat = pattern_at(packed, i);
            let run = 4 + match_len(packed, i + 4, pixels, pat);
            if run >= MIN_PATTERN_RUN && run > solid {
                write_pattern_run(out, run, pat, &mut last);
                i += run;
                continue;
            }
        }
        write_varint(out, (solid as u64) << 3 | u64::from(status));
        i += solid;
    }
    out.len() - start_len
}

/// Per-entry reference implementation of [`compress`]: the canonical
/// rule read literally, one entry compare at a time. The equivalence
/// suite pins [`compress`] byte-identical to it; keep it untouched
/// when optimizing `compress`.
pub fn compress_scalar(packed: &[u8], pixels: usize, out: &mut Vec<u8>) -> usize {
    let start_len = out.len();
    let mut last = None;
    let mut i = 0;
    while i < pixels {
        let status = entry_at(packed, i);
        let mut solid = 1;
        while i + solid < pixels && entry_at(packed, i + solid) == status {
            solid += 1;
        }
        let mut pattern = 0;
        let mut pat = 0u8;
        if i + 4 <= pixels {
            for k in i..i + 4 {
                pat |= entry_at(packed, k) << ((k % 4) * 2);
            }
            pattern = 4;
            while i + pattern < pixels && entry_at(packed, i + pattern) == slot(pat, i + pattern) {
                pattern += 1;
            }
        }
        if pattern >= MIN_PATTERN_RUN && pattern > solid {
            write_pattern_run(out, pattern, pat, &mut last);
            i += pattern;
        } else {
            write_varint(out, (solid as u64) << 3 | u64::from(status));
            i += solid;
        }
    }
    out.len() - start_len
}

/// Reads the run at `*pos` and returns `(end, pattern byte)`: the run
/// covers entries `[filled, end)` and repeats the byte (a splat byte
/// for a solid run). `last` is the pattern cache code 5 reads.
fn next_run(
    buf: &[u8],
    pos: &mut usize,
    last: &mut Option<u8>,
    filled: usize,
    pixels: usize,
) -> Result<(usize, u8)> {
    let bad = |reason: String| WireError::BadRle { reason };
    let v = read_varint(buf, pos, "mask run")?;
    let code = (v & 0b111) as u8; // rpr-check: allow(truncating-cast): masked to 3 bits before the cast
    let run = v >> 3;
    if run == 0 {
        return Err(bad("zero-length run".into()));
    }
    let pat = match code {
        0..=3 => splat_byte(code),
        CODE_PATTERN => {
            let pat =
                *buf.get(*pos).ok_or_else(|| bad("pattern run without its pattern byte".into()))?;
            *pos += 1;
            *last = Some(pat);
            pat
        }
        CODE_REPEAT => last.ok_or_else(|| bad("repeat run before any pattern byte".into()))?,
        _ => return Err(bad(format!("reserved run code {code}"))),
    };
    let run = usize::try_from(run).map_err(|_| bad("run length overflows usize".into()))?;
    let end = filled
        .checked_add(run)
        .filter(|&e| e <= pixels)
        .ok_or_else(|| bad(format!("runs overrun the mask: {filled} + {run} > {pixels}")))?;
    Ok((end, pat))
}

/// Errors unless the runs covered exactly `pixels` entries.
fn check_covered(filled: usize, pixels: usize) -> Result<()> {
    if filled != pixels {
        return Err(WireError::BadRle {
            reason: format!("runs cover {filled} of {pixels} pixels"),
        });
    }
    Ok(())
}

/// Inflates a run-coded mask back into packed 2-bit form.
///
/// `buf` must hold exactly the runs for `pixels` entries: trailing
/// bytes, zero-length runs, reserved codes, a missing pattern byte, a
/// repeat before any pattern, and run totals under or over `pixels`
/// are all rejected. The returned buffer is `pixels.div_ceil(4)` bytes
/// with unused high bits zero (the canonical [`rpr_core::EncMask`]
/// layout).
///
/// # Errors
///
/// [`WireError::BadRle`] or [`WireError::BadVarint`] describing the
/// first defect found.
pub fn inflate(buf: &[u8], pixels: usize) -> Result<Vec<u8>> {
    let mut packed = Vec::new();
    inflate_into(buf, pixels, &mut packed)?;
    Ok(packed)
}

/// [`inflate`] into a caller-supplied buffer (cleared and resized to
/// `pixels.div_ceil(4)`), so a pool can recycle the allocation.
///
/// # Errors
///
/// Same as [`inflate`]; on error the buffer contents are unspecified.
pub fn inflate_into(buf: &[u8], pixels: usize, packed: &mut Vec<u8>) -> Result<()> {
    packed.clear();
    packed.resize(pixels.div_ceil(4), 0);
    let (mut pos, mut filled, mut last) = (0usize, 0usize, None);
    while pos < buf.len() {
        let (end, pat) = next_run(buf, &mut pos, &mut last, filled, pixels)?;
        if pat != 0 {
            fill_entries(packed, filled, end, pat);
        }
        filled = end;
    }
    check_covered(filled, pixels)
}

/// Sets entries `[start, end)` of a zeroed packed buffer to the slots
/// of `pat`: per-entry ORs up to the first byte boundary, one
/// `slice::fill` of `pat` across the body, per-entry ORs for the tail.
/// Absolute alignment is what makes the body a plain fill: every whole
/// byte of a run holds exactly `pat`.
fn fill_entries(packed: &mut [u8], start: usize, end: usize, pat: u8) {
    let or_entries = |packed: &mut [u8], from: usize, to: usize| {
        for i in from..to {
            if let Some(b) = packed.get_mut(i / 4) {
                *b |= pat & (0b11 << ((i % 4) * 2));
            }
        }
    };
    let body_first = start.div_ceil(4); // first byte fully inside the run
    let body_last = end / 4; // one past the last fully covered byte
    if body_first >= body_last {
        // The run covers no whole byte.
        or_entries(packed, start, end);
        return;
    }
    or_entries(packed, start, body_first * 4);
    // Runs never overlap, so a plain fill equals the OR on the zeroed
    // buffer.
    if let Some(body) = packed.get_mut(body_first..body_last) {
        body.fill(pat);
    }
    or_entries(packed, body_last * 4, end);
}

/// Per-entry reference implementation of [`inflate`]: the same run
/// parse, each entry written on its own. The equivalence suite pins
/// the fast fill to it across every start phase and run length.
pub fn inflate_scalar(buf: &[u8], pixels: usize) -> Result<Vec<u8>> {
    let mut packed = vec![0u8; pixels.div_ceil(4)];
    let (mut pos, mut filled, mut last) = (0usize, 0usize, None);
    while pos < buf.len() {
        let (end, pat) = next_run(buf, &mut pos, &mut last, filled, pixels)?;
        for i in filled..end {
            if let Some(b) = packed.get_mut(i / 4) {
                *b |= slot(pat, i) << ((i % 4) * 2);
            }
        }
        filled = end;
    }
    check_covered(filled, pixels)?;
    Ok(packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::{EncMask, PixelStatus};

    fn mask_with_regions() -> EncMask {
        let mut m = EncMask::new(32, 8);
        for y in 2..6 {
            for x in 4..20 {
                m.set(x, y, if y < 4 { PixelStatus::Regional } else { PixelStatus::Strided });
            }
        }
        m
    }

    /// A stride-2 region over `x0..x1` of rows `y0..y1`: `R·St` on even
    /// region rows, solid `St` on odd ones (the encoder's layout).
    fn strided_mask(w: u32, h: u32, x0: u32, x1: u32, y0: u32, y1: u32) -> EncMask {
        let mut m = EncMask::new(w, h);
        for y in y0..y1 {
            for x in x0..x1 {
                let anchor = (y - y0).is_multiple_of(2) && (x - x0).is_multiple_of(2);
                m.set(x, y, if anchor { PixelStatus::Regional } else { PixelStatus::Strided });
            }
        }
        m
    }

    fn roundtrip(mask: &EncMask) -> Vec<u8> {
        let pixels = mask.width() as usize * mask.height() as usize;
        let mut runs = Vec::new();
        let n = compress(mask.as_bytes(), pixels, &mut runs);
        assert_eq!(n, runs.len());
        let back = inflate(&runs, pixels).unwrap();
        assert_eq!(back, mask.as_bytes(), "packed bytes must round-trip exactly");
        // And the per-entry references agree at every step.
        let mut runs_ref = Vec::new();
        assert_eq!(compress_scalar(mask.as_bytes(), pixels, &mut runs_ref), n);
        assert_eq!(runs_ref, runs, "compress must match the per-entry reference");
        assert_eq!(inflate_scalar(&runs, pixels).unwrap(), back);
        runs
    }

    #[test]
    fn region_masks_roundtrip_and_shrink() {
        let mask = mask_with_regions();
        let runs = roundtrip(&mask);
        assert!(runs.len() < mask.size_bytes(), "runny masks must code below 2 bits/px");
    }

    #[test]
    fn uniform_mask_is_tiny() {
        let mask = EncMask::new(1920, 4);
        // One all-N run: one varint of (7680 << 3).
        assert_eq!(roundtrip(&mask).len(), 3);
    }

    #[test]
    fn a_strided_span_is_one_run_and_its_next_anchor_row_one_varint() {
        // Width 64, span 9..49 (odd start: pattern byte 0xDD).
        let mask = strided_mask(64, 4, 9, 49, 0, 3);
        let runs = roundtrip(&mask);
        let mut expect = Vec::new();
        write_varint(&mut expect, 9 << 3); // N
        write_varint(&mut expect, 40 << 3 | u64::from(CODE_PATTERN));
        expect.push(0xDD); // St·R·St·R at slots 0..4
        write_varint(&mut expect, (15 + 9) << 3); // N to the next row
        write_varint(&mut expect, 40 << 3 | 0b01); // solid St row
        write_varint(&mut expect, (15 + 9) << 3);
        write_varint(&mut expect, 40 << 3 | u64::from(CODE_REPEAT)); // 0xDD again
        write_varint(&mut expect, (15 + 64) << 3);
        assert_eq!(runs, expect);
    }

    #[test]
    fn worst_case_checkerboard_roundtrips() {
        let mut mask = EncMask::new(17, 3); // non-multiple-of-4 tail
        for y in 0..3 {
            for x in 0..17 {
                if (x + y) % 2 == 0 {
                    mask.set(x, y, PixelStatus::Regional);
                }
            }
        }
        roundtrip(&mask);
    }

    #[test]
    fn empty_mask_roundtrips() {
        let back = inflate(&[], 0).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn short_and_long_totals_are_rejected() {
        let mut runs = Vec::new();
        compress(EncMask::new(8, 1).as_bytes(), 8, &mut runs);
        assert!(matches!(inflate(&runs, 9), Err(WireError::BadRle { .. })));
        assert!(matches!(inflate(&runs, 7), Err(WireError::BadRle { .. })));
    }

    /// Both inflaters refuse `runs` over `pixels` entries with a
    /// `BadRle` whose reason contains `why`.
    fn refused(runs: &[u8], pixels: usize, why: &str) {
        for err in [inflate(runs, pixels).unwrap_err(), inflate_scalar(runs, pixels).unwrap_err()] {
            match err {
                WireError::BadRle { reason } => assert!(reason.contains(why), "{reason}"),
                other => panic!("expected BadRle({why}), got {other:?}"),
            }
        }
    }

    #[test]
    fn reserved_codes_are_rejected() {
        for code in [6u64, 7] {
            let mut runs = Vec::new();
            write_varint(&mut runs, 8 << 3 | code);
            refused(&runs, 8, "reserved run code");
        }
    }

    #[test]
    fn repeat_before_any_pattern_is_rejected() {
        let mut runs = Vec::new();
        write_varint(&mut runs, 4 << 3); // a solid run does not fill the cache
        write_varint(&mut runs, 4 << 3 | u64::from(CODE_REPEAT));
        refused(&runs, 8, "before any pattern byte");
    }

    #[test]
    fn missing_pattern_byte_is_rejected() {
        let mut runs = Vec::new();
        write_varint(&mut runs, 8 << 3 | u64::from(CODE_PATTERN));
        refused(&runs, 8, "without its pattern byte");
    }

    #[test]
    fn zero_run_is_rejected() {
        for code in [0b11, u64::from(CODE_PATTERN)] {
            let mut runs = Vec::new();
            write_varint(&mut runs, code); // run_len 0
            runs.push(0x77);
            refused(&runs, 4, "zero-length run");
        }
    }

    #[test]
    fn overrunning_and_short_runs_are_rejected() {
        let mut runs = Vec::new();
        write_varint(&mut runs, 6 << 3 | u64::from(CODE_PATTERN));
        runs.push(0x77);
        write_varint(&mut runs, 3 << 3);
        refused(&runs, 8, "overrun the mask");
        refused(&runs, 10, "runs cover 9 of 10");
        assert!(inflate(&runs, 9).is_ok());
    }

    #[test]
    fn truncated_varint_is_rejected() {
        let runs = [0x80u8]; // continuation bit, no next byte
        assert!(matches!(inflate(&runs, 4), Err(WireError::BadVarint { .. })));
        assert!(matches!(inflate_scalar(&runs, 4), Err(WireError::BadVarint { .. })));
    }

    #[test]
    fn inflate_into_recycles_buffer() {
        let mut runs = Vec::new();
        let mask = strided_mask(32, 8, 3, 29, 1, 7);
        compress(mask.as_bytes(), 32 * 8, &mut runs);
        let mut buf = vec![0xFFu8; 512]; // stale contents must not leak
        inflate_into(&runs, 32 * 8, &mut buf).unwrap();
        assert_eq!(buf, mask.as_bytes());
    }
}
