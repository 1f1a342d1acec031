//! Chunked hot-path kernels shared by the encoder, the decoder, and
//! the wire layer's RLE coder.
//!
//! Every kernel here exists in two forms:
//!
//! * a **chunked** version that walks the data in u64-wide words (or
//!   4-entry mask bytes) so the compiler can keep the hot loop in wide
//!   registers — this is what the production paths call; and
//! * a **`*_scalar` reference** — the original per-entry loop, retained
//!   forever so the `kernel_equivalence` differential test battery
//!   (TESTING.md) can pin the chunked form byte-identical to it across
//!   degenerate shapes (widths not divisible by 4/8/64, zero-length
//!   rows, all-one-status masks, single-pixel runs).
//!
//! Two domains appear throughout:
//!
//! * **packed 2-bit entries** — the [`crate::EncMask`] wire layout:
//!   entry `i` lives in bits `2*(i%4)` of byte `i/4`. Rows of a
//!   `width x height` mask are *not* byte aligned when `width % 4 != 0`,
//!   so every kernel takes an arbitrary start entry and handles the
//!   misaligned head/tail itself. Entries past the end of the packed
//!   slice read as `0` (status `N`), matching `packed_get`'s contract
//!   in `rpr-wire`'s RLE coder.
//! * **priority rows** — one byte per pixel holding the
//!   [`crate::PixelStatus::priority`] value `0..=3` (`N=0, Sk=1, St=2,
//!   R=3`). The encoder paints region spans in priority space because
//!   priority merging is a plain `u8::max` there (the 2-bit wire
//!   encoding is *not* ordered by priority), then maps to wire bits at
//!   emit time via [`priority_to_bits`].
//!
//! All kernels are safe code (the workspace is 100 % `unsafe`-free;
//! `ci/check_policy.toml` RPR004) and panic-free on every input.

/// Maps a priority value (`0..=3`) to the 2-bit wire status it encodes:
/// `N(0)→00`, `Sk(1)→10`, `St(2)→01`, `R(3)→11`. Only the low two bits
/// of `pri` are inspected.
#[inline(always)]
pub fn priority_to_bits(pri: u8) -> u8 {
    const MAP: [u8; 4] = [0b00, 0b10, 0b01, 0b11];
    MAP[usize::from(pri & 0b11)] // rpr-check: allow(panic-surface): index masked to 0..=3, table has 4 entries
}

/// The 2-bit status of packed entry `i`; entries past the end of
/// `packed` read as `0`.
#[inline(always)]
pub fn entry_at(packed: &[u8], i: usize) -> u8 {
    (packed.get(i / 4).copied().unwrap_or(0) >> ((i % 4) * 2)) & 0b11
}

/// The byte in which all four 2-bit lanes hold `status`.
#[inline(always)]
pub fn splat_byte(status: u8) -> u8 {
    0b0101_0101u8.wrapping_mul(status & 0b11)
}

/// Reads 8 packed bytes starting at `byte_idx` as a little-endian u64;
/// bytes past the end read as `0`.
#[inline(always)]
fn word_at(packed: &[u8], byte_idx: usize) -> u64 {
    let mut w = [0u8; 8];
    match packed.get(byte_idx..byte_idx + 8) {
        Some(s) => w = <[u8; 8]>::try_from(s).unwrap_or(w),
        None => {
            for (k, slot) in w.iter_mut().enumerate() {
                *slot = packed.get(byte_idx + k).copied().unwrap_or(0);
            }
        }
    }
    u64::from_le_bytes(w)
}

/// Calls `f(status, run_len)` for each maximal run of equal 2-bit
/// statuses over packed entries `[start, start + len)`.
///
/// Runs are maximal (adjacent calls always differ in status), lengths
/// are positive, and lengths sum to `len`. The hot loop skips 32
/// entries per iteration whenever a whole u64 mask word continues the
/// current run — uniform rows (all-`N` background, all-`R` interiors)
/// are the common case in rhythmic masks.
pub fn for_each_run(packed: &[u8], start: usize, len: usize, mut f: impl FnMut(u8, usize)) {
    if len == 0 {
        return;
    }
    let end = start + len;
    let mut cur = entry_at(packed, start);
    let mut run_start = start;
    let mut i = start + 1;
    while i < end {
        if i.is_multiple_of(4) {
            // Byte-aligned: extend the run by whole words, then whole
            // bytes, while they splat the current status.
            let sb = splat_byte(cur);
            let sw = u64::from(sb) * 0x0101_0101_0101_0101;
            while i + 32 <= end && word_at(packed, i / 4) == sw {
                i += 32;
            }
            while i + 4 <= end && packed.get(i / 4).copied().unwrap_or(0) == sb {
                i += 4;
            }
            if i >= end {
                break;
            }
        }
        let s = entry_at(packed, i);
        if s != cur {
            f(cur, i - run_start);
            cur = s;
            run_start = i;
        }
        i += 1;
    }
    f(cur, end - run_start);
}

/// Per-entry reference implementation of [`for_each_run`].
pub fn for_each_run_scalar(
    packed: &[u8],
    start: usize,
    len: usize,
    mut f: impl FnMut(u8, usize),
) {
    if len == 0 {
        return;
    }
    let end = start + len;
    let mut cur = entry_at(packed, start);
    let mut run = 1usize;
    for i in start + 1..end {
        let s = entry_at(packed, i);
        if s == cur {
            run += 1;
        } else {
            f(cur, run);
            cur = s;
            run = 1;
        }
    }
    f(cur, run);
}

/// Number of `R` (`0b11`) entries among packed entries
/// `[start, start + len)`; entries past the end of `packed` read as
/// `0`.
///
/// The byte-aligned middle is counted 32 entries per u64 word:
/// `w & (w >> 1)` sets bit `2k` exactly where entry `k` is `0b11`, and
/// the `0x5555…` mask drops the odd bits before the popcount. The
/// unaligned head and tail go per entry, so rows that start mid-byte
/// and non-zero padding past the window are never counted. Its per-
/// entry reference is [`crate::FrameMetadata::is_consistent_scalar`].
pub fn count_regional(packed: &[u8], start: usize, len: usize) -> u64 {
    const EVEN_BITS: u64 = 0x5555_5555_5555_5555;
    let end = start.saturating_add(len);
    let mut i = start;
    let mut n = 0u64;
    while i < end && !i.is_multiple_of(4) {
        n += u64::from(entry_at(packed, i) == 0b11);
        i += 1;
    }
    let whole = (end - i) / 4;
    let bytes = packed.get(i / 4..).unwrap_or(&[]);
    let bytes = bytes.get(..whole).unwrap_or(bytes);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes);
        n += u64::from((w & (w >> 1) & EVEN_BITS).count_ones());
    }
    for &b in words.remainder() {
        n += u64::from((b & (b >> 1) & 0x55).count_ones());
    }
    i += 4 * whole;
    while i < end {
        n += u64::from(entry_at(packed, i) == 0b11);
        i += 1;
    }
    n
}

/// Packs a priority row into 2-bit mask entries starting at
/// `start_entry`, OR-ing into `packed`.
///
/// The target entries must be zero (a freshly cleared mask) — the
/// encoder's contract, which lets the kernel write without a
/// read-modify-mask cycle. Entries that would land past the end of
/// `packed` are dropped. The aligned body assembles 32 entries into
/// one u64 mask word and stores it as 8 bytes.
pub fn pack_priority_row(packed: &mut [u8], start_entry: usize, row_pri: &[u8]) {
    if row_pri.is_empty() {
        // Also the base case of the misaligned-head recursion below: a
        // row shorter than its head leaves `rest` empty at a start
        // that is still misaligned, which must not recurse again.
        return;
    }
    if !start_entry.is_multiple_of(4) {
        // Misaligned head: finish the shared byte entry-by-entry.
        let head = (4 - start_entry % 4).min(row_pri.len());
        let (h, rest) = row_pri.split_at(head);
        pack_priority_row_scalar(packed, start_entry, h);
        pack_priority_row(packed, start_entry + head, rest);
        return;
    }
    let byte_start = start_entry / 4;
    let n_bytes = row_pri.len() / 4;
    let Some(target) = packed.get_mut(byte_start..(byte_start + n_bytes).min(byte_start + n_bytes))
    else {
        return pack_priority_row_scalar(packed, start_entry, row_pri);
    };
    let target_len = target.len().min(n_bytes);
    let Some(target) = target.get_mut(..target_len) else {
        return pack_priority_row_scalar(packed, start_entry, row_pri);
    };

    // u64-wide body: 32 priorities -> one mask word.
    let mut words = target.chunks_exact_mut(8);
    let mut pris = row_pri.chunks_exact(32);
    for (slot, ch) in (&mut words).zip(&mut pris) {
        let mut word = 0u64;
        for (j, &p) in ch.iter().enumerate() {
            word |= u64::from(priority_to_bits(p)) << (j * 2);
        }
        slot.copy_from_slice(&word.to_le_bytes());
    }
    // Byte tail of the aligned region.
    let mut done = (target_len / 8) * 8;
    let tail = words.into_remainder();
    for (slot, ch) in tail.iter_mut().zip(row_pri.get(done * 4..).unwrap_or(&[]).chunks_exact(4))
    {
        let &[a, b, c, d] = ch else { break };
        *slot |= priority_to_bits(a)
            | (priority_to_bits(b) << 2)
            | (priority_to_bits(c) << 4)
            | (priority_to_bits(d) << 6);
        done += 1;
    }
    // Whatever did not fit whole bytes (final partial byte, or a packed
    // slice shorter than the row) goes entry-by-entry.
    pack_priority_row_scalar(
        packed,
        start_entry + done * 4,
        row_pri.get(done * 4..).unwrap_or(&[]),
    );
}

/// Per-entry reference implementation of [`pack_priority_row`]. Same
/// zero-target contract.
pub fn pack_priority_row_scalar(packed: &mut [u8], start_entry: usize, row_pri: &[u8]) {
    for (k, &p) in row_pri.iter().enumerate() {
        let i = start_entry + k;
        if let Some(b) = packed.get_mut(i / 4) {
            *b |= priority_to_bits(p) << ((i % 4) * 2);
        }
    }
}

/// Counts how many row entries hold each priority value, returned
/// indexed by priority `[N, Sk, St, R]`.
///
/// Contract: entries must be `0..=3` (the encoder's paint phase only
/// produces those). Four vectorizable equality sweeps beat one scalar
/// histogram loop because each sweep compiles to wide compares.
pub fn count_priorities(row_pri: &[u8]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for (p, slot) in counts.iter_mut().enumerate() {
        let p = p as u8; // rpr-check: allow(truncating-cast): p < 4 by the array bound
        *slot = row_pri.iter().filter(|&&v| v == p).count() as u64;
    }
    counts
}

/// Single-pass reference implementation of [`count_priorities`]. Same
/// `0..=3` contract.
pub fn count_priorities_scalar(row_pri: &[u8]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for &v in row_pri {
        if let Some(slot) = counts.get_mut(usize::from(v)) {
            *slot += 1;
        }
    }
    counts
}

/// SWAR movemask: bit `i` of the result is set when byte `i` of `w`
/// equals 3 (the `R` priority).
#[inline(always)]
fn r_lanes(w: u64) -> u8 {
    let v = w ^ 0x0303_0303_0303_0303;
    // Exact zero-byte detect (Hacker's Delight): per-byte add of 0x7F
    // cannot carry across lanes, unlike the `v - 0x01..` variant whose
    // borrows flag false positives on bytes following a match.
    let sum = (v & 0x7F7F_7F7F_7F7F_7F7F).wrapping_add(0x7F7F_7F7F_7F7F_7F7F);
    let hit = !(sum | v | 0x7F7F_7F7F_7F7F_7F7F);
    // Gather the per-lane high bits into one byte.
    (hit.wrapping_mul(0x0002_0408_1020_4081) >> 56) as u8 // rpr-check: allow(truncating-cast): the multiply packs exactly 8 flag bits into the top byte
}

/// Reads 8 priority bytes at `x` as a u64, or `None` within 8 of the
/// end.
#[inline(always)]
fn pri_word(row_pri: &[u8], x: usize) -> Option<u64> {
    row_pri
        .get(x..x + 8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map(u64::from_le_bytes)
}

/// Appends the source pixels under `R`-priority entries to `out` in
/// raster order, returning how many were appended.
///
/// `row_pri` and `src` describe the same row and should be equal
/// length; `R` entries beyond `src` are ignored (defensively — the
/// encoder always passes matching rows). The scan skips 8 pixels per
/// step through non-`R` spans and copies whole `R` runs with one
/// `extend_from_slice`, so dense regions move at memcpy speed.
pub fn gather_regional(row_pri: &[u8], src: &[u8], out: &mut Vec<u8>) -> usize {
    let n = row_pri.len();
    let mut appended = 0usize;
    let mut x = 0usize;
    while x < n {
        // Find the start of the next R run.
        match pri_word(row_pri, x) {
            Some(w) => {
                let lanes = r_lanes(w);
                if lanes == 0 {
                    x += 8;
                    continue;
                }
                x += usize::from(lanes.trailing_zeros() as u8); // rpr-check: allow(truncating-cast): trailing_zeros of a u8 is <= 8
            }
            None => {
                if row_pri.get(x).copied().unwrap_or(0) != 3 {
                    x += 1;
                    continue;
                }
            }
        }
        // x sits on an R entry; find the run's end.
        let start = x;
        loop {
            match pri_word(row_pri, x) {
                Some(w) => {
                    let lanes = r_lanes(w);
                    if lanes == 0xFF {
                        x += 8;
                        continue;
                    }
                    x += usize::from(lanes.trailing_ones() as u8); // rpr-check: allow(truncating-cast): trailing_ones of a u8 is <= 8
                    break;
                }
                None => {
                    if x < n && row_pri.get(x).copied().unwrap_or(0) == 3 {
                        x += 1;
                        continue;
                    }
                    break;
                }
            }
        }
        let hi = x.min(src.len());
        if let Some(s) = src.get(start.min(hi)..hi) {
            out.extend_from_slice(s);
            appended += s.len();
        }
    }
    appended
}

/// Per-pixel reference implementation of [`gather_regional`].
pub fn gather_regional_scalar(row_pri: &[u8], src: &[u8], out: &mut Vec<u8>) -> usize {
    let mut appended = 0usize;
    for (x, &p) in row_pri.iter().enumerate() {
        if p == 3 {
            if let Some(&v) = src.get(x) {
                out.push(v);
                appended += 1;
            }
        }
    }
    appended
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack_entries(entries: &[u8]) -> Vec<u8> {
        let mut packed = vec![0u8; entries.len().div_ceil(4)];
        for (i, &e) in entries.iter().enumerate() {
            if let Some(b) = packed.get_mut(i / 4) {
                *b |= (e & 0b11) << ((i % 4) * 2);
            }
        }
        packed
    }

    fn runs_of(packed: &[u8], start: usize, len: usize, chunked: bool) -> Vec<(u8, usize)> {
        let mut v = Vec::new();
        if chunked {
            for_each_run(packed, start, len, |s, r| v.push((s, r)));
        } else {
            for_each_run_scalar(packed, start, len, |s, r| v.push((s, r)));
        }
        v
    }

    #[test]
    fn run_scanner_matches_scalar_on_mixed_patterns() {
        let entries: Vec<u8> =
            (0..997).map(|i| [0, 0, 0, 3, 3, 3, 3, 1, 2, 0, 3][i % 11]).collect();
        let packed = pack_entries(&entries);
        for start in [0usize, 1, 3, 4, 5, 31, 32, 33, 100] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 31, 32, 33, 64, 500, 997 - start] {
                assert_eq!(
                    runs_of(&packed, start, len, true),
                    runs_of(&packed, start, len, false),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn run_scanner_handles_uniform_and_oob() {
        // All one status: one run, even past the end of packed (OOB
        // entries read as 0).
        let packed = pack_entries(&[3u8; 64]);
        assert_eq!(runs_of(&packed, 0, 64, true), vec![(3, 64)]);
        assert_eq!(runs_of(&packed, 0, 100, true), vec![(3, 64), (0, 36)]);
        assert_eq!(runs_of(&[], 0, 40, true), vec![(0, 40)]);
        assert_eq!(runs_of(&packed, 0, 0, true), Vec::<(u8, usize)>::new());
        // Single-entry runs at every byte phase.
        let alt: Vec<u8> = (0..37).map(|i| (i % 2) * 3).collect();
        let packed = pack_entries(&alt);
        assert_eq!(runs_of(&packed, 0, 37, true), runs_of(&packed, 0, 37, false));
    }

    #[test]
    fn runs_sum_to_len_and_alternate() {
        let entries: Vec<u8> = (0..203).map(|i| ((i / 5) % 4) as u8).collect();
        let packed = pack_entries(&entries);
        let runs = runs_of(&packed, 2, 200, true);
        assert_eq!(runs.iter().map(|&(_, r)| r).sum::<usize>(), 200);
        for w in runs.windows(2) {
            assert_ne!(w[0].0, w[1].0, "adjacent runs must differ");
        }
    }

    #[test]
    fn pack_row_matches_scalar_at_all_phases() {
        let pri: Vec<u8> = (0..131).map(|i| ((i * 7) % 4) as u8).collect();
        for start in [0usize, 1, 2, 3, 4, 5, 8, 63, 64, 65] {
            let size = (start + pri.len()).div_ceil(4) + 1;
            let mut a = vec![0u8; size];
            let mut b = vec![0u8; size];
            pack_priority_row(&mut a, start, &pri);
            pack_priority_row_scalar(&mut b, start, &pri);
            assert_eq!(a, b, "start {start}");
        }
    }

    #[test]
    fn pack_row_bits_match_status_encoding() {
        use crate::PixelStatus;
        // Priority i must emit PixelStatus-with-priority-i's bits.
        for (pri, status) in [
            (0u8, PixelStatus::NonRegional),
            (1, PixelStatus::Skipped),
            (2, PixelStatus::Strided),
            (3, PixelStatus::Regional),
        ] {
            assert_eq!(priority_to_bits(pri), status.bits());
            assert_eq!(status.priority(), pri);
        }
    }

    #[test]
    fn pack_row_truncated_target_is_safe() {
        let pri = vec![3u8; 40];
        let mut small = vec![0u8; 3]; // room for 12 entries only
        pack_priority_row(&mut small, 0, &pri);
        assert_eq!(small, vec![0xFF; 3]);
    }

    #[test]
    fn count_matches_scalar() {
        let pri: Vec<u8> = (0..517).map(|i| ((i * 13 + i / 7) % 4) as u8).collect();
        assert_eq!(count_priorities(&pri), count_priorities_scalar(&pri));
        assert_eq!(count_priorities(&[]), [0; 4]);
        assert_eq!(count_priorities(&pri).iter().sum::<u64>(), 517);
    }

    #[test]
    fn gather_matches_scalar_on_degenerate_shapes() {
        for n in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200] {
            for pattern in 0..7 {
                let pri: Vec<u8> = (0..n)
                    .map(|i| match pattern {
                        0 => 3,                         // full keep
                        1 => 0,                         // nothing
                        2 => ((i % 2) * 3) as u8,       // alternating
                        3 => if i == n / 2 { 3 } else { 0 }, // single pixel
                        4 => ((i / 9) % 4) as u8,       // mixed runs
                        // R immediately followed by St: the shape whose
                        // `2` byte a borrow-propagating zero-detect
                        // falsely flags (regression).
                        5 => if i % 2 == 0 { 3 } else { 2 },
                        _ => ((i * 5) % 4) as u8,
                    })
                    .collect();
                let src: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let ca = gather_regional(&pri, &src, &mut a);
                let cb = gather_regional_scalar(&pri, &src, &mut b);
                assert_eq!((ca, &a), (cb, &b), "n {n} pattern {pattern}");
            }
        }
    }

    #[test]
    fn gather_tolerates_short_src() {
        let pri = vec![3u8; 20];
        let src = vec![7u8; 12];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_eq!(
            gather_regional(&pri, &src, &mut a),
            gather_regional_scalar(&pri, &src, &mut b)
        );
        assert_eq!(a, b);
    }
}
