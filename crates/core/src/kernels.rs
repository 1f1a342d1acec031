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
/// produces those). One equality sweep per value does not vectorize
/// for baseline x86-64: the four sweeps took about 0.6 µs per
/// 256-entry row on a 2-vCPU x86-64 host. The encoder calls this only
/// on rows whose region spans overlap; a word-wide bit-plane count
/// cut slam_predict's `core.encode` by about 40% but moved no
/// end-to-end metric, so it was not kept (DESIGN.md §4g).
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
            // rpr-check: allow(hot-path-alloc): amortized into pooled payload capacity; the encoder reserves the region set's upper bound, capped at the frame, before the row loop
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

/// Bit 1 of every entry whose offset from bit 0 is a multiple of
/// `stride` (`stride >= 1`): the `R`-anchor template of one 32-entry
/// mask word whose first anchor is entry 0. OR-ing it into an `St`
/// splat (`01` per entry) turns exactly the anchors into `R` (`11`).
#[inline]
fn anchor_template(stride: usize) -> u64 {
    let mut t = 0u64;
    let mut e = 0usize;
    while e < 32 {
        t |= 0b10 << (2 * e);
        e += stride;
    }
    t
}

/// ORs one region span's statuses into packed entries
/// `[start_entry, start_entry + len)`: every entry gets the 2-bit
/// `status`, and when `stride > 0` every `stride`-th entry counted from
/// `start_entry` also gets bit 1 — with `status` = `St` (`01`) that is
/// a sampled strided row, whose anchors are `R` (`11`); `stride == 1`
/// makes the whole span `R`.
///
/// Same zero-target contract as [`pack_priority_row`]; entries past the
/// end of `packed` are dropped. A span without anchors, or with an
/// anchor on every entry, is one repeated byte, OR-ed a byte at a time
/// (its misaligned ends per entry). Otherwise each 32-entry mask word
/// is built from a periodic template — the status splat OR the anchor
/// template shifted to the word's first anchor — masked to the span at
/// its two edge words and OR-ed in with one read-modify-write, so the
/// cost is one step per 32 entries whatever the stride.
pub fn write_span_mask(
    packed: &mut [u8],
    start_entry: usize,
    len: usize,
    status: u8,
    stride: usize,
) {
    if len == 0 {
        return;
    }
    let end = start_entry + len;
    if stride <= 1 {
        // No anchors, or an anchor on every entry: one repeated byte.
        // The misaligned head and tail go per entry, the whole bytes in
        // one sweep.
        let byte = splat_byte(status) | if stride == 1 { 0xAA } else { 0 };
        let whole_start = start_entry.next_multiple_of(4).min(end);
        let whole_end = whole_start + (end - whole_start) / 4 * 4;
        for i in (start_entry..whole_start).chain(whole_end..end) {
            if let Some(b) = packed.get_mut(i / 4) {
                *b |= (byte & 0b11) << ((i % 4) * 2);
            }
        }
        let bytes = packed.get_mut(whole_start / 4..).unwrap_or(&mut []);
        for b in bytes.iter_mut().take((whole_end - whole_start) / 4) {
            *b |= byte;
        }
        return;
    }
    let splat = u64::from(splat_byte(status)) * 0x0101_0101_0101_0101;
    let template = anchor_template(stride);
    let step = 32 % stride;
    // Offset of the first anchor within the current word, counted from
    // the word's entry 0 (may exceed 31 when the stride is longer than
    // a word; the shift below then drops it).
    let mut first = start_entry % 32;
    let mut j = start_entry / 32;
    while j * 32 < end {
        let wb = j * 32;
        let lo = start_entry.max(wb) - wb;
        let hi = end.min(wb + 32) - wb;
        let range =
            if hi - lo == 32 { u64::MAX } else { ((1u64 << (2 * (hi - lo))) - 1) << (2 * lo) };
        let anchors = if first < 32 { template << (2 * first) } else { 0 };
        or_word(packed, j * 8, (splat | anchors) & range);
        first = if first >= 32 {
            first - 32
        } else if first >= stride {
            // Only in the span's first word, whose first anchor is the
            // span start rather than a multiple of the stride past 0.
            (first + stride - step) % stride
        } else {
            let next = first + stride - step;
            if next >= stride {
                next - stride
            } else {
                next
            }
        };
        j += 1;
    }
}

/// ORs `value` into the 8 packed bytes at `byte_idx` (little-endian);
/// bytes past the end of `packed` are dropped.
#[inline(always)]
fn or_word(packed: &mut [u8], byte_idx: usize, value: u64) {
    match packed.get_mut(byte_idx..byte_idx + 8) {
        Some(s) => {
            let old = <[u8; 8]>::try_from(&*s).map_or(0, u64::from_le_bytes);
            s.copy_from_slice(&(old | value).to_le_bytes());
        }
        None => {
            let bytes = value.to_le_bytes();
            let tail = packed.get_mut(byte_idx..).unwrap_or(&mut []);
            for (slot, b) in tail.iter_mut().zip(bytes) {
                *slot |= b;
            }
        }
    }
}

/// Per-entry reference implementation of [`write_span_mask`].
pub fn write_span_mask_scalar(
    packed: &mut [u8],
    start_entry: usize,
    len: usize,
    status: u8,
    stride: usize,
) {
    for k in 0..len {
        let anchor = stride > 0 && k % stride == 0;
        let bits = (status & 0b11) | if anchor { 0b10 } else { 0 };
        let i = start_entry + k;
        if let Some(b) = packed.get_mut(i / 4) {
            *b |= bits << ((i % 4) * 2);
        }
    }
}

/// Appends every `stride`-th pixel of `span` (from its first) to `out`,
/// returning how many were appended: the `R` pixels of a sampled span
/// whose anchors [`write_span_mask`] wrote. Stride 1 is one
/// `extend_from_slice`; `out` is reserved for the whole span up front.
/// A `stride` of 0 reads as 1.
pub fn gather_strided(span: &[u8], stride: usize, out: &mut Vec<u8>) -> usize {
    let stride = stride.max(1);
    let n = span.len().div_ceil(stride);
    // rpr-check: allow(hot-path-alloc): one reservation per span, amortized into pooled payload capacity
    out.reserve(n);
    if stride == 1 {
        // rpr-check: allow(hot-path-alloc): fits the capacity reserved above
        out.extend_from_slice(span);
    } else {
        // rpr-check: allow(hot-path-alloc): fits the capacity reserved above
        out.extend(span.iter().step_by(stride));
    }
    n
}

/// Per-pixel reference implementation of [`gather_strided`].
pub fn gather_strided_scalar(span: &[u8], stride: usize, out: &mut Vec<u8>) -> usize {
    let stride = stride.max(1);
    let mut appended = 0;
    for (k, &v) in span.iter().enumerate() {
        if k % stride == 0 {
            // rpr-check: allow(hot-path-alloc): reference kernel; growth amortized into pooled payload capacity
            out.push(v);
            appended += 1;
        }
    }
    appended
}

/// The 32 packed entries from `start_entry` as one u64, entry `k` at
/// bits `2k`, from any 2-bit phase; entries past the end of `packed`
/// read as `0`.
#[inline(always)]
pub(crate) fn entry_word(packed: &[u8], start_entry: usize) -> u64 {
    let byte = start_entry / 4;
    let shift = (start_entry % 4) * 2;
    let lo = word_at(packed, byte);
    if shift == 0 {
        lo
    } else {
        (lo >> shift) | (u64::from(packed.get(byte + 8).copied().unwrap_or(0)) << (64 - shift))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
