//! CRC32 (IEEE 802.3, polynomial `0xEDB88320`), the per-chunk checksum
//! of the `.rpr` container.
//!
//! Dependency-free and table-driven; the tables are built at compile
//! time. CRC32 (rather than the frame-level digest) guards the
//! *transport* layer: it is the checksum DMA engines and NICs already
//! compute in hardware, so a real deployment gets it for free, and its
//! error model (burst errors from torn writes and truncated transfers)
//! matches what a file or socket can do to a chunk.
//!
//! Two implementations live here on purpose:
//!
//! * [`update_scalar`] — the original byte-at-a-time loop, retained
//!   forever as the reference the fast path is differentially tested
//!   against (`kernel_equivalence` suite, TESTING.md).
//! * [`update`] — slicing-by-8: eight 256-entry tables fold 8 input
//!   bytes per iteration with no inter-byte dependency chain, keeping
//!   multiple table loads in flight per cycle. Same signature,
//!   bit-identical output.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Tables built / bytes folded per hot-loop iteration.
const SLICES: usize = 8;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    // Table 0 is the classic byte-at-a-time table…
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // rpr-check: allow(truncating-cast): i < 256; const fn cannot use try_from
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc; // rpr-check: allow(panic-surface): i < 256 == table len; an OOB here fails const evaluation at compile time
        i += 1;
    }
    // …and table k advances table k-1's entry through one more zero
    // byte, so `tables[k][b]` is the contribution of byte `b` seen `k`
    // positions before the end of an 8-byte group.
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i]; // rpr-check: allow(panic-surface): k < SLICES and i < 256 by the loop bounds; OOB fails const evaluation
            // rpr-check: allow(truncating-cast): masked to 8 bits before the cast
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize]; // rpr-check: allow(panic-surface): indices masked/bounded as above
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Table lookup that is panic-free by construction; `k` is a constant
/// at every call site, `b` bounds the inner index to 0..=255, so the
/// compiler drops both checks after inlining.
#[inline(always)]
fn tab(k: usize, b: u8) -> u32 {
    match TABLES.get(k) {
        Some(t) => t.get(usize::from(b)).copied().unwrap_or(0),
        None => 0,
    }
}

/// CRC32 of `bytes` (init `0xFFFF_FFFF`, final XOR, reflected — the
/// standard zlib/PNG/Ethernet convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming update: feed `state` through more bytes. Start from
/// `0xFFFF_FFFF` and XOR the final state with `0xFFFF_FFFF` to match
/// [`crc32`]. Slicing-by-8 fast path, bit-identical to
/// [`update_scalar`].
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(SLICES);
    for chunk in &mut chunks {
        let &[c0, c1, c2, c3, c4, c5, c6, c7] = chunk else {
            // chunks_exact(8) only yields 8-byte windows.
            return update_scalar(crc, chunk);
        };
        let s = crc.to_le_bytes();
        crc = tab(7, s[0] ^ c0) // rpr-check: allow(panic-surface): constant indexes 0..4 into the [u8; 4] LE bytes of the crc state
            ^ tab(6, s[1] ^ c1) // rpr-check: allow(panic-surface): constant indexes 0..4 into the [u8; 4] LE bytes of the crc state
            ^ tab(5, s[2] ^ c2) // rpr-check: allow(panic-surface): constant indexes 0..4 into the [u8; 4] LE bytes of the crc state
            ^ tab(4, s[3] ^ c3) // rpr-check: allow(panic-surface): constant indexes 0..4 into the [u8; 4] LE bytes of the crc state
            ^ tab(3, c4)
            ^ tab(2, c5)
            ^ tab(1, c6)
            ^ tab(0, c7);
    }
    update_scalar(crc, chunks.remainder())
}

/// The retained byte-at-a-time reference implementation — the loop
/// [`update`] originally shipped with. The differential suite pins the
/// sliced path to it byte-for-byte; keep it untouched when optimizing
/// `update`.
pub fn update_scalar(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize; // rpr-check: allow(truncating-cast): masked to 8 bits before the cast
        crc = (crc >> 8) ^ tab(0, idx as u8); // rpr-check: allow(truncating-cast): idx < 256 by the mask above
    }
    crc
}

/// One-shot CRC32 through the scalar reference path (tests/benches).
pub fn crc32_scalar(bytes: &[u8]) -> u32 {
    update_scalar(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // The canonical check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn scalar_reference_matches_known_vectors() {
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_scalar(b""), 0);
        assert_eq!(crc32_scalar(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_matches_scalar_at_every_length_and_phase() {
        let data: Vec<u8> = (0..260u32).map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8).collect();
        for start in 0..9 {
            for end in (start..data.len()).step_by(3).chain([data.len()]) {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_scalar(s), "start {start} len {}", s.len());
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"rhythmic pixel regions";
        let split = crc32(data);
        for cut in [0, 1, 7, 8, 9, data.len()] {
            let mut state = 0xFFFF_FFFFu32;
            state = update(state, &data[..cut]);
            state = update(state, &data[cut..]);
            assert_eq!(state ^ 0xFFFF_FFFF, split, "cut at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        for i in 0..64 {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }
}
