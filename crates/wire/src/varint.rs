//! LEB128 unsigned varints, the variable-length integers of the wire
//! format (lengths, mask runs, index entries).
//!
//! Encoding is the standard protobuf/WebAssembly scheme: 7 value bits
//! per byte, little-endian groups, high bit = continuation. A `u64`
//! occupies at most 10 bytes; the decoder enforces that cap so a
//! corrupted continuation bit cannot walk past the buffer.

use crate::{Result, WireError};

/// Maximum encoded length of a `u64`.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the varint encoding of `value` to `out`. Returns the number
/// of bytes written (1–10).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7F) as u8; // rpr-check: allow(truncating-cast): masked to the low 7 bits before the cast
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of `value` without writing it.
pub fn varint_len(value: u64) -> usize {
    let bits = u64::BITS - value.leading_zeros();
    usize::try_from(bits.div_ceil(7).max(1)).unwrap_or(MAX_VARINT_LEN)
}

/// Decodes a varint from `buf` starting at `*pos`, advancing `*pos`
/// past it. `what` names the field for error reporting.
///
/// # Errors
///
/// [`WireError::BadVarint`] when the buffer ends mid-varint, the
/// encoding exceeds 10 bytes, or the tenth byte carries bits beyond
/// `u64`.
pub fn read_varint(buf: &[u8], pos: &mut usize, what: &'static str) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT_LEN {
        let Some(&byte) = buf.get(*pos + i) else {
            return Err(WireError::BadVarint { what });
        };
        let low = u64::from(byte & 0x7F);
        // The tenth byte may only contribute the single remaining bit.
        if shift == 63 && low > 1 {
            return Err(WireError::BadVarint { what });
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Ok(value);
        }
        shift += 7;
    }
    Err(WireError::BadVarint { what })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_representative_values() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let n = write_varint(&mut buf, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, varint_len(v), "len mismatch for {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos, "test").unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn single_byte_boundary() {
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn truncated_buffer_is_typed_error() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos, "field"),
            Err(WireError::BadVarint { what: "field" })
        ));
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos, "field").is_err());
        // A tenth byte with more than one value bit overflows u64.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos, "field").is_err());
    }
}
