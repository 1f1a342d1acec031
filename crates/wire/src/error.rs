use std::fmt;

/// Typed failure modes of the wire codec and container parser.
///
/// Every way a byte stream can be malformed maps to exactly one
/// variant; the parser never panics on untrusted input. The variants
/// are deliberately fine-grained so the conformance harness can assert
/// that each injected container fault surfaces as a *typed* error, the
/// same way `rpr_core::CoreError::CorruptEncodedFrame` types the
/// in-memory faults.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// An underlying I/O operation failed (writer side only; parsing
    /// operates on in-memory slices).
    Io {
        /// Stringified `std::io::Error` (kept as text so the error
        /// stays `Clone + PartialEq` for test assertions).
        reason: String,
    },
    /// A magic number did not match (`what` says which: file header,
    /// trailer, or chunk).
    BadMagic {
        /// Which magic field mismatched.
        what: &'static str,
    },
    /// The stream declares a format version this parser does not speak.
    UnsupportedVersion {
        /// Version found in the header.
        version: u16,
    },
    /// The buffer ended before a declared structure was complete.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A *streaming* ingest ended mid-structure: the session closed
    /// while the decoder still held a partial header, chunk, or
    /// trailer. Distinct from [`WireError::Truncated`] (a whole-buffer
    /// parse running off the end) so ingest services can tell a torn
    /// final chunk apart from an ordinary short read — scan recovery
    /// must never report this case as a clean end of stream.
    TruncatedStream {
        /// Which structure was cut short.
        what: &'static str,
        /// Bytes of the partial structure already buffered.
        buffered: u64,
        /// Bytes the structure needs (lower bound when the structure's
        /// own length field had not arrived yet).
        needed: u64,
    },
    /// A stored CRC32 does not match the checksum of the covered bytes.
    ChecksumMismatch {
        /// Which checksummed region mismatched.
        what: &'static str,
        /// CRC stored in the stream.
        stored: u32,
        /// CRC computed over the bytes.
        computed: u32,
    },
    /// A varint ran past its 10-byte maximum or past the buffer.
    BadVarint {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// The run-coded EncMask is malformed (zero-length run, reserved
    /// code, missing pattern byte, repeat before any pattern, or runs
    /// not summing to the pixel count).
    BadRle {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A chunk header is malformed (unknown type, impossible length).
    BadChunk {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// The trailing frame index is malformed or disagrees with the
    /// chunk it points at (the stale-index-entry fault class).
    BadIndex {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A declared dimension or length exceeds the parser's hard caps
    /// (defense against allocation bombs in corrupted headers).
    LimitExceeded {
        /// Which limit was exceeded.
        what: &'static str,
        /// Declared value.
        value: u64,
        /// Maximum the parser accepts.
        limit: u64,
    },
    /// The frame parsed structurally but its contents fail
    /// [`rpr_core::EncodedFrame::validate`] (payload/metadata
    /// disagreement or integrity-digest mismatch).
    CorruptFrame {
        /// The underlying validation failure.
        reason: String,
    },
    /// The writer was handed a frame that fails validation; the wire
    /// format only carries self-consistent frames.
    InvalidFrame {
        /// The underlying validation failure.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io { reason } => write!(f, "i/o error: {reason}"),
            WireError::BadMagic { what } => write!(f, "bad {what} magic"),
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported wire format version {version}")
            }
            WireError::Truncated { what, needed, available } => {
                write!(f, "{what} truncated: needs {needed} bytes, {available} available")
            }
            WireError::TruncatedStream { what, buffered, needed } => {
                write!(
                    f,
                    "stream ended mid-{what}: {buffered} of {needed} bytes buffered"
                )
            }
            WireError::ChecksumMismatch { what, stored, computed } => write!(
                f,
                "{what} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::BadVarint { what } => write!(f, "malformed varint in {what}"),
            WireError::BadRle { reason } => write!(f, "malformed mask runs: {reason}"),
            WireError::BadChunk { reason } => write!(f, "malformed chunk: {reason}"),
            WireError::BadIndex { reason } => write!(f, "malformed frame index: {reason}"),
            WireError::LimitExceeded { what, value, limit } => {
                write!(f, "{what} {value} exceeds parser limit {limit}")
            }
            WireError::CorruptFrame { reason } => write!(f, "corrupt encoded frame: {reason}"),
            WireError::InvalidFrame { reason } => {
                write!(f, "refusing to serialize invalid frame: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io { reason: e.to_string() }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, WireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = WireError::ChecksumMismatch { what: "frame chunk", stored: 1, computed: 2 };
        let s = e.to_string();
        assert!(s.contains("frame chunk") && s.contains("checksum"), "{s}");
        assert!(WireError::BadMagic { what: "trailer" }.to_string().contains("trailer"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::other("disk on fire");
        let e: WireError = io.into();
        assert!(matches!(e, WireError::Io { .. }));
        assert!(e.to_string().contains("disk on fire"));
    }
}
