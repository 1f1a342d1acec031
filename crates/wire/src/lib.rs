//! # rpr-wire
//!
//! The wire format for rhythmic-pixel streams: a canonical
//! little-endian bitstream for [`rpr_core::EncodedFrame`]s and the
//! chunked `.rpr` container that carries them, with record/replay as
//! the driving use case.
//!
//! The paper's encoded representation already makes frames small — the
//! packed `R` payload plus ~2 bits/px of metadata. What it does not
//! give is a way to get those frames *out of the system*: spill them
//! from a live [`rpr-stream`] pipeline, archive them, and replay them
//! later into a workload deterministically. That is this crate:
//!
//! - [`frame`] — one frame as a self-contained little-endian blob:
//!   fixed header, run- or raw-coded EncMask, raw payload last. The
//!   row-offset table is not stored: the parser derives it from the
//!   mask. See the module docs for the byte layout.
//! - [`rle`] — the mask code: one varint per run of a solid status or
//!   of a repeated pattern byte, so a strided row span is one run.
//! - [`container`] — the `.rpr` file: CRC32-guarded chunks, a
//!   trailing frame index for O(1) seek, a fixed trailer locating it,
//!   and a sequential-scan recovery path for unfinished files.
//! - [`EncodedFrameView`] — zero-copy decoding: the payload (and the
//!   mask, when stored raw) is borrowed straight from the input slice;
//!   nothing is re-allocated until the caller asks for an owned
//!   [`rpr_core::EncodedFrame`].
//!
//! ## Trust model
//!
//! The parser treats every input byte as hostile: all reads are
//! bounds-checked, declared sizes are capped before allocation
//! ([`MAX_DIMENSION`], [`MAX_PIXELS`], [`MAX_FRAME_COUNT`]), and every
//! malformation maps to a typed [`WireError`] — never a panic. Three
//! independent layers catch corruption:
//!
//! 1. **CRC32 per chunk** — transport damage (bit rot, torn writes).
//! 2. **Structural parse** — truncation, bad varints, bad mask runs,
//!    a payload length other than the mask's `R` count.
//! 3. **Frame digest** ([`rpr_core::EncodedFrame::validate`]) — a
//!    word-at-a-time digest over geometry, index, payload, mask and
//!    offsets ([`rpr_core::EncodedFrame::compute_integrity`]). It
//!    catches content corruption that forged or repaired CRCs cannot
//!    hide, plus stale index entries via the `frame_idx` cross-check.
//!
//! Layer 3 runs once per frame, at promotion:
//! [`EncodedFrameView::to_validated_frame`] returns the frame marked
//! validated, and later boundaries (the decoder's `try_decode*`,
//! [`encode_frame`]) skip the check for a marked frame. The digest
//! changed in container version 2 and the frame blob in version 3
//! ([`FORMAT_VERSION`]), so older files are refused with
//! [`WireError::UnsupportedVersion`].
//!
//! The `rpr-testkit` conformance harness injects faults at each layer
//! and asserts the matching typed error.
//!
//! ## Example
//!
//! ```
//! use rpr_core::{EncMask, EncodedFrame, FrameMetadata, PixelStatus};
//! use rpr_wire::{write_container, ContainerReader};
//!
//! let mut mask = EncMask::new(8, 4);
//! mask.set(2, 1, PixelStatus::Regional);
//! let frame = EncodedFrame::new(8, 4, 0, vec![123], FrameMetadata::from_mask(mask));
//!
//! let bytes = write_container(std::slice::from_ref(&frame)).unwrap();
//! let reader = ContainerReader::open(&bytes).unwrap();
//! let view = reader.view(0).unwrap();        // zero-copy
//! assert_eq!(view.payload(), &[123]);
//! assert_eq!(reader.frame(0).unwrap(), frame); // owned + validated
//! ```

#![deny(missing_docs)]

mod bytes;
pub mod container;
pub mod crc32;
mod error;
pub mod frame;
pub mod rle;
pub mod stream;
pub mod varint;

pub use container::{
    frame_chunk, list_chunks, parse_entries, read_all, rewrite_chunk_crc, write_container,
    ContainerReader,
    ContainerWriter, FrameEntry, RawChunk, WriterStats, CHUNK_FRAME, CHUNK_HEADER_LEN,
    CHUNK_INDEX, FILE_MAGIC, FORMAT_VERSION, HEADER_LEN, MAX_FRAME_COUNT, TRAILER_LEN,
    TRAILER_MAGIC,
};
pub use crc32::{crc32, crc32_scalar};
pub use error::{Result, WireError};
pub use frame::{
    encode_frame, EncodedFrameView, FrameEncodeStats, MaskCodec, FRAME_HEADER_LEN, MAX_DIMENSION,
    MAX_PIXELS,
};
pub use stream::{StreamDecoder, StreamEvent, MAX_STREAM_CHUNK};
