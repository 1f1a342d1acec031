//! The chunked `.rpr` container: file header, CRC-guarded chunks, a
//! trailing frame index for O(1) seek, and a fixed trailer locating it.
//!
//! ```text
//! file   := header chunk* index-chunk trailer
//! header := magic "RPRWIRE1" (8) | version u16 LE | flags u16 LE
//!           | crc32 over bytes 0..12 (4)                      = 16 B
//! chunk  := kind u8 ('F' frame | 'I' index) | payload_len u32 LE
//!           | crc32(payload) u32 LE | payload                 = 9 B + len
//! index  := payload of the 'I' chunk: count varint, then per frame
//!           frame_idx varint | chunk_offset varint | payload_len varint
//! trailer:= index_chunk_offset u64 LE | index_payload_len u32 LE
//!           | crc32 over trailer bytes 0..12 (4) | magic "RPRX" = 20 B
//! ```
//!
//! Readers find the index in O(1) from the trailer and seek straight
//! to any frame chunk; [`ContainerReader::scan`] instead walks the
//! chunks sequentially, which recovers unfinished files that never got
//! an index. Every structure is checksummed independently, so the
//! conformance harness can corrupt one layer at a time and assert the
//! matching typed [`WireError`].

use std::io::Write;

use rpr_core::EncodedFrame;
use serde::{Deserialize, Serialize};

use crate::bytes as raw;
use crate::crc32::crc32;
use crate::frame::{encode_frame, EncodedFrameView, MaskCodec};
use crate::varint::{read_varint, write_varint};
use crate::{Result, WireError};

/// File header magic.
pub const FILE_MAGIC: [u8; 8] = *b"RPRWIRE1";
/// Trailer magic (last four bytes of every finished container).
pub const TRAILER_MAGIC: [u8; 4] = *b"RPRX";
/// Container format version this crate reads and writes. Version 3
/// codes the mask by pattern runs ([`crate::rle`]) and drops the
/// row-offset table from the frame blob; version 2 had replaced
/// version 1's byte-serial FNV-1a frame digest with the word-at-a-time
/// one. Older files are refused with [`WireError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 3;
/// Size of the file header in bytes.
pub const HEADER_LEN: usize = 16;
/// Size of a chunk header (kind + payload_len + crc32).
pub const CHUNK_HEADER_LEN: usize = 9;
/// Size of the fixed trailer in bytes.
pub const TRAILER_LEN: usize = 20;
/// Chunk kind carrying one frame blob.
pub const CHUNK_FRAME: u8 = b'F';
/// Chunk kind carrying the frame index.
pub const CHUNK_INDEX: u8 = b'I';
/// Hard cap on the declared index entry count (allocation-bomb guard).
pub const MAX_FRAME_COUNT: u64 = 1 << 24;

/// One entry of the trailing frame index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameEntry {
    /// `frame_idx` of the frame the chunk claims to hold. Readers
    /// cross-check this against the parsed blob, which is what catches
    /// stale index entries pointing at the wrong chunk.
    pub frame_idx: u64,
    /// Byte offset of the frame chunk's header from the file start.
    pub offset: u64,
    /// Length of the chunk's payload (the frame blob).
    pub len: u32,
}

/// Aggregate size accounting from a [`ContainerWriter`], the numbers
/// behind `BENCH_wire.json`'s runs-vs-raw comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WriterStats {
    /// Frames appended.
    pub frames: u64,
    /// Sum of payload bytes across frames.
    pub payload_bytes: u64,
    /// Sum of packed 2-bit mask sizes (what raw coding would store).
    pub raw_mask_bytes: u64,
    /// Sum of run-coded mask sizes (whether or not the runs were
    /// kept; see [`crate::FrameEncodeStats::run_mask_bytes`]).
    pub run_mask_bytes: u64,
    /// Mask bytes actually written.
    pub mask_bytes_written: u64,
    /// Frames whose mask was run-coded.
    pub run_frames: u64,
    /// Total container size, header through trailer.
    pub container_bytes: u64,
}

/// Streaming writer producing a `.rpr` container on any [`Write`].
///
/// Frames are validated and flushed chunk-by-chunk as they arrive;
/// [`ContainerWriter::finish`] appends the index and trailer. Dropping
/// the writer without finishing leaves a header + frame chunks file
/// that [`ContainerReader::scan`] can still recover.
pub struct ContainerWriter<W: Write> {
    sink: W,
    codec: MaskCodec,
    offset: u64,
    entries: Vec<FrameEntry>,
    stats: WriterStats,
    scratch: Vec<u8>,
}

impl<W: Write> ContainerWriter<W> {
    /// Starts a container on `sink` with the default
    /// [`MaskCodec::Auto`], writing the file header immediately.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the sink rejects the header.
    pub fn new(sink: W) -> Result<Self> {
        Self::with_codec(sink, MaskCodec::Auto)
    }

    /// Starts a container with an explicit mask codec.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the sink rejects the header.
    pub fn with_codec(mut sink: W, codec: MaskCodec) -> Result<Self> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&FILE_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        let crc = crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        sink.write_all(&header)?;
        Ok(ContainerWriter {
            sink,
            codec,
            offset: HEADER_LEN as u64,
            entries: Vec::new(),
            stats: WriterStats { container_bytes: HEADER_LEN as u64, ..Default::default() },
            scratch: Vec::new(),
        })
    }

    fn write_chunk(&mut self, kind: u8, payload: &[u8]) -> Result<u64> {
        let len = u32::try_from(payload.len()).map_err(|_| WireError::BadChunk {
            reason: format!("chunk payload of {} bytes exceeds u32", payload.len()),
        })?;
        let chunk_offset = self.offset;
        // Stack-built header: append() is the hot path and must not
        // allocate per chunk.
        let mut head = [0u8; CHUNK_HEADER_LEN];
        head[0] = kind; // rpr-check: allow(panic-surface): constant index into a [u8; CHUNK_HEADER_LEN] array
        head[1..5].copy_from_slice(&len.to_le_bytes()); // rpr-check: allow(panic-surface): constant range inside the 9-byte header array
        head[5..9].copy_from_slice(&crc32(payload).to_le_bytes()); // rpr-check: allow(panic-surface): constant range inside the 9-byte header array
        self.sink.write_all(&head)?;
        self.sink.write_all(payload)?;
        self.offset += (CHUNK_HEADER_LEN + payload.len()) as u64;
        self.stats.container_bytes = self.offset;
        Ok(chunk_offset)
    }

    /// Appends one frame as a CRC-guarded frame chunk.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidFrame`] when the frame fails
    /// [`EncodedFrame::validate`], [`WireError::Io`] on sink failure.
    pub fn append(&mut self, frame: &EncodedFrame) -> Result<()> {
        let mut blob = std::mem::take(&mut self.scratch);
        blob.clear();
        let frame_stats = encode_frame(frame, self.codec, &mut blob)?;
        let result = self.write_chunk(CHUNK_FRAME, &blob);
        self.scratch = blob;
        let chunk_offset = result?;
        let len = u32::try_from(frame_stats.encoded_bytes).map_err(|_| WireError::BadChunk {
            reason: format!("frame blob of {} bytes exceeds u32", frame_stats.encoded_bytes),
        })?;
        self.entries.push(FrameEntry {
            frame_idx: frame.frame_idx(),
            offset: chunk_offset,
            len,
        });
        self.stats.frames += 1;
        self.stats.payload_bytes += frame_stats.payload_bytes as u64;
        self.stats.raw_mask_bytes += frame_stats.raw_mask_bytes as u64;
        self.stats.run_mask_bytes += frame_stats.run_mask_bytes as u64;
        self.stats.mask_bytes_written += frame_stats.mask_bytes as u64;
        self.stats.run_frames += u64::from(frame_stats.mask_runs);
        Ok(())
    }

    /// Frames appended so far.
    pub fn stats(&self) -> &WriterStats {
        &self.stats
    }

    /// Writes the index chunk and trailer, returning the sink and the
    /// final accounting.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on sink failure.
    pub fn finish(mut self) -> Result<(W, WriterStats)> {
        let mut index = Vec::new();
        write_varint(&mut index, self.entries.len() as u64);
        for e in &self.entries {
            write_varint(&mut index, e.frame_idx);
            write_varint(&mut index, e.offset);
            write_varint(&mut index, u64::from(e.len));
        }
        let index_len = u32::try_from(index.len()).map_err(|_| WireError::BadChunk {
            reason: format!("index payload of {} bytes exceeds u32", index.len()),
        })?;
        let index_offset = self.write_chunk(CHUNK_INDEX, &index)?;

        let mut trailer = Vec::with_capacity(TRAILER_LEN);
        trailer.extend_from_slice(&index_offset.to_le_bytes());
        trailer.extend_from_slice(&index_len.to_le_bytes());
        let crc = crc32(&trailer);
        trailer.extend_from_slice(&crc.to_le_bytes());
        trailer.extend_from_slice(&TRAILER_MAGIC);
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        self.offset += TRAILER_LEN as u64;
        self.stats.container_bytes = self.offset;
        Ok((self.sink, self.stats))
    }
}

/// Checks the 16-byte file header. Returns nothing; the version and
/// flags are the only variable fields and v1 readers ignore flags
/// (reserved, writers emit zero).
pub(crate) fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            what: "file header",
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    if raw::slice_at(bytes, 0, 8, "file header magic")? != FILE_MAGIC {
        return Err(WireError::BadMagic { what: "file header" });
    }
    let stored = raw::le_u32(bytes, 12, "file header checksum")?;
    let computed = crc32(raw::slice_at(bytes, 0, 12, "file header")?);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { what: "file header", stored, computed });
    }
    let version = raw::le_u16(bytes, 8, "format version")?;
    if version != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion { version });
    }
    Ok(())
}

/// Parses the fixed trailer, returning `(index_chunk_offset,
/// index_payload_len)`.
fn parse_trailer(bytes: &[u8]) -> Result<(u64, u32)> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(WireError::Truncated {
            what: "container trailer",
            needed: (HEADER_LEN + TRAILER_LEN) as u64,
            available: bytes.len() as u64,
        });
    }
    let t = raw::slice_at(bytes, bytes.len() - TRAILER_LEN, TRAILER_LEN, "container trailer")?;
    parse_trailer_slice(t)
}

/// Parses exactly the [`TRAILER_LEN`] trailer bytes — the shared core
/// of [`parse_trailer`] and the streaming decoder, which holds the
/// trailer in its own buffer rather than at the end of a whole file.
pub(crate) fn parse_trailer_slice(t: &[u8]) -> Result<(u64, u32)> {
    if raw::slice_at(t, 16, 4, "trailer magic")? != TRAILER_MAGIC {
        return Err(WireError::BadMagic { what: "trailer" });
    }
    let stored = raw::le_u32(t, 12, "trailer checksum")?;
    let computed = crc32(raw::slice_at(t, 0, 12, "trailer")?);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { what: "trailer", stored, computed });
    }
    let index_offset = raw::le_u64(t, 0, "trailer index offset")?;
    let index_len = raw::le_u32(t, 8, "trailer index length")?;
    Ok((index_offset, index_len))
}

/// Reads the chunk whose header starts at `offset`, verifying its CRC.
/// Returns the kind byte and a borrow of the payload.
fn read_chunk(bytes: &[u8], offset: u64) -> Result<(u8, &[u8])> {
    let offset = usize::try_from(offset).map_err(|_| WireError::BadChunk {
        reason: format!("chunk offset {offset} overflows usize"),
    })?;
    let end = offset.checked_add(CHUNK_HEADER_LEN).filter(|&e| e <= bytes.len()).ok_or(
        WireError::Truncated {
            what: "chunk header",
            needed: CHUNK_HEADER_LEN as u64,
            available: bytes.len().saturating_sub(offset) as u64,
        },
    )?;
    let head = raw::slice_at(bytes, offset, CHUNK_HEADER_LEN, "chunk header")?;
    let kind = raw::byte_at(head, 0, "chunk kind")?;
    if kind != CHUNK_FRAME && kind != CHUNK_INDEX {
        return Err(WireError::BadChunk { reason: format!("unknown chunk kind {kind:#04x}") });
    }
    let len = raw::usize_from(u64::from(raw::le_u32(head, 1, "chunk payload length")?), "chunk payload length")?;
    let stored = raw::le_u32(head, 5, "chunk checksum")?;
    if end.checked_add(len).filter(|&e| e <= bytes.len()).is_none() {
        return Err(WireError::Truncated {
            what: "chunk payload",
            needed: len as u64,
            available: (bytes.len() - end) as u64,
        });
    }
    let payload = raw::slice_at(bytes, end, len, "chunk payload")?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { what: "chunk payload", stored, computed });
    }
    Ok((kind, payload))
}

/// Parses an index chunk's payload into frame entries.
///
/// # Errors
///
/// [`WireError::BadVarint`], [`WireError::LimitExceeded`] (declared
/// count above [`MAX_FRAME_COUNT`]), or [`WireError::BadIndex`] for
/// trailing bytes or entry fields that cannot fit their types.
pub fn parse_entries(payload: &[u8]) -> Result<Vec<FrameEntry>> {
    let mut pos = 0usize;
    let count = read_varint(payload, &mut pos, "index entry count")?;
    if count > MAX_FRAME_COUNT {
        return Err(WireError::LimitExceeded {
            what: "index entry count",
            value: count,
            limit: MAX_FRAME_COUNT,
        });
    }
    let mut entries = Vec::with_capacity(raw::usize_from(count, "index entry count")?);
    for _ in 0..count {
        let frame_idx = read_varint(payload, &mut pos, "index frame_idx")?;
        let offset = read_varint(payload, &mut pos, "index chunk offset")?;
        let len = read_varint(payload, &mut pos, "index payload length")?;
        let len = u32::try_from(len).map_err(|_| WireError::BadIndex {
            reason: format!("entry payload length {len} overflows u32"),
        })?;
        entries.push(FrameEntry { frame_idx, offset, len });
    }
    if pos != payload.len() {
        return Err(WireError::BadIndex {
            reason: format!("{} trailing bytes after index entries", payload.len() - pos),
        });
    }
    Ok(entries)
}

/// A parsed container over a borrowed byte slice, exposing O(1)
/// frame access through the trailing index.
pub struct ContainerReader<'a> {
    bytes: &'a [u8],
    entries: Vec<FrameEntry>,
}

impl<'a> ContainerReader<'a> {
    /// Opens a finished container: checks the header, locates the
    /// index through the trailer, and parses its entries. O(index
    /// size), independent of frame count or payload bytes.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for any malformed header, trailer, index
    /// chunk, or index payload.
    pub fn open(bytes: &'a [u8]) -> Result<Self> {
        check_header(bytes)?;
        let (index_offset, index_len) = parse_trailer(bytes)?;
        let body =
            raw::slice_at(bytes, 0, bytes.len().saturating_sub(TRAILER_LEN), "container body")?;
        let (kind, payload) = read_chunk(body, index_offset)?;
        if kind != CHUNK_INDEX {
            return Err(WireError::BadIndex {
                reason: format!("trailer points at chunk kind {kind:#04x}, not the index"),
            });
        }
        if payload.len() as u64 != u64::from(index_len) {
            return Err(WireError::BadIndex {
                reason: format!(
                    "trailer declares a {index_len}-byte index, chunk holds {}",
                    payload.len()
                ),
            });
        }
        let entries = parse_entries(payload)?;
        Ok(ContainerReader { bytes, entries })
    }

    /// Opens a container by walking its chunks sequentially, ignoring
    /// the trailer — the recovery path for unfinished files that never
    /// got an index (the entries are rebuilt from the frame chunks
    /// actually present). Stops cleanly at the index chunk or when
    /// fewer than a chunk header's bytes remain.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for a malformed header or any malformed
    /// chunk encountered before the stop condition.
    pub fn scan(bytes: &'a [u8]) -> Result<Self> {
        check_header(bytes)?;
        let mut entries = Vec::new();
        let mut pos = HEADER_LEN as u64;
        while pos + CHUNK_HEADER_LEN as u64 <= bytes.len() as u64 {
            let (kind, payload) = read_chunk(bytes, pos)?;
            if kind == CHUNK_INDEX {
                break;
            }
            if payload.len() < crate::frame::FRAME_HEADER_LEN {
                return Err(WireError::BadChunk {
                    reason: format!("frame chunk payload of {} bytes is too short", payload.len()),
                });
            }
            let frame_idx = raw::le_u64(payload, 8, "frame index")?;
            let len = u32::try_from(payload.len()).map_err(|_| WireError::BadChunk {
                reason: format!("chunk payload of {} bytes exceeds u32", payload.len()),
            })?;
            entries.push(FrameEntry { frame_idx, offset: pos, len });
            pos += (CHUNK_HEADER_LEN + payload.len()) as u64;
        }
        Ok(ContainerReader { bytes, entries })
    }

    /// Number of indexed frames.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the container indexes no frames.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The frame index entries, in container order.
    pub fn entries(&self) -> &[FrameEntry] {
        &self.entries
    }

    /// The underlying bytes the reader was opened over.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Decodes frame `i` as a zero-copy [`EncodedFrameView`] borrowing
    /// from the container bytes: one seek via the index entry, one CRC
    /// pass over the chunk, no payload copy.
    ///
    /// # Errors
    ///
    /// [`WireError::BadIndex`] for out-of-range `i` or an entry that
    /// disagrees with the chunk it points at (wrong kind, wrong length,
    /// or a `frame_idx` mismatch — the stale-entry fault); otherwise
    /// whatever [`read_chunk`]/[`EncodedFrameView::parse`] raise.
    pub fn view(&self, i: usize) -> Result<EncodedFrameView<'a>> {
        let entry = self.entries.get(i).ok_or_else(|| WireError::BadIndex {
            reason: format!("frame {i} out of range ({} indexed)", self.entries.len()),
        })?;
        frame_chunk(self.bytes, entry)
    }

    /// Decodes frame `i` to an owned, fully validated [`EncodedFrame`].
    ///
    /// # Errors
    ///
    /// Everything [`ContainerReader::view`] raises, plus
    /// [`WireError::CorruptFrame`] when the digest check fails.
    pub fn frame(&self, i: usize) -> Result<EncodedFrame> {
        self.view(i)?.into_validated_frame()
    }
}

/// Reads and decodes the frame chunk an index entry points at,
/// cross-checking the entry against the parsed blob — the seek
/// primitive behind [`ContainerReader::view`], exposed standalone so
/// owners of a byte buffer plus pre-parsed entries (e.g. a stream
/// replay source) can decode without re-opening the container.
///
/// # Errors
///
/// [`WireError::BadIndex`] when the entry points at a non-frame
/// chunk, disagrees on the payload length, or names a different
/// `frame_idx` than the blob carries (a stale entry); otherwise the
/// chunk-read and frame-parse errors.
pub fn frame_chunk<'a>(bytes: &'a [u8], entry: &FrameEntry) -> Result<EncodedFrameView<'a>> {
    let (kind, payload) = read_chunk(bytes, entry.offset)?;
    if kind != CHUNK_FRAME {
        return Err(WireError::BadIndex {
            reason: format!("entry points at chunk kind {kind:#04x}, not a frame"),
        });
    }
    if payload.len() as u64 != u64::from(entry.len) {
        return Err(WireError::BadIndex {
            reason: format!(
                "entry declares {} payload bytes, chunk holds {}",
                entry.len,
                payload.len()
            ),
        });
    }
    let view = EncodedFrameView::parse(payload)?;
    if view.frame_idx() != entry.frame_idx {
        return Err(WireError::BadIndex {
            reason: format!(
                "stale index entry: index says frame_idx {}, chunk holds {}",
                entry.frame_idx,
                view.frame_idx()
            ),
        });
    }
    Ok(view)
}

/// A raw chunk located by [`list_chunks`] — the handle fault injectors
/// and the fuzzer use to aim mutations at specific container layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChunk {
    /// Byte offset of the chunk header from the file start.
    pub offset: usize,
    /// The chunk kind byte.
    pub kind: u8,
    /// Byte range of the payload within the file.
    pub payload: std::ops::Range<usize>,
}

/// Walks a *finished* container's chunks (header through the region
/// the trailer delimits) without verifying payload CRCs, returning
/// their positions. Requires a valid header and trailer.
///
/// # Errors
///
/// Typed [`WireError`]s for malformed header/trailer or a chunk that
/// runs past the trailer.
pub fn list_chunks(bytes: &[u8]) -> Result<Vec<RawChunk>> {
    check_header(bytes)?;
    parse_trailer(bytes)?;
    let body_end = bytes.len() - TRAILER_LEN;
    let mut chunks = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < body_end {
        let end = pos.checked_add(CHUNK_HEADER_LEN).filter(|&e| e <= body_end).ok_or(
            WireError::Truncated {
                what: "chunk header",
                needed: CHUNK_HEADER_LEN as u64,
                available: (body_end - pos) as u64,
            },
        )?;
        let kind = raw::byte_at(bytes, pos, "chunk kind")?;
        let len = raw::usize_from(
            u64::from(raw::le_u32(bytes, pos + 1, "chunk payload length")?),
            "chunk payload length",
        )?;
        let payload_end = end.checked_add(len).filter(|&e| e <= body_end).ok_or(
            WireError::Truncated {
                what: "chunk payload",
                needed: len as u64,
                available: (body_end - end) as u64,
            },
        )?;
        chunks.push(RawChunk { offset: pos, kind, payload: end..payload_end });
        pos = payload_end;
    }
    Ok(chunks)
}

/// Recomputes and stores the CRC of the chunk whose header starts at
/// `chunk_offset` — how fault injectors make a *content* corruption
/// survive the transport checksum (e.g. a corrupted mask run that the
/// deep parser, not the CRC, must catch).
///
/// # Errors
///
/// [`WireError::Truncated`] when no whole chunk starts there.
pub fn rewrite_chunk_crc(bytes: &mut [u8], chunk_offset: usize) -> Result<()> {
    let end = chunk_offset.checked_add(CHUNK_HEADER_LEN).filter(|&e| e <= bytes.len()).ok_or(
        WireError::Truncated {
            what: "chunk header",
            needed: CHUNK_HEADER_LEN as u64,
            available: bytes.len().saturating_sub(chunk_offset) as u64,
        },
    )?;
    let len = raw::usize_from(
        u64::from(raw::le_u32(&*bytes, chunk_offset + 1, "chunk payload length")?),
        "chunk payload length",
    )?;
    let crc = crc32(raw::slice_at(&*bytes, end, len, "chunk payload")?);
    let available = bytes.len().saturating_sub(chunk_offset) as u64;
    let crc_slot = bytes.get_mut(chunk_offset + 5..chunk_offset + 9).ok_or(
        WireError::Truncated { what: "chunk header", needed: CHUNK_HEADER_LEN as u64, available },
    )?;
    crc_slot.copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Serializes `frames` into a complete in-memory container.
///
/// # Errors
///
/// [`WireError::InvalidFrame`] for any frame failing validation.
pub fn write_container(frames: &[EncodedFrame]) -> Result<Vec<u8>> {
    let mut w = ContainerWriter::new(Vec::new())?;
    for f in frames {
        w.append(f)?;
    }
    let (bytes, _) = w.finish()?;
    Ok(bytes)
}

/// Decodes every indexed frame of a container to owned, validated
/// [`EncodedFrame`]s.
///
/// # Errors
///
/// Any typed [`WireError`] from opening or decoding.
pub fn read_all(bytes: &[u8]) -> Result<Vec<EncodedFrame>> {
    let reader = ContainerReader::open(bytes)?;
    (0..reader.len()).map(|i| reader.frame(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::{EncMask, FrameMetadata, PixelStatus};

    fn frame(frame_idx: u64, width: u32, height: u32) -> EncodedFrame {
        let mut mask = EncMask::new(width, height);
        let mut payload = Vec::new();
        for y in 0..height {
            for x in 0..width {
                if (x + y + frame_idx as u32).is_multiple_of(4) {
                    mask.set(x, y, PixelStatus::Regional);
                    payload.push((x ^ y) as u8 ^ frame_idx as u8);
                }
            }
        }
        let meta = FrameMetadata::from_mask(mask);
        EncodedFrame::new(width, height, frame_idx, payload, meta)
    }

    fn sample_frames() -> Vec<EncodedFrame> {
        (0..5).map(|i| frame(i * 3, 20, 12)).collect()
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let frames = sample_frames();
        let bytes = write_container(&frames).unwrap();
        let back = read_all(&bytes).unwrap();
        assert_eq!(back, frames);
    }

    #[test]
    fn random_access_by_index() {
        let frames = sample_frames();
        let bytes = write_container(&frames).unwrap();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert_eq!(reader.len(), 5);
        assert_eq!(reader.frame(3).unwrap(), frames[3]);
        assert_eq!(reader.frame(0).unwrap(), frames[0]);
        assert_eq!(reader.entries()[3].frame_idx, 9);
        assert!(matches!(reader.view(5), Err(WireError::BadIndex { .. })));
    }

    #[test]
    fn views_borrow_the_container_bytes() {
        let frames = sample_frames();
        let bytes = write_container(&frames).unwrap();
        let reader = ContainerReader::open(&bytes).unwrap();
        let view = reader.view(2).unwrap();
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(range.contains(&(view.payload().as_ptr() as usize)));
    }

    #[test]
    fn writer_stats_account_for_everything() {
        let frames = sample_frames();
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        for f in &frames {
            w.append(f).unwrap();
        }
        let (bytes, stats) = w.finish().unwrap();
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.container_bytes, bytes.len() as u64);
        assert_eq!(
            stats.payload_bytes,
            frames.iter().map(|f| f.pixels().len() as u64).sum::<u64>()
        );
        assert!(stats.mask_bytes_written <= stats.raw_mask_bytes);
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = write_container(&[]).unwrap();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert!(reader.is_empty());
        assert_eq!(bytes.len(), HEADER_LEN + CHUNK_HEADER_LEN + 1 + TRAILER_LEN);
    }

    #[test]
    fn scan_matches_open_and_recovers_unfinished_files() {
        let frames = sample_frames();
        let bytes = write_container(&frames).unwrap();
        let scanned = ContainerReader::scan(&bytes).unwrap();
        assert_eq!(scanned.entries(), ContainerReader::open(&bytes).unwrap().entries());

        // A writer dropped before finish() leaves header + frame
        // chunks only; simulate by stripping the index and trailer.
        let unfinished = {
            let mut w = ContainerWriter::new(Vec::new()).unwrap();
            for f in &frames[..3] {
                w.append(f).unwrap();
            }
            let (full, _) = w.finish().unwrap();
            let chunks = list_chunks(&full).unwrap();
            let index = chunks.iter().find(|c| c.kind == CHUNK_INDEX).unwrap();
            full[..index.offset].to_vec()
        };
        assert!(matches!(
            ContainerReader::open(&unfinished),
            Err(WireError::BadMagic { what: "trailer" })
        ));
        let recovered = ContainerReader::scan(&unfinished).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered.frame(2).unwrap(), frames[2]);
    }

    #[test]
    fn older_versions_are_refused_with_a_typed_error() {
        // Version 1 sealed frames with FNV-1a and version 2 coded the
        // mask by entry runs beside an offset table; their files must
        // fail on the version, not as corrupt frames.
        for version in [1u16, 2] {
            let mut old = write_container(&sample_frames()).unwrap();
            old[8..10].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&old[0..12]);
            old[12..16].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                ContainerReader::open(&old).err(),
                Some(WireError::UnsupportedVersion { version })
            );
            let mut dec = crate::StreamDecoder::new();
            dec.push(&old);
            assert_eq!(dec.next_event().err(), Some(WireError::UnsupportedVersion { version }));
        }
    }

    #[test]
    fn header_and_trailer_corruption_are_typed() {
        let bytes = write_container(&sample_frames()).unwrap();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ContainerReader::open(&bad),
            Err(WireError::BadMagic { what: "file header" })
        ));

        let mut bad = bytes.clone();
        bad[8] = 0xFF; // version
        assert!(matches!(
            ContainerReader::open(&bad),
            Err(WireError::ChecksumMismatch { what: "file header", .. })
        ));
        // Fix the header CRC so the version check itself is reached.
        let crc = crc32(&bad[0..12]);
        bad[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ContainerReader::open(&bad),
            Err(WireError::UnsupportedVersion { version: 0x00FF })
        ));

        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(matches!(
            ContainerReader::open(&bad),
            Err(WireError::BadMagic { what: "trailer" })
        ));

        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - TRAILER_LEN] ^= 0xFF; // index offset byte under the trailer CRC
        assert!(matches!(
            ContainerReader::open(&bad),
            Err(WireError::ChecksumMismatch { what: "trailer", .. })
        ));
    }

    #[test]
    fn chunk_payload_corruption_is_caught_by_crc() {
        let frames = sample_frames();
        let mut bytes = write_container(&frames).unwrap();
        let chunks = list_chunks(&bytes).unwrap();
        let target = &chunks[1];
        assert_eq!(target.kind, CHUNK_FRAME);
        bytes[target.payload.start + 30] ^= 0x01;
        let reader = ContainerReader::open(&bytes).unwrap();
        assert!(matches!(
            reader.frame(1),
            Err(WireError::ChecksumMismatch { what: "chunk payload", .. })
        ));
        // Other frames are unaffected.
        assert_eq!(reader.frame(0).unwrap(), frames[0]);
    }

    #[test]
    fn crc_fixed_content_corruption_is_caught_by_validation() {
        let frames = sample_frames();
        let mut bytes = write_container(&frames).unwrap();
        let chunks = list_chunks(&bytes).unwrap();
        let target = chunks[2].clone();
        // Flip a payload byte *and* repair the transport CRC: only the
        // frame-level digest can see this one.
        bytes[target.payload.end - 1] ^= 0x80;
        rewrite_chunk_crc(&mut bytes, target.offset).unwrap();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert!(reader.view(2).is_ok(), "structural parse alone cannot detect it");
        assert!(matches!(reader.frame(2), Err(WireError::CorruptFrame { .. })));
    }

    #[test]
    fn stale_index_entries_are_detected() {
        let frames = sample_frames();
        let bytes = write_container(&frames).unwrap();
        let chunks = list_chunks(&bytes).unwrap();
        let index_chunk = chunks.iter().find(|c| c.kind == CHUNK_INDEX).unwrap().clone();
        let mut entries = parse_entries(&bytes[index_chunk.payload.clone()]).unwrap();
        // Repoint entry 4 at frame 1's chunk, keeping its frame_idx.
        entries[4].offset = entries[1].offset;
        entries[4].len = entries[1].len;
        let mut payload = Vec::new();
        write_varint(&mut payload, entries.len() as u64);
        for e in &entries {
            write_varint(&mut payload, e.frame_idx);
            write_varint(&mut payload, e.offset);
            write_varint(&mut payload, u64::from(e.len));
        }
        assert_eq!(payload.len(), index_chunk.payload.len(), "same varint widths");
        let mut bytes = bytes;
        bytes[index_chunk.payload.clone()].copy_from_slice(&payload);
        rewrite_chunk_crc(&mut bytes, index_chunk.offset).unwrap();
        let reader = ContainerReader::open(&bytes).unwrap();
        assert!(matches!(reader.frame(4), Err(WireError::BadIndex { .. })));
        assert_eq!(reader.frame(1).unwrap(), frames[1]);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let frames = sample_frames();
        let bytes = write_container(&frames).unwrap();
        for len in 0..bytes.len() {
            match ContainerReader::open(&bytes[..len]) {
                Ok(_) => panic!("truncated container at {len} bytes opened cleanly"),
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }
}
