//! Incremental (streaming) ingest of a `.rpr` container.
//!
//! [`ContainerReader`](crate::ContainerReader) wants the whole file in
//! memory; an ingestion service sees the same bytes arrive in
//! arbitrary network-sized pieces, interleaved with thousands of other
//! sessions. [`StreamDecoder`] is the incremental front end: feed it
//! byte slices as they arrive ([`StreamDecoder::push`]) and drain
//! fully-validated frames as soon as their chunk is complete
//! ([`StreamDecoder::next_event`]) — no frame is ever re-parsed and
//! the internal buffer never holds more than one unfinished chunk
//! (bounded by [`MAX_STREAM_CHUNK`]).
//!
//! End-of-stream semantics mirror scan recovery, with one sharpening:
//! a session that ends exactly on a chunk boundary before the index
//! arrived is *recovered* (every complete frame was already
//! delivered, like [`ContainerReader::scan`](crate::ContainerReader::scan)
//! on an unfinished file), but a session whose final chunk is cut
//! mid-structure is a typed [`WireError::TruncatedStream`] from
//! [`StreamDecoder::finish`] — never a silent success. The distinction
//! is what lets a multi-tenant server tell a cleanly-interrupted
//! recording apart from a torn write or a lying client.

use rpr_core::EncodedFrame;

use crate::container::{check_header, parse_entries, parse_trailer_slice};
use crate::crc32::crc32;
use crate::frame::EncodedFrameView;
use crate::{
    bytes as raw, Result, WireError, CHUNK_FRAME, CHUNK_HEADER_LEN, CHUNK_INDEX, HEADER_LEN,
    MAX_FRAME_COUNT, TRAILER_LEN,
};

/// Hard cap on a streamed chunk's declared payload length (64 MiB).
/// A whole-file reader already holds the bytes, so it can afford any
/// declared length; a streaming decoder *buffers up to* the declared
/// length, so a forged 4 GiB chunk header would be an allocation bomb.
pub const MAX_STREAM_CHUNK: u64 = 1 << 26;

/// One decoded unit of the incoming container stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A complete, CRC-checked, fully validated frame.
    Frame(EncodedFrame),
    /// The index chunk and trailer arrived and verified: the container
    /// is complete. No further events follow.
    Finished {
        /// Frames the trailing index declared (cross-checked against
        /// the frames actually streamed).
        indexed_frames: u64,
    },
}

/// Parse position of the decoder within the container grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for the 16-byte file header.
    Header,
    /// Waiting for the next chunk (frame or index).
    Chunks,
    /// Index seen; waiting for the 20-byte trailer.
    Trailer,
    /// Trailer verified; the stream is complete.
    Done,
    /// A previous call returned an error; the decoder is poisoned.
    Failed,
}

/// Incremental `.rpr` container parser for streaming ingest.
///
/// ```
/// use rpr_core::{EncMask, EncodedFrame, FrameMetadata, PixelStatus};
/// use rpr_wire::{write_container, StreamDecoder, StreamEvent};
///
/// let mut mask = EncMask::new(8, 4);
/// mask.set(2, 1, PixelStatus::Regional);
/// let frame = EncodedFrame::new(8, 4, 0, vec![123], FrameMetadata::from_mask(mask));
/// let bytes = write_container(std::slice::from_ref(&frame)).unwrap();
///
/// // Feed the container one byte at a time; the frame pops out the
/// // moment its chunk is complete.
/// let mut dec = StreamDecoder::new();
/// let mut events = Vec::new();
/// for b in &bytes {
///     dec.push(std::slice::from_ref(b));
///     while let Some(ev) = dec.next_event().unwrap() {
///         events.push(ev);
///     }
/// }
/// assert_eq!(events.len(), 2); // Frame + Finished
/// assert!(matches!(&events[0], StreamEvent::Frame(f) if *f == frame));
/// assert_eq!(dec.finish().unwrap(), 1);
/// ```
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pos: usize,
    state: State,
    frames: u64,
    bytes_fed: u64,
    /// When set, decoded frames are promoted into recycled buffers —
    /// the zero-allocation steady state for long-lived sessions.
    pool: Option<rpr_core::BufferPool>,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        StreamDecoder::new()
    }
}

/// Compact the buffer once the dead prefix dominates it; keeps
/// steady-state ingest at O(one chunk) of memory without memmoving on
/// every event.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl StreamDecoder {
    /// A decoder expecting a container stream from its first byte.
    pub fn new() -> Self {
        StreamDecoder {
            buf: Vec::new(),
            pos: 0,
            state: State::Header,
            frames: 0,
            bytes_fed: 0,
            pool: None,
        }
    }

    /// A decoder promoting every frame into buffers recycled from
    /// `pool`. Recycle drained frames back with
    /// [`rpr_core::EncodedFrame::recycle`] to close the loop.
    pub fn with_pool(pool: rpr_core::BufferPool) -> Self {
        StreamDecoder { pool: Some(pool), ..StreamDecoder::new() }
    }

    /// Appends newly-arrived session bytes. Cheap: one extend; parsing
    /// happens in [`StreamDecoder::next_event`].
    pub fn push(&mut self, bytes: &[u8]) {
        self.bytes_fed += bytes.len() as u64;
        self.buf.extend_from_slice(bytes);
    }

    /// Total bytes pushed so far.
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// Frames successfully decoded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes buffered but not yet consumed by a complete structure.
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True once the trailer verified and the stream is complete.
    pub fn is_finished(&self) -> bool {
        self.state == State::Done
    }

    fn pending(&self) -> &[u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    fn consume(&mut self, n: usize) {
        self.pos = self.pos.saturating_add(n).min(self.buf.len());
        if self.pos >= COMPACT_THRESHOLD || self.pos * 2 >= self.buf.len().max(1) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    fn fail<T>(&mut self, e: WireError) -> Result<T> {
        self.state = State::Failed;
        Err(e)
    }

    /// Advances the parse as far as the buffered bytes allow, returning
    /// the next complete event, or `Ok(None)` when more bytes are
    /// needed. Call in a loop after each [`StreamDecoder::push`] until
    /// it returns `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Any typed [`WireError`] a whole-file parse would raise for the
    /// same malformation, plus [`WireError::LimitExceeded`] for a
    /// declared chunk length above [`MAX_STREAM_CHUNK`]. After an
    /// error the decoder is poisoned: further calls return the same
    /// class of failure rather than resynchronizing.
    pub fn next_event(&mut self) -> Result<Option<StreamEvent>> {
        loop {
            match self.state {
                State::Failed => {
                    return Err(WireError::BadChunk {
                        reason: "stream decoder poisoned by an earlier error".to_string(),
                    })
                }
                State::Done => return Ok(None),
                State::Header => {
                    if self.pending().len() < HEADER_LEN {
                        return Ok(None);
                    }
                    let mut header = [0u8; HEADER_LEN];
                    if let Some(src) = self.pending().get(..HEADER_LEN) {
                        header.copy_from_slice(src);
                    }
                    if let Err(e) = check_header(&header) {
                        return self.fail(e);
                    }
                    self.consume(HEADER_LEN);
                    self.state = State::Chunks;
                }
                State::Chunks => {
                    let avail = self.pending();
                    if avail.len() < CHUNK_HEADER_LEN {
                        return Ok(None);
                    }
                    let kind = match raw::byte_at(avail, 0, "chunk kind") {
                        Ok(k) => k,
                        Err(e) => return self.fail(e),
                    };
                    if kind != CHUNK_FRAME && kind != CHUNK_INDEX {
                        return self.fail(WireError::BadChunk {
                            reason: format!("unknown chunk kind {kind:#04x}"),
                        });
                    }
                    let len64 = match raw::le_u32(avail, 1, "chunk payload length") {
                        Ok(l) => u64::from(l),
                        Err(e) => return self.fail(e),
                    };
                    if len64 > MAX_STREAM_CHUNK {
                        return self.fail(WireError::LimitExceeded {
                            what: "streamed chunk payload length",
                            value: len64,
                            limit: MAX_STREAM_CHUNK,
                        });
                    }
                    let len = match raw::usize_from(len64, "chunk payload length") {
                        Ok(l) => l,
                        Err(e) => return self.fail(e),
                    };
                    let Some(total) = CHUNK_HEADER_LEN.checked_add(len) else {
                        return self.fail(WireError::BadChunk {
                            reason: format!("chunk payload length {len} overflows"),
                        });
                    };
                    if avail.len() < total {
                        return Ok(None);
                    }
                    let stored = match raw::le_u32(avail, 5, "chunk checksum") {
                        Ok(c) => c,
                        Err(e) => return self.fail(e),
                    };
                    let payload = match raw::slice_at(avail, CHUNK_HEADER_LEN, len, "chunk payload")
                    {
                        Ok(p) => p,
                        Err(e) => return self.fail(e),
                    };
                    let computed = crc32(payload);
                    if stored != computed {
                        return self.fail(WireError::ChecksumMismatch {
                            what: "chunk payload",
                            stored,
                            computed,
                        });
                    }
                    if kind == CHUNK_FRAME {
                        let frame = match EncodedFrameView::parse(payload).and_then(|v| {
                            match &self.pool {
                                Some(pool) => v.to_validated_frame_in(pool),
                                None => v.into_validated_frame(),
                            }
                        }) {
                            Ok(f) => f,
                            Err(e) => return self.fail(e),
                        };
                        self.frames += 1;
                        if self.frames > MAX_FRAME_COUNT {
                            return self.fail(WireError::LimitExceeded {
                                what: "streamed frame count",
                                value: self.frames,
                                limit: MAX_FRAME_COUNT,
                            });
                        }
                        self.consume(total);
                        return Ok(Some(StreamEvent::Frame(frame)));
                    }
                    // Index chunk: cross-check its entry count against
                    // the frames this decoder actually delivered.
                    let entries = match parse_entries(payload) {
                        Ok(e) => e,
                        Err(e) => return self.fail(e),
                    };
                    if entries.len() as u64 != self.frames {
                        let declared = entries.len();
                        return self.fail(WireError::BadIndex {
                            reason: format!(
                                "index declares {declared} frames, stream carried {}",
                                self.frames
                            ),
                        });
                    }
                    self.consume(total);
                    self.state = State::Trailer;
                }
                State::Trailer => {
                    if self.pending().len() < TRAILER_LEN {
                        return Ok(None);
                    }
                    let mut trailer = [0u8; TRAILER_LEN];
                    if let Some(src) = self.pending().get(..TRAILER_LEN) {
                        trailer.copy_from_slice(src);
                    }
                    if let Err(e) = parse_trailer_slice(&trailer) {
                        return self.fail(e);
                    }
                    self.consume(TRAILER_LEN);
                    self.state = State::Done;
                    return Ok(Some(StreamEvent::Finished { indexed_frames: self.frames }));
                }
            }
        }
    }

    /// Declares end of stream: the session closed and no more bytes
    /// will arrive. Returns the number of frames delivered.
    ///
    /// A finished container (trailer verified) and an unfinished one
    /// cut exactly at a chunk boundary both succeed — the latter is
    /// the scan-recovery contract for a writer that died before
    /// `finish()`. Anything else is typed:
    ///
    /// # Errors
    ///
    /// [`WireError::TruncatedStream`] when bytes of a partial header,
    /// chunk, or trailer remain buffered (the torn-final-chunk case),
    /// or [`WireError::BadChunk`] when the decoder was already
    /// poisoned by an earlier parse error.
    pub fn finish(&self) -> Result<u64> {
        let buffered = self.buffered() as u64;
        match self.state {
            State::Failed => Err(WireError::BadChunk {
                reason: "stream decoder poisoned by an earlier error".to_string(),
            }),
            State::Done => Ok(self.frames),
            State::Header => {
                if buffered == 0 && self.bytes_fed == 0 {
                    // An empty session carried no container at all;
                    // treat as zero recovered frames, matching a
                    // zero-byte file fed to scan (which errors) —
                    // except a *session* that sent nothing is a
                    // protocol matter, not a wire truncation.
                    Ok(0)
                } else {
                    Err(WireError::TruncatedStream {
                        what: "file header",
                        buffered,
                        needed: HEADER_LEN as u64,
                    })
                }
            }
            State::Chunks => {
                if buffered == 0 {
                    // Clean chunk boundary: scan recovery of an
                    // unfinished container.
                    Ok(self.frames)
                } else if buffered < CHUNK_HEADER_LEN as u64 {
                    Err(WireError::TruncatedStream {
                        what: "chunk header",
                        buffered,
                        needed: CHUNK_HEADER_LEN as u64,
                    })
                } else {
                    let declared = raw::le_u32(self.pending(), 1, "chunk payload length")
                        .map(u64::from)
                        .unwrap_or(0);
                    Err(WireError::TruncatedStream {
                        what: "chunk payload",
                        buffered,
                        needed: (CHUNK_HEADER_LEN as u64).saturating_add(declared),
                    })
                }
            }
            State::Trailer => Err(WireError::TruncatedStream {
                what: "container trailer",
                buffered,
                needed: TRAILER_LEN as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::write_container;
    use rpr_core::{EncMask, FrameMetadata, PixelStatus};

    fn frame(frame_idx: u64, width: u32, height: u32) -> EncodedFrame {
        let mut mask = EncMask::new(width, height);
        let mut payload = Vec::new();
        for y in 0..height {
            for x in 0..width {
                if (x + y + frame_idx as u32).is_multiple_of(3) {
                    mask.set(x, y, PixelStatus::Regional);
                    payload.push((x * 7 + y) as u8 ^ frame_idx as u8);
                }
            }
        }
        EncodedFrame::new(width, height, frame_idx, payload, FrameMetadata::from_mask(mask))
    }

    fn sample() -> (Vec<EncodedFrame>, Vec<u8>) {
        let frames: Vec<_> = (0..6).map(|i| frame(i * 2, 24, 16)).collect();
        let bytes = write_container(&frames).unwrap();
        (frames, bytes)
    }

    fn drive(dec: &mut StreamDecoder, bytes: &[u8], step: usize) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for piece in bytes.chunks(step.max(1)) {
            dec.push(piece);
            while let Some(ev) = dec.next_event().unwrap() {
                events.push(ev);
            }
        }
        events
    }

    #[test]
    fn every_split_granularity_matches_whole_file_parse() {
        let (frames, bytes) = sample();
        for step in [1, 2, 3, 7, 16, 64, 1024, bytes.len()] {
            let mut dec = StreamDecoder::new();
            let events = drive(&mut dec, &bytes, step);
            let decoded: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    StreamEvent::Frame(f) => Some(f.clone()),
                    StreamEvent::Finished { .. } => None,
                })
                .collect();
            assert_eq!(decoded, frames, "step {step}");
            assert!(matches!(
                events.last(),
                Some(StreamEvent::Finished { indexed_frames: 6 })
            ));
            assert_eq!(dec.finish().unwrap(), 6);
            assert!(dec.is_finished());
        }
    }

    #[test]
    fn chunk_boundary_cut_recovers_like_scan() {
        let (frames, bytes) = sample();
        let chunks = crate::list_chunks(&bytes).unwrap();
        // Cut right after the third frame chunk: an unfinished file.
        let cut = chunks[3].offset;
        let mut dec = StreamDecoder::new();
        let events = drive(&mut dec, &bytes[..cut], 13);
        assert_eq!(events.len(), 3);
        for (i, ev) in events.iter().enumerate() {
            assert!(matches!(ev, StreamEvent::Frame(f) if *f == frames[i]));
        }
        assert_eq!(dec.finish().unwrap(), 3, "clean boundary is scan recovery");
    }

    #[test]
    fn mid_frame_cut_is_a_typed_stream_truncation() {
        let (_, bytes) = sample();
        let chunks = crate::list_chunks(&bytes).unwrap();
        // Cut inside the fourth frame chunk's payload.
        let cut = chunks[3].payload.start + chunks[3].payload.len() / 2;
        let mut dec = StreamDecoder::new();
        let events = drive(&mut dec, &bytes[..cut], 17);
        assert_eq!(events.len(), 3, "frames before the tear still arrive");
        let err = dec.finish().unwrap_err();
        assert!(
            matches!(err, WireError::TruncatedStream { what: "chunk payload", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn mid_header_and_mid_trailer_cuts_are_typed() {
        let (_, bytes) = sample();
        let mut dec = StreamDecoder::new();
        dec.push(&bytes[..7]);
        assert!(dec.next_event().unwrap().is_none());
        assert!(matches!(
            dec.finish().unwrap_err(),
            WireError::TruncatedStream { what: "file header", .. }
        ));

        let mut dec = StreamDecoder::new();
        let events = drive(&mut dec, &bytes[..bytes.len() - 5], 29);
        assert!(!events.iter().any(|e| matches!(e, StreamEvent::Finished { .. })));
        assert!(matches!(
            dec.finish().unwrap_err(),
            WireError::TruncatedStream { what: "container trailer", .. }
        ));
    }

    #[test]
    fn empty_session_finishes_with_zero_frames() {
        let dec = StreamDecoder::new();
        assert_eq!(dec.finish().unwrap(), 0);
    }

    #[test]
    fn corrupt_payload_is_caught_at_the_chunk() {
        let (_, mut bytes) = sample();
        let chunks = crate::list_chunks(&bytes).unwrap();
        bytes[chunks[1].payload.start + 4] ^= 0x20;
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_event(), Ok(Some(StreamEvent::Frame(_)))));
        assert!(matches!(
            dec.next_event(),
            Err(WireError::ChecksumMismatch { what: "chunk payload", .. })
        ));
        // Poisoned: both further events and finish stay errors.
        assert!(dec.next_event().is_err());
        assert!(dec.finish().is_err());
    }

    #[test]
    fn declared_length_bomb_is_capped() {
        let (_, bytes) = sample();
        let mut dec = StreamDecoder::new();
        dec.push(&bytes[..HEADER_LEN]);
        assert!(dec.next_event().unwrap().is_none());
        // Forge a frame-chunk header declaring 1 GiB.
        let mut head = vec![CHUNK_FRAME];
        head.extend_from_slice(&(1u32 << 30).to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        dec.push(&head);
        assert!(matches!(
            dec.next_event(),
            Err(WireError::LimitExceeded { what: "streamed chunk payload length", .. })
        ));
    }

    #[test]
    fn index_frame_count_mismatch_is_detected() {
        let (frames, bytes) = sample();
        let chunks = crate::list_chunks(&bytes).unwrap();
        // Splice out the first frame chunk: the stream then carries 5
        // frames but the index still declares 6.
        let first = &chunks[0];
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&bytes[..first.offset]);
        spliced.extend_from_slice(&bytes[first.payload.end..]);
        let mut dec = StreamDecoder::new();
        let mut saw_err = None;
        for piece in spliced.chunks(31) {
            dec.push(piece);
            loop {
                match dec.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        saw_err = Some(e);
                        break;
                    }
                }
            }
            if saw_err.is_some() {
                break;
            }
        }
        assert!(
            matches!(saw_err, Some(WireError::BadIndex { .. })),
            "{saw_err:?} (container had {} frames)",
            frames.len()
        );
    }

    #[test]
    fn pooled_decoding_matches_and_reuses_recycled_buffers() {
        let (frames, bytes) = sample();
        let pool = rpr_core::BufferPool::new();
        let mut dec = StreamDecoder::with_pool(pool.clone());
        let events = drive(&mut dec, &bytes, 37);
        let decoded: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                StreamEvent::Frame(f) => Some(f),
                StreamEvent::Finished { .. } => None,
            })
            .collect();
        assert_eq!(decoded, frames);
        assert!(decoded.iter().all(EncodedFrame::is_validated), "frames leave validated");
        // Dismantle the drained frames back into the pool; a second
        // session over the same bytes then allocates nothing new.
        for f in decoded {
            f.recycle(&pool);
        }
        let misses_before = pool.stats().misses;
        let mut dec = StreamDecoder::with_pool(pool.clone());
        drive(&mut dec, &bytes, 37);
        assert_eq!(
            pool.stats().misses,
            misses_before,
            "steady-state stream decode must reuse recycled buffers"
        );
    }

    #[test]
    fn buffer_stays_bounded_across_a_long_stream() {
        let frames: Vec<_> = (0..40).map(|i| frame(i, 32, 24)).collect();
        let bytes = write_container(&frames).unwrap();
        let mut dec = StreamDecoder::new();
        let mut max_buf = 0usize;
        for piece in bytes.chunks(97) {
            dec.push(piece);
            while dec.next_event().unwrap().is_some() {}
            max_buf = max_buf.max(dec.buffered());
        }
        assert_eq!(dec.finish().unwrap(), 40);
        // Buffered bytes never exceed one chunk + one read quantum.
        let biggest_chunk = crate::list_chunks(&bytes)
            .unwrap()
            .iter()
            .map(|c| c.payload.len() + CHUNK_HEADER_LEN)
            .max()
            .unwrap();
        assert!(max_buf <= biggest_chunk + 97, "{max_buf} vs {biggest_chunk}");
    }
}
