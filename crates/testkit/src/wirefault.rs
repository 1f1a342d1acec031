//! Typed fault injectors over serialized `.rpr` containers.
//!
//! Where [`crate::FaultKind`] corrupts an in-memory
//! [`rpr_core::EncodedFrame`], each [`WireFaultKind`] corrupts the
//! *bytes* of a finished container — one mutation aimed at one of the
//! wire format's three defence layers (chunk CRC, structural parse,
//! frame digest). The layered kinds
//! ([`WireFaultKind::FrameBodyFlipCrcFixed`],
//! [`WireFaultKind::CorruptMaskRun`],
//! [`WireFaultKind::StaleIndexEntry`]) deliberately *repair* the
//! transport CRC after mutating, so only the deeper layer can catch
//! them — exactly the forged-checksum scenario the digest exists for.
//!
//! [`WireFaultKind::inject`] returns `None` when the container cannot
//! host the fault (e.g. no run-coded mask for a run corruption, or
//! fewer than two distinct frames for a stale index entry); the
//! conformance runner skips those draws rather than counting a no-op.

use crate::TestRng;
use rpr_wire::varint::{read_varint, write_varint};
use rpr_wire::{
    list_chunks, parse_entries, rewrite_chunk_crc, RawChunk, CHUNK_FRAME, CHUNK_INDEX, HEADER_LEN,
    TRAILER_LEN,
};

/// Byte offset of the `mask_encoding` discriminant inside a frame
/// blob (after width, height, frame_idx, and the integrity digest).
const MASK_ENCODING_OFFSET: usize = 24;

/// Every container-level corruption class the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFaultKind {
    /// Drop trailing bytes (torn write / partial download). Caught by
    /// the trailer or header truncation checks.
    TruncateTail,
    /// Flip one bit of the 8-byte file magic. Caught by `BadMagic`.
    HeaderMagicFlip,
    /// Flip one bit of a chunk's *stored* CRC field. Caught by the
    /// chunk checksum comparison.
    ChunkCrcFlip,
    /// Flip one bit of a chunk payload without fixing the CRC (plain
    /// transport bit rot). Caught by the chunk checksum.
    ChunkPayloadFlip,
    /// Flip one bit of a chunk header's declared payload length,
    /// desynchronizing the chunk framing. Caught by truncation, CRC,
    /// or index cross-checks.
    ChunkLenCorrupt,
    /// Flip one bit of one run of a run-coded mask *and repair the
    /// chunk CRC*, so only the deep parser (`BadRle`), the derived
    /// offset total or the frame digest can catch it. The bit lands,
    /// with equal odds, in the run's length, in its 3-bit code, or in
    /// its pattern byte (when the mask has a pattern run). `None` when
    /// no frame chose run coding.
    CorruptMaskRun,
    /// Flip one bit anywhere in a frame blob *and repair the chunk
    /// CRC* — the forged-checksum scenario. Caught by the structural
    /// parse or the frame integrity digest.
    FrameBodyFlipCrcFixed,
    /// Swap which chunks two index entries point at while keeping
    /// their claimed `frame_idx` values *and repair the index CRC* — a
    /// stale index whose checksums are all valid. Caught by the
    /// `frame_idx` cross-check against the blob.
    StaleIndexEntry,
    /// Flip one bit of the fixed trailer. Caught by the trailer magic
    /// or checksum; `ContainerReader::scan` still recovers the frames.
    TrailerCorrupt,
}

/// All container fault kinds, for corpus iteration.
pub const ALL_WIRE_FAULTS: [WireFaultKind; 9] = [
    WireFaultKind::TruncateTail,
    WireFaultKind::HeaderMagicFlip,
    WireFaultKind::ChunkCrcFlip,
    WireFaultKind::ChunkPayloadFlip,
    WireFaultKind::ChunkLenCorrupt,
    WireFaultKind::CorruptMaskRun,
    WireFaultKind::FrameBodyFlipCrcFixed,
    WireFaultKind::StaleIndexEntry,
    WireFaultKind::TrailerCorrupt,
];

impl WireFaultKind {
    /// Short stable name for reports and seed-corpus bookkeeping.
    pub fn name(self) -> &'static str {
        match self {
            WireFaultKind::TruncateTail => "truncate-tail",
            WireFaultKind::HeaderMagicFlip => "header-magic-flip",
            WireFaultKind::ChunkCrcFlip => "chunk-crc-flip",
            WireFaultKind::ChunkPayloadFlip => "chunk-payload-flip",
            WireFaultKind::ChunkLenCorrupt => "chunk-len-corrupt",
            WireFaultKind::CorruptMaskRun => "corrupt-mask-run",
            WireFaultKind::FrameBodyFlipCrcFixed => "frame-body-flip-crc-fixed",
            WireFaultKind::StaleIndexEntry => "stale-index-entry",
            WireFaultKind::TrailerCorrupt => "trailer-corrupt",
        }
    }

    /// Injects this fault into a copy of `container` (a finished
    /// `.rpr` byte image), drawing positions from `rng`. Returns
    /// `None` when the container cannot host the fault.
    pub fn inject(self, container: &[u8], rng: &mut TestRng) -> Option<Vec<u8>> {
        if container.len() < HEADER_LEN + TRAILER_LEN {
            return None;
        }
        let chunks = list_chunks(container).ok()?;
        let mut out = container.to_vec();
        match self {
            WireFaultKind::TruncateTail => {
                let keep = rng.range_usize(0, container.len() - 1);
                out.truncate(keep);
                Some(out)
            }
            WireFaultKind::HeaderMagicFlip => {
                flip_bit(&mut out, rng.range_usize(0, 7), rng);
                Some(out)
            }
            WireFaultKind::ChunkCrcFlip => {
                let c = rng.pick(&chunks);
                flip_bit(&mut out, c.offset + 5 + rng.range_usize(0, 3), rng);
                Some(out)
            }
            WireFaultKind::ChunkPayloadFlip => {
                let hosts: Vec<&RawChunk> =
                    chunks.iter().filter(|c| !c.payload.is_empty()).collect();
                if hosts.is_empty() {
                    return None;
                }
                let c = rng.pick(&hosts);
                flip_bit(&mut out, rng.range_usize(c.payload.start, c.payload.end - 1), rng);
                Some(out)
            }
            WireFaultKind::ChunkLenCorrupt => {
                let c = rng.pick(&chunks);
                flip_bit(&mut out, c.offset + 1 + rng.range_usize(0, 3), rng);
                Some(out)
            }
            WireFaultKind::CorruptMaskRun => {
                corrupt_mask_run(container, &chunks, rng).map(|(bytes, _)| bytes)
            }
            WireFaultKind::FrameBodyFlipCrcFixed => {
                let hosts: Vec<&RawChunk> =
                    chunks.iter().filter(|c| c.kind == CHUNK_FRAME).collect();
                if hosts.is_empty() {
                    return None;
                }
                let c = rng.pick(&hosts);
                flip_bit(&mut out, rng.range_usize(c.payload.start, c.payload.end - 1), rng);
                rewrite_chunk_crc(&mut out, c.offset).ok()?;
                Some(out)
            }
            WireFaultKind::StaleIndexEntry => {
                let index = chunks.iter().find(|c| c.kind == CHUNK_INDEX)?;
                let mut entries = parse_entries(container.get(index.payload.clone())?).ok()?;
                // Pick two entries whose claimed frame_idx differ, so
                // the swap is detectable (and not a silent reorder).
                let mut pair = None;
                'outer: for (i, a) in entries.iter().enumerate() {
                    for (j, b) in entries.iter().enumerate().skip(i + 1) {
                        if b.frame_idx != a.frame_idx {
                            pair = Some((i, j));
                            break 'outer;
                        }
                    }
                }
                let (i, j) = pair?;
                // Swap where the entries point (offset + length) while
                // keeping their claimed frame indices: each entry now
                // names a frame its chunk does not hold.
                let (a_off, a_len) = entries.get(i).map(|e| (e.offset, e.len))?;
                let (b_off, b_len) = entries.get(j).map(|e| (e.offset, e.len))?;
                if let Some(e) = entries.get_mut(i) {
                    e.offset = b_off;
                    e.len = b_len;
                }
                if let Some(e) = entries.get_mut(j) {
                    e.offset = a_off;
                    e.len = a_len;
                }
                let mut payload = Vec::with_capacity(index.payload.len());
                write_varint(&mut payload, entries.len() as u64);
                for e in &entries {
                    write_varint(&mut payload, e.frame_idx);
                    write_varint(&mut payload, e.offset);
                    write_varint(&mut payload, u64::from(e.len));
                }
                // A permutation of the same varint values re-encodes to
                // the same total length, so the trailer's declared
                // index size stays truthful.
                if payload.len() != index.payload.len() {
                    return None;
                }
                out.get_mut(index.payload.clone())?.copy_from_slice(&payload);
                rewrite_chunk_crc(&mut out, index.offset).ok()?;
                Some(out)
            }
            WireFaultKind::TrailerCorrupt => {
                let base = container.len() - TRAILER_LEN;
                flip_bit(&mut out, base + rng.range_usize(0, TRAILER_LEN - 1), rng);
                Some(out)
            }
        }
    }
}

/// The part of a mask run a [`WireFaultKind::CorruptMaskRun`] flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunPart {
    /// A length bit of the run's varint.
    Length,
    /// One of the three code bits of the varint's first byte.
    Code,
    /// A bit of the pattern byte after a code-4 run.
    Pattern,
}

/// One run of a coded mask: where its varint starts and ends, and
/// where its pattern byte sits (code-4 runs only).
struct RunSpan {
    varint: std::ops::Range<usize>,
    pattern: Option<usize>,
}

/// The runs of the run-coded mask `runs`, up to the first malformed
/// varint.
fn run_spans(runs: &[u8]) -> Vec<RunSpan> {
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos < runs.len() {
        let start = pos;
        let Ok(v) = read_varint(runs, &mut pos, "mask run") else { break };
        let pattern = (v & 0b111 == 4 && pos < runs.len()).then_some(pos);
        spans.push(RunSpan { varint: start..pos, pattern });
        pos += usize::from(pattern.is_some());
    }
    spans
}

/// Flips one bit of one run in a run-coded frame mask of `container`
/// and repairs the chunk CRC, returning the bytes and the part hit.
fn corrupt_mask_run(
    container: &[u8],
    chunks: &[RawChunk],
    rng: &mut TestRng,
) -> Option<(Vec<u8>, RunPart)> {
    let hosts: Vec<&RawChunk> = chunks
        .iter()
        .filter(|c| {
            c.kind == CHUNK_FRAME
                && c.payload.len() > MASK_ENCODING_OFFSET
                && container.get(c.payload.start + MASK_ENCODING_OFFSET) == Some(&1)
        })
        .collect();
    if hosts.is_empty() {
        return None;
    }
    let c = rng.pick(&hosts);
    let blob = container.get(c.payload.clone())?;
    let mut pos = MASK_ENCODING_OFFSET + 1;
    let mask_len = usize::try_from(read_varint(blob, &mut pos, "mask length").ok()?).ok()?;
    let runs = blob.get(pos..pos.checked_add(mask_len)?)?;
    let spans = run_spans(runs);
    if spans.is_empty() {
        return None;
    }
    let patterns: Vec<usize> = spans.iter().filter_map(|s| s.pattern).collect();
    let part = match rng.range_u32(0, 2) {
        2 if !patterns.is_empty() => RunPart::Pattern,
        1 => RunPart::Code,
        _ => RunPart::Length,
    };
    let span = rng.pick(&spans);
    let (at, bit) = match part {
        RunPart::Pattern => (*rng.pick(&patterns), rng.range_u32(0, 7)),
        RunPart::Code => (span.varint.start, rng.range_u32(0, 2)),
        RunPart::Length => {
            // The first byte holds length bits 3..=6 and the
            // continuation bit; later bytes hold only length bits.
            let at = rng.range_usize(span.varint.start, span.varint.end - 1);
            let low = if at == span.varint.start { 3 } else { 0 };
            (at, rng.range_u32(low, 7))
        }
    };
    let mut out = container.to_vec();
    *out.get_mut(c.payload.start + pos + at)? ^= 1 << bit;
    rewrite_chunk_crc(&mut out, c.offset).ok()?;
    Some((out, part))
}

fn flip_bit(bytes: &mut [u8], i: usize, rng: &mut TestRng) {
    // Out-of-range draws are silently skipped; every caller picks `i`
    // inside a chunk range validated by `list_chunks`.
    let bit = 1 << rng.range_u32(0, 7);
    if let Some(b) = bytes.get_mut(i) {
        *b ^= bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_capture_sequence;
    use rpr_core::RhythmicEncoder;
    use rpr_wire::write_container;

    fn sample_container() -> Vec<u8> {
        let mut rng = TestRng::new(0xC0FF);
        let (w, h) = (24, 16);
        let seq = gen_capture_sequence(&mut rng, w, h, 4);
        let mut encoder = RhythmicEncoder::new(w, h);
        let frames: Vec<_> = seq
            .frames
            .iter()
            .zip(&seq.regions)
            .enumerate()
            .map(|(i, (f, r))| encoder.encode(f, i as u64, r))
            .collect();
        write_container(&frames).unwrap()
    }

    #[test]
    fn every_wire_fault_kind_injects_on_a_typical_container() {
        let container = sample_container();
        for kind in ALL_WIRE_FAULTS {
            let mut rng = TestRng::new(0xFA);
            let injected = (0..20).find_map(|_| kind.inject(&container, &mut rng));
            let faulty = injected.unwrap_or_else(|| panic!("{} never applied", kind.name()));
            assert_ne!(faulty, container, "{} must change the bytes", kind.name());
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let container = sample_container();
        for kind in ALL_WIRE_FAULTS {
            let a = kind.inject(&container, &mut TestRng::new(77));
            let b = kind.inject(&container, &mut TestRng::new(77));
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn stale_index_needs_two_distinct_frames() {
        let mut rng = TestRng::new(3);
        let seq = gen_capture_sequence(&mut rng, 16, 12, 1);
        let frame = RhythmicEncoder::new(16, 12).encode(&seq.frames[0], 0, &seq.regions[0]);
        let container = write_container(std::slice::from_ref(&frame)).unwrap();
        let mut rng = TestRng::new(4);
        assert!(WireFaultKind::StaleIndexEntry.inject(&container, &mut rng).is_none());
    }

    #[test]
    fn mask_run_faults_hit_lengths_codes_and_pattern_bytes_and_are_caught() {
        let container = sample_container();
        let chunks = list_chunks(&container).unwrap();
        let frames = rpr_wire::read_all(&container).unwrap();
        let mut hit = Vec::new();
        for seed in 0..200 {
            let mut rng = TestRng::new(seed);
            let (faulty, part) = corrupt_mask_run(&container, &chunks, &mut rng).unwrap();
            assert!(list_chunks(&faulty).is_ok(), "the chunk CRC is repaired");
            if let Ok(back) = rpr_wire::read_all(&faulty) {
                assert_eq!(back, frames, "seed {seed}: {part:?} flip read back different frames");
            }
            if !hit.contains(&part) {
                hit.push(part);
            }
        }
        assert_eq!(hit.len(), 3, "every part of a run is hit: {hit:?}");
    }

    #[test]
    fn crc_fixed_faults_pass_the_transport_layer() {
        // The whole point of the layered kinds: after injection the
        // chunk CRC is *valid*, so listing chunks still succeeds and
        // detection must come from a deeper layer.
        let container = sample_container();
        let mut rng = TestRng::new(0xBEEF);
        let faulty = WireFaultKind::FrameBodyFlipCrcFixed.inject(&container, &mut rng).unwrap();
        assert!(list_chunks(&faulty).is_ok());
        assert!(rpr_wire::read_all(&faulty).is_err(), "deep layer must still catch it");
    }
}
