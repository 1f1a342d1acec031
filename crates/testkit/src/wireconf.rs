//! The `.rpr` container corpus ([`Container`]): round-trip fidelity
//! and fault classification for the wire format.
//!
//! One *case* is a seeded capture sequence encoded to
//! [`rpr_core::EncodedFrame`]s and pushed through the wire layer four
//! ways:
//!
//! 1. **Blob round-trip** — every frame is serialized under every
//!    [`MaskCodec`] and parsed back; the result must equal the
//!    in-memory frame exactly (mask, offsets, payload, digest).
//! 2. **Container round-trip** — the whole sequence goes through
//!    [`write_container`]/[`read_all`] and must come back
//!    byte-identical; the decoded frames are then run through the
//!    production [`SoftwareDecoder`] in both [`ReconstructionMode`]s
//!    and checked against decoding the originals.
//! 3. **Scan recovery** — the container is truncated just before its
//!    index chunk (an unfinished file) and
//!    [`ContainerReader::scan`] must still recover every frame.
//! 4. **Fault injection** — every applicable [`crate::WireFaultKind`] is
//!    injected into the container bytes and the full read path must
//!    classify it: *detected* (a typed [`rpr_wire::WireError`]) or
//!    *harmless* (identical frames out). A panic or silently
//!    different frames is a conformance violation. The sequential
//!    [`ContainerReader::scan`] path is additionally held to the
//!    no-panic bar (it may legitimately salvage frames the indexed
//!    path rejects — that is what a recovery path is for).

use crate::adversary::{mode_name, CaseFixture, MODES};
use crate::{Adversary, PoolDiscipline, Tally, ALL_WIRE_FAULTS};
use rpr_core::{BufferPool, EncodedFrame, ReconstructionMode, SoftwareDecoder};
use rpr_wire::{
    list_chunks, read_all, write_container, ContainerReader, EncodedFrameView, MaskCodec,
    StreamDecoder, StreamEvent, CHUNK_INDEX,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CODECS: [(MaskCodec, &str); 3] =
    [(MaskCodec::Auto, "auto"), (MaskCodec::Raw, "raw"), (MaskCodec::Rle, "rle")];

/// The `.rpr` container corpus: one case per seed, drawing the same
/// frame population as [`crate::EncodeDecode`]. The encoder, both
/// production decoders and a streaming-ingest leg share one pool, with
/// every drained frame and decoded output recycled back into it — the
/// wire half of the buffer-reuse adversary.
///
/// Counters: `blob_roundtrips` (per-codec frame blobs that parsed back
/// exactly), `container_frames_ok` (frames that round-tripped the
/// container) and `decode_modes_ok` (reconstruction modes whose decode
/// of the round-tripped frames matched decoding the originals).
#[derive(Debug, Clone, Copy, Default)]
pub struct Container {
    /// How the case's encoder and decoders share their buffer pool.
    pub pool: PoolDiscipline,
}

impl Adversary for Container {
    fn name(&self) -> &'static str {
        self.pool.pick("container", "container_poisoned")
    }

    fn kinds(&self) -> Vec<&'static str> {
        ALL_WIRE_FAULTS.iter().map(|k| k.name()).collect()
    }

    fn run_seed(&self, seed: u64, tally: &mut Tally<'_>) {
        tally.case(|t| container_case(seed, self.pool, t));
    }
}

fn container_case(seed: u64, discipline: PoolDiscipline, t: &mut Tally<'_>) {
    let fixture = CaseFixture::draw(seed, discipline);
    let mut encoder = fixture.encoder();
    let CaseFixture { mut rng, width, height, seq, pool } = fixture;
    let frames: Vec<EncodedFrame> = seq
        .frames
        .iter()
        .zip(&seq.regions)
        .enumerate()
        .map(|(idx, (frame, regions))| encoder.encode(frame, idx as u64, regions))
        .collect();

    // 1. Blob round-trip under every codec.
    for (idx, frame) in frames.iter().enumerate() {
        for (codec, codec_name) in CODECS {
            let mut blob = Vec::new();
            let parsed = rpr_wire::encode_frame(frame, codec, &mut blob)
                .and_then(|_| EncodedFrameView::parse(&blob)?.into_validated_frame());
            match parsed {
                Err(e) => t.violation(format_args!(
                    "frame {idx} codec {codec_name}: blob round-trip failed: {e}"
                )),
                Ok(back) if &back != frame => t.violation(format_args!(
                    "frame {idx} codec {codec_name}: blob round-trip differs"
                )),
                Ok(_) => t.count("blob_roundtrips", 1),
            }
        }
    }

    // 2. Container round-trip, then decode equivalence in both modes.
    let container = match write_container(&frames) {
        Ok(bytes) => bytes,
        Err(e) => {
            t.violation(format_args!("write_container failed: {e}"));
            return;
        }
    };
    match read_all(&container) {
        Err(e) => t.violation(format_args!("read_all failed: {e}")),
        Ok(back) => {
            for (idx, (a, b)) in frames.iter().zip(&back).enumerate() {
                if a == b {
                    t.count("container_frames_ok", 1);
                } else {
                    t.violation(format_args!("frame {idx}: container round-trip differs"));
                }
            }
            if back.len() != frames.len() {
                t.violation(format_args!(
                    "container returned {} of {} frames",
                    back.len(),
                    frames.len()
                ));
            }
            for mode in MODES {
                if decode_sequence(&frames, width, height, mode, &pool)
                    == decode_sequence(&back, width, height, mode, &pool)
                {
                    t.count("decode_modes_ok", 1);
                } else {
                    t.violation(format_args!(
                        "{}: replayed decode differs from in-memory decode",
                        mode_name(mode)
                    ));
                }
            }

            // Streaming ingest over the same bytes: frames promoted
            // into recycled pool buffers must match the whole-file
            // read, and each drained frame is dismantled back into the
            // pool so later promotions reuse (poisoned) capacity.
            let mut dec = StreamDecoder::with_pool(pool.clone());
            dec.push(&container);
            let mut streamed = 0usize;
            loop {
                match dec.next_event() {
                    Ok(Some(StreamEvent::Frame(f))) => {
                        if frames.get(streamed) != Some(&f) {
                            t.violation(format_args!(
                                "streamed frame {streamed} differs from original"
                            ));
                        }
                        streamed += 1;
                        f.recycle(&pool);
                    }
                    Ok(Some(StreamEvent::Finished { .. })) | Ok(None) => break,
                    Err(e) => {
                        t.violation(format_args!(
                            "streaming ingest of a clean container failed: {e}"
                        ));
                        break;
                    }
                }
            }
            if streamed != frames.len() {
                t.violation(format_args!(
                    "streaming ingest delivered {streamed} of {} frames",
                    frames.len()
                ));
            }
        }
    }

    // 3. Scan recovery of an unfinished file (no index, no trailer).
    if let Err(why) = scan_recovery(&container, &frames) {
        t.violation(why);
    }

    // 4. Fault injection over the container bytes.
    let mut fault_rng = rng.fork();
    for kind in ALL_WIRE_FAULTS {
        let mut krng = fault_rng.fork();
        let Some(faulty) = kind.inject(&container, &mut krng) else {
            t.skipped();
            continue;
        };
        let name = kind.name();
        match catch_unwind(AssertUnwindSafe(|| read_all(&faulty))) {
            Err(_) => t.violation(format_args!("{name}: indexed read path panicked")),
            Ok(Err(_)) => t.detected(name),
            Ok(Ok(back)) if back == frames => t.harmless(name),
            Ok(Ok(_)) => t.violation(format_args!("{name}: silent wrong frames from indexed read")),
        }
        // The recovery path may salvage or reject, but never panic —
        // and what it does salvage must validate, never differ.
        let scanned = catch_unwind(AssertUnwindSafe(|| {
            let reader = ContainerReader::scan(&faulty)?;
            (0..reader.len()).map(|i| reader.frame(i)).collect::<Result<Vec<_>, _>>()
        }));
        match scanned {
            Err(_) => t.violation(format_args!("{name}: scan recovery path panicked")),
            Ok(Ok(salvaged)) => {
                if !salvaged.iter().all(|f| frames.contains(f)) {
                    t.violation(format_args!("{name}: scan salvaged a frame that never existed"));
                }
            }
            Ok(Err(_)) => {}
        }
    }
}

fn decode_sequence(
    frames: &[EncodedFrame],
    width: u32,
    height: u32,
    mode: ReconstructionMode,
    pool: &BufferPool,
) -> Vec<Option<rpr_frame::GrayFrame>> {
    let mut decoder = SoftwareDecoder::with_pool(width, height, mode, pool.clone());
    frames.iter().map(|f| decoder.try_decode(f).ok()).collect()
}

fn scan_recovery(container: &[u8], frames: &[EncodedFrame]) -> Result<(), String> {
    let chunks = list_chunks(container).map_err(|e| format!("list_chunks failed: {e}"))?;
    let index = chunks
        .iter()
        .find(|c| c.kind == CHUNK_INDEX)
        .ok_or_else(|| "finished container has no index chunk".to_string())?;
    let truncated = &container[..index.offset];
    let reader =
        ContainerReader::scan(truncated).map_err(|e| format!("scan of unfinished file failed: {e}"))?;
    if reader.len() != frames.len() {
        return Err(format!("scan recovered {} of {} frames", reader.len(), frames.len()));
    }
    for (i, orig) in frames.iter().enumerate() {
        let back = reader.frame(i).map_err(|e| format!("scan frame {i} failed: {e}"))?;
        if &back != orig {
            return Err(format!("scan-recovered frame {i} differs"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_adversary, POISON_SENTINEL};

    #[test]
    fn small_corpus_is_clean_and_classifies_faults() {
        for pool in [PoolDiscipline::Fresh, PoolDiscipline::Poisoned(POISON_SENTINEL)] {
            let report = run_adversary(&Container { pool }, 2000, 25);
            assert!(report.passed(), "violations: {:#?}", report.violations);
            assert_eq!(report.cases_passed, 25);
            assert!(report.faults_detected > 0, "corpus must exercise detections");
            assert_eq!(report.counter("decode_modes_ok"), 2 * 25);
            assert_eq!(
                report.counter("blob_roundtrips"),
                report.counter("container_frames_ok") * 3
            );
            assert!(report.fault_counts.contains_key("stale-index-entry"));
        }
    }
}
