//! Container-level conformance: round-trip fidelity and fault
//! classification for the `.rpr` wire format.
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
//!
//! Reports serialize to JSON so CI can archive them next to the
//! encode→decode corpus; any violation carries the case seed.

use crate::{gen_capture_sequence, PoolDiscipline, TestRng, ALL_WIRE_FAULTS};
use rpr_core::{BufferPool, EncodedFrame, ReconstructionMode, RhythmicEncoder, SoftwareDecoder};
use rpr_wire::{
    list_chunks, read_all, write_container, ContainerReader, EncodedFrameView, MaskCodec,
    StreamDecoder, StreamEvent, CHUNK_INDEX,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MODES: [ReconstructionMode; 2] =
    [ReconstructionMode::BlockNearest, ReconstructionMode::FifoReplicate];

const CODECS: [(MaskCodec, &str); 3] =
    [(MaskCodec::Auto, "auto"), (MaskCodec::Raw, "raw"), (MaskCodec::Rle, "rle")];

fn mode_name(mode: ReconstructionMode) -> &'static str {
    match mode {
        ReconstructionMode::BlockNearest => "block-nearest",
        ReconstructionMode::FifoReplicate => "fifo-replicate",
    }
}

/// Outcome counters and violations for one seeded container case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireCaseReport {
    /// The seed that reproduces this case end to end.
    pub seed: u64,
    /// Frame width drawn for the case.
    pub width: u32,
    /// Frame height drawn for the case.
    pub height: u32,
    /// Number of frames in the capture sequence.
    pub frames: usize,
    /// Per-codec frame blobs that round-tripped exactly.
    pub blob_roundtrips: u64,
    /// Frames that round-tripped the container byte-identically.
    pub container_frames_ok: u64,
    /// Reconstruction modes whose decode of the round-tripped frames
    /// matched decoding the originals.
    pub decode_modes_ok: u64,
    /// True when the truncated-container scan recovered every frame.
    pub scan_recovery_ok: bool,
    /// Container faults classified as detected (typed error).
    pub faults_detected: u64,
    /// Container faults classified as harmless (identical frames).
    pub faults_harmless: u64,
    /// Fault draws skipped because the container could not host them.
    pub faults_skipped: u64,
    /// Per-fault-kind counts of classified injections.
    pub fault_counts: BTreeMap<String, u64>,
    /// Human-readable descriptions of every conformance violation.
    pub violations: Vec<String>,
}

impl WireCaseReport {
    /// True when the case produced no violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregated outcome of a whole container seed corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireCorpusReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases with no violations.
    pub cases_passed: u64,
    /// Per-codec frame blobs that round-tripped exactly.
    pub blob_roundtrips: u64,
    /// Frames that round-tripped a container byte-identically.
    pub container_frames_ok: u64,
    /// Reconstruction-mode decode equivalences verified.
    pub decode_modes_ok: u64,
    /// Total container faults classified as detected.
    pub faults_detected: u64,
    /// Total container faults classified as harmless.
    pub faults_harmless: u64,
    /// Total fault draws skipped as inapplicable.
    pub faults_skipped: u64,
    /// Per-fault-kind counts of detected + harmless classifications.
    pub fault_counts: BTreeMap<String, u64>,
    /// Seeds of failing cases (rerun with `run_wire_case(seed)`).
    pub failing_seeds: Vec<u64>,
    /// First violations encountered, capped to keep reports readable.
    pub violations: Vec<String>,
}

impl WireCorpusReport {
    /// True when every case passed.
    pub fn passed(&self) -> bool {
        self.failing_seeds.is_empty()
    }
}

/// Runs one seeded container-conformance case. Geometry, content,
/// regions, and fault draws are all derived from `seed` with the same
/// ranges as [`crate::run_case`], so the two corpora stress the same
/// frame population.
pub fn run_wire_case(seed: u64) -> WireCaseReport {
    run_wire_case_in(seed, PoolDiscipline::Fresh)
}

/// [`run_wire_case`] under an explicit [`PoolDiscipline`]: the
/// encoder, both production decoders, and a streaming-ingest leg share
/// one pool, with every drained frame and decoded output recycled back
/// into it — the wire half of the buffer-reuse adversary.
pub fn run_wire_case_in(seed: u64, discipline: PoolDiscipline) -> WireCaseReport {
    let pool = match discipline {
        PoolDiscipline::Fresh => BufferPool::new(),
        PoolDiscipline::Poisoned(sentinel) => BufferPool::poisoned(sentinel),
    };
    let mut rng = TestRng::new(seed);
    let width = rng.range_u32(8, 40);
    let height = rng.range_u32(8, 32);
    let n_frames = rng.range_usize(1, 5);
    let seq = gen_capture_sequence(&mut rng, width, height, n_frames);

    let mut report = WireCaseReport {
        seed,
        width,
        height,
        frames: n_frames,
        blob_roundtrips: 0,
        container_frames_ok: 0,
        decode_modes_ok: 0,
        scan_recovery_ok: false,
        faults_detected: 0,
        faults_harmless: 0,
        faults_skipped: 0,
        fault_counts: BTreeMap::new(),
        violations: Vec::new(),
    };

    let mut encoder = RhythmicEncoder::with_pool(
        width,
        height,
        rpr_core::EncoderConfig::default(),
        pool.clone(),
    );
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
            match rpr_wire::encode_frame(frame, codec, &mut blob) {
                Err(e) => report.violations.push(format!(
                    "seed {seed} frame {idx} codec {codec_name}: encode refused a valid frame: {e}"
                )),
                Ok(_) => match EncodedFrameView::parse(&blob).and_then(|v| v.into_validated_frame())
                {
                    Err(e) => report.violations.push(format!(
                        "seed {seed} frame {idx} codec {codec_name}: blob failed to parse back: {e}"
                    )),
                    Ok(back) if &back != frame => report.violations.push(format!(
                        "seed {seed} frame {idx} codec {codec_name}: blob round-trip differs"
                    )),
                    Ok(_) => report.blob_roundtrips += 1,
                },
            }
        }
    }

    // 2. Container round-trip, then decode equivalence in both modes.
    let container = match write_container(&frames) {
        Ok(bytes) => bytes,
        Err(e) => {
            report.violations.push(format!("seed {seed}: write_container failed: {e}"));
            return report;
        }
    };
    match read_all(&container) {
        Err(e) => report.violations.push(format!("seed {seed}: read_all failed: {e}")),
        Ok(back) => {
            for (idx, (a, b)) in frames.iter().zip(&back).enumerate() {
                if a == b {
                    report.container_frames_ok += 1;
                } else {
                    report.violations.push(format!(
                        "seed {seed} frame {idx}: container round-trip differs"
                    ));
                }
            }
            if back.len() != frames.len() {
                report.violations.push(format!(
                    "seed {seed}: container returned {} of {} frames",
                    back.len(),
                    frames.len()
                ));
            }
            for mode in MODES {
                if decode_sequence(&frames, width, height, mode, &pool)
                    == decode_sequence(&back, width, height, mode, &pool)
                {
                    report.decode_modes_ok += 1;
                } else {
                    report.violations.push(format!(
                        "seed {seed} {}: replayed decode differs from in-memory decode",
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
                            report.violations.push(format!(
                                "seed {seed}: streamed frame {streamed} differs from original"
                            ));
                        }
                        streamed += 1;
                        f.recycle(&pool);
                    }
                    Ok(Some(StreamEvent::Finished { .. })) | Ok(None) => break,
                    Err(e) => {
                        report.violations.push(format!(
                            "seed {seed}: streaming ingest of a clean container failed: {e}"
                        ));
                        break;
                    }
                }
            }
            if streamed != frames.len() {
                report.violations.push(format!(
                    "seed {seed}: streaming ingest delivered {streamed} of {} frames",
                    frames.len()
                ));
            }
        }
    }

    // 3. Scan recovery of an unfinished file (no index, no trailer).
    report.scan_recovery_ok = match scan_recovery(&container, &frames) {
        Ok(()) => true,
        Err(why) => {
            report.violations.push(format!("seed {seed}: {why}"));
            false
        }
    };

    // 4. Fault injection over the container bytes.
    let mut fault_rng = rng.fork();
    for kind in ALL_WIRE_FAULTS {
        let mut krng = fault_rng.fork();
        let Some(faulty) = kind.inject(&container, &mut krng) else {
            report.faults_skipped += 1;
            continue;
        };
        match catch_unwind(AssertUnwindSafe(|| read_all(&faulty))) {
            Err(_) => report.violations.push(format!(
                "seed {seed} fault {}: indexed read path panicked",
                kind.name()
            )),
            Ok(Err(_)) => {
                report.faults_detected += 1;
                *report.fault_counts.entry(kind.name().to_string()).or_insert(0) += 1;
            }
            Ok(Ok(back)) => {
                if back == frames {
                    report.faults_harmless += 1;
                    *report.fault_counts.entry(kind.name().to_string()).or_insert(0) += 1;
                } else {
                    report.violations.push(format!(
                        "seed {seed} fault {}: silent wrong frames from indexed read",
                        kind.name()
                    ));
                }
            }
        }
        // The recovery path may salvage or reject, but never panic —
        // and what it does salvage must validate, never differ.
        let scanned = catch_unwind(AssertUnwindSafe(|| {
            let reader = ContainerReader::scan(&faulty)?;
            (0..reader.len()).map(|i| reader.frame(i)).collect::<Result<Vec<_>, _>>()
        }));
        match scanned {
            Err(_) => report.violations.push(format!(
                "seed {seed} fault {}: scan recovery path panicked",
                kind.name()
            )),
            Ok(Ok(salvaged)) => {
                let ok = salvaged
                    .iter()
                    .all(|f| frames.iter().any(|orig| orig == f));
                if !ok {
                    report.violations.push(format!(
                        "seed {seed} fault {}: scan salvaged a frame that never existed",
                        kind.name()
                    ));
                }
            }
            Ok(Err(_)) => {}
        }
    }
    report
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

/// Runs `n_cases` seeded container cases starting at `base_seed` and
/// aggregates the outcome. Violation text is capped at 20 entries;
/// failing seeds are always all recorded.
pub fn run_wire_corpus(base_seed: u64, n_cases: u64) -> WireCorpusReport {
    run_wire_corpus_in(base_seed, n_cases, PoolDiscipline::Fresh)
}

/// [`run_wire_corpus`] under an explicit [`PoolDiscipline`] — the
/// container half of the buffer-reuse adversary sweep.
pub fn run_wire_corpus_in(
    base_seed: u64,
    n_cases: u64,
    discipline: PoolDiscipline,
) -> WireCorpusReport {
    let mut corpus = WireCorpusReport {
        cases: n_cases,
        cases_passed: 0,
        blob_roundtrips: 0,
        container_frames_ok: 0,
        decode_modes_ok: 0,
        faults_detected: 0,
        faults_harmless: 0,
        faults_skipped: 0,
        fault_counts: BTreeMap::new(),
        failing_seeds: Vec::new(),
        violations: Vec::new(),
    };
    for kind in ALL_WIRE_FAULTS {
        corpus.fault_counts.insert(kind.name().to_string(), 0);
    }
    for i in 0..n_cases {
        let seed = base_seed.wrapping_add(i);
        let case = run_wire_case_in(seed, discipline);
        corpus.blob_roundtrips += case.blob_roundtrips;
        corpus.container_frames_ok += case.container_frames_ok;
        corpus.decode_modes_ok += case.decode_modes_ok;
        corpus.faults_detected += case.faults_detected;
        corpus.faults_harmless += case.faults_harmless;
        corpus.faults_skipped += case.faults_skipped;
        for (name, n) in &case.fault_counts {
            *corpus.fault_counts.entry(name.clone()).or_insert(0) += n;
        }
        if case.passed() {
            corpus.cases_passed += 1;
        } else {
            corpus.failing_seeds.push(seed);
            for v in &case.violations {
                if corpus.violations.len() < 20 {
                    corpus.violations.push(v.clone());
                }
            }
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_case_passes() {
        let report = run_wire_case(0x1CE);
        assert!(report.passed(), "violations: {:#?}", report.violations);
        assert!(report.blob_roundtrips > 0);
        assert!(report.container_frames_ok > 0);
        assert_eq!(report.decode_modes_ok, 2);
        assert!(report.scan_recovery_ok);
    }

    #[test]
    fn small_corpus_is_clean_and_classifies_faults() {
        let corpus = run_wire_corpus(2000, 25);
        assert!(corpus.passed(), "violations: {:#?}", corpus.violations);
        assert_eq!(corpus.cases_passed, 25);
        assert!(corpus.faults_detected > 0, "corpus must exercise detections");
        assert_eq!(corpus.blob_roundtrips, corpus.container_frames_ok * 3);
    }

    #[test]
    fn poisoned_pool_wire_corpus_has_zero_divergences() {
        let corpus =
            run_wire_corpus_in(2000, 25, PoolDiscipline::Poisoned(crate::POISON_SENTINEL));
        assert!(corpus.passed(), "violations: {:#?}", corpus.violations);
        assert_eq!(corpus.cases_passed, 25);
    }

    #[test]
    fn reports_serialize_to_json() {
        let corpus = run_wire_corpus(42, 3);
        let json = serde_json::to_string(&corpus).expect("serialize");
        assert!(json.contains("\"cases\""));
        assert!(json.contains("stale-index-entry"));
    }

    #[test]
    fn case_reports_are_deterministic() {
        let a = run_wire_case(7);
        let b = run_wire_case(7);
        assert_eq!(a.faults_detected, b.faults_detected);
        assert_eq!(a.faults_harmless, b.faults_harmless);
        assert_eq!(a.blob_roundtrips, b.blob_roundtrips);
    }
}
