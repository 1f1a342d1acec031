//! The encode→DRAM→decode corpus ([`EncodeDecode`]).
//!
//! One *case* is a seeded capture sequence pushed through the whole
//! encode→DRAM→decode path three ways at once:
//!
//! 1. **Differential decode** — every clean encoded frame is decoded by
//!    the production [`SoftwareDecoder`] in both
//!    [`rpr_core::ReconstructionMode`]s and checked byte-for-byte
//!    against the naive [`ReferenceDecoder`], with every `R` pixel
//!    additionally checked against the source frame (the
//!    representation's exactness guarantee, paper §3.2).
//! 2. **Fault injection** — every applicable [`crate::FaultKind`] is
//!    injected into each encoded frame, and the production path must
//!    classify it: *detected* (a typed
//!    `CorruptEncodedFrame`/`GeometryMismatch` error from
//!    `try_decode`) or *harmless* (byte-identical decode). A panic or
//!    a silently different decode is a conformance violation.
//! 3. **Lossy DRAM** — frames round-trip a [`LossyDram`] with seeded
//!    bit rot; corrupted read-backs must be rejected, clean read-backs
//!    must decode identically.

use crate::adversary::{mode_name, CaseFixture, MODES};
use crate::{
    Adversary, LossyDram, PoolDiscipline, ReadOutcome, ReferenceDecoder, Tally, ALL_FAULTS,
};
use rpr_core::SoftwareDecoder;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The encode→DRAM→decode corpus: one case per seed. Geometry,
/// content, regions, policies and fault draws all derive from the
/// seed. The production encoder and decoders share one pool, and every
/// decoded output is recycled back into it so buffers cycle through
/// the sentinel path under [`PoolDiscipline::Poisoned`].
///
/// Counters: `clean_frames_ok` (clean frames whose decode matched the
/// reference in both modes) and `dram_reads` (lossy-DRAM read-backs).
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeDecode {
    /// How the case's encoder and decoders share their buffer pool.
    pub pool: PoolDiscipline,
}

impl Adversary for EncodeDecode {
    fn name(&self) -> &'static str {
        self.pool.pick("encode_decode", "encode_decode_poisoned")
    }

    fn kinds(&self) -> Vec<&'static str> {
        ALL_FAULTS.iter().map(|k| k.name()).collect()
    }

    fn run_seed(&self, seed: u64, tally: &mut Tally<'_>) {
        tally.case(|t| encode_decode_case(seed, self.pool, t));
    }
}

fn encode_decode_case(seed: u64, discipline: PoolDiscipline, t: &mut Tally<'_>) {
    let fixture = CaseFixture::draw(seed, discipline);
    let mut encoder = fixture.encoder();
    let CaseFixture { mut rng, width, height, seq, pool } = fixture;
    let mut production: Vec<SoftwareDecoder> = MODES
        .iter()
        .map(|&m| SoftwareDecoder::with_pool(width, height, m, pool.clone()))
        .collect();
    let mut reference: Vec<ReferenceDecoder> =
        MODES.iter().map(|&m| ReferenceDecoder::new(width, height, m)).collect();
    let mut dram = LossyDram::new(rng.next_u64(), 1, 2);
    let mut fault_rng = rng.fork();

    for (idx, (frame, regions)) in seq.frames.iter().zip(&seq.regions).enumerate() {
        let encoded = encoder.encode(frame, idx as u64, regions);

        // A freshly encoded frame must always validate.
        if let Err(e) = encoded.validate() {
            t.violation(format_args!("frame {idx}: fresh frame failed validate: {e}"));
            continue;
        }

        // Snapshot decoder states *before* this frame so fault decodes
        // replay from the exact same history the clean decode saw.
        let snapshots: Vec<SoftwareDecoder> = production.to_vec();

        // Differential decode, both modes.
        let mut clean_outputs = Vec::with_capacity(MODES.len());
        let mut frame_ok = true;
        for (m, mode) in MODES.iter().enumerate() {
            let mode = mode_name(*mode);
            let out = match production[m].try_decode(&encoded) {
                Ok(out) => out,
                Err(e) => {
                    t.violation(format_args!("frame {idx} {mode}: clean decode rejected: {e}"));
                    frame_ok = false;
                    clean_outputs.push(None);
                    continue;
                }
            };
            if out != reference[m].decode(&encoded) {
                t.violation(format_args!(
                    "frame {idx} {mode}: production decode differs from reference"
                ));
                frame_ok = false;
            }
            // Exactness: every R pixel must equal the source.
            let mask = &encoded.metadata().mask;
            'exact: for y in 0..height {
                for x in 0..width {
                    if mask.get(x, y) == rpr_core::PixelStatus::Regional
                        && out.get(x, y) != frame.get(x, y)
                    {
                        t.violation(format_args!(
                            "frame {idx} {mode}: R pixel ({x},{y}) not exact"
                        ));
                        frame_ok = false;
                        break 'exact;
                    }
                }
            }
            clean_outputs.push(Some(out));
        }
        t.count("clean_frames_ok", u64::from(frame_ok));

        // Fault injection against the BlockNearest snapshot (the mode
        // with the richest reconstruction recurrence).
        let Some(clean_out) = clean_outputs[0].clone() else { continue };
        for kind in ALL_FAULTS {
            let mut krng = fault_rng.fork();
            let Some(faulty) = kind.inject(&encoded, &mut krng) else {
                t.skipped();
                continue;
            };
            let name = kind.name();
            let mut dec = snapshots[0].clone();
            match catch_unwind(AssertUnwindSafe(|| dec.try_decode(&faulty))) {
                Err(_) => t.violation(format_args!("frame {idx} {name}: decoder panicked")),
                Ok(Err(_)) => t.detected(name),
                Ok(Ok(out)) => {
                    if out == clean_out {
                        t.harmless(name);
                    } else {
                        t.violation(format_args!("frame {idx} {name}: silent wrong decode"));
                    }
                    // Return the buffer so later decodes run on
                    // recycled (sentinel-filled, when poisoned) memory.
                    dec.recycle_output(out);
                }
            }
        }

        // Lossy DRAM round trip.
        let slot = dram.store(&encoded);
        let (back, outcome) = dram.read_back(slot);
        t.count("dram_reads", 1);
        let mut dec = snapshots[0].clone();
        match (outcome, catch_unwind(AssertUnwindSafe(|| dec.try_decode(&back)))) {
            (_, Err(_)) => {
                t.violation(format_args!("frame {idx}: decoder panicked on DRAM read-back"));
            }
            (ReadOutcome::Clean, Ok(Ok(out))) => {
                if Some(&out) != clean_outputs[0].as_ref() {
                    t.violation(format_args!(
                        "frame {idx}: clean DRAM read-back decoded differently"
                    ));
                }
            }
            (ReadOutcome::Clean, Ok(Err(e))) => {
                t.violation(format_args!("frame {idx}: clean DRAM read-back rejected: {e}"));
            }
            (ReadOutcome::Corrupted { .. }, Ok(Err(_))) => { /* detected, as required */ }
            (ReadOutcome::Corrupted { bits_flipped }, Ok(Ok(_))) => t.violation(format_args!(
                "frame {idx}: {bits_flipped}-bit DRAM rot decoded silently"
            )),
        }

        // Cycle this frame's outputs back through the shared pool so
        // the next frame's kernels run over recycled buffers.
        production[0].recycle_output(clean_out);
        for out in clean_outputs.into_iter().flatten() {
            production[0].recycle_output(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_adversary, POISON_SENTINEL};

    #[test]
    fn small_corpus_is_clean_and_classifies_faults() {
        for pool in [PoolDiscipline::Fresh, PoolDiscipline::Poisoned(POISON_SENTINEL)] {
            let report = run_adversary(&EncodeDecode { pool }, 1000, 25);
            assert!(report.passed(), "violations: {:#?}", report.violations);
            assert_eq!(report.cases_passed, 25);
            assert!(report.faults_detected > 0, "corpus must exercise detections");
            assert!(report.counter("clean_frames_ok") > 0);
            assert!(report.counter("dram_reads") > 0);
            assert!(report.fault_counts.contains_key("payload-bit-flip"));
        }
    }

    #[test]
    fn poisoned_and_fresh_disciplines_decode_identically() {
        // The pool is invisible to the outputs by construction; a
        // sentinel leaking into any decode would break this equality.
        for seed in [7, 0x1CE, 9999] {
            let fresh = run_adversary(&EncodeDecode::default(), seed, 1);
            let poisoned =
                run_adversary(&EncodeDecode { pool: PoolDiscipline::Poisoned(0xFF) }, seed, 1);
            let json = |r| serde_json::to_string(&r).expect("serialize");
            assert_eq!(json(fresh), json(poisoned), "seed {seed}");
        }
    }
}
