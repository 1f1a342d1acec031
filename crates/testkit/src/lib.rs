//! Deterministic fault-injection and differential conformance harness
//! for the rhythmic-pixel encode→DRAM→decode path.
//!
//! The paper's hardware contract is sharp: the encoded representation
//! stores every `R` pixel exactly, the metadata is sufficient to decode
//! it, and anything else is reconstruction policy. This crate turns
//! that contract into an executable oracle in three parts:
//!
//! * **Generators** ([`gen_frame`], [`gen_region`],
//!   [`gen_capture_sequence`], …) — seeded, dependency-free producers
//!   of frames, overlapping/degenerate/frame-spanning region labels,
//!   policies, and whole capture sequences. One `u64` seed reproduces
//!   any case bit-for-bit.
//! * **Typed faults** — each a small enum with a stable name per kind
//!   and an `inject`: [`FaultKind`] (payload bit rot, torn offset
//!   tables, mask/payload disagreement, stale frame indices, geometry
//!   mismatches over [`rpr_core::EncodedFrame`]) plus [`LossyDram`]
//!   over the real memsim models; [`WireFaultKind`] (truncation, CRC
//!   rot, forged checksums, stale index entries over `.rpr` container
//!   bytes); [`PredictFaultKind`] (all-outlier, zero-tie, degenerate
//!   and `i32`-extreme motion-vector fields); [`MetricsFaultKind`]
//!   (scrapes racing window rotations, torn snapshots, SLO clock
//!   skew); and [`SessionFaultKind`] (torn hellos, forged framing and
//!   truncated chunks in the byte scripts cameras send `rpr-serve`).
//! * **Adversaries** — one [`Adversary`] per corpus, all driven by
//!   [`run_adversary`] into one [`CorpusReport`]: every injected fault
//!   is *detected* (typed error) or *harmless* (the output still meets
//!   the contract), never a panic and never silently wrong output.
//!   [`EncodeDecode`] checks the production decoders byte-for-byte
//!   against the naive [`ReferenceDecoder`] in both
//!   [`rpr_core::ReconstructionMode`]s; [`Container`] holds `rpr-wire`
//!   to byte-identical round-trips and scan recovery; both also run
//!   over a poisoned [`PoolDiscipline`]. [`Prediction`] checks finite
//!   fits, in-bounds projections and a never-growing pixel budget;
//!   [`Metrics`] checks that live snapshots stay consistent and
//!   monotonic and that burn-rate arithmetic stays finite.
//!
//! The `conformance` binary runs the six corpus runs over one seed
//! range and emits one JSON report; CI gates on its exit status. The
//! `wire_fuzz` binary adds a bounded random-mutation sweep over
//! container bytes. See `TESTING.md` at the repo root for the
//! seed-corpus conventions and how to reproduce a failing seed.

#![deny(missing_docs)]

mod adversary;
mod conformance;
mod fault;
mod gen;
mod lossy;
mod metricsfault;
mod predictfault;
mod reference;
mod rng;
mod servefault;
mod wireconf;
mod wirefault;

pub use adversary::{
    run_adversary, Adversary, CorpusReport, PoolDiscipline, Tally, POISON_SENTINEL,
};
pub use conformance::EncodeDecode;
pub use fault::{FaultKind, ALL_FAULTS};
pub use gen::{
    gen_capture_sequence, gen_frame, gen_frame_with, gen_policy, gen_region,
    gen_region_list, CaptureSequence, FramePattern,
};
pub use lossy::{LossyDram, ReadOutcome};
pub use metricsfault::{Metrics, MetricsFaultKind, ALL_METRICS_FAULTS};
pub use predictfault::{Prediction, PredictFaultKind, ALL_PREDICT_FAULTS};
pub use reference::ReferenceDecoder;
pub use rng::TestRng;
pub use servefault::{SessionFaultKind, ALL_SESSION_FAULTS};
pub use wireconf::Container;
pub use wirefault::{WireFaultKind, ALL_WIRE_FAULTS};
