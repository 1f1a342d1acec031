//! The one seeded runner every fault corpus goes through.
//!
//! An [`Adversary`] turns one seed into judged cases: it draws its
//! inputs from the seed, injects its faults, and tallies each outcome
//! into a [`Tally`] — *detected* (the production path returned a typed
//! error), *harmless* (the output still met the contract), *skipped*
//! (the input could not host the fault), or a violation naming the
//! seed, the fault kind and the broken invariant. [`run_adversary`]
//! drives `n_cases` consecutive seeds and returns one
//! [`CorpusReport`]; any failing seed reruns alone as
//! `run_adversary(adversary, seed, 1)`.

use crate::{gen_capture_sequence, CaptureSequence, TestRng};
use rpr_core::{BufferPool, EncoderConfig, ReconstructionMode, RhythmicEncoder};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Violation texts a report keeps; every failing seed is kept
/// regardless.
const MAX_VIOLATIONS: usize = 20;

/// One fault corpus: a seeded source of judged cases.
pub trait Adversary {
    /// Stable corpus name, the key of this run in the conformance
    /// report.
    fn name(&self) -> &'static str;

    /// The fault kinds this corpus injects; each is pre-seeded at 0 in
    /// [`CorpusReport::fault_counts`].
    fn kinds(&self) -> Vec<&'static str>;

    /// Runs every case `seed` draws, judging each into `tally`.
    fn run_seed(&self, seed: u64, tally: &mut Tally<'_>);
}

/// Aggregated outcome of one corpus run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CorpusReport {
    /// Cases judged.
    pub cases: u64,
    /// Cases with no violation.
    pub cases_passed: u64,
    /// Faults the production path rejected with a typed error.
    pub faults_detected: u64,
    /// Faults whose output still met the contract.
    pub faults_harmless: u64,
    /// Fault draws the input could not host.
    pub faults_skipped: u64,
    /// Corpus-specific counters (frames checked, reads taken, …).
    pub counters: BTreeMap<String, u64>,
    /// Detected + harmless classifications per fault kind.
    pub fault_counts: BTreeMap<String, u64>,
    /// Every seed with at least one violation, once each.
    pub failing_seeds: Vec<u64>,
    /// The first violations, each naming its seed, fault kind and
    /// broken invariant.
    pub violations: Vec<String>,
}

impl CorpusReport {
    /// True when no seed failed.
    pub fn passed(&self) -> bool {
        self.failing_seeds.is_empty()
    }

    /// The named counter, 0 when never counted.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Where an [`Adversary`] records the cases of one seed.
pub struct Tally<'r> {
    report: &'r mut CorpusReport,
    seed: u64,
    case_ok: bool,
    seed_ok: bool,
}

impl Tally<'_> {
    /// Judges one case: it passes when `judge` records no violation.
    pub fn case(&mut self, judge: impl FnOnce(&mut Self)) {
        self.case_ok = true;
        judge(self);
        self.report.cases += 1;
        self.report.cases_passed += u64::from(self.case_ok);
    }

    /// A fault of `kind` the production path rejected.
    pub fn detected(&mut self, kind: &str) {
        self.report.faults_detected += 1;
        *self.report.fault_counts.entry(kind.to_string()).or_insert(0) += 1;
    }

    /// A fault of `kind` whose output still met the contract.
    pub fn harmless(&mut self, kind: &str) {
        self.report.faults_harmless += 1;
        *self.report.fault_counts.entry(kind.to_string()).or_insert(0) += 1;
    }

    /// A fault draw the input could not host.
    pub fn skipped(&mut self) {
        self.report.faults_skipped += 1;
    }

    /// Adds `n` to the named counter (creating it at 0).
    pub fn count(&mut self, counter: &str, n: u64) {
        *self.report.counters.entry(counter.to_string()).or_insert(0) += n;
    }

    /// A broken invariant; the text is prefixed with the seed.
    pub fn violation(&mut self, what: impl fmt::Display) {
        self.case_ok = false;
        self.seed_ok = false;
        if self.report.violations.len() < MAX_VIOLATIONS {
            self.report.violations.push(format!("seed {}: {what}", self.seed));
        }
    }

    /// Judges a fault of `kind` by named invariants: each one that
    /// does not hold is a violation; when all hold it is harmless.
    pub fn invariants(&mut self, kind: &str, checks: &[(bool, &str)]) {
        let mut held = true;
        for &(ok, invariant) in checks {
            if !ok {
                held = false;
                self.violation(format_args!("{kind}: {invariant}"));
            }
        }
        if held {
            self.harmless(kind);
        }
    }
}

/// Runs `n_cases` consecutive seeds from `base_seed` through
/// `adversary` and aggregates the outcome.
pub fn run_adversary(adversary: &dyn Adversary, base_seed: u64, n_cases: u64) -> CorpusReport {
    let mut report = CorpusReport::default();
    for kind in adversary.kinds() {
        report.fault_counts.insert(kind.to_string(), 0);
    }
    for i in 0..n_cases {
        let seed = base_seed.wrapping_add(i);
        let mut tally = Tally { report: &mut report, seed, case_ok: true, seed_ok: true };
        adversary.run_seed(seed, &mut tally);
        if !tally.seed_ok {
            report.failing_seeds.push(seed);
        }
    }
    report
}

/// How a codec or container case provisions the [`BufferPool`] its
/// encoder and production decoders share.
///
/// The poisoned discipline is the buffer-reuse adversary: every buffer
/// returned to the pool is filled with the sentinel byte, so any
/// kernel that reads recycled memory it never wrote decodes the
/// sentinel instead of real pixels — and the differential comparison
/// against the pool-free [`crate::ReferenceDecoder`] flags the
/// divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolDiscipline {
    /// Plain recycling pool, buffer contents left as returned.
    #[default]
    Fresh,
    /// Returned buffers are filled with this sentinel byte.
    Poisoned(u8),
}

/// The sentinel byte the CI adversary corpus poisons with (`0xA5`:
/// alternating bits, not a plausible black/white pixel value).
pub const POISON_SENTINEL: u8 = 0xA5;

impl PoolDiscipline {
    /// `fresh` for a plain pool, `poisoned` for a sentinel pool.
    pub(crate) fn pick(self, fresh: &'static str, poisoned: &'static str) -> &'static str {
        match self {
            PoolDiscipline::Fresh => fresh,
            PoolDiscipline::Poisoned(_) => poisoned,
        }
    }
}

/// Both production reconstruction modes, in report order.
pub(crate) const MODES: [ReconstructionMode; 2] =
    [ReconstructionMode::BlockNearest, ReconstructionMode::FifoReplicate];

pub(crate) fn mode_name(mode: ReconstructionMode) -> &'static str {
    match mode {
        ReconstructionMode::BlockNearest => "block-nearest",
        ReconstructionMode::FifoReplicate => "fifo-replicate",
    }
}

/// The seeded draw a codec or container case starts from: geometry,
/// a capture sequence over it, the RNG positioned after that draw, and
/// the pool the case's encoder and decoders share. Both corpora draw
/// the same frame population from the same seed.
pub(crate) struct CaseFixture {
    pub(crate) rng: TestRng,
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) seq: CaptureSequence,
    pub(crate) pool: BufferPool,
}

impl CaseFixture {
    pub(crate) fn draw(seed: u64, discipline: PoolDiscipline) -> Self {
        let mut rng = TestRng::new(seed);
        let width = rng.range_u32(8, 40);
        let height = rng.range_u32(8, 32);
        let n_frames = rng.range_usize(1, 5);
        let seq = gen_capture_sequence(&mut rng, width, height, n_frames);
        let pool = match discipline {
            PoolDiscipline::Fresh => BufferPool::new(),
            PoolDiscipline::Poisoned(sentinel) => BufferPool::poisoned(sentinel),
        };
        CaseFixture { rng, width, height, seq, pool }
    }

    /// An encoder over the case geometry, on the shared pool.
    pub(crate) fn encoder(&self) -> RhythmicEncoder {
        RhythmicEncoder::with_pool(
            self.width,
            self.height,
            EncoderConfig::default(),
            self.pool.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Container, EncodeDecode, Metrics, Prediction};

    fn all() -> [Box<dyn Adversary>; 6] {
        let poison = PoolDiscipline::Poisoned(POISON_SENTINEL);
        [
            Box::new(EncodeDecode { pool: PoolDiscipline::Fresh }),
            Box::new(Container { pool: PoolDiscipline::Fresh }),
            Box::new(EncodeDecode { pool: poison }),
            Box::new(Container { pool: poison }),
            Box::new(Prediction),
            Box::new(Metrics),
        ]
    }

    #[test]
    fn every_corpus_is_clean_deterministic_and_serializable() {
        for adversary in all() {
            let adversary = adversary.as_ref();
            let name = adversary.name();
            let report = run_adversary(adversary, 1000, 12);
            assert!(report.passed(), "{name}: {:#?}", report.violations);
            assert_eq!(report.cases, report.cases_passed, "{name}");
            assert!(report.cases >= 12, "{name}");
            // Every classified fault is attributed to one kind.
            let classified: u64 = report.fault_counts.values().sum();
            assert_eq!(classified, report.faults_detected + report.faults_harmless, "{name}");
            assert_eq!(report.fault_counts.len(), adversary.kinds().len(), "{name}");
            let json = serde_json::to_string(&report).expect("serialize");
            let again = serde_json::to_string(&run_adversary(adversary, 1000, 12)).expect("json");
            assert_eq!(json, again, "{name}: reruns must be byte-identical");
        }
    }

    #[test]
    fn kind_names_are_unique_per_corpus() {
        for adversary in all() {
            let mut names = adversary.kinds();
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{}", adversary.name());
        }
    }

    /// Fails chosen seeds, twice each, to pin the report's rules.
    struct Flaky;

    impl Adversary for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn kinds(&self) -> Vec<&'static str> {
            vec!["odd"]
        }
        fn run_seed(&self, seed: u64, tally: &mut Tally<'_>) {
            for _ in 0..2 {
                tally.case(|t| t.invariants("odd", &[(seed.is_multiple_of(2), "seed is odd")]));
            }
        }
    }

    #[test]
    fn failing_seeds_are_listed_once_and_text_is_capped() {
        let report = run_adversary(&Flaky, 0, 30);
        assert_eq!(report.cases, 60);
        assert_eq!(report.cases_passed, 30);
        assert_eq!(report.faults_harmless, 30);
        assert_eq!(report.failing_seeds, (1..30).step_by(2).collect::<Vec<u64>>());
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert_eq!(report.violations[0], "seed 1: odd: seed is odd");
        assert!(!report.passed());
    }
}
