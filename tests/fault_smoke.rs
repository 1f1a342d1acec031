//! Small-N smoke of the fault corpora.
//!
//! The full conformance gate (`cargo run --release -p rpr-testkit --bin
//! conformance`) runs 2000 cases per corpus. This runs 64 cases of the
//! in-memory encode→DRAM→decode corpus (plain and over a poisoned
//! buffer pool) and of the `.rpr` container corpus, so the ordinary
//! test tier still sees the core invariant: every injected fault is
//! detected, none decodes to a different frame unnoticed, and no seed
//! fails. That covers the frame digest and the validate-once marker
//! (a forged frame is never marked, so it is always checked).

use rpr_testkit::{run_corpus, run_corpus_in, run_wire_corpus, PoolDiscipline, POISON_SENTINEL};

/// Base seed of the smoke corpora (the conformance binary's default).
const BASE_SEED: u64 = 0x5252_2021;
const CASES: u64 = 64;

#[test]
fn encode_decode_corpus_detects_every_fault() {
    let poisoned = PoolDiscipline::Poisoned(POISON_SENTINEL);
    for (name, report) in [
        ("fresh pool", run_corpus(BASE_SEED, CASES)),
        ("poisoned pool", run_corpus_in(BASE_SEED, CASES, poisoned)),
    ] {
        assert_eq!(report.cases_passed, CASES, "{name}: {:?}", report.violations);
        assert!(report.failing_seeds.is_empty(), "{name}: {:?}", report.failing_seeds);
        assert!(report.violations.is_empty(), "{name}: {:?}", report.violations);
        assert_eq!(report.faults_harmless, 0, "{name}");
        assert!(report.faults_detected > 0, "{name}: the corpus injected nothing");
    }
}

#[test]
fn container_corpus_detects_every_fault() {
    let report = run_wire_corpus(BASE_SEED, CASES);
    assert_eq!(report.cases_passed, CASES, "{:?}", report.violations);
    assert!(report.failing_seeds.is_empty(), "{:?}", report.failing_seeds);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.faults_harmless, 0);
    assert!(report.faults_detected > 0, "the corpus injected nothing");
    assert!(report.fault_counts.contains_key("frame-body-flip-crc-fixed"));
}
