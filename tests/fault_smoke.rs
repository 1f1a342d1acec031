//! Small-N smoke of every fault corpus.
//!
//! The full conformance gate (`cargo run --release -p rpr-testkit --bin
//! conformance`) runs 2000 seeds per corpus. This runs the same six
//! runs over 64 seeds through the same runner, so the ordinary test
//! tier still sees the core invariants: every injected codec or
//! container fault is detected, none decodes to a different frame
//! unnoticed, the prediction and live-metrics contracts hold, and no
//! seed fails. That covers the frame digest and the validate-once
//! marker (a forged frame is never marked, so it is always checked).
//!
//! Each run's counts are pinned: a refactor of a corpus or of the
//! runner must draw exactly the same cases.

use rpr_testkit::{
    run_adversary, Adversary, Container, CorpusReport, EncodeDecode, Metrics, PoolDiscipline,
    Prediction, POISON_SENTINEL,
};

/// Base seed of the smoke corpora (the conformance binary's default).
const BASE_SEED: u64 = 0x5252_2021;
const CASES: u64 = 64;

/// Runs one corpus and checks that no seed failed.
fn clean_run(adversary: &dyn Adversary) -> CorpusReport {
    let name = adversary.name();
    let report = run_adversary(adversary, BASE_SEED, CASES);
    assert!(report.violations.is_empty(), "{name}: {:?}", report.violations);
    assert!(report.failing_seeds.is_empty(), "{name}: {:?}", report.failing_seeds);
    assert_eq!(report.cases_passed, report.cases, "{name}");
    report
}

fn pools() -> [PoolDiscipline; 2] {
    [PoolDiscipline::Fresh, PoolDiscipline::Poisoned(POISON_SENTINEL)]
}

#[test]
fn encode_decode_corpus_detects_every_fault() {
    for pool in pools() {
        let report = clean_run(&EncodeDecode { pool });
        let counts = (
            report.cases,
            report.counter("clean_frames_ok"),
            report.faults_detected,
            report.faults_harmless,
            report.faults_skipped,
            report.counter("dram_reads"),
        );
        assert_eq!(counts, (CASES, 183, 1606, 0, 224, 183), "{pool:?}");
    }
}

#[test]
fn container_corpus_detects_every_fault() {
    for pool in pools() {
        let report = clean_run(&Container { pool });
        let counts = (
            report.cases,
            report.counter("blob_roundtrips"),
            report.counter("container_frames_ok"),
            report.counter("decode_modes_ok"),
            report.faults_detected,
            report.faults_harmless,
            report.faults_skipped,
        );
        assert_eq!(counts, (CASES, 549, 183, 128, 561, 0, 15), "{pool:?}");
        assert!(report.fault_counts.contains_key("frame-body-flip-crc-fixed"));
    }
}

#[test]
fn prediction_corpus_holds_the_projection_contract() {
    let report = clean_run(&Prediction);
    let counts = (
        report.cases,
        report.counter("identity_degradations"),
        report.counter("labels_projected"),
    );
    assert_eq!(counts, (512, 141, 360));
}

#[test]
fn metrics_corpus_holds_the_live_telemetry_contract() {
    let report = clean_run(&Metrics);
    let counts =
        (report.cases, report.counter("samples_recorded"), report.counter("reads_taken"));
    assert_eq!(counts, (192, 18347, 2174));
}
