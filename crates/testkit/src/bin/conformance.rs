//! The conformance gate CI runs: every fault corpus over one fixed
//! seed range — encode→DRAM→decode and `.rpr` container, each over a
//! plain and a poisoned buffer pool, then prediction and live metrics
//! — emitted as one JSON report on stdout, non-zero exit on any
//! violation in any run.
//!
//! Usage: `conformance [base_seed] [n_cases]` — defaults reproduce the
//! CI corpora exactly (every run shares the seed range, so one seed
//! reproduces its case in all of them). Rerun a single failing seed
//! with `conformance <seed> 1`.

use rpr_testkit::{
    run_adversary, Adversary, Container, EncodeDecode, Metrics, PoolDiscipline, Prediction,
    POISON_SENTINEL,
};
use serde_json::Value;
use std::env;
use std::process::ExitCode;

/// Base seed of the CI corpus. Fixed so every CI run and every local
/// repro sees the same cases; see TESTING.md before changing it.
const DEFAULT_BASE_SEED: u64 = 0x5252_2021; // "RR 2021"
/// Number of seeds in the CI corpus.
const DEFAULT_CASES: u64 = 2000;

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let base_seed = match args.next() {
        Some(s) => match parse_u64(&s) {
            Some(v) => v,
            None => return usage(&s),
        },
        None => DEFAULT_BASE_SEED,
    };
    let n_cases = match args.next() {
        Some(s) => match parse_u64(&s) {
            Some(v) => v,
            None => return usage(&s),
        },
        None => DEFAULT_CASES,
    };

    // The poisoned runs are the buffer-reuse adversary: every returned
    // buffer is filled with the sentinel, so a kernel reading stale
    // pool memory diverges from the pool-free reference.
    let poison = PoolDiscipline::Poisoned(POISON_SENTINEL);
    let adversaries: [&dyn Adversary; 6] = [
        &EncodeDecode { pool: PoolDiscipline::Fresh },
        &Container { pool: PoolDiscipline::Fresh },
        &EncodeDecode { pool: poison },
        &Container { pool: poison },
        &Prediction,
        &Metrics,
    ];
    let runs: Vec<_> = adversaries
        .iter()
        .map(|a| (a.name(), run_adversary(*a, base_seed, n_cases)))
        .collect();

    let json = Value::Map(
        runs.iter()
            .map(|(name, report)| (name.to_string(), serde_json::json!(report)))
            .collect(),
    );
    match serde_json::to_string_pretty(&json) {
        Ok(json) => println!("{json}"),
        Err(e) => eprintln!("report serialization failed: {e:?}"),
    }

    let mut failing = 0;
    for (name, r) in &runs {
        let counters: Vec<String> = r.counters.iter().map(|(k, v)| format!("{k} {v}")).collect();
        eprintln!(
            "{name}: {} of {} cases passed ({} detected, {} harmless, {} skipped; {})",
            r.cases_passed,
            r.cases,
            r.faults_detected,
            r.faults_harmless,
            r.faults_skipped,
            counters.join(", "),
        );
        for seed in &r.failing_seeds {
            eprintln!("  failing seed ({name}): {seed}");
        }
        failing += r.failing_seeds.len();
    }
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("conformance: {failing} failing seed runs; reproduce one with");
        eprintln!("  cargo run --release -p rpr-testkit --bin conformance -- <seed> 1");
        ExitCode::FAILURE
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn usage(bad: &str) -> ExitCode {
    eprintln!("conformance: invalid argument `{bad}`");
    eprintln!("usage: conformance [base_seed] [n_cases]");
    ExitCode::FAILURE
}
