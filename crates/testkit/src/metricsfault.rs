//! Typed adversaries over the live telemetry plane.
//!
//! The live metrics contract is a concurrency contract: scrapes happen
//! *while* the serve loop and its worker threads keep writing, and the
//! numbers a scrape reports must still make sense. Each
//! [`MetricsFaultKind`] manufactures one hostile schedule — a reader
//! racing a window rotation, a snapshot torn across mid-flight writers,
//! or an SLO tracker fed skewed clocks — and checks the invariants the
//! exposition layer depends on: internal consistency
//! (`count == Σ buckets`), monotonicity between reads, conservation of
//! every sample across rotations, and finite, saturating burn-rate
//! arithmetic no matter how the clock misbehaves.
//!
//! The [`Metrics`] adversary runs every kind for every seed.

use crate::{Adversary, Tally, TestRng};
use rpr_serve::{Clock, ManualClock};
use rpr_trace::{LatencyHistogram, LiveCounter, LiveHistogram, SloConfig, SloTracker};
use std::sync::Arc;

/// Every live-telemetry adversary class the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricsFaultKind {
    /// A consumer rotates windows out of the histogram while writer
    /// threads are mid-record. Every sample must land in exactly one
    /// rotated window (or the final snapshot) — never lost, never
    /// double-counted — and each window must be internally consistent.
    ScrapeDuringRotation,
    /// A reader snapshots while writer threads race it. Every torn
    /// snapshot must still satisfy `count == Σ buckets`, totals must be
    /// monotonic between reads, and the post-join snapshot must account
    /// for the full workload.
    TornSnapshot,
    /// An SLO tracker fed from a [`ManualClock`] whose readings skew:
    /// stale timestamps (time running backward) and forward jumps past
    /// the whole window. Burn rate must stay finite and non-negative,
    /// window totals must never exceed the events fed, and the tracker
    /// must stay deterministic per seed.
    SloClockSkew,
}

/// All metrics fault kinds, for corpus iteration.
pub const ALL_METRICS_FAULTS: [MetricsFaultKind; 3] = [
    MetricsFaultKind::ScrapeDuringRotation,
    MetricsFaultKind::TornSnapshot,
    MetricsFaultKind::SloClockSkew,
];

impl MetricsFaultKind {
    /// Short stable name for reports and corpus bookkeeping.
    pub fn name(self) -> &'static str {
        match self {
            MetricsFaultKind::ScrapeDuringRotation => "scrape-during-rotation",
            MetricsFaultKind::TornSnapshot => "torn-snapshot",
            MetricsFaultKind::SloClockSkew => "slo-clock-skew",
        }
    }
}

/// The live-telemetry corpus: one case per (seed,
/// [`MetricsFaultKind`]). A case whose invariants all hold counts as
/// harmless.
///
/// Counters: `samples_recorded` (samples fed across all cases) and
/// `reads_taken` (mid-flight snapshots, rotations and SLO reads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics;

impl Adversary for Metrics {
    fn name(&self) -> &'static str {
        "metrics"
    }

    fn kinds(&self) -> Vec<&'static str> {
        ALL_METRICS_FAULTS.iter().map(|k| k.name()).collect()
    }

    fn run_seed(&self, seed: u64, tally: &mut Tally<'_>) {
        for kind in ALL_METRICS_FAULTS {
            tally.case(|t| {
                let mut rng = TestRng::new(seed ^ 0x4d45_5452); // "METR" domain split
                match kind {
                    MetricsFaultKind::ScrapeDuringRotation => scrape_during_rotation(&mut rng, t),
                    MetricsFaultKind::TornSnapshot => torn_snapshot(&mut rng, t),
                    MetricsFaultKind::SloClockSkew => slo_clock_skew(&mut rng, t),
                }
            });
        }
    }
}

/// A seeded latency workload: microsecond samples spanning every
/// bucket of [`rpr_trace::LATENCY_BUCKETS_US`] plus the overflow.
fn workload(rng: &mut TestRng) -> Vec<u64> {
    let n = rng.range_usize(1, 160);
    (0..n).map(|_| u64::from(rng.range_u32(0, 200_000))).collect()
}

fn internally_consistent(snap: &LatencyHistogram) -> bool {
    snap.count == snap.buckets.iter().sum::<u64>()
}

/// Writers race a rotating consumer; mass must be conserved.
fn scrape_during_rotation(rng: &mut TestRng, t: &mut Tally<'_>) {
    let kind = MetricsFaultKind::ScrapeDuringRotation.name();
    let samples = workload(rng);
    let rotations = rng.range_usize(1, 16);
    let hist = Arc::new(LiveHistogram::new());
    let half = samples.len() / 2;
    let writers: Vec<_> = [(0usize, 0usize, half), (1, half, samples.len())]
        .into_iter()
        .map(|(stripe, lo, hi)| {
            let hist = Arc::clone(&hist);
            let chunk = samples.get(lo..hi).unwrap_or(&[]).to_vec();
            std::thread::spawn(move || {
                for (i, &us) in chunk.iter().enumerate() {
                    hist.record_us_in(stripe * 3 + i, us);
                }
            })
        })
        .collect();

    let mut windows = LatencyHistogram::new();
    let mut windows_ok = true;
    for _ in 0..rotations {
        let w = hist.rotate();
        windows_ok &= internally_consistent(&w);
        windows.merge(&w);
        t.count("reads_taken", 1);
    }
    if !join_all(writers, kind, t) {
        return;
    }
    windows.merge(&hist.snapshot());
    t.count("samples_recorded", samples.len() as u64);

    let expected_ns: u64 = samples.iter().map(|us| us * 1_000).sum();
    t.invariants(
        kind,
        &[
            (windows_ok, "a rotated window is inconsistent"),
            (windows.count == samples.len() as u64, "rotations lost or duplicated samples"),
            (windows.sum_ns == expected_ns, "rotations did not conserve the latency sum"),
            (internally_consistent(&windows), "merged windows are inconsistent"),
        ],
    );
}

/// Joins the writer threads; a panicked writer is a violation.
fn join_all(writers: Vec<std::thread::JoinHandle<()>>, kind: &str, t: &mut Tally<'_>) -> bool {
    let mut ok = true;
    for h in writers {
        ok &= h.join().is_ok();
    }
    if !ok {
        t.violation(format_args!("{kind}: a writer thread panicked"));
    }
    ok
}

/// Writers race a snapshotting reader; every torn read must still be
/// internally consistent and monotonic.
fn torn_snapshot(rng: &mut TestRng, t: &mut Tally<'_>) {
    let kind = MetricsFaultKind::TornSnapshot.name();
    let samples = workload(rng);
    let hist = Arc::new(LiveHistogram::new());
    let counter = Arc::new(LiveCounter::new());
    let half = samples.len() / 2;
    let writers: Vec<_> = [(0usize, 0usize, half), (1, half, samples.len())]
        .into_iter()
        .map(|(stripe, lo, hi)| {
            let hist = Arc::clone(&hist);
            let counter = Arc::clone(&counter);
            let chunk = samples.get(lo..hi).unwrap_or(&[]).to_vec();
            std::thread::spawn(move || {
                for &us in &chunk {
                    hist.record_us(us);
                    counter.add_in(stripe, 1);
                }
            })
        })
        .collect();

    let mut torn_ok = true;
    let mut last_count = 0u64;
    let mut last_sum = 0u64;
    for _ in 0..24 {
        let snap = hist.snapshot();
        torn_ok &= internally_consistent(&snap);
        torn_ok &= snap.count >= last_count && snap.sum_ns >= last_sum;
        torn_ok &= counter.value() <= samples.len() as u64;
        last_count = snap.count;
        last_sum = snap.sum_ns;
        t.count("reads_taken", 1);
    }
    if !join_all(writers, kind, t) {
        return;
    }
    t.count("samples_recorded", samples.len() as u64);

    let fin = hist.snapshot();
    t.invariants(
        kind,
        &[
            (torn_ok, "a torn read was inconsistent or went backward"),
            (fin.count == samples.len() as u64, "final snapshot lost samples"),
            (counter.value() == samples.len() as u64, "counter lost increments"),
            (internally_consistent(&fin), "final snapshot is inconsistent"),
        ],
    );
}

/// An SLO tracker fed skewed clock readings: stale `now`s and forward
/// jumps. Nothing may panic, totals may never exceed the feed, and the
/// tracker must be deterministic per seed.
fn slo_clock_skew(rng: &mut TestRng, t: &mut Tally<'_>) {
    let window = rng.range_u32(1_000, 1_000_000);
    let cfg = SloConfig {
        target_delivery_us: u64::from(rng.range_u32(100, 20_000)),
        budget_fraction: 0.01,
        window_micros: u64::from(window),
        min_events: u64::from(rng.range_u32(1, 32)),
    };
    // One seeded schedule, replayed against two trackers: skew must not
    // introduce nondeterminism.
    let events: Vec<(u64, u64, bool)> = {
        let clock = ManualClock::new();
        let n = rng.range_usize(1, 200);
        (0..n)
            .map(|_| {
                clock.advance(u64::from(rng.range_u32(0, window / 4 + 1)));
                let now = clock.now_micros();
                let skewed = match rng.range_u32(0, 9) {
                    // Stale read: time appears to run backward.
                    0..=2 => now.saturating_sub(u64::from(rng.range_u32(0, 1 << 20))),
                    // Forward jump past the whole window.
                    3 => now.saturating_add(cfg.window_micros.saturating_mul(2)),
                    _ => now,
                };
                let latency = u64::from(rng.range_u32(0, 40_000));
                (skewed, latency, rng.range_u32(0, 4) == 0)
            })
            .collect()
    };

    let run = |tracker: &SloTracker| -> (u64, u64, f64, bool) {
        for &(now, latency, drop) in &events {
            if drop {
                tracker.record_drop(now);
            } else {
                tracker.record_delivery(now, latency);
            }
        }
        let last = events.last().map(|&(now, _, _)| now).unwrap_or(0);
        let (good, bad) = tracker.window_totals(last);
        (good, bad, tracker.burn_rate(last), tracker.breached(last))
    };
    let (good_a, bad_a, burn_a, breached_a) = run(&SloTracker::new(cfg));
    let (good_b, bad_b, burn_b, breached_b) = run(&SloTracker::new(cfg));
    t.count("samples_recorded", events.len() as u64);
    t.count("reads_taken", 2);

    let total = good_a + bad_a;
    t.invariants(
        MetricsFaultKind::SloClockSkew.name(),
        &[
            (total <= events.len() as u64, "window holds more events than were fed"),
            (burn_a.is_finite() && burn_a >= 0.0, "burn rate not finite and non-negative"),
            (!breached_a || total >= cfg.min_events.max(1), "breach below min_events"),
            (
                (good_a, bad_a, breached_a) == (good_b, bad_b, breached_b) && burn_a == burn_b,
                "tracker is not deterministic",
            ),
        ],
    );
}
