//! The per-layer ledger of a traced run: one sample per frame per
//! layer, holding the wall time and heap allocations of that layer's
//! calls for the frame.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc::allocations;
use crate::stats::percentile;

/// A value with the time and allocations it took to produce.
#[derive(Debug)]
pub struct Measured<R> {
    /// What the call returned.
    pub value: R,
    /// Wall time of the call, nanoseconds.
    pub ns: i64,
    /// Heap allocations the call made.
    pub allocs: i64,
}

/// The benchmark's wall clock: every timestamp it takes comes from
/// here.
pub fn now() -> Instant {
    // rpr-check: allow(raw-clock): a benchmark measures wall time by definition
    Instant::now()
}

/// Runs `f`, timing it and counting its allocations. Exact only while
/// no other thread allocates.
pub fn measure<R>(f: impl FnOnce() -> R) -> Measured<R> {
    let a0 = allocations();
    let t0 = now();
    let value = f();
    let ns = t0.elapsed().as_nanos() as i64;
    let allocs = allocations().wrapping_sub(a0) as i64;
    Measured { value, ns, allocs }
}

/// Per-frame samples of one layer. Samples are signed because a layer
/// measured as a remainder (`core.policy`) can come out slightly
/// negative on a noisy frame.
#[derive(Debug, Default, Clone)]
struct Layer {
    ns: Vec<i64>,
    allocs: i64,
}

/// Per-frame samples of every layer of a traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    layers: BTreeMap<&'static str, Layer>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records one frame's sample for `layer`.
    pub fn add(&mut self, layer: &'static str, ns: i64, allocs: i64) {
        let entry = self.layers.entry(layer).or_default();
        entry.ns.push(ns);
        entry.allocs += allocs;
    }

    /// Times `f` as one frame's sample for `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let m = measure(f);
        self.add(layer, m.ns, m.allocs);
        m.value
    }

    /// Frames sampled for `layer`.
    pub fn frames(&self, layer: &str) -> usize {
        self.layers.get(layer).map_or(0, |l| l.ns.len())
    }

    /// Nearest-rank percentile `p` of `layer`'s per-frame times, ns.
    pub fn ns_percentile(&self, layer: &str, p: f64) -> f64 {
        let Some(l) = self.layers.get(layer) else {
            return f64::NAN;
        };
        let mut sorted = l.ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p).map_or(f64::NAN, |v| v as f64)
    }

    /// Mean per-frame time of `layer`, ns.
    pub fn ns_per_frame(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(l) if !l.ns.is_empty() => l.ns.iter().sum::<i64>() as f64 / l.ns.len() as f64,
            _ => f64::NAN,
        }
    }

    /// Heap allocations per frame of `layer`.
    pub fn allocs_per_frame(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some(l) if !l.ns.is_empty() => l.allocs as f64 / l.ns.len() as f64,
            _ => f64::NAN,
        }
    }

    /// Copies `layers` from `other` into this ledger.
    pub fn adopt(&mut self, other: &Ledger, layers: &[&'static str]) {
        for &name in layers {
            if let Some(l) = other.layers.get(name) {
                let entry = self.layers.entry(name).or_default();
                entry.ns.extend_from_slice(&l.ns);
                entry.allocs += l.allocs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_frame_statistics() {
        let mut l = Ledger::new();
        for ns in [30, 10, 20] {
            l.add("core.encode", ns, 2);
        }
        assert_eq!(l.frames("core.encode"), 3);
        assert_eq!(l.ns_percentile("core.encode", 50.0), 20.0);
        assert_eq!(l.ns_per_frame("core.encode"), 20.0);
        assert_eq!(l.allocs_per_frame("core.encode"), 2.0);
        assert!(l.ns_per_frame("absent").is_nan());

        let mut other = Ledger::new();
        other.adopt(&l, &["core.encode", "absent"]);
        assert_eq!(other.frames("core.encode"), 3);
        assert_eq!(other.frames("absent"), 0);
    }

    #[test]
    fn measure_counts_the_call_only() {
        let m = measure(|| vec![0u8; 64]);
        assert_eq!(m.value.len(), 64);
        assert!(m.allocs >= 1);
        assert!(m.ns >= 0);
    }
}
