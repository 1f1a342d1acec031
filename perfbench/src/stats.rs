//! Percentiles, medians and open-loop latency accounting.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    sorted.get(rank(sorted.len(), p).checked_sub(1)?).copied()
}

/// Samples that lie beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of `values` (the mean of the two middle values for an even
/// count), as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over `windows` consecutive, equal slices of `samples` (in the
/// order they were taken) of each slice's nearest-rank percentile `p`.
/// Samples after the last whole slice are left out. `None` when there
/// are fewer samples than windows.
pub fn windowed_percentile(samples: &[u64], windows: usize, p: f64) -> Option<f64> {
    let size = samples.len() / windows.max(1);
    if size == 0 {
        return None;
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(size)
        .take(windows)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            percentile(&w, p).map_or(f64::NAN, |v| v as f64)
        })
        .collect();
    Some(median(&per_window))
}

/// One open-loop request, in nanoseconds since the run's epoch: when
/// it was due, when the generator actually sent it, and when its
/// result came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// Scheduled send time.
    pub due: u64,
    /// Time the generator released it.
    pub sent: u64,
    /// Time the result was produced.
    pub done: u64,
}

impl OpenLoopSample {
    /// Latency counted from the due time, so a stall that delays the
    /// generator also charges the requests queued behind it.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator released the request.
    pub fn lag(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        assert_eq!(percentile(&[7u64], 99.0), Some(7));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert!(samples_beyond(1000, 99.0) >= MIN_TAIL);
        assert!(samples_beyond(999, 99.0) < MIN_TAIL);
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windowed_percentiles_ignore_a_burst() {
        // Ten windows of 100 samples; two of them are a slow burst that
        // sets the run's overall p90.
        let mut v = vec![1u64; 1000];
        v[300..500].fill(1000);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 90.0), Some(1000));
        assert_eq!(windowed_percentile(&v, 10, 90.0), Some(1.0));
        assert_eq!(windowed_percentile(&v[..9], 10, 90.0), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // The generator stalled: the request was due at 1 ms but only
        // sent at 4 ms, and its result came out at 5 ms. The user waited
        // 4 ms, not the 1 ms the system spent after the send.
        let s = OpenLoopSample {
            due: 1_000_000,
            sent: 4_000_000,
            done: 5_000_000,
        };
        assert_eq!(s.latency(), 4_000_000);
        assert_eq!(s.lag(), 3_000_000);
        // Early clocks never produce negative latencies.
        let early = OpenLoopSample {
            due: 10,
            sent: 5,
            done: 8,
        };
        assert_eq!(early.lag(), 0);
        assert_eq!(early.latency(), 0);
    }
}
