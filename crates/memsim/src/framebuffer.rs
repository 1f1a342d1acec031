use rpr_core::EncodedFrame;
use rpr_frame::PixelFormat;
use std::collections::VecDeque;

/// Tracks the DRAM bytes held by the encoded-frame buffers over time —
/// the memory-footprint axis of Fig. 8 ("we measure the size of encoded
/// frame buffers over time", §5.3.1).
///
/// The pool retains a sliding window of frames (default 4, matching the
/// decoder's history scratchpad) and samples the footprint after each
/// admission into running totals (sum, count, peak), not a time series.
///
/// # Example
///
/// ```
/// use rpr_memsim::FramebufferPool;
///
/// let mut pool = FramebufferPool::new(4);
/// pool.admit_raw(1000);
/// pool.admit_raw(1000);
/// assert_eq!(pool.current_bytes(), 2000);
/// assert_eq!(pool.peak_bytes(), 2000);
/// assert_eq!(pool.mean_bytes(), 1500.0);
/// ```
#[derive(Debug, Clone)]
pub struct FramebufferPool {
    window: usize,
    resident: VecDeque<u64>,
    /// Sum of `resident`.
    current: u64,
    peak: u64,
    /// Admissions so far, and the sum of `current` after each.
    samples: u64,
    sample_sum: u64,
}

impl FramebufferPool {
    /// Creates a pool holding at most `window` frames at once.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must hold at least one frame");
        FramebufferPool {
            window,
            resident: VecDeque::with_capacity(window),
            current: 0,
            peak: 0,
            samples: 0,
            sample_sum: 0,
        }
    }

    /// Admits an encoded frame: payload scaled by `format` plus
    /// metadata bytes. Evicts the oldest frame beyond the window.
    pub fn admit_encoded(&mut self, frame: &EncodedFrame, format: PixelFormat) {
        self.admit_raw(
            (frame.pixel_count() * format.bytes_per_pixel() + frame.metadata_bytes()) as u64,
        );
    }

    /// Admits a frame of `bytes` (raw baseline frames).
    pub fn admit_raw(&mut self, bytes: u64) {
        if self.resident.len() == self.window {
            self.current -= self.resident.pop_front().unwrap_or(0);
        }
        self.resident.push_back(bytes);
        self.current += bytes;
        self.peak = self.peak.max(self.current);
        self.samples += 1;
        self.sample_sum += self.current;
    }

    /// Bytes currently resident.
    pub fn current_bytes(&self) -> u64 {
        self.current
    }

    /// Largest footprint ever observed.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Mean footprint across all admissions (the paper reports "the
    /// average frame buffer size reduces by roughly 50 %").
    pub fn mean_bytes(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sample_sum as f64 / self.samples as f64
        }
    }

    /// Number of frames currently resident.
    pub fn resident_frames(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::{RegionLabel, RegionList, RhythmicEncoder};
    use rpr_frame::Plane;

    #[test]
    fn window_evicts_oldest() {
        let mut pool = FramebufferPool::new(2);
        pool.admit_raw(100);
        pool.admit_raw(200);
        pool.admit_raw(300);
        assert_eq!(pool.resident_frames(), 2);
        assert_eq!(pool.current_bytes(), 500);
        assert_eq!(pool.peak_bytes(), 500);
    }

    #[test]
    fn peak_survives_shrinking() {
        let mut pool = FramebufferPool::new(2);
        pool.admit_raw(1000);
        pool.admit_raw(1000);
        pool.admit_raw(10);
        pool.admit_raw(10);
        assert_eq!(pool.current_bytes(), 20);
        assert_eq!(pool.peak_bytes(), 2000);
    }

    #[test]
    fn mean_covers_all_samples() {
        let mut pool = FramebufferPool::new(4);
        pool.admit_raw(100); // resident 100
        pool.admit_raw(300); // resident 400
        pool.admit_raw(0); // resident 400
        assert_eq!(pool.mean_bytes(), 300.0);
    }

    #[test]
    fn encoded_admission_counts_metadata() {
        let frame = Plane::from_fn(16, 16, |x, _| x as u8);
        let regions =
            RegionList::new(16, 16, vec![RegionLabel::new(0, 0, 8, 8, 1, 1)]).unwrap();
        let enc = RhythmicEncoder::new(16, 16).encode(&frame, 0, &regions);
        let mut pool = FramebufferPool::new(4);
        pool.admit_encoded(&enc, PixelFormat::Gray8);
        assert_eq!(pool.current_bytes(), (64 + enc.metadata_bytes()) as u64);
    }

    #[test]
    fn empty_pool_is_zero() {
        let pool = FramebufferPool::new(4);
        assert_eq!(pool.current_bytes(), 0);
        assert_eq!(pool.mean_bytes(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = FramebufferPool::new(0);
    }
}
