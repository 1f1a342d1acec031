//! Property tests for the memory and energy models.

use proptest::prelude::*;
use rpr_memsim::{
    placement_traffic, DramConfig, DramModel, DramlessAnalysis, EncoderPlacement,
    EnergyModel, FrameActivity, FrameTraffic, FramebufferPool, TrafficRecorder, TrafficSummary,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Energy is linear: the energy of the sum of two activities is the
    /// sum of their energies.
    #[test]
    fn energy_is_linear(
        a in 0u64..1_000_000, b in 0u64..1_000_000,
        c in 0u64..1_000_000, d in 0u64..1_000_000,
    ) {
        let m = EnergyModel::paper_defaults();
        let act1 = FrameActivity { sensed_px: a, csi_px: b, dram_written_px: c, dram_read_px: d, macs: a };
        let act2 = FrameActivity { sensed_px: d, csi_px: c, dram_written_px: b, dram_read_px: a, macs: b };
        let combined = FrameActivity {
            sensed_px: a + d,
            csi_px: b + c,
            dram_written_px: c + b,
            dram_read_px: d + a,
            macs: a + b,
        };
        let sum = m.frame_energy(&act1).total_pj() + m.frame_energy(&act2).total_pj();
        prop_assert!((m.frame_energy(&combined).total_pj() - sum).abs() < 1e-3);
    }

    /// Burst counts: sequential access of n bytes never issues more
    /// bursts than scattered access of the same bytes in pieces.
    #[test]
    fn sequential_never_beats_scattered(chunks in proptest::collection::vec(1u64..5000, 1..20)) {
        let total: u64 = chunks.iter().sum();
        let mut seq = DramModel::new(DramConfig::default());
        seq.write_sequential(0, total);
        let mut scat = DramModel::new(DramConfig::default());
        let placed: Vec<(u64, u64)> = chunks
            .iter()
            .enumerate()
            .map(|(i, &len)| (i as u64 * 1_000_000, len))
            .collect();
        scat.write_scattered(&placed);
        prop_assert!(seq.stats().write_bursts <= scat.stats().write_bursts);
        prop_assert_eq!(seq.stats().bytes_written, scat.stats().bytes_written);
        prop_assert!(seq.stats().row_activations <= scat.stats().row_activations);
    }

    /// Framebuffer pool: current bytes equal the sum of the last
    /// `window` admissions; the peak never decreases.
    #[test]
    fn pool_window_sum(sizes in proptest::collection::vec(0u64..100_000, 1..24), window in 1usize..6) {
        let mut pool = FramebufferPool::new(window);
        let mut peak_seen = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            pool.admit_raw(s);
            let expected: u64 = sizes[i.saturating_sub(window - 1)..=i].iter().sum();
            prop_assert_eq!(pool.current_bytes(), expected);
            peak_seen = peak_seen.max(expected);
            prop_assert_eq!(pool.peak_bytes(), peak_seen);
        }
    }

    /// The recorders keep running totals, not per-frame logs. Their
    /// aggregates equal, bit for bit, a naive fold over the per-frame
    /// sequence: integer sums for the traffic summary, and for the
    /// footprint mean the sequential `f64` sum of the per-admission
    /// resident bytes, as the per-frame logs were once summed.
    #[test]
    fn running_totals_equal_a_fold_over_the_frames(
        frames in proptest::collection::vec(
            (0u64..5_000_000, 0u64..200_000, 0u64..5_000_000, 0u64..200_000, 0u64..20_000_000),
            0..200,
        ),
        window in 1usize..6,
        fps in 1.0f64..240.0,
    ) {
        let traffic: Vec<FrameTraffic> = frames
            .iter()
            .map(|&(payload_write, metadata_write, payload_read, metadata_read, _)| FrameTraffic {
                payload_write,
                metadata_write,
                payload_read,
                metadata_read,
            })
            .collect();
        let sizes: Vec<u64> = frames.iter().map(|f| f.4).collect();
        let mut rec = TrafficRecorder::new(fps);
        let mut pool = FramebufferPool::new(window);
        for (&t, &s) in traffic.iter().zip(&sizes) {
            rec.record_frame(t);
            pool.admit_raw(s);
        }

        let n = traffic.len() as u64;
        let write_bytes: u64 = traffic.iter().map(FrameTraffic::write_bytes).sum();
        let read_bytes: u64 = traffic.iter().map(FrameTraffic::read_bytes).sum();
        let metadata_bytes: u64 =
            traffic.iter().map(|f| f.metadata_write + f.metadata_read).sum();
        let bytes_per_frame =
            if n == 0 { 0.0 } else { (write_bytes + read_bytes) as f64 / n as f64 };
        let want = TrafficSummary {
            frames: n,
            write_bytes,
            read_bytes,
            metadata_bytes,
            throughput_mb_s: bytes_per_frame * fps / 1.0e6,
            bytes_per_frame,
        };
        let got = rec.summary();
        prop_assert_eq!(got, want);
        prop_assert_eq!(got.bytes_per_frame.to_bits(), want.bytes_per_frame.to_bits());
        prop_assert_eq!(got.throughput_mb_s.to_bits(), want.throughput_mb_s.to_bits());

        let samples: Vec<u64> = (0..sizes.len())
            .map(|i| sizes[i.saturating_sub(window - 1)..=i].iter().sum())
            .collect();
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|&b| b as f64).sum::<f64>() / samples.len() as f64
        };
        prop_assert_eq!(pool.mean_bytes().to_bits(), mean.to_bits());
        prop_assert_eq!(pool.peak_bytes(), samples.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(pool.current_bytes(), samples.last().copied().unwrap_or(0));
    }

    /// DRAM-less: fit fraction and avoided traffic are monotone in the
    /// budget, and the recommended budget achieves its target.
    #[test]
    fn dramless_monotone(sizes in proptest::collection::vec(1u64..1_000_000, 1..40),
                         b1 in 0u64..1_000_000, b2 in 0u64..1_000_000) {
        let analysis = DramlessAnalysis::new(&sizes);
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        let r_lo = analysis.evaluate(lo);
        let r_hi = analysis.evaluate(hi);
        prop_assert!(r_lo.fit_fraction <= r_hi.fit_fraction);
        prop_assert!(r_lo.bytes_on_chip <= r_hi.bytes_on_chip);
        let budget = analysis.budget_for_fit_fraction(0.5).unwrap();
        prop_assert!(analysis.evaluate(budget).fit_fraction >= 0.5);
    }

    /// Encoder placement: in-sensor CSI traffic never exceeds post-ISP
    /// CSI traffic, and DDR traffic is placement independent.
    #[test]
    fn placement_invariants(frame_px in 1u64..10_000_000, keep in 0.0f64..1.0) {
        let kept = (frame_px as f64 * keep) as u64;
        let meta = frame_px / 12;
        let post = placement_traffic(EncoderPlacement::PostIsp, frame_px, kept, meta);
        let in_s = placement_traffic(EncoderPlacement::InSensor, frame_px, kept, meta);
        prop_assert!(in_s.csi_px <= post.csi_px + meta);
        prop_assert_eq!(post.ddr_write_px, in_s.ddr_write_px);
    }
}
