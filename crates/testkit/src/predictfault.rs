//! Typed adversaries over motion-vector fields for the prediction
//! subsystem.
//!
//! The prediction contract mirrors the decode contract one layer up:
//! whatever the block matcher hands the ego estimator — coherent pans,
//! all-outlier chaos, flat-block zero ties, degenerate geometry — the
//! fit must stay finite, forward-projected labels must stay inside the
//! frame without growing the high-resolution pixel budget, and a
//! zero-motion field must be an exact no-op. Each [`PredictFaultKind`]
//! manufactures one hostile field class from a seeded coherent base;
//! the [`Prediction`] adversary checks the invariants for every kind
//! of every seed.

use crate::{gen_region_list, Adversary, Tally, TestRng};
use rpr_frame::Rect;
use rpr_predict::{estimate_ego_motion, predict_labels, EgoEstimatorConfig, TrackerConfig};
use rpr_vision::MotionVector;

/// Every motion-field corruption class the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictFaultKind {
    /// Replace every vector with incoherent random displacements — an
    /// all-outlier field. The fit must stay finite; confidence may
    /// collapse but never exceed 1.
    AllOutliers,
    /// Replace every vector with a zero-displacement, zero-SAD tie —
    /// what flat untextured blocks produce. Prediction must be an
    /// exact no-op on the input labels.
    ZeroTies,
    /// Drop all but one vector. Below the estimator's minimum the fit
    /// must degrade to the identity, never extrapolate from one block.
    SingleVector,
    /// Drop every vector. Identity fit, labels pass through shifted
    /// by nothing.
    EmptyField,
    /// Saturate displacements at the `i32` extremes — the overflow
    /// regime the `magnitude` fix targets. Nothing may panic and all
    /// outputs must stay in frame bounds.
    ExtremeDisplacements,
    /// Shrink every block to zero area. Degenerate geometry must not
    /// divide by zero anywhere in the fit or the SAD normalisation.
    DegenerateBlocks,
    /// Collapse all block centres onto one row — rank-deficient
    /// geometry for a rigid fit. The result must stay finite.
    CollinearField,
    /// Split the field into two halves voting opposite pans. The fit
    /// must pick a consensus (or degrade) without inventing rotation
    /// larger than the disagreement explains.
    ConflictingHalves,
}

/// All prediction fault kinds, for corpus iteration.
pub const ALL_PREDICT_FAULTS: [PredictFaultKind; 8] = [
    PredictFaultKind::AllOutliers,
    PredictFaultKind::ZeroTies,
    PredictFaultKind::SingleVector,
    PredictFaultKind::EmptyField,
    PredictFaultKind::ExtremeDisplacements,
    PredictFaultKind::DegenerateBlocks,
    PredictFaultKind::CollinearField,
    PredictFaultKind::ConflictingHalves,
];

impl PredictFaultKind {
    /// Short stable name for reports and corpus bookkeeping.
    pub fn name(self) -> &'static str {
        match self {
            PredictFaultKind::AllOutliers => "all-outliers",
            PredictFaultKind::ZeroTies => "zero-ties",
            PredictFaultKind::SingleVector => "single-vector",
            PredictFaultKind::EmptyField => "empty-field",
            PredictFaultKind::ExtremeDisplacements => "extreme-displacements",
            PredictFaultKind::DegenerateBlocks => "degenerate-blocks",
            PredictFaultKind::CollinearField => "collinear-field",
            PredictFaultKind::ConflictingHalves => "conflicting-halves",
        }
    }

    /// Applies the fault to a coherent base `field`, deterministically
    /// under `rng`.
    pub fn inject(self, field: &[MotionVector], rng: &mut TestRng) -> Vec<MotionVector> {
        let mut out = field.to_vec();
        match self {
            PredictFaultKind::AllOutliers => {
                for v in &mut out {
                    v.dx = i32::try_from(rng.range_u32(0, 16)).unwrap_or(0) - 8;
                    v.dy = i32::try_from(rng.range_u32(0, 16)).unwrap_or(0) - 8;
                    v.sad = u64::from(rng.range_u32(0, 50_000));
                }
                out
            }
            PredictFaultKind::ZeroTies => {
                for v in &mut out {
                    v.dx = 0;
                    v.dy = 0;
                    v.sad = 0;
                }
                out
            }
            PredictFaultKind::SingleVector => {
                let keep = rng.range_usize(0, out.len().saturating_sub(1));
                out.into_iter().skip(keep).take(1).collect()
            }
            PredictFaultKind::EmptyField => Vec::new(),
            PredictFaultKind::ExtremeDisplacements => {
                for (i, v) in out.iter_mut().enumerate() {
                    v.dx = if i % 2 == 0 { i32::MAX } else { i32::MIN };
                    v.dy = if i % 3 == 0 { i32::MIN } else { i32::MAX };
                    v.sad = u64::MAX;
                }
                out
            }
            PredictFaultKind::DegenerateBlocks => {
                for v in &mut out {
                    v.block = Rect::new(v.block.x, v.block.y, 0, 0);
                }
                out
            }
            PredictFaultKind::CollinearField => {
                let row = rng.range_u32(0, 80);
                for v in &mut out {
                    v.block = Rect::new(v.block.x, row, v.block.w, v.block.h);
                }
                out
            }
            PredictFaultKind::ConflictingHalves => {
                let mag = i32::try_from(rng.range_u32(1, 8)).unwrap_or(1);
                let half = out.len() / 2;
                for (i, v) in out.iter_mut().enumerate() {
                    v.dx = if i < half { mag } else { -mag };
                    v.dy = 0;
                }
                out
            }
        }
    }
}

/// The prediction corpus: one case per (seed, [`PredictFaultKind`]).
/// A case whose invariants all hold counts as harmless.
///
/// Counters: `identity_degradations` (fits that fell back to the
/// identity, by design for starved fields) and `labels_projected`
/// (cases that produced at least one projected label).
#[derive(Debug, Clone, Copy, Default)]
pub struct Prediction;

impl Adversary for Prediction {
    fn name(&self) -> &'static str {
        "prediction"
    }

    fn kinds(&self) -> Vec<&'static str> {
        ALL_PREDICT_FAULTS.iter().map(|k| k.name()).collect()
    }

    fn run_seed(&self, seed: u64, tally: &mut Tally<'_>) {
        for kind in ALL_PREDICT_FAULTS {
            tally.case(|t| predict_case(seed, kind, t));
        }
    }
}

/// A coherent base field: a `cols x rows` grid of 16 px blocks all
/// voting one rigid pan, with small per-block SAD noise.
fn base_field(rng: &mut TestRng) -> Vec<MotionVector> {
    let cols = rng.range_u32(2, 8);
    let rows = rng.range_u32(2, 6);
    let dx = i32::try_from(rng.range_u32(0, 14)).unwrap_or(0) - 7;
    let dy = i32::try_from(rng.range_u32(0, 10)).unwrap_or(0) - 5;
    (0..rows)
        .flat_map(|by| {
            (0..cols).map(move |bx| MotionVector {
                block: Rect::new(bx * 16, by * 16, 16, 16),
                dx,
                dy,
                sad: 37,
            })
        })
        .map(|mut v| {
            v.sad += u64::from(rng.range_u32(0, 64));
            v
        })
        .collect()
}

fn predict_case(seed: u64, kind: PredictFaultKind, t: &mut Tally<'_>) {
    let width = 128u32;
    let height = 96u32;
    let mut rng = TestRng::new(seed ^ 0x5045_5246); // "PERF" domain split
    let field = kind.inject(&base_field(&mut rng), &mut rng);
    let labels = gen_region_list(&mut rng, width, height, 4).labels().to_vec();

    let ego_cfg = EgoEstimatorConfig::default();
    let ego = estimate_ego_motion(&field, &ego_cfg);
    let ego2 = estimate_ego_motion(&field, &ego_cfg);
    t.count("identity_degradations", u64::from(ego.confidence == 0.0));

    let cfg = TrackerConfig::default();
    let predicted = predict_labels(&labels, &field, &ego, width, height, &cfg);
    let predicted2 = predict_labels(&labels, &field, &ego, width, height, &cfg);
    t.count("labels_projected", u64::from(!predicted.is_empty()));

    let budget_in: u64 = labels.iter().map(|l| l.kept_pixels()).sum();
    let budget_out: u64 = predicted.iter().map(|l| l.kept_pixels()).sum();
    t.invariants(
        kind.name(),
        &[
            (
                ego.transform.tx.is_finite()
                    && ego.transform.ty.is_finite()
                    && ego.transform.theta.is_finite(),
                "ego fit is not finite",
            ),
            ((0.0..=1.0).contains(&ego.confidence), "confidence outside [0, 1]"),
            (ego.inliers <= ego.total, "more inliers than vectors"),
            (ego == ego2, "ego fit is not deterministic"),
            (
                predicted
                    .iter()
                    .all(|l| l.right() <= width && l.bottom() <= height && l.w > 0 && l.h > 0),
                "projected label empty or out of frame",
            ),
            (budget_out <= budget_in, "projection grew the pixel budget"),
            (predicted == predicted2, "projection is not deterministic"),
            (
                kind != PredictFaultKind::ZeroTies || predicted == labels,
                "zero field moved the labels",
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_is_deterministic_per_seed() {
        let mut rng = TestRng::new(99);
        let base = base_field(&mut rng);
        for kind in ALL_PREDICT_FAULTS {
            let a = kind.inject(&base, &mut TestRng::new(7));
            let b = kind.inject(&base, &mut TestRng::new(7));
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn zero_ties_field_really_is_a_noop() {
        let mut rng = TestRng::new(3);
        let field = PredictFaultKind::ZeroTies.inject(&base_field(&mut rng), &mut rng);
        assert!(field.iter().all(|v| v.dx == 0 && v.dy == 0 && v.sad == 0));
    }
}
