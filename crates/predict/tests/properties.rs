//! Property tests for the prediction subsystem: predicted labels are
//! always within frame bounds, identity motion is a byte-identical
//! no-op against the reactive policy, and prediction is deterministic
//! for a fixed seed.

use proptest::prelude::*;
use rpr_core::{Feature, FeaturePolicy, PolicyContext, RegionLabel, RegionRuntime};
use rpr_frame::{GrayFrame, Plane, Rect};
use rpr_predict::{
    estimate_ego_motion, predict_labels, EgoEstimatorConfig, PredictivePolicy, SharedMotion,
    TrackerConfig,
};
use rpr_vision::MotionVector;

const W: u32 = 128;
const H: u32 = 96;

fn label_strategy() -> impl Strategy<Value = RegionLabel> {
    (0u32..150, 0u32..110, 1u32..160, 1u32..120, 1u32..=4, 1u32..=3)
        .prop_map(|(x, y, w, h, stride, skip)| RegionLabel::new(x, y, w, h, stride, skip))
}

/// A mostly-uniform motion field with a few chaotic blocks layered on
/// top — the camera-plus-moving-objects shape RANSAC must digest.
fn field_strategy() -> impl Strategy<Value = Vec<MotionVector>> {
    (
        -8i32..=8,
        -8i32..=8,
        0u64..2_000,
        proptest::collection::vec((-8i32..=8, -8i32..=8, 0u64..200_000), 0..12),
    )
        .prop_map(|(dx, dy, sad, noise)| {
            let mut field: Vec<MotionVector> = (0..6)
                .flat_map(|by| {
                    (0..8).map(move |bx| MotionVector {
                        block: Rect::new(bx * 16, by * 16, 16, 16),
                        dx,
                        dy,
                        sad,
                    })
                })
                .collect();
            for (slot, (ndx, ndy, nsad)) in field.iter_mut().zip(noise) {
                slot.dx = ndx;
                slot.dy = ndy;
                slot.sad = nsad;
            }
            field
        })
}

fn textured(seed: u32) -> GrayFrame {
    Plane::from_fn(W, H, |x, y| {
        (x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ seed.wrapping_mul(97)) as u8
    })
}

fn zero_field() -> Vec<MotionVector> {
    (0..6)
        .flat_map(|by| {
            (0..8).map(move |bx| MotionVector {
                block: Rect::new(bx * 16, by * 16, 16, 16),
                dx: 0,
                dy: 0,
                sad: 0,
            })
        })
        .collect()
}

proptest! {
    #[test]
    fn predicted_labels_stay_in_bounds(
        labels in proptest::collection::vec(label_strategy(), 0..8),
        field in field_strategy(),
    ) {
        let ego = estimate_ego_motion(&field, &EgoEstimatorConfig::default());
        let predicted = predict_labels(&labels, &field, &ego, W, H, &TrackerConfig::default());
        for l in &predicted {
            prop_assert!(l.w >= 1 && l.h >= 1, "degenerate {l}");
            prop_assert!(l.right() <= W && l.bottom() <= H, "out of frame {l}");
            prop_assert!(l.stride >= 1 && l.skip >= 1);
            // A predicted label must be directly encodable: validation
            // accepts it without changing it.
            prop_assert_eq!(l.validated(W, H).ok(), Some(*l));
        }
    }

    #[test]
    fn identity_motion_matches_reactive_byte_for_byte(
        feature_spec in proptest::collection::vec(
            (0.0f64..128.0, 0.0f64..96.0, 4.0f64..40.0, 0u32..3, 0.0f64..6.0),
            0..6,
        ),
        frames in 2usize..6,
    ) {
        let features: Vec<Feature> = feature_spec
            .iter()
            .map(|&(x, y, size, octave, disp)| {
                Feature::new(x, y, size).with_octave(octave).with_displacement(disp)
            })
            .collect();

        let motion = SharedMotion::new();
        motion.update(zero_field(), &EgoEstimatorConfig::default());

        let mut reactive_rt = RegionRuntime::new(W, H);
        let mut reactive: FeaturePolicy = FeaturePolicy::new();
        let mut predictive_rt = RegionRuntime::new(W, H);
        let mut predictive =
            PredictivePolicy::new(Box::new(FeaturePolicy::new()), motion);

        for t in 0..frames {
            let mut ctx = PolicyContext { features: features.clone(), ..PolicyContext::default() };
            reactive_rt.apply_policy(&mut reactive, &mut ctx);
            predictive_rt.apply_policy(&mut predictive, &mut ctx);
            let frame = textured(t as u32);
            let a = reactive_rt.encode_frame(&frame);
            let b = predictive_rt.encode_frame(&frame);
            prop_assert_eq!(a, b, "identity motion must be a no-op at frame {}", t);
        }
    }

    #[test]
    fn prediction_is_deterministic(
        labels in proptest::collection::vec(label_strategy(), 0..8),
        field in field_strategy(),
    ) {
        let cfg = EgoEstimatorConfig::default();
        let ego_a = estimate_ego_motion(&field, &cfg);
        let ego_b = estimate_ego_motion(&field, &cfg);
        prop_assert_eq!(ego_a, ego_b);
        let a = predict_labels(&labels, &field, &ego_a, W, H, &TrackerConfig::default());
        let b = predict_labels(&labels, &field, &ego_b, W, H, &TrackerConfig::default());
        prop_assert_eq!(a, b);
    }
}
