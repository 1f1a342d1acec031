//! The paper's three vision tasks (Table 3), each runnable under any
//! [`crate::Baseline`].

pub(crate) mod face;
pub(crate) mod pose;
pub(crate) mod slam;

pub use face::{run_face, run_face_with, FaceOutcome};
pub use pose::{run_pose, run_pose_with, PoseOutcome};
pub use slam::{run_slam, run_slam_with, SlamOutcome};

use rpr_frame::Rect;

/// Estimates per-detection displacement by greedy nearest-centre
/// matching against the previous frame's detections — the motion proxy
/// the paper's policies use to set temporal rates (§4.3.1).
///
/// Detections without a previous counterpart get `default_displacement`
/// (treat unknown motion as fast so new objects are sampled densely).
pub(crate) fn detection_displacements<'a>(
    current: impl IntoIterator<Item = &'a Rect>,
    previous: &[Rect],
    default_displacement: f64,
) -> Vec<(Rect, f64)> {
    current
        .into_iter()
        .map(|c| {
            let (cx, cy) = c.center();
            let nearest = previous
                .iter()
                .map(|p| {
                    let (px, py) = p.center();
                    ((cx - px).powi(2) + (cy - py).powi(2)).sqrt()
                })
                .fold(f64::MAX, f64::min);
            // A detection farther than its own size from everything in
            // the previous frame is new, not fast.
            let displacement = if nearest == f64::MAX || nearest > f64::from(c.w.max(c.h)) {
                default_displacement
            } else {
                nearest
            };
            (*c, displacement)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_detection_gets_measured_motion() {
        let prev = vec![Rect::new(10, 10, 20, 20)];
        let cur = vec![Rect::new(13, 14, 20, 20)];
        let d = detection_displacements(&cur, &prev, 99.0);
        assert!((d[0].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn new_detection_gets_default() {
        let prev = vec![Rect::new(10, 10, 20, 20)];
        let cur = vec![Rect::new(300, 300, 20, 20)];
        let d = detection_displacements(&cur, &prev, 7.0);
        assert_eq!(d[0].1, 7.0);
    }

    #[test]
    fn empty_previous_uses_default() {
        let cur = vec![Rect::new(1, 1, 5, 5)];
        let d = detection_displacements(&cur, &[], 3.0);
        assert_eq!(d[0].1, 3.0);
    }
}
