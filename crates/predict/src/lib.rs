//! rpr-predict: motion-compensated region prediction.
//!
//! The paper's region labels come from task feedback on frame *t−1*,
//! which silently assumes a static camera: under panning or handheld
//! motion the labels lag the scene and the high-resolution regions
//! drift off their objects. This crate closes that gap with three
//! layers:
//!
//! * [`estimate_ego_motion`] — fits a global rigid camera model
//!   ([`rpr_vision::Rigid2d`]) over block-matching
//!   [`rpr_vision::MotionVector`]s with RANSAC outlier rejection
//!   (reusing `rpr_vision::estimate_rigid_motion`), degrading to the
//!   identity with zero confidence on degenerate input instead of
//!   failing.
//! * [`predict_labels`] — forward-projects each
//!   [`rpr_core::RegionLabel`] by the ego displacement at its centre
//!   plus the local residual of the motion vectors it overlaps, with
//!   confidence from SAD residuals: low-confidence regions are
//!   inflated *and* get their stride bumped, so uncertainty widens
//!   coverage without growing the high-resolution pixel budget.
//!   Projected labels are clamped at frame borders, merged into
//!   enclosing labels when clamping makes them redundant, and dropped
//!   when they leave the frame entirely.
//! * [`PredictivePolicy`] — wraps any existing feedback
//!   [`rpr_core::Policy`] and rewrites its t−1 labels into predicted-t
//!   labels before they reach the encoder, reading the latest motion
//!   estimate from a [`SharedMotion`] handle the capture loop updates.
//!
//! Identity contract: with zero estimated motion the projection is an
//! exact no-op — predicted labels equal the reactive labels byte for
//! byte (property-tested in `tests/properties.rs`).
//!
//! # Example
//!
//! ```
//! use rpr_core::RegionLabel;
//! use rpr_frame::Rect;
//! use rpr_predict::{predict_labels, EgoEstimatorConfig, EgoMotion, TrackerConfig};
//! use rpr_vision::MotionVector;
//!
//! // Every block agrees: content moved 6 px right (best previous-frame
//! // match sits 6 px to the left, so dx = -6).
//! let vectors: Vec<MotionVector> = (0..4)
//!     .flat_map(|by| {
//!         (0..4).map(move |bx| MotionVector {
//!             block: Rect::new(bx * 16, by * 16, 16, 16),
//!             dx: -6,
//!             dy: 0,
//!             sad: 0,
//!         })
//!     })
//!     .collect();
//! let ego = rpr_predict::estimate_ego_motion(&vectors, &EgoEstimatorConfig::default());
//! assert!(ego.confidence > 0.9);
//!
//! let labels = vec![RegionLabel::new(10, 10, 16, 16, 1, 1)];
//! let predicted = predict_labels(&labels, &vectors, &ego, 64, 64, &TrackerConfig::default());
//! // The region followed the content 6 px to the right.
//! assert_eq!(predicted[0].x, 16);
//! assert_eq!(predicted[0].y, 10);
//! ```

#![deny(missing_docs)]

mod ego;
mod policy;
mod tracker;

pub use ego::{estimate_ego_motion, EgoEstimatorConfig, EgoMotion};
pub use policy::{PredictionState, PredictivePolicy, SharedMotion};
pub use tracker::{displacement_for_rect, predict_labels, shift_rect, TrackerConfig};
