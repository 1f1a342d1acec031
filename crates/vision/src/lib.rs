//! A from-scratch computer-vision stack for the rhythmic pixel region
//! workloads: image pyramids, FAST corner detection, ORB-style oriented
//! binary descriptors, Hamming matching, RANSAC rigid-motion
//! estimation, blob detection, k-means clustering, and the accuracy
//! metrics the paper reports (absolute trajectory error, relative pose
//! error, IoU, mean average precision).
//!
//! This substitutes for the paper's ORB-SLAM2 / OpenCV dependency: the
//! algorithms consume ordinary decoded frames, emit keypoints with the
//! `size` and `octave` attributes the paper's region policies are built
//! from (§3.4), and degrade the same qualitative way when pixels are
//! missing.
//!
//! # Example
//!
//! ```
//! use rpr_frame::Plane;
//! use rpr_vision::{OrbDetector, match_descriptors};
//!
//! // A frame with a strong corner pattern.
//! let frame = Plane::from_fn(64, 64, |x, y| {
//!     if x > 30 && y > 30 { 220 } else { 30 }
//! });
//! let orb = OrbDetector::default();
//! let kps = orb.detect(&frame);
//! assert!(!kps.is_empty());
//! // Self-matching finds zero-distance correspondences (the ratio test
//! // drops features whose descriptors repeat elsewhere in the frame).
//! let matches = match_descriptors(&kps, &kps, 64, 0.9);
//! assert!(matches.iter().all(|m| m.distance == 0));
//! assert!(!matches.is_empty());
//! ```

#![deny(missing_docs)]

mod blob;
mod brief;
mod fast;
mod keypoint;
mod kmeans;
mod matcher;
mod metrics;
mod motion;
mod orb;
mod pyramid;
mod ransac;

pub use blob::{detect_blobs, detect_blobs_into, detect_blobs_scalar, Blob, BlobScratch};
pub use brief::{BriefPattern, Descriptor, DESCRIPTOR_BYTES};
pub use fast::{detect_fast, FastConfig};
pub use keypoint::KeyPoint;
pub use kmeans::{kmeans, KMeansResult};
pub use matcher::{match_descriptors, DescriptorMatch};
pub use metrics::{
    align_rigid_2d, ate_rmse, average_precision, mean_average_precision, relative_pose_error,
    Pose2d, RpeSummary,
};
pub use motion::{estimate_block_motion, moving_regions, MotionVector};
pub use orb::{OrbConfig, OrbDetector, OrbFeature};
pub use pyramid::{resize_bilinear, ImagePyramid};
pub use ransac::{estimate_rigid_motion, PointPair, Rigid2d};
