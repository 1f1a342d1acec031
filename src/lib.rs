//! Rhythmic pixel regions — a full-system Rust reproduction of
//! *Rhythmic Pixel Regions: Multi-resolution Visual Sensing System
//! towards High-Precision Visual Computing at Low Power* (ASPLOS '21).
//!
//! This umbrella crate re-exports the workspace so examples and
//! downstream users get everything through a single dependency:
//!
//! * [`core`] — the paper's contribution: region labels, the streaming
//!   encoder, the EncMask/per-row-offset metadata, the decoder and
//!   PMMU, the runtime, and the region-selection policies;
//! * [`frame`] — pixel/plane/geometry primitives;
//! * [`sensor`] — synthetic scenes, Bayer sensor model, raster-scan
//!   streaming;
//! * [`isp`] — demosaic/gamma/CCM pipeline at 2 pixels per clock;
//! * [`memsim`] — DRAM traffic, framebuffer footprint, and the Table 6
//!   energy model;
//! * [`hwsim`] — FPGA resource/power/cycle models of the hardware
//!   blocks;
//! * [`vision`] — FAST/ORB features, matching, RANSAC, blobs, metrics;
//! * [`predict`] — motion-compensated region prediction: global
//!   ego-motion estimation over block-matching vectors, per-region
//!   forward projection, and the predictive policy wrapper;
//! * [`workloads`] — the three evaluation workloads, baselines, and
//!   the experiment runner;
//! * [`stream`] — the staged multi-camera executor: a source thread
//!   and a lock-step capture→task loop per stream, a bounded raw queue
//!   with backpressure, and per-stage telemetry;
//! * [`wire`] — the `.rpr` wire format: a canonical little-endian
//!   bitstream for encoded frames and a chunked, CRC-guarded container
//!   with an O(1)-seek index, powering record/replay of capture
//!   streams;
//! * [`serve`] — the multi-tenant ingestion service: a non-blocking
//!   event loop accepting camera sessions that stream `.rpr`
//!   containers, with per-tenant admission control, token-bucket
//!   quotas, and QoS backpressure;
//! * [`trace`] — cross-layer tracing and the unified [`trace::RunReport`]
//!   metrics schema with its regression-diff tooling.
//!
//! # Quick start
//!
//! ```
//! use rhythmic_pixel_regions::core::{RegionLabel, RegionRuntime, SoftwareDecoder};
//! use rhythmic_pixel_regions::frame::Plane;
//!
//! let mut runtime = RegionRuntime::new(64, 48);
//! runtime.set_region_labels(vec![RegionLabel::new(8, 8, 16, 16, 1, 1)])?;
//!
//! let frame = Plane::from_fn(64, 48, |x, y| (x + y) as u8);
//! let encoded = runtime.encode_frame(&frame);
//! assert_eq!(encoded.pixel_count(), 256);
//!
//! let mut decoder = SoftwareDecoder::new(64, 48);
//! let decoded = decoder.decode(&encoded);
//! assert_eq!(decoded.get(10, 10), frame.get(10, 10));
//! # Ok::<(), rhythmic_pixel_regions::core::CoreError>(())
//! ```

#![deny(missing_docs)]

pub use rpr_core as core;
pub use rpr_frame as frame;
pub use rpr_hwsim as hwsim;
pub use rpr_isp as isp;
pub use rpr_memsim as memsim;
pub use rpr_predict as predict;
pub use rpr_sensor as sensor;
pub use rpr_serve as serve;
pub use rpr_stream as stream;
pub use rpr_trace as trace;
pub use rpr_vision as vision;
pub use rpr_wire as wire;
pub use rpr_workloads as workloads;
