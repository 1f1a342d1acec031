//! DRAM framebuffer, pixel-traffic, and energy simulation.
//!
//! Reimplements the paper's two measurement instruments:
//!
//! * the **throughput simulator** (§5.3.1) — "takes the region label
//!   specification per frame … counts the number of pixel transactions
//!   and directly reports the read/write pixel throughput in bytes/sec";
//!   here [`TrafficRecorder`] plus the burst-level [`DramModel`];
//! * the **first-order energy model** (Appendix A.2, Table 6) —
//!   per-pixel energies for sensing, interface communication, DRAM
//!   storage, and MAC compute; here [`EnergyModel`].
//!
//! [`FramebufferPool`] tracks the resident encoded-frame buffers over
//! time for the memory-footprint axis of the paper's Fig. 8.
//!
//! Like the paper's instruments, both recorders report aggregates
//! only: they keep running totals (sums, counts, peak), never a
//! per-frame series, so their memory does not grow with the number of
//! frames recorded.

#![deny(missing_docs)]

mod dram;
mod energy;
mod framebuffer;
mod placement;
mod sram;
mod traffic;

pub use dram::{DmaWriter, DramConfig, DramModel, DramStats};
pub use energy::{EnergyBreakdown, EnergyModel, FrameActivity};
pub use framebuffer::FramebufferPool;
pub use placement::{
    in_sensor_saving_mj, placement_energy_mj, placement_traffic, EncoderPlacement,
    PlacementTraffic,
};
pub use sram::{DramlessAnalysis, DramlessReport};
pub use traffic::{FrameTraffic, TrafficRecorder, TrafficSummary};
