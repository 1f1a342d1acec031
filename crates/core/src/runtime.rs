//! Developer runtime support (paper §4.3, §5.2).
//!
//! The paper's runtime is a standard three-layer stack: a user-space
//! API (`SetRegionLabels()`), a kernel-space driver, and memory-mapped
//! hardware registers written over AXI-lite. [`RegionRuntime`] models
//! that stack synchronously — including the "OS level" pre-sorting of
//! region labels by y that makes the hardware RoI selector cheap — and
//! [`RuntimeService`] runs the same logic as a background service
//! thread receiving calls over a channel, the shape a real runtime
//! service daemon has.

use crate::{
    BufferPool, EncodedFrame, EncoderConfig, Policy, PolicyContext, RegionLabel, RegionList,
    Result, RhythmicEncoder,
};
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use rpr_frame::GrayFrame;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Model of the encoder's memory-mapped region-parameter registers
/// (paper §5.2: "we implement region parameters as registers in the
/// encoder/decoder modules"). Each region label occupies six 32-bit
/// registers (`x, y, w, h, stride, skip`), written over AXI-lite.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterFile {
    words: Vec<u32>,
    writes: u64,
}

impl RegisterFile {
    /// Registers consumed per region label.
    pub const WORDS_PER_REGION: usize = 6;

    /// Creates an empty register file.
    pub fn new() -> Self {
        RegisterFile::default()
    }

    /// Loads a region list, counting one AXI-lite write per 32-bit word
    /// plus one for the region-count register.
    pub fn load(&mut self, regions: &RegionList) {
        self.words.clear();
        for r in regions {
            self.words
                .extend_from_slice(&[r.x, r.y, r.w, r.h, r.stride, r.skip]);
        }
        self.writes += self.words.len() as u64 + 1;
    }

    /// Number of region labels currently programmed.
    pub fn region_count(&self) -> usize {
        self.words.len() / Self::WORDS_PER_REGION
    }

    /// Total AXI-lite writes issued since creation — the configuration
    /// overhead a per-frame policy pays.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Raw register contents (for hardware-model introspection).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Decodes the programmed registers back into region labels — what
    /// the hardware comparison engine actually sees. Round-trips with
    /// [`RegisterFile::load`].
    pub fn decode_regions(&self) -> Vec<RegionLabel> {
        self.words
            .chunks_exact(Self::WORDS_PER_REGION)
            .map(|w| RegionLabel::new(w[0], w[1], w[2], w[3], w[4], w[5]))
            .collect()
    }
}

/// Cumulative counters for runtime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// `set_region_labels` invocations.
    pub label_updates: u64,
    /// Frames pushed through the encoder.
    pub frames_encoded: u64,
    /// Total regions across all label updates.
    pub regions_submitted: u64,
}

/// The synchronous runtime: owns the encoder, the programmed region
/// labels, and the frame counter; applications call
/// [`set_region_labels`](RegionRuntime::set_region_labels) (the paper's
/// `SetRegionLabels()`) and feed frames.
///
/// # Example
///
/// ```
/// use rpr_core::{RegionLabel, RegionRuntime};
/// use rpr_frame::Plane;
///
/// let mut rt = RegionRuntime::new(64, 48);
/// rt.set_region_labels(vec![RegionLabel::new(0, 0, 16, 16, 1, 1)])?;
/// let frame = Plane::from_fn(64, 48, |x, _| x as u8);
/// let encoded = rt.encode_frame(&frame);
/// assert_eq!(encoded.pixel_count(), 256);
/// # Ok::<(), rpr_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct RegionRuntime {
    width: u32,
    height: u32,
    encoder: RhythmicEncoder,
    regions: RegionList,
    registers: RegisterFile,
    frame_idx: u64,
    stats: RuntimeStats,
}

impl RegionRuntime {
    /// Creates a runtime for `width x height` frames with no regions
    /// programmed (everything is discarded until labels are set).
    pub fn new(width: u32, height: u32) -> Self {
        Self::with_pool(width, height, BufferPool::new())
    }

    /// [`RegionRuntime::new`] with an encoder drawing its per-frame
    /// buffers from `pool` ([`RhythmicEncoder::with_pool`]). Give the
    /// decoder the same pool ([`crate::SoftwareDecoder::with_pool`]) and
    /// the frames its history evicts come back to the encoder.
    pub fn with_pool(width: u32, height: u32, pool: BufferPool) -> Self {
        RegionRuntime {
            width,
            height,
            encoder: RhythmicEncoder::with_pool(width, height, EncoderConfig::default(), pool),
            regions: RegionList::empty(width, height),
            registers: RegisterFile::new(),
            frame_idx: 0,
            stats: RuntimeStats::default(),
        }
    }

    /// The paper's `SetRegionLabels(list<RegionLabel>)`: validates,
    /// clamps, pre-sorts by y ("at the OS level", §4.1.1), and writes
    /// the labels to the encoder's registers. The list persists until
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns the first region-validation error; on error the
    /// previously programmed labels remain active.
    pub fn set_region_labels(&mut self, labels: Vec<RegionLabel>) -> Result<()> {
        let count = labels.len() as u64;
        let list = RegionList::new(self.width, self.height, labels)?;
        self.registers.load(&list);
        self.regions = list;
        self.stats.label_updates += 1;
        self.stats.regions_submitted += count;
        Ok(())
    }

    /// Runs `policy` for the upcoming frame and programs its labels.
    /// Invalid labels from the policy are dropped rather than fatal.
    /// The runtime stamps the frame index and geometry into `ctx`; its
    /// features and detections are the caller's, so a caller can keep
    /// one context across frames and refill it in place.
    pub fn apply_policy(&mut self, policy: &mut dyn Policy, ctx: &mut PolicyContext) {
        ctx.frame_idx = self.frame_idx;
        ctx.width = self.width;
        ctx.height = self.height;
        let list = policy.plan(ctx);
        self.registers.load(&list);
        self.stats.label_updates += 1;
        self.stats.regions_submitted += list.len() as u64;
        self.regions = list;
    }

    /// Encodes the next frame under the programmed labels and advances
    /// the frame counter.
    pub fn encode_frame(&mut self, frame: &GrayFrame) -> EncodedFrame {
        let encoded = self.encoder.encode(frame, self.frame_idx, &self.regions);
        self.frame_idx += 1;
        self.stats.frames_encoded += 1;
        encoded
    }

    /// The labels currently programmed.
    pub fn regions(&self) -> &RegionList {
        &self.regions
    }

    /// The modeled hardware register file.
    pub fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    /// The wrapped encoder (for its work statistics).
    pub fn encoder(&self) -> &RhythmicEncoder {
        &self.encoder
    }

    /// Index the next encoded frame will carry.
    pub fn frame_idx(&self) -> u64 {
        self.frame_idx
    }

    /// Cumulative runtime statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }
}

enum ServiceCall {
    SetLabels(Vec<RegionLabel>, Sender<Result<()>>),
    Encode(GrayFrame, Sender<EncodedFrame>),
    Shutdown,
}

/// The runtime as a background service: user-space calls travel over a
/// channel to a service thread that owns the encoder state, mirroring
/// the paper's "runtime service receives these calls to send the
/// region label list to the encoder" (§4.3).
#[derive(Debug)]
pub struct RuntimeService {
    tx: Sender<ServiceCall>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<Mutex<RuntimeStats>>,
}

impl std::fmt::Debug for ServiceCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceCall::SetLabels(labels, _) => {
                write!(f, "SetLabels({} labels)", labels.len())
            }
            ServiceCall::Encode(frame, _) => {
                write!(f, "Encode({}x{})", frame.width(), frame.height())
            }
            ServiceCall::Shutdown => f.write_str("Shutdown"),
        }
    }
}

impl RuntimeService {
    /// Spawns the service thread for `width x height` frames.
    pub fn spawn(width: u32, height: u32) -> Self {
        let (tx, rx) = bounded::<ServiceCall>(4);
        let stats = Arc::new(Mutex::new(RuntimeStats::default()));
        let stats_clone = Arc::clone(&stats);
        let handle = std::thread::spawn(move || {
            let mut runtime = RegionRuntime::new(width, height);
            while let Ok(call) = rx.recv() {
                match call {
                    ServiceCall::SetLabels(labels, reply) => {
                        let result = runtime.set_region_labels(labels);
                        *stats_clone.lock() = *runtime.stats();
                        let _ = reply.send(result);
                    }
                    ServiceCall::Encode(frame, reply) => {
                        let encoded = runtime.encode_frame(&frame);
                        *stats_clone.lock() = *runtime.stats();
                        let _ = reply.send(encoded);
                    }
                    ServiceCall::Shutdown => break,
                }
            }
        });
        RuntimeService { tx, handle: Some(handle), stats }
    }

    /// Remote `SetRegionLabels` call.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::ServiceUnavailable`] when the service
    /// thread has exited, otherwise the validation result.
    pub fn set_region_labels(&self, labels: Vec<RegionLabel>) -> Result<()> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(ServiceCall::SetLabels(labels, reply_tx))
            .map_err(|_| crate::CoreError::ServiceUnavailable)?;
        reply_rx.recv().map_err(|_| crate::CoreError::ServiceUnavailable)?
    }

    /// Remote frame encode.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::ServiceUnavailable`] when the service
    /// thread has exited.
    pub fn encode_frame(&self, frame: GrayFrame) -> Result<EncodedFrame> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(ServiceCall::Encode(frame, reply_tx))
            .map_err(|_| crate::CoreError::ServiceUnavailable)?;
        reply_rx.recv().map_err(|_| crate::CoreError::ServiceUnavailable)
    }

    /// Snapshot of the service-side runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        *self.stats.lock()
    }

    /// Stops the service thread, waiting for it to exit.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(ServiceCall::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RuntimeService {
    fn drop(&mut self) {
        let _ = self.tx.send(ServiceCall::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_frame::Plane;

    fn frame() -> GrayFrame {
        Plane::from_fn(32, 32, |x, y| (x ^ y) as u8)
    }

    #[test]
    fn runtime_starts_with_no_regions() {
        let mut rt = RegionRuntime::new(32, 32);
        let encoded = rt.encode_frame(&frame());
        assert_eq!(encoded.pixel_count(), 0);
    }

    #[test]
    fn set_region_labels_validates_and_sorts() {
        let mut rt = RegionRuntime::new(32, 32);
        rt.set_region_labels(vec![
            RegionLabel::new(0, 20, 4, 4, 1, 1),
            RegionLabel::new(0, 5, 4, 4, 1, 1),
        ])
        .unwrap();
        assert_eq!(rt.regions().labels()[0].y, 5);
        assert_eq!(rt.registers().region_count(), 2);
    }

    #[test]
    fn invalid_labels_keep_previous_programming() {
        let mut rt = RegionRuntime::new(32, 32);
        rt.set_region_labels(vec![RegionLabel::new(0, 0, 4, 4, 1, 1)]).unwrap();
        let err = rt.set_region_labels(vec![RegionLabel::new(0, 0, 4, 4, 0, 1)]);
        assert!(err.is_err());
        assert_eq!(rt.regions().len(), 1);
    }

    #[test]
    fn registers_roundtrip_region_labels() {
        let mut rt = RegionRuntime::new(64, 64);
        let labels = vec![
            RegionLabel::new(1, 2, 10, 12, 2, 3),
            RegionLabel::new(20, 30, 8, 8, 1, 1),
        ];
        rt.set_region_labels(labels.clone()).unwrap();
        // The registers hold the validated (clamped, y-sorted) list.
        assert_eq!(rt.registers().decode_regions(), rt.regions().labels());
    }

    #[test]
    fn register_writes_are_counted() {
        let mut rt = RegionRuntime::new(32, 32);
        rt.set_region_labels(vec![RegionLabel::new(0, 0, 4, 4, 1, 1)]).unwrap();
        // 6 words + 1 count register.
        assert_eq!(rt.registers().total_writes(), 7);
        rt.set_region_labels(vec![
            RegionLabel::new(0, 0, 4, 4, 1, 1),
            RegionLabel::new(8, 8, 4, 4, 1, 1),
        ])
        .unwrap();
        assert_eq!(rt.registers().total_writes(), 7 + 13);
    }

    #[test]
    fn frame_counter_advances_per_encode() {
        let mut rt = RegionRuntime::new(32, 32);
        rt.set_region_labels(vec![RegionLabel::new(0, 0, 8, 8, 1, 2)]).unwrap();
        let f0 = rt.encode_frame(&frame());
        let f1 = rt.encode_frame(&frame());
        assert_eq!(f0.frame_idx(), 0);
        assert_eq!(f1.frame_idx(), 1);
        // skip=2: frame 1 is off-phase.
        assert_eq!(f0.pixel_count(), 64);
        assert_eq!(f1.pixel_count(), 0);
    }

    #[test]
    fn apply_policy_programs_planned_labels() {
        use crate::FullFramePolicy;
        let mut rt = RegionRuntime::new(32, 32);
        rt.apply_policy(&mut FullFramePolicy, &mut PolicyContext::default());
        let encoded = rt.encode_frame(&frame());
        assert_eq!(encoded.pixel_count(), 32 * 32);
    }

    #[test]
    fn service_roundtrip() {
        let service = RuntimeService::spawn(32, 32);
        service
            .set_region_labels(vec![RegionLabel::new(0, 0, 8, 8, 1, 1)])
            .unwrap();
        let encoded = service.encode_frame(frame()).unwrap();
        assert_eq!(encoded.pixel_count(), 64);
        assert_eq!(service.stats().frames_encoded, 1);
        service.shutdown();
    }

    #[test]
    fn service_rejects_invalid_labels() {
        let service = RuntimeService::spawn(32, 32);
        assert!(service
            .set_region_labels(vec![RegionLabel::new(0, 0, 0, 8, 1, 1)])
            .is_err());
        service.shutdown();
    }
}
