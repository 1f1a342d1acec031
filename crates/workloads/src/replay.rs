//! Record/replay of workload capture streams through the `.rpr` wire
//! format.
//!
//! *Recording* taps the experiment [`Pipeline`]'s rhythmic branch
//! ([`Pipeline::set_encoded_tap`]) and spills every [`EncodedFrame`]
//! into an in-memory `.rpr` container while the workload runs
//! normally. *Replaying* decodes the container through a fresh
//! [`SoftwareDecoder`] — and because the decoder's output is a pure
//! function of the encoded-frame sequence, the replayed task inputs
//! are byte-identical to what the task saw live. That turns any
//! captured run into a deterministic fixture: archive the container,
//! re-run the vision task against it later (or against a modified
//! task), and the capture side is out of the loop entirely.
//!
//! Recording only applies to the rhythmic (`Rp`) baselines: the
//! frame-based baselines never produce encoded frames, so their
//! containers come out empty.

use crate::datasets::{FaceDataset, PoseDataset, SlamDataset};
use crate::runner::{Pipeline, PipelineConfig};
use crate::staged::{
    face_outcome, pose_outcome, slam_outcome, DatasetSource, FaceTask, PipelineCapture, PoseTask,
    SlamTask,
};
use crate::tasks::{FaceOutcome, PoseOutcome, SlamOutcome};
use rpr_core::{ReconstructionMode, SoftwareDecoder};
use rpr_frame::GrayFrame;
use rpr_stream::{run_stream, DecodeCapture, DecodeSummary, StreamConfig, TaskStage, WireSource};
use rpr_wire::{read_all, ContainerReader, ContainerWriter, WireError, WriterStats};
use std::sync::{Arc, Mutex};

struct RecorderState {
    writer: Option<ContainerWriter<Vec<u8>>>,
    error: Option<WireError>,
}

/// Spills every tapped [`EncodedFrame`] into an in-memory `.rpr`
/// container. Clone the tap with [`Recorder::tap`], install it on a
/// [`Pipeline`], run the workload, then [`Recorder::finish`].
///
/// The first write error is latched (subsequent frames are dropped
/// rather than written after a gap) and surfaced by `finish`.
pub struct Recorder {
    inner: Arc<Mutex<RecorderState>>,
}

impl Recorder {
    /// Starts an in-memory container.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] (never for the `Vec<u8>` sink in practice).
    pub fn new() -> Result<Self, WireError> {
        Ok(Recorder {
            inner: Arc::new(Mutex::new(RecorderState {
                writer: Some(ContainerWriter::new(Vec::new())?),
                error: None,
            })),
        })
    }

    /// A tap closure for [`Pipeline::set_encoded_tap`]. Multiple taps
    /// share the same container (frames interleave in call order).
    pub fn tap(&self) -> crate::runner::EncodedTap {
        let inner = Arc::clone(&self.inner);
        Box::new(move |frame| {
            let mut state = inner.lock().expect("recorder mutex poisoned");
            if let Some(writer) = state.writer.as_mut() {
                if let Err(e) = writer.append(frame) {
                    state.error = Some(e);
                    state.writer = None;
                }
            }
        })
    }

    /// Finalizes the container (index + trailer) and returns its bytes
    /// with the writer's size accounting.
    ///
    /// # Errors
    ///
    /// The first latched write error, or [`WireError::Io`] if called
    /// twice.
    pub fn finish(&self) -> Result<(Vec<u8>, WriterStats), WireError> {
        let mut state = self.inner.lock().expect("recorder mutex poisoned");
        if let Some(e) = state.error.take() {
            return Err(e);
        }
        let writer = state.writer.take().ok_or_else(|| WireError::Io {
            reason: "recorder already finished".into(),
        })?;
        writer.finish()
    }
}

fn recorded_pipeline(cfg: PipelineConfig, recorder: &Recorder) -> PipelineCapture {
    let mut pipeline = Pipeline::new(cfg);
    pipeline.set_encoded_tap(recorder.tap());
    PipelineCapture::from_pipeline(pipeline)
}

/// Runs the face workload while recording its encoded stream.
/// Returns the live outcome plus the finished container.
///
/// # Errors
///
/// Any [`WireError`] the recording sink hit.
pub fn record_face(
    dataset: &FaceDataset,
    cfg: PipelineConfig,
) -> Result<(FaceOutcome, Vec<u8>, WriterStats), WireError> {
    let recorder = Recorder::new()?;
    let capture = recorded_pipeline(cfg, &recorder);
    let result = run_stream(
        0,
        DatasetSource::new(dataset),
        capture,
        FaceTask::new(dataset),
        StreamConfig::blocking(),
    );
    let outcome = face_outcome(result.capture, result.task);
    let (bytes, stats) = recorder.finish()?;
    Ok((outcome, bytes, stats))
}

/// Runs the pose workload while recording its encoded stream.
///
/// # Errors
///
/// Any [`WireError`] the recording sink hit.
pub fn record_pose(
    dataset: &PoseDataset,
    cfg: PipelineConfig,
) -> Result<(PoseOutcome, Vec<u8>, WriterStats), WireError> {
    let recorder = Recorder::new()?;
    let capture = recorded_pipeline(cfg, &recorder);
    let result = run_stream(
        0,
        DatasetSource::new(dataset),
        capture,
        PoseTask::new(dataset),
        StreamConfig::blocking(),
    );
    let outcome = pose_outcome(result.capture, result.task);
    let (bytes, stats) = recorder.finish()?;
    Ok((outcome, bytes, stats))
}

/// Runs the SLAM workload while recording its encoded stream.
///
/// # Errors
///
/// Any [`WireError`] the recording sink hit.
pub fn record_slam(
    dataset: &SlamDataset,
    cfg: PipelineConfig,
) -> Result<(SlamOutcome, Vec<u8>, WriterStats), WireError> {
    let recorder = Recorder::new()?;
    let capture = recorded_pipeline(cfg, &recorder);
    let result = run_stream(
        0,
        DatasetSource::new(dataset),
        capture,
        SlamTask::new(dataset),
        StreamConfig::blocking(),
    );
    let outcome = slam_outcome(dataset, result.capture, result.task);
    let (bytes, stats) = recorder.finish()?;
    Ok((outcome, bytes, stats))
}

/// Decodes a recorded container back into the exact [`GrayFrame`]
/// sequence the recorded run's task consumed, under
/// [`ReconstructionMode::BlockNearest`] (the [`Pipeline`]'s mode).
///
/// # Errors
///
/// Any [`WireError`] from parsing or validating the container.
pub fn replay_task_inputs(bytes: &[u8]) -> Result<Vec<GrayFrame>, WireError> {
    replay_task_inputs_with_mode(bytes, ReconstructionMode::BlockNearest)
}

/// [`replay_task_inputs`] under an explicit reconstruction mode (must
/// match the recording pipeline's to reproduce its outputs).
///
/// # Errors
///
/// Any [`WireError`] from parsing or validating the container.
pub fn replay_task_inputs_with_mode(
    bytes: &[u8],
    mode: ReconstructionMode,
) -> Result<Vec<GrayFrame>, WireError> {
    let frames = read_all(bytes)?;
    let Some(first) = frames.first() else {
        return Ok(Vec::new());
    };
    let mut decoder = SoftwareDecoder::with_mode(first.width(), first.height(), mode);
    frames
        .into_iter()
        .map(|f| {
            decoder
                .try_decode_owned(f)
                .map_err(|e| WireError::CorruptFrame { reason: e.to_string() })
        })
        .collect()
}

/// Replays a container through an arbitrary [`TaskStage`] on the
/// staged executor (`WireSource → DecodeCapture → task`), returning
/// the task's output and the decode summary. This is how an archived
/// capture is re-scored against a new or modified vision task.
///
/// # Errors
///
/// Any [`WireError`] from opening the container.
pub fn replay_through_task<T>(
    bytes: Vec<u8>,
    task: T,
) -> Result<(T::Output, DecodeSummary), WireError>
where
    T: TaskStage<Input = GrayFrame>,
{
    let (width, height) = {
        let reader = ContainerReader::open(&bytes)?;
        if reader.is_empty() {
            (0, 0)
        } else {
            let view = reader.view(0)?;
            (view.width(), view.height())
        }
    };
    let source = WireSource::new(bytes)?;
    let result = run_stream(
        0,
        source,
        DecodeCapture::new(width, height),
        task,
        StreamConfig::blocking(),
    );
    Ok((result.task, result.capture))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::run_face_with;
    use crate::Baseline;
    use rpr_core::Feature;
    use rpr_frame::Plane;

    fn textured(w: u32, h: u32, t: u32) -> GrayFrame {
        Plane::from_fn(w, h, |x, y| ((x * 3) ^ (y * 7) ^ (t * 11)) as u8)
    }

    /// The core determinism claim: a tapped pipeline's decoded outputs
    /// equal the container's replayed task inputs, byte for byte.
    #[test]
    fn replay_reproduces_live_task_inputs_exactly() {
        let cfg = PipelineConfig::new(64, 48, Baseline::Rp { cycle_length: 3 });
        let recorder = Recorder::new().unwrap();
        let mut pipeline = Pipeline::new(cfg);
        pipeline.set_encoded_tap(recorder.tap());

        let mut live = Vec::new();
        for t in 0..8u32 {
            let feats = vec![Feature::new(20.0, 20.0, 12.0).with_displacement(2.0)];
            live.push(pipeline.process_frame(&textured(64, 48, t), feats, vec![]));
        }
        drop(pipeline);
        let (bytes, stats) = recorder.finish().unwrap();
        assert_eq!(stats.frames, 8);

        let replayed = replay_task_inputs(&bytes).unwrap();
        assert_eq!(replayed, live, "replay must be byte-identical to the live run");
    }

    #[test]
    fn record_face_produces_a_replayable_container() {
        let ds = FaceDataset::new(96, 72, 6, 1, 3);
        let cfg = PipelineConfig::new(96, 72, Baseline::Rp { cycle_length: 3 });
        let (outcome, bytes, stats) = record_face(&ds, cfg).unwrap();
        assert_eq!(stats.frames, 6);
        assert_eq!(outcome.per_frame_ap.len(), 6);

        // Recording is an observer: the live outcome matches the
        // untapped synchronous reference exactly.
        let reference = run_face_with(&ds, cfg);
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );

        let inputs = replay_task_inputs(&bytes).unwrap();
        assert_eq!(inputs.len(), 6);
    }

    #[test]
    fn replay_through_task_rescores_the_archive() {
        let ds = FaceDataset::new(96, 72, 6, 1, 3);
        let cfg = PipelineConfig::new(96, 72, Baseline::Rp { cycle_length: 3 });
        let (live, bytes, _) = record_face(&ds, cfg).unwrap();

        let (frames_eval, summary) =
            replay_through_task(bytes, FaceTask::new(&ds)).unwrap();
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.stats.frames, 6);
        // Same frames in, same task: same per-frame evaluations out.
        let replay_ap: Vec<f64> = frames_eval
            .iter()
            .map(|(d, g)| rpr_vision::average_precision(d, g, 0.5))
            .collect();
        assert_eq!(replay_ap, live.per_frame_ap);
    }

    #[test]
    fn frame_baselines_record_empty_containers() {
        let ds = FaceDataset::new(96, 72, 4, 1, 3);
        let cfg = PipelineConfig::new(96, 72, Baseline::Fch);
        let (_, bytes, stats) = record_face(&ds, cfg).unwrap();
        assert_eq!(stats.frames, 0, "frame-based baselines never encode");
        assert!(replay_task_inputs(&bytes).unwrap().is_empty());
    }

    #[test]
    fn finishing_twice_is_a_typed_error() {
        let recorder = Recorder::new().unwrap();
        recorder.finish().unwrap();
        assert!(matches!(recorder.finish(), Err(WireError::Io { .. })));
    }
}
