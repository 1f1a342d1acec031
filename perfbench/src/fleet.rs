//! The open-loop serving workload (`fleet_replay`): pose cameras
//! recorded to `.rpr` in set-up, then released over `MemConn` sessions
//! on a fixed schedule (for latency) or all at once (for throughput)
//! into `Server` → `TenantBridge` →
//! `run_stream(DecodeCapture → pose task)`. The same generator and
//! event loop also drive the traced single-threaded replay and the
//! serving shadow of the closed-loop workloads.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rpr_core::EncodedFrame;
use rpr_frame::GrayFrame;
use rpr_serve::protocol::{encode_bye, encode_data, encode_hello};
use rpr_serve::{
    AdmitCode, Conn, ConnRead, Delivered, MemConn, MemListener, Server, SystemClock, TenantBridge,
    TenantConfig,
};
use rpr_stream::{
    run_stream, BackpressureMode, CaptureStage, DecodeCapture, Feedback, StageQueue, StreamConfig,
    TaskStage,
};
use rpr_vision::mean_average_precision;
use rpr_wire::{frame_chunk, list_chunks, ContainerReader, FrameEntry, CHUNK_FRAME};
use rpr_workloads::datasets::VideoDataset;
use rpr_workloads::staged::FramesEval;
use rpr_workloads::{PoseDataset, PoseTask};

use crate::alloc::allocations;
use crate::ledger::{measure, now, Ledger};
use crate::stats::{percentile, OpenLoopSample};
use crate::streams::{camera_seed, full_capture_score, render, traced_camera, Score, Shape};
use crate::{layer, LayerReport, Outcome};

/// The recorded cameras: the `pose_rp` cameras.
pub const FLEET: Shape = crate::streams::POSE_RP;

/// Frames per second offered by all cameras together, below the
/// event loop's saturation point on two cores.
pub const OFFERED_FPS: f64 = 1200.0;

/// Roughly where the replay saturates on two cores. It only sizes the
/// saturated replay, whose length then follows the machine's speed.
const SATURATION_FPS: f64 = 4000.0;

/// Per-direction capacity of each session's in-memory connection.
const RING_BYTES: usize = 1 << 20;
/// Delivery queue capacity per tenant.
const TENANT_QUEUE: usize = 64;
/// Per-camera channel capacity behind each bridge.
const CAMERA_CHANNEL: usize = 16;
/// How long before a due time the generator stops sleeping and yields.
const SPIN_NS: u64 = 200_000;

/// One camera's recording and the session bytes released per frame.
pub struct Recording {
    /// The `.rpr` container.
    pub container: Vec<u8>,
    /// The container's frame index.
    pub entries: Vec<FrameEntry>,
    /// Per frame, the protocol bytes released when it is due: the
    /// hello with the first frame, the index, trailer and bye with the
    /// last.
    pub segments: Vec<Vec<u8>>,
}

impl Recording {
    /// Splits `container` into per-frame session segments for `tenant`.
    pub fn new(container: Vec<u8>, tenant: &str, camera: u64) -> Result<Self, String> {
        let entries = ContainerReader::open(&container)
            .map_err(|e| e.to_string())?
            .entries()
            .to_vec();
        let ends: Vec<usize> = list_chunks(&container)
            .map_err(|e| e.to_string())?
            .iter()
            .filter(|c| c.kind == CHUNK_FRAME)
            .map(|c| c.payload.end)
            .collect();
        let mut segments = Vec::with_capacity(ends.len());
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            let mut seg = if i == 0 {
                encode_hello(tenant, camera)
            } else {
                Vec::new()
            };
            seg.extend(encode_data(&container[start..end]));
            if i + 1 == ends.len() {
                seg.extend(encode_data(&container[end..]));
                seg.extend(encode_bye());
            }
            start = end;
            segments.push(seg);
        }
        Ok(Recording {
            container,
            entries,
            segments,
        })
    }

    /// Frames in the recording.
    pub fn frames(&self) -> usize {
        self.segments.len()
    }
}

/// Tenant name of camera `cam` (one tenant per camera).
fn tenant(cam: usize) -> String {
    format!("tenant-{cam}")
}

fn build_server(cameras: usize) -> Server {
    let mut server = Server::new(Arc::new(SystemClock::new()));
    for cam in 0..cameras {
        server.add_tenant(
            &tenant(cam),
            TenantConfig::unlimited().with_qos(BackpressureMode::Block, TENANT_QUEUE),
        );
    }
    server
}

/// One session's client side: bytes waiting for room in the ring.
struct Outbox {
    conn: MemConn,
    pending: Vec<u8>,
    sent: usize,
    last_queued: bool,
    closed: bool,
    admit: Option<u8>,
}

impl Outbox {
    /// Pushes what the ring accepts, half-closes after the last byte,
    /// and picks up the admission verdict. True once nothing is left.
    fn flush(&mut self) -> bool {
        if self.sent < self.pending.len() {
            self.sent += self.conn.write_ready(&self.pending[self.sent..]);
        }
        if self.sent == self.pending.len() && self.last_queued && !self.closed {
            self.conn.close();
            self.closed = true;
        }
        if self.admit.is_none() {
            let mut byte = [0u8; 1];
            if let ConnRead::Data(1) = self.conn.read_ready(&mut byte) {
                self.admit = Some(byte[0]);
            }
        }
        self.closed && self.admit.is_some()
    }
}

/// The open-loop generator: camera `c`'s global frame `g` is due at
/// `g · period + c · period / cameras` after the epoch, whatever the
/// server is doing. A recording replays as a fresh session per loop.
pub struct Generator<'r> {
    recordings: &'r [Recording],
    listener: MemListener,
    period_ns: u64,
    per_camera: u64,
    next: Vec<u64>,
    outboxes: Vec<Vec<Outbox>>,
    epoch: Instant,
    /// Per camera, the release time of each global frame (ns since
    /// the epoch).
    sent_ns: Vec<Vec<u64>>,
    /// Sessions the server refused.
    rejected: u64,
}

impl<'r> Generator<'r> {
    /// Releases `per_camera` frames of each recording at
    /// `fps_per_camera`, starting now.
    pub fn new(
        recordings: &'r [Recording],
        listener: MemListener,
        fps_per_camera: f64,
        per_camera: u64,
    ) -> Self {
        let n = recordings.len();
        Generator {
            recordings,
            listener,
            period_ns: (1e9 / fps_per_camera) as u64,
            per_camera,
            next: vec![0; n],
            outboxes: (0..n).map(|_| Vec::new()).collect(),
            epoch: now(),
            sent_ns: (0..n)
                .map(|_| Vec::with_capacity(per_camera as usize))
                .collect(),
            rejected: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Scheduled release time of camera `cam`'s global frame `g`.
    pub fn due_ns(&self, cam: usize, g: u64) -> u64 {
        g * self.period_ns + cam as u64 * self.period_ns / self.recordings.len() as u64
    }

    fn next_due_ns(&self) -> Option<u64> {
        (0..self.recordings.len())
            .filter(|&c| self.next[c] < self.per_camera)
            .map(|c| self.due_ns(c, self.next[c]))
            .min()
    }

    /// Releases every frame now due, then flushes all sessions. A
    /// camera reconnects for its next loop only once `server` has
    /// delivered every frame of the previous one, so loops of one
    /// camera never overtake each other; until then its frames wait
    /// (and their latency still counts from the due time). Returns true
    /// while some camera waits so.
    fn release(&mut self, server: &Server) -> bool {
        let now = self.now_ns();
        let mut delivered: Option<Vec<u64>> = None;
        let mut waiting = false;
        for cam in 0..self.recordings.len() {
            let rec = &self.recordings[cam];
            while self.next[cam] < self.per_camera && self.due_ns(cam, self.next[cam]) <= now {
                let t = (self.next[cam] % rec.frames() as u64) as usize;
                if t == 0 && self.next[cam] > 0 {
                    let counts = delivered.get_or_insert_with(|| {
                        let sections = server.tenant_sections();
                        (0..self.recordings.len())
                            .map(|c| {
                                let name = tenant(c);
                                sections
                                    .iter()
                                    .find(|s| s.tenant == name)
                                    .map_or(0, |s| s.frames_delivered)
                            })
                            .collect()
                    });
                    if counts[cam] < self.next[cam] {
                        waiting = true;
                        break;
                    }
                }
                if t == 0 {
                    self.outboxes[cam].push(Outbox {
                        conn: self.listener.connect(RING_BYTES),
                        pending: Vec::new(),
                        sent: 0,
                        last_queued: false,
                        closed: false,
                        admit: None,
                    });
                }
                let outbox = self.outboxes[cam].last_mut().expect("a session is open");
                outbox.pending.extend_from_slice(&rec.segments[t]);
                outbox.last_queued = t + 1 == rec.frames();
                self.sent_ns[cam].push(now);
                self.next[cam] += 1;
            }
        }
        self.flush();
        waiting
    }

    fn flush(&mut self) {
        for boxes in &mut self.outboxes {
            let mut i = 0;
            while i < boxes.len() {
                if boxes[i].flush() {
                    let done = boxes.remove(i);
                    if done.admit != Some(AdmitCode::Accepted as u8) {
                        self.rejected += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }

    /// True once every frame is released and every session closed.
    fn finished(&self) -> bool {
        self.next.iter().all(|&n| n == self.per_camera) && self.outboxes.iter().all(Vec::is_empty)
    }

    /// Open-loop samples of camera `cam`, given when each frame's
    /// result came out.
    fn samples(&self, cam: usize, done: &[Instant]) -> Vec<OpenLoopSample> {
        done.iter()
            .enumerate()
            .map(|(g, end)| OpenLoopSample {
                due: self.due_ns(cam, g as u64),
                sent: self.sent_ns[cam].get(g).copied().unwrap_or(0),
                done: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            })
            .collect()
    }

    /// Release lateness of every frame, ns, ascending.
    fn lags(&self) -> Vec<u64> {
        let mut lags: Vec<u64> = (0..self.recordings.len())
            .flat_map(|c| {
                self.sent_ns[c]
                    .iter()
                    .enumerate()
                    .map(move |(g, &s)| (c, g, s))
            })
            .map(|(c, g, sent)| OpenLoopSample {
                due: self.due_ns(c, g as u64),
                sent,
                done: sent,
            })
            .map(|s| s.lag())
            .collect();
        lags.sort_unstable();
        lags
    }
}

/// Event-loop counters of one replay.
#[derive(Debug, Default)]
struct LoopStats {
    steps: u64,
    idle_steps: u64,
}

/// Runs the generator and the event loop until every frame is
/// released and the server is idle. With `inline`, the consumer takes
/// what the tenant queues hold after every `Server::step`, and each
/// step is timed and charged to the frames taken after it.
fn drive(
    gen: &mut Generator,
    server: &mut Server,
    mut inline: Option<(&mut Inline<'_>, &mut Ledger)>,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats::default();
    let (mut carry_ns, mut carry_allocs) = (0i64, 0i64);
    loop {
        let waiting = gen.release(server);
        let step = measure(|| server.step());
        stats.steps += 1;
        if !step.value.progressed() {
            stats.idle_steps += 1;
        }
        if let Some((consumer, ledger)) = inline.as_mut() {
            carry_ns += step.ns;
            carry_allocs += step.allocs;
            let taken = consumer.take(ledger)?;
            if taken > 0 {
                for _ in 0..taken {
                    ledger.add(
                        layer::SERVE_STEP,
                        carry_ns / taken as i64,
                        carry_allocs / taken as i64,
                    );
                }
                (carry_ns, carry_allocs) = (0, 0);
            }
        }
        if gen.finished() && server.is_idle() {
            return Ok(stats);
        }
        if !step.value.progressed() {
            // Nothing moved: sleep until just before the next frame is
            // due, then yield until it is, so the release is punctual
            // without a timer wake-up in the way; while a camera waits
            // for its previous loop, or nothing is due, nap briefly.
            match gen.next_due_ns() {
                Some(due) if !waiting => {
                    let wait = due.saturating_sub(gen.now_ns());
                    if wait > SPIN_NS {
                        std::thread::sleep(Duration::from_nanos((wait - SPIN_NS).min(1_000_000)));
                    }
                    while gen.now_ns() < due {
                        std::thread::yield_now();
                    }
                }
                _ => std::thread::sleep(Duration::from_micros(20)),
            }
        }
    }
}

/// The traced inline consumer: pops each tenant queue and replays the
/// wire read on a shadow reader; in full mode it also decodes and runs
/// the pose task, timing each layer.
struct Inline<'a> {
    queues: Vec<Arc<StageQueue<Delivered>>>,
    recordings: &'a [Recording],
    /// Per camera: the frames each delivery must equal.
    expected: Vec<&'a [EncodedFrame]>,
    /// Per camera, in full mode: decoder and task.
    stages: Option<Vec<(DecodeCapture, LoopedPose<'a>)>>,
    delivered: Vec<u64>,
}

impl Inline<'_> {
    /// Takes whatever the tenant queues hold; returns frames taken.
    fn take(&mut self, ledger: &mut Ledger) -> Result<usize, String> {
        let mut taken = 0;
        for cam in 0..self.queues.len() {
            while let Some(d) = self.queues[cam].try_pop() {
                let t = d.frame.frame_idx() as usize;
                let rec = &self.recordings[cam];
                let read = ledger
                    .time(layer::WIRE_READ, || {
                        frame_chunk(&rec.container, &rec.entries[t])?.to_validated_frame()
                    })
                    .map_err(|e| e.to_string())?;
                if read != d.frame || self.expected[cam].get(t) != Some(&d.frame) {
                    return Err(format!(
                        "camera {cam} frame {t}: the delivered frame differs"
                    ));
                }
                if let Some(stages) = self.stages.as_mut() {
                    let (decoder, task) = &mut stages[cam];
                    let g = self.delivered[cam];
                    let fb = Feedback::empty();
                    let frame = ledger.time(layer::DECODE, || decoder.process(d.frame, &fb, false));
                    ledger.time(layer::TASK, || task.consume(g, frame));
                }
                self.delivered[cam] += 1;
                taken += 1;
            }
        }
        Ok(taken)
    }
}

/// The pose task over a recording replayed in loops: each loop is
/// scored on its own, so every loop must reproduce the recording's
/// mAP.
pub struct LoopedPose<'a> {
    ds: &'a PoseDataset,
    frames: u64,
    task: PoseTask<'a>,
    loops: Vec<FramesEval>,
    ends: Vec<Instant>,
}

impl<'a> LoopedPose<'a> {
    /// A task for `total` frames of `ds` replayed in loops.
    pub fn new(ds: &'a PoseDataset, total: u64) -> Self {
        LoopedPose {
            ds,
            frames: ds.len() as u64,
            task: PoseTask::new(ds),
            loops: Vec::new(),
            ends: Vec::with_capacity(total as usize),
        }
    }
}

impl TaskStage for LoopedPose<'_> {
    type Input = GrayFrame;
    type Output = (Vec<FramesEval>, Vec<Instant>);

    fn consume(&mut self, frame_idx: u64, input: GrayFrame) -> Feedback {
        if frame_idx > 0 && frame_idx.is_multiple_of(self.frames) {
            let done = std::mem::replace(&mut self.task, PoseTask::new(self.ds));
            self.loops.push(done.finish());
        }
        let feedback = self.task.consume(frame_idx % self.frames, input);
        self.ends.push(now());
        feedback
    }

    fn finish(mut self) -> Self::Output {
        self.loops.push(self.task.finish());
        (self.loops, self.ends)
    }
}

/// Errors unless every replayed loop scores the recording's mAP.
fn check_loops(cam: usize, loops: &[FramesEval], recorded: &Score) -> Result<(), String> {
    let recorded_map = recorded[0].1;
    for (i, eval) in loops.iter().enumerate() {
        let map = mean_average_precision(eval, 0.5);
        if map.to_bits() != recorded_map.to_bits() {
            return Err(format!(
                "camera {cam} loop {i}: replayed mAP {map} differs from the recording's {recorded_map}"
            ));
        }
    }
    Ok(())
}

/// Release lateness and event-loop idleness of a traced replay.
pub struct IngestStats {
    /// 99th-percentile release lateness, ns.
    pub lag_p99_ns: f64,
    /// Share of `Server::step` calls that made no progress.
    pub idle_step_frac: f64,
    /// Mean due-to-task-output latency of the replayed frames, ns (NaN
    /// when the replay stops at the tenant queues).
    pub mean_latency_ns: f64,
}

/// Streams each container once through a fresh server at the fleet's
/// per-camera rate, single-threaded, timing `Server::step` and the
/// shadow wire read, and checking each delivered frame against
/// `encoded` — the serving tier's cost of shipping a closed-loop
/// workload's cameras.
pub fn ingest_shadow(
    containers: &[&[u8]],
    encoded: &[&[EncodedFrame]],
    ledger: &mut Ledger,
) -> Result<IngestStats, String> {
    let recordings: Vec<Recording> = containers
        .iter()
        .enumerate()
        .map(|(c, bytes)| Recording::new(bytes.to_vec(), &tenant(c), c as u64))
        .collect::<Result<_, _>>()?;
    let per_camera = recordings[0].frames() as u64;
    traced_replay(&recordings, encoded.to_vec(), None, per_camera, ledger)
}

/// Decoder and task per camera, with the recording's accuracy every
/// replayed loop must reproduce.
type InlineStages<'a> = (Vec<(DecodeCapture, LoopedPose<'a>)>, &'a [Score]);

fn traced_replay<'a>(
    recordings: &'a [Recording],
    expected: Vec<&'a [EncodedFrame]>,
    stages: Option<InlineStages<'a>>,
    per_camera: u64,
    ledger: &mut Ledger,
) -> Result<IngestStats, String> {
    let (stages, recorded) = match stages {
        Some((stages, recorded)) => (Some(stages), recorded),
        None => (None, &[][..]),
    };
    let mut server = build_server(recordings.len());
    let queues = (0..recordings.len())
        .map(|c| server.tenant_queue(&tenant(c)).expect("tenant registered"))
        .collect();
    let mut consumer = Inline {
        queues,
        recordings,
        expected,
        stages,
        delivered: vec![0; recordings.len()],
    };
    let fps = OFFERED_FPS / FLEET.cameras as f64;
    let mut gen = Generator::new(recordings, server.listener(), fps, per_camera);
    let stats = drive(&mut gen, &mut server, Some((&mut consumer, ledger)))?;
    if gen.rejected > 0 {
        return Err(format!("{} sessions were refused", gen.rejected));
    }
    if let Some(missing) = consumer.delivered.iter().find(|&&d| d != per_camera) {
        return Err(format!(
            "traced replay delivered {missing} of {per_camera} frames"
        ));
    }
    let mut latencies = Vec::new();
    if let Some(stages) = consumer.stages {
        for (cam, (decoder, task)) in stages.into_iter().enumerate() {
            if decoder.finish().rejected > 0 {
                return Err(format!(
                    "camera {cam}: the decoder rejected replayed frames"
                ));
            }
            let (loops, ends) = task.finish();
            check_loops(cam, &loops, &recorded[cam])?;
            latencies.extend(gen.samples(cam, &ends).iter().map(OpenLoopSample::latency));
        }
    }
    Ok(IngestStats {
        lag_p99_ns: percentile(&gen.lags(), 99.0).unwrap_or(0) as f64,
        idle_step_frac: stats.idle_steps as f64 / stats.steps as f64,
        mean_latency_ns: latencies.iter().sum::<u64>() as f64 / latencies.len() as f64,
    })
}

/// Everything one set-up produces.
struct Setup {
    cams: Vec<PoseDataset>,
    frames: Vec<Vec<GrayFrame>>,
    recordings: Vec<Recording>,
    encoded: Vec<Vec<EncodedFrame>>,
    scores: Vec<Score>,
    dram_bytes: u64,
    regions: u64,
    comparisons_per_pixel: f64,
}

fn set_up(seed: u64, ledger: &mut Ledger) -> Result<Setup, String> {
    let cfg = FLEET.config();
    let cams: Vec<PoseDataset> = (0..FLEET.cameras)
        .map(|c| {
            PoseDataset::new(
                FLEET.width,
                FLEET.height,
                FLEET.frames,
                camera_seed(seed, c),
            )
        })
        .collect();
    let frames: Vec<Vec<GrayFrame>> = cams.iter().map(|ds| render(ds, ledger)).collect();
    let mut recordings = Vec::new();
    let mut encoded = Vec::new();
    let mut scores = Vec::new();
    let mut dram_bytes = 0;
    let mut regions = 0;
    let mut comparisons_per_pixel = 0.0;
    for (c, (ds, f)) in cams.iter().zip(&frames).enumerate() {
        let recorded = traced_camera(ds, f, cfg, ledger)?;
        scores.push(recorded.result.score);
        dram_bytes += recorded.result.dram_bytes;
        regions += recorded.regions;
        comparisons_per_pixel += recorded.comparisons_per_pixel / FLEET.cameras as f64;
        recordings.push(Recording::new(recorded.container, &tenant(c), c as u64)?);
        encoded.push(recorded.encoded);
    }
    Ok(Setup {
        cams,
        frames,
        recordings,
        encoded,
        scores,
        dram_bytes,
        regions,
        comparisons_per_pixel,
    })
}

/// Measurements of one threaded replay.
struct Replayed {
    /// Open-loop samples after the warm-up loop, in due-time order.
    samples: Vec<OpenLoopSample>,
    /// Task-output frames per wall second, from the moment every
    /// camera finished its warm-up loop to the last task output.
    fps: f64,
    allocs: u64,
    /// Frames released, warm-up included; every one reached task
    /// output.
    attempted: u64,
}

/// A threaded replay of `per_camera` frames of each camera, offered at
/// `fps` frames/s in total (infinite: every frame is due at once, so
/// the replay runs as fast as backpressure lets it). Generator and
/// event loop run on this thread, bridges and per-camera pipelines on
/// their own. Each camera's first loop warms up (pipelines start on a
/// camera's first frame) and is left out of latency and throughput.
fn threaded_replay(setup: &Setup, per_camera: u64, fps: f64) -> Result<Replayed, String> {
    let mut server = build_server(FLEET.cameras);
    let queues: Vec<_> = (0..FLEET.cameras)
        .map(|c| server.tenant_queue(&tenant(c)).expect("tenant registered"))
        .collect();
    let cams = &setup.cams;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let bridges: Vec<TenantBridge> = queues
            .into_iter()
            .map(|q| {
                let tx = tx.clone();
                TenantBridge::start(
                    q,
                    CAMERA_CHANNEL,
                    BackpressureMode::Block,
                    move |cam, src| {
                        let _ = tx.send((cam, src));
                    },
                )
            })
            .collect();
        drop(tx);
        let launcher = s.spawn(move || {
            let streams: Vec<_> = rx
                .iter()
                .map(|(cam, src)| {
                    let ds = &cams[cam as usize];
                    let handle = s.spawn(move || {
                        run_stream(
                            cam as usize,
                            src,
                            DecodeCapture::new(FLEET.width, FLEET.height),
                            LoopedPose::new(ds, per_camera),
                            StreamConfig::blocking(),
                        )
                    });
                    (cam as usize, handle)
                })
                .collect();
            streams
                .into_iter()
                .map(|(cam, h)| (cam, h.join().expect("camera pipeline must not panic")))
                .collect::<Vec<_>>()
        });

        let a0 = allocations();
        let mut gen = Generator::new(
            &setup.recordings,
            server.listener(),
            fps / FLEET.cameras as f64,
            per_camera,
        );
        let driven = drive(&mut gen, &mut server, None);
        server.close_tenant_queues();
        for bridge in bridges {
            bridge.join();
        }
        let results = launcher.join().expect("launcher must not panic");
        let allocs = allocations() - a0;
        driven?;
        if gen.rejected > 0 {
            return Err(format!("{} sessions were refused", gen.rejected));
        }

        if results.len() != FLEET.cameras {
            return Err(format!(
                "{} of {} camera pipelines ran",
                results.len(),
                FLEET.cameras
            ));
        }
        let warmup = FLEET.frames;
        let mut samples = Vec::new();
        let mut all_ends = Vec::new();
        let mut warm = gen.epoch;
        for (cam, result) in results {
            if result.capture.rejected > 0 {
                return Err(format!(
                    "camera {cam}: the decoder rejected replayed frames"
                ));
            }
            let (loops, ends) = result.task;
            check_loops(cam, &loops, &setup.scores[cam])?;
            if ends.len() as u64 != per_camera || ends.len() <= warmup {
                return Err(format!(
                    "camera {cam}: {} of {per_camera} frames reached task output",
                    ends.len()
                ));
            }
            warm = warm.max(ends[warmup - 1]);
            samples.extend(gen.samples(cam, &ends).into_iter().skip(warmup));
            all_ends.extend(ends);
        }
        samples.sort_unstable_by_key(|s| s.due);
        let measured = all_ends.iter().filter(|&&end| end > warm).count();
        let last = all_ends.iter().copied().max().unwrap_or(warm);
        Ok(Replayed {
            samples,
            fps: measured as f64 / last.saturating_duration_since(warm).as_secs_f64(),
            allocs,
            attempted: per_camera * FLEET.cameras as u64,
        })
    })
}

/// Frames per camera for `seconds` at `fps` frames/s in total, whole
/// loops.
fn frames_for(seconds: f64, fps: f64) -> u64 {
    let per_camera = seconds * fps / FLEET.cameras as f64;
    let loops = (per_camera / FLEET.frames as f64).ceil().max(1.0) as u64;
    loops * FLEET.frames as u64
}

/// Runs `fleet_replay`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut setup_ledger = Ledger::new();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..crate::SETUP_REPEATS {
        drop(setup.take());
        let t0 = now();
        setup = Some(set_up(seed, &mut setup_ledger)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");

    // An open-loop replay gives latency. The rest of the run is traced
    // (half), or is a saturated replay that gives fps (two thirds, as
    // throughput repeats less well than latency): at the offered rate,
    // frames/s would only restate the schedule.
    let open_s = if trace { seconds / 2.0 } else { seconds / 3.0 };
    let warmup = FLEET.frames as u64;
    let run = threaded_replay(
        &setup,
        frames_for(open_s, OFFERED_FPS) + warmup,
        OFFERED_FPS,
    )?;
    let saturated = if trace {
        None
    } else {
        let per_camera = frames_for(seconds - open_s, SATURATION_FPS) + warmup;
        Some(threaded_replay(&setup, per_camera, f64::INFINITY)?)
    };

    let n_frames = (FLEET.cameras * FLEET.frames) as f64;
    let attempted = run.attempted + saturated.as_ref().map_or(0, |s| s.attempted);
    let fch_scores = setup
        .cams
        .iter()
        .zip(&setup.frames)
        .map(|(ds, f)| full_capture_score(ds, f))
        .collect();
    let latencies: Vec<u64> = run.samples.iter().map(OpenLoopSample::latency).collect();
    let mean_latency_ns = latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64;

    let mut out = Outcome {
        attempted,
        failed: 0,
        setup_s,
        fps: saturated.map_or(0.0, |s| s.fps),
        latencies_ns: latencies,
        dram_bytes_per_frame: setup.dram_bytes as f64 / n_frames,
        wire_bytes_per_frame: setup
            .recordings
            .iter()
            .map(|r| r.container.len())
            .sum::<usize>() as f64
            / n_frames,
        scores: setup.scores.clone(),
        fch_scores,
        higher_accuracy_is_better: true,
        allocs_per_frame: run.allocs as f64 / run.attempted as f64,
        layers: None,
    };

    if trace {
        let mut ledger = Ledger::new();
        ledger.adopt(
            &setup_ledger,
            &[
                layer::RENDER,
                layer::POLICY,
                layer::ENCODE,
                layer::TRAFFIC,
                layer::WIRE_WRITE,
            ],
        );
        let per_camera = frames_for(seconds - open_s, OFFERED_FPS);
        let stages = setup
            .cams
            .iter()
            .map(|ds| {
                (
                    DecodeCapture::new(FLEET.width, FLEET.height),
                    LoopedPose::new(ds, per_camera),
                )
            })
            .collect();
        let expected = setup.encoded.iter().map(Vec::as_slice).collect();
        let ingest = traced_replay(
            &setup.recordings,
            expected,
            Some((stages, &setup.scores)),
            per_camera,
            &mut ledger,
        )?;
        let path = [layer::SERVE_STEP, layer::DECODE, layer::TASK];
        let traced_sum: f64 = path.iter().map(|l| ledger.ns_per_frame(l)).sum();
        let traced_allocs: f64 = path.iter().map(|l| ledger.allocs_per_frame(l)).sum();
        out.layers = Some(LayerReport {
            untraced_ns_per_frame: mean_latency_ns,
            traced_ns_per_frame: traced_sum,
            hop_allocs_per_frame: out.allocs_per_frame - traced_allocs,
            traced_wall_ns_per_frame: ingest.mean_latency_ns,
            regions_per_frame: setup.regions as f64 / n_frames,
            comparisons_per_pixel: setup.comparisons_per_pixel,
            lag_p99_ns: {
                let mut lags: Vec<u64> = run.samples.iter().map(OpenLoopSample::lag).collect();
                lags.sort_unstable();
                percentile(&lags, 99.0).unwrap_or(0) as f64
            },
            idle_step_frac: ingest.idle_step_frac,
            ledger,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cameras_are_staggered_within_one_period() {
        let recording = || Recording {
            container: Vec::new(),
            entries: Vec::new(),
            segments: vec![],
        };
        let two = [recording(), recording()];
        let gen = Generator::new(&two, MemListener::new(), 500.0, 10);
        assert_eq!(gen.due_ns(0, 3), 6_000_000);
        assert_eq!(gen.due_ns(1, 3), 7_000_000);
        assert_eq!(gen.next_due_ns(), Some(0));
    }

    #[test]
    fn a_replayed_loop_with_another_map_fails_the_check() {
        let ds = PoseDataset::new(64, 48, 4, 5);
        let mut task = PoseTask::new(&ds);
        let frames: Vec<GrayFrame> = (0..4).map(|t| ds.frame(t)).collect();
        for (t, f) in frames.into_iter().enumerate() {
            task.consume(t as u64, f);
        }
        let eval = task.finish();
        let map = mean_average_precision(&eval, 0.5);
        let loops = vec![eval.clone(), eval];
        assert!(check_loops(0, &loops, &vec![("map", map)]).is_ok());
        let err = check_loops(0, &loops, &vec![("map", map + 1e-9)]).expect_err("must fail");
        assert!(err.contains("differs from the recording"), "{err}");
    }
}
