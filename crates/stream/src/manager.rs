//! Multiplexing N camera streams over a shared worker pool.
//!
//! The unit of work a pool worker claims is a *whole stream*, not a
//! stage: the worker runs the stream's capture→task loop itself via
//! [`run_stream`], which adds one source thread. Claiming whole streams
//! keeps the pool deadlock-free at any size — per-stage jobs would
//! wedge the moment the pool is smaller than the stage count, with a
//! capture job waiting on frames from a source job that never gets a
//! worker.

use crate::executor::{run_stream, StreamResult};
use crate::stage::{CaptureStage, FrameSource, StreamConfig, TaskStage};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// One camera stream awaiting execution: its stages plus queue/
/// backpressure configuration.
#[derive(Debug)]
pub struct StreamSpec<S, C, T> {
    /// Stage 1: the frame source.
    pub source: S,
    /// Stage 2: the capture path.
    pub capture: C,
    /// Stage 3: the vision task.
    pub task: T,
    /// Raw-queue sizing and backpressure.
    pub config: StreamConfig,
}

impl<S, C, T> StreamSpec<S, C, T> {
    /// Bundles three stages under the default (blocking) configuration.
    pub fn new(source: S, capture: C, task: T) -> Self {
        StreamSpec { source, capture, task, config: StreamConfig::default() }
    }

    /// Replaces the stream configuration.
    pub fn with_config(mut self, config: StreamConfig) -> Self {
        self.config = config;
        self
    }
}

/// Schedules camera streams onto a bounded pool of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct StreamManager {
    workers: usize,
}

impl Default for StreamManager {
    /// One worker per available hardware thread.
    fn default() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        StreamManager::new(n)
    }
}

impl StreamManager {
    /// A manager running at most `workers` streams concurrently
    /// (clamped to at least one).
    pub fn new(workers: usize) -> Self {
        StreamManager { workers: workers.max(1) }
    }

    /// The configured concurrency.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every spec to completion and returns the results in spec
    /// order. At most `workers()` streams run at any moment; each
    /// running stream's capture and task run on its worker, and it
    /// additionally scopes one source thread.
    #[allow(clippy::type_complexity)]
    pub fn run_all<S, C, T>(
        &self,
        specs: Vec<StreamSpec<S, C, T>>,
    ) -> Vec<StreamResult<C::Summary, T::Output>>
    where
        S: FrameSource,
        C: CaptureStage<Frame = S::Frame>,
        T: TaskStage<Input = C::Output>,
    {
        let n = specs.len();
        let jobs: Mutex<VecDeque<(usize, StreamSpec<S, C, T>)>> =
            Mutex::new(specs.into_iter().enumerate().collect());
        let results: Mutex<Vec<Option<StreamResult<C::Summary, T::Output>>>> =
            Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let Some((id, spec)) = jobs.lock().pop_front() else { break };
                    let result = run_stream(id, spec.source, spec.capture, spec.task, spec.config);
                    results.lock()[id] = Some(result);
                });
            }
        });

        results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every stream job ran exactly once"))
            .collect()
    }
}

/// A job the pool runs to completion on one of its worker threads.
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A worker pool accepting stream jobs *dynamically* — the shape an
/// ingestion server needs, where sessions arrive and depart at runtime
/// and [`StreamManager::run_all`]'s all-specs-up-front contract cannot
/// hold. Like the manager, the unit of work is a whole stream (a
/// closure that typically calls [`run_stream`](crate::run_stream)), so
/// the pool stays deadlock-free at any size.
///
/// Submission is bounded: at most `queue_capacity` jobs wait behind
/// the running ones, and [`StreamPool::spawn`] blocks past that — the
/// pool is itself a stage queue and inherits its backpressure story.
#[derive(Debug)]
pub struct StreamPool {
    jobs: std::sync::Arc<crate::queue::StageQueue<PoolJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl StreamPool {
    /// A pool of `workers` threads (clamped to at least one) admitting
    /// up to `queue_capacity` queued jobs before `spawn` blocks.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let jobs = std::sync::Arc::new(crate::queue::StageQueue::<PoolJob>::new(
            "pool-jobs",
            queue_capacity.max(1),
            crate::queue::BackpressureMode::Block,
        ));
        let workers = (0..workers.max(1))
            .map(|i| {
                let jobs = std::sync::Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("rpr-pool-{i}"))
                    .spawn(move || {
                        while let Some(job) = jobs.pop() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        StreamPool { jobs, workers }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs queued but not yet claimed by a worker.
    pub fn pending(&self) -> usize {
        self.jobs.depth()
    }

    /// Submits one stream job. Blocks while the job queue is full;
    /// returns `false` if the pool was already shut down (the job is
    /// dropped unrun).
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        self.jobs.push(Box::new(job))
    }

    /// Stops accepting jobs, runs everything already queued, and joins
    /// the workers. Called implicitly on drop; explicit call lets the
    /// caller sequence shutdown.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.jobs.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for StreamPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Feedback;

    struct Counter {
        next: u32,
        n: u32,
    }

    impl FrameSource for Counter {
        type Frame = u32;

        fn next_frame(&mut self) -> Option<u32> {
            if self.next >= self.n {
                return None;
            }
            let v = self.next;
            self.next += 1;
            Some(v)
        }
    }

    struct AddBias {
        bias: u32,
    }

    impl CaptureStage for AddBias {
        type Frame = u32;
        type Output = u32;
        type Summary = u32;

        fn process(&mut self, frame: u32, _feedback: &Feedback, _degraded: bool) -> u32 {
            frame + self.bias
        }

        fn finish(self) -> u32 {
            self.bias
        }
    }

    struct Summer {
        total: u64,
    }

    impl TaskStage for Summer {
        type Input = u32;
        type Output = u64;

        fn consume(&mut self, _idx: u64, input: u32) -> Feedback {
            self.total += u64::from(input);
            Feedback::empty()
        }

        fn finish(self) -> u64 {
            self.total
        }
    }

    fn spec(n: u32, bias: u32) -> StreamSpec<Counter, AddBias, Summer> {
        StreamSpec::new(Counter { next: 0, n }, AddBias { bias }, Summer { total: 0 })
    }

    fn expected_sum(n: u32, bias: u32) -> u64 {
        (0..n).map(|t| u64::from(t + bias)).sum()
    }

    #[test]
    fn results_come_back_in_spec_order() {
        let specs = vec![spec(10, 100), spec(20, 200), spec(5, 300), spec(15, 400)];
        let results = StreamManager::new(2).run_all(specs);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.stream_id, i);
            assert_eq!(r.telemetry.stream_id, i);
        }
        assert_eq!(results[0].task, expected_sum(10, 100));
        assert_eq!(results[1].task, expected_sum(20, 200));
        assert_eq!(results[2].task, expected_sum(5, 300));
        assert_eq!(results[3].task, expected_sum(15, 400));
        assert_eq!(results[2].capture, 300);
    }

    #[test]
    fn pool_smaller_than_stream_count_still_finishes() {
        let specs: Vec<_> = (0..8).map(|i| spec(30, i * 10)).collect();
        let results = StreamManager::new(1).run_all(specs);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.task, expected_sum(30, i as u32 * 10));
            assert_eq!(r.telemetry.frames_out, 30);
        }
    }

    #[test]
    fn default_manager_uses_at_least_one_worker() {
        assert!(StreamManager::default().workers() >= 1);
        assert_eq!(StreamManager::new(0).workers(), 1);
    }

    #[test]
    fn pool_runs_dynamically_submitted_streams() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let pool = StreamPool::new(3, 16);
        assert_eq!(pool.workers(), 3);
        let total = Arc::new(AtomicU64::new(0));
        for i in 0..20u64 {
            let total = Arc::clone(&total);
            assert!(pool.spawn(move || {
                // A stand-in for run_stream: the pool only promises to
                // run whole jobs, not to know what a stream is.
                total.fetch_add(i, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(total.load(Ordering::Relaxed), (0..20u64).sum());
    }

    #[test]
    fn pool_shutdown_refuses_new_jobs_but_drains_queued_ones() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let pool = StreamPool::new(1, 32);
        let ran = Arc::new(AtomicUsize::new(0));
        let slow = Arc::clone(&ran);
        pool.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            slow.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 6, "queued jobs drained");
    }
}
