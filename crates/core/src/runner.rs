//! The scheduling engine: worker threads pulling jobs from a shared input
//! source into numbered slots.
//!
//! This is the architecture the paper credits for GNU Parallel's low
//! overhead: there is no central scheduler making per-task placement
//! decisions — each of the `-j` slots independently pulls the next input
//! the moment it frees up, so dispatch cost is O(1) per task. The hot
//! path is kept lock-cheap end to end:
//!
//! - **Input side** ([`crate::dispatch`]): finite inputs are partitioned
//!   into chunks claimed by a single atomic `fetch_add`; streaming inputs
//!   flow through a bounded channel fed by a dedicated feeder thread.
//! - **Completion side**: workers append finished jobs to a per-slot
//!   buffer (one uncontended lock) and a dedicated collector thread
//!   drains those buffers into the results vector, the `--keep-order`
//!   reorder buffer, the joblog, and `--results` directories. Workers
//!   never contend on shared output state. The one exception is a DAG's
//!   release hook ([`Engine::run_released`]), which the finishing
//!   worker runs itself so a successor starts without a thread hop.
//! - **Bookkeeping**: launch counts and halt tallies are atomics; the
//!   only remaining global lock is `--delay`'s launch spacer, which by
//!   definition serializes launches.
//!
//! Per-task lifecycle events are still emitted synchronously by the
//! worker that runs the job, so telemetry event order per task is
//! identical to the pre-sharded engine.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use crossbeam_channel::{Receiver, SendTimeoutError, Sender};
use htpar_telemetry::{Event, EventBus, SinkSet};
use parking_lot::{Condvar, Mutex};

use crate::batch::{expand_context_replace, expand_xargs};
use crate::dispatch::{Feed, JobSource, WorkerFeed};
use crate::error::Result;
use crate::executor::{ExecContext, Executor};
use crate::gate::Gate;
use crate::halt::{AtomicTally, HaltDecision};
use crate::job::{CommandLine, JobResult, JobStatus};
use crate::joblog::JobLogWriter;
use crate::options::{BatchMode, Options};
use crate::output::ReorderBuffer;
use crate::stats::RunSummary;
use crate::template::{ExpandContext, Template};

/// One unit of work entering the engine: a sequence number plus the
/// argument tuple (or, in batch modes, the argument batch).
#[derive(Debug, Clone)]
pub struct JobInput {
    pub seq: u64,
    pub args: Vec<String>,
    /// Stdin block for `--pipe` mode jobs.
    pub stdin: Option<String>,
}

impl JobInput {
    /// A job with arguments only (the common case).
    pub fn new(seq: u64, args: Vec<String>) -> JobInput {
        JobInput {
            seq,
            args,
            stdin: None,
        }
    }
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every job the engine saw, in completion order (or input order with
    /// `keep_order`).
    pub results: Vec<JobResult>,
    pub jobs_total: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub skipped: u64,
    pub wall: Duration,
    /// Job launches per second of wall time.
    pub launch_rate: f64,
    /// Whether a halt policy ended the run early, and how.
    pub halted: Option<HaltDecision>,
}

impl RunReport {
    /// True when every non-skipped job succeeded and nothing failed.
    pub fn all_succeeded(&self) -> bool {
        self.failed == 0 && self.succeeded + self.skipped == self.jobs_total
    }

    /// The failing results.
    pub fn failures(&self) -> impl Iterator<Item = &JobResult> {
        self.results.iter().filter(|r| r.status.is_failure())
    }

    /// Aggregate into a [`RunSummary`].
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            launched: self.jobs_total - self.skipped,
            succeeded: self.succeeded,
            failed: self.failed,
            skipped: self.skipped,
            wall: self.wall,
            launch_rate: self.launch_rate,
            busy: self.results.iter().map(|r| r.runtime).sum(),
        }
    }
}

const RUN: u8 = 0;
const STOP_SOON: u8 = 1;
const STOP_NOW: u8 = 2;

/// How long the stream feeder waits on a full channel before re-checking
/// the halt flag (so a halted run cannot strand it on backpressure).
const FEEDER_POLL: Duration = Duration::from_millis(50);

/// Capacity of the per-item streaming feed channel. Sized to absorb a
/// bursty producer without filling: a full channel degenerates into a
/// per-task park/wake ping-pong between the feeder and the workers —
/// each `recv` futex-wakes the parked feeder, which sends one item and
/// parks again. With headroom above typical burst sizes the feeder
/// parks only on *empty* input and whole bursts move through per wake.
/// (Producers that already batch should use [`Engine::run_batched`],
/// which skips this channel entirely.) Memory cost is bounded: a
/// `JobInput` is ~100 bytes plus its argument strings.
const FEED_CAPACITY: usize = 4096;

/// Completions a worker buffers locally before handing the batch to the
/// collector; amortizes the per-slot buffer lock across fast tasks. The
/// DAG joblog flushes at the same interval.
pub(crate) const DELIVER_BATCH: usize = 64;

/// Jobs slower than this are handed over immediately rather than
/// batched, so progress consumers and the joblog stay current for
/// human-scale workloads.
pub(crate) const PROMPT_DELIVERY: Duration = Duration::from_micros(500);

/// Collector backpressure threshold for `jobs` slots: when this many
/// completions are buffered awaiting the collector, workers park until
/// it catches up. Without the bound, `jobs` producers starve the single
/// collector on a saturated machine and the buffered results grow
/// without limit — unbounded memory and a working set that falls out of
/// cache.
fn backlog_limit(jobs: usize) -> usize {
    (jobs * DELIVER_BATCH * 2).max(1024)
}

/// Callback invoked per finished job.
pub type ResultCallback = Arc<dyn Fn(&JobResult) + Send + Sync>;

/// Worker-side completion hook for [`Engine::run_released`]: the DAG
/// layer's ready-set release, run by the worker that finished the task
/// instead of a collector round trip later.
pub(crate) trait Release: Send + Sync {
    /// Account for `result` (every result a worker produces, dry-run
    /// included) and release whatever it unblocked. The returned job is
    /// the calling worker's own next one.
    fn done(&self, result: &JobResult) -> Option<JobInput>;
    /// The calling worker found the input empty and is about to park.
    fn park(&self);
    /// A `--halt` policy stopped the run: release nothing more, so that
    /// workers parked on the input see its end.
    fn halt(&self);
}

/// The engine's input stream.
pub type JobStream = Box<dyn Iterator<Item = JobInput> + Send>;

/// Retry backoff schedule: `base` doubled per attempt (attempt 0 waits
/// `base`, attempt 1 waits `2*base`, ...), with the factor capped at
/// 2^10 so long retry chains cannot overflow the duration.
pub fn retry_backoff(base: Duration, attempt: u32) -> Duration {
    base * (1u32 << attempt.min(10))
}

/// One finished (or skipped) job on its way to the collector. `log`
/// distinguishes executed jobs (joblog + `--results` rows) from
/// skipped/dry-run records, which are reported but never logged.
struct CompletionMsg {
    result: JobResult,
    log: bool,
}

/// Everything shared between worker threads for one run.
struct Shared<'r> {
    options: Options,
    template: Template,
    executor: Arc<dyn Executor>,
    source: JobSource,
    on_result: Option<ResultCallback>,
    release: Option<&'r dyn Release>,
    skip: HashSet<u64>,
    gate: Option<Arc<dyn Gate>>,
    tally: AtomicTally,
    /// Exact job count for preloaded inputs (`None` while streaming);
    /// lets `--halt` percent policies use the real denominator.
    total_jobs: Option<u64>,
    halt_state: AtomicU8,
    last_launch: Mutex<Option<Instant>>,
    launches: AtomicU64,
    /// Snapshot of the telemetry bus's sinks, taken once at run start so
    /// per-event fan-out is lock-free. `None` when the run is unobserved.
    sinks: Option<SinkSet>,
    /// Slots currently executing a job (for occupancy telemetry).
    busy: AtomicUsize,
    /// Per-slot completion buffers, drained by the collector thread.
    /// Each is written by exactly one worker, so the lock is uncontended
    /// except against the collector's drain.
    slot_buffers: Vec<Mutex<Vec<CompletionMsg>>>,
    /// Completion records buffered but not yet drained.
    backlog: AtomicUsize,
    /// Backpressure: workers park here when `backlog` exceeds
    /// `backlog_limit`; the collector notifies after each drain.
    backlog_limit: usize,
    drain_mutex: Mutex<()>,
    drain_cv: Condvar,
    /// Wall-clock/monotonic anchor pair: per-job `started_at` stamps are
    /// derived as `run_sys + (now - run_inst)`, saving a `SystemTime`
    /// syscall per task.
    run_sys: SystemTime,
    run_inst: Instant,
}

impl Shared<'_> {
    fn emit(&self, event: Event) {
        if let Some(sinks) = &self.sinks {
            sinks.emit(event);
        }
    }

    /// Emit with a stamp the caller already computed (see [`Shared::at`]),
    /// so a task's lifecycle events share one clock read.
    fn emit_at(&self, at: Duration, event: Event) {
        if let Some(sinks) = &self.sinks {
            sinks.emit_at(at, event);
        }
    }

    /// Bus-relative stamp for a clock read the worker already holds;
    /// zero (never read by anyone) when the run is unobserved.
    fn at(&self, clock: Instant) -> Duration {
        self.sinks
            .as_ref()
            .map_or(Duration::ZERO, |sinks| sinks.stamp(clock))
    }

    fn emit_occupancy_at(&self, at: Duration, delta: isize) {
        let Some(sinks) = &self.sinks else { return };
        let busy = if delta >= 0 {
            self.busy.fetch_add(delta as usize, Ordering::SeqCst) + delta as usize
        } else {
            self.busy
                .fetch_sub((-delta) as usize, Ordering::SeqCst)
                .saturating_sub((-delta) as usize)
        };
        sinks.emit_at(
            at,
            Event::SlotOccupancy {
                busy,
                total: self.options.jobs,
            },
        );
    }

    fn emit_occupancy(&self, delta: isize) {
        let Some(sinks) = &self.sinks else { return };
        self.emit_occupancy_at(sinks.now(), delta);
    }

    /// Wall-clock stamp for a monotonic instant within this run.
    fn stamp(&self, at: Instant) -> SystemTime {
        self.run_sys + at.saturating_duration_since(self.run_inst)
    }
}

/// The engine. Construct via [`crate::parallel::Parallel`] in normal use;
/// this lower-level API exists for executors that feed pre-sequenced
/// [`JobInput`]s (the cluster simulator does).
pub struct Engine {
    pub options: Options,
    pub template: Template,
    pub executor: Arc<dyn Executor>,
    pub on_result: Option<ResultCallback>,
    /// Sequence numbers to skip (from `--resume`/`--resume-failed`).
    pub skip: HashSet<u64>,
    /// Launch-admission gate (`--memfree`-style), consulted per launch.
    pub gate: Option<Arc<dyn Gate>>,
    /// Telemetry bus; when set, the engine emits task-lifecycle and
    /// scheduler-state [`Event`]s for every job.
    pub bus: Option<Arc<EventBus>>,
}

/// How an [`Engine`] run is fed: a per-item iterator (finite or
/// streaming) or a batch-granular channel from a producer that already
/// groups its items.
enum EngineInput {
    Stream(JobStream),
    Batches(Receiver<Vec<JobInput>>),
}

impl Engine {
    /// Run a finite or streaming sequence of job inputs to completion.
    pub fn run(self, input: JobStream) -> Result<RunReport> {
        self.run_with(EngineInput::Stream(input), None)
    }

    /// Run a batch-granular streaming input to completion: the producer
    /// sends whole `Vec<JobInput>` batches and closes the channel to end
    /// the stream. Workers pull batches straight off the channel — no
    /// feeder thread, no per-item channel hops — so a producer that
    /// already receives work in bulk (the network agent's shard frames)
    /// pays dispatch overhead per batch, not per task.
    pub fn run_batched(self, input: Receiver<Vec<JobInput>>) -> Result<RunReport> {
        self.run_with(EngineInput::Batches(input), None)
    }

    /// [`Engine::run_batched`] with `release` called by each worker on
    /// every result it produces. A job the hook hands back becomes that
    /// worker's next job, so a chain of released tasks stays on one slot
    /// with no channel or thread hop per link.
    pub(crate) fn run_released(
        self,
        input: Receiver<Vec<JobInput>>,
        release: &dyn Release,
    ) -> Result<RunReport> {
        self.run_with(EngineInput::Batches(input), Some(release))
    }

    fn run_with(self, input: EngineInput, release: Option<&dyn Release>) -> Result<RunReport> {
        self.options.validate()?;
        let started = Instant::now();
        let jobs = self.options.jobs;

        let joblog = match &self.options.joblog {
            Some(path) => Some(JobLogWriter::open(path)?),
            None => None,
        };

        // Exact-size inputs (argument lists, --pipe blocks) are
        // partitioned up front for chunked hand-out; unsized iterators
        // (follow queues, unbounded generators) stream through a bounded
        // channel pumped by a feeder thread; batch channels go straight
        // to the workers.
        let (source, stream, total_jobs) = match input {
            EngineInput::Stream(input) => {
                let (lo, hi) = input.size_hint();
                if hi == Some(lo) {
                    let queue = crate::dispatch::ChunkQueue::from_iter(input, lo, jobs);
                    (JobSource::Preloaded(queue), None, Some(lo as u64))
                } else {
                    let (feed_tx, feed_rx) =
                        crossbeam_channel::bounded((2 * jobs).max(FEED_CAPACITY));
                    (JobSource::streaming(feed_rx), Some((feed_tx, input)), None)
                }
            }
            EngineInput::Batches(rx) => (JobSource::batched(rx), None, None),
        };

        let shared = Arc::new(Shared {
            options: self.options,
            template: self.template,
            executor: self.executor,
            source,
            on_result: self.on_result,
            release,
            skip: self.skip,
            gate: self.gate,
            tally: AtomicTally::default(),
            total_jobs,
            halt_state: AtomicU8::new(RUN),
            last_launch: Mutex::new(None),
            launches: AtomicU64::new(0),
            sinks: self
                .bus
                .as_ref()
                .map(|bus| bus.sink_set())
                .filter(|sinks| !sinks.is_empty()),
            busy: AtomicUsize::new(0),
            slot_buffers: (0..jobs).map(|_| Mutex::new(Vec::new())).collect(),
            backlog: AtomicUsize::new(0),
            backlog_limit: backlog_limit(jobs),
            drain_mutex: Mutex::new(()),
            drain_cv: Condvar::new(),
            run_sys: SystemTime::now(),
            run_inst: Instant::now(),
        });

        let (wake_tx, wake_rx) = crossbeam_channel::unbounded::<usize>();
        // With no completion-side observers (result callback, joblog,
        // `--results` directories, telemetry bus), nothing consumes
        // completions mid-run: workers accumulate results locally and the
        // collector thread is not spawned at all, so the hot path has
        // zero cross-thread completion traffic. A release hook runs on
        // the workers themselves and needs no collector.
        let direct = shared.on_result.is_none()
            && shared.sinks.is_none()
            && joblog.is_none()
            && shared.options.results_dir.is_none();
        let mut results = Vec::new();
        std::thread::scope(|scope| {
            let collector = (!direct).then(|| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || collect(&shared, wake_rx, joblog))
            });
            if let Some((feed_tx, input)) = stream {
                let shared = Arc::clone(&shared);
                scope.spawn(move || feed_stream(input, feed_tx, &shared));
            }
            let workers: Vec<_> = (1..=jobs)
                .map(|slot| {
                    let shared = Arc::clone(&shared);
                    let wake = wake_tx.clone();
                    scope.spawn(move || worker(slot, &shared, &wake, direct))
                })
                .collect();
            // Workers hold the remaining wake senders; when the last one
            // exits, the collector sees the disconnect and finishes.
            drop(wake_tx);
            for handle in workers {
                results.extend(handle.join().expect("worker thread panicked"));
            }
            if let Some(collector) = collector {
                results = collector.join().expect("collector thread panicked");
            }
        });
        // Two workers finishing together can emit their occupancy
        // samples out of order; one sample after all have joined makes
        // the run's last reading the drained counter.
        shared.emit_occupancy(0);

        let wall = started.elapsed();
        let shared =
            Arc::try_unwrap(shared).unwrap_or_else(|_| unreachable!("all workers joined by scope"));
        if shared.options.keep_order {
            results.sort_by_key(|r| r.seq);
        }
        let mut succeeded = 0;
        let mut failed = 0;
        let mut skipped = 0;
        for r in &results {
            match () {
                _ if r.status.is_success() => succeeded += 1,
                _ if r.status.is_failure() => failed += 1,
                _ => skipped += 1,
            }
        }
        let launches = shared.launches.into_inner();
        let halted = match shared.halt_state.load(Ordering::SeqCst) {
            STOP_SOON => Some(HaltDecision::StopSoon),
            STOP_NOW => Some(HaltDecision::StopNow),
            _ => None,
        };
        Ok(RunReport {
            jobs_total: results.len() as u64,
            succeeded,
            failed,
            skipped,
            launch_rate: if wall.as_secs_f64() > 0.0 {
                launches as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            wall,
            results,
            halted,
        })
    }
}

/// Pump a streaming input into the bounded feed channel, re-checking the
/// halt flag whenever the channel stays full so a halted run never
/// strands this thread on backpressure.
fn feed_stream(input: JobStream, tx: Sender<JobInput>, shared: &Shared) {
    for job in input {
        let mut item = job;
        loop {
            if shared.halt_state.load(Ordering::SeqCst) != RUN {
                return;
            }
            match tx.send_timeout(item, FEEDER_POLL) {
                Ok(()) => break,
                Err(SendTimeoutError::Timeout(back)) => item = back,
                Err(SendTimeoutError::Disconnected(_)) => return,
            }
        }
    }
}

/// One slot's dispatch loop. Returns the results accumulated locally in
/// direct mode (see [`Engine::run`]); with a collector the return is
/// empty and completions flow through [`Worker::flush`] instead.
fn worker(slot: usize, shared: &Shared, wake: &Sender<usize>, direct: bool) -> Vec<JobResult> {
    let halt_never = shared.options.halt.is_never();
    let check_skip = !shared.skip.is_empty();
    let needs_argv = shared.executor.needs_argv();
    let slow_path = shared.gate.is_some() || shared.options.delay.is_some();
    let local = if direct {
        let per_slot = shared.source.len_hint().unwrap_or(0) / shared.options.jobs.max(1);
        Vec::with_capacity(per_slot + 16)
    } else {
        Vec::new()
    };
    let mut w = Worker {
        slot,
        shared,
        wake,
        direct,
        feed: WorkerFeed::new(&shared.source),
        pending: Vec::new(),
        local,
    };
    loop {
        if shared.halt_state.load(Ordering::SeqCst) != RUN {
            break;
        }
        // Non-blocking pull first: if the source has nothing ready yet
        // (streaming feeder lagging), hand off buffered completions
        // before parking on the channel.
        let job = match w.feed.try_next() {
            Feed::Job(job) => job,
            Feed::Done => break,
            Feed::Pending => {
                w.flush();
                if let Some(release) = shared.release {
                    release.park();
                }
                match w.feed.next() {
                    Some(job) => job,
                    None => break,
                }
            }
        };
        let JobInput { seq, args, stdin } = job;
        // One clock read covers the queued/slot-acquired/spawned stamps,
        // `started_at`, and the runtime base; the completion stamp is
        // derived from it plus the measured runtime. With a gate or
        // launch spacer configured it is re-read after the blocking
        // section so spawn stamps exclude the wait.
        let mut task_clock = Instant::now();
        let mut at = shared.at(task_clock);
        shared.emit_at(at, Event::Queued { seq });

        if check_skip && shared.skip.contains(&seq) {
            let rendered = render(shared, seq, &args, slot, false).0;
            let result = JobResult::skipped(seq, args, rendered);
            w.deliver(result, false, false);
            continue;
        }

        shared.emit_at(at, Event::SlotAcquired { seq, slot });
        shared.emit_occupancy_at(at, 1);

        if slow_path {
            // About to potentially block in the gate or the launch
            // spacer: completions must not sit in the local batch.
            w.flush();
        }
        if let Some(gate) = &shared.gate {
            // Hold the launch until the gate permits, still honoring a
            // concurrent halt.
            let mut halted = false;
            while !gate.permit() {
                if shared.halt_state.load(Ordering::SeqCst) != RUN {
                    halted = true;
                    break;
                }
                std::thread::sleep(gate.backoff());
            }
            if halted {
                shared.emit_occupancy(-1);
                let result = JobResult::skipped(seq, args, String::new());
                w.deliver(result, false, false);
                break;
            }
        }
        apply_delay(shared);
        if slow_path {
            task_clock = Instant::now();
            at = shared.at(task_clock);
        }
        shared.launches.fetch_add(1, Ordering::Relaxed);
        shared.emit_at(at, Event::Spawned { seq, slot });

        let (rendered, argv) = render(shared, seq, &args, slot, needs_argv);
        let mut cmd = CommandLine::new(seq, slot, args, rendered, argv, Vec::new());
        if let Some(block) = stdin {
            cmd = cmd.with_stdin(block);
        }

        if shared.options.dry_run {
            let stdout = format!("{}\n", cmd.rendered());
            let (args, command) = cmd.into_result_parts();
            let result = JobResult {
                seq,
                slot,
                args,
                command,
                status: JobStatus::Success,
                stdout,
                stderr: String::new(),
                started_at: shared.stamp(task_clock),
                runtime: Duration::ZERO,
                tries: 0,
            };
            shared.emit_at(
                at,
                Event::Completed {
                    seq,
                    exit: 0,
                    runtime: Duration::ZERO,
                },
            );
            shared.emit_occupancy_at(at, -1);
            w.deliver(result, false, false);
            continue;
        }

        let ctx = ExecContext {
            timeout: shared.options.timeout,
        };
        let started_at = shared.stamp(task_clock);
        let mut tries = 0u32;
        let mut out = shared.executor.execute(&cmd, &ctx);
        while out.status.is_failure() && tries < shared.options.retries {
            if let Some(base) = shared.options.retry_delay {
                std::thread::sleep(retry_backoff(base, tries));
            }
            tries += 1;
            shared.emit(Event::Retried {
                seq,
                attempt: tries,
            });
            out = shared.executor.execute(&cmd, &ctx);
        }
        let runtime = task_clock.elapsed();

        let (args, command) = cmd.into_result_parts();
        let result = JobResult {
            seq,
            slot,
            args,
            command,
            status: out.status,
            stdout: out.stdout,
            stderr: out.stderr,
            started_at,
            runtime,
            tries,
        };

        // Halt bookkeeping stays on the worker (not the collector) so a
        // `--halt` threshold stops dispatch before the *next* pull, but
        // the tally is skipped entirely for the default never-halt
        // policy.
        if !halt_never {
            let tally = shared.tally.record(&result.status);
            let decision = shared
                .options
                .halt
                .decide_with_total(&tally, shared.total_jobs);
            match decision {
                HaltDecision::Continue => {}
                HaltDecision::StopSoon => {
                    let _ = shared.halt_state.compare_exchange(
                        RUN,
                        STOP_SOON,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                HaltDecision::StopNow => {
                    shared.halt_state.store(STOP_NOW, Ordering::SeqCst);
                }
            }
            if decision != HaltDecision::Continue {
                if let Some(release) = shared.release {
                    release.halt();
                }
            }
        }

        let done_at = at + runtime;
        if result.status.is_failure() {
            shared.emit_at(
                done_at,
                Event::Failed {
                    seq: result.seq,
                    exit: result.status.exitval(),
                },
            );
        } else {
            shared.emit_at(
                done_at,
                Event::Completed {
                    seq: result.seq,
                    exit: result.status.exitval(),
                    runtime: result.runtime,
                },
            );
        }
        shared.emit_occupancy_at(done_at, -1);

        let prompt = runtime >= PROMPT_DELIVERY;
        w.deliver(result, true, prompt);
    }
    w.flush();
    w.local
}

/// One slot's dispatch state: its view of the input and where its
/// finished jobs go.
struct Worker<'a> {
    slot: usize,
    shared: &'a Shared<'a>,
    wake: &'a Sender<usize>,
    /// No collector: results accumulate in `local` (see [`Engine::run`]).
    direct: bool,
    feed: WorkerFeed<'a>,
    pending: Vec<CompletionMsg>,
    local: Vec<JobResult>,
}

impl Worker<'_> {
    /// Route one finished job: first through the release hook, whose
    /// continuation becomes this slot's next job, then to the
    /// worker-local results vector in direct mode, or the batched
    /// collector hand-off otherwise (flushed when the batch fills or the
    /// job ran long enough that humans are watching the joblog).
    #[inline]
    fn deliver(&mut self, result: JobResult, log: bool, prompt: bool) {
        if let Some(release) = self.shared.release {
            if let Some(next) = release.done(&result) {
                self.feed.continue_with(next);
            }
        }
        if self.direct {
            self.local.push(result);
            return;
        }
        self.pending.push(CompletionMsg { result, log });
        if prompt || self.pending.len() >= DELIVER_BATCH {
            self.flush();
        }
    }

    /// Hand this worker's batch of finished jobs to the collector: append
    /// onto this slot's buffer (single-producer, so the lock is
    /// uncontended except against a drain) and wake the collector only on
    /// the empty→nonempty transition.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let shared = self.shared;
        let idx = self.slot - 1;
        let n = self.pending.len();
        // Count the batch before it becomes takeable. `drain_slot`
        // subtracts exactly what it takes from the buffer, so if this slot
        // has a wake in flight a drain can interleave between the append
        // and a late `fetch_add`, subtract items that were never counted,
        // and wrap the counter to ~2^64. Workers sampling the backlog in
        // that window park on `drain_cv`; once the counter self-corrects
        // every later drain sees `before < limit`, never notifies, and the
        // parked workers are stranded for good. Adding first keeps
        // `backlog >= buffered items` at all times (the buffer mutex
        // orders the add before any take).
        shared.backlog.fetch_add(n, Ordering::Relaxed);
        let was_empty = {
            let mut buf = shared.slot_buffers[idx].lock();
            let was_empty = buf.is_empty();
            buf.append(&mut self.pending);
            was_empty
        };
        if was_empty {
            // A send can only fail after the collector exited, which only
            // happens after every worker (and thus this sender) is gone.
            let _ = self.wake.send(idx);
        }
        // Backpressure: park until the collector works the backlog down.
        // Every buffered record is reachable by the collector (each
        // nonempty buffer has a wake in flight), so this always
        // terminates.
        if shared.backlog.load(Ordering::Relaxed) >= shared.backlog_limit {
            let mut guard = shared.drain_mutex.lock();
            while shared.backlog.load(Ordering::Relaxed) >= shared.backlog_limit {
                shared.drain_cv.wait(&mut guard);
            }
        }
    }
}

/// The collector thread: drains per-slot completion buffers into the
/// results vector, `--keep-order` reorder buffer, joblog, and `--results`
/// directories. Owning all of that state on one thread removes every
/// completion-side lock from the workers' hot path.
fn collect(shared: &Shared, wake: Receiver<usize>, joblog: Option<JobLogWriter>) -> Vec<JobResult> {
    let mut st = CollectorState {
        // Pre-size for preloaded inputs: the results vector holds one
        // entry per job, and growth reallocations of a 100k-element
        // vector are measurable on the collector's critical path.
        results: Vec::with_capacity(shared.source.len_hint().unwrap_or(0)),
        reorder: ReorderBuffer::new(),
        joblog,
        last_backlog: 0,
    };
    while let Ok(idx) = wake.recv() {
        drain_slot(shared, idx, &mut st);
    }
    // All workers are gone; sweep any buffers whose wake raced the
    // disconnect.
    for idx in 0..shared.slot_buffers.len() {
        drain_slot(shared, idx, &mut st);
    }
    st.results
}

struct CollectorState {
    results: Vec<JobResult>,
    reorder: ReorderBuffer,
    joblog: Option<JobLogWriter>,
    last_backlog: usize,
}

fn drain_slot(shared: &Shared, idx: usize, st: &mut CollectorState) {
    let msgs = std::mem::take(&mut *shared.slot_buffers[idx].lock());
    if msgs.is_empty() {
        return;
    }
    let before = shared.backlog.fetch_sub(msgs.len(), Ordering::Relaxed);
    if before >= shared.backlog_limit {
        // Workers may be parked on the backpressure condvar; taking the
        // mutex before notifying closes the check-then-wait race.
        let _guard = shared.drain_mutex.lock();
        shared.drain_cv.notify_all();
    }
    let mut logged = false;
    for msg in msgs {
        let result = msg.result;
        if msg.log {
            if let Some(log) = &mut st.joblog {
                // Joblog write failures must not take down the run; the
                // log is advisory. GNU Parallel behaves the same way.
                let _ = log.record(&result);
                logged = true;
            }
            if let Some(dir) = &shared.options.results_dir {
                // --results: one directory per sequence number with the
                // job's streams and exit status; write failures are
                // advisory.
                let job_dir = dir.join(result.seq.to_string());
                let _ = std::fs::create_dir_all(&job_dir)
                    .and_then(|_| std::fs::write(job_dir.join("stdout"), &result.stdout))
                    .and_then(|_| std::fs::write(job_dir.join("stderr"), &result.stderr))
                    .and_then(|_| {
                        std::fs::write(
                            job_dir.join("exitval"),
                            format!("{}\n", result.status.exitval()),
                        )
                    });
            }
        }
        if let Some(cb) = &shared.on_result {
            if shared.options.keep_order {
                let ready = st.reorder.push(result.clone());
                for r in &ready {
                    cb(r);
                }
            } else {
                cb(&result);
            }
        }
        st.results.push(result);
    }
    if logged {
        // Flush per drained batch, not per row: a concurrent resume
        // reader (kill -9 mid-run) sees every completed job without a
        // write syscall per task.
        if let Some(log) = &mut st.joblog {
            let _ = log.flush();
        }
    }
    if shared.sinks.is_some() {
        let pending = shared.backlog.load(Ordering::Relaxed);
        if pending != st.last_backlog {
            st.last_backlog = pending;
            shared.emit(Event::CollectorBacklog { pending });
        }
    }
}

/// Render the shell form of a job, plus the argv form when the executor
/// will read it (`needs_argv` — skipping it saves a per-task allocation).
fn render(
    shared: &Shared,
    seq: u64,
    args: &[String],
    slot: usize,
    needs_argv: bool,
) -> (String, Vec<String>) {
    let split = |rendered: &str| -> Vec<String> {
        if needs_argv {
            rendered.split_whitespace().map(String::from).collect()
        } else {
            Vec::new()
        }
    };
    match shared.options.batch {
        BatchMode::Single => {
            let ctx = ExpandContext { args, seq, slot };
            let argv = if needs_argv {
                shared.template.expand_argv(&ctx)
            } else {
                Vec::new()
            };
            (shared.template.expand(&ctx), argv)
        }
        BatchMode::Xargs => {
            let rendered = expand_xargs(&shared.template, args, seq, slot);
            let argv = split(&rendered);
            (rendered, argv)
        }
        BatchMode::ContextReplace => {
            let rendered = expand_context_replace(&shared.template, args, seq, slot);
            let argv = split(&rendered);
            (rendered, argv)
        }
    }
}

fn apply_delay(shared: &Shared) {
    let Some(delay) = shared.options.delay else {
        return;
    };
    // Serialize launches: hold the lock while waiting out the gap so
    // launches are spaced at least `delay` apart globally.
    let mut last = shared.last_launch.lock();
    if let Some(prev) = *last {
        let since = prev.elapsed();
        if since < delay {
            std::thread::sleep(delay - since);
        }
    }
    *last = Some(Instant::now());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{FnExecutor, TaskOutput};
    use crate::halt::{HaltPolicy, HaltWhen};
    use std::sync::atomic::AtomicUsize;

    fn inputs(n: u64) -> Box<dyn Iterator<Item = JobInput> + Send> {
        Box::new((1..=n).map(|seq| JobInput::new(seq, vec![format!("a{seq}")])))
    }

    fn engine(options: Options, exec: FnExecutor) -> Engine {
        Engine {
            options,
            template: Template::parse("cmd {}").unwrap(),
            executor: Arc::new(exec),
            on_result: None,
            skip: HashSet::new(),
            gate: None,
            bus: None,
        }
    }

    #[test]
    fn runs_everything_once() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let exec = FnExecutor::new(move |cmd| {
            seen2.lock().push(cmd.rendered().to_string());
            Ok(TaskOutput::success())
        });
        let report = engine(
            Options {
                jobs: 4,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(20))
        .unwrap();
        assert_eq!(report.jobs_total, 20);
        assert_eq!(report.succeeded, 20);
        assert!(report.all_succeeded());
        let mut cmds = seen.lock().clone();
        cmds.sort();
        assert_eq!(cmds.len(), 20);
        cmds.dedup();
        assert_eq!(cmds.len(), 20, "no duplicates");
    }

    #[test]
    fn run_batched_runs_everything_once() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let exec = FnExecutor::new(move |cmd| {
            seen2.lock().push(cmd.seq);
            Ok(TaskOutput::success())
        });
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let producer = std::thread::spawn(move || {
            let all: Vec<JobInput> = inputs(1000).collect();
            // Ragged batches, including empties mid-stream.
            for (i, chunk) in all.chunks(13).enumerate() {
                if i % 5 == 0 {
                    tx.send(Vec::new()).unwrap();
                }
                tx.send(chunk.to_vec()).unwrap();
            }
        });
        let report = engine(
            Options {
                jobs: 4,
                ..Options::default()
            },
            exec,
        )
        .run_batched(rx)
        .unwrap();
        producer.join().unwrap();
        assert_eq!(report.jobs_total, 1000);
        assert_eq!(report.succeeded, 1000);
        let mut seqs = seen.lock().clone();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=1000).collect::<Vec<_>>(), "exactly once each");
    }

    #[test]
    fn run_batched_with_collector_delivers_every_result() {
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let exec = FnExecutor::new(|_| Ok(TaskOutput::success()));
        let (tx, rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
        let producer = std::thread::spawn(move || {
            let all: Vec<JobInput> = inputs(500).collect();
            for chunk in all.chunks(64) {
                tx.send(chunk.to_vec()).unwrap();
            }
        });
        let mut eng = engine(
            Options {
                jobs: 4,
                ..Options::default()
            },
            exec,
        );
        eng.on_result = Some(Arc::new(move |_: &JobResult| {
            d2.fetch_add(1, Ordering::Relaxed);
        }));
        let report = eng.run_batched(rx).unwrap();
        producer.join().unwrap();
        assert_eq!(report.succeeded, 500);
        assert_eq!(delivered.load(Ordering::Relaxed), 500);
    }

    /// Regression: `Worker::flush` must account a batch in `backlog`
    /// *before* appending it to the slot buffer. When a wake was already
    /// in flight for the slot, the collector could take the appended
    /// items ahead of the late `fetch_add`, wrap the counter to ~2^64,
    /// and strand every worker that sampled the backlog in that window
    /// on `drain_cv` — a whole-run deadlock. Repeated collector-observed
    /// runs at high slot counts keep drains and flushes interleaving;
    /// the watchdog turns a recurrence into a failure, not a hang.
    #[test]
    fn collector_backpressure_accounting_never_deadlocks() {
        for _ in 0..3 {
            let (done_tx, done_rx) = crossbeam_channel::bounded::<RunReport>(1);
            std::thread::spawn(move || {
                let exec = FnExecutor::new(|_| Ok(TaskOutput::success()));
                let mut eng = engine(
                    Options {
                        jobs: 32,
                        ..Options::default()
                    },
                    exec,
                );
                // A result callback forces the collector path (non-direct).
                eng.on_result = Some(Arc::new(|_: &JobResult| {}));
                let report = eng.run(inputs(40_000)).unwrap();
                let _ = done_tx.send(report);
            });
            let report = done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("collector-observed run deadlocked on backpressure");
            assert_eq!(report.succeeded, 40_000);
        }
    }

    #[test]
    fn keep_order_sorts_results() {
        let exec = FnExecutor::new(|cmd| {
            // Later jobs finish faster.
            let d = 30u64.saturating_sub(cmd.seq * 3);
            std::thread::sleep(Duration::from_millis(d));
            Ok(TaskOutput::success())
        });
        let report = engine(
            Options {
                jobs: 8,
                keep_order: true,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(8))
        .unwrap();
        let seqs: Vec<u64> = report.results.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn concurrency_capped_by_jobs() {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&running);
        let p2 = Arc::clone(&peak);
        let exec = FnExecutor::new(move |_| {
            let now = r2.fetch_add(1, Ordering::SeqCst) + 1;
            p2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            r2.fetch_sub(1, Ordering::SeqCst);
            Ok(TaskOutput::success())
        });
        let report = engine(
            Options {
                jobs: 3,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(12))
        .unwrap();
        assert_eq!(report.succeeded, 12);
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn slots_stay_in_range_and_unique_concurrently() {
        let exec = FnExecutor::new(|_| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(TaskOutput::success())
        });
        let report = engine(
            Options {
                jobs: 4,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(40))
        .unwrap();
        for r in &report.results {
            assert!(r.slot >= 1 && r.slot <= 4, "slot {} out of range", r.slot);
        }
        // All four slots got used with 40 jobs.
        let used: HashSet<usize> = report.results.iter().map(|r| r.slot).collect();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn retries_rerun_failures() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&attempts);
        let exec = FnExecutor::new(move |_| {
            let n = a2.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                Ok(TaskOutput::failed(1, "flaky"))
            } else {
                Ok(TaskOutput::success())
            }
        });
        let report = engine(
            Options {
                jobs: 1,
                retries: 3,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(1))
        .unwrap();
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.results[0].tries, 2);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_delay_backs_off_exponentially() {
        let exec = FnExecutor::new(|_| Ok(TaskOutput::failed(1, "always")));
        let started = Instant::now();
        let report = engine(
            Options {
                jobs: 1,
                retries: 3,
                retry_delay: Some(Duration::from_millis(10)),
                ..Options::default()
            },
            exec,
        )
        .run(inputs(1))
        .unwrap();
        assert_eq!(report.failed, 1);
        // Backoffs: 10 + 20 + 40 = 70 ms minimum.
        assert!(started.elapsed() >= Duration::from_millis(70));
    }

    #[test]
    fn retry_backoff_schedule_doubles_then_caps() {
        let base = Duration::from_millis(10);
        // The documented schedule: attempt k waits base * 2^k ...
        assert_eq!(retry_backoff(base, 0), Duration::from_millis(10));
        assert_eq!(retry_backoff(base, 1), Duration::from_millis(20));
        assert_eq!(retry_backoff(base, 2), Duration::from_millis(40));
        assert_eq!(retry_backoff(base, 3), Duration::from_millis(80));
        // ... until the factor caps at 2^10.
        assert_eq!(retry_backoff(base, 10), Duration::from_millis(10 * 1024));
        assert_eq!(retry_backoff(base, 11), Duration::from_millis(10 * 1024));
        assert_eq!(retry_backoff(base, 30), Duration::from_millis(10 * 1024));
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let exec = FnExecutor::new(|_| Ok(TaskOutput::failed(7, "always")));
        let report = engine(
            Options {
                jobs: 1,
                retries: 2,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(1))
        .unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.results[0].status, JobStatus::Failed(7));
        assert_eq!(report.results[0].tries, 2);
    }

    #[test]
    fn halt_soon_stops_dispatch() {
        let exec = FnExecutor::new(|_| Ok(TaskOutput::failed(1, "bad")));
        let report = engine(
            Options {
                jobs: 1,
                halt: HaltPolicy::fail_count(2, HaltWhen::Soon),
                ..Options::default()
            },
            exec,
        )
        .run(inputs(100))
        .unwrap();
        assert_eq!(report.halted, Some(HaltDecision::StopSoon));
        assert!(
            report.jobs_total < 100,
            "stopped early: {}",
            report.jobs_total
        );
        assert!(report.failed >= 2);
    }

    #[test]
    fn skip_set_produces_skipped_results() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let exec = FnExecutor::new(move |_| {
            r2.fetch_add(1, Ordering::SeqCst);
            Ok(TaskOutput::success())
        });
        let mut eng = engine(
            Options {
                jobs: 2,
                keep_order: true,
                ..Options::default()
            },
            exec,
        );
        eng.skip = [1, 3].into_iter().collect();
        let report = eng.run(inputs(4)).unwrap();
        assert_eq!(report.skipped, 2);
        assert_eq!(report.succeeded, 2);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(report.results[0].status, JobStatus::Skipped);
        assert_eq!(report.results[1].status, JobStatus::Success);
    }

    #[test]
    fn dry_run_renders_without_executing() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let exec = FnExecutor::new(move |_| {
            r2.fetch_add(1, Ordering::SeqCst);
            Ok(TaskOutput::success())
        });
        let report = engine(
            Options {
                jobs: 2,
                dry_run: true,
                keep_order: true,
                ..Options::default()
            },
            exec,
        )
        .run(inputs(3))
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(report.results[0].stdout, "cmd a1\n");
    }

    #[test]
    fn delay_spaces_launches() {
        let exec = FnExecutor::noop();
        let started = Instant::now();
        let report = engine(
            Options {
                jobs: 4,
                delay: Some(Duration::from_millis(20)),
                ..Options::default()
            },
            exec,
        )
        .run(inputs(5))
        .unwrap();
        assert_eq!(report.succeeded, 5);
        // 5 launches, 20 ms apart => at least 80 ms.
        assert!(started.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn on_result_callback_sees_everything_in_order_with_keep_order() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let exec = FnExecutor::new(|cmd| {
            std::thread::sleep(Duration::from_millis(20u64.saturating_sub(cmd.seq * 4)));
            Ok(TaskOutput::success())
        });
        let mut eng = engine(
            Options {
                jobs: 4,
                keep_order: true,
                ..Options::default()
            },
            exec,
        );
        eng.on_result = Some(Arc::new(move |r: &JobResult| {
            seen2.lock().push(r.seq);
        }));
        eng.run(inputs(4)).unwrap();
        assert_eq!(*seen.lock(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn seq_and_slot_render_into_commands() {
        let exec = FnExecutor::new(|cmd| Ok(TaskOutput::stdout(cmd.rendered().to_string())));
        let mut eng = engine(
            Options {
                jobs: 1,
                keep_order: true,
                ..Options::default()
            },
            exec,
        );
        eng.template = Template::parse("task {#} on slot {%}: {}").unwrap();
        let report = eng.run(inputs(2)).unwrap();
        assert_eq!(report.results[0].stdout, "task 1 on slot 1: a1");
        assert_eq!(report.results[1].stdout, "task 2 on slot 1: a2");
    }

    #[test]
    fn telemetry_observes_every_lifecycle_exactly_once() {
        use htpar_telemetry::Recorder;
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let mut eng = engine(
            Options {
                jobs: 8,
                ..Options::default()
            },
            FnExecutor::noop(),
        );
        eng.bus = Some(Arc::clone(&bus));
        let report = eng.run(inputs(120)).unwrap();
        assert_eq!(report.succeeded, 120);
        // Every job's trajectory is exactly the four lifecycle
        // transitions, in order, exactly once.
        for seq in 1..=120u64 {
            let kinds: Vec<&str> = rec.lifecycle_of(seq).iter().map(|e| e.kind()).collect();
            assert_eq!(
                kinds,
                ["queued", "slot_acquired", "spawned", "completed"],
                "seq {seq}"
            );
        }
        // Occupancy never exceeds the slot count and ends drained.
        let mut last_busy = 0;
        for e in rec.events() {
            if let Event::SlotOccupancy { busy, total } = e {
                assert_eq!(total, 8);
                assert!(busy <= 8, "busy {busy}");
                last_busy = busy;
            }
        }
        assert_eq!(last_busy, 0, "all slots released at end of run");
    }

    #[test]
    fn telemetry_reports_retries_and_failures() {
        use htpar_telemetry::Recorder;
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let exec = FnExecutor::new(|_| Ok(TaskOutput::failed(3, "always")));
        let mut eng = engine(
            Options {
                jobs: 1,
                retries: 2,
                ..Options::default()
            },
            exec,
        );
        eng.bus = Some(Arc::clone(&bus));
        let report = eng.run(inputs(1)).unwrap();
        assert_eq!(report.failed, 1);
        let kinds: Vec<&str> = rec.lifecycle_of(1).iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "queued",
                "slot_acquired",
                "spawned",
                "retried",
                "retried",
                "failed"
            ]
        );
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::Failed { seq: 1, exit: 3 })));
    }

    #[test]
    fn collector_backlog_gauge_ends_drained() {
        use htpar_telemetry::MetricsRegistry;
        let bus = EventBus::shared();
        let metrics = MetricsRegistry::shared();
        bus.attach(metrics.clone());
        let mut eng = engine(
            Options {
                jobs: 8,
                ..Options::default()
            },
            FnExecutor::noop(),
        );
        eng.bus = Some(Arc::clone(&bus));
        let report = eng.run(inputs(500)).unwrap();
        assert_eq!(report.succeeded, 500);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.collector_backlog, 0,
            "collector drained everything by run end"
        );
        // The run completed, so every buffered record was drained even if
        // a backlog was observed transiently.
        assert!(snap.collector_backlog_peak <= 500);
    }

    #[test]
    fn empty_input_is_fine() {
        let report = engine(Options::default(), FnExecutor::noop())
            .run(Box::new(std::iter::empty()))
            .unwrap();
        assert_eq!(report.jobs_total, 0);
        assert!(report.all_succeeded());
    }
}
