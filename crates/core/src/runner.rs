//! The scheduling engine: worker threads pulling jobs from a shared input
//! source into numbered slots.
//!
//! This is the architecture the paper credits for GNU Parallel's low
//! overhead: there is no central scheduler making per-task placement
//! decisions — each of the `-j` slots independently pulls the next input
//! the moment it frees up, so dispatch cost is O(1) per task. The hot
//! path is kept lock-cheap end to end:
//!
//! - **Input side** ([`crate::dispatch`]): every run reads one channel
//!   of job batches. [`Engine::run`] sends an exact-size input in
//!   [`crate::dispatch::chunk_size`] batches before the workers start,
//!   and pumps an unsized one into a bounded channel from the calling
//!   thread, so a run starts no thread besides its workers.
//! - **Completion side**: the worker that finishes a job counts it,
//!   runs a DAG's release hook ([`Engine::run_released`]) so a
//!   successor starts without a thread hop, and writes its `--results`
//!   directory. When a joblog or an `on_result` callback consumes
//!   results, the worker hands them over in batches under one run-wide
//!   lock, which keeps callbacks serialized and joblog rows whole. A
//!   run with neither takes no lock, telemetry or not. Then the result
//!   is dropped: the [`RunReport`] carries counts only.
//! - **Bookkeeping**: launch counts and halt tallies are atomics; the
//!   only other global locks are the hand-over above and `--delay`'s
//!   launch spacer, which by definition serializes launches.
//!
//! Per-task lifecycle events are still emitted synchronously by the
//! worker that runs the job, so telemetry event order per task is
//! identical to the pre-sharded engine.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use crossbeam_channel::{Receiver, SendTimeoutError, Sender};
use htpar_telemetry::{Event, EventBus, SinkSet};
use parking_lot::Mutex;

use crate::batch::{batch_argv, expand_context_replace, expand_xargs};
use crate::dispatch::{send_chunks, Feed, WorkerFeed};
use crate::error::Result;
use crate::executor::{ExecContext, Executor};
use crate::gate::Gate;
use crate::halt::{AtomicTally, HaltDecision, Tally};
use crate::job::{CommandLine, JobResult, JobStatus};
use crate::joblog::LogSink;
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

/// Outcome of a full run: counts only. Each [`JobResult`] went to the
/// run's consumers as it finished and was then dropped.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub jobs_total: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub skipped: u64,
    /// Sum of the jobs' runtimes.
    pub busy: Duration,
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

    /// Aggregate into a [`RunSummary`].
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            launched: self.jobs_total - self.skipped,
            succeeded: self.succeeded,
            failed: self.failed,
            skipped: self.skipped,
            wall: self.wall,
            launch_rate: self.launch_rate,
            busy: self.busy,
        }
    }
}

const RUN: u8 = 0;
const STOP_SOON: u8 = 1;
const STOP_NOW: u8 = 2;

/// How long the pump waits on a full channel before re-checking the halt
/// flag (so a halted run cannot strand it on backpressure).
const PUMP_POLL: Duration = Duration::from_millis(50);

/// Capacity, in one-job batches, of the channel an unsized input is
/// pumped into. Sized to absorb a bursty producer without filling: a
/// full channel degenerates into a per-task park/wake ping-pong between
/// the pump and the workers. With headroom above typical burst sizes
/// the pump waits only on *empty* input. Memory cost is bounded: a
/// `JobInput` is ~100 bytes plus its argument strings.
const FEED_CAPACITY: usize = 4096;

/// Completions a worker buffers locally before handing the batch to the
/// run's consumers; amortizes the hand-over lock across fast tasks. The
/// DAG joblog flushes at the same interval.
pub(crate) const DELIVER_BATCH: usize = 64;

/// Jobs slower than this are handed over immediately rather than
/// batched, so progress consumers and the joblog stay current for
/// human-scale workloads.
pub(crate) const PROMPT_DELIVERY: Duration = Duration::from_micros(500);

/// Callback invoked per finished job.
pub type ResultCallback = Arc<dyn Fn(&JobResult) + Send + Sync>;

/// Worker-side hook for [`Engine::run_released`]: the DAG layer's
/// ready-set release, run by the worker that finished the task, and the
/// end of a streamed input's producer.
pub(crate) trait Release: Send + Sync {
    /// Account for `result` (every result a worker produces, dry-run
    /// included) and release whatever it unblocked. The returned job is
    /// the calling worker's own next one.
    fn done(&self, _result: &JobResult) -> Option<JobInput> {
        None
    }
    /// The calling worker found the input empty and is about to park.
    fn park(&self) {}
    /// A `--halt` policy stopped the run: produce nothing more, so that
    /// workers parked on the input, and the pump, see its end.
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

/// The consumers workers hand finished jobs to mid-run, behind one
/// run-wide lock. [`Shared::delivery`] has one only when a joblog or a
/// callback is set.
struct Delivery {
    log: LogSink,
    on_result: Option<ResultCallback>,
    /// `--keep-order` with a callback: results wait here for every
    /// earlier seq.
    reorder: Option<ReorderBuffer>,
}

impl Delivery {
    /// Log and pass on one worker's batch, then flush its rows.
    fn take(&mut self, batch: impl Iterator<Item = JobResult>, shared: &Shared) {
        for result in batch {
            if shared.ran(&result) {
                self.log.record(&result);
            }
            if let Some(cb) = &self.on_result {
                match &mut self.reorder {
                    Some(reorder) => reorder.push(result).iter().for_each(|r| cb(r)),
                    None => cb(&result),
                }
            }
        }
        // One flush per batch, not per row: a concurrent resume reader
        // (kill -9 mid-run) sees every handed-over job without a write
        // syscall per task.
        self.log.flush();
    }

    /// End of run: pass on what a halt left waiting behind a gap in the
    /// seqs, in seq order, then return the joblog's first error.
    fn finish(self) -> Result<()> {
        if let (Some(cb), Some(mut reorder)) = (&self.on_result, self.reorder) {
            reorder.drain().iter().for_each(|r| cb(r));
        }
        self.log.finish()
    }
}

/// Everything shared between worker threads for one run.
struct Shared<'r> {
    options: Options,
    template: Template,
    executor: Arc<dyn Executor>,
    /// The run's one input channel.
    input: Receiver<Vec<JobInput>>,
    /// `None` when nothing consumes results mid-run.
    delivery: Option<Mutex<Delivery>>,
    release: Option<&'r dyn Release>,
    skip: HashSet<u64>,
    gate: Option<Arc<dyn Gate>>,
    tally: AtomicTally,
    /// Exact job count for exact-size inputs (`None` while streaming);
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

    /// Whether `result` ran, and so has a joblog row and a `--results`
    /// directory: skipped and dry-run records are reported only.
    fn ran(&self, result: &JobResult) -> bool {
        !self.options.dry_run && result.status != JobStatus::Skipped
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

impl Engine {
    /// Run a finite or streaming sequence of job inputs to completion.
    /// An exact-size input (argument lists, `--pipe` blocks) goes down
    /// the engine's channel in [`crate::dispatch::chunk_size`] batches
    /// before the workers start, so `--halt` percentages see the exact
    /// total. An unsized one is pumped into a bounded channel one job per
    /// batch, from the calling thread while the workers run.
    pub fn run(self, input: JobStream) -> Result<RunReport> {
        self.run_input(input, None)
    }

    /// Run a batch-granular streaming input to completion: the producer
    /// sends whole `Vec<JobInput>` batches and closes the channel to end
    /// the stream, so a producer that already receives work in bulk (the
    /// network agent's shard frames) pays dispatch overhead per batch,
    /// not per task.
    pub fn run_batched(self, input: Receiver<Vec<JobInput>>) -> Result<RunReport> {
        self.run_with(input, None, None, None)
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
        self.run_with(input, None, None, Some(release))
    }

    /// [`Engine::run`] with an optional `release` hook, whose `halt`
    /// lets a blocking input's producer stop.
    pub(crate) fn run_input(
        self,
        input: JobStream,
        release: Option<&dyn Release>,
    ) -> Result<RunReport> {
        match input.size_hint() {
            (lo, Some(hi)) if lo == hi => {
                let (tx, rx) = crossbeam_channel::unbounded();
                send_chunks(&tx, input, self.options.jobs);
                drop(tx);
                self.run_with(rx, Some(lo as u64), None, release)
            }
            _ => {
                let (tx, rx) = crossbeam_channel::bounded(FEED_CAPACITY);
                self.run_with(rx, None, Some((tx, input)), release)
            }
        }
    }

    /// Run the workers over `input`. With a `pump`, the calling thread
    /// feeds its stream into the channel while they run.
    fn run_with(
        self,
        input: Receiver<Vec<JobInput>>,
        total_jobs: Option<u64>,
        pump: Option<(Sender<Vec<JobInput>>, JobStream)>,
        release: Option<&dyn Release>,
    ) -> Result<RunReport> {
        self.options.validate()?;
        let started = Instant::now();
        let jobs = self.options.jobs;

        let log = LogSink::open(self.options.joblog.as_deref())?;
        let delivery = (log.is_open() || self.on_result.is_some()).then(|| {
            Mutex::new(Delivery {
                log,
                reorder: (self.options.keep_order && self.on_result.is_some())
                    .then(ReorderBuffer::new),
                on_result: self.on_result,
            })
        });

        let shared = Shared {
            options: self.options,
            template: self.template,
            executor: self.executor,
            input,
            delivery,
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
            run_sys: SystemTime::now(),
            run_inst: Instant::now(),
        };

        let run = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..=jobs)
                .map(|slot| {
                    let shared = &shared;
                    scope.spawn(move || worker(slot, shared))
                })
                .collect();
            if let Some((tx, stream)) = pump {
                pump_stream(stream, tx, &shared);
            }
            workers
                .into_iter()
                .map(|handle| handle.join().expect("worker thread panicked"))
                .fold(SlotTally::default(), SlotTally::add)
        });
        // Two workers finishing together can emit their occupancy
        // samples out of order; one sample after all have joined makes
        // the run's last reading the drained counter.
        shared.emit_occupancy(0);

        if let Some(delivery) = shared.delivery {
            delivery.into_inner().finish()?;
        }
        let wall = started.elapsed();
        let launches = shared.launches.into_inner();
        let halted = match shared.halt_state.load(Ordering::SeqCst) {
            STOP_SOON => Some(HaltDecision::StopSoon),
            STOP_NOW => Some(HaltDecision::StopNow),
            _ => None,
        };
        Ok(RunReport {
            jobs_total: run.jobs,
            succeeded: run.outcomes.succeeded,
            failed: run.outcomes.failed,
            skipped: run.jobs - run.outcomes.completed(),
            busy: run.busy,
            launch_rate: if wall.as_secs_f64() > 0.0 {
                launches as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            wall,
            halted,
        })
    }
}

/// Pump an unsized input into the run's channel, one job per batch,
/// until it ends or a halt stops the run; dropping `tx` then ends the
/// workers' input. The pump re-checks the halt flag whenever the channel
/// stays full, so a halted run never strands it on backpressure.
fn pump_stream(input: JobStream, tx: Sender<Vec<JobInput>>, shared: &Shared) {
    for job in input {
        let mut batch = vec![job];
        loop {
            if shared.halt_state.load(Ordering::SeqCst) != RUN {
                return;
            }
            match tx.send_timeout(batch, PUMP_POLL) {
                Ok(()) => break,
                Err(SendTimeoutError::Timeout(back)) => batch = back,
                Err(SendTimeoutError::Disconnected(_)) => return,
            }
        }
    }
}

/// One slot's dispatch loop. Returns the slot's counts.
fn worker(slot: usize, shared: &Shared) -> SlotTally {
    let halt_never = shared.options.halt.is_never();
    let check_skip = !shared.skip.is_empty();
    let needs_argv = shared.executor.needs_argv();
    let slow_path = shared.gate.is_some() || shared.options.delay.is_some();
    let mut w = Worker {
        shared,
        feed: WorkerFeed::new(&shared.input),
        tally: SlotTally::default(),
        batch: Vec::new(),
    };
    loop {
        if shared.halt_state.load(Ordering::SeqCst) != RUN {
            break;
        }
        // Non-blocking pull first: if the channel has nothing ready yet
        // (a streaming producer lagging), hand off buffered completions
        // before parking on it.
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
            w.deliver(result, false);
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
                w.deliver(result, false);
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
            w.deliver(result, false);
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

        // Halt bookkeeping runs before the hand-over so a `--halt`
        // threshold stops dispatch before the *next* pull, but the tally
        // is skipped entirely for the default never-halt policy.
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

        w.deliver(result, runtime >= PROMPT_DELIVERY);
    }
    w.flush();
    w.tally
}

/// One slot's counts, summed into the [`RunReport`] after the join.
#[derive(Default)]
struct SlotTally {
    outcomes: Tally,
    jobs: u64,
    busy: Duration,
}

impl SlotTally {
    fn add(mut self, other: SlotTally) -> SlotTally {
        self.outcomes.succeeded += other.outcomes.succeeded;
        self.outcomes.failed += other.outcomes.failed;
        self.jobs += other.jobs;
        self.busy += other.busy;
        self
    }
}

/// One slot's dispatch state: its view of the input, its counts and
/// the results it has yet to hand over.
struct Worker<'a> {
    shared: &'a Shared<'a>,
    feed: WorkerFeed<'a>,
    tally: SlotTally,
    /// At most [`DELIVER_BATCH`] results awaiting the hand-over; always
    /// empty when the run has no consumer. The buffer is reused.
    batch: Vec<JobResult>,
}

impl Worker<'_> {
    /// Route one finished job: count it, run the release hook, whose
    /// continuation becomes this slot's next job, and write its
    /// `--results` directory. Then the job goes to the run's consumers
    /// in batches (at once when it ran long enough that humans are
    /// watching), or is dropped when there are none.
    #[inline]
    fn deliver(&mut self, result: JobResult, prompt: bool) {
        let shared = self.shared;
        self.tally.outcomes.record(&result.status);
        self.tally.jobs += 1;
        self.tally.busy += result.runtime;
        if let Some(release) = shared.release {
            if let Some(next) = release.done(&result) {
                self.feed.continue_with(next);
            }
        }
        if let Some(dir) = &shared.options.results_dir {
            if shared.ran(&result) {
                write_results_dir(dir, &result);
            }
        }
        if shared.delivery.is_some() {
            self.batch.push(result);
            if prompt || self.batch.len() >= DELIVER_BATCH {
                self.flush();
            }
        }
    }

    /// Hand the buffered results to the run's consumers under their one
    /// lock; a run without consumers buffers nothing and takes no lock.
    fn flush(&mut self) {
        if let Some(delivery) = &self.shared.delivery {
            if !self.batch.is_empty() {
                delivery.lock().take(self.batch.drain(..), self.shared);
            }
        }
    }
}

/// `--results`: one directory per sequence number with the job's
/// streams and exit status. Write failures are advisory.
fn write_results_dir(dir: &Path, result: &JobResult) {
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

/// Render the shell form of a job, plus the argv form when the executor
/// will read it (`needs_argv` — skipping it saves a per-task allocation).
fn render(
    shared: &Shared,
    seq: u64,
    args: &[String],
    slot: usize,
    needs_argv: bool,
) -> (String, Vec<String>) {
    let template = &shared.template;
    let ctx = ExpandContext { args, seq, slot };
    let (rendered, argv) = match shared.options.batch {
        BatchMode::Single => (
            template.expand(&ctx),
            needs_argv.then(|| template.expand_argv(&ctx)),
        ),
        BatchMode::Xargs => (
            expand_xargs(template, args, seq, slot),
            needs_argv.then(|| batch_argv(template, args, seq, slot, false)),
        ),
        BatchMode::ContextReplace => (
            expand_context_replace(template, args, seq, slot),
            needs_argv.then(|| batch_argv(template, args, seq, slot, true)),
        ),
    };
    (rendered, argv.unwrap_or_default())
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

    /// Run `eng` with a callback that collects every result in the
    /// order the engine hands them on.
    fn run_collecting(mut eng: Engine, input: JobStream) -> (RunReport, Vec<JobResult>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        eng.on_result = Some(Arc::new(move |r: &JobResult| seen2.lock().push(r.clone())));
        let report = eng.run(input).unwrap();
        let results = std::mem::take(&mut *seen.lock());
        (report, results)
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

    /// Every result of a batched run reaches the callback (the name is
    /// from when a collector thread made the hand-over).
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

    /// Thirty-two workers handing batches to one callback contend on the
    /// hand-over lock for the whole run (the test is named for the
    /// backpressure scheme that lock replaced, which once deadlocked
    /// here). The watchdog turns a hang into a failure.
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
                // A result callback makes every worker hand over.
                eng.on_result = Some(Arc::new(|_: &JobResult| {}));
                let report = eng.run(inputs(40_000)).unwrap();
                let _ = done_tx.send(report);
            });
            let report = done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("callback-observed run deadlocked on the hand-over");
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
        let (_, results) = run_collecting(
            engine(
                Options {
                    jobs: 8,
                    keep_order: true,
                    ..Options::default()
                },
                exec,
            ),
            inputs(8),
        );
        let seqs: Vec<u64> = results.iter().map(|r| r.seq).collect();
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
        let (_, results) = run_collecting(
            engine(
                Options {
                    jobs: 4,
                    ..Options::default()
                },
                exec,
            ),
            inputs(40),
        );
        assert_eq!(results.len(), 40);
        for r in &results {
            assert!(r.slot >= 1 && r.slot <= 4, "slot {} out of range", r.slot);
        }
        // All four slots got used with 40 jobs.
        let used: HashSet<usize> = results.iter().map(|r| r.slot).collect();
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
        let (report, results) = run_collecting(
            engine(
                Options {
                    jobs: 1,
                    retries: 3,
                    ..Options::default()
                },
                exec,
            ),
            inputs(1),
        );
        assert_eq!(report.succeeded, 1);
        assert_eq!(results[0].tries, 2);
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
        let (report, results) = run_collecting(
            engine(
                Options {
                    jobs: 1,
                    retries: 2,
                    ..Options::default()
                },
                exec,
            ),
            inputs(1),
        );
        assert_eq!(report.failed, 1);
        assert_eq!(results[0].status, JobStatus::Failed(7));
        assert_eq!(results[0].tries, 2);
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
        let (report, results) = run_collecting(eng, inputs(4));
        assert_eq!(report.skipped, 2);
        assert_eq!(report.succeeded, 2);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(results[0].status, JobStatus::Skipped);
        assert_eq!(results[1].status, JobStatus::Success);
    }

    #[test]
    fn dry_run_renders_without_executing() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        let exec = FnExecutor::new(move |_| {
            r2.fetch_add(1, Ordering::SeqCst);
            Ok(TaskOutput::success())
        });
        let (report, results) = run_collecting(
            engine(
                Options {
                    jobs: 2,
                    dry_run: true,
                    keep_order: true,
                    ..Options::default()
                },
                exec,
            ),
            inputs(3),
        );
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(report.succeeded, 3);
        assert_eq!(results[0].stdout, "cmd a1\n");
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
        let (_, results) = run_collecting(eng, inputs(2));
        assert_eq!(results[0].stdout, "task 1 on slot 1: a1");
        assert_eq!(results[1].stdout, "task 2 on slot 1: a2");
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

    /// `-k` with `--halt`: batched hand-out can leave seqs unrun behind
    /// the job that tripped the halt, so every later result waits in
    /// the reorder buffer for them. The end of the run hands those on
    /// in seq order.
    #[test]
    fn keep_order_hands_on_every_result_after_a_halt() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let ran2 = Arc::clone(&ran);
        let exec = FnExecutor::new(move |cmd| {
            ran2.lock().push(cmd.seq);
            if cmd.seq == 1 {
                std::thread::sleep(Duration::from_millis(300));
                return Ok(TaskOutput::failed(1, "slow failure"));
            }
            Ok(TaskOutput::success())
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let mut eng = engine(
            Options {
                jobs: 2,
                keep_order: true,
                halt: HaltPolicy::fail_count(1, HaltWhen::Soon),
                ..Options::default()
            },
            exec,
        );
        eng.on_result = Some(Arc::new(move |r: &JobResult| seen2.lock().push(r.seq)));
        let report = eng.run(inputs(64)).unwrap();
        assert_eq!(report.halted, Some(HaltDecision::StopSoon));
        let mut ran = ran.lock().clone();
        ran.sort_unstable();
        assert!(ran.len() > 1 && ran.len() < 64, "ran {ran:?}");
        assert_eq!(report.jobs_total, ran.len() as u64);
        assert_eq!(*seen.lock(), ran, "every job that ran, in seq order");
    }

    /// An unsized input is read by the thread that called `run`, while
    /// the workers run: the engine starts no feeder thread for it.
    #[test]
    fn unsized_input_is_pumped_from_the_calling_thread() {
        let caller = std::thread::current().id();
        let readers = Arc::new(Mutex::new(HashSet::new()));
        let readers2 = Arc::clone(&readers);
        let input = inputs(200).filter(|_| true).inspect(move |_| {
            readers2.lock().insert(std::thread::current().id());
        });
        assert_eq!(input.size_hint(), (0, Some(200)), "not exact-size");
        let report = engine(
            Options {
                jobs: 4,
                ..Options::default()
            },
            FnExecutor::noop(),
        )
        .run(Box::new(input))
        .unwrap();
        assert_eq!(report.succeeded, 200);
        assert_eq!(*readers.lock(), HashSet::from([caller]));
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
