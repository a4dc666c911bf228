//! The high-level builder: the library equivalent of a `parallel`
//! command line.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::batch::plan_batches;
use crate::dag::{Dag, DagReport};
use crate::error::{Error, Result};
use crate::executor::{Executor, ProcessExecutor};
use crate::gate::Gate;
use crate::halt::HaltPolicy;
use crate::input::{InputSet, InputSource};
use crate::job::JobResult;
use crate::joblog;
use crate::options::{BatchMode, Options, ResumeMode};
use crate::pipe::split_blocks;
use crate::queue::{FollowQueue, QueueStopper};
use crate::runner::{Engine, JobInput, Release};
use crate::template::Template;
use htpar_telemetry::EventBus;

pub use crate::runner::RunReport;

/// Builder for a parallel run. Mirrors the `parallel` command line:
///
/// ```
/// use htpar_core::prelude::*;
/// use std::sync::{Arc, Mutex};
///
/// // parallel -j8 -k gzip {} ::: a.log b.log  (dry run)
/// let out = Arc::new(Mutex::new(String::new()));
/// let sink = Arc::clone(&out);
/// let report = Parallel::new("gzip {}")
///     .jobs(8)
///     .keep_order(true)
///     .dry_run(true)
///     .args(["a.log", "b.log"])
///     .on_result(move |result| sink.lock().unwrap().push_str(&result.stdout))
///     .run()
///     .unwrap();
/// assert_eq!(report.succeeded, 2);
/// assert_eq!(*out.lock().unwrap(), "gzip a.log\ngzip b.log\n");
/// ```
pub struct Parallel {
    command: String,
    replacement: Option<String>,
    options: Options,
    inputs: InputSet,
    input_err: Option<Error>,
    executor: Option<Arc<dyn Executor>>,
    on_result: Option<crate::runner::ResultCallback>,
    order: JobOrder,
    gate: Option<Arc<dyn Gate>>,
    telemetry: Option<Arc<EventBus>>,
}

/// Dispatch order of finite job lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum JobOrder {
    #[default]
    Input,
    Reversed,
    Shuffled(u64),
}

impl Parallel {
    /// Start building a run of `command` (a template with replacement
    /// strings).
    pub fn new<S: Into<String>>(command: S) -> Parallel {
        Parallel {
            command: command.into(),
            replacement: None,
            options: Options::default(),
            inputs: InputSet::new(),
            input_err: None,
            executor: None,
            on_result: None,
            order: JobOrder::default(),
            gate: None,
            telemetry: None,
        }
    }

    /// `-j N`: number of slots.
    pub fn jobs(mut self, n: usize) -> Self {
        self.options.jobs = n;
        self
    }

    /// `-k`: keep output in input order.
    pub fn keep_order(mut self, on: bool) -> Self {
        self.options.keep_order = on;
        self
    }

    /// `--tag`: prefix output lines with the job's arguments. Consumers
    /// apply [`crate::output::tag_lines`]; the flag is carried on
    /// [`Options`] for them.
    pub fn tag(mut self, on: bool) -> Self {
        self.options.tag = on;
        self
    }

    /// `--dry-run`: render, don't execute.
    pub fn dry_run(mut self, on: bool) -> Self {
        self.options.dry_run = on;
        self
    }

    /// `--retries N`.
    pub fn retries(mut self, n: u32) -> Self {
        self.options.retries = n;
        self
    }

    /// `--timeout D`.
    pub fn timeout(mut self, d: Duration) -> Self {
        self.options.timeout = Some(d);
        self
    }

    /// `--delay D` between launches.
    pub fn delay(mut self, d: Duration) -> Self {
        self.options.delay = Some(d);
        self
    }

    /// `--halt` policy.
    pub fn halt(mut self, policy: HaltPolicy) -> Self {
        self.options.halt = policy;
        self
    }

    /// `--joblog FILE`.
    pub fn joblog<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.options.joblog = Some(path.into());
        self
    }

    /// `--resume`: skip sequence numbers already in the joblog.
    pub fn resume(mut self) -> Self {
        self.options.resume = ResumeMode::Resume;
        self
    }

    /// `--resume-failed`: skip only successful sequence numbers.
    pub fn resume_failed(mut self) -> Self {
        self.options.resume = ResumeMode::ResumeFailed;
        self
    }

    /// Run through `sh -c` (default true, like GNU).
    pub fn shell(mut self, on: bool) -> Self {
        self.options.shell = on;
        self
    }

    /// `-m`: xargs-style batching.
    pub fn xargs(mut self) -> Self {
        self.options.batch = BatchMode::Xargs;
        self
    }

    /// `-X`: context-replace batching.
    pub fn context_replace(mut self) -> Self {
        self.options.batch = BatchMode::ContextReplace;
        self
    }

    /// `-s N`: character budget per command (batch modes).
    pub fn max_chars(mut self, n: usize) -> Self {
        self.options.max_chars = n;
        self
    }

    /// `-n N`: max arguments per batch.
    pub fn max_args(mut self, n: usize) -> Self {
        self.options.max_args = Some(n);
        self
    }

    /// `-I STR`: custom replacement string for `{}`.
    pub fn replacement<S: Into<String>>(mut self, s: S) -> Self {
        self.replacement = Some(s.into());
        self
    }

    /// `--results DIR`: write each job's stdout/stderr/exitval under
    /// `DIR/<seq>/`.
    pub fn results<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.options.results_dir = Some(dir.into());
        self
    }

    /// `--shuf`: run jobs in a seeded-random order. Sequence numbers
    /// still reflect input order, so `keep_order` and joblogs stay
    /// meaningful.
    pub fn shuffle(mut self, seed: u64) -> Self {
        self.order = JobOrder::Shuffled(seed);
        self
    }

    /// Run jobs in reverse input order.
    pub fn reverse(mut self) -> Self {
        self.order = JobOrder::Reversed;
        self
    }

    /// `--memfree`-style launch gate: no job launches while the gate
    /// denies (see [`crate::gate`]).
    pub fn gate<G: Gate + 'static>(mut self, gate: G) -> Self {
        self.gate = Some(Arc::new(gate));
        self
    }

    /// Share a gate across runs.
    pub fn gate_shared(mut self, gate: Arc<dyn Gate>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Attach a telemetry bus: the engine emits structured
    /// [`htpar_telemetry::Event`]s (task lifecycle, slot occupancy)
    /// to every sink on the bus during the run.
    pub fn telemetry(mut self, bus: Arc<EventBus>) -> Self {
        self.telemetry = Some(bus);
        self
    }

    /// Replace the whole options struct.
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// `::: values` — add a product input source.
    pub fn args<I, S>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push_source(InputSource::product(values));
        self
    }

    /// `:::+ values` — add a source linked to the previous one.
    pub fn args_linked<I, S>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push_source(InputSource::linked(values));
        self
    }

    /// Pipe-style input: one argument per line of the reader.
    pub fn input_lines<R: BufRead>(mut self, reader: R) -> Self {
        match InputSource::from_lines(reader) {
            Ok(src) => self.push_source(src),
            Err(e) => self.input_err = Some(e),
        }
        self
    }

    /// Replace every input source with `set`.
    pub fn inputs(mut self, set: InputSet) -> Self {
        self.inputs = set;
        self
    }

    fn push_source(&mut self, source: InputSource) {
        if let Err(e) = self.inputs.push(source) {
            self.input_err = Some(e);
        }
    }

    /// Use a custom executor (default: [`ProcessExecutor`] honoring the
    /// `shell` option).
    pub fn executor<E: Executor + 'static>(mut self, executor: E) -> Self {
        self.executor = Some(Arc::new(executor));
        self
    }

    /// Callback fired as each job finishes (input order with
    /// `keep_order`, completion order otherwise). This is where a caller
    /// sees each job's output: the [`RunReport`] carries counts only.
    pub fn on_result<F>(mut self, f: F) -> Self
    where
        F: Fn(&JobResult) + Send + Sync + 'static,
    {
        self.on_result = Some(Arc::new(f));
        self
    }

    /// Execute over the configured input sources.
    pub fn run(self) -> Result<RunReport> {
        let (engine, inputs) = self.prepare()?;
        engine.run(inputs)
    }

    /// `--pipe --block N`: split `reader` into line-aligned blocks of at
    /// least `block_size` bytes and feed each block to one job's stdin.
    /// Configured `args(...)` sources are ignored in this mode.
    pub fn run_pipe<R: std::io::Read>(self, reader: R, block_size: usize) -> Result<RunReport> {
        if self.options.batch != BatchMode::Single {
            return Err(Error::Options(
                "--pipe cannot combine with -m/-X batching".into(),
            ));
        }
        let blocks = split_blocks(reader, block_size)?;
        let (engine, _) = self.prepare_engine_only()?;
        let jobs = blocks.into_iter().enumerate().map(|(i, block)| JobInput {
            seq: i as u64 + 1,
            args: Vec::new(),
            stdin: Some(block),
        });
        engine.run(Box::new(jobs))
    }

    /// Execute over a streaming queue: each queue item becomes one job
    /// argument, dispatched as it arrives (the `tail -f | parallel`
    /// pattern). Configured `args(...)` sources are ignored in this mode.
    /// A `--halt` stops the queue, so the run ends even while its
    /// producer is idle.
    pub fn run_stream(self, queue: FollowQueue) -> Result<RunReport> {
        if self.options.batch != BatchMode::Single {
            return Err(Error::Options(
                "batch modes require finite input, not a stream".into(),
            ));
        }
        let (engine, _) = self.prepare_engine_only()?;
        let stopper = queue.stopper();
        let stream = queue
            .enumerate()
            .map(|(i, line)| JobInput::new(i as u64 + 1, vec![line]));
        engine.run_input(Box::new(stream), Some(&stopper))
    }

    /// Execute `dag` ([`crate::dag`]), its nodes' command lines as jobs;
    /// the command, sources and order are unused. The DAG layer owns the
    /// joblog, and either resume mode re-runs the failed tasks.
    pub fn run_dag(mut self, dag: &Dag) -> Result<DagReport> {
        // Resume moves to the DAG layer below, once checked to have a joblog.
        self.options.validate()?;
        self.command = "{}".into();
        self.replacement = None;
        let resume = std::mem::take(&mut self.options.resume);
        let (mut engine, _) = self.prepare_engine_only()?;
        engine.options.resume = resume;
        crate::dag::run_dag(dag, engine)
    }

    fn template(&self) -> Result<Template> {
        match &self.replacement {
            Some(repl) => Template::parse_with_replacement(&self.command, repl),
            None => Template::parse(&self.command),
        }
    }

    fn skip_set(&self) -> Result<std::collections::HashSet<u64>> {
        match &self.options.joblog {
            Some(path) => joblog::resume_set(path, self.options.resume),
            None => Ok(Default::default()),
        }
    }

    fn prepare_engine_only(mut self) -> Result<(Engine, InputSet)> {
        if let Some(e) = self.input_err.take() {
            return Err(e);
        }
        self.options.validate()?;
        let template = self.template()?;
        let skip = self.skip_set()?;
        let executor: Arc<dyn Executor> = match self.executor {
            Some(e) => e,
            None => {
                let base = if self.options.shell {
                    ProcessExecutor::shell()
                } else {
                    ProcessExecutor::no_shell()
                };
                // The default executor reports launch-path telemetry
                // (shell_bypass / sh_fallback + spawn latency) when the
                // run has a bus attached.
                match &self.telemetry {
                    Some(bus) => Arc::new(base.observed(Arc::clone(bus))),
                    None => Arc::new(base),
                }
            }
        };
        let engine = Engine {
            options: self.options,
            template,
            executor,
            on_result: self.on_result,
            skip,
            gate: self.gate,
            bus: self.telemetry,
        };
        Ok((engine, self.inputs))
    }

    fn prepare(self) -> Result<(Engine, crate::runner::JobStream)> {
        let batch_mode = self.options.batch;

        let max_args = self.options.max_args;
        let max_chars = self.options.max_chars;
        let command_len = self.command.len();
        let order = self.order;
        let (engine, inputs) = self.prepare_engine_only()?;
        let iter: crate::runner::JobStream = match batch_mode {
            BatchMode::Single => {
                let rows: Vec<Vec<String>> = inputs.iter().collect();
                let mut jobs: Vec<JobInput> = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, args)| JobInput::new(i as u64 + 1, args))
                    .collect();
                apply_order(&mut jobs, order);
                Box::new(jobs.into_iter())
            }
            BatchMode::Xargs | BatchMode::ContextReplace => {
                if inputs.arity() > 1 {
                    return Err(Error::Input(
                        "batch modes (-m/-X) require a single input source".into(),
                    ));
                }
                let flat: Vec<String> = inputs
                    .iter()
                    .map(|row| {
                        row.into_iter()
                            .next()
                            .expect("arity-1 rows have one column")
                    })
                    .collect();
                // Conservative overhead: separator plus (for -X) the
                // repeated context, approximated by the command length.
                let per_arg = match batch_mode {
                    BatchMode::ContextReplace => 1 + command_len.min(256),
                    _ => 1,
                };
                let ranges = plan_batches(&flat, max_args, max_chars, command_len, per_arg);
                let batches: Vec<Vec<String>> =
                    ranges.into_iter().map(|r| flat[r].to_vec()).collect();
                Box::new(
                    batches
                        .into_iter()
                        .enumerate()
                        .map(|(i, args)| JobInput::new(i as u64 + 1, args)),
                )
            }
        };
        Ok((engine, iter))
    }
}

/// A halted stream run stops its queue: the engine's pump then sees the
/// end of the input instead of waiting for a producer that may never
/// push again.
impl Release for QueueStopper {
    fn halt(&self) {
        self.stop();
    }
}

/// Reorder a finite job list according to the configured order. Shuffle
/// uses an inline SplitMix64-driven Fisher–Yates so the core crate stays
/// dependency-free; determinism is all that matters here.
fn apply_order(jobs: &mut [JobInput], order: JobOrder) {
    match order {
        JobOrder::Input => {}
        JobOrder::Reversed => jobs.reverse(),
        JobOrder::Shuffled(seed) => {
            let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            for i in (1..jobs.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                jobs.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{FnExecutor, TaskOutput};
    use parking_lot::Mutex;

    /// Attach a callback that collects each job's stdout in the order
    /// the engine hands results on.
    fn collecting(p: Parallel) -> (Parallel, Arc<Mutex<Vec<String>>>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        (
            p.on_result(move |r| out2.lock().push(r.stdout.clone())),
            out,
        )
    }

    #[test]
    fn end_to_end_with_fn_executor() {
        let (p, out) = collecting(
            Parallel::new("process {}")
                .jobs(3)
                .keep_order(true)
                .args(["x", "y", "z"])
                .executor(FnExecutor::new(|cmd| {
                    Ok(TaskOutput::stdout(format!("<{}>", cmd.rendered())))
                })),
        );
        let report = p.run().unwrap();
        assert_eq!(report.jobs_total, 3);
        assert_eq!(
            *out.lock(),
            vec!["<process x>", "<process y>", "<process z>"]
        );
    }

    #[test]
    fn end_to_end_with_real_processes() {
        let (p, out) = collecting(
            Parallel::new("echo hello-{}")
                .jobs(4)
                .keep_order(true)
                .args(["1", "2"]),
        );
        let report = p.run().unwrap();
        assert!(report.all_succeeded());
        assert_eq!(*out.lock(), vec!["hello-1\n", "hello-2\n"]);
    }

    #[test]
    fn product_inputs_multiply() {
        let report = Parallel::new("job {1} {2}")
            .jobs(4)
            .dry_run(true)
            .args(["a", "b"])
            .args(["1", "2", "3"])
            .run()
            .unwrap();
        assert_eq!(report.jobs_total, 6);
    }

    #[test]
    fn linked_inputs_zip() {
        let (p, out) = collecting(
            Parallel::new("mv {1} {2}")
                .dry_run(true)
                .keep_order(true)
                .args(["a", "b"])
                .args_linked(["a.bak", "b.bak"]),
        );
        let report = p.run().unwrap();
        assert_eq!(report.jobs_total, 2);
        assert_eq!(out.lock()[0], "mv a a.bak\n");
    }

    #[test]
    fn linked_without_base_surfaces_error() {
        let err = Parallel::new("x {}").args_linked(["a"]).run().unwrap_err();
        assert!(matches!(err, Error::Input(_)));
    }

    #[test]
    fn input_lines_feed_jobs() {
        let (p, out) = collecting(
            Parallel::new("wc {}")
                .dry_run(true)
                .keep_order(true)
                .input_lines("f1\nf2\n".as_bytes()),
        );
        let report = p.run().unwrap();
        assert_eq!(report.jobs_total, 2);
        assert_eq!(out.lock()[1], "wc f2\n");
    }

    #[test]
    fn custom_replacement_string() {
        let (p, out) = collecting(
            Parallel::new("cp F F.bak")
                .replacement("F")
                .dry_run(true)
                .keep_order(true)
                .args(["data"]),
        );
        p.run().unwrap();
        assert_eq!(*out.lock(), vec!["cp data data.bak\n"]);
    }

    #[test]
    fn xargs_mode_batches() {
        let (p, out) = collecting(
            Parallel::new("echo {}")
                .xargs()
                .max_args(2)
                .dry_run(true)
                .keep_order(true)
                .args(["a", "b", "c"]),
        );
        let report = p.run().unwrap();
        assert_eq!(report.jobs_total, 2);
        assert_eq!(*out.lock(), vec!["echo a b\n", "echo c\n"]);
    }

    #[test]
    fn context_replace_batches() {
        let (p, out) = collecting(
            Parallel::new("rsync -R {} /dst/")
                .context_replace()
                .max_args(3)
                .dry_run(true)
                .args(["f1", "f2", "f3"]),
        );
        let report = p.run().unwrap();
        assert_eq!(report.jobs_total, 1);
        assert_eq!(*out.lock(), vec!["rsync -R f1 f2 f3 /dst/\n"]);
    }

    #[test]
    fn batch_mode_rejects_multiple_sources() {
        let err = Parallel::new("x {}")
            .xargs()
            .args(["a"])
            .args(["b"])
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Input(_)));
    }

    #[test]
    fn resume_skips_logged_jobs() {
        let dir = std::env::temp_dir().join(format!("htpar-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("joblog.tsv");
        let _ = std::fs::remove_file(&log);

        let ran = Arc::new(Mutex::new(Vec::new()));
        let ran2 = Arc::clone(&ran);
        let exec = FnExecutor::new(move |cmd| {
            ran2.lock().push(cmd.seq);
            if cmd.seq == 2 {
                Ok(TaskOutput::failed(1, "seq 2 fails"))
            } else {
                Ok(TaskOutput::success())
            }
        });

        // First run: 3 jobs, one fails.
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .args(["a", "b", "c"])
            .executor(exec.clone())
            .run()
            .unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(*ran.lock(), vec![1, 2, 3]);

        // --resume-failed: only seq 2 re-runs.
        ran.lock().clear();
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .resume_failed()
            .args(["a", "b", "c"])
            .executor(exec.clone())
            .run()
            .unwrap();
        assert_eq!(report.skipped, 2);
        assert_eq!(*ran.lock(), vec![2]);

        // --resume: everything recorded (even failures) skips.
        ran.lock().clear();
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .resume()
            .args(["a", "b", "c"])
            .executor(exec)
            .run()
            .unwrap();
        assert_eq!(report.skipped, 3);
        assert!(ran.lock().is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn halt_fail_percent_trips_on_small_preloaded_runs() {
        use crate::halt::{HaltDecision, HaltWhen};
        // 4 jobs, all failing, fail=50%: the known-total denominator
        // trips the policy at the second failure — the bug was that the
        // ≥10-completions guard let tiny runs run to the bitter end.
        let ran = Arc::new(Mutex::new(Vec::new()));
        let ran2 = Arc::clone(&ran);
        let report = Parallel::new("t {}")
            .jobs(1)
            .halt(HaltPolicy::fail_percent(50.0, HaltWhen::Soon))
            .args(["a", "b", "c", "d"])
            .executor(FnExecutor::new(move |cmd| {
                ran2.lock().push(cmd.seq);
                Ok(TaskOutput::failed(1, "boom"))
            }))
            .run()
            .unwrap();
        assert_eq!(report.halted, Some(HaltDecision::StopSoon));
        assert_eq!(*ran.lock(), vec![1, 2], "halted after the 2nd failure");
    }

    #[test]
    fn resume_after_halt_reruns_only_unlogged_then_failed_seqs() {
        use crate::halt::HaltWhen;
        let dir = std::env::temp_dir().join(format!("htpar-halt-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("joblog.tsv");
        let _ = std::fs::remove_file(&log);

        let failing = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let ran = Arc::new(Mutex::new(Vec::new()));
        let (f2, ran2) = (Arc::clone(&failing), Arc::clone(&ran));
        let exec = FnExecutor::new(move |cmd| {
            ran2.lock().push(cmd.seq);
            if f2.load(std::sync::atomic::Ordering::SeqCst) && cmd.seq % 2 == 0 {
                Ok(TaskOutput::failed(1, "flaky"))
            } else {
                Ok(TaskOutput::success())
            }
        });

        // Run 1: seqs 2 and 4 fail; `--halt soon,fail=2` stops the run
        // after seq 4, leaving 5 and 6 undispatched (and unlogged).
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .halt(HaltPolicy::fail_count(2, HaltWhen::Soon))
            .args(["a", "b", "c", "d", "e", "f"])
            .executor(exec.clone())
            .run()
            .unwrap();
        assert!(report.halted.is_some());
        assert_eq!(*ran.lock(), vec![1, 2, 3, 4]);

        // Run 2, --resume: exactly the unlogged seqs (5, 6) re-run —
        // logged failures stay skipped.
        failing.store(false, std::sync::atomic::Ordering::SeqCst);
        ran.lock().clear();
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .resume()
            .args(["a", "b", "c", "d", "e", "f"])
            .executor(exec.clone())
            .run()
            .unwrap();
        assert_eq!(report.skipped, 4);
        assert_eq!(*ran.lock(), vec![5, 6]);

        // Run 3, --resume-failed: exactly the logged failures (2, 4)
        // re-run; successes (1, 3, 5, 6) stay skipped.
        ran.lock().clear();
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .resume_failed()
            .args(["a", "b", "c", "d", "e", "f"])
            .executor(exec.clone())
            .run()
            .unwrap();
        assert_eq!(report.skipped, 4);
        assert_eq!(*ran.lock(), vec![2, 4]);

        // Everything is now logged as succeeded: both resume modes
        // re-run nothing.
        ran.lock().clear();
        let report = Parallel::new("t {}")
            .jobs(1)
            .joblog(&log)
            .resume_failed()
            .args(["a", "b", "c", "d", "e", "f"])
            .executor(exec)
            .run()
            .unwrap();
        assert_eq!(report.skipped, 6);
        assert!(ran.lock().is_empty());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_stream_processes_items_as_they_arrive() {
        let (writer, queue) = FollowQueue::channel();
        let handle = std::thread::spawn(move || {
            for i in 0..5 {
                writer.push(format!("item{i}"));
                std::thread::sleep(Duration::from_millis(5));
            }
            // writer drops => stream closes
        });
        let (p, out) = collecting(
            Parallel::new("handle {}")
                .jobs(2)
                .keep_order(true)
                .executor(FnExecutor::new(|cmd| {
                    Ok(TaskOutput::stdout(cmd.args[0].clone()))
                })),
        );
        let report = p.run_stream(queue).unwrap();
        handle.join().unwrap();
        assert_eq!(report.jobs_total, 5);
        assert_eq!(
            *out.lock(),
            vec!["item0", "item1", "item2", "item3", "item4"]
        );
    }

    #[test]
    fn run_stream_rejects_batch_modes() {
        let (_w, queue) = FollowQueue::channel();
        let err = Parallel::new("x {}").xargs().run_stream(queue).unwrap_err();
        assert!(matches!(err, Error::Options(_)));
    }

    /// A halt ends a stream run even while its queue is idle: the
    /// producer pushes one item and then holds the queue open for 3 s.
    /// A pump left waiting for the next item made the run last those
    /// 3 s.
    #[test]
    fn halt_ends_a_stream_run_while_its_queue_is_idle() {
        use crate::halt::{HaltDecision, HaltPolicy, HaltWhen};
        let (writer, queue) = FollowQueue::channel();
        writer.push("fails");
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(3));
            drop(writer);
        });
        let started = std::time::Instant::now();
        let report = Parallel::new("x {}")
            .jobs(2)
            .halt(HaltPolicy::fail_count(1, HaltWhen::Now))
            .executor(FnExecutor::new(|_| Ok(TaskOutput::failed(1, "bad"))))
            .run_stream(queue)
            .unwrap();
        let took = started.elapsed();
        producer.join().unwrap();
        assert_eq!(report.halted, Some(HaltDecision::StopNow));
        assert_eq!(report.failed, 1);
        assert!(
            took < Duration::from_millis(500),
            "halted stream run took {took:?}"
        );
    }

    #[test]
    fn on_result_streams_completions() {
        let seen = Arc::new(Mutex::new(0u32));
        let seen2 = Arc::clone(&seen);
        Parallel::new("n {}")
            .jobs(2)
            .executor(FnExecutor::noop())
            .on_result(move |_| *seen2.lock() += 1)
            .args(["1", "2", "3", "4"])
            .run()
            .unwrap();
        assert_eq!(*seen.lock(), 4);
    }

    #[test]
    fn pipe_mode_feeds_blocks_to_stdin() {
        // cat bigfile | parallel --pipe --block 8 wc -l : each job counts
        // its block's lines; the total equals the input's line count.
        let input = (0..50).map(|i| format!("line{i}\n")).collect::<String>();
        let (p, out) = collecting(Parallel::new("wc -l").jobs(4).keep_order(true));
        let report = p.run_pipe(input.as_bytes(), 64).unwrap();
        assert!(report.jobs_total > 1, "multiple blocks");
        let total: u64 = out
            .lock()
            .iter()
            .map(|o| o.trim().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn pipe_mode_with_fn_executor_sees_blocks() {
        let (p, out) = collecting(Parallel::new("count").jobs(2).keep_order(true).executor(
            FnExecutor::new(|cmd| {
                let block = cmd.stdin.as_deref().unwrap_or("");
                Ok(TaskOutput::stdout(block.lines().count().to_string()))
            }),
        ));
        p.run_pipe("a\nb\nc\nd\ne\n".as_bytes(), 4).unwrap();
        let total: usize = out.lock().iter().map(|o| o.parse::<usize>().unwrap()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn pipe_rejects_batch_modes() {
        let err = Parallel::new("wc")
            .xargs()
            .run_pipe("x\n".as_bytes(), 4)
            .unwrap_err();
        assert!(matches!(err, Error::Options(_)));
    }

    #[test]
    fn results_dir_captures_streams() {
        let dir = std::env::temp_dir().join(format!("htpar-results-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Parallel::new("r {}")
            .jobs(2)
            .results(&dir)
            .executor(FnExecutor::new(|cmd| {
                if cmd.seq == 2 {
                    Ok(TaskOutput::failed(3, "bad"))
                } else {
                    Ok(TaskOutput::stdout(format!("out-{}", cmd.args[0])))
                }
            }))
            .args(["a", "b"])
            .run()
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("1/stdout")).unwrap(),
            "out-a"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("1/exitval")).unwrap(),
            "0\n"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("2/stderr")).unwrap(),
            "bad"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("2/exitval")).unwrap(),
            "3\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shuffle_changes_dispatch_order_not_seqs() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let d2 = Arc::clone(&delivered);
        Parallel::new("s {}")
            .jobs(1)
            .shuffle(42)
            .keep_order(true)
            .executor(FnExecutor::new(move |cmd| {
                o2.lock().push(cmd.seq);
                Ok(TaskOutput::success())
            }))
            .on_result(move |r| d2.lock().push(r.seq))
            .args((0..20).map(|i| i.to_string()))
            .run()
            .unwrap();
        let dispatched = order.lock().clone();
        assert_ne!(dispatched, (1..=20).collect::<Vec<u64>>(), "order shuffled");
        // keep_order still hands results on by seq.
        assert_eq!(*delivered.lock(), (1..=20).collect::<Vec<u64>>());
        // Same seed, same order.
        let order_b = Arc::new(Mutex::new(Vec::new()));
        let ob = Arc::clone(&order_b);
        Parallel::new("s {}")
            .jobs(1)
            .shuffle(42)
            .executor(FnExecutor::new(move |cmd| {
                ob.lock().push(cmd.seq);
                Ok(TaskOutput::success())
            }))
            .args((0..20).map(|i| i.to_string()))
            .run()
            .unwrap();
        assert_eq!(dispatched, order_b.lock().clone());
    }

    #[test]
    fn gate_holds_launches_until_opened() {
        use crate::gate::SwitchGate;
        let gate = SwitchGate::new(false);
        let g2 = Arc::clone(&gate);
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            g2.open();
        });
        let start = std::time::Instant::now();
        let report = Parallel::new("g {}")
            .jobs(2)
            .gate_shared(gate)
            .executor(FnExecutor::noop())
            .args(["a", "b"])
            .run()
            .unwrap();
        opener.join().unwrap();
        assert!(report.all_succeeded());
        assert!(
            start.elapsed() >= Duration::from_millis(45),
            "held until open"
        );
    }

    #[test]
    fn reverse_dispatches_backwards() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        Parallel::new("s {}")
            .jobs(1)
            .reverse()
            .executor(FnExecutor::new(move |cmd| {
                o2.lock().push(cmd.seq);
                Ok(TaskOutput::success())
            }))
            .args(["a", "b", "c"])
            .run()
            .unwrap();
        assert_eq!(*order.lock(), vec![3, 2, 1]);
    }

    #[test]
    fn gpu_isolation_env_binding_via_slot() {
        // Paper §IV-D: parallel -j8 HIP_VISIBLE_DEVICES=$(({%} - 1)) ...
        let devices = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let d2 = Arc::clone(&devices);
        let report = Parallel::new("HIP_VISIBLE_DEVICES={%} celer-sim {}")
            .jobs(8)
            .executor(FnExecutor::new(move |cmd| {
                // slot is 1-based; device = slot-1 in 0..8
                let dev = cmd.slot - 1;
                assert!(dev < 8);
                d2.lock().insert(dev);
                std::thread::sleep(Duration::from_millis(5));
                Ok(TaskOutput::success())
            }))
            .args((0..32).map(|i| format!("run{i}.inp.json")))
            .run()
            .unwrap();
        assert!(report.all_succeeded());
        // With 32 five-ms jobs on 8 slots, all devices get exercised.
        assert_eq!(devices.lock().len(), 8);
    }
}
