//! Pluggable job executors.
//!
//! The scheduling engine is independent of *how* a command runs. Three
//! executors ship here and in the simulator crates:
//!
//! - [`ProcessExecutor`] — real OS processes, via `sh -c` or direct argv;
//!   a rendered command whose only shell syntax is quoted values runs
//!   as argv. Every launch, `--pipe` blocks, `--line-buffer` streaming
//!   and `--timeout` included, goes through [`crate::spawn`]:
//!   `posix_spawn` plus one pooled reaper thread. Used by the stress
//!   benchmarks that measure this machine's actual process launch rate
//!   (paper Fig. 3).
//! - [`FnExecutor`] — an in-process closure. Used by tests, in-memory
//!   workloads, and anywhere fork/exec cost would drown the signal.
//! - `htpar-cluster`'s simulated executor — runs `CommandLine`s on a
//!   simulated supercomputer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_telemetry::{Event, EventBus};

use crate::job::{CommandLine, JobStatus};
use crate::spawn::{self, LaunchPlan, LineSink};

/// Which stream a streamed line came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    Stdout,
    Stderr,
}

/// One line streamed from a running job (`--line-buffer`).
#[derive(Debug, Clone)]
pub struct LineEvent {
    pub seq: u64,
    pub slot: usize,
    pub kind: StreamKind,
    /// The line's bytes, without its trailing newline.
    pub line: Vec<u8>,
}

/// Callback receiving lines as they are produced, while jobs still run.
/// It runs on the reaper thread, so a callback that blocks holds up
/// every job's collection, as GNU Parallel's single writer does.
pub type LineCallback = Arc<dyn Fn(&LineEvent) + Send + Sync>;

/// What an executor hands back for one attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutput {
    pub status: JobStatus,
    pub stdout: String,
    pub stderr: String,
}

/// Message prefix marking an [`JobStatus::ExecError`] as a *transport*
/// failure: the executor could not reach the host at all (dead socket,
/// connection refused), as opposed to failing to run the command there.
/// Multi-host routing quarantines a host on transport errors instead of
/// retrying it forever.
pub const TRANSPORT_ERROR_PREFIX: &str = "transport: ";

impl TaskOutput {
    /// A status with no output.
    fn bare(status: JobStatus) -> TaskOutput {
        TaskOutput {
            status,
            stdout: String::new(),
            stderr: String::new(),
        }
    }

    /// Successful output with the given stdout.
    pub fn stdout<S: Into<String>>(out: S) -> TaskOutput {
        TaskOutput {
            status: JobStatus::Success,
            stdout: out.into(),
            stderr: String::new(),
        }
    }

    /// Successful, no output.
    pub fn success() -> TaskOutput {
        TaskOutput::stdout("")
    }

    /// Failed with an exit code and stderr message.
    pub fn failed<S: Into<String>>(code: i32, err: S) -> TaskOutput {
        TaskOutput {
            status: JobStatus::Failed(code),
            stdout: String::new(),
            stderr: err.into(),
        }
    }

    /// A transport failure: the host was unreachable, so nothing ran.
    pub fn transport_error<S: std::fmt::Display>(msg: S) -> TaskOutput {
        TaskOutput {
            status: JobStatus::ExecError(format!("{TRANSPORT_ERROR_PREFIX}{msg}")),
            stdout: String::new(),
            stderr: String::new(),
        }
    }

    /// Whether this output reports a transport failure (see
    /// [`TRANSPORT_ERROR_PREFIX`]).
    pub fn is_transport_error(&self) -> bool {
        matches!(&self.status, JobStatus::ExecError(msg) if msg.starts_with(TRANSPORT_ERROR_PREFIX))
    }
}

/// Per-attempt execution context.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecContext {
    /// Kill the attempt after this long.
    pub timeout: Option<Duration>,
}

/// Something that can run one rendered command.
///
/// Executors are shared across worker threads; implementations must be
/// `Send + Sync`. Returning `TaskOutput` with a failure status is the
/// normal way to report a failed job; the engine applies retries and halt
/// policies on top.
pub trait Executor: Send + Sync {
    /// Run one attempt of `cmd`.
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput;

    /// Whether this executor reads [`CommandLine::argv`]. The argv
    /// rendering is a per-task allocation on the engine's hot path, so
    /// the runner skips it for executors that return `false` here —
    /// such executors see an empty `argv()`. Defaults to `true` (safe
    /// for any implementation).
    fn needs_argv(&self) -> bool {
        true
    }
}

/// Executes commands as real OS processes.
///
/// With `use_shell`, GNU Parallel semantics apply: the rendered command,
/// its replacement values already shell-quoted by the template, is
/// interpreted by `sh -c` — unless the [`crate::spawn::bypass_argv`]
/// analyzer proves no shell is needed, in which case the argv execs
/// directly; quoted values alone never force the shell. Without
/// `use_shell`, the argv rendering (raw values, one word each) always
/// execs directly.
///
/// Every task launches with `posix_spawn` and is collected by the
/// pooled pidfd reaper ([`crate::spawn`]), which also writes its
/// `--pipe` block, streams its `--line-buffer` lines and enforces its
/// `--timeout`: no per-task threads, one blocking receive per task.
#[derive(Clone)]
pub struct ProcessExecutor {
    use_shell: bool,
    /// `--line-buffer`: stream each output line as it appears.
    line_cb: Option<LineCallback>,
    /// When set, the spawner emits `shell_bypass`/`sh_fallback` events
    /// carrying the per-task launch latency.
    bus: Option<Arc<EventBus>>,
}

impl std::fmt::Debug for ProcessExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessExecutor")
            .field("use_shell", &self.use_shell)
            .field("line_buffered", &self.line_cb.is_some())
            .finish()
    }
}

impl Default for ProcessExecutor {
    fn default() -> Self {
        ProcessExecutor {
            use_shell: true,
            line_cb: None,
            bus: None,
        }
    }
}

impl ProcessExecutor {
    /// Shell-mode executor (`sh -c ...`).
    pub fn shell() -> ProcessExecutor {
        ProcessExecutor::default()
    }

    /// Direct-argv executor (no shell).
    pub fn no_shell() -> ProcessExecutor {
        ProcessExecutor {
            use_shell: false,
            ..ProcessExecutor::default()
        }
    }

    /// Stream output lines to `cb` as they appear (GNU `--line-buffer`):
    /// lines from concurrent jobs interleave, each delivered the moment
    /// its newline lands, while the full output is still captured in the
    /// job's [`TaskOutput`]. `cb` runs on the reaper thread; a panic in
    /// it loses that line only.
    pub fn line_buffered<F>(mut self, cb: F) -> ProcessExecutor
    where
        F: Fn(&LineEvent) + Send + Sync + 'static,
    {
        self.line_cb = Some(Arc::new(cb));
        self
    }

    /// Emit `shell_bypass`/`sh_fallback` launch-latency events to `bus`.
    pub fn observed(mut self, bus: Arc<EventBus>) -> ProcessExecutor {
        self.bus = Some(bus);
        self
    }
}

/// Deterministic spawn-failure mapping (GNU Parallel convention): a
/// command that could not be started at all records exit 255 — one
/// joblog row, retryable and halt-visible like any other failure.
fn spawn_failure(e: &std::io::Error) -> TaskOutput {
    TaskOutput {
        status: JobStatus::Failed(255),
        stdout: String::new(),
        stderr: format!("htpar: failed to spawn job: {e}\n"),
    }
}

impl Executor for ProcessExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let plan = if self.use_shell {
            match spawn::bypass_argv(cmd.rendered()) {
                Some(argv) => LaunchPlan::Direct(argv),
                None => LaunchPlan::Shell(cmd.rendered().to_string()),
            }
        } else {
            let argv = cmd.argv();
            if argv.is_empty() {
                return TaskOutput::bare(JobStatus::ExecError("empty command".into()));
            }
            LaunchPlan::Direct(argv.to_vec())
        };
        let started = Instant::now();
        let mut spawned = match spawn::launch(&plan, cmd) {
            Ok(s) => s,
            Err(e) => return spawn_failure(&e),
        };
        if let Some(bus) = &self.bus {
            let latency_us = started.elapsed().as_micros() as u64;
            let seq = cmd.seq;
            bus.emit(if plan.is_bypass() {
                Event::ShellBypass { seq, latency_us }
            } else {
                Event::ShFallback { seq, latency_us }
            });
        }
        spawned.deadline = ctx.timeout.map(|limit| Instant::now() + limit);
        spawned.lines = self.line_cb.as_ref().map(|cb| LineSink {
            cb: Arc::clone(cb),
            seq: cmd.seq,
            slot: cmd.slot,
        });
        let Ok(collected) = spawn::Reaper::global().collect(spawned).recv() else {
            return TaskOutput::bare(JobStatus::ExecError("reaper thread exited".into()));
        };
        if collected.timed_out {
            return TaskOutput::bare(JobStatus::TimedOut);
        }
        let status = match collected.raw_status {
            Some(raw) => spawn::decode_wait_status(raw),
            None => JobStatus::ExecError("wait for child failed".into()),
        };
        TaskOutput {
            status,
            stdout: String::from_utf8_lossy(&collected.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&collected.stderr).into_owned(),
        }
    }

    /// Shell mode runs `sh -c <rendered>` and never reads the argv form.
    fn needs_argv(&self) -> bool {
        !self.use_shell
    }
}

/// Runs jobs as in-process closures.
///
/// The closure receives the rendered [`CommandLine`] and returns a
/// [`TaskOutput`] or an error string (mapped to [`JobStatus::ExecError`]).
#[derive(Clone)]
pub struct FnExecutor {
    f: Arc<TaskFn>,
}

/// The closure type [`FnExecutor`] wraps.
pub type TaskFn = dyn Fn(&CommandLine) -> Result<TaskOutput, String> + Send + Sync;

impl FnExecutor {
    /// Wrap a closure as an executor.
    pub fn new<F>(f: F) -> FnExecutor
    where
        F: Fn(&CommandLine) -> Result<TaskOutput, String> + Send + Sync + 'static,
    {
        FnExecutor { f: Arc::new(f) }
    }

    /// An executor where every job instantly succeeds — the no-op payload
    /// of the paper's launch-rate stress tests.
    pub fn noop() -> FnExecutor {
        FnExecutor::new(|_| Ok(TaskOutput::success()))
    }

    /// An executor that sleeps for a fixed duration then succeeds — the
    /// fixed-length payload of the weak-scaling studies.
    pub fn sleep(d: Duration) -> FnExecutor {
        FnExecutor::new(move |_| {
            std::thread::sleep(d);
            Ok(TaskOutput::success())
        })
    }
}

/// The in-process executor under its benchmark-facing name: the
/// launch-rate gate and stress tests run "tasks" as no-op closures so
/// they measure the engine's dispatch overhead, not fork/exec cost.
pub type InProcessExecutor = FnExecutor;

impl Executor for FnExecutor {
    fn execute(&self, cmd: &CommandLine, _ctx: &ExecContext) -> TaskOutput {
        match (self.f)(cmd) {
            Ok(out) => out,
            Err(msg) => TaskOutput {
                status: JobStatus::ExecError(msg),
                stdout: String::new(),
                stderr: String::new(),
            },
        }
    }

    /// In-process closures get the rendered command and raw args;
    /// [`CommandLine::argv`] is empty for `FnExecutor` jobs so the
    /// engine can skip the per-task argv expansion.
    fn needs_argv(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn cmdline(rendered: &str, argv: &[&str]) -> CommandLine {
        CommandLine::new(
            1,
            1,
            vec![],
            rendered.to_string(),
            argv.iter().map(|s| s.to_string()).collect(),
            vec![],
        )
    }

    #[test]
    fn shell_executor_captures_stdout() {
        let out =
            ProcessExecutor::shell().execute(&cmdline("echo hello", &[]), &ExecContext::default());
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout, "hello\n");
    }

    #[test]
    fn shell_executor_captures_stderr_and_code() {
        let out = ProcessExecutor::shell().execute(
            &cmdline("echo oops >&2; exit 3", &[]),
            &ExecContext::default(),
        );
        assert_eq!(out.status, JobStatus::Failed(3));
        assert_eq!(out.stderr, "oops\n");
    }

    #[test]
    fn no_shell_runs_argv_directly() {
        let out = ProcessExecutor::no_shell().execute(
            &cmdline("ignored", &["echo", "a b", "c"]),
            &ExecContext::default(),
        );
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout, "a b c\n");
    }

    #[test]
    fn no_shell_empty_argv_is_exec_error() {
        let out = ProcessExecutor::no_shell().execute(&cmdline("x", &[]), &ExecContext::default());
        assert!(matches!(out.status, JobStatus::ExecError(_)));
    }

    #[test]
    fn missing_binary_is_exit_255() {
        // GNU Parallel convention: a job that cannot be started at all
        // records exit 255 — from the argv form and from a shell-mode
        // command that bypasses `sh -c`.
        for exec in [ProcessExecutor::no_shell(), ProcessExecutor::shell()] {
            let out = exec.execute(
                &cmdline("/definitely/not/here", &["/definitely/not/here"]),
                &ExecContext::default(),
            );
            assert_eq!(out.status, JobStatus::Failed(255));
            assert!(
                out.stderr.contains("failed to spawn"),
                "stderr explains the failure: {:?}",
                out.stderr
            );
        }
    }

    /// The reference for the launch path: `sh -c` through
    /// `std::process`, with the env the engine sets and stdin from
    /// `/dev/null`. It shares no code with `spawn`.
    fn std_sh(rendered: &str) -> TaskOutput {
        use std::os::unix::process::ExitStatusExt;
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg(rendered)
            .env("PARALLEL_SEQ", "1")
            .env("PARALLEL_JOBSLOT", "1")
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run sh");
        let status = match (out.status.code(), out.status.signal()) {
            (Some(0), _) => JobStatus::Success,
            (Some(code), _) => JobStatus::Failed(code),
            (None, sig) => JobStatus::Signaled(sig.unwrap_or(0)),
        };
        TaskOutput {
            status,
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        }
    }

    #[test]
    fn fast_and_legacy_paths_agree() {
        for rendered in [
            "/bin/echo plain-bypass",
            "echo needs a shell; echo second >&2; exit 4",
        ] {
            let fast =
                ProcessExecutor::shell().execute(&cmdline(rendered, &[]), &ExecContext::default());
            let reference = std_sh(rendered);
            assert_eq!(fast.status, reference.status, "{rendered}");
            assert_eq!(fast.stdout, reference.stdout, "{rendered}");
            assert_eq!(fast.stderr, reference.stderr, "{rendered}");
        }
    }

    #[test]
    fn fast_path_timeout_kills_bypassed_job() {
        let ctx = ExecContext {
            timeout: Some(Duration::from_millis(50)),
        };
        let start = Instant::now();
        // `sleep 5` has no metacharacters, so this exercises the
        // timeout machinery on the posix_spawn/pidfd path.
        let out = ProcessExecutor::shell().execute(&cmdline("sleep 5", &[]), &ctx);
        assert_eq!(out.status, JobStatus::TimedOut);
        assert!(start.elapsed() < Duration::from_secs(2), "kill was prompt");
    }

    #[test]
    fn observed_executor_emits_spawn_path_events() {
        let recorder = htpar_telemetry::Recorder::shared();
        let bus = EventBus::shared();
        bus.attach(Arc::clone(&recorder) as _);
        let exec = ProcessExecutor::shell().observed(Arc::clone(&bus));
        exec.execute(&cmdline("/bin/echo direct", &[]), &ExecContext::default());
        exec.execute(&cmdline("echo a; echo b", &[]), &ExecContext::default());
        let kinds = recorder.kinds();
        assert!(kinds.contains(&"shell_bypass"), "events: {kinds:?}");
        assert!(kinds.contains(&"sh_fallback"), "events: {kinds:?}");
    }

    #[test]
    fn timeout_kills_runaway_job() {
        let ctx = ExecContext {
            timeout: Some(Duration::from_millis(50)),
        };
        let start = Instant::now();
        let out = ProcessExecutor::shell().execute(&cmdline("sleep 5", &[]), &ctx);
        assert_eq!(out.status, JobStatus::TimedOut);
        assert!(start.elapsed() < Duration::from_secs(2), "kill was prompt");
    }

    #[test]
    fn env_vars_reach_the_job() {
        let mut cmd = cmdline(
            "echo seq=$PARALLEL_SEQ slot=$PARALLEL_JOBSLOT dev=$DEV",
            &[],
        );
        cmd.env.push(("DEV".into(), "3".into()));
        let out = ProcessExecutor::shell().execute(&cmd, &ExecContext::default());
        assert_eq!(out.stdout, "seq=1 slot=1 dev=3\n");
    }

    #[test]
    fn large_output_does_not_deadlock() {
        // 1 MiB of output through the pipe.
        let out = ProcessExecutor::shell().execute(
            &cmdline("head -c 1048576 /dev/zero | tr '\\0' 'x'", &[]),
            &ExecContext::default(),
        );
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout.len(), 1048576);
    }

    #[test]
    fn stdin_block_reaches_the_child() {
        let cmd = cmdline("wc -l", &[]).with_stdin("a\nb\nc\n".to_string());
        let out = ProcessExecutor::shell().execute(&cmd, &ExecContext::default());
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout.trim(), "3");
    }

    #[test]
    fn large_stdin_block_does_not_deadlock() {
        let block = "x".repeat(1 << 20);
        let cmd = cmdline("cat", &[]).with_stdin(block.clone());
        let out = ProcessExecutor::shell().execute(&cmd, &ExecContext::default());
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout.len(), block.len());
    }

    #[test]
    fn line_buffer_streams_lines_while_capturing() {
        use std::sync::Mutex;
        let events: Arc<Mutex<Vec<(u64, StreamKind, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&events);
        let exec = ProcessExecutor::shell().line_buffered(move |ev| {
            let line = String::from_utf8_lossy(&ev.line).into_owned();
            e2.lock().unwrap().push((ev.seq, ev.kind, line));
        });
        let out = exec.execute(
            &cmdline("echo one; echo err >&2; echo two", &[]),
            &ExecContext::default(),
        );
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout, "one\ntwo\n", "full capture intact");
        assert_eq!(out.stderr, "err\n");
        let events = events.lock().unwrap();
        let stdout_lines: Vec<&str> = events
            .iter()
            .filter(|(_, k, _)| *k == StreamKind::Stdout)
            .map(|(_, _, l)| l.as_str())
            .collect();
        assert_eq!(stdout_lines, vec!["one", "two"]);
        assert!(events
            .iter()
            .any(|(_, k, l)| *k == StreamKind::Stderr && l == "err"));
    }

    #[test]
    fn line_buffer_interleaves_concurrent_jobs() {
        use crate::prelude::Parallel;
        use std::sync::Mutex;
        let events: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&events);
        let exec = ProcessExecutor::shell().line_buffered(move |ev| {
            e2.lock().unwrap().push(ev.seq);
        });
        // Two jobs each emit two spaced lines; with 2 slots their lines
        // interleave in arrival order.
        let report = Parallel::new("echo a-{}; sleep 0.08; echo b-{}")
            .jobs(2)
            .executor(exec)
            .args(["1", "2"])
            .run()
            .unwrap();
        assert!(report.all_succeeded());
        let seqs = events.lock().unwrap().clone();
        assert_eq!(seqs.len(), 4);
        // Both jobs' first lines arrive before either job's second line.
        let first_two: std::collections::HashSet<u64> = seqs[..2].iter().copied().collect();
        assert_eq!(first_two.len(), 2, "interleaved: {seqs:?}");
    }

    #[test]
    fn line_buffer_streams_bytes_and_the_unterminated_tail() {
        use std::sync::Mutex;
        let lines: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let l2 = Arc::clone(&lines);
        let exec = ProcessExecutor::shell().line_buffered(move |ev| {
            l2.lock().unwrap().push(ev.line.clone());
        });
        let out = exec.execute(
            &cmdline(r"printf 'a\n\377b\nc'", &[]),
            &ExecContext::default(),
        );
        assert_eq!(out.status, JobStatus::Success);
        let want: Vec<Vec<u8>> = vec![b"a".to_vec(), b"\xffb".to_vec(), b"c".to_vec()];
        assert_eq!(*lines.lock().unwrap(), want);
    }

    #[test]
    fn a_panicking_line_callback_spares_the_reaper() {
        let exec = ProcessExecutor::shell().line_buffered(|ev| {
            assert!(ev.line != b"boom", "callback panics on purpose");
        });
        let out = exec.execute(
            &cmdline("echo boom; echo after", &[]),
            &ExecContext::default(),
        );
        assert_eq!(out.status, JobStatus::Success);
        assert_eq!(out.stdout, "boom\nafter\n", "capture is whole");
        // The reaper thread survived: the next job still completes.
        let out = ProcessExecutor::shell()
            .execute(&cmdline("/bin/echo next", &[]), &ExecContext::default());
        assert_eq!(out.stdout, "next\n");
    }

    #[test]
    fn timeout_with_a_grandchild_holding_the_pipes_frees_the_slot() {
        use crate::prelude::Parallel;
        use std::sync::Mutex;
        let statuses: Arc<Mutex<Vec<(u64, JobStatus)>>> = Arc::default();
        let s2 = Arc::clone(&statuses);
        let start = Instant::now();
        // One slot: job 2 can start only once job 1's slot is free, and
        // job 1's background `sleep 3` keeps its pipes open for 3 s.
        let report = Parallel::new("if [ {} = 1 ]; then sleep 3 & sleep 3; else echo next; fi")
            .jobs(1)
            .timeout(Duration::from_millis(200))
            .args(["1", "2"])
            .on_result(move |r| s2.lock().unwrap().push((r.seq, r.status.clone())))
            .run()
            .unwrap();
        let elapsed = start.elapsed();
        let mut statuses = statuses.lock().unwrap().clone();
        statuses.sort_by_key(|(seq, _)| *seq);
        assert_eq!(
            statuses,
            vec![(1, JobStatus::TimedOut), (2, JobStatus::Success)]
        );
        assert_eq!(report.failed, 1);
        assert!(
            elapsed < Duration::from_secs(2),
            "slot held for {elapsed:?}"
        );
    }

    #[test]
    fn timeout_kills_a_pipe_job_that_never_reads_its_block() {
        let ctx = ExecContext {
            timeout: Some(Duration::from_millis(200)),
        };
        let cmd = cmdline("sleep 3", &[]).with_stdin("x".repeat(2 << 20));
        let start = Instant::now();
        let out = ProcessExecutor::shell().execute(&cmd, &ctx);
        assert_eq!(out.status, JobStatus::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn fn_executor_runs_closure() {
        let exec = FnExecutor::new(|cmd| Ok(TaskOutput::stdout(format!("got {}", cmd.rendered()))));
        let out = exec.execute(&cmdline("payload", &[]), &ExecContext::default());
        assert_eq!(out.stdout, "got payload");
    }

    #[test]
    fn fn_executor_error_maps_to_exec_error() {
        let exec = FnExecutor::new(|_| Err("boom".into()));
        let out = exec.execute(&cmdline("x", &[]), &ExecContext::default());
        assert_eq!(out.status, JobStatus::ExecError("boom".into()));
    }

    #[test]
    fn noop_and_sleep_helpers() {
        let out = FnExecutor::noop().execute(&cmdline("x", &[]), &ExecContext::default());
        assert_eq!(out.status, JobStatus::Success);
        let start = Instant::now();
        let out = FnExecutor::sleep(Duration::from_millis(30))
            .execute(&cmdline("x", &[]), &ExecContext::default());
        assert_eq!(out.status, JobStatus::Success);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }
}
