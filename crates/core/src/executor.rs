//! Pluggable job executors.
//!
//! The scheduling engine is independent of *how* a command runs. Three
//! executors ship here and in the simulator crates:
//!
//! - [`ProcessExecutor`] — real OS processes, via `sh -c` or direct argv;
//!   a rendered command whose only shell syntax is quoted values runs
//!   as argv. Used by the stress benchmarks that measure this machine's
//!   actual process launch rate (paper Fig. 3).
//! - [`FnExecutor`] — an in-process closure. Used by tests, in-memory
//!   workloads, and anywhere fork/exec cost would drown the signal.
//! - `htpar-cluster`'s simulated executor — runs `CommandLine`s on a
//!   simulated supercomputer.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_telemetry::{Event, EventBus};

use crate::deadline::{DeadlineWheel, TimerGuard};
use crate::job::{CommandLine, JobStatus};
use crate::spawn::{self, LaunchPlan};

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
    /// The line, without its trailing newline.
    pub line: String,
}

/// Callback receiving lines as they are produced, while jobs still run.
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
/// On Linux, plain commands (no `--pipe` stdin block, no
/// `--line-buffer` streaming) take the launch fast path
/// ([`crate::spawn`]): `posix_spawn` + the pooled pidfd reaper, no
/// per-task threads. Everything else — and every platform without
/// `pidfd_open` — runs the portable `std::process::Command` path.
/// [`ProcessExecutor::legacy`] forces the portable path, which the
/// spawn-rate gate uses as its "before" arm.
#[derive(Clone)]
pub struct ProcessExecutor {
    use_shell: bool,
    /// `--line-buffer`: stream each output line as it appears.
    line_cb: Option<LineCallback>,
    /// Force the portable `std::process` path.
    legacy: bool,
    /// When set, the spawner emits `shell_bypass`/`sh_fallback` events
    /// carrying the per-task launch latency.
    bus: Option<Arc<EventBus>>,
}

impl std::fmt::Debug for ProcessExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessExecutor")
            .field("use_shell", &self.use_shell)
            .field("line_buffered", &self.line_cb.is_some())
            .field("legacy", &self.legacy)
            .finish()
    }
}

impl Default for ProcessExecutor {
    fn default() -> Self {
        ProcessExecutor {
            use_shell: true,
            line_cb: None,
            legacy: false,
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
    /// job's [`TaskOutput`].
    pub fn line_buffered<F>(mut self, cb: F) -> ProcessExecutor
    where
        F: Fn(&LineEvent) + Send + Sync + 'static,
    {
        self.line_cb = Some(Arc::new(cb));
        self
    }

    /// Force the portable `std::process::Command` path (no
    /// `posix_spawn`, no shell bypass, per-task reader threads). The
    /// spawn-rate gate measures this as its "before" arm.
    pub fn legacy(mut self) -> ProcessExecutor {
        self.legacy = true;
        self
    }

    /// Emit `shell_bypass`/`sh_fallback` launch-latency events to `bus`.
    pub fn observed(mut self, bus: Arc<EventBus>) -> ProcessExecutor {
        self.bus = Some(bus);
        self
    }

    /// Whether this task runs on the launch fast path: Linux with
    /// `pidfd_open`, not forced legacy, and a plain command (a `--pipe`
    /// stdin block needs a writer thread; `--line-buffer` needs
    /// per-line streaming — both stay on the portable path).
    fn fast_eligible(&self, cmd: &CommandLine) -> bool {
        cfg!(target_os = "linux")
            && !self.legacy
            && self.line_cb.is_none()
            && cmd.stdin.is_none()
            && spawn::fast_path_available()
    }

    fn build_command(&self, cmd: &CommandLine) -> Option<Command> {
        let mut command = if self.use_shell {
            let mut c = Command::new("sh");
            c.arg("-c").arg(cmd.rendered());
            c
        } else {
            let argv = cmd.argv();
            let program = argv.first()?;
            let mut c = Command::new(program);
            c.args(&argv[1..]);
            c
        };
        command.env("PARALLEL_SEQ", cmd.seq.to_string());
        command.env("PARALLEL_JOBSLOT", cmd.slot.to_string());
        for (k, v) in &cmd.env {
            command.env(k, v);
        }
        if cmd.stdin.is_some() {
            command.stdin(Stdio::piped());
        } else {
            command.stdin(Stdio::null());
        }
        command.stdout(Stdio::piped());
        command.stderr(Stdio::piped());
        Some(command)
    }

    /// The launch fast path: shell-bypass analysis, `posix_spawn`, and
    /// collection through the pooled pidfd reaper.
    fn execute_fast(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let plan = if self.use_shell {
            match spawn::bypass_argv(cmd.rendered()) {
                Some(argv) => LaunchPlan::Direct(argv),
                None => LaunchPlan::Shell(cmd.rendered().to_string()),
            }
        } else {
            let argv = cmd.argv();
            if argv.is_empty() {
                return TaskOutput {
                    status: JobStatus::ExecError("empty command".into()),
                    stdout: String::new(),
                    stderr: String::new(),
                };
            }
            LaunchPlan::Direct(argv.to_vec())
        };
        let started = Instant::now();
        let spawned = match spawn::launch(&plan, cmd) {
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
        let pid = spawned.pid as u32;
        let timer = ctx.timeout.map(|limit| DeadlineWheel::arm_kill(pid, limit));
        let collected = if spawned.pidfd >= 0 {
            wait_collect(spawn::Reaper::global().collect(spawned), &timer)
        } else {
            // `pidfd_open` failed after a successful spawn (fd
            // pressure): degraded blocking collection, never a leak.
            Some(spawn::collect_inline(spawned))
        };
        let Some(collected) = collected else {
            // Abandoned: our timer killed the child but a grandchild
            // holds the pipes open. Same contract as the portable
            // path — report the timeout now, let the reaper finish
            // draining in the background.
            return TaskOutput {
                status: JobStatus::TimedOut,
                stdout: String::new(),
                stderr: String::new(),
            };
        };
        if let (Some(timer), Some(raw)) = (&timer, collected.raw_status) {
            if timer.fired() && !spawn::status_exited(raw) {
                return TaskOutput {
                    status: JobStatus::TimedOut,
                    stdout: String::new(),
                    stderr: String::new(),
                };
            }
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

/// Block until the reaper delivers the task's collection. With a
/// timeout armed, poll the guard so a kill whose EOF never arrives (a
/// grandchild inherited the pipes) abandons collection after a short
/// grace instead of stalling the slot for the grandchild's lifetime.
fn wait_collect(
    rx: crate::crossbeam_channel::Receiver<spawn::Collected>,
    timer: &Option<TimerGuard>,
) -> Option<spawn::Collected> {
    use crate::crossbeam_channel::RecvTimeoutError;
    let Some(timer) = timer else {
        return rx.recv().ok();
    };
    let mut fired_at: Option<Instant> = None;
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(collected) => return Some(collected),
            Err(RecvTimeoutError::Disconnected) => return None,
            Err(RecvTimeoutError::Timeout) => {
                if timer.fired() {
                    let at = *fired_at.get_or_insert_with(Instant::now);
                    if at.elapsed() > Duration::from_millis(500) {
                        return None;
                    }
                }
            }
        }
    }
}

impl ProcessExecutor {
    fn execute_legacy(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let Some(mut command) = self.build_command(cmd) else {
            return TaskOutput {
                status: JobStatus::ExecError("empty command".into()),
                stdout: String::new(),
                stderr: String::new(),
            };
        };
        let mut child = match command.spawn() {
            Ok(c) => c,
            Err(e) => return spawn_failure(&e),
        };
        // Feed stdin on its own thread (a large --pipe block must not
        // deadlock against the output pipes), and drain output pipes on
        // background threads so a chatty child can never deadlock against
        // a full pipe while we wait on it.
        if let (Some(mut child_stdin), Some(block)) = (child.stdin.take(), cmd.stdin.clone()) {
            std::thread::spawn(move || {
                use std::io::Write;
                let _ = child_stdin.write_all(block.as_bytes());
            });
        }
        let (stdout_handle, stderr_handle) = match &self.line_cb {
            None => (
                child.stdout.take().map(spawn_reader),
                child.stderr.take().map(spawn_reader),
            ),
            Some(cb) => (
                child.stdout.take().map(|r| {
                    spawn_line_reader(r, cmd.seq, cmd.slot, StreamKind::Stdout, Arc::clone(cb))
                }),
                child.stderr.take().map(|r| {
                    spawn_line_reader(r, cmd.seq, cmd.slot, StreamKind::Stderr, Arc::clone(cb))
                }),
            ),
        };

        // Block in wait(2) — zero CPU while the job runs. Timeout
        // enforcement is delegated to the process-wide deadline wheel:
        // one timer armed per attempt, cancelled on drop when the guard
        // goes out of scope, so idle slots never poll.
        let timer = ctx
            .timeout
            .map(|limit| DeadlineWheel::arm_kill(child.id(), limit));
        let exit = match child.wait() {
            Ok(status) => status,
            Err(e) => {
                return TaskOutput {
                    status: JobStatus::ExecError(e.to_string()),
                    stdout: join_reader(stdout_handle),
                    stderr: join_reader(stderr_handle),
                }
            }
        };
        if let Some(timer) = &timer {
            // Attribute a signal death to the timeout only if our timer
            // actually delivered the kill; a job killed from elsewhere
            // stays `Signaled`.
            if timer.fired() && exit.code().is_none() {
                // Do not join the pipe readers: a grandchild that
                // survived the kill may hold the pipe open and would
                // stall us for its full lifetime. The detached reader
                // threads exit when the pipe finally closes.
                return TaskOutput {
                    status: JobStatus::TimedOut,
                    stdout: String::new(),
                    stderr: String::new(),
                };
            }
        }

        let stdout = join_reader(stdout_handle);
        let stderr = join_reader(stderr_handle);
        let status = if exit.success() {
            JobStatus::Success
        } else if let Some(code) = exit.code() {
            JobStatus::Failed(code)
        } else {
            #[cfg(unix)]
            {
                use std::os::unix::process::ExitStatusExt;
                JobStatus::Signaled(exit.signal().unwrap_or(0))
            }
            #[cfg(not(unix))]
            {
                JobStatus::Failed(-1)
            }
        };
        TaskOutput {
            status,
            stdout,
            stderr,
        }
    }
}

impl Executor for ProcessExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        if self.fast_eligible(cmd) {
            self.execute_fast(cmd, ctx)
        } else {
            self.execute_legacy(cmd, ctx)
        }
    }

    /// Shell mode runs `sh -c <rendered>` and never reads the argv form.
    fn needs_argv(&self) -> bool {
        !self.use_shell
    }
}

type ReaderHandle = std::thread::JoinHandle<String>;

fn spawn_reader<R: Read + Send + 'static>(mut r: R) -> ReaderHandle {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = r.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    })
}

/// Reader that emits a [`LineEvent`] per line while accumulating the
/// full stream.
fn spawn_line_reader<R: Read + Send + 'static>(
    r: R,
    seq: u64,
    slot: usize,
    kind: StreamKind,
    cb: LineCallback,
) -> ReaderHandle {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(r);
        let mut acc = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    acc.push_str(&line);
                    cb(&LineEvent {
                        seq,
                        slot,
                        kind,
                        line: line.trim_end_matches('\n').to_string(),
                    });
                }
            }
        }
        acc
    })
}

fn join_reader(handle: Option<ReaderHandle>) -> String {
    handle.and_then(|h| h.join().ok()).unwrap_or_default()
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
        // records exit 255 — on the fast path and the portable path.
        for exec in [
            ProcessExecutor::no_shell(),
            ProcessExecutor::no_shell().legacy(),
        ] {
            let out = exec.execute(
                &cmdline("x", &["/definitely/not/here"]),
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

    #[test]
    fn fast_and_legacy_paths_agree() {
        for rendered in [
            "/bin/echo plain-bypass",
            "echo needs a shell; echo second >&2; exit 4",
        ] {
            let fast =
                ProcessExecutor::shell().execute(&cmdline(rendered, &[]), &ExecContext::default());
            let legacy = ProcessExecutor::shell()
                .legacy()
                .execute(&cmdline(rendered, &[]), &ExecContext::default());
            assert_eq!(fast.status, legacy.status, "{rendered}");
            assert_eq!(fast.stdout, legacy.stdout, "{rendered}");
            assert_eq!(fast.stderr, legacy.stderr, "{rendered}");
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
            e2.lock().unwrap().push((ev.seq, ev.kind, ev.line.clone()));
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
