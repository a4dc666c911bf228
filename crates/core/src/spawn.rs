//! The process-launch path: `posix_spawn`, shell bypass, and a pooled
//! pidfd reaper that owns every child from spawn to delivery.
//!
//! The paper's headline metric is per-task *launch* overhead on real
//! processes (Fig. 3), and the classic pilot-system bottleneck is
//! exactly the launcher's fork/exec path. A naive launcher pays three
//! separate taxes per task: a full `fork` of the (possibly large-RSS)
//! driver, an extra `/bin/sh` exec layer for every command, and 2–3
//! freshly spawned reader/writer/waiter threads. This module removes
//! all three:
//!
//! - **`posix_spawn` FFI** ([`launch`]): vfork-class process creation —
//!   the child borrows the parent's address space until exec, so spawn
//!   cost no longer scales with driver RSS. Argv and envp are built in
//!   per-thread byte arenas ([`Arena`]) that reach a zero-allocation
//!   steady state: one contiguous buffer of NUL-terminated strings plus
//!   reused pointer tables, refilled per task.
//! - **Shell bypass** ([`bypass_argv`]): commands whose rendered text
//!   has no unquoted shell metacharacter (and whose first word is not
//!   a shell reserved word or builtin) exec directly as argv, skipping
//!   the `sh -c` layer entirely. The analyzer reads the quotes
//!   [`crate::template::shell_quote`] puts around replacement values,
//!   so a quoted value never forces the shell. Anything else falls
//!   back to `sh -c`, preserving GNU Parallel semantics byte-for-byte.
//! - **Pooled reaper** ([`Reaper`]): one thread owns an epoll
//!   [`Reactor`] registered with every in-flight child's pipes and its
//!   pidfd (`pidfd_open(2)`). It writes a `--pipe` block into the
//!   child's stdin as the pipe drains, reads stdout/stderr into
//!   per-task buffers (streaming each `--line-buffer` line as it
//!   lands), reaps exits with `WNOHANG` when the pidfd turns readable,
//!   and enforces `--timeout` with a reactor timer and `kill(2)`. A
//!   child without a pidfd (pre-5.3 kernel, fd exhaustion) is polled
//!   on a short timer instead. The worker that spawned the task blocks
//!   on a one-shot channel. Thread count is O(slots), not O(tasks).
//!
//! [`crate::executor::ProcessExecutor`] runs every command through this
//! path — see DESIGN.md §14.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ffi::c_void;
use std::io;
use std::os::fd::RawFd;
use std::panic::AssertUnwindSafe;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};

use crate::executor::{LineCallback, LineEvent, StreamKind};
use crate::job::{CommandLine, JobStatus};
use crate::reactor::{Interest, PollEvent, Reactor, TimerKey, WakeHandle, Waker};

// -- FFI ---------------------------------------------------------------

mod sys {
    use std::ffi::c_void;
    use std::os::raw::{c_char, c_int, c_long};

    /// `posix_spawn_file_actions_t`: glibc and musl both lay it out as
    /// two ints, a pointer, and 16 ints of padding (80 bytes, align 8).
    #[repr(C)]
    pub struct FileActions {
        pub allocated: c_int,
        pub used: c_int,
        pub actions: *mut c_void,
        pub pad: [c_int; 16],
    }

    pub const O_RDONLY: c_int = 0;
    pub const O_CLOEXEC: c_int = 0o2000000;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const F_SETFL: c_int = 4;
    pub const WNOHANG: c_int = 1;
    pub const SIGKILL: c_int = 9;
    /// `pidfd_open` has one syscall number on every 64-bit arch (it
    /// postdates the asm-generic unification).
    pub const SYS_PIDFD_OPEN: c_long = 434;

    extern "C" {
        pub fn posix_spawn_file_actions_init(fa: *mut FileActions) -> c_int;
        pub fn posix_spawn_file_actions_destroy(fa: *mut FileActions) -> c_int;
        pub fn posix_spawn_file_actions_adddup2(
            fa: *mut FileActions,
            fd: c_int,
            newfd: c_int,
        ) -> c_int;
        pub fn posix_spawnp(
            pid: *mut c_int,
            file: *const c_char,
            file_actions: *const FileActions,
            attrp: *const c_void,
            argv: *const *mut c_char,
            envp: *const *mut c_char,
        ) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn open(path: *const c_char, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        pub fn syscall(num: c_long, ...) -> c_long;
    }
}

// -- Shell-bypass analyzer ---------------------------------------------

/// First words that must reach a shell even when every byte is safe:
/// POSIX reserved words plus builtins whose shell semantics differ from
/// (or do not exist as) an external binary. Sorted for binary search.
const SHELL_WORDS: &[&str] = &[
    ".", ":", "[", "alias", "bg", "break", "builtin", "case", "cd", "command", "continue",
    "coproc", "declare", "do", "done", "echo", "elif", "else", "esac", "eval", "exec", "exit",
    "export", "false", "fg", "fi", "for", "function", "getopts", "hash", "if", "in", "jobs",
    "kill", "let", "local", "printf", "pwd", "read", "readonly", "return", "select", "set",
    "shift", "source", "test", "then", "time", "times", "trap", "true", "type", "ulimit", "umask",
    "unalias", "unset", "until", "wait", "while",
];

/// Bytes that never need shell interpretation outside quotes: a lookup
/// table, since the analyzer reads every byte of every command.
/// Everything outside this set — globs, redirects, `$`, backticks,
/// braces, `~`, `#`, `!`, backslash, newlines, non-ASCII, and quotes
/// other than the two forms [`bypass_argv`] reads — forces the `sh -c`
/// path.
static SAFE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric()
            || matches!(
                c,
                b'_' | b'-' | b'.' | b'/' | b':' | b'@' | b'%' | b'+' | b',' | b'='
            );
        b += 1;
    }
    table
};

/// Shell-bypass analysis: if `rendered` can exec directly as argv with
/// semantics identical to `sh -c <rendered>`, return that argv.
///
/// The rules are deliberately conservative (GNU Parallel's approach):
/// words are separated by spaces and tabs, and a word is built from
/// [`SAFE`] bytes plus exactly the two quote forms
/// [`crate::template::shell_quote`] writes: a `'…'` span, whose bytes
/// are all literal, and a run of `'` inside `"…"`. So a quoted
/// value never forces a shell, while an unquoted metacharacter, an
/// unbalanced quote and any other `"` do. The first word may not be
/// quoted, may not contain `=` (a shell variable assignment) and may
/// not be a reserved word or builtin ([`SHELL_WORDS`]). `None` means
/// "needs a shell".
pub fn bypass_argv(rendered: &str) -> Option<Vec<String>> {
    let b = rendered.as_bytes();
    let mut words: Vec<String> = Vec::new();
    let mut i = 0;
    loop {
        while i < b.len() && matches!(b[i], b' ' | b'\t') {
            i += 1;
        }
        if i == b.len() {
            break;
        }
        // Every cut below sits next to an ASCII byte, so slicing
        // `rendered` never splits a character.
        let mut word = String::new();
        let mut quoted = false;
        while i < b.len() && !matches!(b[i], b' ' | b'\t') {
            let start = i;
            match b[i] {
                b'\'' => {
                    let len = b[i + 1..].iter().position(|&c| c == b'\'')?;
                    word.push_str(&rendered[i + 1..i + 1 + len]);
                    i += len + 2;
                    quoted = true;
                }
                b'"' => {
                    let len = b[i + 1..].iter().take_while(|&&c| c == b'\'').count();
                    if len == 0 || b.get(i + 1 + len) != Some(&b'"') {
                        return None;
                    }
                    word.push_str(&rendered[i + 1..i + 1 + len]);
                    i += len + 2;
                    quoted = true;
                }
                _ => {
                    while i < b.len() && SAFE[b[i] as usize] {
                        i += 1;
                    }
                    if i == start {
                        return None; // an unquoted metacharacter
                    }
                    word.push_str(&rendered[start..i]);
                }
            }
        }
        if words.is_empty()
            && (quoted || word.contains('=') || SHELL_WORDS.binary_search(&word.as_str()).is_ok())
        {
            return None;
        }
        words.push(word);
    }
    (!words.is_empty()).then_some(words)
}

// -- Launch plan and spawn ---------------------------------------------

/// How the fast path will exec one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchPlan {
    /// Direct argv exec: the command passed [`bypass_argv`] (or the
    /// executor is in no-shell mode).
    Direct(Vec<String>),
    /// `sh -c <rendered>` — the command needs shell interpretation.
    Shell(String),
}

impl LaunchPlan {
    /// Whether this plan skips the shell.
    pub fn is_bypass(&self) -> bool {
        matches!(self, LaunchPlan::Direct(_))
    }
}

/// A child launched by [`launch`]: its pid, a pidfd for exit
/// notification (`-1` when `pidfd_open` failed), the parent's
/// non-blocking ends of its pipes, and what the [`Reaper`] does for it
/// besides collecting its exit and output.
#[derive(Debug)]
pub struct Spawned {
    pub pid: i32,
    pub pidfd: RawFd,
    pub stdout_fd: RawFd,
    pub stderr_fd: RawFd,
    /// The write end of the child's stdin pipe and the `--pipe` block to
    /// write into it; `None` when stdin is `/dev/null`.
    pub stdin: Option<(RawFd, Vec<u8>)>,
    /// `--timeout`: SIGKILL the child if it has not exited by then.
    pub deadline: Option<Instant>,
    /// `--line-buffer`: where each output line goes as it lands.
    pub lines: Option<LineSink>,
}

/// A `--line-buffer` callback and the job whose lines it receives.
pub struct LineSink {
    pub cb: LineCallback,
    pub seq: u64,
    pub slot: usize,
}

impl std::fmt::Debug for LineSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineSink")
            .field("seq", &self.seq)
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

impl LineSink {
    /// Hand one line to the callback. A panicking callback loses its
    /// line, not the reaper thread every other job depends on.
    fn emit(&self, kind: StreamKind, line: &[u8]) {
        let event = LineEvent {
            seq: self.seq,
            slot: self.slot,
            kind,
            line: line.to_vec(),
        };
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| (self.cb)(&event)));
    }
}

/// Per-thread reusable spawn buffers: all argv/env strings for one
/// launch live NUL-terminated in a single byte buffer, with pointer
/// tables rebuilt over it. After the first few tasks on a slot the
/// whole launch path allocates nothing.
#[derive(Default)]
struct Arena {
    bytes: Vec<u8>,
    argv_starts: Vec<usize>,
    env_starts: Vec<usize>,
    argv_ptrs: Vec<*mut std::os::raw::c_char>,
    env_ptrs: Vec<*mut std::os::raw::c_char>,
}

impl Arena {
    fn reset(&mut self) {
        self.bytes.clear();
        self.argv_starts.clear();
        self.env_starts.clear();
        self.argv_ptrs.clear();
        self.env_ptrs.clear();
    }

    /// Append `parts` as one NUL-terminated string, returning its start
    /// offset. Interior NULs are a caller bug surfaced as InvalidInput.
    fn push_cstr(&mut self, parts: &[&[u8]]) -> io::Result<usize> {
        let start = self.bytes.len();
        for p in parts {
            if p.contains(&0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "argument or env var contains NUL",
                ));
            }
            self.bytes.extend_from_slice(p);
        }
        self.bytes.push(0);
        Ok(start)
    }

    fn push_argv(&mut self, s: &str) -> io::Result<()> {
        let start = self.push_cstr(&[s.as_bytes()])?;
        self.argv_starts.push(start);
        Ok(())
    }

    fn push_env(&mut self, k: &[u8], v: &[u8]) -> io::Result<()> {
        let start = self.push_cstr(&[k, b"=", v])?;
        self.env_starts.push(start);
        Ok(())
    }

    /// Build the NULL-terminated pointer tables. Must run after the
    /// last push (offsets survive reallocation; pointers would not).
    fn finish(&mut self) {
        let base = self.bytes.as_ptr();
        for &s in &self.argv_starts {
            self.argv_ptrs
                .push(unsafe { base.add(s) } as *mut std::os::raw::c_char);
        }
        self.argv_ptrs.push(std::ptr::null_mut());
        for &s in &self.env_starts {
            self.env_ptrs
                .push(unsafe { base.add(s) } as *mut std::os::raw::c_char);
        }
        self.env_ptrs.push(std::ptr::null_mut());
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

/// Shared read end of `/dev/null` dup2'd onto the stdin of every child
/// that gets no `--pipe` block.
fn dev_null() -> io::Result<RawFd> {
    static FD: OnceLock<RawFd> = OnceLock::new();
    let fd = *FD.get_or_init(|| unsafe {
        sys::open(c"/dev/null".as_ptr(), sys::O_RDONLY | sys::O_CLOEXEC)
    });
    if fd < 0 {
        return Err(io::Error::new(io::ErrorKind::NotFound, "open /dev/null"));
    }
    Ok(fd)
}

/// Open a CLOEXEC pipe into `ends` as `[read, write]`.
fn cloexec_pipe(ends: &mut [RawFd]) -> io::Result<()> {
    let mut fds = [0i32; 2];
    if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_CLOEXEC) } < 0 {
        return Err(io::Error::last_os_error());
    }
    ends.copy_from_slice(&fds);
    Ok(())
}

fn close_fd(fd: RawFd) {
    if fd >= 0 {
        unsafe { sys::close(fd) };
    }
}

fn set_nonblocking(fd: RawFd) {
    // SAFETY: `fcntl(F_SETFL)` takes an int and touches no memory; a
    // bad fd only makes it fail.
    unsafe { sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK) };
}

/// Launch one command via `posix_spawnp`: stdin from a fresh pipe when
/// the task carries a `--pipe` block (copied into the returned
/// [`Spawned`] for the reaper to write) and from `/dev/null` otherwise,
/// stdout/stderr to fresh pipes, env = parent env + `PARALLEL_SEQ` /
/// `PARALLEL_JOBSLOT` + the task's own vars (task vars win). Returns
/// the child with non-blocking parent ends; on error every fd is closed
/// and nothing ran.
pub fn launch(plan: &LaunchPlan, cmd: &CommandLine) -> io::Result<Spawned> {
    ARENA.with(|cell| {
        let arena = &mut *cell.borrow_mut();
        arena.reset();
        match plan {
            LaunchPlan::Direct(words) => {
                if words.is_empty() {
                    return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty command"));
                }
                for w in words {
                    arena.push_argv(w)?;
                }
            }
            LaunchPlan::Shell(line) => {
                arena.push_argv("sh")?;
                arena.push_argv("-c")?;
                arena.push_argv(line)?;
            }
        }
        build_env(arena, cmd)?;
        arena.finish();
        spawn_with(arena, plan, cmd.stdin.as_deref())
    })
}

/// Fill the arena's env table: parent environment minus overridden
/// keys, then `PARALLEL_SEQ`/`PARALLEL_JOBSLOT`, then the task's vars —
/// the precedence a `std::process` child gets from `.env(..)` calls.
fn build_env(arena: &mut Arena, cmd: &CommandLine) -> io::Result<()> {
    use std::os::unix::ffi::OsStrExt;
    let seq = cmd.seq.to_string();
    let slot = cmd.slot.to_string();
    let overridden = |key: &[u8]| -> bool {
        key == b"PARALLEL_SEQ"
            || key == b"PARALLEL_JOBSLOT"
            || cmd.env.iter().any(|(k, _)| k.as_bytes() == key)
    };
    for (k, v) in std::env::vars_os() {
        if overridden(k.as_bytes()) {
            continue;
        }
        arena.push_env(k.as_bytes(), v.as_bytes())?;
    }
    if !cmd.env.iter().any(|(k, _)| k == "PARALLEL_SEQ") {
        arena.push_env(b"PARALLEL_SEQ", seq.as_bytes())?;
    }
    if !cmd.env.iter().any(|(k, _)| k == "PARALLEL_JOBSLOT") {
        arena.push_env(b"PARALLEL_JOBSLOT", slot.as_bytes())?;
    }
    for (k, v) in &cmd.env {
        arena.push_env(k.as_bytes(), v.as_bytes())?;
    }
    Ok(())
}

fn spawn_with(arena: &Arena, plan: &LaunchPlan, block: Option<&str>) -> io::Result<Spawned> {
    // [stdin read, stdin write, stdout read, stdout write, stderr read,
    // stderr write]; the stdin pair stays -1 without a block, and the
    // child reads the shared `/dev/null` instead.
    let mut fds = [-1; 6];
    let close_all = |fds: &[RawFd]| fds.iter().for_each(|&fd| close_fd(fd));
    let opened = match block {
        Some(_) => cloexec_pipe(&mut fds[0..2]),
        None => Ok(()),
    }
    .and_then(|()| cloexec_pipe(&mut fds[2..4]))
    .and_then(|()| cloexec_pipe(&mut fds[4..6]))
    .and_then(|()| {
        if block.is_some() {
            Ok(fds[0])
        } else {
            dev_null()
        }
    });
    let child_stdin = match opened {
        Ok(fd) => fd,
        Err(e) => {
            close_all(&fds);
            return Err(e);
        }
    };

    let mut pid: i32 = 0;
    // SAFETY: `fa` is initialized before use and destroyed after; the
    // argv and env pointer tables are NULL-terminated and point into
    // `arena`, which `finish` built and which outlives the call; every
    // fd named in a dup2 action is open.
    let rc = unsafe {
        let mut fa: sys::FileActions = std::mem::zeroed();
        sys::posix_spawn_file_actions_init(&mut fa);
        sys::posix_spawn_file_actions_adddup2(&mut fa, child_stdin, 0);
        sys::posix_spawn_file_actions_adddup2(&mut fa, fds[3], 1);
        sys::posix_spawn_file_actions_adddup2(&mut fa, fds[5], 2);
        let rc = sys::posix_spawnp(
            &mut pid,
            arena.argv_ptrs[0],
            &fa,
            std::ptr::null(),
            arena.argv_ptrs.as_ptr(),
            arena.env_ptrs.as_ptr(),
        );
        sys::posix_spawn_file_actions_destroy(&mut fa);
        rc
    };
    // Drop the child's ends regardless of outcome.
    close_all(&[fds[0], fds[3], fds[5]]);
    let [_, stdin_w, out_r, _, err_r, _] = fds;
    if rc != 0 {
        close_all(&[stdin_w, out_r, err_r]);
        let what = match plan {
            LaunchPlan::Direct(words) => words[0].clone(),
            LaunchPlan::Shell(_) => "sh".to_string(),
        };
        return Err(io::Error::new(
            io::Error::from_raw_os_error(rc).kind(),
            format!("{what}: {}", io::Error::from_raw_os_error(rc)),
        ));
    }
    // The reaper drives these from epoll events; they must not block.
    for fd in [stdin_w, out_r, err_r] {
        if fd >= 0 {
            set_nonblocking(fd);
        }
    }
    let pidfd = unsafe { sys::syscall(sys::SYS_PIDFD_OPEN, pid, 0) } as RawFd;
    Ok(Spawned {
        pid,
        pidfd,
        stdout_fd: out_r,
        stderr_fd: err_r,
        stdin: block.map(|b| (stdin_w, b.as_bytes().to_vec())),
        deadline: None,
        lines: None,
    })
}

// -- Wait-status decoding ----------------------------------------------

/// Whether a raw `waitpid` status is a normal exit (WIFEXITED).
pub fn status_exited(raw: i32) -> bool {
    raw & 0x7f == 0
}

/// Decode a raw `waitpid` status into a [`JobStatus`].
pub fn decode_wait_status(raw: i32) -> JobStatus {
    if status_exited(raw) {
        let code = (raw >> 8) & 0xff;
        if code == 0 {
            JobStatus::Success
        } else {
            JobStatus::Failed(code)
        }
    } else if ((raw & 0x7f) + 1) >> 1 > 0 {
        JobStatus::Signaled(raw & 0x7f)
    } else {
        JobStatus::ExecError(format!("unparseable wait status {raw}"))
    }
}

// -- Pooled reaper -----------------------------------------------------

/// Everything the reaper collected for one task: the raw `waitpid`
/// status (`None` if the wait itself failed, or the task timed out
/// before it was reaped) and the drained output streams.
#[derive(Debug)]
pub struct Collected {
    pub raw_status: Option<i32>,
    /// The deadline passed and the child did not exit normally: the
    /// reaper killed it, or gave up on pipes a grandchild holds open.
    pub timed_out: bool,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
}

struct Registration {
    spawned: Spawned,
    tx: Sender<Collected>,
}

/// The pooled collector: one process-wide thread whose epoll reactor
/// owns every in-flight child's pipes and pidfd. Workers hand children
/// over with [`Reaper::collect`] and block on the returned channel —
/// no per-task reader, writer, waiter or timer threads exist anywhere.
pub struct Reaper {
    reg_tx: Sender<Registration>,
    wake: WakeHandle,
}

/// How long a killed child's pipes may stay open before the reaper
/// hands back `timed_out` anyway: a grandchild that inherited them can
/// hold them for its whole life.
const KILL_GRACE: Duration = Duration::from_millis(500);
/// How often a child without a registered pidfd is polled with
/// `WNOHANG`.
const POLL_TICK: Duration = Duration::from_millis(1);

/// Waker token; task tokens are `id << 3 | kind` with id ≥ 1, for fd
/// readiness and timers alike.
const TOK_WAKER: usize = 0;
const KIND_PIDFD: usize = 1;
const KIND_STDIN: usize = 2;
const KIND_STDOUT: usize = 3;
const KIND_STDERR: usize = 4;
const KIND_DEADLINE: usize = 5;
const KIND_GRACE: usize = 6;
const KIND_TICK: usize = 7;

fn token(id: usize, kind: usize) -> usize {
    (id << 3) | kind
}

impl Reaper {
    /// The process-wide reaper, started on first use.
    pub fn global() -> &'static Reaper {
        static REAPER: OnceLock<Reaper> = OnceLock::new();
        REAPER.get_or_init(|| {
            let reactor = Reactor::new().expect("reaper epoll");
            let waker = Waker::new().expect("reaper waker");
            let wake = waker.handle().expect("reaper wake handle");
            let (reg_tx, reg_rx) = unbounded();
            std::thread::Builder::new()
                .name("htpar-reaper".into())
                .spawn(move || reaper_loop(reactor, waker, reg_rx))
                .expect("spawn reaper thread");
            Reaper { reg_tx, wake }
        })
    }

    /// Hand a spawned child to the reaper; the returned channel yields
    /// exactly one [`Collected`]: when the child has exited *and* both
    /// output pipes hit EOF, or [`KILL_GRACE`] after its deadline
    /// passed. Dropping the receiver abandons the task: the reaper
    /// still drains and reaps it (no zombies, no fd leaks), the result
    /// just goes nowhere.
    pub fn collect(&self, spawned: Spawned) -> Receiver<Collected> {
        let (tx, rx) = bounded(1);
        // The reaper thread runs for the process lifetime; if it is
        // somehow gone the receiver disconnects and the caller sees it.
        let _ = self.reg_tx.send(Registration { spawned, tx });
        self.wake.wake();
        rx
    }
}

/// One output pipe and what has come through it.
struct Output {
    fd: RawFd,
    buf: Vec<u8>,
    /// Start of the first line not yet streamed (`--line-buffer`).
    line_start: usize,
}

struct TaskState {
    id: usize,
    pid: i32,
    pidfd: RawFd,
    stdin_fd: RawFd,
    stdin: Vec<u8>,
    written: usize,
    /// Stdout, then stderr.
    out: [Output; 2],
    raw_status: Option<i32>,
    reaped: bool,
    killed: bool,
    /// The armed deadline or grace timer, and the `WNOHANG` poll tick.
    timer: Option<TimerKey>,
    tick: Option<TimerKey>,
    lines: Option<LineSink>,
    /// `None` once the result went out: a timed-out task whose pipes a
    /// grandchild holds keeps draining, into nothing.
    tx: Option<Sender<Collected>>,
}

fn reaper_loop(mut reactor: Reactor, waker: Waker, reg_rx: Receiver<Registration>) {
    let mut tasks: HashMap<usize, TaskState> = HashMap::new();
    let mut next_id: usize = 1;
    let mut events: Vec<PollEvent> = Vec::new();
    reactor
        .register(waker.fd(), TOK_WAKER, Interest::READ)
        .expect("register reaper waker");
    loop {
        events.clear();
        if reactor.poll(&mut events, None).is_err() {
            continue;
        }
        for ev in &events {
            let (PollEvent::Io { token, .. } | PollEvent::Timer { token }) = *ev;
            if token == TOK_WAKER {
                waker.drain();
                while let Ok(reg) = reg_rx.try_recv() {
                    let task = TaskState::admit(&mut reactor, next_id, reg);
                    tasks.insert(next_id, task);
                    next_id += 1;
                }
                continue;
            }
            let (id, kind) = (token >> 3, token & 7);
            let Some(task) = tasks.get_mut(&id) else {
                continue; // stale event for an already-finished task
            };
            task.on_event(&mut reactor, kind);
            if task.reaped && task.out.iter().all(|o| o.fd < 0) {
                tasks.remove(&id).expect("present").finish(&mut reactor);
            }
        }
    }
}

impl TaskState {
    /// Register the child's fds and arm its timers. A child without a
    /// pidfd, or one whose fds the reactor refused, is polled on a
    /// short timer instead; it stays on the reaper either way.
    fn admit(reactor: &mut Reactor, id: usize, reg: Registration) -> TaskState {
        let s = reg.spawned;
        let (stdin_fd, stdin) = s.stdin.unwrap_or((-1, Vec::new()));
        let mut task = TaskState {
            id,
            pid: s.pid,
            pidfd: s.pidfd,
            stdin_fd,
            stdin,
            written: 0,
            out: [s.stdout_fd, s.stderr_fd].map(|fd| Output {
                fd,
                buf: Vec::new(),
                line_start: 0,
            }),
            raw_status: None,
            reaped: false,
            killed: false,
            timer: None,
            tick: None,
            lines: s.lines,
            tx: Some(reg.tx),
        };
        let registered = [
            (task.pidfd, KIND_PIDFD, Interest::READ),
            (task.stdin_fd, KIND_STDIN, Interest::WRITE),
            (task.out[0].fd, KIND_STDOUT, Interest::READ),
            (task.out[1].fd, KIND_STDERR, Interest::READ),
        ]
        .into_iter()
        .filter(|&(fd, _, _)| fd >= 0)
        .all(|(fd, kind, interest)| reactor.register(fd, token(id, kind), interest).is_ok());
        if !registered || task.pidfd < 0 {
            task.tick = Some(reactor.arm_timer(Instant::now(), token(id, KIND_TICK)));
        }
        if let Some(at) = s.deadline {
            task.timer = Some(reactor.arm_timer(at, token(id, KIND_DEADLINE)));
        }
        task
    }

    fn on_event(&mut self, reactor: &mut Reactor, kind: usize) {
        match kind {
            KIND_PIDFD => self.try_reap(reactor),
            KIND_STDIN => self.pump_stdin(reactor),
            KIND_STDOUT | KIND_STDERR => self.pump_output(reactor, kind - KIND_STDOUT),
            KIND_DEADLINE => {
                // Not reaped means the pid is still ours: no reuse race.
                if !self.reaped {
                    // SAFETY: a plain syscall; it touches no memory.
                    unsafe { sys::kill(self.pid, sys::SIGKILL) };
                    self.killed = true;
                }
                let at = Instant::now() + KILL_GRACE;
                self.timer = Some(reactor.arm_timer(at, token(self.id, KIND_GRACE)));
            }
            KIND_GRACE => {
                self.timer = None;
                if let Some(tx) = self.tx.take() {
                    let _ = tx.send(Collected {
                        raw_status: None,
                        timed_out: true,
                        stdout: Vec::new(),
                        stderr: Vec::new(),
                    });
                }
                self.lines = None;
                for o in &mut self.out {
                    o.buf = Vec::new();
                }
            }
            KIND_TICK => {
                // Fds the reactor refused get pumped here; for the
                // registered ones these reads just find nothing.
                self.pump_stdin(reactor);
                self.pump_output(reactor, 0);
                self.pump_output(reactor, 1);
                self.try_reap(reactor);
                let at = Instant::now() + POLL_TICK;
                self.tick = Some(reactor.arm_timer(at, token(self.id, KIND_TICK)));
            }
            _ => {}
        }
    }

    fn try_reap(&mut self, reactor: &Reactor) {
        if self.reaped {
            return;
        }
        let mut raw: i32 = 0;
        let rc = unsafe { sys::waitpid(self.pid, &mut raw, sys::WNOHANG) };
        if rc == 0 {
            return; // spurious readiness; exit not visible yet
        }
        self.raw_status = (rc == self.pid).then_some(raw);
        self.reaped = true;
        if self.pidfd >= 0 {
            let _ = reactor.deregister(self.pidfd);
            close_fd(self.pidfd);
            self.pidfd = -1;
        }
        self.close_stdin(reactor);
    }

    /// Write as much of the block as the pipe takes; close the pipe once
    /// it is all written or the child stopped reading.
    fn pump_stdin(&mut self, reactor: &Reactor) {
        if self.stdin_fd < 0 {
            return;
        }
        while self.written < self.stdin.len() {
            let rest = &self.stdin[self.written..];
            // SAFETY: `write` reads at most `rest.len()` bytes from the
            // live slice `rest`.
            let n =
                unsafe { sys::write(self.stdin_fd, rest.as_ptr() as *const c_void, rest.len()) };
            if n >= 0 {
                self.written += n as usize;
                continue;
            }
            match io::Error::last_os_error().kind() {
                io::ErrorKind::WouldBlock => return,
                io::ErrorKind::Interrupted => continue,
                // EPIPE (Rust programs ignore SIGPIPE): the child
                // closed its stdin without reading the whole block.
                _ => break,
            }
        }
        self.close_stdin(reactor);
    }

    fn close_stdin(&mut self, reactor: &Reactor) {
        if self.stdin_fd >= 0 {
            let _ = reactor.deregister(self.stdin_fd);
            close_fd(self.stdin_fd);
            self.stdin_fd = -1;
            self.stdin = Vec::new();
        }
    }

    fn pump_output(&mut self, reactor: &Reactor, idx: usize) {
        let o = &mut self.out[idx];
        if o.fd < 0 {
            return;
        }
        let scanned = o.buf.len();
        let eof = drain_pipe(o.fd, &mut o.buf);
        if eof {
            let _ = reactor.deregister(o.fd);
            close_fd(o.fd);
            o.fd = -1;
        }
        if self.tx.is_none() {
            o.buf.clear(); // delivered already: nobody reads this
            return;
        }
        let Some(lines) = &self.lines else {
            return;
        };
        let kind = [StreamKind::Stdout, StreamKind::Stderr][idx];
        let mut from = scanned;
        while let Some(nl) = o.buf[from..].iter().position(|&b| b == b'\n') {
            let end = from + nl;
            lines.emit(kind, &o.buf[o.line_start..end]);
            o.line_start = end + 1;
            from = end + 1;
        }
        if eof && o.line_start < o.buf.len() {
            lines.emit(kind, &o.buf[o.line_start..]);
            o.line_start = o.buf.len();
        }
    }

    /// Reaped with both output pipes at EOF: cancel the timers and hand
    /// the result over, unless the grace already did. A worker that
    /// dropped its receiver just never sees it.
    fn finish(mut self, reactor: &mut Reactor) {
        for key in [self.timer.take(), self.tick.take()].into_iter().flatten() {
            reactor.cancel_timer(key);
        }
        let timed_out = self.killed && !self.raw_status.is_some_and(status_exited);
        let [stdout, stderr] = self.out;
        if let Some(tx) = self.tx {
            let _ = tx.send(Collected {
                raw_status: self.raw_status,
                timed_out,
                stdout: stdout.buf,
                stderr: stderr.buf,
            });
        }
    }
}

/// Drain a non-blocking pipe into `buf`. Returns true at EOF (or on a
/// hard read error — either way the fd is finished).
fn drain_pipe(fd: RawFd, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = unsafe { sys::read(fd, chunk.as_mut_ptr() as *mut c_void, chunk.len()) };
        if n > 0 {
            buf.extend_from_slice(&chunk[..n as usize]);
            continue;
        }
        if n == 0 {
            return true;
        }
        let err = io::Error::last_os_error();
        return match err.kind() {
            io::ErrorKind::WouldBlock => false,
            io::ErrorKind::Interrupted => continue,
            _ => true,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmdline(rendered: &str) -> CommandLine {
        CommandLine::new(7, 2, vec![], rendered.to_string(), vec![], vec![])
    }

    #[test]
    fn bypass_accepts_plain_argv() {
        assert_eq!(
            bypass_argv("/bin/echo hello world"),
            Some(vec!["/bin/echo".into(), "hello".into(), "world".into()])
        );
        assert_eq!(
            bypass_argv("grep -v foo.txt"),
            Some(vec!["grep".into(), "-v".into(), "foo.txt".into()])
        );
        // `=` is safe outside the first word (a literal argument).
        assert_eq!(
            bypass_argv("mycmd --opt=value"),
            Some(vec!["mycmd".into(), "--opt=value".into()])
        );
    }

    #[test]
    fn bypass_reads_the_quotes_shell_quote_writes() {
        let words = |s: &[&str]| Some(s.iter().map(|w| w.to_string()).collect::<Vec<_>>());
        assert_eq!(bypass_argv("x 'quoted'"), words(&["x", "quoted"]));
        assert_eq!(bypass_argv("x ''"), words(&["x", ""]));
        assert_eq!(bypass_argv("x 'a b' c"), words(&["x", "a b", "c"]));
        assert_eq!(bypass_argv(r#"x 'it'"'"'s'"#), words(&["x", "it's"]));
        assert_eq!(bypass_argv(r#"x "''"'a'"'""#), words(&["x", "''a'"]));
        assert_eq!(
            bypass_argv("x pre'*; $(y)'post"),
            words(&["x", "pre*; $(y)post"])
        );
        assert_eq!(bypass_argv("x '\n\t~#café'"), words(&["x", "\n\t~#café"]));
    }

    #[test]
    fn bypass_rejects_metacharacters() {
        for cmd in [
            "a | b",
            "a>out",
            "a <in",
            "echo $HOME",
            "x; y",
            "x && y",
            "x \"quoted\"",
            "x 'unbalanced",
            "x 'a'b'",
            "x \"'",
            "x \"\"",
            "x \"'a\"",
            "x '*'*",
            "'x' y",
            "\"'\"x y",
            "'FOO=bar' cmd",
            "ls *.txt",
            "ls ?.txt",
            "ls [ab].txt",
            "x `y`",
            "x $(y)",
            "(x)",
            "x {a,b}",
            "~root/x",
            "x #comment",
            "x!",
            "x\\y",
            "x\ny",
            "x café", // non-ASCII: conservative fallback
            "",
            "   ",
        ] {
            assert_eq!(bypass_argv(cmd), None, "must fall back: {cmd:?}");
        }
    }

    #[test]
    fn bypass_rejects_shell_words_and_assignments() {
        for cmd in [
            "true",
            "echo hi",
            "cd /tmp",
            "exit 3",
            "FOO=bar cmd",
            "if x",
        ] {
            assert_eq!(bypass_argv(cmd), None, "must fall back: {cmd:?}");
        }
        // ...but a *path* to the same binary bypasses.
        assert!(bypass_argv("/bin/true").is_some());
        assert!(bypass_argv("/bin/echo hi").is_some());
    }

    #[test]
    fn shell_words_sorted_for_binary_search() {
        let mut sorted = SHELL_WORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, SHELL_WORDS);
    }

    #[test]
    fn launch_and_reap_direct() {
        let plan = LaunchPlan::Direct(vec!["/bin/echo".into(), "fast".into(), "path".into()]);
        let spawned = launch(&plan, &cmdline("/bin/echo fast path")).unwrap();
        assert!(spawned.pidfd >= 0, "pidfd_open worked");
        let rx = Reaper::global().collect(spawned);
        let c = rx.recv().unwrap();
        assert_eq!(
            decode_wait_status(c.raw_status.unwrap()),
            JobStatus::Success
        );
        assert_eq!(String::from_utf8_lossy(&c.stdout), "fast path\n");
        assert!(c.stderr.is_empty());
    }

    #[test]
    fn launch_shell_plan_and_env() {
        let mut cmd = cmdline("echo seq=$PARALLEL_SEQ slot=$PARALLEL_JOBSLOT dev=$DEV");
        cmd.env.push(("DEV".into(), "3".into()));
        let plan = LaunchPlan::Shell(cmd.rendered().to_string());
        let spawned = launch(&plan, &cmd).unwrap();
        let c = Reaper::global().collect(spawned).recv().unwrap();
        assert_eq!(String::from_utf8_lossy(&c.stdout), "seq=7 slot=2 dev=3\n");
    }

    #[test]
    fn launch_missing_binary_fails_without_running() {
        let plan = LaunchPlan::Direct(vec!["/definitely/not/here".into()]);
        let err = launch(&plan, &cmdline("x")).unwrap_err();
        assert!(err.to_string().contains("/definitely/not/here"), "{err}");
    }

    #[test]
    fn reaper_handles_many_concurrent_children() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let plan = LaunchPlan::Direct(vec!["/bin/echo".into(), format!("{t}-{i}")]);
                        let spawned = launch(&plan, &cmdline("x")).unwrap();
                        let c = Reaper::global().collect(spawned).recv().unwrap();
                        assert_eq!(
                            String::from_utf8_lossy(&c.stdout).trim(),
                            format!("{t}-{i}")
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// What `pidfd_open` failing leaves the reaper: a child it can only
    /// poll with `WNOHANG`.
    fn without_pidfd(plan: &LaunchPlan) -> Spawned {
        let mut spawned = launch(plan, &cmdline("x")).unwrap();
        close_fd(spawned.pidfd);
        spawned.pidfd = -1;
        spawned
    }

    #[test]
    fn reaper_collects_a_child_without_a_pidfd() {
        let spawned = without_pidfd(&LaunchPlan::Shell("echo out; echo err >&2; exit 3".into()));
        let c = Reaper::global().collect(spawned).recv().unwrap();
        assert_eq!(
            decode_wait_status(c.raw_status.unwrap()),
            JobStatus::Failed(3)
        );
        assert_eq!(c.stdout, b"out\n");
        assert_eq!(c.stderr, b"err\n");
        assert!(!c.timed_out);
    }

    #[test]
    fn reaper_kills_a_child_without_a_pidfd_at_its_deadline() {
        let mut spawned = without_pidfd(&LaunchPlan::Direct(vec!["sleep".into(), "5".into()]));
        let start = std::time::Instant::now();
        spawned.deadline = Some(start + Duration::from_millis(50));
        let c = Reaper::global().collect(spawned).recv().unwrap();
        assert!(c.timed_out);
        assert_eq!(
            decode_wait_status(c.raw_status.unwrap()),
            JobStatus::Signaled(9)
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn wait_status_decoding() {
        // Exit 0 / exit 3 / SIGKILL, as the kernel encodes them.
        assert_eq!(decode_wait_status(0), JobStatus::Success);
        assert_eq!(decode_wait_status(3 << 8), JobStatus::Failed(3));
        assert_eq!(decode_wait_status(9), JobStatus::Signaled(9));
        assert!(status_exited(3 << 8));
        assert!(!status_exited(9));
    }

    #[test]
    fn large_output_drains_through_reaper() {
        // 1 MiB >> pipe capacity: the reaper must drain while waiting.
        let plan = LaunchPlan::Shell("head -c 1048576 /dev/zero | tr '\\0' 'x'".into());
        let spawned = launch(&plan, &cmdline("x")).unwrap();
        let c = Reaper::global().collect(spawned).recv().unwrap();
        assert_eq!(
            decode_wait_status(c.raw_status.unwrap()),
            JobStatus::Success
        );
        assert_eq!(c.stdout.len(), 1 << 20);
    }
}
