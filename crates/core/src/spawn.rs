//! The process-launch fast path: `posix_spawn`, shell bypass, and a
//! pooled pidfd reaper.
//!
//! The paper's headline metric is per-task *launch* overhead on real
//! processes (Fig. 3), and the classic pilot-system bottleneck is
//! exactly the launcher's fork/exec path. The portable executor pays
//! three separate taxes per task: a full `fork` of the (possibly
//! large-RSS) driver via `std::process::Command`, an extra `/bin/sh`
//! exec layer for every command, and 2–3 freshly spawned reader/waiter
//! threads. This module removes all three:
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
//!   [`Reactor`] registered with every in-flight child's stdout/stderr
//!   pipe and its pidfd (`pidfd_open(2)`). Pipes drain into per-task
//!   buffers as data arrives; exits are reaped with `WNOHANG` when the
//!   pidfd turns readable; the worker that spawned the task blocks on a
//!   one-shot channel. Thread count is O(slots), not O(tasks).
//!
//! `ProcessExecutor` routes plain commands (no `--pipe` stdin block, no
//! `--line-buffer` streaming) through this path on Linux and falls back
//! to the portable `std::process` path otherwise — see
//! [`crate::executor`] and DESIGN.md §14.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ffi::c_void;
use std::io;
use std::os::fd::RawFd;
use std::sync::OnceLock;

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};

use crate::job::{CommandLine, JobStatus};
use crate::reactor::{Interest, PollEvent, Reactor, WakeHandle, Waker};

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
        pub fn close(fd: c_int) -> c_int;
        pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub fn getpid() -> c_int;
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
/// notification (`-1` when `pidfd_open` failed), and the parent's
/// non-blocking read ends of its stdout/stderr pipes.
#[derive(Debug)]
pub struct Spawned {
    pub pid: i32,
    pub pidfd: RawFd,
    pub stdout_fd: RawFd,
    pub stderr_fd: RawFd,
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

/// Shared read end of `/dev/null` dup2'd onto every child's stdin (the
/// fast path only handles tasks without a `--pipe` stdin block).
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

/// Whether this kernel supports `pidfd_open` (probed once, on our own
/// pid). Without it the executor stays on the portable path.
pub fn fast_path_available() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        let fd = unsafe { sys::syscall(sys::SYS_PIDFD_OPEN, sys::getpid(), 0) };
        if fd >= 0 {
            unsafe { sys::close(fd as i32) };
            true
        } else {
            false
        }
    })
}

fn cloexec_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0i32; 2];
    if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_CLOEXEC) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((fds[0], fds[1]))
}

fn close_fd(fd: RawFd) {
    if fd >= 0 {
        unsafe { sys::close(fd) };
    }
}

/// Launch one command via `posix_spawnp`: stdin from `/dev/null`,
/// stdout/stderr to fresh pipes, env = parent env + `PARALLEL_SEQ` /
/// `PARALLEL_JOBSLOT` + the task's own vars (task vars win). Returns
/// the child with non-blocking read ends; on error every fd is closed
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
        spawn_with(arena, plan)
    })
}

/// Fill the arena's env table: parent environment minus overridden
/// keys, then `PARALLEL_SEQ`/`PARALLEL_JOBSLOT`, then the task's vars —
/// the same precedence `std::process::Command::env` produces.
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

fn spawn_with(arena: &Arena, plan: &LaunchPlan) -> io::Result<Spawned> {
    let null_fd = dev_null()?;
    let (out_r, out_w) = cloexec_pipe()?;
    let (err_r, err_w) = match cloexec_pipe() {
        Ok(p) => p,
        Err(e) => {
            close_fd(out_r);
            close_fd(out_w);
            return Err(e);
        }
    };
    let close_all = |fds: &[RawFd]| fds.iter().for_each(|&fd| close_fd(fd));

    let mut pid: i32 = 0;
    let rc = unsafe {
        let mut fa: sys::FileActions = std::mem::zeroed();
        sys::posix_spawn_file_actions_init(&mut fa);
        sys::posix_spawn_file_actions_adddup2(&mut fa, null_fd, 0);
        sys::posix_spawn_file_actions_adddup2(&mut fa, out_w, 1);
        sys::posix_spawn_file_actions_adddup2(&mut fa, err_w, 2);
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
    // Parent never writes; drop the child's ends regardless of outcome.
    close_fd(out_w);
    close_fd(err_w);
    if rc != 0 {
        close_all(&[out_r, err_r]);
        let what = match plan {
            LaunchPlan::Direct(words) => words[0].clone(),
            LaunchPlan::Shell(_) => "sh".to_string(),
        };
        return Err(io::Error::new(
            io::Error::from_raw_os_error(rc).kind(),
            format!("{what}: {}", io::Error::from_raw_os_error(rc)),
        ));
    }
    // The reaper reads these from epoll callbacks; they must not block.
    unsafe {
        sys::fcntl(out_r, sys::F_SETFL, sys::O_NONBLOCK);
        sys::fcntl(err_r, sys::F_SETFL, sys::O_NONBLOCK);
    }
    let pidfd = unsafe { sys::syscall(sys::SYS_PIDFD_OPEN, pid, 0) } as RawFd;
    Ok(Spawned {
        pid,
        pidfd,
        stdout_fd: out_r,
        stderr_fd: err_r,
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
/// status (`None` only if the wait itself failed) and the drained
/// output streams.
#[derive(Debug)]
pub struct Collected {
    pub raw_status: Option<i32>,
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
/// no per-task reader or waiter threads exist anywhere.
pub struct Reaper {
    reg_tx: Sender<Registration>,
    wake: WakeHandle,
}

/// Waker token; task tokens are `id << 2 | kind` with id ≥ 1.
const TOK_WAKER: usize = 0;
const KIND_PIDFD: usize = 1;
const KIND_STDOUT: usize = 2;
const KIND_STDERR: usize = 3;

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
    /// exactly one [`Collected`] when the child has exited *and* both
    /// pipes hit EOF. Dropping the receiver abandons the task: the
    /// reaper still drains and reaps it (no zombies, no fd leaks), the
    /// result just goes nowhere.
    pub fn collect(&self, spawned: Spawned) -> Receiver<Collected> {
        let (tx, rx) = bounded(1);
        // The reaper thread runs for the process lifetime; if it is
        // somehow gone the receiver disconnects and the caller sees it.
        let _ = self.reg_tx.send(Registration { spawned, tx });
        self.wake.wake();
        rx
    }
}

struct TaskState {
    pid: i32,
    pidfd: RawFd,
    out_fd: RawFd,
    err_fd: RawFd,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    raw_status: Option<i32>,
    reaped: bool,
    tx: Sender<Collected>,
}

impl TaskState {
    fn done(&self) -> bool {
        self.reaped && self.out_fd < 0 && self.err_fd < 0
    }
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
            let PollEvent::Io { token, .. } = *ev else {
                continue;
            };
            if token == TOK_WAKER {
                waker.drain();
                while let Ok(reg) = reg_rx.try_recv() {
                    admit(&reactor, &mut tasks, &mut next_id, reg);
                }
                continue;
            }
            let (id, kind) = (token >> 2, token & 3);
            let Some(task) = tasks.get_mut(&id) else {
                continue; // stale event for an already-finished task
            };
            match kind {
                KIND_PIDFD => {
                    let mut raw: i32 = 0;
                    let rc = unsafe { sys::waitpid(task.pid, &mut raw, sys::WNOHANG) };
                    if rc == 0 {
                        continue; // spurious readiness; exit not visible yet
                    }
                    task.raw_status = (rc == task.pid).then_some(raw);
                    task.reaped = true;
                    let _ = reactor.deregister(task.pidfd);
                    close_fd(task.pidfd);
                    task.pidfd = -1;
                }
                KIND_STDOUT | KIND_STDERR => {
                    let (fd, buf) = if kind == KIND_STDOUT {
                        (task.out_fd, &mut task.stdout)
                    } else {
                        (task.err_fd, &mut task.stderr)
                    };
                    if fd >= 0 && drain_pipe(fd, buf) {
                        let _ = reactor.deregister(fd);
                        close_fd(fd);
                        if kind == KIND_STDOUT {
                            task.out_fd = -1;
                        } else {
                            task.err_fd = -1;
                        }
                    }
                }
                _ => {}
            }
            if task.done() {
                let task = tasks.remove(&id).expect("present");
                // A worker that abandoned its task (timeout with the
                // pipes held open) dropped the receiver; ignore.
                let _ = task.tx.send(Collected {
                    raw_status: task.raw_status,
                    stdout: task.stdout,
                    stderr: task.stderr,
                });
            }
        }
    }
}

fn admit(
    reactor: &Reactor,
    tasks: &mut HashMap<usize, TaskState>,
    next_id: &mut usize,
    reg: Registration,
) {
    let id = *next_id;
    *next_id += 1;
    let s = reg.spawned;
    let ok = reactor
        .register(s.pidfd, (id << 2) | KIND_PIDFD, Interest::READ)
        .and_then(|_| reactor.register(s.stdout_fd, (id << 2) | KIND_STDOUT, Interest::READ))
        .and_then(|_| reactor.register(s.stderr_fd, (id << 2) | KIND_STDERR, Interest::READ));
    if ok.is_err() {
        // Should-never-happen path (bad fd / epoll limit): reap the
        // child synchronously so it cannot zombify, best-effort drain.
        let _ = reactor.deregister(s.pidfd);
        let _ = reactor.deregister(s.stdout_fd);
        let _ = reactor.deregister(s.stderr_fd);
        let mut raw: i32 = 0;
        let rc = unsafe { sys::waitpid(s.pid, &mut raw, 0) };
        let mut stdout = Vec::new();
        let mut stderr = Vec::new();
        drain_pipe(s.stdout_fd, &mut stdout);
        drain_pipe(s.stderr_fd, &mut stderr);
        close_fd(s.pidfd);
        close_fd(s.stdout_fd);
        close_fd(s.stderr_fd);
        let _ = reg.tx.send(Collected {
            raw_status: (rc == s.pid).then_some(raw),
            stdout,
            stderr,
        });
        return;
    }
    tasks.insert(
        id,
        TaskState {
            pid: s.pid,
            pidfd: s.pidfd,
            out_fd: s.stdout_fd,
            err_fd: s.stderr_fd,
            stdout: Vec::new(),
            stderr: Vec::new(),
            raw_status: None,
            reaped: false,
            tx: reg.tx,
        },
    );
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

/// Degraded one-off collection for a child whose `pidfd_open` failed
/// after a successful spawn (fd exhaustion): reader thread per stream,
/// blocking `waitpid` — exactly the portable path's shape, used only
/// on this rare path so the child never leaks.
pub fn collect_inline(s: Spawned) -> Collected {
    use std::io::Read;
    use std::os::fd::FromRawFd;
    let spawn_drain = |fd: RawFd| {
        // Back to blocking: these reads run on their own thread.
        unsafe { sys::fcntl(fd, sys::F_SETFL, 0) };
        std::thread::spawn(move || {
            let mut f = unsafe { std::fs::File::from_raw_fd(fd) };
            let mut buf = Vec::new();
            let _ = f.read_to_end(&mut buf);
            buf
        })
    };
    let out_h = spawn_drain(s.stdout_fd);
    let err_h = spawn_drain(s.stderr_fd);
    let mut raw: i32 = 0;
    let rc = unsafe { sys::waitpid(s.pid, &mut raw, 0) };
    close_fd(s.pidfd);
    Collected {
        raw_status: (rc == s.pid).then_some(raw),
        stdout: out_h.join().unwrap_or_default(),
        stderr: err_h.join().unwrap_or_default(),
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
