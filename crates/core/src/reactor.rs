//! A hand-rolled epoll reactor: one poll loop drives every socket and
//! every deadline in a driver or agent process.
//!
//! The PR 5 net core spent its latency budget on threads: one reader
//! thread per connection, a dedicated heartbeat thread per agent, and a
//! `recv_timeout` tick loop in the driver. At mini-cluster scale that
//! is a context switch (and usually a syscall-sized write) per frame —
//! the 8–14× socket-vs-in-process dispatch gap the `net` regression
//! gate measured. This module replaces all of it with the classic
//! event-loop shape the workflow-scheduler literature calls for:
//! non-blocking sockets registered with a single `epoll` instance,
//! readiness events tagged with caller tokens, and a deadline queue so
//! heartbeat and lease timers fire from the same `epoll_wait` timeout
//! instead of their own threads.
//!
//! The epoll bindings are a few lines of `extern "C"` against the libc
//! every Rust std program already links — the workspace's no-new-deps
//! rule (everything vendored, no tokio/mio) holds.
//!
//! Pieces:
//! - [`Reactor`] — register/deregister fds, arm one-shot [`TimerKey`]s,
//!   [`Reactor::poll`] into a caller-owned event buffer.
//! - [`PollEvent`] — what woke the loop: fd readiness (with hangup
//!   folded in) or an expired timer, both carrying the caller's token.
//! - [`Waker`] — a self-pipe for cross-thread wakeups (an agent's
//!   worker threads nudging the I/O loop when completions are queued).

use std::collections::BinaryHeap;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

// -- Minimal epoll FFI -------------------------------------------------
//
// Only what the reactor needs; constants from the Linux uapi headers.

mod sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86_64 (and only there), exactly
    /// as the kernel declares it.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Which readiness a registered fd is polled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// Handle to an armed one-shot timer; cancellation is by key, and a
/// fired or cancelled key never aliases a later timer (generation
/// counter, same discipline as the simkit slab).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerKey(u64);

/// What a [`Reactor::poll`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollEvent {
    /// Fd readiness for the token it was registered with. `hangup`
    /// covers EPOLLHUP/EPOLLERR/EPOLLRDHUP: the peer is gone or going;
    /// a final read will yield EOF or the error.
    Io {
        token: usize,
        readable: bool,
        writable: bool,
        hangup: bool,
    },
    /// The timer armed with this token expired.
    Timer { token: usize },
}

/// An armed deadline, min-ordered by expiry in the reactor's heap.
struct Deadline {
    at: Instant,
    key: u64,
    token: usize,
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Deadline {}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top. Ties break by arm order (key).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// The event loop core: an epoll instance plus a deadline queue.
pub struct Reactor {
    epfd: RawFd,
    timers: BinaryHeap<Deadline>,
    /// Keys of cancelled timers still sitting in the heap (lazy
    /// deletion — cheaper than a sift for the re-armed lease/heartbeat
    /// pattern where most timers are replaced, not fired).
    cancelled: std::collections::HashSet<u64>,
    next_key: u64,
    /// Scratch buffer handed to `epoll_wait`.
    events: Vec<sys::EpollEvent>,
}

impl Reactor {
    pub fn new() -> io::Result<Reactor> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Reactor {
            epfd,
            timers: BinaryHeap::new(),
            cancelled: std::collections::HashSet::new(),
            next_key: 0,
            events: vec![sys::EpollEvent { events: 0, data: 0 }; 128],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<sys::EpollEvent>) -> io::Result<()> {
        let mut event = event;
        let ptr = event
            .as_mut()
            .map(|e| e as *mut sys::EpollEvent)
            .unwrap_or(std::ptr::null_mut());
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` for `interest`, tagging its events with `token`.
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token as u64,
            }),
        )
    }

    /// Change the interest set of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token as u64,
            }),
        )
    }

    /// Remove `fd` from the poll set. Events already pulled into a
    /// caller's buffer may still mention its token — consumers keep a
    /// liveness flag per token and drop stale events (see the driver's
    /// idempotent loss handling).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, None)
    }

    /// Arm a one-shot timer for `token` at `at`.
    pub fn arm_timer(&mut self, at: Instant, token: usize) -> TimerKey {
        let key = self.next_key;
        self.next_key += 1;
        self.timers.push(Deadline { at, key, token });
        TimerKey(key)
    }

    /// Cancel an armed timer. Harmless if it already fired (keys are
    /// never reused).
    pub fn cancel_timer(&mut self, key: TimerKey) {
        self.cancelled.insert(key.0);
    }

    /// The earliest pending deadline, if any timer is armed.
    fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(top) = self.timers.peek() {
            if self.cancelled.remove(&top.key) {
                self.timers.pop();
                continue;
            }
            return Some(top.at);
        }
        None
    }

    /// Block until fd readiness or a timer expiry (bounded by
    /// `max_wait` when given), then append events to `out`. May append
    /// nothing (spurious wakeup, EINTR, a cancelled timer's slot) —
    /// callers must loop. Timer events fire in deadline order.
    pub fn poll(&mut self, out: &mut Vec<PollEvent>, max_wait: Option<Duration>) -> io::Result<()> {
        let now = Instant::now();
        let timer_wait = self
            .next_deadline()
            .map(|at| at.saturating_duration_since(now));
        let wait = match (timer_wait, max_wait) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        // epoll_wait takes whole milliseconds; round up so a 100µs
        // deadline does not busy-spin at timeout 0, and clamp to keep
        // an i32.
        let timeout_ms: i32 = match wait {
            Some(d) => d
                .as_millis()
                .min(i32::MAX as u128 - 1)
                .try_into()
                .map(|ms: i32| if d.is_zero() { 0 } else { ms.max(1) })
                .unwrap_or(i32::MAX),
            None => -1,
        };
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.events.as_mut_ptr(),
                self.events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                // EINTR: surface as a spurious wakeup; timers below
                // still get their chance.
                self.pop_due_timers(out);
                return Ok(());
            }
            return Err(err);
        }
        for i in 0..n as usize {
            let event = self.events[i];
            let bits = event.events;
            out.push(PollEvent::Io {
                token: event.data as usize,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        self.pop_due_timers(out);
        Ok(())
    }

    /// Move every expired timer into `out`, earliest first.
    fn pop_due_timers(&mut self, out: &mut Vec<PollEvent>) {
        let now = Instant::now();
        while let Some(top) = self.timers.peek() {
            if self.cancelled.remove(&top.key) {
                self.timers.pop();
                continue;
            }
            if top.at > now {
                break;
            }
            let fired = self.timers.pop().expect("peeked");
            out.push(PollEvent::Timer { token: fired.token });
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

/// A self-pipe wakeup: threads outside the poll loop call
/// [`Waker::wake`]; the loop registers [`Waker::fd`] for reads and
/// calls [`Waker::drain`] when it fires. Built on a non-blocking
/// `UnixStream` pair so no extra FFI is needed; coalesces bursts (a
/// full pipe already is a pending wakeup).
pub struct Waker {
    read: UnixStream,
    write: UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Waker { read, write })
    }

    /// The fd to register with the reactor (read interest).
    pub fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Nudge the poll loop. Never blocks: a full pipe means a wakeup is
    /// already pending, which is all a wakeup means.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write).write(&[1u8]);
    }

    /// A clonable handle for producer threads.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            write: self.write.try_clone()?,
        })
    }

    /// Swallow queued wakeup bytes so the fd goes quiet until the next
    /// [`Waker::wake`].
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.read).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Producer-side handle to a [`Waker`].
pub struct WakeHandle {
    write: UnixStream,
}

impl WakeHandle {
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.write).write(&[1u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_poll(r: &mut Reactor, wait: Duration) -> Vec<PollEvent> {
        let mut out = Vec::new();
        let deadline = Instant::now() + wait;
        while out.is_empty() && Instant::now() < deadline {
            r.poll(
                &mut out,
                Some(deadline.saturating_duration_since(Instant::now())),
            )
            .unwrap();
        }
        out
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut r = Reactor::new().unwrap();
        let now = Instant::now();
        // Armed out of order; must fire 3, 1, 2.
        r.arm_timer(now + Duration::from_millis(30), 1);
        r.arm_timer(now + Duration::from_millis(45), 2);
        r.arm_timer(now + Duration::from_millis(15), 3);
        let mut fired = Vec::new();
        while fired.len() < 3 {
            for event in drain_poll(&mut r, Duration::from_millis(200)) {
                match event {
                    PollEvent::Timer { token } => fired.push(token),
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        assert_eq!(fired, vec![3, 1, 2]);
    }

    #[test]
    fn same_deadline_timers_fire_in_arm_order() {
        let mut r = Reactor::new().unwrap();
        let at = Instant::now() + Duration::from_millis(10);
        for token in 0..5 {
            r.arm_timer(at, token);
        }
        let mut fired = Vec::new();
        while fired.len() < 5 {
            for event in drain_poll(&mut r, Duration::from_millis(200)) {
                if let PollEvent::Timer { token } = event {
                    fired.push(token);
                }
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut r = Reactor::new().unwrap();
        let now = Instant::now();
        let key = r.arm_timer(now + Duration::from_millis(10), 7);
        r.arm_timer(now + Duration::from_millis(20), 8);
        r.cancel_timer(key);
        let mut fired = Vec::new();
        while fired.is_empty() {
            for event in drain_poll(&mut r, Duration::from_millis(200)) {
                if let PollEvent::Timer { token } = event {
                    fired.push(token);
                }
            }
        }
        assert_eq!(fired, vec![8], "cancelled timer 7 must not fire");
    }

    #[test]
    fn poll_without_work_times_out_empty() {
        let mut r = Reactor::new().unwrap();
        let mut out = Vec::new();
        let started = Instant::now();
        r.poll(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(out.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn fd_readiness_carries_the_token() {
        use std::io::Write;
        let mut r = Reactor::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        r.register(a.as_raw_fd(), 42, Interest::READ).unwrap();
        // Nothing readable yet: poll must come back empty.
        let mut out = Vec::new();
        r.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.is_empty());
        b.write_all(b"x").unwrap();
        let events = drain_poll(&mut r, Duration::from_millis(500));
        assert!(
            events.iter().any(|e| matches!(
                e,
                PollEvent::Io {
                    token: 42,
                    readable: true,
                    ..
                }
            )),
            "{events:?}"
        );
        // Peer closing surfaces as hangup (readable EOF).
        drop(b);
        let events = drain_poll(&mut r, Duration::from_millis(500));
        assert!(
            events.iter().any(|e| matches!(
                e,
                PollEvent::Io {
                    token: 42,
                    hangup: true,
                    ..
                }
            )),
            "{events:?}"
        );
        r.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn write_interest_reports_writable() {
        let mut r = Reactor::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        r.register(a.as_raw_fd(), 9, Interest::READ_WRITE).unwrap();
        let events = drain_poll(&mut r, Duration::from_millis(500));
        assert!(
            events.iter().any(|e| matches!(
                e,
                PollEvent::Io {
                    token: 9,
                    writable: true,
                    ..
                }
            )),
            "an idle socket is writable: {events:?}"
        );
        // Dropping write interest silences the loop again.
        r.reregister(a.as_raw_fd(), 9, Interest::READ).unwrap();
        let mut out = Vec::new();
        r.poll(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn waker_crosses_threads_and_coalesces() {
        let mut r = Reactor::new().unwrap();
        let waker = Waker::new().unwrap();
        r.register(waker.fd(), 1, Interest::READ).unwrap();
        let handle = waker.handle().unwrap();
        let t = std::thread::spawn(move || {
            for _ in 0..1000 {
                handle.wake();
            }
        });
        let events = drain_poll(&mut r, Duration::from_millis(500));
        assert!(events
            .iter()
            .any(|e| matches!(e, PollEvent::Io { token: 1, .. })));
        t.join().unwrap();
        waker.drain();
        // Fully drained: quiet until the next wake.
        let mut out = Vec::new();
        r.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
        assert!(out.is_empty());
        waker.wake();
        let events = drain_poll(&mut r, Duration::from_millis(500));
        assert!(!events.is_empty());
    }
}
