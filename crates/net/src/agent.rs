//! The node agent: the process that runs on each compute node.
//!
//! An agent binds a listening socket, accepts exactly one driver
//! connection, handshakes, and then runs the `htpar-core` [`Engine`]
//! over a streaming job source fed by inbound `Shard` frames — so every
//! dispatch-path optimization (batched hand-out, completions delivered
//! by the worker that finished them) applies unchanged to network-fed
//! work.
//!
//! The session's I/O runs on one reactor thread: the socket and a
//! [`Waker`] self-pipe sit on the same epoll loop, heartbeats fire from
//! the reactor's timer heap, and task completions from the engine's
//! worker threads are coalesced into `DoneBatch` frames, many acks per
//! syscall. The engine itself runs on the calling thread.

use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, UNIX_EPOCH};

use htpar_core::executor::{ExecContext, Executor, FnExecutor, ProcessExecutor, TaskOutput};
use htpar_core::job::{CommandLine, JobResult};
use htpar_core::options::Options;
use htpar_core::reactor::{Interest, PollEvent, Reactor, Waker};
use htpar_core::runner::{Engine, JobInput};
use htpar_core::template::Template;

use crate::conn::{Conn, Listener};
use crate::frame::{Decoder, Frame, Payload, TaskDoneRec, PROTOCOL_VERSION};
use crate::nbio::{Fill, Flush, FrameConn};
use crate::{NetError, Result};

/// Marker line an announcing agent prints to stdout once its socket is
/// bound: `HTPAR_AGENT_LISTENING <spec>`. Parents that spawn agents on
/// ephemeral ports ([`crate::local::LocalCluster`]) read it to learn
/// the actual address.
pub const ANNOUNCE_PREFIX: &str = "HTPAR_AGENT_LISTENING";

/// Max completion records coalesced into one `DoneBatch` frame. Keeps
/// frames comfortably under [`crate::frame::MAX_FRAME_LEN`] even with
/// chatty task output while still amortizing the ack syscall ~100×.
pub const DONE_BATCH_MAX: usize = 256;

/// Agent-side configuration.
pub struct AgentConfig {
    /// Address spec to bind (`host:port` or `unix:/path`; port 0 picks
    /// a free TCP port).
    pub listen: String,
    /// Name reported in the handshake (the driver's joblog `Host`
    /// column). Defaults to `agent-<pid>`.
    pub name: String,
    /// Print the [`ANNOUNCE_PREFIX`] line once listening.
    pub announce: bool,
}

impl AgentConfig {
    pub fn new(listen: impl Into<String>) -> AgentConfig {
        AgentConfig {
            listen: listen.into(),
            name: format!("agent-{}", std::process::id()),
            announce: false,
        }
    }
}

/// What one agent session did (for logging and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentReport {
    /// Tasks completed and reported back to the driver.
    pub done: u64,
    /// Why the session ended (`drained`, or an error description).
    pub reason: String,
}

/// Read frames until one materializes; `Ok(None)` means clean EOF.
/// Blocking — used for handshakes on both sides before sockets go
/// non-blocking.
pub(crate) fn read_next(conn: &mut Conn, dec: &mut Decoder) -> Result<Option<Frame>> {
    let mut buf = [0u8; 64 * 1024];
    loop {
        if let Some(frame) = dec.next_frame()? {
            return Ok(Some(frame));
        }
        match conn.read(&mut buf) {
            Ok(0) => {
                return if dec.pending_bytes() == 0 {
                    Ok(None)
                } else {
                    Err(NetError::Protocol("connection closed mid-frame".into()))
                };
            }
            Ok(n) => dec.extend(&buf[..n]),
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// Bind, announce, accept one driver, run the session to completion.
pub fn serve(config: &AgentConfig) -> Result<AgentReport> {
    let listener = Listener::bind(&config.listen)?;
    if config.announce {
        let spec = listener.local_spec()?;
        println!("{ANNOUNCE_PREFIX} {spec}");
        std::io::stdout().flush().ok();
    }
    let conn = listener.accept()?;
    run_on_conn(conn, &config.name)
}

/// Run one driver session over an established connection.
pub fn run_on_conn(mut conn: Conn, name: &str) -> Result<AgentReport> {
    // The driver must speak first, promptly.
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut dec = Decoder::new();
    let (jobs, heartbeat_ms, payload, command) = match read_next(&mut conn, &mut dec)? {
        Some(Frame::Hello {
            version,
            jobs,
            heartbeat_ms,
            payload,
            command,
        }) => {
            if version != PROTOCOL_VERSION {
                let reason = format!(
                    "version mismatch: driver speaks {version}, agent speaks {PROTOCOL_VERSION}"
                );
                let exit = Frame::AgentExit {
                    done: 0,
                    reason: reason.clone(),
                };
                let _ = conn.write_all(&exit.encode());
                return Err(NetError::Protocol(reason));
            }
            (jobs, heartbeat_ms, payload, command)
        }
        Some(other) => return Err(NetError::Protocol(format!("expected Hello, got {other:?}"))),
        None => return Err(NetError::Protocol("driver closed before Hello".into())),
    };
    conn.set_read_timeout(None)?;
    run_session(conn, dec, name, jobs, heartbeat_ms, payload, command)
}

/// Executor for [`Payload::Dynamic`] sessions (v3+): the work kind rides
/// in each task's rendered command instead of the handshake, so one
/// engine serves tenants with different payloads. Directive grammar:
/// `noop`, `sleep:MICROS`, or `sh:COMMAND` (run via the shell executor,
/// exactly like a [`Payload::Shell`] session would run COMMAND).
fn dynamic_executor() -> FnExecutor {
    let shell = ProcessExecutor::shell();
    FnExecutor::new(move |cmd: &CommandLine| {
        let directive = cmd.rendered();
        if directive == "noop" {
            return Ok(TaskOutput::success());
        }
        if let Some(us) = directive.strip_prefix("sleep:") {
            let us: u64 = us
                .parse()
                .map_err(|_| format!("bad dynamic directive {directive:?}"))?;
            std::thread::sleep(Duration::from_micros(us));
            return Ok(TaskOutput::success());
        }
        if let Some(command) = directive.strip_prefix("sh:") {
            let rendered = CommandLine::new(
                cmd.seq,
                cmd.slot,
                cmd.args.clone(),
                command.to_string(),
                Vec::new(),
                Vec::new(),
            );
            return Ok(shell.execute(&rendered, &ExecContext::default()));
        }
        Err(format!("unknown dynamic directive {directive:?}"))
    })
}

/// Build the engine a session runs.
fn build_engine(
    jobs: u32,
    payload: Payload,
    command: &str,
    on_result: Arc<dyn Fn(&JobResult) + Send + Sync>,
) -> Result<Engine> {
    Ok(Engine {
        options: Options {
            jobs: (jobs.max(1)) as usize,
            shell: matches!(payload, Payload::Shell),
            ..Options::default()
        },
        template: Template::parse(command)?,
        executor: match payload {
            // `ProcessExecutor` launches through posix_spawn and the
            // pooled pidfd reaper (with shell bypass), so agent-hosted
            // shell sessions launch at local-path rates.
            Payload::Shell => Arc::new(ProcessExecutor::shell()),
            Payload::Noop => Arc::new(FnExecutor::noop()),
            Payload::SleepUs(us) => Arc::new(FnExecutor::sleep(Duration::from_micros(us))),
            Payload::Dynamic => Arc::new(dynamic_executor()),
        },
        on_result: Some(on_result),
        skip: Default::default(),
        gate: None,
        bus: None,
    })
}

/// Tokens on the agent session's reactor.
const TOK_SOCK: usize = 0;
const TOK_WAKER: usize = 1;
const TOK_HEARTBEAT: usize = 2;

/// Ceiling on io → engine task batches. Large enough to amortize the
/// channel round-trip to noise, small enough that one worker never hoards
/// a visible slice of a shard.
const FEED_BATCH: usize = 64;

/// Batch size for a `shard_len`-task shard across `jobs` slots: aim for
/// a few batches per slot so the tail stays balanced, floor 1 so tiny
/// shards keep per-task hand-out, cap [`FEED_BATCH`].
fn feed_batch(shard_len: usize, jobs: u32) -> usize {
    (shard_len / (jobs.max(1) as usize * 2)).clamp(1, FEED_BATCH)
}

/// One session: the engine runs on this thread; one I/O thread owns the
/// socket, the waker, and the heartbeat timer.
fn run_session(
    conn: Conn,
    dec: Decoder,
    name: &str,
    jobs: u32,
    heartbeat_ms: u32,
    payload: Payload,
    command: String,
) -> Result<AgentReport> {
    // HelloAck goes out while the socket is still blocking; everything
    // after rides the reactor. It grants the slots the engine runs, which
    // `build_engine` floors at one.
    let mut conn = conn;
    conn.write_all(
        &Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: jobs.max(1),
            agent: name.to_string(),
        }
        .encode(),
    )?;
    conn.flush()?;
    conn.set_nonblocking(true)?;

    let waker = Waker::new()?;
    let result_wake = waker.handle()?;
    let main_wake = waker.handle()?;

    let done = Arc::new(AtomicU64::new(0));
    let engine_done = Arc::new(AtomicBool::new(false));
    // Completion-notification flag: workers only write to the waker
    // pipe on a false→true flip, so a storm of finishing tasks costs
    // one pipe write, not thousands.
    let notified = Arc::new(AtomicBool::new(false));

    // Tasks cross io → engine as whole batches (the engine's
    // batch-granular source), so a multi-thousand-task shard costs a
    // handful of channel round-trips instead of one per task. Batches
    // are sized off the shard for load balance: big shards split into
    // [`FEED_BATCH`]-task slices, small tails down to singletons.
    let (task_tx, task_rx) = crossbeam_channel::unbounded::<Vec<JobInput>>();
    let (result_tx, result_rx) = crossbeam_channel::unbounded::<TaskDoneRec>();

    // Build the engine before spawning I/O so a bad command template
    // fails the session cleanly, with nothing to unwind.
    let on_result = {
        let done = Arc::clone(&done);
        let notified = Arc::clone(&notified);
        Arc::new(move |result: &JobResult| {
            done.fetch_add(1, Ordering::Relaxed);
            let _ = result_tx.send(task_done_rec(result));
            if !notified.swap(true, Ordering::Relaxed) {
                result_wake.wake();
            }
        })
    };
    let engine = build_engine(jobs, payload, &command, on_result)?;

    // I/O thread: the reactor loop.
    let io = {
        let done = Arc::clone(&done);
        let engine_done = Arc::clone(&engine_done);
        let notified = Arc::clone(&notified);
        let heartbeat = Duration::from_millis(heartbeat_ms.max(1) as u64);
        std::thread::spawn(move || -> Result<u64> {
            let mut reactor = Reactor::new()?;
            let mut fc = FrameConn::from_parts(conn, dec);
            reactor.register(fc.stream().as_raw_fd(), TOK_SOCK, Interest::READ)?;
            reactor.register(waker.fd(), TOK_WAKER, Interest::READ)?;
            reactor.arm_timer(Instant::now() + heartbeat, TOK_HEARTBEAT);

            let mut task_tx = Some(task_tx);
            let mut received = 0u64;
            // Once the socket dies, frames are dropped instead of
            // queued; the loop stays up to drain the result channel.
            let mut sock_dead = false;
            let mut want_write = false;
            let mut exit_queued = false;
            let mut io_error: Option<NetError> = None;
            let mut events: Vec<PollEvent> = Vec::with_capacity(64);

            'io: loop {
                events.clear();
                reactor.poll(&mut events, Some(Duration::from_millis(200)))?;
                for ev in &events {
                    match *ev {
                        PollEvent::Timer {
                            token: TOK_HEARTBEAT,
                        } => {
                            if !sock_dead && !exit_queued {
                                let d = done.load(Ordering::Relaxed);
                                fc.queue_frame(&Frame::Heartbeat {
                                    done: d,
                                    inflight: received.saturating_sub(d).min(u32::MAX as u64)
                                        as u32,
                                });
                            }
                            reactor.arm_timer(Instant::now() + heartbeat, TOK_HEARTBEAT);
                        }
                        PollEvent::Timer { .. } => {}
                        PollEvent::Io {
                            token: TOK_WAKER, ..
                        } => waker.drain(),
                        PollEvent::Io {
                            token: TOK_SOCK,
                            readable,
                            writable,
                            hangup,
                        } => {
                            if sock_dead {
                                continue;
                            }
                            if readable || hangup {
                                let fill = fc.fill();
                                loop {
                                    match fc.next_frame() {
                                        Ok(Some(Frame::Shard { tasks })) => {
                                            received += tasks.len() as u64;
                                            if let Some(tx) = &task_tx {
                                                let chunk = feed_batch(tasks.len(), jobs);
                                                let mut batch = Vec::with_capacity(chunk);
                                                for t in tasks {
                                                    batch.push(JobInput::new(t.seq, t.args));
                                                    if batch.len() >= chunk {
                                                        let full = std::mem::replace(
                                                            &mut batch,
                                                            Vec::with_capacity(chunk),
                                                        );
                                                        let _ = tx.send(full);
                                                    }
                                                }
                                                if !batch.is_empty() {
                                                    let _ = tx.send(batch);
                                                }
                                            }
                                        }
                                        Ok(Some(Frame::Drain)) => {
                                            // End of input: dropping the
                                            // sender ends the engine's
                                            // job stream after the tasks
                                            // already queued.
                                            task_tx = None;
                                        }
                                        Ok(Some(other)) => {
                                            io_error.get_or_insert(NetError::Protocol(format!(
                                                "unexpected driver frame {other:?}"
                                            )));
                                            task_tx = None;
                                            sock_dead = true;
                                            break;
                                        }
                                        Ok(None) => break,
                                        Err(e) => {
                                            io_error.get_or_insert(NetError::Frame(e));
                                            task_tx = None;
                                            sock_dead = true;
                                            break;
                                        }
                                    }
                                }
                                match fill {
                                    Ok(Fill::Blocked) => {}
                                    Ok(Fill::Eof) => {
                                        // Driver went away; no more input
                                        // and nowhere to ack.
                                        task_tx = None;
                                        sock_dead = true;
                                    }
                                    Err(e) => {
                                        io_error.get_or_insert(NetError::Io(e));
                                        task_tx = None;
                                        sock_dead = true;
                                    }
                                }
                            }
                            if writable && !sock_dead {
                                match fc.flush() {
                                    Ok(Flush::Drained) => {
                                        want_write =
                                            set_sock_interest(&reactor, &fc, want_write, false);
                                    }
                                    Ok(Flush::Blocked) => {}
                                    Err(e) => {
                                        io_error.get_or_insert(NetError::Io(e));
                                        task_tx = None;
                                        sock_dead = true;
                                    }
                                }
                            }
                        }
                        PollEvent::Io { .. } => {}
                    }
                }

                // Coalesce finished tasks into DoneBatch frames: clear
                // the flag first, then drain, so a completion landing
                // after the drain re-wakes the loop.
                notified.store(false, Ordering::Relaxed);
                loop {
                    let mut batch = Vec::new();
                    while batch.len() < DONE_BATCH_MAX {
                        match result_rx.try_recv() {
                            Ok(rec) => batch.push(rec),
                            Err(_) => break,
                        }
                    }
                    if batch.is_empty() {
                        break;
                    }
                    if !sock_dead {
                        fc.queue_frame(&Frame::DoneBatch { results: batch });
                    }
                }

                // The engine finishing (with the result channel fully
                // drained) queues the final AgentExit exactly once.
                if !exit_queued
                    && engine_done.load(Ordering::Relaxed)
                    && result_rx.is_empty()
                    && task_tx.is_none()
                {
                    exit_queued = true;
                    if !sock_dead {
                        fc.queue_frame(&Frame::AgentExit {
                            done: done.load(Ordering::Relaxed),
                            reason: "drained".to_string(),
                        });
                    }
                }

                if !sock_dead && fc.queued_bytes() > 0 {
                    match fc.flush() {
                        Ok(Flush::Drained) => {
                            want_write = set_sock_interest(&reactor, &fc, want_write, false);
                        }
                        Ok(Flush::Blocked) => {
                            want_write = set_sock_interest(&reactor, &fc, want_write, true);
                        }
                        Err(e) => {
                            io_error.get_or_insert(NetError::Io(e));
                            task_tx = None;
                            sock_dead = true;
                        }
                    }
                }

                if exit_queued && (sock_dead || fc.queued_bytes() == 0) {
                    break 'io;
                }
            }
            fc.stream().shutdown();
            match io_error {
                Some(e) => Err(e),
                None => Ok(received),
            }
        })
    };

    // The engine runs here, on the session's calling thread, pulling
    // task batches straight off the reactor's channel (the engine's
    // batch-granular streaming source) and pushing completions back.
    // Work starts on the first Shard while later shards are still in
    // flight; dropping the sender ends the stream.
    let run = engine.run_batched(task_rx);
    engine_done.store(true, Ordering::Relaxed);
    main_wake.wake();

    let io_result = io.join().expect("agent io thread panicked");
    let total_done = done.load(Ordering::Relaxed);
    let reason = match (&run, &io_result) {
        (Err(e), _) => format!("engine error: {e}"),
        (_, Err(e)) => format!("connection error: {e}"),
        (Ok(_), Ok(_)) => "drained".to_string(),
    };
    run?;
    io_result?;
    Ok(AgentReport {
        done: total_done,
        reason,
    })
}

/// Toggle write interest on the session socket; returns the new state.
fn set_sock_interest(reactor: &Reactor, fc: &FrameConn<Conn>, current: bool, want: bool) -> bool {
    if current == want {
        return current;
    }
    let interest = if want {
        Interest::READ_WRITE
    } else {
        Interest::READ
    };
    if reactor
        .reregister(fc.stream().as_raw_fd(), TOK_SOCK, interest)
        .is_ok()
    {
        want
    } else {
        current
    }
}

/// One finished job as a wire completion record.
fn task_done_rec(result: &JobResult) -> TaskDoneRec {
    let start_epoch_us = result
        .started_at
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_micros() as u64;
    TaskDoneRec {
        seq: result.seq,
        exitval: result.status.exitval(),
        signal: result.status.signal(),
        start_epoch_us,
        runtime_us: result.runtime.as_micros() as u64,
        stdout: result.stdout.clone(),
        stderr: result.stderr.clone(),
    }
}
