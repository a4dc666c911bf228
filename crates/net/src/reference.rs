//! The PR 5 thread-per-connection net core, kept as a behavioral
//! oracle.
//!
//! This module is the driver/agent implementation the epoll reactor
//! replaced: one reader thread per agent connection funneling into a
//! channel, a dedicated heartbeat thread per agent, blocking
//! `write_all` + `flush` per frame. It is intentionally *not* shared
//! with the product path — the differential test suite runs the same
//! seeded workload through both cores and asserts identical joblogs,
//! which only means something if this code stays an independent
//! implementation of the same protocol contract.
//!
//! The one post-PR 5 change: the dispatch loop accepts v2
//! [`Frame::DoneBatch`] acks alongside per-task [`Frame::TaskDone`], so
//! a threaded driver can front reactor agents (and vice versa) during
//! migration and in mixed-core tests.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_cluster::driver_shard;
use htpar_core::executor::{FnExecutor, ProcessExecutor};
use htpar_core::joblog::{self, JobLogWriter, LogEntry};
use htpar_core::options::Options;
use htpar_core::runner::{Engine, JobInput};
use htpar_core::template::{ExpandContext, Template};
use htpar_telemetry::Event;
use parking_lot::Mutex;

use crate::agent::{read_next, task_done_frame, AgentReport};
use crate::conn::Conn;
use crate::driver::{DriveOutcome, DriverConfig};
use crate::fleet::{self, AgentStat, DRAIN_TIMEOUT};
use crate::frame::{Decoder, Frame, Payload, TaskDoneRec, TaskSpec, PROTOCOL_VERSION, SHARD_CHUNK};
use crate::lease::LeaseTracker;
use crate::{NetError, Result};

/// What a per-agent reader thread observed.
enum Ev {
    Frame(Frame),
    /// Clean EOF from the agent.
    Closed,
    /// Read or framing error (treated like a closed socket).
    Error(NetError),
}

/// Live driver-side state for one agent.
struct AgentConn {
    name: String,
    writer: Option<Conn>,
    assigned: HashSet<u64>,
    done: u64,
    alive: bool,
    /// `AgentExit` received (used by the drain phase).
    exited: bool,
    error: Option<String>,
    sent_bytes: u64,
    received_bytes: Arc<AtomicU64>,
}

/// Thread-per-connection driver: connect, handshake, dispatch, recover,
/// drain. Same contract as the reactor path ([`crate::driver::run_driver`]
/// documents it); the differential suite holds the two to identical
/// joblogs.
pub fn run_driver_threaded(
    config: &DriverConfig,
    inputs: &[Vec<String>],
    mut on_done: Option<&mut dyn FnMut(u64)>,
) -> Result<DriveOutcome> {
    if config.agents.is_empty() {
        return Err(NetError::Protocol("no agents configured".into()));
    }
    let template = Template::parse(&config.command)?;
    let total = inputs.len() as u64;
    let started = Instant::now();

    // --resume: diff the full task list against the aggregated joblog.
    let mut recorded: HashSet<u64> = HashSet::new();
    if config.resume {
        if let Some(path) = &config.joblog {
            recorded = joblog::completed_seqs(&joblog::read_log(path)?);
        }
    }
    let skipped = recorded.len() as u64;
    let pending: Vec<TaskSpec> = inputs
        .iter()
        .enumerate()
        .map(|(i, args)| TaskSpec {
            seq: i as u64 + 1,
            args: args.clone(),
        })
        .filter(|t| !recorded.contains(&t.seq))
        .collect();

    let mut log = match &config.joblog {
        Some(path) => Some(JobLogWriter::open(path)?),
        None => None,
    };

    // -- Connect + handshake (sequential; agents are already listening).
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        jobs: config.jobs_per_agent,
        heartbeat_ms: config.heartbeat_ms,
        payload: config.payload,
        command: config.command.clone(),
    };
    let hello_bytes = hello.encode();
    let mut agents: Vec<AgentConn> = Vec::with_capacity(config.agents.len());
    let mut reader_conns = Vec::with_capacity(config.agents.len());
    for (idx, spec) in config.agents.iter().enumerate() {
        let (conn, dec, name, slots) = fleet::handshake(spec, &hello_bytes)?;
        config.emit(Event::AgentConnected {
            agent: idx as u32,
            slots: slots as usize,
        });
        let reader = conn.try_clone()?;
        agents.push(AgentConn {
            name,
            writer: Some(conn),
            assigned: HashSet::new(),
            done: 0,
            alive: true,
            exited: false,
            error: None,
            sent_bytes: hello_bytes.len() as u64,
            received_bytes: Arc::new(AtomicU64::new(0)),
        });
        reader_conns.push((reader, dec));
    }

    // -- Reader threads: all inbound frames funnel into one channel.
    let (ev_tx, ev_rx) = crossbeam_channel::unbounded::<(usize, Ev)>();
    let mut reader_handles = Vec::new();
    for (idx, (mut conn, mut dec)) in reader_conns.into_iter().enumerate() {
        let tx = ev_tx.clone();
        let rx_bytes = Arc::clone(&agents[idx].received_bytes);
        reader_handles.push(std::thread::spawn(move || {
            let mut buf = [0u8; 64 * 1024];
            loop {
                // Drain decoded frames before reading more bytes.
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            if tx.send((idx, Ev::Frame(frame))).is_err() {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = tx.send((idx, Ev::Error(NetError::Frame(e))));
                            return;
                        }
                    }
                }
                match conn.read(&mut buf) {
                    Ok(0) => {
                        let _ = tx.send((idx, Ev::Closed));
                        return;
                    }
                    Ok(n) => {
                        rx_bytes.fetch_add(n as u64, Ordering::Relaxed);
                        dec.extend(&buf[..n]);
                    }
                    Err(e) => {
                        let _ = tx.send((idx, Ev::Error(NetError::Io(e))));
                        return;
                    }
                }
            }
        }));
    }
    drop(ev_tx);

    // -- Initial placement: the awk NR-modulo split across all agents.
    let shards = driver_shard(&pending, agents.len() as u32);
    for (idx, shard) in shards.into_iter().enumerate() {
        if !send_shard(config, &mut agents, idx, shard) {
            handle_loss(config, &mut agents, idx, &recorded, inputs)?;
        }
    }

    // -- Dispatch loop.
    let lease = LeaseTracker::new(agents.len());
    let mut completed = 0u64;
    let mut duplicates = 0u64;
    let goal = pending.len() as u64;
    let tick = Duration::from_millis((config.heartbeat_ms as u64 / 2).clamp(10, 200));
    // Record one completion (shared by TaskDone and DoneBatch arms).
    macro_rules! record_done {
        ($idx:expr, $rec:expr) => {{
            let rec: TaskDoneRec = $rec;
            if recorded.contains(&rec.seq) {
                // A re-sharded task finished on two agents; record-once
                // keeps the joblog exact.
                duplicates += 1;
            } else {
                recorded.insert(rec.seq);
                agents[$idx].done += 1;
                completed += 1;
                if let Some(log) = &mut log {
                    let args = inputs
                        .get((rec.seq - 1) as usize)
                        .map(|a| a.as_slice())
                        .unwrap_or(&[]);
                    let command = template.expand(&ExpandContext {
                        args,
                        seq: rec.seq,
                        slot: 0,
                    });
                    log.record_entry(&LogEntry {
                        seq: rec.seq,
                        host: agents[$idx].name.clone(),
                        start: rec.start_epoch_us as f64 / 1e6,
                        runtime: rec.runtime_us as f64 / 1e6,
                        send: 0,
                        receive: rec.stdout.len() as u64,
                        exitval: rec.exitval,
                        signal: rec.signal,
                        command,
                    })?;
                    // Flush per row: complete lines on disk are what
                    // makes `--resume` exact after the driver itself is
                    // killed.
                    log.flush()?;
                }
                if let Some(cb) = on_done.as_deref_mut() {
                    cb(completed);
                }
            }
        }};
    }
    while completed < goal {
        match ev_rx.recv_timeout(tick) {
            Ok((idx, Ev::Frame(frame))) => {
                lease.touch(idx);
                match frame {
                    Frame::TaskDone {
                        seq,
                        exitval,
                        signal,
                        start_epoch_us,
                        runtime_us,
                        stdout,
                        stderr,
                    } => record_done!(
                        idx,
                        TaskDoneRec {
                            seq,
                            exitval,
                            signal,
                            start_epoch_us,
                            runtime_us,
                            stdout,
                            stderr,
                        }
                    ),
                    Frame::DoneBatch { results } => {
                        for rec in results {
                            record_done!(idx, rec);
                        }
                    }
                    Frame::Heartbeat { .. } => {}
                    Frame::AgentExit { .. } => {
                        // A mid-run exit (engine error) is followed by a
                        // socket close, which triggers loss handling;
                        // here only the exit itself is noted.
                        agents[idx].exited = true;
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "unexpected agent frame {other:?}"
                        )))
                    }
                }
            }
            Ok((idx, Ev::Closed)) => {
                handle_loss(config, &mut agents, idx, &recorded, inputs)?;
            }
            Ok((idx, Ev::Error(e))) => {
                agents[idx].error.get_or_insert_with(|| e.to_string());
                handle_loss(config, &mut agents, idx, &recorded, inputs)?;
            }
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                // Every reader thread is gone with work unfinished.
                return Err(NetError::AllAgentsLost {
                    remaining: goal - completed,
                });
            }
        }
        // Lease sweep: a live socket with a silent engine (wedged node,
        // half-open network partition) is as dead as a closed one.
        for idx in 0..agents.len() {
            if agents[idx].alive && lease.expired(idx, config.lease_window_ms) {
                handle_loss(config, &mut agents, idx, &recorded, inputs)?;
            }
        }
    }

    // -- Drain: tell survivors to finish and wait for their exits.
    for agent in agents.iter_mut() {
        if !agent.alive {
            continue;
        }
        let bytes = Frame::Drain.encode();
        if let Some(w) = agent.writer.as_mut() {
            if w.write_all(&bytes).and_then(|_| w.flush()).is_ok() {
                agent.sent_bytes += bytes.len() as u64;
            }
        }
    }
    let drain_deadline = Instant::now() + DRAIN_TIMEOUT;
    while agents.iter().any(|a| a.alive && !a.exited) {
        let left = drain_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match ev_rx.recv_timeout(left.min(Duration::from_millis(100))) {
            Ok((idx, Ev::Frame(Frame::AgentExit { .. }))) => agents[idx].exited = true,
            Ok((idx, Ev::Closed)) => {
                // Post-drain close without AgentExit still counts as
                // gone; its work is already complete.
                agents[idx].exited = true;
            }
            Ok((idx, Ev::Error(e))) => {
                agents[idx].error.get_or_insert_with(|| e.to_string());
                agents[idx].exited = true;
            }
            Ok(_) => {}
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    for (idx, agent) in agents.iter_mut().enumerate() {
        if let Some(w) = agent.writer.take() {
            w.shutdown();
        }
        config.emit(Event::FrameBytes {
            agent: idx as u32,
            sent: agent.sent_bytes,
            received: agent.received_bytes.load(Ordering::Relaxed),
        });
    }
    drop(ev_rx);
    for handle in reader_handles {
        let _ = handle.join();
    }
    if let Some(log) = &mut log {
        log.flush()?;
    }

    Ok(DriveOutcome {
        total,
        completed,
        skipped,
        skipped_dep_failed: 0,
        duplicates,
        agents: agents
            .into_iter()
            .map(|a| AgentStat {
                name: a.name,
                done: a.done,
                lost: !a.alive,
                error: a.error,
                peak_queue_bytes: 0,
            })
            .collect(),
        wall: started.elapsed(),
    })
}

/// Ship one shard to `idx` in `SHARD_CHUNK`-sized frames. Returns
/// `false` when the agent's write side is dead — the caller escalates
/// to [`handle_loss`], which re-shards everything assigned here too.
fn send_shard(
    config: &DriverConfig,
    agents: &mut [AgentConn],
    idx: usize,
    shard: Vec<TaskSpec>,
) -> bool {
    if shard.is_empty() {
        return true;
    }
    let count = shard.len() as u64;
    let agent = &mut agents[idx];
    for task in &shard {
        agent.assigned.insert(task.seq);
    }
    let Some(w) = agent.writer.as_mut() else {
        return false;
    };
    for chunk in shard.chunks(SHARD_CHUNK) {
        let bytes = Frame::Shard {
            tasks: chunk.to_vec(),
        }
        .encode();
        if w.write_all(&bytes).and_then(|_| w.flush()).is_err() {
            return false;
        }
        agent.sent_bytes += bytes.len() as u64;
    }
    config.emit(Event::ShardSent {
        agent: idx as u32,
        tasks: count,
    });
    true
}

/// Declare `idx` lost and re-shard its unfinished work onto survivors.
/// Idempotent (the `alive` flag guards re-entry from the reader event
/// and the lease sweep both firing for the same death).
fn handle_loss(
    config: &DriverConfig,
    agents: &mut [AgentConn],
    idx: usize,
    recorded: &HashSet<u64>,
    inputs: &[Vec<String>],
) -> Result<()> {
    if !agents[idx].alive {
        return Ok(());
    }
    agents[idx].alive = false;
    if let Some(w) = agents[idx].writer.take() {
        w.shutdown();
    }
    // Diff the lost shard against the aggregated joblog: only seqs with
    // no recorded completion anywhere need to run again.
    let mut lost: Vec<u64> = agents[idx]
        .assigned
        .iter()
        .filter(|seq| !recorded.contains(seq))
        .copied()
        .collect();
    lost.sort_unstable();
    config.emit(Event::AgentLost {
        agent: idx as u32,
        outstanding: lost.len() as u64,
    });
    if lost.is_empty() {
        return Ok(());
    }
    let survivors: Vec<usize> = agents
        .iter()
        .enumerate()
        .filter(|(_, a)| a.alive)
        .map(|(i, _)| i)
        .collect();
    if survivors.is_empty() {
        return Err(NetError::AllAgentsLost {
            remaining: lost.len() as u64,
        });
    }
    // Rebuild full TaskSpecs (args come from the driver's input table,
    // seq is 1-based) and split them across survivors with the same
    // modulo placement as the initial sharding.
    let specs: Vec<TaskSpec> = lost
        .iter()
        .map(|&seq| TaskSpec {
            seq,
            args: inputs.get((seq - 1) as usize).cloned().unwrap_or_default(),
        })
        .collect();
    let shards = driver_shard(&specs, survivors.len() as u32);
    for (slot, shard) in shards.into_iter().enumerate() {
        let target = survivors[slot];
        if !send_shard(config, agents, target, shard) {
            // The survivor died while receiving the re-shard; recurse so
            // its assignment (including what it just took over) moves on.
            handle_loss(config, agents, target, recorded, inputs)?;
        }
    }
    Ok(())
}

// -- Threaded agent session --------------------------------------------

/// Serialize and send one frame under the shared writer lock. Write
/// failures latch `dead` so later sends become no-ops instead of a
/// panic storm when the driver vanishes mid-run.
fn send(writer: &Mutex<Conn>, dead: &AtomicBool, frame: &Frame) {
    if dead.load(Ordering::Relaxed) {
        return;
    }
    let bytes = frame.encode();
    let mut conn = writer.lock();
    if conn.write_all(&bytes).is_err() || conn.flush().is_err() {
        dead.store(true, Ordering::Relaxed);
    }
}

/// Thread-per-duty agent session: reader thread for shards, heartbeat
/// thread for the lease, per-task `TaskDone` acks from the engine's
/// result callback. Assumes the `Hello` handshake already succeeded.
pub(crate) fn run_session_threaded(
    conn: Conn,
    mut dec: Decoder,
    name: &str,
    jobs: u32,
    heartbeat_ms: u32,
    payload: Payload,
    command: String,
) -> Result<AgentReport> {
    let writer = Arc::new(Mutex::new(conn.try_clone()?));
    let dead = Arc::new(AtomicBool::new(false));
    send(
        &writer,
        &dead,
        &Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: jobs.max(1),
            agent: name.to_string(),
        },
    );

    let received = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));

    // Reader thread: Shard frames become engine inputs; Drain (or EOF,
    // or a dead socket) drops the sender, which ends the job stream.
    let (task_tx, task_rx) = crossbeam_channel::unbounded::<JobInput>();
    let reader = {
        let mut conn = conn;
        let received = Arc::clone(&received);
        std::thread::spawn(move || -> Result<()> {
            loop {
                match read_next(&mut conn, &mut dec)? {
                    Some(Frame::Shard { tasks }) => {
                        received.fetch_add(tasks.len() as u64, Ordering::Relaxed);
                        for t in tasks {
                            if task_tx.send(JobInput::new(t.seq, t.args)).is_err() {
                                return Ok(());
                            }
                        }
                    }
                    Some(Frame::Drain) | None => return Ok(()),
                    Some(other) => {
                        return Err(NetError::Protocol(format!(
                            "unexpected driver frame {other:?}"
                        )))
                    }
                }
            }
        })
    };

    // Heartbeat thread: renew the driver's lease even when no task
    // finishes for a while (long tasks must not look like a dead node).
    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let dead = Arc::clone(&dead);
        let stop = Arc::clone(&hb_stop);
        let received = Arc::clone(&received);
        let done = Arc::clone(&done);
        let interval = Duration::from_millis(heartbeat_ms.max(1) as u64);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) && !dead.load(Ordering::Relaxed) {
                let d = done.load(Ordering::Relaxed);
                let inflight = received.load(Ordering::Relaxed).saturating_sub(d);
                send(
                    &writer,
                    &dead,
                    &Frame::Heartbeat {
                        done: d,
                        inflight: inflight.min(u32::MAX as u64) as u32,
                    },
                );
                // Sleep in short slices so shutdown is prompt.
                let mut left = interval;
                while !stop.load(Ordering::Relaxed) && left > Duration::ZERO {
                    let step = left.min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    left -= step;
                }
            }
        })
    };

    let on_result = {
        let writer = Arc::clone(&writer);
        let dead = Arc::clone(&dead);
        let done = Arc::clone(&done);
        Arc::new(move |result: &htpar_core::job::JobResult| {
            done.fetch_add(1, Ordering::Relaxed);
            send(&writer, &dead, &task_done_frame(result));
        })
    };

    let engine = Engine {
        options: Options {
            jobs: (jobs.max(1)) as usize,
            shell: matches!(payload, Payload::Shell),
            ..Options::default()
        },
        template: Template::parse(&command)?,
        executor: match payload {
            Payload::Shell => Arc::new(ProcessExecutor::shell()),
            Payload::Noop => Arc::new(FnExecutor::noop()),
            Payload::SleepUs(us) => Arc::new(FnExecutor::sleep(Duration::from_micros(us))),
            Payload::Dynamic => Arc::new(crate::agent::dynamic_executor()),
        },
        on_result: Some(on_result),
        skip: Default::default(),
        gate: None,
        bus: None,
    };
    // An owned blocking iterator over the task channel; its (0, None)
    // size hint routes the engine onto its streaming path, so work
    // starts on the first Shard while later shards are still in flight.
    struct RecvIter(crossbeam_channel::Receiver<JobInput>);
    impl Iterator for RecvIter {
        type Item = JobInput;
        fn next(&mut self) -> Option<JobInput> {
            self.0.recv().ok()
        }
    }
    let run = engine.run(Box::new(RecvIter(task_rx)));

    hb_stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    let reader_result = reader.join().expect("agent reader thread panicked");

    let total_done = done.load(Ordering::Relaxed);
    let reason = match (&run, &reader_result) {
        (Err(e), _) => format!("engine error: {e}"),
        (_, Err(e)) => format!("connection error: {e}"),
        (Ok(_), Ok(())) => "drained".to_string(),
    };
    send(
        &writer,
        &dead,
        &Frame::AgentExit {
            done: total_done,
            reason: reason.clone(),
        },
    );
    writer.lock().shutdown();
    run?;
    reader_result?;
    Ok(AgentReport {
        done: total_done,
        reason,
    })
}
