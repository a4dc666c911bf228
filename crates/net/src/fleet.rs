//! The agent fleet: the connection mechanics `drive` and `serve` share.
//!
//! Both the one-shot driver ([`crate::driver`]) and the pilot
//! ([`crate::serve`]) dial a set of agents, feed them tasks through
//! bounded write queues on one epoll [`Reactor`], decode coalesced
//! completions, renew heartbeat leases, and drain the fleet under a
//! deadline. A [`Fleet`] owns exactly that: one non-blocking
//! [`FrameConn`] per agent plus its backlog, write interest, lease and
//! byte counters. What to send where, and what a completion or a lost
//! agent means, stays with the caller: the driver's NR-modulo shards and
//! reshard-on-loss, the pilot's scheduler grants and requeue-on-loss.
//!
//! Reactor tokens `0..len()` are the agents; [`TOK_TICK`] and the drain
//! deadline are the fleet's timers. Callers may register their own
//! sockets (the pilot's listener and sessions) on other tokens.

use std::collections::VecDeque;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_core::reactor::{Interest, PollEvent, Reactor};
use htpar_telemetry::{Event, EventBus};

use crate::agent::{handshake, HANDSHAKE_DEADLINE};
use crate::conn::Conn;
use crate::frame::{Frame, ShardBytes, TaskDoneRec, SHARD_CHUNK};
use crate::lease::LeaseTracker;
use crate::nbio::{Fill, Flush, FrameConn};
use crate::{NetError, Result};

/// How long a drain waits for `AgentExit` after sending `Drain`.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-agent cap on bytes queued to a socket. A slow-reading agent
/// stalls at this bound while its tasks wait in the fleet's backlog:
/// backpressure instead of unbounded memory.
pub const WRITE_QUEUE_CAP: usize = 1 << 20;

/// An agent silent for this many heartbeats is declared lost.
const LEASE_HEARTBEATS: u64 = 10;

/// Timer token for the caller's periodic lease-sweep tick.
pub(crate) const TOK_TICK: usize = usize::MAX;
/// Timer token for the drain deadline.
const TOK_DRAIN: usize = usize::MAX - 1;

/// Per-agent accounting at the end of a run.
#[derive(Debug, Clone)]
pub struct AgentStat {
    /// Name from the agent's `HelloAck` (the joblog `Host` column).
    pub name: String,
    /// Tasks this agent completed (first completions only).
    pub done: u64,
    /// Whether the agent was declared lost mid-run.
    pub lost: bool,
    /// Read-side error that ended the connection, if it was not a
    /// clean close.
    pub error: Option<String>,
    /// High-water mark of this agent's socket write queue. The
    /// backpressure tests hold this to the write-queue cap plus at most
    /// one frame.
    pub peak_queue_bytes: u64,
}

/// Lease-sweep period for a heartbeat interval: half a heartbeat,
/// clamped to 10–200 ms.
pub(crate) fn tick_interval(heartbeat_ms: u32) -> Duration {
    Duration::from_millis((heartbeat_ms as u64 / 2).clamp(10, 200))
}

/// One agent connection.
struct Agent {
    name: String,
    slots: u32,
    /// Live connection; `None` once lost, exited, or drained.
    fc: Option<FrameConn<Conn>>,
    /// Tasks placed here but not yet queued to the socket (the overflow
    /// beyond the write-queue cap), already encoded as `Shard` frames of
    /// at most [`SHARD_CHUNK`] tasks; only the last one takes more.
    backlog: VecDeque<ShardBytes>,
    done: u64,
    alive: bool,
    /// `AgentExit` received (or the socket closed during the drain).
    exited: bool,
    error: Option<String>,
    /// Handshake bytes written before the `FrameConn` took over.
    pre_sent: u64,
    /// Counter snapshots taken when the connection is dropped.
    final_sent: u64,
    final_received: u64,
    final_peak: u64,
}

impl Agent {
    /// Deregister and shut down the connection, snapshotting its byte
    /// counters for the final telemetry.
    fn drop_conn(&mut self, reactor: &Reactor) {
        if let Some(fc) = self.fc.take() {
            self.final_sent = fc.sent_bytes();
            self.final_received = fc.received_bytes();
            self.final_peak = fc.peak_queued_bytes() as u64;
            let _ = reactor.deregister(fc.stream().as_raw_fd());
            fc.stream().shutdown();
        }
    }
}

/// What a [`Fleet::drain`] left for the caller.
pub(crate) struct Drained {
    /// Agents whose socket failed while taking the `Drain` frame; the
    /// fleet has declared them lost.
    pub lost: Vec<usize>,
    /// Completions that arrived during the drain, by agent index.
    pub late: Vec<(usize, TaskDoneRec)>,
}

/// Every agent connection of one drive or pilot, on one reactor.
pub(crate) struct Fleet {
    agents: Vec<Agent>,
    lease: LeaseTracker,
    lease_ms: u64,
    write_queue_cap: usize,
    bus: Option<Arc<EventBus>>,
}

impl Fleet {
    /// Dial and handshake every agent in `specs` with `hello` (blocking,
    /// in order), then hand each socket to `reactor` on its index as
    /// token. An agent silent for [`LEASE_HEARTBEATS`] of the heartbeats
    /// `hello` asks for is reported by [`Fleet::expired`].
    pub(crate) fn connect(
        reactor: &Reactor,
        specs: &[String],
        hello: &Frame,
        bus: Option<Arc<EventBus>>,
    ) -> Result<Fleet> {
        if specs.is_empty() {
            return Err(NetError::Protocol("no agents configured".into()));
        }
        let Frame::Hello { heartbeat_ms, .. } = hello else {
            unreachable!("the fleet handshakes with a Hello");
        };
        // Agents heartbeat at least every millisecond.
        let lease_ms = LEASE_HEARTBEATS * u64::from((*heartbeat_ms).max(1));
        let hello_bytes = hello.encode();
        let mut agents = Vec::with_capacity(specs.len());
        for (idx, spec) in specs.iter().enumerate() {
            let (conn, dec, name, slots) = handshake(spec, &hello_bytes, HANDSHAKE_DEADLINE)?;
            conn.set_nonblocking(true)?;
            reactor.register(conn.as_raw_fd(), idx, Interest::READ)?;
            if let Some(bus) = &bus {
                bus.emit(Event::AgentConnected {
                    agent: idx as u32,
                    slots: slots as usize,
                });
            }
            agents.push(Agent {
                name,
                slots,
                fc: Some(FrameConn::from_parts(conn, dec)),
                backlog: VecDeque::new(),
                done: 0,
                alive: true,
                exited: false,
                error: None,
                pre_sent: hello_bytes.len() as u64,
                final_sent: 0,
                final_received: 0,
                final_peak: 0,
            });
        }
        Ok(Fleet {
            lease: LeaseTracker::new(agents.len()),
            agents,
            lease_ms,
            write_queue_cap: WRITE_QUEUE_CAP,
            bus,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.agents.len()
    }

    /// The agent's handshake name (the joblog `Host` column).
    pub(crate) fn name(&self, idx: usize) -> &str {
        &self.agents[idx].name
    }

    /// Slots the agent granted in its `HelloAck`.
    pub(crate) fn slots(&self, idx: usize) -> u32 {
        self.agents[idx].slots
    }

    pub(crate) fn is_alive(&self, idx: usize) -> bool {
        self.agents[idx].alive
    }

    pub(crate) fn any_alive(&self) -> bool {
        self.agents.iter().any(|a| a.alive)
    }

    /// Slots across the agents not yet declared lost.
    pub(crate) fn alive_slots(&self) -> usize {
        self.agents
            .iter()
            .filter(|a| a.alive)
            .map(|a| a.slots as usize)
            .sum()
    }

    /// Count one first completion toward the agent's [`AgentStat::done`].
    pub(crate) fn credit(&mut self, idx: usize) {
        self.agents[idx].done += 1;
    }

    /// Park a task in the agent's backlog; [`Fleet::pump`] moves it to
    /// the socket as the write queue allows.
    pub(crate) fn enqueue(&mut self, idx: usize, seq: u64, args: &[String]) {
        self.open_shard(idx).push(seq, args);
    }

    /// Park one task whose single argument `arg` writes straight into
    /// the agent's backlog bytes.
    pub(crate) fn enqueue_with(&mut self, idx: usize, seq: u64, arg: impl FnOnce(&mut Vec<u8>)) {
        self.open_shard(idx).push_with(seq, arg);
    }

    /// The backlog frame that takes the agent's next task.
    fn open_shard(&mut self, idx: usize) -> &mut ShardBytes {
        let backlog = &mut self.agents[idx].backlog;
        if backlog
            .back()
            .is_none_or(|shard| shard.tasks() >= SHARD_CHUNK)
        {
            backlog.push_back(ShardBytes::new());
        }
        backlog.back_mut().expect("pushed above")
    }

    /// Move backlog tasks into the socket's write queue up to the cap,
    /// then write as much as the socket takes, adjusting write interest
    /// to match. Returns `false` when the connection failed: the caller
    /// runs its loss policy.
    pub(crate) fn pump(&mut self, reactor: &Reactor, idx: usize) -> bool {
        let cap = self.write_queue_cap;
        let agent = &mut self.agents[idx];
        let Some(fc) = agent.fc.as_mut() else {
            return false;
        };
        loop {
            // Refill the write queue from the backlog, staying under the
            // cap (but always queueing at least one frame so a cap
            // smaller than a frame still makes progress).
            while fc.queued_bytes() == 0 || fc.queued_bytes() < cap {
                let Some(shard) = agent.backlog.pop_front() else {
                    break;
                };
                fc.queue_bytes(shard.finish());
            }
            if fc.queued_bytes() == 0 {
                return fc.set_write_interest(reactor, idx, false).is_ok();
            }
            match fc.flush() {
                // More backlog fits now that the queue drained.
                Ok(Flush::Drained) if !agent.backlog.is_empty() => {}
                Ok(Flush::Drained) => return fc.set_write_interest(reactor, idx, false).is_ok(),
                Ok(Flush::Blocked) => return fc.set_write_interest(reactor, idx, true).is_ok(),
                Err(e) => {
                    agent.error.get_or_insert_with(|| e.to_string());
                    return false;
                }
            }
        }
    }

    /// Read everything the agent's socket holds and decode every whole
    /// frame, appending completions to `done` and renewing the lease.
    /// Returns `true` when the connection is down: EOF, a read error,
    /// undecodable bytes, or a frame no agent sends. Frames that arrived
    /// ahead of a close are decoded first, since an agent's final
    /// `DoneBatch`/`AgentExit` often ride the same bytes as the close.
    fn read(&mut self, idx: usize, done: &mut Vec<TaskDoneRec>) -> bool {
        let agent = &mut self.agents[idx];
        let Some(fc) = agent.fc.as_mut() else {
            return false;
        };
        let mut down = match fc.fill() {
            Ok(Fill::Blocked) => false,
            Ok(Fill::Eof) => true,
            Err(e) => {
                agent.error.get_or_insert_with(|| e.to_string());
                true
            }
        };
        loop {
            let frame = match fc.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    agent
                        .error
                        .get_or_insert_with(|| NetError::Frame(e).to_string());
                    down = true;
                    break;
                }
            };
            self.lease.touch(idx);
            match frame {
                Frame::DoneBatch { results } if done.is_empty() => *done = results,
                Frame::DoneBatch { results } => done.extend(results),
                Frame::Heartbeat { .. } => {}
                Frame::AgentExit { .. } => agent.exited = true,
                other => {
                    let violation = NetError::Protocol(format!("unexpected agent frame {other:?}"));
                    agent.error.get_or_insert_with(|| violation.to_string());
                    down = true;
                    break;
                }
            }
        }
        down
    }

    /// Handle one reactor event on agent `idx`: when `readable` (or hung
    /// up), decode its completions into `done`; when `writable`, push
    /// more backlog. Returns `true` when the connection went down and
    /// the caller must run its loss policy. Events for an agent already
    /// declared lost are stale and ignored.
    pub(crate) fn io(
        &mut self,
        reactor: &Reactor,
        idx: usize,
        readable: bool,
        writable: bool,
        done: &mut Vec<TaskDoneRec>,
    ) -> bool {
        if !self.agents.get(idx).is_some_and(|a| a.alive) {
            return false;
        }
        if readable && self.read(idx, done) {
            return true;
        }
        writable && !self.pump(reactor, idx)
    }

    /// Alive agents whose lease is older than the window: a live socket
    /// with a silent engine is as dead as a closed one.
    pub(crate) fn expired(&self) -> Vec<usize> {
        (0..self.agents.len())
            .filter(|&i| self.agents[i].alive && self.lease.expired(i, self.lease_ms))
            .collect()
    }

    /// Declare agent `idx` lost: drop its connection and backlog.
    /// Returns `false` if it already was, so a hangup and a lease expiry
    /// landing in one poll batch run the caller's loss policy once.
    pub(crate) fn lose(&mut self, reactor: &Reactor, idx: usize) -> bool {
        let agent = &mut self.agents[idx];
        if !agent.alive {
            return false;
        }
        agent.alive = false;
        agent.drop_conn(reactor);
        agent.backlog.clear();
        true
    }

    /// Tell every alive agent to finish and wait for their `AgentExit`s
    /// on `reactor`, for at most [`DRAIN_TIMEOUT`]; then drop every
    /// connection and emit each agent's `FrameBytes`. Backlog still
    /// parked is dropped: callers drain once their work is done.
    pub(crate) fn drain(&mut self, reactor: &mut Reactor) -> Result<Drained> {
        let mut drained = Drained {
            lost: Vec::new(),
            late: Vec::new(),
        };
        for idx in 0..self.agents.len() {
            let agent = &mut self.agents[idx];
            if !agent.alive {
                continue;
            }
            agent.backlog.clear();
            if let Some(fc) = agent.fc.as_mut() {
                fc.queue_frame(&Frame::Drain);
            }
            if !self.pump(reactor, idx) && self.lose(reactor, idx) {
                drained.lost.push(idx);
            }
        }
        reactor.arm_timer(Instant::now() + DRAIN_TIMEOUT, TOK_DRAIN);
        let mut events: Vec<PollEvent> = Vec::with_capacity(64);
        let mut done = Vec::new();
        'drain: while self.agents.iter().any(|a| a.alive && !a.exited) {
            events.clear();
            reactor.poll(&mut events, Some(Duration::from_millis(100)))?;
            for ev in &events {
                let (idx, readable, writable) = match *ev {
                    PollEvent::Timer { token: TOK_DRAIN } => break 'drain,
                    PollEvent::Io {
                        token,
                        readable,
                        writable,
                        hangup,
                    } if token < self.agents.len() => (token, readable || hangup, writable),
                    _ => continue,
                };
                if self.agents[idx].fc.is_none() {
                    continue;
                }
                // A close during the drain, with or without `AgentExit`,
                // counts as gone: the agent's work is already complete.
                let gone = (readable && self.read(idx, &mut done))
                    || (writable && !self.pump(reactor, idx));
                drained.late.extend(done.drain(..).map(|rec| (idx, rec)));
                if gone {
                    let agent = &mut self.agents[idx];
                    agent.exited = true;
                    agent.drop_conn(reactor);
                }
            }
        }
        for (idx, agent) in self.agents.iter_mut().enumerate() {
            agent.drop_conn(reactor);
            if let Some(bus) = &self.bus {
                bus.emit(Event::FrameBytes {
                    agent: idx as u32,
                    sent: agent.pre_sent + agent.final_sent,
                    received: agent.final_received,
                });
            }
        }
        Ok(drained)
    }

    /// Per-agent accounting for the run's outcome.
    pub(crate) fn stats(&self) -> Vec<AgentStat> {
        self.agents
            .iter()
            .map(|a| AgentStat {
                name: a.name.clone(),
                done: a.done,
                lost: !a.alive,
                error: a.error.clone(),
                peak_queue_bytes: a
                    .fc
                    .as_ref()
                    .map_or(a.final_peak, |fc| fc.peak_queued_bytes() as u64),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::TaskSpec;
    use std::io::Read;
    use std::os::unix::net::UnixStream;

    /// A fleet of one agent on one end of a socket pair, and the pair's
    /// other end.
    fn one_agent(write_queue_cap: usize) -> (Fleet, Reactor, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        ours.set_nonblocking(true).unwrap();
        theirs.set_nonblocking(true).unwrap();
        let reactor = Reactor::new().unwrap();
        reactor
            .register(ours.as_raw_fd(), 0, Interest::READ)
            .unwrap();
        let agent = Agent {
            name: "a0".into(),
            slots: 1,
            fc: Some(FrameConn::new(Conn::Unix(ours))),
            backlog: VecDeque::new(),
            done: 0,
            alive: true,
            exited: false,
            error: None,
            pre_sent: 0,
            final_sent: 0,
            final_received: 0,
            final_peak: 0,
        };
        let fleet = Fleet {
            agents: vec![agent],
            lease: LeaseTracker::new(1),
            lease_ms: 60_000,
            write_queue_cap,
            bus: None,
        };
        (fleet, reactor, theirs)
    }

    /// The backlog is encoded in place, task by task, through the
    /// driver's `enqueue` and the pilot's `enqueue_with`; what reaches
    /// the socket is byte for byte the `Shard` frames of the same tasks
    /// in chunks of `SHARD_CHUNK`, whatever the write-queue cap.
    #[test]
    fn backlog_bytes_are_the_shard_frames_of_the_same_tasks() {
        let tasks: Vec<TaskSpec> = (1..=5_000u64)
            .map(|seq| TaskSpec {
                seq: (seq << 40) | seq,
                args: match seq % 4 {
                    0 if seq <= 3_000 => vec![],
                    1 if seq <= 3_000 => vec!["a b".into(), format!("λ{seq}")],
                    _ => vec![format!("sh:echo {seq}")],
                },
            })
            .collect();
        let frames: Vec<Vec<u8>> = tasks
            .chunks(SHARD_CHUNK)
            .map(|chunk| {
                Frame::Shard {
                    tasks: chunk.to_vec(),
                }
                .encode()
            })
            .collect();
        let largest = frames.iter().map(Vec::len).max().unwrap();
        let want = frames.concat();
        for cap in [1, WRITE_QUEUE_CAP] {
            let (mut fleet, reactor, mut peer) = one_agent(cap);
            let (driver, pilot) = tasks.split_at(3_000);
            for task in driver {
                fleet.enqueue(0, task.seq, &task.args);
            }
            for task in pilot {
                fleet.enqueue_with(0, task.seq, |out| {
                    out.extend_from_slice(task.args[0].as_bytes())
                });
            }
            let mut got = Vec::new();
            let mut buf = [0u8; 64 * 1024];
            let deadline = Instant::now() + Duration::from_secs(10);
            while got.len() < want.len() {
                assert!(
                    Instant::now() < deadline,
                    "{} of {} bytes",
                    got.len(),
                    want.len()
                );
                assert!(fleet.pump(&reactor, 0), "pump failed");
                while let Ok(n) = peer.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    got.extend_from_slice(&buf[..n]);
                }
            }
            assert_eq!(got, want, "write-queue cap {cap}");
            // Backpressure: the cap plus at most one frame.
            assert!(fleet.stats()[0].peak_queue_bytes as usize <= cap + largest);
        }
    }
}
