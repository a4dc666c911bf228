//! The driver: shards inputs across connected agents, aggregates their
//! joblog rows, and recovers from agent death.
//!
//! This is the paper's Listing 1 driver made live. Its policy — which
//! agent takes each task, who takes a lost agent's work, which
//! completion counts, and for a graph which task is ready — is
//! `cluster::drive::DrivePolicy`, the code the fault simulator
//! (`cluster::faults`) runs at 9,408-node scale. This module keeps the
//! I/O around it: the agent [`crate::fleet`] on one epoll [`Reactor`],
//! the aggregated joblog, and `on_done`. Each task's arguments go from
//! the borrowed input table straight into its agent's `Shard` bytes. An
//! agent whose heartbeat lease expires — or whose socket closes with
//! work outstanding — is declared lost, and the seqs it still holds,
//! which have no row in the joblog, are placed on survivors. Recording
//! is exactly-once (a re-run task that finishes twice is logged once);
//! execution is at-least-once, the contract of GNU Parallel's
//! `--resume`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use htpar_cluster::drive::verify_exactly_once;
use htpar_cluster::drive::{Agents, DrivePolicy, NoAgentAlive};
use htpar_core::dag::{skip_entry, Dag};
use htpar_core::joblog::{self, JobLogWriter};
use htpar_core::options::ResumeMode;
use htpar_core::reactor::{PollEvent, Reactor};
use htpar_core::template::{ExpandContext, Template};
use htpar_telemetry::{Event, EventBus};

use crate::fleet::{self, AgentStat, Fleet, TOK_TICK};
use crate::frame::{Frame, Payload, TaskDoneRec, PROTOCOL_VERSION};
use crate::{NetCore, NetError, Result};

/// Driver-side configuration.
pub struct DriverConfig {
    /// Agent address specs to dial (`host:port` or `unix:/path`).
    pub agents: Vec<String>,
    /// Job slots per agent (`-j` forwarded in the handshake).
    pub jobs_per_agent: u32,
    /// Command template agents render per task.
    pub command: String,
    /// What agents run per task (real shell vs. measurement payloads).
    pub payload: Payload,
    /// Interval agents heartbeat at; an agent silent for ten of them
    /// is declared lost.
    pub heartbeat_ms: u32,
    /// Aggregated joblog path (one file for the whole cluster).
    pub joblog: Option<PathBuf>,
    /// Skip seqs already recorded in the joblog (`--resume`).
    pub resume: bool,
    /// Telemetry bus for agent lifecycle / shard / frame-byte events.
    pub bus: Option<Arc<EventBus>>,
    /// Nothing reads this field: the reactor is the only core. It stays
    /// until the benchmark stops setting it.
    pub core: NetCore,
    /// DAG drives: the graph over the inputs (node `i` is seq `i + 1`).
    /// Agents then only get tasks whose dependencies succeeded, a failed
    /// task's descendants get `skipped-dep-failed` rows, and `--resume`
    /// replays every task without a successful row.
    pub dag: Option<Dag>,
}

impl DriverConfig {
    pub fn new(agents: Vec<String>, command: impl Into<String>) -> DriverConfig {
        DriverConfig {
            agents,
            jobs_per_agent: 2,
            command: command.into(),
            payload: Payload::Shell,
            heartbeat_ms: 200,
            joblog: None,
            resume: false,
            bus: None,
            core: NetCore::Reactor,
            dag: None,
        }
    }

    pub(crate) fn emit(&self, event: Event) {
        if let Some(bus) = &self.bus {
            bus.emit(event);
        }
    }
}

/// What a drive accomplished.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// Total tasks in the input list.
    pub total: u64,
    /// Tasks completed (and logged) during this run.
    pub completed: u64,
    /// Of those, tasks that exited nonzero or were killed by a signal.
    pub failed: u64,
    /// Tasks skipped via `--resume` (already in the joblog).
    pub skipped: u64,
    /// DAG drives: tasks never dispatched because a dependency failed
    /// (each has its own `skipped-dep-failed` joblog row).
    pub skipped_dep_failed: u64,
    /// Completions that arrived for already-recorded seqs (re-sharded
    /// work finishing twice); recorded nowhere, counted for tests.
    pub duplicates: u64,
    pub agents: Vec<AgentStat>,
    /// Wall time of the dispatch loop (connect to drain).
    pub wall: Duration,
}

impl DriveOutcome {
    /// End-to-end completion rate of this run.
    pub fn tasks_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() > 0.0 {
            self.completed as f64 / self.wall.as_secs_f64()
        } else {
            f64::INFINITY
        }
    }
}

/// The agent fleet as the policy's [`Agents`]: a shard goes from the
/// borrowed input table straight into the agent's `Shard` bytes.
struct Io<'a> {
    config: &'a DriverConfig,
    inputs: &'a [Vec<String>],
    reactor: Reactor,
    fleet: Fleet,
}

impl Agents for Io<'_> {
    fn is_alive(&self, agent: usize) -> bool {
        self.fleet.is_alive(agent)
    }

    fn hand_over(&mut self, agent: usize, shard: &[u64], _from: Option<usize>) -> bool {
        self.config.emit(Event::ShardSent {
            agent: agent as u32,
            tasks: shard.len() as u64,
        });
        for &seq in shard {
            self.fleet
                .enqueue(agent, seq, &self.inputs[(seq - 1) as usize]);
        }
        self.fleet.pump(&self.reactor, agent)
    }

    /// Drop the agent's connection; none of `seqs` has a row anywhere,
    /// so all of them run again.
    fn lost(&mut self, agent: usize, seqs: &[u64]) {
        self.fleet.lose(&self.reactor, agent);
        self.config.emit(Event::AgentLost {
            agent: agent as u32,
            outstanding: seqs.len() as u64,
        });
    }
}

impl From<NoAgentAlive> for NetError {
    fn from(lost: NoAgentAlive) -> NetError {
        NetError::AllAgentsLost {
            remaining: lost.remaining,
        }
    }
}

/// Connect, handshake, dispatch, recover, drain. `on_done` (when given)
/// observes the global completion count after every newly recorded
/// task — tests use it to trigger chaos (e.g. SIGKILL an agent once
/// `done` crosses a threshold) at a deterministic point in the run.
pub fn run_driver(
    config: &DriverConfig,
    inputs: &[Vec<String>],
    mut on_done: Option<&mut dyn FnMut(u64)>,
) -> Result<DriveOutcome> {
    let template = Template::parse(&config.command)?;
    let render = |seq: u64| {
        let args = &inputs[(seq - 1) as usize];
        template.expand(&ExpandContext { args, seq, slot: 0 })
    };
    let total = inputs.len() as u64;
    let started = Instant::now();

    // --resume: the seqs the aggregated joblog already records. DAG
    // resume replays failed and skipped-dep-failed rows (with their
    // whole downstream subgraph), so only successes count as done.
    let mode = match (config.resume, config.dag.is_some()) {
        (false, _) => ResumeMode::Off,
        (true, false) => ResumeMode::Resume,
        (true, true) => ResumeMode::ResumeFailed,
    };
    let resumed = match &config.joblog {
        Some(path) => joblog::resume_set(path, mode)?,
        None => HashSet::new(),
    };
    let mut log = match &config.joblog {
        Some(path) => Some(JobLogWriter::open(path)?),
        None => None,
    };

    // -- Connect + handshake, then the initial placement: the awk
    // NR-modulo split across all agents.
    let reactor = Reactor::new()?;
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        jobs: config.jobs_per_agent,
        heartbeat_ms: config.heartbeat_ms,
        payload: config.payload,
        command: config.command.clone(),
    };
    let fleet = Fleet::connect(&reactor, &config.agents, &hello, config.bus.clone())?;
    let (mut policy, first) = DrivePolicy::new(total, fleet.len(), config.dag.as_ref(), &resumed);
    // Rows of seqs past this input list (a longer earlier run) are not
    // this drive's tasks and count nowhere.
    let skipped = total - policy.unrecorded();
    let mut io = Io {
        config,
        inputs,
        reactor,
        fleet,
    };
    policy.place(&first, &mut io)?;

    // -- Dispatch loop: one poll loop over every socket plus the lease
    // tick, all from the same reactor.
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut duplicates = 0u64;
    let mut skipped_dep = 0u64;
    // Tasks unblocked by completions in the current poll batch, awaiting
    // placement on alive agents.
    let mut release: Vec<u64> = Vec::new();
    let mut done: Vec<TaskDoneRec> = Vec::new();
    let tick = fleet::tick_interval(config.heartbeat_ms);
    let mut tick_key = io.reactor.arm_timer(Instant::now() + tick, TOK_TICK);
    let mut events: Vec<PollEvent> = Vec::with_capacity(256);

    while policy.unrecorded() > 0 {
        if !io.fleet.any_alive() {
            return Err(NetError::AllAgentsLost {
                remaining: policy.unrecorded(),
            });
        }
        events.clear();
        io.reactor
            .poll(&mut events, Some(Duration::from_millis(200)))?;
        for ev in &events {
            let (idx, readable, writable) = match *ev {
                PollEvent::Timer { token: TOK_TICK } => {
                    for idx in io.fleet.expired() {
                        policy.lose(idx, &mut io)?;
                    }
                    tick_key = io.reactor.arm_timer(Instant::now() + tick, TOK_TICK);
                    continue;
                }
                PollEvent::Timer { .. } => continue,
                PollEvent::Io {
                    token,
                    readable,
                    writable,
                    hangup,
                } => (token, readable || hangup, writable),
            };
            let down = io.fleet.io(&io.reactor, idx, readable, writable, &mut done);
            for rec in done.drain(..) {
                let ok = rec.exitval == 0 && rec.signal == 0;
                let Some(comp) = policy.record(rec.seq, ok) else {
                    // A re-placed task finished on two agents;
                    // record-once keeps the joblog exact.
                    duplicates += 1;
                    continue;
                };
                io.fleet.credit(idx);
                completed += 1;
                failed += u64::from(!ok);
                if let Some(log) = &mut log {
                    log.record_row(&rec.row(io.fleet.name(idx), &render(rec.seq)))?;
                    // Condemned descendants are terminal now: their skip
                    // rows land right after the failing dependency's
                    // row, so the joblog always lists a task's
                    // dependencies before the task itself.
                    for &seq in &comp.newly_skipped {
                        log.record_entry(&skip_entry(seq, &render(seq)))?;
                    }
                }
                skipped_dep += comp.newly_skipped.len() as u64;
                release.extend_from_slice(&comp.newly_ready);
                if let Some(cb) = on_done.as_deref_mut() {
                    cb(completed);
                }
            }
            // Idempotent: a hangup and a lease expiry landing in the
            // same poll batch re-place once.
            if down {
                policy.lose(idx, &mut io)?;
            }
        }
        // Place tasks unblocked in this batch. Only alive agents receive
        // them, so a re-placement after agent death still never ships
        // an unready task.
        policy.place(&release, &mut io)?;
        release.clear();
        // One joblog write per poll batch (not per row): complete lines
        // on disk keep `--resume` exact after a driver kill.
        if let Some(log) = &mut log {
            log.flush()?;
        }
    }
    io.reactor.cancel_timer(tick_key);

    // -- Drain. Every seq is recorded by now, so completions landing
    // meanwhile are re-run duplicates and an agent lost here leaves
    // nothing to re-shard.
    io.fleet.drain(&mut io.reactor)?;
    if let Some(log) = &mut log {
        log.flush()?;
    }

    Ok(DriveOutcome {
        total,
        completed,
        failed,
        skipped,
        skipped_dep_failed: skipped_dep,
        duplicates,
        agents: io.fleet.stats(),
        wall: started.elapsed(),
    })
}
