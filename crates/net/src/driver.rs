//! The driver: shards inputs across connected agents, aggregates their
//! joblog rows, and recovers from agent death.
//!
//! This is the paper's Listing 1 driver made live. Placement reuses
//! `cluster::driver_shard` (the awk `NR % nnodes` split) over seqs, and
//! each task's arguments go from the borrowed input table straight into
//! its agent's `Shard` bytes. One owner per task (unplaced, on agent
//! `i`, or recorded) is both the exactly-once guard and the reshard
//! source. Recovery runs the simulated driver's rule (`cluster::faults`)
//! against real processes: an agent whose heartbeat lease expires — or
//! whose socket closes with work outstanding — is declared lost, and
//! the seqs it still owns, which have no row in the aggregated joblog,
//! are re-sharded across survivors. Completion recording is exactly-once (a re-run
//! task that finishes twice is logged once); execution is
//! at-least-once, the same contract as the simulated driver and GNU
//! Parallel's `--resume`.
//!
//! The I/O core is the agent [`crate::fleet`] on one epoll
//! [`Reactor`]: non-blocking sockets, bounded vectored-write queues,
//! coalesced `DoneBatch` completions, and a lease sweep ticking from the
//! reactor's own timer heap. This module keeps only the driver's policy
//! on top of it: placement, the exactly-once record, the DAG ready set,
//! and reshard-on-loss.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_cluster::driver_shard;
use htpar_core::dag::{Completion, ReadySet};
use htpar_core::joblog::{self, JobLogWriter, LogEntry};
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
    /// Interval agents heartbeat at.
    pub heartbeat_ms: u32,
    /// Silence window after which an agent is declared lost. Must
    /// comfortably exceed `heartbeat_ms`.
    pub lease_window_ms: u64,
    /// Aggregated joblog path (one file for the whole cluster).
    pub joblog: Option<PathBuf>,
    /// Skip seqs already recorded in the joblog (`--resume`).
    pub resume: bool,
    /// Telemetry bus for agent lifecycle / shard / frame-byte events.
    pub bus: Option<Arc<EventBus>>,
    /// Nothing reads this field: the reactor is the only core. It stays
    /// until the benchmark stops setting it.
    pub core: NetCore,
    /// DAG drives: `deps[seq - 1]` lists the 1-based seqs that task
    /// depends on ([`htpar_core::dag::Dag::dep_seqs`]). When set, the
    /// driver releases tasks through a ready set — shards sent to
    /// agents only ever contain tasks whose dependencies completed, a
    /// failed task's descendants get `skipped-dep-failed` joblog rows,
    /// and `--resume` skips only *successful* rows so the unfinished
    /// subgraph replays. `None` = flat list (every task ready at start).
    pub deps: Option<Vec<Vec<u64>>>,
}

impl DriverConfig {
    pub fn new(agents: Vec<String>, command: impl Into<String>) -> DriverConfig {
        DriverConfig {
            agents,
            jobs_per_agent: 2,
            command: command.into(),
            payload: Payload::Shell,
            heartbeat_ms: 200,
            lease_window_ms: 2_000,
            joblog: None,
            resume: false,
            bus: None,
            core: NetCore::Reactor,
            deps: None,
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

/// Exactly-once check over an aggregated joblog: one row per seq,
/// covering `1..=total` exactly — the same contract
/// `cluster::faults::FaultRunResult::verify_exactly_once` enforces for
/// the simulated driver.
pub fn verify_exactly_once(entries: &[LogEntry], total: u64) -> std::result::Result<(), String> {
    if entries.len() as u64 != total {
        return Err(format!(
            "joblog has {} rows for {total} tasks",
            entries.len()
        ));
    }
    let seqs: HashSet<u64> = entries.iter().map(|e| e.seq).collect();
    if seqs.len() as u64 != total {
        return Err(format!(
            "joblog has {} distinct seqs for {total} tasks (duplicates recorded)",
            seqs.len()
        ));
    }
    for seq in 1..=total {
        if !seqs.contains(&seq) {
            return Err(format!("seq {seq} missing from joblog"));
        }
    }
    Ok(())
}

/// Who holds a task: the driver's one record per task, by seq − 1. It
/// is both the exactly-once guard and the reshard source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// On no agent: not yet released (DAG drives) or placed.
    Unplaced,
    /// Placed on this agent (its backlog included), not yet recorded.
    Agent(u32),
    /// Has a joblog row: resumed, completed, or skipped-dep-failed.
    Recorded,
}

/// One drive: the agent fleet plus the driver's placement policy.
struct Drive<'a> {
    config: &'a DriverConfig,
    inputs: &'a [Vec<String>],
    reactor: Reactor,
    fleet: Fleet,
    owner: Vec<Owner>,
}

impl Drive<'_> {
    /// Shard `seqs` across the alive agents with the NR-modulo split and
    /// pump them onto the wire, writing each task's arguments from the
    /// input table straight into the agent's `Shard` bytes. A survivor
    /// dying mid-placement escalates to [`Drive::handle_loss`], which
    /// re-shards its whole unrecorded assignment.
    fn place(&mut self, seqs: &[u64]) -> Result<()> {
        if seqs.is_empty() {
            return Ok(());
        }
        let survivors = self.fleet.survivors();
        if survivors.is_empty() {
            return Err(NetError::AllAgentsLost {
                remaining: seqs.len() as u64,
            });
        }
        let shards = driver_shard(seqs, survivors.len() as u32);
        for (shard, &target) in shards.iter().zip(&survivors) {
            if shard.is_empty() {
                continue;
            }
            if !self.fleet.is_alive(target) {
                // A re-shard nested in this loop already handled the
                // target's loss; its shard must go to who is left.
                self.place(shard)?;
                continue;
            }
            self.config.emit(Event::ShardSent {
                agent: target as u32,
                tasks: shard.len() as u64,
            });
            for &seq in shard {
                let i = (seq - 1) as usize;
                self.owner[i] = Owner::Agent(target as u32);
                self.fleet.enqueue(target, seq, &self.inputs[i]);
            }
            if !self.fleet.pump(&self.reactor, target) {
                self.handle_loss(target)?;
            }
        }
        Ok(())
    }

    /// Declare `idx` lost and re-shard its unfinished work onto
    /// survivors. Idempotent: a socket hangup and a lease expiry landing
    /// in the same poll batch re-shard exactly once.
    fn handle_loss(&mut self, idx: usize) -> Result<()> {
        if !self.fleet.lose(&self.reactor, idx) {
            return Ok(());
        }
        // Everything the agent still holds has no recorded completion
        // anywhere, so all of it runs again.
        let lost: Vec<u64> = (1..=self.owner.len() as u64)
            .filter(|&seq| self.owner[(seq - 1) as usize] == Owner::Agent(idx as u32))
            .collect();
        self.config.emit(Event::AgentLost {
            agent: idx as u32,
            outstanding: lost.len() as u64,
        });
        self.place(&lost)
    }

    /// Record `seq`; `false` when it already has a row (a re-sharded task
    /// that finished twice) or is not one of this drive's tasks.
    fn record(&mut self, seq: u64) -> bool {
        let owner = seq
            .checked_sub(1)
            .and_then(|i| self.owner.get_mut(i as usize));
        match owner {
            Some(owner) if *owner != Owner::Recorded => {
                *owner = Owner::Recorded;
                true
            }
            _ => false,
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
        let args = inputs
            .get((seq - 1) as usize)
            .map(|a| a.as_slice())
            .unwrap_or(&[]);
        template.expand(&ExpandContext { args, seq, slot: 0 })
    };
    let total = inputs.len() as u64;
    let started = Instant::now();

    // --resume: diff the full task list against the aggregated joblog.
    // DAG resume replays failed and skipped-dep-failed rows (with their
    // whole downstream subgraph), so only successes count as done.
    let mode = match (config.resume, config.deps.is_some()) {
        (false, _) => ResumeMode::Off,
        (true, false) => ResumeMode::Resume,
        (true, true) => ResumeMode::ResumeFailed,
    };
    let resumed = match &config.joblog {
        Some(path) => joblog::resume_set(path, mode)?,
        None => HashSet::new(),
    };
    let owner: Vec<Owner> = (1..=total)
        .map(|seq| {
            if resumed.contains(&seq) {
                Owner::Recorded
            } else {
                Owner::Unplaced
            }
        })
        .collect();
    // Rows of seqs past this input list (a longer earlier run) are not
    // this drive's tasks and count nowhere.
    let skipped = owner.iter().filter(|&&o| o == Owner::Recorded).count() as u64;
    let goal = total - skipped;

    // DAG drives: a ready set withholds every task with an unfinished
    // dependency; completions release work incrementally, so shards on
    // the wire only ever contain ready tasks.
    let mut ready_set = config.deps.as_ref().map(|deps| {
        assert_eq!(
            deps.len(),
            inputs.len(),
            "deps table must cover every input"
        );
        ReadySet::from_deps(deps, &resumed)
    });
    let pending: Vec<u64> = match ready_set.as_mut() {
        Some(rs) => rs.take_ready(),
        None => (1..=total)
            .filter(|&seq| owner[(seq - 1) as usize] == Owner::Unplaced)
            .collect(),
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
    let fleet = Fleet::connect(
        &reactor,
        &config.agents,
        &hello,
        config.lease_window_ms,
        config.bus.clone(),
    )?;
    let mut drive = Drive {
        config,
        inputs,
        reactor,
        fleet,
        owner,
    };
    drive.place(&pending)?;

    // -- Dispatch loop: one poll loop over every socket plus the lease
    // tick, all from the same reactor.
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut duplicates = 0u64;
    let mut skipped_dep = 0u64;
    // Tasks unblocked by completions in the current poll batch, awaiting
    // placement on alive agents.
    let mut release: Vec<u64> = Vec::new();
    let mut comp = Completion::default();
    let mut done: Vec<TaskDoneRec> = Vec::new();
    let tick = fleet::tick_interval(config.heartbeat_ms);
    let mut tick_key = drive.reactor.arm_timer(Instant::now() + tick, TOK_TICK);
    let mut events: Vec<PollEvent> = Vec::with_capacity(256);

    while completed + skipped_dep < goal {
        if !drive.fleet.any_alive() {
            return Err(NetError::AllAgentsLost {
                remaining: goal - completed - skipped_dep,
            });
        }
        events.clear();
        drive
            .reactor
            .poll(&mut events, Some(Duration::from_millis(200)))?;
        for ev in &events {
            let (idx, readable, writable) = match *ev {
                PollEvent::Timer { token: TOK_TICK } => {
                    for idx in drive.fleet.expired() {
                        drive.handle_loss(idx)?;
                    }
                    tick_key = drive.reactor.arm_timer(Instant::now() + tick, TOK_TICK);
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
            let down = drive
                .fleet
                .io(&drive.reactor, idx, readable, writable, &mut done);
            for rec in done.drain(..) {
                if !drive.record(rec.seq) {
                    // A re-sharded task finished on two agents;
                    // record-once keeps the joblog exact.
                    duplicates += 1;
                    continue;
                }
                drive.fleet.credit(idx);
                completed += 1;
                let ok = rec.exitval == 0 && rec.signal == 0;
                failed += u64::from(!ok);
                if let Some(log) = &mut log {
                    log.record_row(&rec.row(drive.fleet.name(idx), &render(rec.seq)))?;
                }
                if let Some(cb) = on_done.as_deref_mut() {
                    cb(completed);
                }
                if let Some(rs) = ready_set.as_mut() {
                    rs.complete(rec.seq, ok, &mut comp);
                    // Condemned descendants are terminal now: their skip
                    // rows land right after the failing dependency's
                    // row, so the joblog always lists a task's
                    // dependencies before the task itself.
                    for &seq in &comp.newly_skipped {
                        drive.record(seq);
                        skipped_dep += 1;
                        if let Some(log) = &mut log {
                            log.record_entry(&htpar_core::dag::skip_entry(seq, &render(seq)))?;
                        }
                    }
                    release.extend_from_slice(&comp.newly_ready);
                }
            }
            if down {
                drive.handle_loss(idx)?;
            }
        }
        // Place tasks unblocked in this batch. Only alive agents receive
        // them, so a re-shard after agent death still never ships an
        // unready task.
        drive.place(&release)?;
        release.clear();
        // One joblog flush per poll batch (not per row): complete lines
        // on disk keep `--resume` exact after a driver kill, while the
        // batch granularity keeps fsync traffic off the per-task path.
        if let Some(log) = &mut log {
            log.flush()?;
        }
    }
    drive.reactor.cancel_timer(tick_key);

    // -- Drain. Every seq is recorded by now, so completions landing
    // meanwhile are re-run duplicates and an agent lost here leaves
    // nothing to re-shard.
    drive.fleet.drain(&mut drive.reactor)?;
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
        agents: drive.fleet.stats(),
        wall: started.elapsed(),
    })
}
