//! The driver: shards inputs across connected agents, aggregates their
//! joblog rows, and recovers from agent death.
//!
//! This is the paper's Listing 1 driver made live. Placement reuses
//! `cluster::driver_shard` (the awk `NR % nnodes` split); recovery
//! reuses the PR 3 logic against real processes: an agent whose
//! heartbeat lease expires — or whose socket closes with work
//! outstanding — is declared lost, its unfinished seqs are diffed
//! against the aggregated joblog, and the remainder is re-sharded
//! across survivors. Completion recording is exactly-once (a re-run
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
use htpar_core::dag::ReadySet;
use htpar_core::joblog::{self, JobLogWriter, LogEntry};
use htpar_core::options::ResumeMode;
use htpar_core::reactor::{PollEvent, Reactor};
use htpar_core::template::{ExpandContext, Template};
use htpar_telemetry::{Event, EventBus};

use crate::fleet::{self, AgentStat, Fleet, TOK_TICK};
use crate::frame::{Frame, Payload, TaskDoneRec, TaskSpec, PROTOCOL_VERSION};
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
    /// Per-agent cap on bytes queued to a socket ([`fleet::WRITE_QUEUE_CAP`]
    /// by default). A slow-reading agent stalls at this bound while its
    /// tasks wait in the fleet's backlog.
    pub write_queue_cap: usize,
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
            write_queue_cap: fleet::WRITE_QUEUE_CAP,
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

/// One drive: the agent fleet plus the driver's placement policy.
struct Drive<'a> {
    config: &'a DriverConfig,
    inputs: &'a [Vec<String>],
    reactor: Reactor,
    fleet: Fleet,
    /// Every seq ever placed on each agent (backlog included).
    assigned: Vec<HashSet<u64>>,
    /// Seqs with a joblog row: resumed, completed, or skipped-dep-failed.
    recorded: HashSet<u64>,
}

impl Drive<'_> {
    /// The task for a 1-based seq, args from the input table.
    fn task(&self, seq: u64) -> TaskSpec {
        TaskSpec {
            seq,
            args: self
                .inputs
                .get((seq - 1) as usize)
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Shard `tasks` across the alive agents with the NR-modulo split
    /// and pump them onto the wire. A survivor dying mid-placement
    /// escalates to [`Drive::handle_loss`], which re-shards its whole
    /// unfinished assignment.
    fn place(&mut self, tasks: Vec<TaskSpec>) -> Result<()> {
        if tasks.is_empty() {
            return Ok(());
        }
        let survivors = self.fleet.survivors();
        if survivors.is_empty() {
            return Err(NetError::AllAgentsLost {
                remaining: tasks.len() as u64,
            });
        }
        let shards = driver_shard(&tasks, survivors.len() as u32);
        for (shard, &target) in shards.into_iter().zip(&survivors) {
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
            self.assigned[target].extend(shard.iter().map(|t| t.seq));
            self.fleet.enqueue(target, shard);
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
        // Diff the lost shard against the aggregated joblog: only seqs
        // with no recorded completion anywhere need to run again.
        let mut lost: Vec<u64> = self.assigned[idx]
            .iter()
            .filter(|seq| !self.recorded.contains(seq))
            .copied()
            .collect();
        lost.sort_unstable();
        self.config.emit(Event::AgentLost {
            agent: idx as u32,
            outstanding: lost.len() as u64,
        });
        let tasks = lost.into_iter().map(|seq| self.task(seq)).collect();
        self.place(tasks)
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
    let recorded = match &config.joblog {
        Some(path) => joblog::resume_set(path, mode)?,
        None => HashSet::new(),
    };
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
    let goal = pending.len() as u64;

    // DAG drives: a ready set withholds every task with an unfinished
    // dependency; completions release work incrementally, so shards on
    // the wire only ever contain ready tasks.
    let mut ready_set = config.deps.as_ref().map(|deps| {
        assert_eq!(
            deps.len(),
            inputs.len(),
            "deps table must cover every input"
        );
        ReadySet::from_deps(deps, &recorded)
    });
    let pending: Vec<TaskSpec> = match ready_set.as_mut() {
        Some(rs) => {
            let ready_now: HashSet<u64> = rs.take_ready().into_iter().collect();
            pending
                .into_iter()
                .filter(|t| ready_now.contains(&t.seq))
                .collect()
        }
        None => pending,
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
        config.write_queue_cap,
        config.bus.clone(),
    )?;
    let mut drive = Drive {
        config,
        inputs,
        assigned: vec![HashSet::new(); fleet.len()],
        reactor,
        fleet,
        recorded,
    };
    drive.place(pending)?;

    // -- Dispatch loop: one poll loop over every socket plus the lease
    // tick, all from the same reactor.
    let mut completed = 0u64;
    let mut duplicates = 0u64;
    let mut skipped_dep = 0u64;
    // Tasks unblocked by completions in the current poll batch, awaiting
    // placement on alive agents.
    let mut release: Vec<TaskSpec> = Vec::new();
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
                if !drive.recorded.insert(rec.seq) {
                    // A re-sharded task finished on two agents;
                    // record-once keeps the joblog exact.
                    duplicates += 1;
                    continue;
                }
                drive.fleet.credit(idx);
                completed += 1;
                if let Some(log) = &mut log {
                    log.record_entry(&rec.log_entry(drive.fleet.name(idx), render(rec.seq)))?;
                }
                if let Some(cb) = on_done.as_deref_mut() {
                    cb(completed);
                }
                if let Some(rs) = ready_set.as_mut() {
                    let comp = rs.complete(rec.seq, rec.exitval == 0 && rec.signal == 0);
                    // Condemned descendants are terminal now: their skip
                    // rows land right after the failing dependency's
                    // row, so the joblog always lists a task's
                    // dependencies before the task itself.
                    for &seq in &comp.newly_skipped {
                        drive.recorded.insert(seq);
                        skipped_dep += 1;
                        if let Some(log) = &mut log {
                            log.record_entry(&htpar_core::dag::skip_entry(seq, &render(seq)))?;
                        }
                    }
                    release.extend(comp.newly_ready.into_iter().map(|seq| drive.task(seq)));
                }
            }
            if down {
                drive.handle_loss(idx)?;
            }
        }
        // Place tasks unblocked in this batch. Only alive agents receive
        // them, so a re-shard after agent death still never ships an
        // unready task.
        drive.place(std::mem::take(&mut release))?;
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
        skipped,
        skipped_dep_failed: skipped_dep,
        duplicates,
        agents: drive.fleet.stats(),
        wall: started.elapsed(),
    })
}
