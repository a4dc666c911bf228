//! Fault injection and the failure-resilient driver: the one simulator
//! of the Listing-1 run.
//!
//! The paper's answer to "what happens when a node dies at 9,000-node
//! scale?" is not a WMS fault-tolerance layer: the driver script shards
//! the work list by `NR % NNODE` (listing 1) and GNU Parallel's
//! `--joblog`/`--resume` skips whatever is already logged. This module
//! makes that claim testable: a seeded [`FaultPlan`] injects node
//! crashes, stragglers, and NVMe write failures as discrete events into
//! the weak-scaling run, and the driver recovers through the policy
//! `htpar drive` runs ([`DrivePolicy`]): when a crash is detected, the
//! dead node's unrecorded lines are split across the nodes alive at
//! that moment with the same listing-1 modulo split. The simulation
//! keeps only the nodes; placement, the exactly-once record and
//! re-placement are the live driver's code.
//!
//! With an empty plan this is Fig. 1's event-driven run: node-ready
//! events, one serial dispatcher per node bounded by its slots, task
//! completions, copy-back. It executes the node plans of
//! [`crate::weak_scaling::run`] and must agree with that closed form draw
//! for draw, up to the event clock's microseconds;
//! `fig1_weak_scaling --full-scale` checks it at 9,408 nodes.
//!
//! Model notes:
//!
//! - The joblog lives on the shared filesystem, so rows written by a
//!   node before it crashed survive the crash; tasks that were in
//!   flight (or never dispatched) on the dead node are the ones
//!   requeued. Each node dispatches the seqs the policy placed on it,
//!   in placement order. Exactly-once is verified against the
//!   simulator's own [`Joblog`], not the policy's record.
//! - An NVMe write failure does not kill the node: the affected task
//!   fails its stdout write and is retried in place (one
//!   [`Event::Retried`], roughly doubled cost), which preserves the
//!   single joblog row per seq.
//! - A straggler node runs every task `slowdown`× slower — the
//!   graceful-degradation case where nothing needs requeueing.
//!
//! The run reports recovery overhead as extra makespan over the
//! same-seed no-fault baseline, which `htpar_wms::compare` contrasts
//! with a simulated WMS that restarts per task through scheduler
//! round-trips.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use htpar_simkit::{stream_rng, Dist, EventId, SimTime, Simulation};
use htpar_telemetry::{Event, EventBus, LaunchMethod};
use rand::Rng;

use crate::drive::{self, Agents, DrivePolicy};
use crate::weak_scaling::{sample_node_plan, WeakScalingConfig};

/// Salt separating fault-plan draws from the workload's own streams.
const FAULT_STREAM_SALT: u64 = 0xFA17_0000_0000_0001;
/// Salt for re-sampling the cost of a requeued task on its new node.
const RECOVERY_STREAM_SALT: u64 = 0xFA17_0000_0000_0002;

/// Fault-injection rates for one run. All probabilities are per node.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a node crashes at a uniform time within the run.
    pub crash_rate: f64,
    /// Probability a node is a straggler (all tasks slowed down).
    pub straggler_rate: f64,
    /// Worst-case straggler slowdown factor (sampled in `1..=this`).
    pub straggler_slowdown: f64,
    /// Probability a node suffers one NVMe write failure mid-run.
    pub nvme_fault_rate: f64,
    /// Driver-side delay between a crash and the requeue of its shard
    /// (missing-heartbeat detection window), seconds.
    pub detect_delay_secs: f64,
    /// Seeds the plan's draws. A requeued task's cost on its new node is
    /// a workload draw, from the run's own seed.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all — the control arm of a campaign.
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            crash_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            nvme_fault_rate: 0.0,
            detect_delay_secs: 5.0,
            seed,
        }
    }

    /// A plausibly hostile campaign setting: node loss is rare on real
    /// machines but must be common in a small simulated fleet for the
    /// recovery path to be exercised every run.
    pub fn calibrated(seed: u64) -> FaultConfig {
        FaultConfig {
            crash_rate: 0.15,
            straggler_rate: 0.08,
            straggler_slowdown: 3.0,
            nvme_fault_rate: 0.05,
            detect_delay_secs: 5.0,
            seed,
        }
    }
}

/// The concrete faults of one run, sampled up front so injection is
/// deterministic per `(seed, node)` and independent of event order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// `(node, crash time secs)`.
    pub crashes: Vec<(u32, f64)>,
    /// `(node, slowdown factor ≥ 1)`.
    pub stragglers: Vec<(u32, f64)>,
    /// `(node, NVMe write-failure time secs)`.
    pub nvme_faults: Vec<(u32, f64)>,
}

impl FaultPlan {
    /// Sample a plan for `nodes` nodes. Fault times are uniform over
    /// `[0, horizon_secs)` (use the no-fault makespan as the horizon).
    /// At least one node is guaranteed to survive: if every node drew a
    /// crash, the latest-crashing one is spared so the driver always
    /// has somewhere to requeue.
    pub fn sample(faults: &FaultConfig, nodes: u32, horizon_secs: f64) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for node in 0..nodes {
            let mut rng = stream_rng(faults.seed ^ FAULT_STREAM_SALT, node as u64);
            // Draw every value unconditionally so plans with different
            // rates share fault times for the nodes they both afflict.
            let (crash_p, crash_t) = (rng.gen::<f64>(), rng.gen::<f64>() * horizon_secs);
            let (straggle_p, straggle_x) = (rng.gen::<f64>(), rng.gen::<f64>());
            let (nvme_p, nvme_t) = (rng.gen::<f64>(), rng.gen::<f64>() * horizon_secs);
            if crash_p < faults.crash_rate {
                plan.crashes.push((node, crash_t));
            }
            if straggle_p < faults.straggler_rate {
                let factor = 1.0 + straggle_x * (faults.straggler_slowdown - 1.0).max(0.0);
                plan.stragglers.push((node, factor));
            }
            if nvme_p < faults.nvme_fault_rate {
                plan.nvme_faults.push((node, nvme_t));
            }
        }
        if plan.crashes.len() == nodes as usize && nodes > 0 {
            let spare = plan
                .crashes
                .iter()
                .enumerate()
                .max_by(|(_, (_, a)), (_, (_, b))| a.total_cmp(b))
                .map(|(i, _)| i)
                .expect("nonempty");
            plan.crashes.remove(spare);
        }
        plan
    }

    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty() && self.nvme_faults.is_empty()
    }
}

/// Result of one fault-injected weak-scaling run.
#[derive(Debug, Clone)]
pub struct FaultRunResult {
    pub nodes: u32,
    pub tasks_total: u64,
    /// Latest node end (task or copy-back) of the faulty run, seconds.
    pub makespan_secs: f64,
    /// Makespan of the same-seed run with no faults injected.
    pub baseline_makespan_secs: f64,
    /// Nodes lost to injected crashes, in crash order.
    pub nodes_failed: Vec<u32>,
    /// Tasks re-sharded onto survivors by the driver.
    pub tasks_requeued: u64,
    /// The run's joblog, one row per completion in completion order: the
    /// ground truth the exactly-once invariant is checked against. The
    /// simulator writes it apart from the driver policy's own record, so
    /// checking it checks the policy.
    pub joblog: Vec<Row>,
}

impl FaultRunResult {
    /// Extra makespan paid for the injected faults (can be slightly
    /// negative when a slow outlier node crashes early and its shard
    /// finishes faster on the survivors).
    pub fn recovery_overhead_secs(&self) -> f64 {
        self.makespan_secs - self.baseline_makespan_secs
    }

    /// Completion time of every task (original or requeued), sorted,
    /// seconds.
    pub fn task_completion_secs(&self) -> Vec<f64> {
        let mut secs: Vec<f64> = self.joblog.iter().map(|row| row.secs).collect();
        secs.sort_by(f64::total_cmp);
        secs
    }

    /// The deterministic recovery invariant: every seq in
    /// `1..=tasks_total` has exactly one joblog row.
    pub fn verify_exactly_once(&self) -> std::result::Result<(), String> {
        let seqs = self.joblog.iter().map(|row| u64::from(row.seq));
        drive::verify_seqs(seqs, self.tasks_total)
    }
}

/// One compact row of the simulated joblog: `node` completed `seq` at
/// `secs` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub seq: u32,
    pub node: u32,
    pub secs: f64,
}

/// Per-node state inside the simulation world.
struct NodeState {
    /// Task cost parallel to the seqs the policy placed on this node:
    /// its listing-1 shard runs its own plan's costs, and slices
    /// requeued from dead nodes are re-sampled.
    costs: Vec<f64>,
    /// Next placed seq the serial dispatcher will hand out.
    next: usize,
    busy: u32,
    completed: u32,
    alive: bool,
    started: bool,
    /// A dispatch-chain hop is pending.
    dispatching: bool,
    /// The dispatcher is parked waiting for a free slot.
    stalled: bool,
    slowdown: f64,
    /// The next dispatched task pays an NVMe write-retry penalty.
    nvme_pending: bool,
    crash_at: Option<f64>,
    /// Events to cancel when this node crashes (start, completions, and
    /// dispatch hops; ids of already-fired events are harmless). Only a
    /// node the plan crashes keeps them.
    pending: Vec<EventId>,
    last_done: f64,
    copy: f64,
}

/// The simulation world. Handlers capture only node and seq numbers,
/// which keeps every closure inline in the event queue's handler
/// storage — no per-event allocation.
struct FaultWorld {
    /// The live driver's policy over the nodes as agents.
    policy: DrivePolicy,
    cluster: Cluster,
}

/// The simulated nodes, the policy's [`Agents`], and what the run
/// records. No node is lost taking a shard: a crash is its own event.
struct Cluster {
    nodes: Vec<NodeState>,
    /// Slots per node.
    jobs: u32,
    dispatch_gap: f64,
    detect_delay_secs: f64,
    task_runtime: Dist,
    /// Per-task stdout write cost on the new node (NVMe path).
    write_secs: f64,
    recovery_seed: u64,
    bus: Option<Arc<EventBus>>,
    joblog: Vec<Row>,
    nodes_failed: Vec<u32>,
    tasks_requeued: u64,
    /// Nodes whose drained dispatcher must restart for their new seqs.
    kicks: Vec<usize>,
}

impl Cluster {
    fn emit(&self, event: Event) {
        if let Some(bus) = &self.bus {
            bus.emit(event);
        }
    }

    /// Cost of re-running `seq` on a surviving node, deterministic per
    /// `(seed, seq)` no matter which survivor picks it up.
    fn recovery_cost(&self, seq: u64) -> f64 {
        let mut rng = stream_rng(self.recovery_seed, seq);
        self.task_runtime.sample(&mut rng) + self.write_secs
    }
}

impl Agents for Cluster {
    fn is_alive(&self, node: usize) -> bool {
        self.nodes[node].alive
    }

    fn hand_over(&mut self, to: usize, shard: &[u64], from: Option<usize>) -> bool {
        let Some(from) = from else {
            // The listing-1 shard: one seq per cost of the node's plan.
            debug_assert_eq!(shard.len(), self.nodes[to].costs.len());
            return true;
        };
        self.emit(Event::ShardRequeued {
            from_node: from as u32,
            to_node: to as u32,
            tasks: shard.len() as u64,
        });
        self.tasks_requeued += shard.len() as u64;
        let costs: Vec<f64> = shard.iter().map(|&seq| self.recovery_cost(seq)).collect();
        let st = &mut self.nodes[to];
        st.costs.extend(costs);
        // Nodes whose dispatcher already drained need a restart; stalled
        // or still-running dispatchers pick the new lines up on their
        // own, and unstarted nodes dispatch at node_start.
        if st.started && !st.dispatching && !st.stalled {
            st.dispatching = true;
            self.kicks.push(to);
        }
        true
    }
}

/// [`run_resilient`] with an optional telemetry bus: node startups emit
/// [`Event::NodeUp`] and a [`LaunchMethod::Parallel`] [`Event::Launch`],
/// crashes emit [`Event::NodeDown`], every requeued slice emits
/// [`Event::ShardRequeued`], NVMe retries emit [`Event::Retried`], and
/// the event engine reports its own milestones. Observation only —
/// results are identical with and without a bus.
pub fn run_resilient_observed(
    config: &WeakScalingConfig,
    faults: &FaultConfig,
    bus: Option<Arc<EventBus>>,
) -> FaultRunResult {
    let baseline_makespan_secs = crate::weak_scaling::run(config).makespan_secs;
    let plan = FaultPlan::sample(faults, config.nodes, baseline_makespan_secs);
    run_with_plan(
        config,
        &plan,
        faults.detect_delay_secs,
        baseline_makespan_secs,
        bus,
    )
}

/// Run the weak-scaling workload under a sampled [`FaultPlan`] with the
/// listing-1 + `--joblog --resume` recovery driver on top.
pub fn run_resilient(config: &WeakScalingConfig, faults: &FaultConfig) -> FaultRunResult {
    run_resilient_observed(config, faults, None)
}

/// [`run_resilient_observed`] against an explicit, hand-built
/// [`FaultPlan`] — the deterministic entry point for tests and
/// comparisons that need a specific failure (e.g. "node 1 dies at
/// t=30 s"), and, with an empty plan, Fig. 1's event-driven run.
/// Recovery overhead is measured against `baseline_makespan_secs`, the
/// same-seed makespan without faults ([`crate::weak_scaling::run`]'s).
pub fn run_with_plan(
    config: &WeakScalingConfig,
    plan: &FaultPlan,
    detect_delay_secs: f64,
    baseline_makespan_secs: f64,
    bus: Option<Arc<EventBus>>,
) -> FaultRunResult {
    assert!(config.nodes >= 1, "need at least one node");
    assert!(config.tasks_per_node >= 1 && config.jobs_per_node >= 1);
    let tasks_total = config.nodes as u64 * config.tasks_per_node as u64;
    assert!(
        tasks_total <= u64::from(u32::MAX),
        "joblog rows hold u32 seqs"
    );
    let nodes = config.nodes as usize;
    let crashes: HashMap<u32, f64> = plan.crashes.iter().copied().collect();
    let stragglers: HashMap<u32, f64> = plan.stragglers.iter().copied().collect();
    let mut cluster = Cluster {
        nodes: Vec::with_capacity(nodes),
        jobs: config.jobs_per_node.min(config.tasks_per_node),
        dispatch_gap: 1.0 / config.machine.launch.instance_rate(),
        detect_delay_secs,
        task_runtime: config.task_runtime.clone(),
        write_secs: config
            .machine
            .nvme
            .write_files_secs(1, config.stdout_bytes_per_task as f64),
        recovery_seed: config.seed ^ RECOVERY_STREAM_SALT,
        bus,
        joblog: Vec::with_capacity(tasks_total as usize),
        nodes_failed: Vec::new(),
        tasks_requeued: 0,
        kicks: Vec::new(),
    };
    let mut starts = Vec::with_capacity(nodes);
    let mut crash_events = Vec::with_capacity(plan.crashes.len());
    for node in 0..nodes {
        let plan_node = sample_node_plan(config, node as u32);
        let crash_at = crashes.get(&(node as u32)).copied();
        cluster.nodes.push(NodeState {
            costs: plan_node.task_costs,
            next: 0,
            busy: 0,
            completed: 0,
            alive: true,
            started: false,
            dispatching: false,
            stalled: false,
            slowdown: stragglers.get(&(node as u32)).copied().unwrap_or(1.0),
            nvme_pending: false,
            crash_at,
            pending: Vec::new(),
            last_done: 0.0,
            copy: plan_node.copy,
        });
        starts.push((
            SimTime::from_secs_f64(plan_node.start),
            move |sim: &mut Simulation<FaultWorld>| node_start(sim, node),
        ));
        if let Some(crash_t) = crash_at {
            crash_events.push((
                SimTime::from_secs_f64(crash_t),
                move |sim: &mut Simulation<FaultWorld>| node_crash(sim, node),
            ));
        }
    }
    // The global work list is seqs 1..=tasks_total, placed across nodes
    // exactly as the paper's awk driver does it (listing 1).
    let (mut policy, lines) = DrivePolicy::new(tasks_total, nodes, None, &HashSet::new());
    policy
        .place(&lines, &mut cluster)
        .expect("every node is alive at the start");
    // The policy holds the placement now; the run does not need the list.
    drop(lines);

    // Peak pending events: per node one dispatch hop plus up to `jobs`
    // completions in flight, plus the not-yet-fired fault injections.
    let peak_events =
        nodes * (cluster.jobs as usize + 2) + crash_events.len() + plan.nvme_faults.len();
    let mut sim =
        Simulation::with_capacity(FaultWorld { policy, cluster }, config.seed, peak_events);
    if let Some(bus) = &sim.world().cluster.bus {
        sim.set_telemetry(Arc::clone(bus));
    }
    let start_ids = sim.schedule_batch(starts);
    for (st, id) in sim.world_mut().cluster.nodes.iter_mut().zip(start_ids) {
        if st.crash_at.is_some() {
            st.pending.push(id);
        }
    }
    sim.schedule_batch(crash_events);
    sim.schedule_batch(plan.nvme_faults.iter().map(|&(node, t)| {
        (
            SimTime::from_secs_f64(t),
            move |sim: &mut Simulation<FaultWorld>| {
                if let Some(st) = sim.world_mut().cluster.nodes.get_mut(node as usize) {
                    if st.alive {
                        st.nvme_pending = true;
                    }
                }
            },
        )
    }));

    sim.run();
    let cluster = sim.into_world().cluster;

    let mut makespan_secs = 0.0f64;
    for st in &cluster.nodes {
        if st.completed == 0 {
            continue;
        }
        // A dead node's copy-back only counts if the crash came after it.
        let full = st.last_done + st.copy;
        let end = match st.crash_at {
            Some(t) if !st.alive && t < full => st.last_done,
            _ => full,
        };
        makespan_secs = makespan_secs.max(end);
    }

    FaultRunResult {
        nodes: config.nodes,
        tasks_total,
        makespan_secs,
        baseline_makespan_secs,
        nodes_failed: cluster.nodes_failed,
        tasks_requeued: cluster.tasks_requeued,
        joblog: cluster.joblog,
    }
}

fn node_start(sim: &mut Simulation<FaultWorld>, node: usize) {
    let world = sim.world_mut();
    let st = &mut world.cluster.nodes[node];
    if !st.alive {
        return;
    }
    st.started = true;
    st.dispatching = true;
    world.cluster.emit(Event::NodeUp { node: node as u32 });
    world.cluster.emit(Event::Launch {
        method: LaunchMethod::Parallel,
        tasks: world.policy.placed(node).len() as u64,
    });
    dispatch(sim, node);
}

/// One hop of the node's serial dispatcher: take the next shard line if
/// a slot is free, schedule its completion, and schedule the next hop
/// one dispatch gap later (GNU Parallel's single-instance launch rate).
fn dispatch(sim: &mut Simulation<FaultWorld>, node: usize) {
    let world = sim.world_mut();
    let cluster = &mut world.cluster;
    let placed = world.policy.placed(node);
    let st = &mut cluster.nodes[node];
    if !st.alive || !st.started || st.next >= placed.len() {
        st.dispatching = false;
        return;
    }
    if st.busy >= cluster.jobs {
        st.dispatching = false;
        st.stalled = true;
        return;
    }
    let i = st.next;
    st.next += 1;
    let seq = placed[i];
    let mut cost = st.costs[i] * st.slowdown;
    let retried = st.nvme_pending;
    if retried {
        // The stdout write failed; the task reruns in place before
        // its (single) joblog row is written.
        st.nvme_pending = false;
        cost *= 2.0;
    }
    st.busy += 1;
    st.dispatching = true;
    let crashes = st.crash_at.is_some();
    let gap = cluster.dispatch_gap;
    if retried {
        cluster.emit(Event::Retried { seq, attempt: 1 });
    }
    let completion_id = sim.schedule_in(SimTime::from_secs_f64(cost), move |sim| {
        complete(sim, node, seq)
    });
    let hop_id = sim.schedule_in(SimTime::from_secs_f64(gap), move |sim| dispatch(sim, node));
    if crashes {
        let st = &mut sim.world_mut().cluster.nodes[node];
        st.pending.push(completion_id);
        st.pending.push(hop_id);
    }
}

/// A task's completion on a live node: a crash cancels every
/// completion still pending on its node.
fn complete(sim: &mut Simulation<FaultWorld>, node: usize, seq: u64) {
    let now = sim.now().as_secs_f64();
    let world = sim.world_mut();
    let st = &mut world.cluster.nodes[node];
    st.busy -= 1;
    st.completed += 1;
    st.last_done = st.last_done.max(now);
    let resume_dispatch = st.stalled;
    if resume_dispatch {
        st.stalled = false;
        st.dispatching = true;
    }
    // The exactly-once guard; a live node finishes each task once.
    world.policy.record(seq, true).expect("a first completion");
    world.cluster.joblog.push(Row {
        seq: seq as u32,
        node: node as u32,
        secs: now,
    });
    if resume_dispatch {
        dispatch(sim, node);
    }
}

fn node_crash(sim: &mut Simulation<FaultWorld>, node: usize) {
    let now = sim.now().as_secs_f64();
    let world = sim.world_mut();
    let cluster = &mut world.cluster;
    let st = &mut cluster.nodes[node];
    st.alive = false;
    let anything_lost = st.next < world.policy.placed(node).len() || st.busy > 0;
    st.busy = 0;
    st.stalled = false;
    st.dispatching = false;
    let pending = std::mem::take(&mut st.pending);
    cluster.nodes_failed.push(node as u32);
    cluster.emit(Event::NodeDown {
        node: node as u32,
        sim_time: now,
    });
    let detect = SimTime::from_secs_f64(cluster.detect_delay_secs);
    // Everything in flight on the node dies with it: queued dispatch
    // hops, running tasks' completions, even the startup if the crash
    // beat the allocation ramp.
    sim.cancel_many(pending);
    if anything_lost {
        sim.schedule_in(detect, move |sim| requeue(sim, node));
    }
}

/// The recovery driver, once the crash is detected: the dead node's
/// unrecorded seqs (the `--resume` skip set's complement) are placed on
/// the nodes alive at that moment by the live driver's policy.
fn requeue(sim: &mut Simulation<FaultWorld>, from: usize) {
    let world = sim.world_mut();
    world
        .policy
        .lose(from, &mut world.cluster)
        .expect("a node survives every crash");
    for node in std::mem::take(&mut world.cluster.kicks) {
        dispatch(sim, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpar_telemetry::Recorder;

    /// A small, fast configuration: 8 nodes × 16 tasks.
    fn small_config(seed: u64) -> WeakScalingConfig {
        let mut config = WeakScalingConfig::frontier(8, seed);
        config.tasks_per_node = 16;
        config.jobs_per_node = 16;
        config
    }

    /// Four slots for forty tasks of 0.5–2 s on each of 5 nodes.
    fn slot_contention_config() -> WeakScalingConfig {
        let mut config = WeakScalingConfig::frontier(5, 3);
        config.tasks_per_node = 40;
        config.jobs_per_node = 4;
        config.task_runtime = Dist::Uniform { lo: 0.5, hi: 2.0 };
        config
    }

    /// A fault-free run against the analytic schedule of the same node
    /// plans, draw for draw: the event clock quantizes every event to
    /// whole microseconds, and the dispatch chain accumulates that
    /// rounding over 128 hops (~50 µs).
    fn assert_tracks_the_analytic_schedule(r: &FaultRunResult, config: &WeakScalingConfig) {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-3;
        let analytic = crate::weak_scaling::run(config);
        let mut expected = analytic.task_completion_secs;
        expected.sort_by(f64::total_cmp);
        let got = r.task_completion_secs();
        assert_eq!(got.len(), expected.len());
        for (a, d) in expected.iter().zip(&got) {
            assert!(close(*a, *d), "analytic {a} vs simulated {d}");
        }
        assert!(
            close(analytic.makespan_secs, r.makespan_secs),
            "makespan: analytic {} vs simulated {}",
            analytic.makespan_secs,
            r.makespan_secs
        );
    }

    #[test]
    fn no_faults_tracks_the_analytic_baseline() {
        let config = small_config(11);
        let r = run_resilient(&config, &FaultConfig::none(11));
        r.verify_exactly_once().unwrap();
        assert!(r.nodes_failed.is_empty());
        assert_eq!(r.tasks_requeued, 0);
        assert_tracks_the_analytic_schedule(&r, &config);
        assert!(
            r.recovery_overhead_secs().abs() < 1e-3,
            "overhead {}",
            r.recovery_overhead_secs()
        );
    }

    #[test]
    fn empty_plan_reproduces_the_pinned_event_driven_run() {
        // Pinned on the dedicated Fig. 1 event-driven simulator this one
        // replaced, to the bit: the completion count, an FNV-1a digest
        // of the sorted completion times' bits, and the makespan's bits.
        let digest = |xs: &[f64]| {
            xs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for (config, pin) in [
            (
                WeakScalingConfig::frontier(50, 77),
                (6_400, 0xd390_a60e_3719_6611, 0x4032_ee6b_ca03_1400),
            ),
            (
                slot_contention_config(),
                (200, 0xfc94_4142_f3cb_e9ea, 0x403c_27d1_7f66_460e),
            ),
            (
                WeakScalingConfig::frontier(200, 1),
                (25_600, 0x258e_2a31_012b_e4fe, 0x403f_84e8_51ca_1b84),
            ),
            (
                WeakScalingConfig::frontier(200, 2024),
                (25_600, 0x6e67_d7e0_3652_ef69, 0x4039_bd63_e7f8_ed1d),
            ),
        ] {
            let r = run_with_plan(&config, &FaultPlan::default(), 5.0, 0.0, None);
            let secs = r.task_completion_secs();
            let got = (secs.len(), digest(&secs), r.makespan_secs.to_bits());
            assert_eq!(got, pin, "{} nodes, seed {}", config.nodes, config.seed);
        }
    }

    #[test]
    fn empty_plan_observed_run_emits_cluster_events_without_perturbing_results() {
        let config = WeakScalingConfig::frontier(6, 11);
        let bare = run_with_plan(&config, &FaultPlan::default(), 5.0, 0.0, None);

        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let observed = run_with_plan(
            &config,
            &FaultPlan::default(),
            5.0,
            0.0,
            Some(Arc::clone(&bus)),
        );
        assert_eq!(bare.joblog, observed.joblog);
        assert_eq!(bare.makespan_secs, observed.makespan_secs);

        // One NodeUp per node, with every node id present.
        let mut nodes_up: Vec<u32> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::NodeUp { node } => Some(*node),
                _ => None,
            })
            .collect();
        nodes_up.sort_unstable();
        assert_eq!(nodes_up, (0..config.nodes).collect::<Vec<u32>>());

        // One parallel-launch wave per node covering all tasks.
        let launched: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Launch {
                    method: LaunchMethod::Parallel,
                    tasks,
                } => Some(*tasks),
                _ => None,
            })
            .sum();
        assert_eq!(launched, bare.tasks_total);

        // The simulation engine reported its own milestones too.
        let fired = rec.count_matching(|e| e.kind() == "sim_event_fired");
        assert!(fired as u64 >= bare.tasks_total, "fired {fired}");
    }

    #[test]
    fn mid_run_crash_requeues_and_completes_exactly_once() {
        let config = small_config(7);
        // Crash node 1 halfway through its own shard: half its rows are
        // written before the crash, and the rest of its work is stranded.
        let clean = run_with_plan(&config, &FaultPlan::default(), 5.0, 0.0, None);
        let mut done: Vec<f64> = clean
            .joblog
            .iter()
            .filter(|row| row.node == 1)
            .map(|row| row.secs)
            .collect();
        done.sort_by(f64::total_cmp);
        let half = done.len() / 2;
        let crash_at = (done[half - 1] + done[half]) / 2.0;
        let plan = FaultPlan {
            crashes: vec![(1, crash_at)],
            ..FaultPlan::default()
        };
        let r = run_with_plan(&config, &plan, 5.0, clean.makespan_secs, None);
        r.verify_exactly_once().unwrap();
        // The rows node 1 wrote before its crash survive it, and no row
        // claims the node after the crash.
        let rows: Vec<f64> = r
            .joblog
            .iter()
            .filter(|row| row.node == 1)
            .map(|row| row.secs)
            .collect();
        assert!(
            rows.iter().all(|&secs| secs < crash_at),
            "node 1 rows after its crash at {crash_at}: {rows:?}"
        );
        assert_eq!(rows.len(), half, "node 1 rows: {rows:?}");
        assert_eq!(r.nodes_failed, vec![1]);
        assert_eq!(r.tasks_requeued, (done.len() - half) as u64);
        assert!(r.makespan_secs.is_finite());
    }

    #[test]
    fn crash_before_start_requeues_the_whole_shard() {
        let config = small_config(3);
        let plan = FaultPlan {
            crashes: vec![(2, 0.0)],
            ..FaultPlan::default()
        };
        let baseline = crate::weak_scaling::run(&config);
        let r = run_with_plan(&config, &plan, 5.0, baseline.makespan_secs, None);
        r.verify_exactly_once().unwrap();
        assert_eq!(r.tasks_requeued, config.tasks_per_node as u64);
        assert!(r.joblog.iter().all(|row| row.node != 2));
    }

    #[test]
    fn straggler_slows_the_run_without_requeueing() {
        let config = small_config(5);
        let baseline = crate::weak_scaling::run(&config);
        let slow = run_with_plan(
            &config,
            &FaultPlan {
                stragglers: vec![(0, 50.0)],
                ..FaultPlan::default()
            },
            5.0,
            baseline.makespan_secs,
            None,
        );
        slow.verify_exactly_once().unwrap();
        assert_eq!(slow.tasks_requeued, 0);
        assert!(
            slow.recovery_overhead_secs() > 0.0,
            "a 50x straggler must stretch the makespan: {}",
            slow.recovery_overhead_secs()
        );
    }

    #[test]
    fn nvme_fault_retries_in_place() {
        let config = small_config(9);
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let baseline = crate::weak_scaling::run(&config);
        let plan = FaultPlan {
            nvme_faults: vec![(0, baseline.makespan_secs * 0.2)],
            ..FaultPlan::default()
        };
        let r = run_with_plan(
            &config,
            &plan,
            5.0,
            baseline.makespan_secs,
            Some(Arc::clone(&bus)),
        );
        r.verify_exactly_once().unwrap();
        assert_eq!(r.tasks_requeued, 0);
        assert_eq!(rec.count_matching(|e| e.kind() == "retried"), 1);
    }

    #[test]
    fn telemetry_matches_result_and_does_not_perturb() {
        let config = small_config(13);
        let faults = FaultConfig {
            crash_rate: 0.4,
            ..FaultConfig::calibrated(13)
        };
        let bare = run_resilient(&config, &faults);
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let observed = run_resilient_observed(&config, &faults, Some(Arc::clone(&bus)));
        assert_eq!(bare.makespan_secs, observed.makespan_secs);
        assert_eq!(bare.joblog, observed.joblog);
        assert_eq!(bare.nodes_failed, observed.nodes_failed);
        assert!(!bare.nodes_failed.is_empty(), "0.4 crash rate on 8 nodes");

        let node_down = rec.count_matching(|e| e.kind() == "node_down");
        assert_eq!(node_down, bare.nodes_failed.len());
        let requeued: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::ShardRequeued { tasks, .. } => Some(*tasks),
                _ => None,
            })
            .sum();
        assert_eq!(requeued, bare.tasks_requeued);
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let config = small_config(21);
        let faults = FaultConfig::calibrated(21);
        let a = run_resilient(&config, &faults);
        let b = run_resilient(&config, &faults);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.joblog, b.joblog);
        assert_eq!(a.tasks_requeued, b.tasks_requeued);
    }

    #[test]
    fn every_node_crashing_still_leaves_a_survivor() {
        let config = small_config(31);
        let faults = FaultConfig {
            crash_rate: 1.0,
            ..FaultConfig::calibrated(31)
        };
        let r = run_resilient(&config, &faults);
        r.verify_exactly_once().unwrap();
        assert_eq!(r.nodes_failed.len() as u32, config.nodes - 1);
    }

    #[test]
    fn seeded_campaign_holds_the_exactly_once_invariant() {
        for seed in (0..6).map(|i| 2024 + i * 101) {
            let config = small_config(seed);
            let r = run_resilient(&config, &FaultConfig::calibrated(seed));
            r.verify_exactly_once()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(
                r.task_completion_secs().len() as u64,
                r.tasks_total,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn telemetry_event_counts_are_pinned_across_engine_swaps() {
        // Golden totals captured by running this exact workload on the
        // original binary-heap event queue (now `reference::HeapQueue`).
        // The calendar queue — and any future queue swap — must replay
        // the same seeds into the same fired/cancelled totals, or the
        // swap changed observable behavior, not just speed.
        let golden = [(13u64, 269u64, 2u64), (21, 271, 5), (2024, 269, 1)];
        for (seed, want_fired, want_cancelled) in golden {
            let config = small_config(seed);
            let faults = FaultConfig {
                crash_rate: 0.5,
                ..FaultConfig::calibrated(seed)
            };
            let bus = EventBus::shared();
            let rec = Recorder::shared();
            bus.attach(rec.clone());
            let r = run_resilient_observed(&config, &faults, Some(Arc::clone(&bus)));
            r.verify_exactly_once()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // `SimEventFired.count` is a running total, so the number of
            // fired events is the number of emissions; cancellations can
            // arrive aggregated, so those counts are summed.
            let fired = rec.count_matching(|e| e.kind() == "sim_event_fired") as u64;
            let cancelled: u64 = rec
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::SimEventCancelled { count, .. } => Some(*count),
                    _ => None,
                })
                .sum();
            assert_eq!(
                (fired, cancelled),
                (want_fired, want_cancelled),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn recovery_decisions_are_pinned() {
        // Captured on the simulator's own model of driver recovery,
        // before it ran the live driver's policy: the nodes lost, the
        // tasks moved, and the makespan to the bit. A change to the
        // simulated driver's decisions changes one of them.
        let check = |faults: FaultConfig, pin: (Vec<u32>, u64, u64)| {
            let seed = faults.seed;
            let r = run_resilient(&small_config(seed), &faults);
            r.verify_exactly_once()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let got = (r.nodes_failed, r.tasks_requeued, r.makespan_secs.to_bits());
            assert_eq!(got, pin, "seed {seed}");
        };
        // The seeds of `telemetry_event_counts_are_pinned_across_engine_swaps`.
        for (seed, pin) in [
            (13, (vec![4, 6, 0, 2, 7], 34, 0x4028_372a_6530_e48e)),
            (21, (vec![2, 6, 5, 7, 1, 4], 97, 0x4029_9d3c_a051_852a)),
            (2024, (vec![3, 4, 0, 7, 6], 16, 0x4033_fc62_3fe2_d2ee)),
        ] {
            let faults = FaultConfig {
                crash_rate: 0.5,
                ..FaultConfig::calibrated(seed)
            };
            check(faults, pin);
        }
        // The seeds of `seeded_campaign_holds_the_exactly_once_invariant`.
        for (seed, pin) in [
            (2024, (vec![7], 0, 0x4033_f974_0f18_2fc7)),
            (2125, (vec![], 0, 0x402e_5c3a_1537_fa59)),
            (2226, (vec![7, 4, 6], 16, 0x4030_31be_3471_1395)),
            (2327, (vec![5, 4], 32, 0x4026_6d04_fb90_a9e8)),
            (2428, (vec![6], 9, 0x4030_948a_7d4f_ca3d)),
            (2529, (vec![1, 4], 16, 0x402e_c370_e817_92ff)),
        ] {
            check(FaultConfig::calibrated(seed), pin);
        }
    }

    #[test]
    fn fault_plan_sampling_is_deterministic_and_bounded() {
        let faults = FaultConfig::calibrated(77);
        let a = FaultPlan::sample(&faults, 100, 60.0);
        let b = FaultPlan::sample(&faults, 100, 60.0);
        assert_eq!(a, b);
        assert!(a
            .crashes
            .iter()
            .all(|&(n, t)| n < 100 && (0.0..60.0).contains(&t)));
        assert!(a.stragglers.iter().all(|&(_, f)| f >= 1.0));
        // Rates are per node: expect a handful of each on 100 nodes.
        assert!(!a.crashes.is_empty() || !a.stragglers.is_empty());
        assert!(FaultPlan::sample(&FaultConfig::none(77), 100, 60.0).is_empty());
    }
}
