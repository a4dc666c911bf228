//! The sim gate's workload: a fixed fault-replay-shaped DES run.
//!
//! The paper's extreme-scale results (Fig. 1 weak scaling, the
//! fault-resilient driver replay) run on `htpar_simkit`'s event engine;
//! reproducing them at the true 9,408-node / 1.15M-task scale needs the
//! event core itself to sustain millions of schedule/cancel/fire
//! operations per second. This module is the guardrail: `measure` runs a
//! canonical workload patterned on `htpar_cluster::faults::run_resilient`
//! — per-node serial dispatch chains with a slot cap, a watchdog timeout
//! per task that is cancelled on completion, and mid-run node crashes
//! that `cancel_many` everything in flight and requeue the remainder onto
//! survivors — with near-zero world bookkeeping, so the measured rate is
//! pure event-core cost (schedule, cancel, mass-cancel, fire, far-future
//! buckets). The `sim` row in [`crate::harness::GATES`] holds its floor.

use std::time::{Duration, Instant};

use htpar_simkit::{EventId, SimTime, Simulation};

use crate::harness::{metric, rate, Ctx, Metrics};

/// Gate workload shape.
#[derive(Debug, Clone, Copy)]
pub struct SimGateConfig {
    pub nodes: u32,
    pub tasks_per_node: u32,
    pub jobs: u32,
    /// Every `crash_every`-th node crashes mid-run (0 = no crashes).
    pub crash_every: u32,
    pub seed: u64,
}

impl SimGateConfig {
    /// The canonical CI workload: 128 nodes x 1,024 tasks, 64 slots per
    /// node, one node in eight (16 of 128) crashing mid-run; each crash
    /// mass-cancels the node's in-flight events and requeues its
    /// remainder. Roughly 400k scheduled events (two fired plus one
    /// cancelled watchdog per task), small enough to run in CI seconds,
    /// shaped enough to exercise every queue path.
    pub fn canonical() -> SimGateConfig {
        SimGateConfig {
            nodes: 128,
            tasks_per_node: 1_024,
            jobs: 64,
            crash_every: 8,
            seed: 2024,
        }
    }
}

/// Cheap deterministic mixer (splitmix64 finalizer) so per-task costs
/// vary without paying an RNG stream draw per event: the gate measures
/// the queue, not ChaCha.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Node {
    /// Tasks this node must run (grows when a crash requeues onto it).
    target: u64,
    launched: u64,
    done: u64,
    busy: u32,
    alive: bool,
    /// A dispatch-chain hop is pending.
    dispatching: bool,
    /// The dispatcher is parked waiting for a free slot.
    stalled: bool,
    /// Events to mass-cancel if this node crashes (ids of already-fired
    /// events are harmless, exactly as in `cluster::faults`).
    pending: Vec<EventId>,
}

struct GateWorld {
    nodes: Vec<Node>,
    cancelled: u64,
    tasks_done: u64,
    handicap: Option<Duration>,
}

/// Watchdog horizon: far enough ahead that every watchdog lives in the
/// far-future region of the queue until its task completes and cancels
/// it (the tombstone-heavy pattern the calendar queue exists to fix).
const WATCHDOG: SimTime = SimTime::from_secs(600);
/// Serial dispatcher gap between launches on one node (the measured GNU
/// Parallel single-instance rate is a few thousand per second).
const DISPATCH_GAP: SimTime = SimTime::from_micros(150);

fn dispatch(sim: &mut Simulation<GateWorld>, cfg: SimGateConfig, node: usize) {
    let (cost, watchdog_at) = {
        let st = &mut sim.world_mut().nodes[node];
        if !st.alive {
            st.dispatching = false;
            return;
        }
        if st.launched >= st.target {
            st.dispatching = false;
            return;
        }
        if st.busy >= cfg.jobs {
            st.dispatching = false;
            st.stalled = true;
            return;
        }
        let launched = st.launched;
        st.launched += 1;
        st.busy += 1;
        st.dispatching = true;
        // Task cost in [1ms, ~66ms], deterministic per (seed, node, task).
        let us = 1_000 + mix(cfg.seed ^ ((node as u64) << 32) ^ launched) % 65_536;
        (SimTime::from_micros(us), WATCHDOG)
    };
    let watchdog = sim.schedule_in(watchdog_at, move |sim| {
        // Fires only if neither completion nor crash cancelled it; the
        // workload is sized so that never happens.
        let st = &mut sim.world_mut().nodes[node];
        st.busy = st.busy.saturating_sub(1);
    });
    let completion = sim.schedule_in(cost, move |sim| complete(sim, cfg, node, watchdog));
    let hop = sim.schedule_in(DISPATCH_GAP, move |sim| dispatch(sim, cfg, node));
    let st = &mut sim.world_mut().nodes[node];
    st.pending.push(watchdog);
    st.pending.push(completion);
    st.pending.push(hop);
}

fn complete(sim: &mut Simulation<GateWorld>, cfg: SimGateConfig, node: usize, watchdog: EventId) {
    if let Some(cost) = sim.world().handicap {
        let spin = Instant::now();
        while spin.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
    if sim.cancel(watchdog) {
        sim.world_mut().cancelled += 1;
    }
    let resume = {
        let world = sim.world_mut();
        world.tasks_done += 1;
        let st = &mut world.nodes[node];
        if !st.alive {
            return;
        }
        st.busy -= 1;
        st.done += 1;
        let resume = st.stalled;
        if resume {
            st.stalled = false;
            st.dispatching = true;
        }
        resume
    };
    if resume {
        dispatch(sim, cfg, node);
    }
}

fn crash(sim: &mut Simulation<GateWorld>, cfg: SimGateConfig, node: usize) {
    let (pending, lost) = {
        let st = &mut sim.world_mut().nodes[node];
        st.alive = false;
        st.stalled = false;
        st.dispatching = false;
        // In-flight launches die with the node; their watchdogs and
        // completions are in `pending` and get mass-cancelled below.
        let lost = st.target - st.done;
        st.busy = 0;
        (std::mem::take(&mut st.pending), lost)
    };
    sim.world_mut().cancelled += sim.cancel_many(pending) as u64;
    if lost == 0 {
        return;
    }
    // Requeue the dead node's remainder across survivors (modulo split,
    // as the resilient driver does) and kick any drained dispatchers.
    let kicks: Vec<usize> = {
        let world = sim.world_mut();
        let survivors: Vec<usize> = world
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, st)| st.alive)
            .map(|(i, _)| i)
            .collect();
        assert!(!survivors.is_empty(), "gate crashes spare most nodes");
        let mut kicks = Vec::new();
        for (k, &to) in survivors.iter().enumerate() {
            let share = lost / survivors.len() as u64
                + u64::from((k as u64) < lost % survivors.len() as u64);
            if share == 0 {
                continue;
            }
            let st = &mut world.nodes[to];
            st.target += share;
            if !st.dispatching && !st.stalled {
                st.dispatching = true;
                kicks.push(to);
            }
        }
        kicks
    };
    for node in kicks {
        dispatch(sim, cfg, node);
    }
}

/// Run the gate workload once, spinning `handicap` per completion, and
/// report the event rate plus the trace's counts: events `fired` and
/// `cancelled`, `tasks` planned and `tasks_done`.
pub(crate) fn measure(cfg: SimGateConfig, handicap: Option<Duration>) -> Metrics {
    assert!(cfg.nodes >= 2 && cfg.tasks_per_node >= 1 && cfg.jobs >= 1);
    let tasks = cfg.nodes as u64 * cfg.tasks_per_node as u64;
    let world = GateWorld {
        nodes: (0..cfg.nodes)
            .map(|_| Node {
                target: cfg.tasks_per_node as u64,
                launched: 0,
                done: 0,
                busy: 0,
                alive: true,
                dispatching: false,
                stalled: false,
                pending: Vec::with_capacity(3 * cfg.tasks_per_node as usize + 4),
            })
            .collect(),
        cancelled: 0,
        tasks_done: 0,
        handicap,
    };
    let started = Instant::now();
    let mut sim = Simulation::with_seed(world, cfg.seed);
    for node in 0..cfg.nodes as usize {
        // Stagger starts over ~2s (the allocation ramp, coarsely).
        let start = SimTime::from_micros(mix(cfg.seed ^ node as u64) % 2_000_000);
        let id = sim.schedule_at(start, move |sim| {
            sim.world_mut().nodes[node].dispatching = true;
            dispatch(sim, cfg, node);
        });
        sim.world_mut().nodes[node].pending.push(id);
    }
    if cfg.crash_every > 0 {
        for node in (0..cfg.nodes as usize).filter(|n| n % cfg.crash_every as usize == 1) {
            // Crash genuinely mid-run: inside the start-stagger + drain
            // window (a node starting at t runs ~0.5s of work), so most
            // crashes mass-cancel live in-flight events and requeue a
            // real remainder onto survivors. (An earlier variant crashed
            // at 4-12s, after every node had drained — the mass-cancel
            // hit only stale keys and requeued nothing.)
            let at =
                SimTime::from_micros(300_000) + SimTime::from_micros(mix(node as u64) % 2_000_000);
            sim.schedule_at(at, move |sim| crash(sim, cfg, node));
        }
    }
    sim.run();
    let fired = sim.events_fired();
    let wall = started.elapsed();
    let world = sim.into_world();
    vec![
        // Every scheduled event costs one schedule plus one
        // fire-or-cancel.
        ("events_per_s", rate(fired + world.cancelled, wall)),
        ("fired", fired as f64),
        ("cancelled", world.cancelled as f64),
        ("tasks", tasks as f64),
        ("tasks_done", world.tasks_done as f64),
    ]
}

/// One gate trial: the canonical workload, which must finish every task
/// through its crashes and exercise the cancellation path.
pub(crate) fn trial(ctx: &Ctx) -> Result<Metrics, String> {
    let m = measure(SimGateConfig::canonical(), ctx.handicap);
    let count = |name| metric(&m, name).unwrap_or(0.0);
    if count("tasks_done") != count("tasks") || count("cancelled") == 0.0 {
        return Err(format!(
            "the workload lost tasks or cancelled nothing: {m:?}"
        ));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimGateConfig {
        SimGateConfig {
            nodes: 8,
            tasks_per_node: 32,
            jobs: 8,
            crash_every: 4,
            seed: 7,
        }
    }

    fn count(m: &Metrics, name: &str) -> f64 {
        metric(m, name).expect("measure reports every count")
    }

    #[test]
    fn workload_conserves_tasks_through_crashes() {
        let m = measure(tiny(), None);
        // Crashed nodes requeue their remainder, so every task completes
        // somewhere (possibly more than `tasks` completions never happen:
        // requeue moves targets, it does not duplicate them).
        assert_eq!(
            count(&m, "tasks_done"),
            count(&m, "tasks"),
            "lost tasks: {m:?}"
        );
        assert!(
            count(&m, "cancelled") > 0.0,
            "watchdog cancels must be exercised"
        );
        assert!(
            count(&m, "fired") > count(&m, "tasks"),
            "completion + hop per task at minimum"
        );
    }

    #[test]
    fn workload_is_deterministic() {
        // Everything but the leading rate is a count of the trace.
        let (a, b) = (measure(tiny(), None), measure(tiny(), None));
        assert_eq!(a[1..], b[1..]);
    }

    #[test]
    fn crash_free_run_cancels_exactly_one_watchdog_per_task() {
        let mut cfg = tiny();
        cfg.crash_every = 0;
        let m = measure(cfg, None);
        assert_eq!(count(&m, "cancelled"), count(&m, "tasks"));
        assert_eq!(count(&m, "tasks_done"), count(&m, "tasks"));
    }
}
