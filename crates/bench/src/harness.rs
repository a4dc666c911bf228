//! The regression-gate harness: one table of floors, one trial loop,
//! one check and one JSONL record for every rate gate.
//!
//! Each gate guards one of the paper's low-overhead claims (the Fig. 3
//! launch rates, the Listing 1 driver, the pilot, DAG release) with a
//! fixed workload. A gate's `trial` runs its workload once and reports
//! named metrics; [`check`] compares them with the gate's rows in
//! [`GATES`]; [`run`] repeats trials until one clears every row, up to
//! a trial budget. A transient host hiccup depresses one trial, a real
//! regression depresses all of them.
//!
//! The `gate` binary and each gate's test file under `cargo test`
//! (`tests/{launch,sim}_rate_gate.rs` at the workspace root, the rest in
//! `crates/bench/tests/*_rate_gate.rs`) all go through [`run`], so a row
//! the bin checks is a row the tests check. A [`Ctx::handicap`] adds an
//! artificial per-task cost to the measured side of a gate: the
//! [`drill`] that proves the gate can fail.

use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use htpar_core::prelude::{Executor, FnExecutor, Options, Template};
use htpar_core::runner::{Engine, JobInput};
use htpar_net::local::LocalCluster;
use htpar_telemetry::EventBus;
use serde_json::{json, Value};

use crate::daggate::{self, Topology};
use crate::{gate, netgate, pilotgate, simgate, spawngate};

/// The env var the `gate` binary reads its handicap from, in
/// microseconds per task.
pub const ENV_HANDICAP_US: &str = "HTPAR_GATE_HANDICAP_US";

/// Trials per gate unless the `gate` binary's `--trials` says otherwise.
pub const TRIALS: usize = 3;

/// Wall-clock budget for each gate phase's threads. The pilot drill
/// (10 ms per task) needs ~8 s; a phase still running at this deadline
/// is hung, and the gate reports it instead of stalling.
pub(crate) const PHASE_DEADLINE: Duration = Duration::from_secs(120);

/// One trial's named measurements.
pub type Metrics = Vec<(&'static str, f64)>;

/// What a trial gets from its caller.
pub struct Ctx {
    /// Artificial per-task cost on the measured side (the drill).
    /// Baselines a gate divides by always run clean.
    pub handicap: Option<Duration>,
    /// A binary that calls `maybe_become_agent` first thing in `main`;
    /// the net and pilot gates spawn their agents from it.
    pub agent: PathBuf,
}

impl Ctx {
    /// Spawn `agents` local agent subprocesses of the agent binary.
    pub(crate) fn cluster(&self, agents: usize) -> Result<LocalCluster, String> {
        LocalCluster::spawn_with(agents, || Command::new(&self.agent))
            .map_err(|e| format!("spawning mini-cluster: {e}"))
    }
}

/// Which side of its threshold a metric must stay on.
pub enum Bound {
    AtLeast,
    AtMost,
}

/// One checked-in row: `metric` against a threshold per build profile.
pub struct Floor {
    pub metric: &'static str,
    pub bound: Bound,
    pub release: f64,
    /// The threshold under `cargo test`, where code is unoptimized.
    pub debug: f64,
}

const fn at_least(metric: &'static str, release: f64, debug: f64) -> Floor {
    Floor {
        metric,
        bound: Bound::AtLeast,
        release,
        debug,
    }
}

const fn at_most(metric: &'static str, release: f64, debug: f64) -> Floor {
    Floor {
        metric,
        bound: Bound::AtMost,
        release,
        debug,
    }
}

/// One regression gate.
pub struct Gate {
    pub name: &'static str,
    /// Run the workload once and report its metrics.
    pub trial: fn(&Ctx) -> Result<Metrics, String>,
    pub floors: &'static [Floor],
    /// Per-task handicap (µs) under which one trial must miss a row,
    /// sized to finish in seconds in a debug build.
    pub drill_us: Option<u64>,
}

/// Every gate, in the order the `gate` binary runs them.
pub const GATES: &[Gate] = &[
    Gate {
        name: "launch",
        trial: gate::trial,
        // 0.5x the low end of the sustained rate measured after the
        // sharded-dispatch rework on a 1-core CI box (1.06-1.91M
        // tasks/s over repeated trials), so ordinary scheduler noise
        // passes while a structural regression (a lock back on the hot
        // path, per-task syscalls) fails every trial. Debug measured
        // 0.5-1.1M tasks/s sustained on the same box.
        floors: &[at_least("sustained_tasks_per_s", 500_000.0, 200_000.0)],
        drill_us: Some(1_000),
    },
    Gate {
        name: "spawn",
        trial: spawngate::trial,
        // Midway between the legacy path's measured rate (530-554/s on
        // a 1-core CI box) and the fast path's (1100-1210/s, 2.0-2.2x),
        // so a revert to `sh -c` + reader-thread launches trips the
        // gate on every trial while ordinary load noise passes. Launch
        // cost is almost entirely kernel time, so debug rates track
        // release closely (legacy 541/s, fast 1108/s on the same box).
        floors: &[at_least("launches_per_s", 750.0, 700.0)],
        drill_us: Some(20_000),
    },
    Gate {
        name: "sim",
        trial: simgate::trial,
        // Well under half the worst trial measured after the
        // calendar-queue rework (8.6-11.8M events/s over repeated trials
        // on the mid-run-crash workload, 13.3-23.1M on the earlier
        // post-drain-crash variant; the old heap queue measured 3.3-3.6M
        // on the same box). The floor sits *above* the old engine's
        // throughput, so a structural regression (a hash lookup back on
        // the hot path, per-event allocation, a tombstone drain) or even a
        // full revert trips it. Debug measured 2.6-2.9M events/s.
        floors: &[at_least("events_per_s", 4_000_000.0, 1_000_000.0)],
        drill_us: Some(10),
    },
    Gate {
        name: "net",
        trial: netgate::trial,
        // Ceiling on `in-process rate / socket rate`, a *relative* floor
        // that tracks the machine. The epoll reactor batches shards and
        // coalesces acks, so release measured 2.8-3.3x best-of-3 on the
        // 1-core CI box (socket ~500k tasks/s against a 1.4-2.8M tasks/s
        // in-process reference), with per-trial spread to ~5.5x as the
        // in-process reference warms up; the pre-batching per-item feed
        // path measured 11-13x. Debug hits the byte-level framing/decode
        // path much harder than the preloaded in-process reference:
        // ~10-11x best-of-3, per-trial spread to ~18x.
        floors: &[at_most("slowdown", 6.0, 20.0)],
        drill_us: Some(5_000),
    },
    Gate {
        name: "pilot",
        trial: pilotgate::trial,
        floors: &[
            // Sustained over the whole multi-wave run. Release measured
            // 265-560 sessions/s (median 456) on a shared 2-vCPU VM
            // (BENCH_pilot_rate_gate.json, ~16x headroom); unoptimized
            // framing/decode roughly halves it in debug.
            at_least("sessions_per_s", 16.0, 6.0),
            // p99 Submit-to-first-completion; release measured 3.0-9.0
            // ms (median 4.4) under 8-way contention on the same VM.
            at_most("p99_ttft_ms", 250.0, 800.0),
            // Max relative deviation of a tenant's dispatched share from
            // its weight share on the 1:2:4 shape.
            at_most("fairness_err", 0.10, 0.10),
        ],
        drill_us: Some(10_000),
    },
    // DAG floors sit at roughly half the low end of 10 trials per
    // profile on a 2-vCPU VM (see `BENCH_dag_rate_gate.json`): ordinary
    // noise passes, a structural regression (per-task locking,
    // per-release allocation storms, a lost batch path, a release that
    // hops threads again) fails every trial.
    Gate {
        name: "dag_wide",
        trial: |ctx| daggate::trial(Topology::Wide, ctx),
        floors: &[
            // Release measured 1.01-1.62M tasks/s, debug 329-411k;
            // floors unchanged.
            at_least("tasks_per_s", 500_000.0, 250_000.0),
            // The DAG layer is scheduling, not a second execution path:
            // a dependency-free DAG stays within this factor of the flat
            // path measured in the same trial (0.95-1.26x measured).
            at_most("overhead", 6.0, 6.0),
        ],
        // The initial release goes out in chunk-sized batches that all
        // 64 slots claim, so handicapped tasks run 64 at a time: 1 ms
        // per task caps the rate at 64k tasks/s, under both floors on
        // any box. The launch drill uses the same value.
        drill_us: Some(1_000),
    },
    // A serial 100k chain cannot carry a per-task handicap in a test's
    // time budget, so the deep and diamond gates have no drill.
    Gate {
        name: "dag_deep",
        trial: |ctx| daggate::trial(Topology::Deep, ctx),
        // The finishing worker runs each next link itself: release
        // measured 820-981k tasks/s, debug 289-398k, so a collector
        // round trip back on every link (35-123k release) fails every
        // trial.
        floors: &[at_least("tasks_per_s", 400_000.0, 140_000.0)],
        drill_us: None,
    },
    Gate {
        name: "dag_diamond",
        trial: |ctx| daggate::trial(Topology::Diamond, ctx),
        // Release measured 396-494k tasks/s, debug 178-227k; with a
        // collector round trip per completion, 50-105k release.
        floors: &[at_least("tasks_per_s", 200_000.0, 90_000.0)],
        drill_us: None,
    },
];

/// The gate called `name`.
pub fn find(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// The value of `name` in `metrics`.
pub(crate) fn metric(metrics: &[(&str, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// Compare one trial's `metrics` with the rows of gate `name`, at the
/// thresholds matching how this code was compiled. `Err` lists every
/// missed row; a metric the trial did not report counts as NaN, which
/// misses every row.
pub fn check(name: &str, metrics: &[(&str, f64)]) -> Result<(), String> {
    let gate = find(name).ok_or_else(|| format!("no gate named {name:?}"))?;
    let mut misses = Vec::new();
    for row in gate.floors {
        let limit = if cfg!(debug_assertions) {
            row.debug
        } else {
            row.release
        };
        let value = metric(metrics, row.metric).unwrap_or(f64::NAN);
        let (ok, side) = match row.bound {
            Bound::AtLeast => (value >= limit, "below the floor"),
            Bound::AtMost => (value <= limit, "above the ceiling"),
        };
        if !ok {
            let (metric, shown) = (row.metric, show(value));
            misses.push(format!("{name}: {metric} {shown} is {side} {limit}"));
        }
    }
    if misses.is_empty() {
        Ok(())
    } else {
        Err(misses.join("; "))
    }
}

/// One trial's JSONL record.
fn record(
    gate: &str,
    trial: usize,
    handicap: Option<Duration>,
    metrics: &[(&str, f64)],
    pass: bool,
) -> Value {
    let metrics = metrics
        .iter()
        .map(|&(k, v)| (k.to_string(), Value::from(v)))
        .collect();
    json!({
        "gate": gate,
        "trial": trial,
        "profile": (if cfg!(debug_assertions) { "debug" } else { "release" }),
        "handicap_us": (handicap.map_or(0, |h| h.as_micros() as u64)),
        "metrics": (Value::Object(metrics)),
        "pass": pass,
    })
}

/// Run `gate` for up to `trials` trials and stop at the first one that
/// clears every row. Each trial prints one line and, given `jsonl`,
/// appends its JSON record there. `Err` carries the last trial's misses,
/// or the error that stopped a trial.
pub fn run(
    gate: &Gate,
    ctx: &Ctx,
    trials: usize,
    mut jsonl: Option<&mut dyn Write>,
) -> Result<(), String> {
    let (name, mut misses) = (gate.name, String::new());
    for trial in 1..=trials.max(1) {
        let metrics = (gate.trial)(ctx).map_err(|e| format!("{name}: trial {trial}: {e}"))?;
        let verdict = check(name, &metrics);
        let shown: Vec<String> = metrics
            .iter()
            .map(|&(k, v)| format!("{k}={}", show(v)))
            .collect();
        println!(
            "{name:<12} trial {trial}: {} [{}]",
            shown.join(" "),
            if verdict.is_ok() { "pass" } else { "miss" }
        );
        if let Some(out) = jsonl.as_deref_mut() {
            let line = record(name, trial, ctx.handicap, &metrics, verdict.is_ok());
            writeln!(out, "{line}").map_err(|e| format!("writing JSONL: {e}"))?;
        }
        match verdict {
            Ok(()) => return Ok(()),
            Err(e) => misses = e,
        }
    }
    Err(misses)
}

/// The drill for `gate`: one trial under its `drill_us` handicap, with
/// agents from `agent`, must miss a row, or the gate can never fail and
/// protects nothing. `Err` says why the drill did not trip.
pub fn drill(gate: &Gate, agent: PathBuf) -> Result<(), String> {
    let name = gate.name;
    let us = gate
        .drill_us
        .ok_or_else(|| format!("{name}: the gate has no drill"))?;
    let ctx = Ctx {
        handicap: Some(Duration::from_micros(us)),
        agent,
    };
    let metrics =
        (gate.trial)(&ctx).map_err(|e| format!("{name}: the drill trial failed to run: {e}"))?;
    match check(name, &metrics) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "{name}: a {us} us/task handicap did not trip the gate: {metrics:?}"
        )),
    }
}

/// Rates to the unit, small ratios to three decimals.
fn show(value: f64) -> String {
    if value.abs() >= 100.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.3}")
    }
}

/// `tasks` per second of `wall`.
pub fn rate(tasks: u64, wall: Duration) -> f64 {
    tasks as f64 / wall.as_secs_f64().max(1e-9)
}

/// In-process payload: no-ops, or a sleep of `handicap` per task.
pub(crate) fn in_process(handicap: Option<Duration>) -> Arc<dyn Executor> {
    Arc::new(handicap.map_or_else(FnExecutor::noop, FnExecutor::sleep))
}

/// Run `tasks` jobs of `template` (one argument each) through the flat
/// engine at `-j jobs` and return the wall time, input generation
/// excluded. Every job must succeed.
pub(crate) fn run_flat(
    template: &str,
    shell: bool,
    jobs: usize,
    tasks: u64,
    executor: Arc<dyn Executor>,
    bus: Option<Arc<EventBus>>,
) -> Duration {
    let inputs: Vec<JobInput> = (1..=tasks)
        .map(|seq| JobInput::new(seq, vec![seq.to_string()]))
        .collect();
    let engine = Engine {
        options: Options {
            jobs,
            shell,
            ..Options::default()
        },
        template: Template::parse(template).expect("static template"),
        executor,
        on_result: None,
        skip: HashSet::new(),
        gate: None,
        bus,
    };
    let started = Instant::now();
    let report = engine
        .run(Box::new(inputs.into_iter()))
        .expect("gate workload runs");
    let wall = started.elapsed();
    assert_eq!(report.succeeded, tasks, "gate workload must fully succeed");
    wall
}

/// Join a gate thread by the deadline `by`. A thread still running
/// then, or one that panicked, becomes an error naming `phase`.
pub(crate) fn join_by<T>(handle: JoinHandle<T>, by: Instant, phase: &str) -> Result<T, String> {
    while !handle.is_finished() {
        if Instant::now() >= by {
            return Err(format!("{phase} still running at its deadline"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().map_err(|_| format!("{phase} panicked"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_has_rows_and_a_unique_name() {
        assert!(check("no_such_gate", &[]).is_err());
        assert!(GATES.iter().all(|g| !g.floors.is_empty()));
        assert_eq!(GATES.iter().map(|g| g.floors.len()).sum::<usize>(), 11);
        // Each gate has its floor test and, where drilled, its drill in a
        // `*_rate_gate.rs` test file; a new gate needs both.
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        let drilled = ["launch", "spawn", "sim", "net", "pilot", "dag_wide"];
        assert_eq!(names, [&drilled[..], &["dag_deep", "dag_diamond"]].concat());
        assert!(GATES
            .iter()
            .all(|g| g.drill_us.is_some() == drilled.contains(&g.name)));
    }

    #[test]
    fn dag_wide_checks_the_overhead_ceiling() {
        assert!(check("dag_wide", &[("tasks_per_s", 1e9), ("overhead", 5.0)]).is_ok());
        let err = check("dag_wide", &[("tasks_per_s", 1e9), ("overhead", 7.0)]).unwrap_err();
        assert!(err.contains("overhead 7.000 is above the ceiling"), "{err}");
    }

    #[test]
    fn jsonl_record_carries_all_gate_numbers() {
        let metrics = [("sessions_per_s", 12.5), ("fairness_err", 0.042)];
        let handicap = Some(Duration::from_micros(250));
        let line = record("pilot", 3, handicap, &metrics, false).to_string();
        let parsed = serde_json::from_str(&line).expect("record is JSON");
        assert_eq!(parsed["gate"].as_str(), Some("pilot"));
        assert_eq!(parsed["trial"].as_u64(), Some(3));
        assert_eq!(parsed["handicap_us"].as_u64(), Some(250));
        assert_eq!(parsed["metrics"]["sessions_per_s"].as_f64(), Some(12.5));
        assert_eq!(parsed["metrics"]["fairness_err"].as_f64(), Some(0.042));
        assert_eq!(parsed["pass"].as_bool(), Some(false));
        assert!(parsed["profile"].as_str().is_some());
    }

    #[test]
    fn join_by_names_the_phase_of_a_hung_thread() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let stuck = std::thread::spawn(move || {
            let _ = rx.recv();
        });
        let err = join_by(stuck, Instant::now(), "stuck phase").unwrap_err();
        assert!(err.contains("stuck phase"), "{err}");
        tx.send(()).unwrap();
        let done = std::thread::spawn(|| 7);
        let deadline = Instant::now() + PHASE_DEADLINE;
        assert_eq!(join_by(done, deadline, "quick"), Ok(7));
    }
}
