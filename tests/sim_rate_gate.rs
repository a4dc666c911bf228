//! The simulation event-rate gate under `cargo test` (debug floors): the
//! `sim` row of `htpar_bench::harness::GATES`, checked through the same
//! harness as the `gate` binary, plus the drill proving it can trip.
//!
//! The canonical fault-replay-shaped workload (`SimGateConfig::canonical`)
//! runs 128 nodes × 1,024 tasks, one watchdog cancel per task, one node
//! in eight crashing mid-run. A trial fails unless every task finishes
//! through the crashes and the cancellation path runs.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use htpar_bench::harness::{self, Ctx, Gate};

/// Timed runs go one at a time: the drill's handicapped trial would take
/// CPU from the trial being measured.
static TIMED: Mutex<()> = Mutex::new(());

fn sim() -> &'static Gate {
    harness::find("sim").expect("the gate is in the table")
}

/// The sim workload spawns no agents.
fn clean() -> Ctx {
    Ctx {
        handicap: None,
        agent: PathBuf::new(),
    }
}

#[test]
fn sim_event_rate_stays_above_floor() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    harness::run(sim(), &clean(), harness::TRIALS, None)
        .unwrap_or_else(|misses| panic!("{misses}"));
}

/// Not only slower: under its drill handicap one trial must miss the
/// floor, or the gate protects nothing.
#[test]
fn handicap_knob_slows_the_gate_workload() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    harness::drill(sim(), PathBuf::new()).unwrap_or_else(|e| panic!("{e}"));
}

/// The canonical trace's counts are part of the gate's contract: both
/// engines (heap then calendar) measured exactly this trace, which is
/// what makes before/after rates comparable.
#[test]
fn gate_trace_is_identical_across_runs() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let counts = || {
        let metrics = (sim().trial)(&clean()).expect("the gate workload runs");
        metrics
            .into_iter()
            .filter(|&(name, _)| name != "events_per_s")
            .collect::<Vec<_>>()
    };
    let (a, b) = (counts(), counts());
    assert!(a.iter().any(|&(name, _)| name == "fired"), "{a:?}");
    assert_eq!(a, b);
}
