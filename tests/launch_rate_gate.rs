//! The launch-rate gate under `cargo test` (debug floors): the `launch`
//! row of `htpar_bench::harness::GATES`, checked through the same
//! harness as the `gate` binary, plus the drill proving it can trip.
//!
//! The canonical workload runs `GATE_TASKS` in-process no-op tasks at
//! `-j GATE_JOBS`, observed by a `MetricsRegistry` on the telemetry bus;
//! the gated rate is the bus-observed sustained one.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use htpar_bench::harness::{self, Ctx};

/// The drill must not overlap the timed run: its handicapped trial
/// would take CPU from the trial being measured.
static TIMED: Mutex<()> = Mutex::new(());

#[test]
fn launch_rate_stays_above_floor() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let gate = harness::find("launch").expect("the gate is in the table");
    // The launch workload spawns no agents.
    let ctx = Ctx {
        handicap: None,
        agent: PathBuf::new(),
    };
    harness::run(gate, &ctx, harness::TRIALS, None).unwrap_or_else(|misses| panic!("{misses}"));
}

/// Not only slower: under its drill handicap one trial must miss the
/// floor, or the gate protects nothing.
#[test]
fn handicap_knob_slows_the_gate_workload() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let gate = harness::find("launch").expect("the gate is in the table");
    harness::drill(gate, PathBuf::new()).unwrap_or_else(|e| panic!("{e}"));
}
