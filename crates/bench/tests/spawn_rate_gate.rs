//! The process-launch gate under `cargo test` (debug floors): the
//! `spawn` row of `htpar_bench::harness::GATES`, checked through the
//! same harness as the `gate` binary, plus the drill proving it can trip.

use std::sync::{Mutex, PoisonError};

use htpar_bench::harness::{self, Ctx, Gate};
use htpar_bench::spawngate;

/// Timed runs go one at a time: launches measured at once would slow
/// each other below the floor.
static TIMED: Mutex<()> = Mutex::new(());

fn spawn() -> &'static Gate {
    harness::find("spawn").expect("the gate is in the table")
}

#[test]
fn fast_path_launch_rate_stays_above_floor() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let ctx = Ctx {
        handicap: None,
        agent: env!("CARGO_BIN_EXE_gate").into(),
    };
    harness::run(spawn(), &ctx, harness::TRIALS, None).unwrap_or_else(|misses| panic!("{misses}"));
}

/// The fast path must actually beat the legacy path it replaced — on
/// the same machine, same run. A modest multiple here (the committed
/// BENCH json shows >2x in release) keeps the assertion robust to
/// debug-build and CI-box noise while still failing if the "fast"
/// path silently degrades to legacy behavior.
#[test]
fn fast_path_beats_legacy_path() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let legacy = spawngate::measure(spawngate::GATE_JOBS, 300, true, None);
    let fast = spawngate::measure(spawngate::GATE_JOBS, 300, false, None);
    assert!(
        fast > legacy * 1.2,
        "fast path {fast:.0}/s is not meaningfully above legacy {legacy:.0}/s"
    );
}

/// The drill: a per-launch cost must land the rate below the floor, or
/// the gate can never fail and protects nothing.
#[test]
fn handicapped_launch_rate_trips_the_gate() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    harness::drill(spawn(), env!("CARGO_BIN_EXE_gate").into()).unwrap_or_else(|e| panic!("{e}"));
}
