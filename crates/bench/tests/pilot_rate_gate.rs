//! The pilot-service gate under `cargo test` (debug floors): the three
//! `pilot` rows of `htpar_bench::harness::GATES` (sessions/s, p99 TTFT,
//! fair-share error), checked through the same harness as the `gate`
//! binary, plus the drill proving it can trip.
//!
//! The mini-cluster agents are real subprocesses of the `gate` binary
//! (its `main` calls `maybe_become_agent` first); the test harness
//! binary cannot serve as an agent itself because libtest owns its
//! `main`.

use std::sync::{Mutex, PoisonError};

use htpar_bench::harness::{self, Ctx, Gate};

/// Timed runs go one at a time: the drill's fleet would take CPU from
/// the trial being measured.
static TIMED: Mutex<()> = Mutex::new(());

fn pilot() -> &'static Gate {
    harness::find("pilot").expect("the gate is in the table")
}

#[test]
fn pilot_service_clears_every_committed_floor() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let ctx = Ctx {
        handicap: None,
        agent: env!("CARGO_BIN_EXE_gate").into(),
    };
    harness::run(pilot(), &ctx, harness::TRIALS, None).unwrap_or_else(|misses| panic!("{misses}"));
}

/// The drill: a per-task cost on every throughput-phase task must sink
/// sustained session throughput below the floor, or the gate can never
/// fail and protects nothing.
#[test]
fn handicapped_pilot_trips_the_gate() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    harness::drill(pilot(), env!("CARGO_BIN_EXE_gate").into()).unwrap_or_else(|e| panic!("{e}"));
}
