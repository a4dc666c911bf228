//! The socket-path gate under `cargo test` (debug floors): the `net` row
//! of `htpar_bench::harness::GATES`, checked through the same harness as
//! the `gate` binary, plus the drill proving it can trip.
//!
//! The mini-cluster agents are real subprocesses of the `gate` binary
//! (its `main` calls `maybe_become_agent` first); the test harness
//! binary cannot serve as an agent itself because libtest owns its
//! `main`.

use std::sync::{Mutex, PoisonError};

use htpar_bench::harness::{self, Ctx, Gate};

/// Timed runs go one at a time: the drill's agents would take CPU from
/// the trial being measured.
static TIMED: Mutex<()> = Mutex::new(());

fn net() -> &'static Gate {
    harness::find("net").expect("the gate is in the table")
}

#[test]
fn socket_path_stays_within_committed_slowdown() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let ctx = Ctx {
        handicap: None,
        agent: env!("CARGO_BIN_EXE_gate").into(),
    };
    harness::run(net(), &ctx, harness::TRIALS, None).unwrap_or_else(|misses| panic!("{misses}"));
}

/// The drill: a per-task cost on the agent side must blow past the
/// slowdown ceiling, or the gate can never fail and protects nothing.
/// The in-process reference runs clean.
#[test]
fn handicapped_socket_path_trips_the_gate() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    harness::drill(net(), env!("CARGO_BIN_EXE_gate").into()).unwrap_or_else(|e| panic!("{e}"));
}
