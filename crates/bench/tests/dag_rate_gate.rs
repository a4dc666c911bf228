//! The DAG gates under `cargo test` (debug floors): the `dag_wide`,
//! `dag_deep` and `dag_diamond` rows of `htpar_bench::harness::GATES`,
//! checked through the same harness as the `gate` binary, plus the drill
//! proving the wide gate can trip.

use std::sync::{Mutex, PoisonError};

use htpar_bench::harness::{self, Ctx};

/// Timed runs go one at a time: gates measured at once would slow each
/// other below their floors.
static TIMED: Mutex<()> = Mutex::new(());

/// Run the gate called `name` through the harness, alone.
fn run_alone(name: &str) {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let gate = harness::find(name).expect("the gate is in the table");
    let ctx = Ctx {
        handicap: None,
        agent: env!("CARGO_BIN_EXE_gate").into(),
    };
    harness::run(gate, &ctx, harness::TRIALS, None).unwrap_or_else(|misses| panic!("{misses}"));
}

/// Both wide rows: the rate floor, and the ceiling on how many times
/// slower a dependency-free DAG runs than the flat path in the same
/// trial.
#[test]
fn wide_dag_rate_stays_above_floor() {
    run_alone("dag_wide");
}

/// One chain: each link runs on the slot that finished the one before.
#[test]
fn deep_dag_rate_stays_above_floor() {
    run_alone("dag_deep");
}

#[test]
fn diamond_dag_rate_stays_above_floor() {
    run_alone("dag_diamond");
}

/// The drill: a per-task handicap must land the wide DAG below its
/// floor, or the gate can never fail and protects nothing.
#[test]
fn handicapped_dag_rate_trips_the_gate() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let gate = harness::find("dag_wide").expect("the gate is in the table");
    harness::drill(gate, env!("CARGO_BIN_EXE_gate").into()).unwrap_or_else(|e| panic!("{e}"));
}
