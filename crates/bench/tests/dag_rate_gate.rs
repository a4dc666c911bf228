//! The DAG gates under `cargo test` (debug floors): the `dag_wide`,
//! `dag_deep` and `dag_diamond` rows of `htpar_bench::harness::GATES`,
//! checked through the same harness as the `gate` binary, plus the drill
//! proving the wide gate can trip.

use std::sync::{Mutex, OnceLock, PoisonError};

use htpar_bench::harness::{self, Ctx};

/// Timed runs go one at a time: gates measured at once would slow each
/// other below their floors.
static TIMED: Mutex<()> = Mutex::new(());

fn clean() -> Ctx {
    Ctx {
        handicap: None,
        agent: env!("CARGO_BIN_EXE_gate").into(),
    }
}

/// The verdict of chain gate `i` (deep, diamond). The chains run side by
/// side, trial for trial, as their debug floors were measured: every
/// link hands off between threads, and on a VM a handoff to an idle vCPU
/// pays a wakeup that a busy neighbour hides (alone, both chains run
/// 20-40% slower). Each passes at its first trial that clears its row,
/// as under `harness::run`. Whichever chain test comes first runs both.
fn chain_verdict(i: usize) -> Result<(), String> {
    static CHAINS: OnceLock<[Result<(), String>; 2]> = OnceLock::new();
    CHAINS.get_or_init(|| {
        let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
        let chains = ["dag_deep", "dag_diamond"]
            .map(|name| harness::find(name).expect("the gate is in the table"));
        let mut verdicts = chains.map(|g| Err(format!("{}: no trial ran", g.name)));
        for _ in 0..harness::TRIALS {
            let trials = std::thread::scope(|s| {
                let runs = chains.map(|g| s.spawn(move || (g.trial)(&clean())));
                runs.map(|run| run.join().expect("a gate trial panicked"))
            });
            for ((verdict, gate), metrics) in verdicts.iter_mut().zip(chains).zip(trials) {
                println!("{}: {metrics:?}", gate.name);
                if verdict.is_err() {
                    *verdict = metrics.and_then(|m| harness::check(gate.name, &m));
                }
            }
            if verdicts.iter().all(Result::is_ok) {
                break;
            }
        }
        verdicts
    })[i]
        .clone()
}

/// Both wide rows: the rate floor, and the ceiling on how many times
/// slower a dependency-free DAG runs than the flat path in the same
/// trial.
#[test]
fn wide_dag_rate_stays_above_floor() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let gate = harness::find("dag_wide").expect("the gate is in the table");
    harness::run(gate, &clean(), harness::TRIALS, None).unwrap_or_else(|misses| panic!("{misses}"));
}

#[test]
fn deep_dag_rate_stays_above_floor() {
    chain_verdict(0).unwrap_or_else(|misses| panic!("{misses}"));
}

#[test]
fn diamond_dag_rate_stays_above_floor() {
    chain_verdict(1).unwrap_or_else(|misses| panic!("{misses}"));
}

/// The drill: a per-task handicap must land the wide DAG below its
/// floor, or the gate can never fail and protects nothing.
#[test]
fn handicapped_dag_rate_trips_the_gate() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let gate = harness::find("dag_wide").expect("the gate is in the table");
    harness::drill(gate, env!("CARGO_BIN_EXE_gate").into()).unwrap_or_else(|e| panic!("{e}"));
}
