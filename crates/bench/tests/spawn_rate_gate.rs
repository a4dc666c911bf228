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

/// The launch path must beat plain `sh -c` through `std::process` —
/// on the same machine, same run, same `/bin/true {}` workload at the
/// same slot count. The baseline is written here, so it shares no code
/// with the path under test. A modest multiple (the committed BENCH
/// json shows >2x in release over the portable path this one replaced)
/// keeps the assertion robust to debug-build and CI-box noise while
/// still failing if the launch path loses its shell bypass or reaper.
#[test]
fn fast_path_beats_legacy_path() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    let legacy = std_sh_rate(spawngate::GATE_JOBS, 300);
    let fast = spawngate::measure(spawngate::GATE_JOBS, 300, None);
    assert!(
        fast > legacy * 1.2,
        "fast path {fast:.0}/s is not meaningfully above legacy {legacy:.0}/s"
    );
}

/// `tasks` launches of `sh -c '/bin/true <seq>'` through
/// `std::process::Command` on `jobs` threads pulling from one counter,
/// with the env the engine sets, stdin from `/dev/null` and output
/// collected by `.output()`; launches per second.
fn std_sh_rate(jobs: usize, tasks: u64) -> f64 {
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU64, Ordering};
    let next = AtomicU64::new(1);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for slot in 1..=jobs {
            let next = &next;
            s.spawn(move || loop {
                let seq = next.fetch_add(1, Ordering::Relaxed);
                if seq > tasks {
                    break;
                }
                let out = Command::new("sh")
                    .arg("-c")
                    .arg(format!("/bin/true {seq}"))
                    .env("PARALLEL_SEQ", seq.to_string())
                    .env("PARALLEL_JOBSLOT", slot.to_string())
                    .stdin(Stdio::null())
                    .output()
                    .expect("run sh");
                assert!(out.status.success());
            });
        }
    });
    tasks as f64 / start.elapsed().as_secs_f64()
}

/// The drill: a per-launch cost must land the rate below the floor, or
/// the gate can never fail and protects nothing.
#[test]
fn handicapped_launch_rate_trips_the_gate() {
    let _alone = TIMED.lock().unwrap_or_else(PoisonError::into_inner);
    harness::drill(spawn(), env!("CARGO_BIN_EXE_gate").into()).unwrap_or_else(|e| panic!("{e}"));
}
