//! The spawn gate's workload: real `fork`/`exec`-bound work.
//!
//! The launch gate ([`crate::gate`]) measures the engine with no-op
//! in-process tasks; this workload measures the other half of the
//! paper's launch-rate story — what it costs to start a *real* process
//! per task. The workload is `/bin/true {}`-shaped: trivially short,
//! shell-bypass-eligible, so the measured rate is pure launch overhead
//! (spawn syscall, pipe setup, reaping, output collection).
//!
//! [`measure`] runs the one launch path `ProcessExecutor` has: shell
//! bypass, `posix_spawn` and the pooled pidfd reaper. The committed
//! `BENCH_spawn_rate_gate.json` also records the rate of the portable
//! `std::process::Command` path (`sh -c` + two reader threads per task)
//! that this path replaced; the `spawn` floor sits above that rate, so
//! a launch path that slow again trips the gate.

use std::sync::Arc;
use std::time::Duration;

use htpar_core::executor::{ExecContext, Executor, ProcessExecutor, TaskOutput};
use htpar_core::job::CommandLine;

use crate::harness::{rate, run_flat, Ctx, Metrics};

/// Slot count of the canonical gate workload. Launch rate scales with
/// slots until the spawn path serializes; 8 is spawn-bound on a small
/// CI box without drowning it in processes.
pub const GATE_JOBS: usize = 8;
/// Task count of the canonical gate workload: enough launches that the
/// per-process cost dominates engine setup.
pub const GATE_TASKS: u64 = 1_000;

/// Wraps a [`ProcessExecutor`] with a fixed pre-launch delay: the
/// simulated "slow spawn path" for handicap drills.
struct HandicappedExecutor {
    inner: ProcessExecutor,
    cost: Duration,
}

impl Executor for HandicappedExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        std::thread::sleep(self.cost);
        self.inner.execute(cmd, ctx)
    }
}

/// Run `tasks` real `/bin/true {}` launches through the engine at
/// `-j jobs`, each delayed by `handicap`, and return launches per
/// second.
pub fn measure(jobs: usize, tasks: u64, handicap: Option<Duration>) -> f64 {
    let base = ProcessExecutor::shell();
    let executor: Arc<dyn Executor> = match handicap {
        Some(cost) => Arc::new(HandicappedExecutor { inner: base, cost }),
        None => Arc::new(base),
    };
    rate(
        tasks,
        run_flat("/bin/true {}", true, jobs, tasks, executor, None),
    )
}

/// One gate trial: the canonical workload.
pub(crate) fn trial(ctx: &Ctx) -> Result<Metrics, String> {
    let launches_per_s = measure(GATE_JOBS, GATE_TASKS, ctx.handicap);
    Ok(vec![("launches_per_s", launches_per_s)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_real_processes_on_both_paths() {
        // The plain launch path and the handicapped one the drills use.
        for handicap in [None, Some(Duration::from_millis(1))] {
            assert!(measure(4, 30, handicap) > 0.0, "handicap={handicap:?}");
        }
    }
}
