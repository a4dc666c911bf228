//! The launch gate's workload: a fixed dispatch-bound run.
//!
//! The paper's Fig. 3 claim is that slot-pull dispatch sustains launch
//! rates far above central schedulers; this workload is the guardrail
//! that keeps our engine honest about it. [`measure`] runs N in-process
//! no-op tasks through the real engine at a fixed `-j`, so the measured
//! rate is pure dispatch cost (input hand-out, slot bookkeeping,
//! completion collection) with no fork/exec noise. The `launch` row in
//! [`crate::harness::GATES`] holds its floor; `fig3_launch_rate` runs
//! the same measurement at 10x the task count.

use std::time::Duration;

use htpar_telemetry::{EventBus, MetricsRegistry};

use crate::harness::{in_process, rate, run_flat, Ctx, Metrics};

/// Slot count of the canonical gate workload.
pub const GATE_JOBS: usize = 64;
/// Task count of the canonical gate workload (the CI smoke scale; the
/// Fig. 3 acceptance run uses 100k).
pub const GATE_TASKS: u64 = 10_000;

/// Run `tasks` in-process jobs through the engine at `-j jobs`, each a
/// no-op or a sleep of `handicap`. Returns the wall time and, with
/// `with_metrics`, the sustained rate over `spawned` telemetry events
/// as [`MetricsRegistry::launch_rate_sustained`] defines it. Without a
/// bus the run is unobserved and the wall-clock rate is pure dispatch.
pub fn measure(
    jobs: usize,
    tasks: u64,
    with_metrics: bool,
    handicap: Option<Duration>,
) -> (Duration, Option<f64>) {
    let metrics = with_metrics.then(MetricsRegistry::shared);
    let bus = metrics.as_ref().map(|m| {
        let bus = EventBus::shared();
        bus.attach(m.clone());
        bus
    });
    let wall = run_flat("noop {}", false, jobs, tasks, in_process(handicap), bus);
    (wall, metrics.and_then(|m| m.launch_rate_sustained()))
}

/// One gate trial: the canonical workload, observed through a
/// [`MetricsRegistry`]; the gated rate is the bus-observed one.
pub(crate) fn trial(ctx: &Ctx) -> Result<Metrics, String> {
    let (wall, sustained) = measure(GATE_JOBS, GATE_TASKS, true, ctx.handicap);
    let sustained = sustained.ok_or("the gate run must be bus-observed")?;
    Ok(vec![
        ("sustained_tasks_per_s", sustained),
        ("tasks_per_s", rate(GATE_TASKS, wall)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_consistent_numbers() {
        let (wall, sustained) = measure(4, 200, true, None);
        assert!(rate(200, wall) > 0.0);
        assert!(sustained.is_some_and(|r| r > 0.0));
    }

    #[test]
    fn unobserved_measure_has_no_bus_rate() {
        let (wall, sustained) = measure(2, 50, false, None);
        assert!(sustained.is_none());
        assert!(wall > Duration::ZERO);
    }
}
