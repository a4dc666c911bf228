//! The DAG gates' workload: ready-set release overhead.
//!
//! The launch gate ([`crate::gate`]) prices the flat slot engine;
//! this workload prices the DAG layer on top of it — in-degree
//! decrement, ready-batch release through `Engine::run_batched`,
//! completion callbacks — with in-process no-op tasks so the measured
//! rate is pure scheduling cost. Three canonical topologies bound the
//! shape space, one gate each (`dag_wide`, `dag_deep`, `dag_diamond`
//! in [`crate::harness::GATES`]):
//!
//! - **wide**: N independent tasks — one initial release, the DAG
//!   layer's overhead is a single callback per completion. Must stay
//!   within a small factor of the flat-list path.
//! - **deep**: one N-long chain — every release waits on the previous
//!   completion, so the rate is the full round-trip cost
//!   (callback → channel → slot → completion) with zero parallelism.
//! - **diamond**: chained fan-out/fan-in blocks (a → b,c → d) — the
//!   mixed case, two-wide parallelism with joins.

use std::time::{Duration, Instant};

use htpar_core::dag::{Dag, DagRunner, DagSpec};
use htpar_core::prelude::Options;

use crate::harness::{in_process, rate, run_flat, Ctx, Metrics};

/// Slot count of the canonical gate workload (matches the launch
/// gate; wide DAGs are dispatch-bound at the same `-j`).
pub const GATE_JOBS: usize = 64;
/// Task count of the canonical gate workload (the paper-scale DAG
/// acceptance run).
pub const GATE_TASKS: u64 = 100_000;

/// Canonical gate topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Wide,
    Deep,
    Diamond,
}

/// Build the canonical `tasks`-node graph for a topology. Node
/// commands are inert markers; the gate runs them in-process.
pub fn build(topology: Topology, tasks: u64) -> Dag {
    let mut spec = DagSpec::new();
    for i in 0..tasks {
        let deps: Vec<String> = match topology {
            Topology::Wide => Vec::new(),
            Topology::Deep => {
                if i == 0 {
                    Vec::new()
                } else {
                    vec![format!("t{}", i - 1)]
                }
            }
            Topology::Diamond => {
                // Blocks of 4: head → two arms → join, join → next head.
                match i % 4 {
                    0 if i == 0 => Vec::new(),
                    0 => vec![format!("t{}", i - 1)],
                    1 | 2 => vec![format!("t{}", i - (i % 4))],
                    _ => {
                        // The join waits on whichever arms exist.
                        vec![format!("t{}", i - 2), format!("t{}", i - 1)]
                    }
                }
            }
        };
        spec.task(format!("t{i}"), "noop", deps)
            .expect("generated ids are unique");
    }
    spec.build().expect("generated graphs are acyclic")
}

/// Run `tasks` jobs through the DAG layer at `-j jobs` on `topology`,
/// each a no-op or a sleep of `handicap`, and the flat-list engine
/// over the same task count as a clean baseline. Graph build is
/// excluded: the gate prices scheduling, not parsing. `overhead` is how
/// many times slower the DAG path ran than the flat path.
pub(crate) fn measure(
    topology: Topology,
    jobs: usize,
    tasks: u64,
    handicap: Option<Duration>,
) -> Metrics {
    let flat_wall = run_flat("noop {}", false, jobs, tasks, in_process(None), None);
    let dag = build(topology, tasks);
    let runner = DagRunner {
        options: Options {
            jobs,
            shell: false,
            ..Options::default()
        },
        executor: in_process(handicap),
        bus: None,
    };
    let started = Instant::now();
    let report = runner.run(&dag).expect("gate workload runs");
    let wall = started.elapsed();
    assert_eq!(report.failed, 0, "gate workload must fully succeed");
    assert_eq!(report.skipped_dep_failed, 0);
    let (dag, flat) = (rate(tasks, wall), rate(tasks, flat_wall));
    vec![
        ("tasks_per_s", dag),
        ("flat_tasks_per_s", flat),
        ("overhead", flat / dag.max(1e-9)),
    ]
}

/// One gate trial: the canonical workload on `topology`.
pub(crate) fn trial(topology: Topology, ctx: &Ctx) -> Result<Metrics, String> {
    Ok(measure(topology, GATE_JOBS, GATE_TASKS, ctx.handicap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_build_the_requested_size() {
        for topo in [Topology::Wide, Topology::Deep, Topology::Diamond] {
            for n in [1u64, 2, 3, 5, 8, 40] {
                let dag = build(topo, n);
                assert_eq!(dag.len() as u64, n, "{topo:?}/{n}");
            }
        }
        // Deep is a chain: every node but the first has one dep.
        let deep = build(Topology::Deep, 6);
        assert!(deep.nodes().iter().skip(1).all(|n| n.deps.len() == 1));
        // Diamond joins wait on both arms.
        let dia = build(Topology::Diamond, 8);
        assert_eq!(dia.nodes()[3].deps.len(), 2);
        assert_eq!(dia.nodes()[7].deps.len(), 2);
    }

    #[test]
    fn measure_reports_consistent_numbers() {
        let m = measure(Topology::Diamond, 4, 64, None);
        assert!(m.iter().all(|&(_, v)| v > 0.0), "{m:?}");
    }
}
