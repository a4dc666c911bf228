//! The DAG gates' workload: ready-set release overhead.
//!
//! The launch gate ([`crate::gate`]) prices the flat slot engine;
//! this workload prices the DAG layer on top of it — in-degree
//! decrement and release on the worker that finished the dependency —
//! with in-process no-op tasks so the measured rate is pure scheduling
//! cost. Three canonical topologies bound the shape space, one gate
//! each (`dag_wide`, `dag_deep`, `dag_diamond` in
//! [`crate::harness::GATES`]):
//!
//! - **wide**: N independent tasks — one initial release, sent in
//!   chunk-sized batches that every slot claims from; the DAG layer's
//!   overhead is one release-hook call per completion. Must stay within
//!   a small factor of the flat-list path.
//! - **deep**: one N-long chain — every release waits on the previous
//!   completion, and the finishing worker runs the next link itself, so
//!   the rate is the per-link release cost (lock, in-degree decrement,
//!   continuation) with zero parallelism and no thread hop.
//! - **diamond**: chained fan-out/fan-in blocks (a → b,c → d) — the
//!   mixed case: the finishing worker keeps one arm and sends the other
//!   to an idle slot through the channel, and each join waits on both.
//!
//! A fourth gate, `dag_chains`, runs the shape of perfbench's
//! `dag_chain` at `-j 2` with a joblog, the one DAG gate that writes
//! rows: one seeded chain of fan-out/fan-in blocks of width 1–4 per
//! slot, so every completion goes through the joblog's row path while
//! the other slot releases its own chain.

use std::path::Path;
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
/// Slot count of the chains gate, and its number of chains.
pub const CHAINS_JOBS: usize = 2;

/// Canonical gate topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Wide,
    Deep,
    Diamond,
    /// [`CHAINS_JOBS`] chains of blocks: a head, 1–4 arms that depend
    /// on it (widths drawn from a fixed seed), and a join of the arms
    /// that the next head depends on.
    Chains,
}

/// The dependencies of each of `tasks` nodes in [`Topology::Chains`],
/// by index.
fn chains(tasks: u64) -> Vec<Vec<u64>> {
    let mut state = 0x5EED_u64;
    let mut width = || {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + (z ^ (z >> 31)) % 4
    };
    let mut deps: Vec<Vec<u64>> = Vec::with_capacity(tasks as usize);
    for c in 0..CHAINS_JOBS as u64 {
        let end = tasks * (c + 1) / CHAINS_JOBS as u64;
        let mut tail = None;
        while (deps.len() as u64) < end {
            let head = deps.len() as u64;
            let w = width();
            deps.push(tail.into_iter().collect());
            if w > 1 && end - head >= w + 2 {
                deps.extend((0..w).map(|_| vec![head]));
                deps.push((head + 1..=head + w).collect());
            }
            tail = Some(deps.len() as u64 - 1);
        }
    }
    deps
}

/// Build the canonical `tasks`-node graph for a topology. Node
/// commands are inert markers; the gate runs them in-process.
pub fn build(topology: Topology, tasks: u64) -> Dag {
    let chained = match topology {
        Topology::Chains => chains(tasks),
        _ => Vec::new(),
    };
    let mut spec = DagSpec::new();
    for i in 0..tasks {
        let deps: Vec<String> = match topology {
            Topology::Chains => chained[i as usize]
                .iter()
                .map(|d| format!("t{d}"))
                .collect(),
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
/// each a no-op or a sleep of `handicap`, with `joblog` if given, and
/// the flat-list engine over the same task count as a clean baseline.
/// Graph build is excluded: the gate prices scheduling, not parsing.
/// `overhead` is how many times slower the DAG path ran than the flat
/// path.
pub(crate) fn measure(
    topology: Topology,
    jobs: usize,
    tasks: u64,
    handicap: Option<Duration>,
    joblog: Option<&Path>,
) -> Metrics {
    let flat_wall = run_flat("noop {}", false, jobs, tasks, in_process(None), None);
    let dag = build(topology, tasks);
    let runner = DagRunner {
        options: Options {
            jobs,
            shell: false,
            joblog: joblog.map(Path::to_path_buf),
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

/// One gate trial: the canonical workload on `topology`; the chains
/// run at `-j` [`CHAINS_JOBS`] with a joblog in a directory of their
/// own.
pub(crate) fn trial(topology: Topology, ctx: &Ctx) -> Result<Metrics, String> {
    if topology != Topology::Chains {
        return Ok(measure(topology, GATE_JOBS, GATE_TASKS, ctx.handicap, None));
    }
    let dir = std::env::temp_dir().join(format!("htpar-dag-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("joblog dir: {e}"))?;
    let log = dir.join("chains.joblog");
    let _ = std::fs::remove_file(&log);
    let metrics = measure(topology, CHAINS_JOBS, GATE_TASKS, ctx.handicap, Some(&log));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_build_the_requested_size() {
        let all = [
            Topology::Wide,
            Topology::Deep,
            Topology::Diamond,
            Topology::Chains,
        ];
        for topo in all {
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
        // Chains: one root per chain, blocks of width 1–4.
        let chains = build(Topology::Chains, 1000);
        let roots: Vec<usize> = (0..1000)
            .filter(|&i| chains.node(i).deps.is_empty())
            .collect();
        assert_eq!(roots, vec![0, 500]);
        let widest = chains.nodes().iter().map(|n| n.deps.len()).max();
        assert_eq!(widest, Some(4));
    }

    #[test]
    fn measure_reports_consistent_numbers() {
        let m = measure(Topology::Diamond, 4, 64, None, None);
        assert!(m.iter().all(|&(_, v)| v > 0.0), "{m:?}");
    }
}
