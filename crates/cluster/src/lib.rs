//! # htpar-cluster — the simulated supercomputers
//!
//! We do not have Frontier or Perlmutter; this crate is the substitute
//! substrate (DESIGN.md §2). It models exactly the machine behaviours the
//! paper's evaluation depends on:
//!
//! - [`machine`]: machine presets — node counts, cores, GPUs, NVMe,
//!   filesystem — for OLCF Frontier, NERSC Perlmutter CPU nodes, and an
//!   8-node DTN cluster.
//! - [`launch`]: the process-launch-rate model behind Fig. 3: a single
//!   parallel instance dispatches ~470 processes/s; a node sustains at
//!   most ~6,400 forks/s across instances. The derived full-utilization
//!   task floors (545 ms single instance on 256 threads, 40 ms multi)
//!   come out of the same arithmetic the paper uses.
//! - [`slurm`]: `SLURM_NNODES`/`SLURM_NODEID` driver-script sharding
//!   (listing 1), allocation-delay model, and the `srun`-per-task
//!   baseline with central-controller degradation.
//! - [`drive`]: the listing-1 driver's policy, sans I/O — placement by
//!   `driver_shard`, a lost agent's unrecorded work re-placed on the
//!   survivors, the exactly-once record and, for a graph, the ready set.
//!   `htpar drive` and the fault simulator both run it.
//! - [`weak_scaling`]: the Fig. 1 experiment — up to 9,000 nodes × 128
//!   tasks with NVMe-first stdout and Lustre copy-back.
//! - [`gpu`]: the Fig. 2 experiment — 10–100 nodes × 8 GPUs with
//!   slot-based GPU isolation (and the non-isolated ablation).
//! - [`faults`]: the one event-driven simulator of the Listing-1 run:
//!   Fig. 1's full-scale run with an empty fault plan, and seeded
//!   node-crash/straggler/NVMe fault injection on simulated nodes,
//!   recovered by the [`drive`] policy (the dead node's unlogged lines go
//!   to the survivors — the paper's joblog/resume story).

pub mod drive;
pub mod faults;
pub mod gpu;
pub mod launch;
pub mod machine;
pub mod slurm;
pub mod weak_scaling;

pub use drive::DrivePolicy;
pub use faults::{FaultConfig, FaultPlan, FaultRunResult};
pub use gpu::{GpuScalingConfig, GpuScalingResult};
pub use launch::LaunchModel;
pub use machine::Machine;
pub use slurm::{driver_shard, AllocationModel, SlurmEnv, SrunModel};
pub use weak_scaling::{WeakScalingConfig, WeakScalingResult};

/// Fig. 1's event-driven run — the [`faults`] simulator with an empty
/// fault plan — checked draw for draw against the analytic slot-cycling
/// schedule of [`weak_scaling::run`].
#[cfg(test)]
mod des {
    mod tests {
        use crate::faults::{run_with_plan, FaultPlan, FaultRunResult};
        use crate::weak_scaling::{run, sample_node_plan, WeakScalingConfig};

        /// The event-driven run: nothing injected, no telemetry.
        fn run_empty_plan(config: &WeakScalingConfig) -> FaultRunResult {
            run_with_plan(config, &FaultPlan::default(), 5.0, 0.0, None)
        }

        fn close(a: f64, b: f64) -> bool {
            // The event clock quantizes every event to whole microseconds;
            // the dispatch chain accumulates that rounding over 128 hops
            // (~50 µs).
            (a - b).abs() < 1e-3
        }

        /// Each node's end, node by node: its last completion plus its
        /// copy-back.
        fn node_ends(
            config: &WeakScalingConfig,
            done: impl IntoIterator<Item = (u32, f64)>,
        ) -> Vec<f64> {
            let mut last = vec![0.0f64; config.nodes as usize];
            for (node, secs) in done {
                last[node as usize] = last[node as usize].max(secs);
            }
            (0..config.nodes)
                .map(|node| last[node as usize] + sample_node_plan(config, node).copy)
                .collect()
        }

        #[test]
        fn des_matches_analytic_schedule_exactly() {
            let config = WeakScalingConfig::frontier(50, 77);
            let analytic = run(&config);
            let des = run_empty_plan(&config);
            des.verify_exactly_once().unwrap();
            assert_eq!(des.tasks_total, analytic.tasks_total);
            // Same multiset of completion times (sorted comparison).
            let mut a = analytic.task_completion_secs.clone();
            a.sort_by(f64::total_cmp);
            let d = des.task_completion_secs();
            assert_eq!(a.len(), d.len());
            for (x, y) in a.iter().zip(&d) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
            assert!(close(analytic.makespan_secs, des.makespan_secs));
        }

        #[test]
        fn des_matches_at_slot_contention() {
            // Fewer slots than tasks: the slot-cycling recurrence and the
            // slot-bounded dispatcher must produce the same schedule.
            let mut config = WeakScalingConfig::frontier(5, 3);
            config.tasks_per_node = 40;
            config.jobs_per_node = 4;
            config.task_runtime = htpar_simkit::Dist::Uniform { lo: 0.5, hi: 2.0 };
            let analytic = run(&config);
            let des = run_empty_plan(&config);
            let mut a = analytic.task_completion_secs.clone();
            a.sort_by(f64::total_cmp);
            let d = des.task_completion_secs();
            assert_eq!(a.len(), d.len());
            for (x, y) in a.iter().zip(&d) {
                assert!(close(*x, *y), "{x} vs {y}");
            }
            // The analytic schedule is node-major, one run of
            // `tasks_per_node` completions per node.
            let per_node = config.tasks_per_node as usize;
            let an = node_ends(
                &config,
                analytic
                    .task_completion_secs
                    .iter()
                    .enumerate()
                    .map(|(i, &secs)| ((i / per_node) as u32, secs)),
            );
            let dn = node_ends(&config, des.joblog.iter().map(|row| (row.node, row.secs)));
            for (node, (x, y)) in an.iter().zip(&dn).enumerate() {
                assert!(close(*x, *y), "node {node} elapsed {x} vs {y}");
            }
        }

        #[test]
        fn des_event_count_scales_with_tasks() {
            let config = WeakScalingConfig::frontier(10, 1);
            let des = run_empty_plan(&config);
            des.verify_exactly_once().unwrap();
            assert_eq!(des.task_completion_secs().len(), 1280);
        }

        #[test]
        fn des_is_deterministic() {
            let config = WeakScalingConfig::frontier(20, 5);
            let a = run_empty_plan(&config);
            let b = run_empty_plan(&config);
            assert_eq!(a.joblog, b.joblog);
            assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        }
    }
}
