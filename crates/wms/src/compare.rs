//! The §II overhead comparison: a conventional WMS versus the
//! driver-script + parallel-engine approach, on identical no-op task
//! loads.

use htpar_cluster::{
    faults, weak_scaling, FaultConfig, FaultPlan, LaunchModel, Machine, SrunModel,
    WeakScalingConfig,
};
use htpar_telemetry::EventBus;
use htpar_workloads::wfbench;
use serde::{Deserialize, Serialize};

use crate::engine::{execute, WmsConfig};

/// One row of the comparison table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    pub tasks: u64,
    /// Nodes the sharded-parallel side uses (tasks / 128 per node).
    pub nodes: u32,
    /// Orchestration overhead through the central WMS, seconds.
    pub wms_overhead_secs: f64,
    /// Overhead through driver-script sharding + per-node parallel
    /// instances: allocation ramp + per-node dispatch, seconds.
    pub parallel_overhead_secs: f64,
}

impl ComparisonRow {
    /// How many times cheaper the parallel approach is.
    pub fn advantage(&self) -> f64 {
        if self.parallel_overhead_secs <= 0.0 {
            f64::INFINITY
        } else {
            self.wms_overhead_secs / self.parallel_overhead_secs
        }
    }
}

/// Overhead of the paper's approach for `tasks` no-op tasks: shard over
/// enough Frontier nodes for 128 tasks each, pay the allocation ramp and
/// one instance's dispatch serialization per node.
pub fn parallel_overhead_secs(tasks: u64, machine: &Machine) -> (u32, f64) {
    parallel_overhead_observed(tasks, machine, None)
}

/// [`parallel_overhead_secs`] that reports the per-node dispatch wave on
/// a telemetry bus (an [`htpar_telemetry::Event::Launch`] with
/// `LaunchMethod::Parallel` covering all tasks).
pub fn parallel_overhead_observed(
    tasks: u64,
    machine: &Machine,
    bus: Option<&EventBus>,
) -> (u32, f64) {
    let tasks_per_node = machine.threads_per_node.max(1) as u64;
    let nodes = tasks.div_ceil(tasks_per_node).max(1) as u32;
    let nodes = nodes.min(machine.nodes);
    let per_node_tasks = tasks.div_ceil(nodes as u64);
    let model = LaunchModel::paper_calibrated();
    let dispatch = match bus {
        Some(bus) => model.dispatch_observed(per_node_tasks, 1, bus),
        None => model.dispatch_time(per_node_tasks, 1),
    };
    // The allocation ramp from the Fig. 1 calibration: nodes become ready
    // over ~0.01 s/node.
    let ramp = 0.01 * nodes as f64;
    (nodes, ramp + dispatch)
}

/// Build the comparison table for the given task counts.
pub fn overhead_comparison(task_counts: &[u64]) -> Vec<ComparisonRow> {
    overhead_comparison_observed(task_counts, None)
}

/// [`overhead_comparison`] with an optional telemetry bus: each row's
/// parallel side emits its launch wave, so a `MetricsRegistry` attached
/// to the bus sees the total task volume the comparison covered.
pub fn overhead_comparison_observed(
    task_counts: &[u64],
    bus: Option<&EventBus>,
) -> Vec<ComparisonRow> {
    let machine = Machine::frontier();
    let wms_cfg = WmsConfig::swift_t_like();
    task_counts
        .iter()
        .map(|&tasks| {
            let wms = execute(&wfbench::launch_only(tasks as u32), &wms_cfg);
            let (nodes, parallel) = parallel_overhead_observed(tasks, &machine, bus);
            ComparisonRow {
                tasks,
                nodes,
                wms_overhead_secs: wms.overhead_secs,
                parallel_overhead_secs: parallel,
            }
        })
        .collect()
}

/// One row of the fault-recovery comparison: the driver-script recovery
/// (re-shard the dead node's lines across survivors, skip seqs already
/// in the joblog) versus a conventional WMS reacting to the same node
/// loss through its central controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecoveryRow {
    pub nodes: u32,
    pub tasks_total: u64,
    /// Tasks lost with the crashed node and requeued.
    pub tasks_lost: u64,
    pub nodes_failed: u32,
    /// Driver recovery overhead: faulty-run makespan minus the
    /// same-seed no-fault baseline (includes the detection window).
    pub driver_recovery_secs: f64,
    /// The WMS restart path for the same loss: full dataflow re-scan
    /// plus one central `srun` step per lost task.
    pub wms_restart_secs: f64,
}

impl FaultRecoveryRow {
    /// How many times cheaper the driver recovery is.
    pub fn advantage(&self) -> f64 {
        if self.driver_recovery_secs <= 0.0 {
            f64::INFINITY
        } else {
            self.wms_restart_secs / self.driver_recovery_secs
        }
    }
}

/// Overhead of a conventional WMS recovering from a lost node: it
/// re-evaluates the dataflow over the *entire* task set to find what is
/// still runnable, then re-dispatches every lost task through the
/// central controller, one srun step per task (the §II restart path).
pub fn wms_restart_overhead_secs(tasks_lost: u64, tasks_total: u64, cfg: &WmsConfig) -> f64 {
    let rescan = cfg.scan_secs_per_task * tasks_total as f64;
    rescan + SrunModel::calibrated().dispatch_time(tasks_lost)
}

/// Per-row cost of scanning an existing joblog on `--resume`: reading and
/// parsing one TSV line. Calibrated against the read-side of the paper's
/// `--joblog` numbers (a few µs per row, dominated by parse, not I/O).
pub const JOBLOG_SCAN_SECS_PER_ROW: f64 = 2e-6;

/// One row of the DAG-restart comparison: `htpar --resume --dag` after a
/// driver crash (scan the joblog, re-dispatch only the unfinished
/// subgraph through the parallel engine) versus a conventional WMS
/// restarting the same workflow (re-evaluate the full dataflow, then one
/// central srun step per replayed task).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagRestartRow {
    pub tasks_total: u64,
    /// Tasks `--resume` actually re-runs: the failed tasks plus every
    /// not-yet-finished descendant in the dependency graph.
    pub subgraph_tasks: u64,
    /// Nodes the resumed dispatch shards over.
    pub nodes: u32,
    /// Driver resume: joblog scan of the completed rows + sharded
    /// parallel dispatch of the affected subgraph.
    pub driver_resume_secs: f64,
    /// WMS restart of the same subgraph via the §II central path.
    pub wms_restart_secs: f64,
}

impl DagRestartRow {
    /// How many times cheaper the driver resume is.
    pub fn advantage(&self) -> f64 {
        if self.driver_resume_secs <= 0.0 {
            f64::INFINITY
        } else {
            self.wms_restart_secs / self.driver_resume_secs
        }
    }
}

/// Overhead of `htpar --resume --dag` replaying a crashed run: scan the
/// joblog rows that already completed (to rebuild the done-set), then
/// shard the affected subgraph over the machine and pay the parallel
/// dispatch path for just those tasks.
pub fn dag_resume_overhead_secs(
    tasks_total: u64,
    subgraph_tasks: u64,
    machine: &Machine,
) -> (u32, f64) {
    let completed = tasks_total.saturating_sub(subgraph_tasks);
    let scan = JOBLOG_SCAN_SECS_PER_ROW * completed as f64;
    let (nodes, dispatch) = parallel_overhead_secs(subgraph_tasks.max(1), machine);
    (nodes, scan + dispatch)
}

/// Build the DAG-restart comparison row for a workflow of `tasks_total`
/// tasks where a crash leaves `subgraph_tasks` unfinished (the failed
/// tasks and their descendants). Both sides replay exactly that
/// subgraph; they differ in how they find it and how they dispatch it.
pub fn dag_restart_comparison(tasks_total: u64, subgraph_tasks: u64) -> DagRestartRow {
    assert!(
        subgraph_tasks <= tasks_total,
        "subgraph cannot exceed the workflow"
    );
    let machine = Machine::frontier();
    let (nodes, driver) = dag_resume_overhead_secs(tasks_total, subgraph_tasks, &machine);
    DagRestartRow {
        tasks_total,
        subgraph_tasks,
        nodes,
        driver_resume_secs: driver,
        wms_restart_secs: wms_restart_overhead_secs(
            subgraph_tasks,
            tasks_total,
            &WmsConfig::swift_t_like(),
        ),
    }
}

/// Run the deterministic single-crash scenario at `nodes` nodes: node 0
/// dies 30% into the no-fault makespan, the driver re-shards its lines
/// across the survivors, and the same loss is priced through the WMS
/// restart path. The injected run's joblog is verified exactly-once
/// before the row is returned.
pub fn fault_recovery_comparison(nodes: u32, seed: u64) -> FaultRecoveryRow {
    let config = WeakScalingConfig::frontier(nodes, seed);
    let baseline = weak_scaling::run(&config);
    let plan = FaultPlan {
        crashes: vec![(0, 0.3 * baseline.makespan_secs)],
        stragglers: Vec::new(),
        nvme_faults: Vec::new(),
    };
    let detect = FaultConfig::calibrated(seed).detect_delay_secs;
    let result = faults::run_with_plan(&config, &plan, detect, baseline.makespan_secs, None);
    result
        .verify_exactly_once()
        .expect("fault recovery must preserve exactly-once execution");
    FaultRecoveryRow {
        nodes,
        tasks_total: result.tasks_total,
        tasks_lost: result.tasks_requeued,
        nodes_failed: result.nodes_failed.len() as u32,
        driver_recovery_secs: result.recovery_overhead_secs(),
        wms_restart_secs: wms_restart_overhead_secs(
            result.tasks_requeued,
            result.tasks_total,
            &WmsConfig::swift_t_like(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_side_node_math() {
        let machine = Machine::frontier();
        let (nodes, overhead) = parallel_overhead_secs(1_152_000, &machine);
        assert_eq!(nodes, 9000);
        // Ramp 90 s + dispatch 128/470 ≈ 90.3 s — well under the paper's
        // 561 s worst case (which includes straggler tails).
        assert!(overhead > 80.0 && overhead < 120.0, "{overhead}");
    }

    #[test]
    fn comparison_shape_matches_paper_argument() {
        let rows = overhead_comparison(&[50_000, 100_000]);
        // WMS: hundreds to thousands of seconds, superlinear.
        assert!(rows[0].wms_overhead_secs > 300.0);
        assert!(rows[1].wms_overhead_secs > 2.5 * rows[0].wms_overhead_secs);
        // Parallel engine: tens of seconds, and the gap widens.
        assert!(rows[0].parallel_overhead_secs < 60.0);
        assert!(rows[1].advantage() > rows[0].advantage());
        assert!(rows[0].advantage() > 10.0, "{}", rows[0].advantage());
    }

    #[test]
    fn small_runs_fit_on_one_node() {
        let machine = Machine::frontier();
        let (nodes, _) = parallel_overhead_secs(100, &machine);
        assert_eq!(nodes, 1);
    }

    #[test]
    fn node_count_clamps_to_machine() {
        let machine = Machine::frontier();
        let (nodes, _) = parallel_overhead_secs(10_000_000_000, &machine);
        assert_eq!(nodes, machine.nodes);
    }

    #[test]
    fn driver_recovery_undercuts_the_wms_restart_path() {
        let row = fault_recovery_comparison(8, 42);
        assert_eq!(row.nodes_failed, 1);
        // The dead node took a full 128-task shard with it.
        assert_eq!(row.tasks_lost, 128);
        assert_eq!(row.tasks_total, 8 * 128);
        // Both sides pay something real…
        assert!(row.driver_recovery_secs > 0.0, "{row:?}");
        // …but the central restart path (0.2 s client spacing per srun
        // step alone ≈ 25 s for 128 tasks) dwarfs re-sharding onto
        // survivors behind a 5 s detection window.
        assert!(row.wms_restart_secs > row.driver_recovery_secs, "{row:?}");
        assert!(row.advantage() > 1.5, "{}", row.advantage());
    }

    #[test]
    fn fault_recovery_comparison_is_deterministic() {
        let a = fault_recovery_comparison(6, 7);
        let b = fault_recovery_comparison(6, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn wms_restart_scales_with_both_loss_and_workflow_size() {
        let cfg = WmsConfig::swift_t_like();
        let small = wms_restart_overhead_secs(16, 1_000, &cfg);
        let more_lost = wms_restart_overhead_secs(128, 1_000, &cfg);
        let bigger_dag = wms_restart_overhead_secs(16, 1_000_000, &cfg);
        assert!(more_lost > small);
        assert!(bigger_dag > small);
    }

    #[test]
    fn dag_resume_undercuts_the_wms_restart() {
        // A 100k-task workflow loses a 10k-task subgraph mid-run. The
        // driver re-reads 90k joblog rows (~0.18 s) and re-dispatches
        // 10k tasks sharded over the machine; the WMS re-scans all 100k
        // dataflow entries and pays a central srun step per task.
        let row = dag_restart_comparison(100_000, 10_000);
        assert_eq!(row.tasks_total, 100_000);
        assert_eq!(row.subgraph_tasks, 10_000);
        assert!(row.driver_resume_secs > 0.0);
        assert!(row.wms_restart_secs > row.driver_resume_secs, "{row:?}");
        assert!(row.advantage() > 10.0, "{}", row.advantage());
    }

    #[test]
    fn dag_resume_cost_tracks_the_subgraph_not_the_workflow() {
        let machine = Machine::frontier();
        // Same subgraph, 10x workflow: only the scan term grows, and it
        // grows by µs/row — the driver side barely moves…
        let (_, small_wf) = dag_resume_overhead_secs(20_000, 5_000, &machine);
        let (_, big_wf) = dag_resume_overhead_secs(200_000, 5_000, &machine);
        assert!(big_wf > small_wf);
        assert!(big_wf - small_wf < 1.0, "{} vs {}", small_wf, big_wf);
        // …while the WMS side re-scans the whole dataflow every time.
        let cfg = WmsConfig::swift_t_like();
        let wms_small = wms_restart_overhead_secs(5_000, 20_000, &cfg);
        let wms_big = wms_restart_overhead_secs(5_000, 200_000, &cfg);
        assert!(wms_big - wms_small > 10.0 * (big_wf - small_wf));
        // A bigger subgraph costs the driver more (more dispatch).
        let (_, bigger_subgraph) = dag_resume_overhead_secs(200_000, 50_000, &machine);
        assert!(bigger_subgraph > big_wf);
    }

    #[test]
    fn dag_restart_advantage_grows_with_workflow_size() {
        // The paper's argument in DAG form: hold the lost fraction at
        // 10% and grow the workflow. The driver pays µs/row to skip the
        // done-set and shards the replay, so its cost stays near-flat
        // per task; the WMS pays a full rescan plus a central srun step
        // per replayed task, so the gap widens with scale.
        let a = dag_restart_comparison(10_000, 1_000);
        let b = dag_restart_comparison(1_000_000, 100_000);
        assert!(
            b.advantage() > a.advantage(),
            "{} vs {}",
            a.advantage(),
            b.advantage()
        );
    }

    #[test]
    fn observed_comparison_reports_launch_waves() {
        use htpar_telemetry::{MetricsRegistry, Recorder};
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        let metrics = MetricsRegistry::shared();
        bus.attach(rec.clone());
        bus.attach(metrics.clone());
        let rows = overhead_comparison_observed(&[1_000, 2_000], Some(&bus));
        assert_eq!(rows.len(), 2);
        // Unobserved and observed paths agree exactly.
        assert_eq!(rows, overhead_comparison(&[1_000, 2_000]));
        // One launch wave per row, per-node volume aggregated by metrics.
        assert_eq!(rec.count_matching(|e| e.kind() == "launch"), 2);
        let per_node: u64 = rows.iter().map(|r| r.tasks.div_ceil(r.nodes as u64)).sum();
        assert_eq!(metrics.snapshot().launched_tasks, per_node);
    }
}
