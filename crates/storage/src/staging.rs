//! The staged NVMe-prefetch pipeline of paper §IV-B (Fig. 7).
//!
//! Five independent datasets live on Lustre. Processing one from Lustre
//! takes 86 minutes; from NVMe, 68 minutes. The workflow mirrors a CPU
//! pipeline:
//!
//! - **Stage 1**: process dataset 1 *from Lustre* while copying dataset 2
//!   Lustre→NVMe.
//! - **Stages 2..n−1**: process dataset *i* from NVMe ∥ copy dataset
//!   *i+1* ∥ delete dataset *i−1* from NVMe.
//! - **Stage n**: process the last dataset from NVMe ∥ delete the
//!   previous one.
//!
//! Total: 86 + 4 × 68 = 358 min vs 86 × 5 = 430 min unpipelined — the
//! paper's 17 % improvement.

use serde::{Deserialize, Serialize};

use crate::lustre::Lustre;
use crate::nvme::Nvme;

/// Storage tier a dataset is processed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    Lustre,
    Nvme,
}

/// One operation inside a pipeline stage. Dataset indices are 1-based to
/// match the paper's figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StageOp {
    /// Run the analysis over dataset `dataset`, reading from `from`.
    Process {
        dataset: usize,
        from: Tier,
        secs: f64,
    },
    /// Copy dataset `dataset` from Lustre to node-local NVMe.
    Copy { dataset: usize, secs: f64 },
    /// Delete dataset `dataset` from NVMe.
    Delete { dataset: usize, secs: f64 },
}

impl StageOp {
    /// Duration of this op in seconds.
    pub fn secs(&self) -> f64 {
        match self {
            StageOp::Process { secs, .. }
            | StageOp::Copy { secs, .. }
            | StageOp::Delete { secs, .. } => *secs,
        }
    }
}

/// One pipeline stage: operations that run concurrently; the stage ends
/// when the slowest finishes (the synchronization barrier of Fig. 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    pub ops: Vec<StageOp>,
    pub duration_secs: f64,
}

/// A fully planned pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePlan {
    pub stages: Vec<Stage>,
    pub total_secs: f64,
    /// The unpipelined all-from-Lustre comparison.
    pub baseline_secs: f64,
}

impl PipelinePlan {
    /// Fractional improvement over the baseline (0.17 = 17 % faster).
    pub fn improvement(&self) -> f64 {
        if self.baseline_secs <= 0.0 {
            0.0
        } else {
            1.0 - self.total_secs / self.baseline_secs
        }
    }
}

/// Stage-duration parameters for the prefetch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefetchPipeline {
    /// Processing one dataset reading from Lustre, seconds.
    pub lustre_process_secs: f64,
    /// Processing one dataset reading from NVMe, seconds.
    pub nvme_process_secs: f64,
    /// Copying one dataset Lustre→NVMe, seconds.
    pub copy_secs: f64,
    /// Deleting one dataset from NVMe, seconds.
    pub delete_secs: f64,
}

impl PrefetchPipeline {
    /// The paper's calibration: 86-minute Lustre stages, 68-minute NVMe
    /// stages; copies overlap fully (rsync streams while the CPU crunches)
    /// and deletes are noise.
    pub fn darshan_paper() -> PrefetchPipeline {
        PrefetchPipeline {
            lustre_process_secs: 86.0 * 60.0,
            nvme_process_secs: 68.0 * 60.0,
            copy_secs: 55.0 * 60.0,
            delete_secs: 30.0,
        }
    }

    /// Derive stage durations from storage models and workload shape.
    ///
    /// - Processing = max(compute time, time to stream the dataset from
    ///   the tier) — the job is either CPU- or read-bound.
    /// - Copy = dataset streamed at min(Lustre single-client read, NVMe
    ///   write) plus per-file costs on both ends.
    pub fn from_models(
        lustre: &Lustre,
        nvme: &Nvme,
        dataset_bytes: f64,
        dataset_files: u64,
        compute_secs: f64,
        concurrent_lustre_clients: usize,
    ) -> PrefetchPipeline {
        let lustre_read = dataset_bytes
            / lustre.effective_client_bw(concurrent_lustre_clients.max(1))
            + lustre.metadata_time_secs(dataset_files);
        let nvme_read = nvme.read_secs(dataset_bytes) + dataset_files as f64 * nvme.per_op_secs;
        let copy_stream = dataset_bytes
            / lustre
                .effective_client_bw(concurrent_lustre_clients.max(1))
                .min(nvme.write_bw_bps);
        PrefetchPipeline {
            lustre_process_secs: compute_secs.max(lustre_read),
            nvme_process_secs: compute_secs.max(nvme_read),
            copy_secs: copy_stream
                + lustre.metadata_time_secs(dataset_files)
                + nvme.write_files_secs(dataset_files, 0.0),
            delete_secs: nvme.delete_files_secs(dataset_files),
        }
    }

    /// Render the pipeline as an `htpar --dag` command-mode spec — the
    /// dependency-graph form of Fig. 7, shipped as a runnable example.
    ///
    /// Instead of the stage barriers of [`PrefetchPipeline::plan`]
    /// (every op of stage *i* waits for all of stage *i−1*), the spec
    /// carries the true data dependencies:
    ///
    /// - `proc1` reads straight from Lustre: no dependencies;
    /// - `copy{i}` waits only on `copy{i-1}` (one prefetch stream);
    /// - `proc{i}` waits on its own copy and the previous processing
    ///   step (one compute allocation);
    /// - `del{i}` waits on `proc{i}` (free the NVMe space behind it).
    ///
    /// Commands are `sleep` calls with each op's duration multiplied by
    /// `secs_scale`, so the shipped example replays the schedule in
    /// seconds rather than hours. The critical path of this graph is
    /// never longer than the barrier plan's total
    /// ([`PrefetchPipeline::dag_makespan_secs`]).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn dag_spec(&self, n: usize, secs_scale: f64) -> String {
        assert!(n >= 1, "pipeline needs at least one dataset");
        let sleep = |secs: f64| format!("sleep {:.3}", secs * secs_scale);
        let mut out = String::new();
        out.push_str("# Staged NVMe-prefetch pipeline (paper SIV-B, Fig. 7) as a DAG.\n");
        out.push_str("# Generated by PrefetchPipeline::dag_spec; run with `htpar --dag FILE`.\n");
        out.push_str(&format!("proc1: {}\n", sleep(self.lustre_process_secs)));
        for i in 2..=n {
            let after = if i == 2 {
                String::new()
            } else {
                format!(" # after: copy{}", i - 1)
            };
            out.push_str(&format!("copy{i}: {}{after}\n", sleep(self.copy_secs)));
        }
        for i in 2..=n {
            out.push_str(&format!(
                "proc{i}: {} # after: copy{i},proc{}\n",
                sleep(self.nvme_process_secs),
                i - 1
            ));
        }
        for i in 1..n {
            out.push_str(&format!(
                "del{i}: {} # after: proc{i}\n",
                sleep(self.delete_secs)
            ));
        }
        out
    }

    /// Critical-path makespan of the dependency-graph form rendered by
    /// [`PrefetchPipeline::dag_spec`], in (unscaled) seconds. True data
    /// dependencies only relax the stage barriers, so this is always
    /// ≤ [`PipelinePlan::total_secs`]; for the paper's calibration
    /// (processing dominates the copies) the two coincide.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn dag_makespan_secs(&self, n: usize) -> f64 {
        assert!(n >= 1, "pipeline needs at least one dataset");
        // finish(copy_i) = (i-1) * copy  (serial prefetch stream from t=0)
        // finish(proc_i) = max(finish(copy_i), finish(proc_{i-1})) + nvme
        // makespan      = max over finish(proc_n) and every delete.
        let mut proc_finish = self.lustre_process_secs;
        let mut makespan = proc_finish;
        for i in 2..=n {
            let copy_finish = (i - 1) as f64 * self.copy_secs;
            proc_finish = proc_finish.max(copy_finish) + self.nvme_process_secs;
            makespan = makespan.max(proc_finish);
        }
        // Deletes trail their processing step; only the last one can
        // outlive the processing chain.
        if n >= 2 {
            let mut prev_proc = self.lustre_process_secs;
            for i in 2..=n {
                let copy_finish = (i - 1) as f64 * self.copy_secs;
                let this_proc = prev_proc.max(copy_finish) + self.nvme_process_secs;
                makespan = makespan.max(prev_proc + self.delete_secs);
                prev_proc = this_proc;
            }
        }
        makespan
    }

    /// Plan the pipelined schedule over `n` datasets.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn plan(&self, n: usize) -> PipelinePlan {
        assert!(n >= 1, "pipeline needs at least one dataset");
        let mut stages = Vec::with_capacity(n);
        for i in 1..=n {
            let mut ops = Vec::new();
            if i == 1 {
                // First dataset has no prefetched copy: read it straight
                // from Lustre while the second dataset prefetches.
                ops.push(StageOp::Process {
                    dataset: 1,
                    from: Tier::Lustre,
                    secs: self.lustre_process_secs,
                });
            } else {
                ops.push(StageOp::Process {
                    dataset: i,
                    from: Tier::Nvme,
                    secs: self.nvme_process_secs,
                });
                ops.push(StageOp::Delete {
                    dataset: i - 1,
                    secs: self.delete_secs,
                });
            }
            if i < n {
                ops.push(StageOp::Copy {
                    dataset: i + 1,
                    secs: self.copy_secs,
                });
            }
            let duration_secs = ops.iter().map(StageOp::secs).fold(0.0, f64::max);
            stages.push(Stage { ops, duration_secs });
        }
        let total_secs = stages.iter().map(|s| s.duration_secs).sum();
        PipelinePlan {
            stages,
            total_secs,
            baseline_secs: self.lustre_process_secs * n as f64,
        }
    }
}

/// Execute a [`PipelinePlan`] as a discrete-event simulation and return
/// the simulated makespan in seconds.
///
/// The analytic planner in [`PrefetchPipeline::plan`] folds each stage
/// to `max(op durations)` and sums; this executor instead schedules
/// every op as its own completion event (batched per stage with
/// [`Simulation::schedule_batch`]) and lets the stage barrier emerge
/// from the event order. The two must agree to within the DES clock's
/// microsecond quantization — the cross-validation that keeps the
/// closed-form plan honest.
pub fn run_plan_des(plan: &PipelinePlan) -> f64 {
    use htpar_simkit::{SimTime, Simulation};

    struct StageWorld {
        /// Remaining stages' op durations, seconds (consumed in order).
        stages: Vec<Vec<f64>>,
        /// Ops still in flight in the current stage.
        remaining: usize,
        /// Index of the next stage to launch when the barrier clears.
        next_stage: usize,
    }

    fn launch(sim: &mut Simulation<StageWorld>, stage: usize) {
        let ops = std::mem::take(&mut sim.world_mut().stages[stage]);
        sim.world_mut().remaining = ops.len();
        sim.world_mut().next_stage = stage + 1;
        let now = sim.now();
        sim.schedule_batch(ops.into_iter().map(|secs| {
            (
                now + SimTime::from_secs_f64(secs),
                |sim: &mut Simulation<StageWorld>| {
                    sim.world_mut().remaining -= 1;
                    if sim.world().remaining == 0
                        && sim.world().next_stage < sim.world().stages.len()
                    {
                        let next = sim.world().next_stage;
                        launch(sim, next);
                    }
                },
            )
        }));
    }

    let stages: Vec<Vec<f64>> = plan
        .stages
        .iter()
        .map(|s| s.ops.iter().map(StageOp::secs).collect())
        .collect();
    if stages.is_empty() {
        return 0.0;
    }
    let widest = stages.iter().map(Vec::len).max().unwrap_or(0);
    let world = StageWorld {
        stages,
        remaining: 0,
        next_stage: 0,
    };
    let mut sim = Simulation::with_capacity(world, 0, widest);
    launch(&mut sim, 0);
    sim.run();
    sim.now().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        let p = PrefetchPipeline::darshan_paper();
        let plan = p.plan(5);
        // 86 + 4×68 = 358 min.
        assert!((plan.total_secs / 60.0 - 358.0).abs() < 1e-9);
        assert!((plan.baseline_secs / 60.0 - 430.0).abs() < 1e-9);
        // Paper: "17% improvement" (358 vs 430 → 16.7%).
        assert!(
            (plan.improvement() - 0.1674).abs() < 0.005,
            "{}",
            plan.improvement()
        );
    }

    #[test]
    fn dag_spec_round_trips_through_the_core_parser() {
        let p = PrefetchPipeline::darshan_paper();
        let spec = p.dag_spec(5, 0.001);
        let parsed = htpar_core::dag::DagSpec::parse(&spec).expect("spec parses");
        // 1 Lustre proc + 4 copies + 4 NVMe procs + 4 deletes.
        assert_eq!(parsed.len(), 13);
        let dag = parsed.build().expect("spec is acyclic");
        // proc1 and copy2 are the only roots: everything else waits.
        let roots: Vec<&str> = dag
            .nodes()
            .iter()
            .filter(|n| n.deps.is_empty())
            .map(|n| n.id.as_str())
            .collect();
        assert_eq!(roots, ["proc1", "copy2"]);
        // proc3 waits on its own copy and the previous processing step.
        let proc3 = dag
            .nodes()
            .iter()
            .find(|n| n.id == "proc3")
            .expect("proc3 exists");
        let dep_ids: Vec<&str> = proc3
            .deps
            .iter()
            .map(|&d| dag.nodes()[d as usize].id.as_str())
            .collect();
        assert_eq!(dep_ids, ["copy3", "proc2"]);
    }

    #[test]
    fn dag_makespan_matches_barrier_plan_for_paper_calibration() {
        // Processing dominates the copies in the Darshan calibration, so
        // relaxing the stage barriers cannot shorten the critical path:
        // both forms land on 358 min.
        let p = PrefetchPipeline::darshan_paper();
        let plan = p.plan(5);
        let dag = p.dag_makespan_secs(5);
        assert!(
            (dag - plan.total_secs).abs() < 1e-6,
            "{dag} vs {}",
            plan.total_secs
        );
    }

    #[test]
    fn dag_makespan_never_exceeds_barrier_plan() {
        // When the copies dominate, the DAG form beats the barrier plan:
        // copy i+1 streams while stage i is still processing.
        let p = PrefetchPipeline {
            lustre_process_secs: 100.0,
            nvme_process_secs: 10.0,
            copy_secs: 50.0,
            delete_secs: 1.0,
        };
        for n in 1..=8 {
            let plan = p.plan(n).total_secs;
            let dag = p.dag_makespan_secs(n);
            assert!(dag <= plan + 1e-9, "n={n}: dag {dag} > plan {plan}");
        }
        // Strictly better for n=3: barriers 160 min-equivalents, DAG 120.
        assert!((p.plan(3).total_secs - 160.0).abs() < 1e-9);
        assert!((p.dag_makespan_secs(3) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn stage_structure_matches_figure7() {
        let plan = PrefetchPipeline::darshan_paper().plan(5);
        assert_eq!(plan.stages.len(), 5);
        // Stage 1: process-from-Lustre + copy.
        assert_eq!(plan.stages[0].ops.len(), 2);
        assert!(matches!(
            plan.stages[0].ops[0],
            StageOp::Process {
                dataset: 1,
                from: Tier::Lustre,
                ..
            }
        ));
        assert!(matches!(
            plan.stages[0].ops[1],
            StageOp::Copy { dataset: 2, .. }
        ));
        // Middle stages: process + delete + copy (3 concurrent ops).
        for (idx, stage) in plan.stages.iter().enumerate().take(4).skip(1) {
            let i = idx + 1;
            assert_eq!(stage.ops.len(), 3, "stage {i}");
            assert!(matches!(
                stage.ops[0],
                StageOp::Process {
                    from: Tier::Nvme,
                    ..
                }
            ));
        }
        // Last stage: process + delete, no copy.
        assert_eq!(plan.stages[4].ops.len(), 2);
    }

    #[test]
    fn slow_copy_becomes_the_bottleneck() {
        let p = PrefetchPipeline {
            lustre_process_secs: 100.0,
            nvme_process_secs: 50.0,
            copy_secs: 80.0,
            delete_secs: 1.0,
        };
        let plan = p.plan(3);
        // Stage 1: max(100, 80)=100; stage 2: max(50, 80, 1)=80; stage 3: 50.
        assert_eq!(plan.stages[0].duration_secs, 100.0);
        assert_eq!(plan.stages[1].duration_secs, 80.0);
        assert_eq!(plan.stages[2].duration_secs, 50.0);
        assert_eq!(plan.total_secs, 230.0);
    }

    #[test]
    fn single_dataset_has_no_pipeline_benefit() {
        let p = PrefetchPipeline::darshan_paper();
        let plan = p.plan(1);
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.total_secs, plan.baseline_secs);
        assert_eq!(plan.improvement(), 0.0);
    }

    #[test]
    fn improvement_grows_with_depth_toward_limit() {
        let p = PrefetchPipeline::darshan_paper();
        let i3 = p.plan(3).improvement();
        let i5 = p.plan(5).improvement();
        let i50 = p.plan(50).improvement();
        assert!(i3 < i5 && i5 < i50);
        // Limit = 1 - 68/86 ≈ 0.2093.
        assert!((i50 - (1.0 - 68.0 / 86.0)).abs() < 0.01);
    }

    #[test]
    fn des_execution_matches_the_analytic_plan() {
        let p = PrefetchPipeline::darshan_paper();
        for n in [1, 3, 5, 8] {
            let plan = p.plan(n);
            let des = run_plan_des(&plan);
            assert!(
                (des - plan.total_secs).abs() < 1e-3,
                "n={n}: des {des} vs plan {}",
                plan.total_secs
            );
        }
    }

    #[test]
    fn des_respects_stage_barriers_not_just_process_times() {
        // Copy dominates the middle stage; the barrier must wait for it.
        let p = PrefetchPipeline {
            lustre_process_secs: 100.0,
            nvme_process_secs: 50.0,
            copy_secs: 80.0,
            delete_secs: 1.0,
        };
        let des = run_plan_des(&p.plan(3));
        assert!((des - 230.0).abs() < 1e-3, "des {des}");
    }

    #[test]
    #[should_panic(expected = "at least one dataset")]
    fn zero_datasets_panics() {
        let _ = PrefetchPipeline::darshan_paper().plan(0);
    }

    #[test]
    fn from_models_is_compute_bound_on_nvme() {
        let lustre = Lustre::campaign_storage();
        let nvme = Nvme::frontier_node();
        // 4 TB dataset, 100 k files, 68 min of pure compute, sharing
        // Lustre with 200 other clients.
        let p = PrefetchPipeline::from_models(&lustre, &nvme, 4e12, 100_000, 68.0 * 60.0, 200);
        // NVMe can stream 4 TB in ~500 s ≪ 68 min: compute-bound.
        assert!((p.nvme_process_secs - 68.0 * 60.0).abs() < 1e-6);
        // Lustre at 100e9/200 = 500 MB/s: 4 TB takes 8000 s + metadata,
        // read-bound and slower than the NVMe stage.
        assert!(p.lustre_process_secs > p.nvme_process_secs);
        // Pipeline still wins.
        let plan = p.plan(5);
        assert!(plan.improvement() > 0.0);
    }
}
