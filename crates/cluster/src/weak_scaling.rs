//! The Fig. 1 experiment: weak scaling on Frontier, one GNU Parallel
//! instance per node, 128 tasks per node, up to 9,000 nodes (1.152 M
//! tasks).
//!
//! The paper's workflow per node: start when the allocation delivers the
//! node (ramp + stragglers), wait for node-local NVMe, dispatch 128 tasks
//! from one launcher instance at the measured per-instance rate, run each
//! trivial payload, write stdout to NVMe, and finally copy the aggregated
//! output to Lustre. The reported metric is the distribution of
//! completion times measured from job start.

use htpar_simkit::{stream_rng, Dist, Summary};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::machine::Machine;
use crate::slurm::AllocationModel;

/// Where each task's stdout goes — the knob behind the paper's best
/// practice ("standard output was initially written to the node-local
/// NVMe ... to avoid writing small files to the Lustre filesystem").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IoStrategy {
    /// The paper's workflow: stdout to NVMe, one aggregated copy-back.
    #[default]
    NvmeFirst,
    /// The anti-pattern: every task creates its own small file on
    /// Lustre, paying a metadata-server round trip under storm load.
    LustreDirect,
}

/// Configuration of one weak-scaling run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeakScalingConfig {
    pub machine: Machine,
    pub allocation: AllocationModel,
    /// Nodes in this run (Fig. 1 sweeps 1,000 … 9,000).
    pub nodes: u32,
    /// Tasks per node (128: one per CPU thread).
    pub tasks_per_node: u32,
    /// `-j` slots per node's launcher instance (128 in the paper).
    pub jobs_per_node: u32,
    /// Runtime of the trivial payload (hostname + timestamp).
    pub task_runtime: Dist,
    /// Stdout bytes each task writes (to NVMe first).
    pub stdout_bytes_per_task: u64,
    /// Where stdout goes (NVMe-first vs the Lustre-direct anti-pattern).
    pub io: IoStrategy,
    pub seed: u64,
}

impl WeakScalingConfig {
    /// The paper's setup at a given node count.
    pub fn frontier(nodes: u32, seed: u64) -> WeakScalingConfig {
        WeakScalingConfig {
            machine: Machine::frontier(),
            allocation: AllocationModel::frontier_calibrated(),
            nodes,
            tasks_per_node: 128,
            jobs_per_node: 128,
            // A bash one-liner recording hostname+date: milliseconds of
            // work, with shell startup in front.
            task_runtime: Dist::Uniform { lo: 0.01, hi: 0.10 },
            stdout_bytes_per_task: 64,
            io: IoStrategy::NvmeFirst,
            seed,
        }
    }
}

/// Result of one weak-scaling run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeakScalingResult {
    pub nodes: u32,
    pub tasks_total: u64,
    /// Per-task completion times (seconds from job start).
    pub task_completion_secs: Vec<f64>,
    /// Latest end minus earliest start — the paper's headline number.
    pub makespan_secs: f64,
}

impl WeakScalingResult {
    /// Distribution summary of task completion times.
    pub fn task_summary(&self) -> Summary {
        Summary::of(&self.task_completion_secs).expect("runs have tasks")
    }
}

/// Everything one node needs, sampled up-front from its own RNG stream.
/// Both the analytic schedule below and the event-driven simulator in
/// [`crate::faults`] consume these plans, so the two implementations can
/// be cross-validated draw for draw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePlan {
    /// Job start on this node (allocation ready + NVMe wait), seconds.
    pub start: f64,
    /// Per-task cost after launch: runtime + stdout write, seconds.
    pub task_costs: Vec<f64>,
    /// Copy-back cost after the last task, seconds.
    pub copy: f64,
}

/// Sample node `node`'s plan (deterministic per `(seed, node)` stream).
pub fn sample_node_plan(config: &WeakScalingConfig, node: u32) -> NodePlan {
    let tasks_total = config.nodes as u64 * config.tasks_per_node as u64;
    // Lustre-direct anti-pattern: every task's file create queues at the
    // MDS. Under a full-machine storm the whole run's creates serialize;
    // a task's expected queueing delay is half the storm's service time,
    // and the MDS itself degrades under heavy concurrent load.
    let lustre_direct_md_secs = {
        let degradation = 1.0 + 2.0 * config.machine.occupancy(config.nodes);
        config.machine.lustre.metadata_time_secs(tasks_total) * degradation / 2.0
    };
    // Copy-back bandwidth: every node eventually streams its (small)
    // aggregated output; assume roughly a quarter of nodes overlap.
    let concurrent_writers = (config.nodes / 4).max(1) as usize;
    let copy_bw = config
        .machine
        .lustre
        .effective_client_bw(concurrent_writers);
    let aggregated_bytes = config.stdout_bytes_per_task as f64 * config.tasks_per_node as f64;
    // One metadata op per node; the MDS serves the whole machine.
    let md_secs = config
        .machine
        .lustre
        .metadata_time_secs(config.nodes as u64)
        / config.nodes as f64;

    let mut rng = stream_rng(config.seed, node as u64);
    let ready = config
        .allocation
        .sample_ready_time(&mut rng, config.nodes, node);
    let nvme_wait = config.machine.nvme.sample_availability_delay(&mut rng);
    let start = ready + nvme_wait;
    let task_costs = (0..config.tasks_per_node)
        .map(|_| {
            let runtime = config.task_runtime.sample(&mut rng);
            let stdout_write = match config.io {
                IoStrategy::NvmeFirst => config
                    .machine
                    .nvme
                    .write_files_secs(1, config.stdout_bytes_per_task as f64),
                IoStrategy::LustreDirect => {
                    // Expected MDS queueing delay for this task's create,
                    // jittered: the storm makes waits highly variable.
                    lustre_direct_md_secs * (0.5 + rng.gen::<f64>())
                }
            };
            runtime + stdout_write
        })
        .collect();
    // Copy-back only exists in the NVMe-first workflow: the anti-pattern
    // already paid Lustre per task.
    let copy = match config.io {
        IoStrategy::NvmeFirst => {
            aggregated_bytes / copy_bw
                + md_secs
                + rng.gen::<f64>() * 2.0 * config.machine.occupancy(config.nodes)
        }
        IoStrategy::LustreDirect => 0.0,
    };
    NodePlan {
        start,
        task_costs,
        copy,
    }
}

/// Execute the weak-scaling model (analytic slot-cycling schedule).
pub fn run(config: &WeakScalingConfig) -> WeakScalingResult {
    assert!(config.nodes >= 1, "need at least one node");
    assert!(config.tasks_per_node >= 1 && config.jobs_per_node >= 1);
    let tasks_total = config.nodes as u64 * config.tasks_per_node as u64;
    let mut task_completion_secs = Vec::with_capacity(tasks_total as usize);
    let mut makespan_secs = 0.0f64;
    let dispatch_gap = 1.0 / config.machine.launch.instance_rate();

    for node in 0..config.nodes {
        let plan = sample_node_plan(config, node);
        // Greedy earliest-free-slot dispatch — the schedule a counting
        // slot semaphore produces (GNU's behaviour): each launch waits
        // for the serial dispatcher (gap after the previous launch) and
        // for any slot to free.
        let jobs = config.jobs_per_node.min(config.tasks_per_node) as usize;
        let mut slot_free = vec![plan.start; jobs];
        let mut next_dispatch = plan.start;
        let mut node_last = plan.start;
        for &cost in &plan.task_costs {
            let (slot, earliest) = slot_free
                .iter()
                .copied()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .expect("jobs >= 1");
            let launch = next_dispatch.max(earliest);
            next_dispatch = launch + dispatch_gap;
            let done = launch + cost;
            slot_free[slot] = done;
            node_last = node_last.max(done);
            task_completion_secs.push(done);
        }
        // The node's elapsed time runs to its Lustre copy-back.
        makespan_secs = makespan_secs.max(node_last + plan.copy);
    }

    WeakScalingResult {
        nodes: config.nodes,
        tasks_total,
        task_completion_secs,
        makespan_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nodes: u32) -> WeakScalingResult {
        run(&WeakScalingConfig::frontier(nodes, 42))
    }

    #[test]
    fn task_count_matches_paper_at_9000_nodes() {
        let r = quick(9000);
        assert_eq!(r.tasks_total, 1_152_000);
        assert_eq!(r.task_completion_secs.len(), 1_152_000);
    }

    #[test]
    fn fig1_shape_medians_scale_roughly_linearly() {
        let m1 = quick(1000).task_summary().median;
        let m4 = quick(4000).task_summary().median;
        let m8 = quick(8000).task_summary().median;
        assert!(m4 > m1 && m8 > m4, "medians grow: {m1} {m4} {m8}");
        // Linear-ish: m8/m1 within a factor of ~2 of the 8× node ratio's
        // effect on the ramp median (jitter adds a constant).
        assert!(m8 / m1 > 2.5 && m8 / m1 < 8.0, "{}", m8 / m1);
    }

    #[test]
    fn fig1_8000_nodes_half_under_a_minute_three_quarters_under_two() {
        let s = quick(8000).task_summary();
        assert!(s.median < 60.0, "median {}", s.median);
        assert!(s.q3 < 120.0, "q3 {}", s.q3);
    }

    #[test]
    fn fig1_9000_nodes_max_near_561s() {
        // Paper: "the maximum execution time for 9,000 nodes ... is 561
        // seconds". We check the band, not the point value.
        let r = quick(9000);
        assert!(
            r.makespan_secs > 350.0 && r.makespan_secs < 700.0,
            "makespan {}",
            r.makespan_secs
        );
    }

    #[test]
    fn outlier_variance_appears_at_high_node_counts() {
        let small = quick(2000).task_summary();
        let large = quick(9000).task_summary();
        // The gap between max and p99 explodes when outlier nodes appear.
        let tail_small = small.max - small.p99;
        let tail_large = large.max - large.p99;
        assert!(
            tail_large > 3.0 * tail_small,
            "tails: {tail_small} vs {tail_large}"
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick(500);
        let b = quick(500);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.task_completion_secs, b.task_completion_secs);
        let c = run(&WeakScalingConfig::frontier(500, 43));
        assert_ne!(a.makespan_secs, c.makespan_secs);
    }

    #[test]
    fn per_node_rng_streams_differ_between_nodes() {
        // Each node draws from its own stream: nodes do not all sample
        // identical delays.
        let r = quick(50);
        let first_node = &r.task_completion_secs[..128];
        let second_node = &r.task_completion_secs[128..256];
        assert_ne!(first_node, second_node);
    }

    #[test]
    fn lustre_direct_antipattern_is_much_slower_at_scale() {
        // The quantitative form of the paper's best practice: writing
        // 1.152M small stdout files straight to Lustre storms the MDS.
        let good = quick(9000);
        let mut cfg = WeakScalingConfig::frontier(9000, 42);
        cfg.io = IoStrategy::LustreDirect;
        let bad = run(&cfg);
        let ratio = bad.task_summary().median / good.task_summary().median;
        // The allocation ramp dominates completion times, so the MDS
        // storm shows up as a ~1.3x median penalty plus a fattened tail
        // rather than a wholesale collapse.
        assert!(ratio > 1.25, "Lustre-direct median {ratio}x NVMe-first");
        let tail_good = good.task_summary().p99 - good.task_summary().median;
        let tail_bad = bad.task_summary().p99 - bad.task_summary().median;
        assert!(tail_bad > tail_good, "storm fattens the tail");
    }

    #[test]
    fn io_strategies_agree_at_tiny_scale() {
        // With one node, the MDS storm is negligible: both strategies
        // land in the same ballpark.
        let good = quick(1);
        let mut cfg = WeakScalingConfig::frontier(1, 42);
        cfg.io = IoStrategy::LustreDirect;
        let bad = run(&cfg);
        let ratio = bad.task_summary().median / good.task_summary().median;
        assert!(ratio < 1.2, "no storm at one node: {ratio}");
    }

    #[test]
    fn slot_cycling_respects_job_limit() {
        // 4 tasks of 10 s each on 2 slots: last completion ≥ 20 s after
        // start even though dispatch is fast.
        let mut cfg = WeakScalingConfig::frontier(1, 7);
        cfg.tasks_per_node = 4;
        cfg.jobs_per_node = 2;
        cfg.task_runtime = Dist::constant(10.0);
        let r = run(&cfg);
        let start = r
            .task_completion_secs
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            - 10.0;
        let last = r.task_completion_secs.iter().cloned().fold(0.0, f64::max);
        assert!(last - start >= 20.0 - 1e-6, "two rounds of 10 s tasks");
    }
}
