//! Slurm-side models: the driver-script sharding of listing 1, the
//! allocation-delay model, and the `srun`-per-task baseline.
//!
//! [`driver_shard`] is the split both drivers, `htpar drive` and the
//! fault simulator, place work with ([`crate::drive::DrivePolicy`]).

use htpar_simkit::Dist;
use htpar_telemetry::{Event, EventBus, LaunchMethod};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The two environment variables the paper's driver script consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlurmEnv {
    /// `SLURM_NNODES`: nodes in the allocation.
    pub nnodes: u32,
    /// `SLURM_NODEID`: this node's 0-based id.
    pub nodeid: u32,
}

impl SlurmEnv {
    /// Would this node take input line `nr` (1-based, like awk's NR)?
    /// Implements `NR % NNODE == NODEID` from listing 1.
    ///
    /// A degenerate `nnodes == 0` clamps to a single node, matching
    /// [`driver_shard`]: node 0 takes every line instead of every line
    /// being dropped.
    pub fn takes_line(&self, nr: u64) -> bool {
        let n = self.nnodes.max(1) as u64;
        nr % n == self.nodeid as u64
    }
}

/// Shard `lines` across `nnodes` exactly as the paper's awk driver does:
/// 1-based line number modulo node count. Returns one shard per node id.
///
/// Note the awk idiom's one quirk, reproduced faithfully: because NR is
/// 1-based, node 0 takes lines nnodes, 2·nnodes, … and node 1 takes
/// lines 1, nnodes+1, … — distribution is even, offset by one.
pub fn driver_shard<T: Clone>(lines: &[T], nnodes: u32) -> Vec<Vec<T>> {
    let n = nnodes.max(1);
    let mut shards: Vec<Vec<T>> = vec![Vec::new(); n as usize];
    for (idx, line) in lines.iter().enumerate() {
        let nr = idx as u64 + 1; // awk NR is 1-based
        shards[(nr % n as u64) as usize].push(line.clone());
    }
    shards
}

/// When nodes of an allocation become ready to run the job script.
///
/// Large allocations do not start atomically: prolog scripts, NVMe burst
/// buffer setup, and node health checks spread actual start times over a
/// ramp that grows with allocation size, with a small population of
/// heavily delayed outlier nodes — the paper's stated explanation for the
/// extra variance at 7,000+ nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationModel {
    /// Ready times ramp uniformly over `ramp_secs_per_node × nodes`.
    pub ramp_secs_per_node: f64,
    /// Baseline per-node jitter added to the ramp.
    pub jitter: Dist,
    /// Probability that a node is an outlier grows quadratically with
    /// machine occupancy: `p = outlier_base × (nodes / reference_nodes)²`.
    pub outlier_base: f64,
    pub reference_nodes: u32,
    /// Extra delay suffered by outlier nodes.
    pub outlier_delay: Dist,
}

impl AllocationModel {
    /// Calibrated against Fig. 1: medians grow linearly (≈45 s at 9,000
    /// nodes), noticeable outliers appear at ≥7,000 nodes, and the
    /// worst-case 9,000-node completion lands near the paper's 561 s.
    pub fn frontier_calibrated() -> AllocationModel {
        AllocationModel {
            ramp_secs_per_node: 0.01,
            jitter: Dist::lognormal_median(8.0, 0.45),
            outlier_base: 0.012,
            reference_nodes: 9000,
            outlier_delay: Dist::Uniform {
                lo: 180.0,
                hi: 430.0,
            },
        }
    }

    /// Probability that one node of an `nodes`-node allocation is an
    /// outlier.
    pub fn outlier_probability(&self, nodes: u32) -> f64 {
        let x = nodes as f64 / self.reference_nodes as f64;
        (self.outlier_base * x * x).clamp(0.0, 1.0)
    }

    /// Sample the ready time (seconds from job start) of node `nodeid` in
    /// an allocation of `nodes`.
    pub fn sample_ready_time<R: Rng + ?Sized>(&self, rng: &mut R, nodes: u32, _nodeid: u32) -> f64 {
        let ramp_window = self.ramp_secs_per_node * nodes as f64;
        let base = rng.gen::<f64>() * ramp_window;
        let jitter = self.jitter.sample(rng);
        let outlier = if rng.gen::<f64>() < self.outlier_probability(nodes) {
            self.outlier_delay.sample(rng)
        } else {
            0.0
        };
        base + jitter + outlier
    }
}

/// The `srun`-per-task baseline (paper §IV intro and listing 4).
///
/// Every `srun` is an RPC to the central Slurm controller, which creates
/// a job step, allocates resources, and launches. Controller service time
/// degrades as outstanding step requests pile up — "a large number of
/// srun invocations can impact the overall scheduler performance". The
/// pre-GNU-Parallel Darshan script also had to sleep 0.2 s between sruns
/// to avoid overwhelming the controller (listing 4, line 16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SrunModel {
    /// Controller service time for one step when idle, seconds.
    pub base_service_secs: f64,
    /// Additional service time per outstanding request, seconds.
    pub degradation_per_outstanding: f64,
    /// Client-side spacing the script inserts between sruns, seconds.
    pub client_spacing_secs: f64,
}

impl SrunModel {
    /// Slurm controller figures consistent with the paper's observation
    /// that srun-based dispatch is far slower than GNU Parallel's.
    pub fn calibrated() -> SrunModel {
        SrunModel {
            base_service_secs: 0.05,
            degradation_per_outstanding: 0.02,
            client_spacing_secs: 0.2,
        }
    }

    /// Time to dispatch `n` tasks by invoking one srun per task from a
    /// single script (the listing-4 pattern). Steps are submitted
    /// `client_spacing_secs` apart; the controller serves a FIFO of
    /// steps, each costing `base + degradation × queue_depth`.
    pub fn dispatch_time(&self, n: u64) -> f64 {
        let mut controller_free_at = 0.0f64;
        let mut finished = 0u64;
        let mut queue: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        for i in 0..n {
            let submit = i as f64 * self.client_spacing_secs;
            // Drain controller work that completes before this submit.
            while let Some(&head) = queue.front() {
                if head <= submit {
                    queue.pop_front();
                    finished += 1;
                } else {
                    break;
                }
            }
            let start = controller_free_at.max(submit);
            let service =
                self.base_service_secs + self.degradation_per_outstanding * queue.len() as f64;
            controller_free_at = start + service;
            queue.push_back(controller_free_at);
        }
        let _ = finished;
        controller_free_at
    }

    /// [`SrunModel::dispatch_time`] that also reports the launch wave on
    /// a telemetry bus as [`Event::Launch`] with [`LaunchMethod::Srun`] —
    /// the srun-vs-parallel comparison becomes a pair of `launch` events
    /// on the same bus.
    pub fn dispatch_observed(&self, n: u64, bus: &EventBus) -> f64 {
        bus.emit(Event::Launch {
            method: LaunchMethod::Srun,
            tasks: n,
        });
        self.dispatch_time(n)
    }

    /// Steady-state dispatch rate (tasks/s) for large `n`.
    pub fn dispatch_rate(&self, n: u64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        n as f64 / self.dispatch_time(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpar_simkit::stream_rng;

    #[test]
    fn takes_line_matches_awk_semantics() {
        let env = SlurmEnv {
            nnodes: 4,
            nodeid: 1,
        };
        // NR % 4 == 1 → lines 1, 5, 9, …
        assert!(env.takes_line(1));
        assert!(!env.takes_line(2));
        assert!(env.takes_line(5));
        let env0 = SlurmEnv {
            nnodes: 4,
            nodeid: 0,
        };
        assert!(env0.takes_line(4));
        assert!(!env0.takes_line(1));
    }

    #[test]
    fn driver_shard_is_even_and_complete() {
        let lines: Vec<u32> = (0..1000).collect();
        let shards = driver_shard(&lines, 8);
        assert_eq!(shards.len(), 8);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
        let min = shards.iter().map(Vec::len).min().unwrap();
        let max = shards.iter().map(Vec::len).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn driver_shard_agrees_with_takes_line() {
        let lines: Vec<u64> = (0..97).collect();
        let shards = driver_shard(&lines, 5);
        for nodeid in 0..5u32 {
            let env = SlurmEnv { nnodes: 5, nodeid };
            for &val in &shards[nodeid as usize] {
                let nr = val + 1; // line numbers are 1-based
                assert!(env.takes_line(nr), "node {nodeid} line {nr}");
            }
        }
    }

    #[test]
    fn driver_shard_single_node_takes_all() {
        let lines: Vec<u32> = (0..10).collect();
        let shards = driver_shard(&lines, 1);
        assert_eq!(shards[0].len(), 10);
    }

    #[test]
    fn zero_nodes_clamps_to_one_in_both_implementations() {
        // The two listing-1 implementations must agree even on the
        // degenerate input: one shard holding everything.
        let lines: Vec<u32> = (0..10).collect();
        let shards = driver_shard(&lines, 0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 10);
        let env = SlurmEnv {
            nnodes: 0,
            nodeid: 0,
        };
        for nr in 1..=10u64 {
            assert!(env.takes_line(nr), "line {nr}");
        }
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// For any node count (including 0), the union of
            /// `takes_line` picks across all effective node ids equals
            /// the concatenation of `driver_shard`'s shards, and each
            /// line lands on exactly one node.
            #[test]
            fn takes_line_union_equals_driver_shard(
                nnodes in 0u32..12u32,
                len in 0usize..200usize,
            ) {
                let lines: Vec<u64> = (0..len as u64).collect();
                let shards = driver_shard(&lines, nnodes);
                let effective = nnodes.max(1);
                prop_assert_eq!(shards.len(), effective as usize);
                for (nodeid, shard) in shards.iter().enumerate() {
                    let env = SlurmEnv { nnodes, nodeid: nodeid as u32 };
                    let picks: Vec<u64> = lines
                        .iter()
                        .copied()
                        .filter(|&v| env.takes_line(v + 1))
                        .collect();
                    prop_assert_eq!(&picks, shard, "node {}", nodeid);
                }
                // Exactly-once across nodes: shard sizes sum to the
                // input and every line appears in exactly one shard.
                let total: usize = shards.iter().map(Vec::len).sum();
                prop_assert_eq!(total, len);
                let mut seen: Vec<u64> = shards.iter().flatten().copied().collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, lines);
            }
        }
    }

    #[test]
    fn outlier_probability_grows_quadratically() {
        let m = AllocationModel::frontier_calibrated();
        let p1 = m.outlier_probability(1000);
        let p9 = m.outlier_probability(9000);
        assert!((p9 / p1 - 81.0).abs() < 1.0, "{}", p9 / p1);
        assert!(p9 <= 0.02, "rare even at full scale: {p9}");
    }

    #[test]
    fn ready_times_ramp_with_scale() {
        let m = AllocationModel::frontier_calibrated();
        let mut rng = stream_rng(3, 0);
        let small: Vec<f64> = (0..2000)
            .map(|i| m.sample_ready_time(&mut rng, 1000, i))
            .collect();
        let large: Vec<f64> = (0..2000)
            .map(|i| m.sample_ready_time(&mut rng, 9000, i))
            .collect();
        let med = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        assert!(med(&large) > 2.0 * med(&small), "medians scale with nodes");
        // Fig. 1: median stays under a minute even at 9,000 nodes.
        assert!(med(&large) < 60.0, "median {}", med(&large));
    }

    #[test]
    fn srun_dispatch_is_client_spacing_bound_at_paper_settings() {
        let m = SrunModel::calibrated();
        // 128 tasks spaced 0.2 s apart ≈ 25.6 s (listing 4's pattern).
        let t = m.dispatch_time(128);
        assert!((25.4..28.0).contains(&t), "{t}");
        // GNU Parallel does the same dispatch in 128/470 ≈ 0.27 s — the
        // two-orders-of-magnitude gap the paper describes.
        assert!(t / (128.0 / 470.0) > 90.0);
    }

    #[test]
    fn srun_controller_degrades_without_client_spacing() {
        let fast = SrunModel {
            client_spacing_secs: 0.0,
            ..SrunModel::calibrated()
        };
        // Without spacing, every submit queues instantly; service time
        // grows with queue depth, so dispatch is superlinear in n.
        let r100 = fast.dispatch_rate(100);
        let r1000 = fast.dispatch_rate(1000);
        assert!(
            r1000 < r100 / 2.0,
            "controller collapse: {r100}/s at 100 vs {r1000}/s at 1000"
        );
    }

    #[test]
    fn srun_zero_tasks() {
        assert_eq!(SrunModel::calibrated().dispatch_time(0), 0.0);
        assert_eq!(SrunModel::calibrated().dispatch_rate(0), 0.0);
    }

    #[test]
    fn observed_dispatch_reports_srun_launch_wave() {
        use htpar_telemetry::Recorder;
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let m = SrunModel::calibrated();
        let observed = m.dispatch_observed(128, &bus);
        assert_eq!(observed, m.dispatch_time(128));
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            Event::Launch {
                method: LaunchMethod::Srun,
                tasks: 128
            }
        ));
    }
}
