//! The simulated petabyte transfer over a scheduled DTN cluster
//! (paper §IV-E).
//!
//! Calibration facts from the paper:
//!
//! - 8 DTN nodes × 32 rsync processes = a 256-way transfer;
//! - measured average throughput: **2,385 Mb/s per node** with 32 rsyncs
//!   — i.e. ≈ 75 Mb/s per rsync stream (single-stream rsync over a WAN-ish
//!   path is protocol-limited, not NIC-limited);
//! - **200× speedup over sequential** transfer (one rsync on one node);
//! - **>10× over data transfer protocols used in traditional workflow
//!   systems** (per-task staging through a central data manager).

use htpar_storage::{Dataset, FairShareLink};
use serde::{Deserialize, Serialize};

/// Megabits/second → bytes/second.
pub fn mbps_to_bps(mbps: f64) -> f64 {
    mbps * 1e6 / 8.0
}

/// Bytes/second → megabits/second.
pub fn bps_to_mbps(bps: f64) -> f64 {
    bps * 8.0 / 1e6
}

/// DTN-cluster transfer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtnConfig {
    /// Nodes in the scheduled DTN cluster.
    pub nodes: u32,
    /// Parallel rsync processes per node (`parallel -j32`).
    pub streams_per_node: u32,
    /// Single rsync stream ceiling, bytes/s (protocol-limited).
    pub per_stream_bps: f64,
    /// Node NIC ceiling, bytes/s.
    pub nic_bps: f64,
    /// Fixed cost per file per stream (stat, delta negotiation), seconds.
    pub per_file_secs: f64,
}

impl DtnConfig {
    /// The paper's setup: 8 nodes × 32 streams; 75 Mb/s per stream so
    /// that 32 streams ≈ 2,400 Mb/s ≈ the measured 2,385 Mb/s; 10 GbE
    /// NICs; 5 ms per file.
    pub fn paper_calibrated() -> DtnConfig {
        DtnConfig {
            nodes: 8,
            streams_per_node: 32,
            per_stream_bps: mbps_to_bps(75.0),
            nic_bps: mbps_to_bps(10_000.0),
            per_file_secs: 0.005,
        }
    }
}

/// Which transfer strategy to model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransferBaseline {
    /// One rsync stream on one node.
    Sequential,
    /// A traditional WMS data-staging protocol: transfers funnel through
    /// a central data-management service that adds per-file control
    /// traffic and caps effective parallelism.
    WmsProtocol {
        /// Effective concurrent streams the central service sustains.
        effective_streams: u32,
        /// Control-channel cost added per file, seconds.
        per_file_control_secs: f64,
    },
    /// The paper's method: driver-script sharding + per-node
    /// `parallel -j32 -X rsync`.
    ParallelRsync,
}

impl TransferBaseline {
    /// The WMS-protocol baseline with representative parameters: a
    /// central service that effectively sustains ~20 streams and adds
    /// 50 ms of control traffic per file.
    pub fn wms_default() -> TransferBaseline {
        TransferBaseline::WmsProtocol {
            effective_streams: 20,
            per_file_control_secs: 0.05,
        }
    }
}

/// Result of one modeled transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferOutcome {
    pub strategy: String,
    pub total_bytes: u64,
    pub total_files: u64,
    pub elapsed_secs: f64,
    /// Aggregate achieved throughput, Mb/s.
    pub aggregate_mbps: f64,
    /// Per-node achieved throughput, Mb/s (aggregate / nodes used).
    pub per_node_mbps: f64,
    pub nodes_used: u32,
    pub streams_used: u32,
}

/// Model a transfer of `dataset` under `config` with the given strategy.
pub fn simulate_transfer(
    dataset: &Dataset,
    config: &DtnConfig,
    strategy: TransferBaseline,
) -> TransferOutcome {
    let (nodes, streams_per_node, per_file_extra) = match strategy {
        TransferBaseline::Sequential => (1u32, 1u32, 0.0),
        TransferBaseline::WmsProtocol {
            effective_streams,
            per_file_control_secs,
        } => (1, effective_streams.max(1), per_file_control_secs),
        TransferBaseline::ParallelRsync => (config.nodes, config.streams_per_node, 0.0),
    };

    // Shard files round-robin over nodes (the driver script). Within a
    // node, GNU Parallel dispatches *dynamically*: a stream takes the
    // next file the moment it frees up, which load-balances far better
    // than static assignment. Model that with greedy earliest-free-slot
    // scheduling at the steady-state per-stream rate.
    let node_shards = dataset.shard_round_robin(nodes as usize);
    let nic = FairShareLink::new(config.nic_bps).with_per_flow_cap(config.per_stream_bps);
    let stream_rate = nic.rate_per_flow(streams_per_node as usize);
    let mut node_elapsed = Vec::with_capacity(nodes as usize);
    for shard in &node_shards {
        // Min-heap of stream-free times.
        let mut free: std::collections::BinaryHeap<std::cmp::Reverse<u64>> = (0..streams_per_node)
            .map(|_| std::cmp::Reverse(0u64))
            .collect();
        let mut node_time_us = 0u64;
        for file in shard {
            let std::cmp::Reverse(at_us) = free.pop().expect("streams exist");
            let dur = file.bytes as f64 / stream_rate + config.per_file_secs + per_file_extra;
            let end_us = at_us + (dur * 1e6) as u64;
            node_time_us = node_time_us.max(end_us);
            free.push(std::cmp::Reverse(end_us));
        }
        node_elapsed.push(node_time_us as f64 / 1e6);
    }
    let elapsed_secs = node_elapsed.iter().cloned().fold(0.0, f64::max).max(1e-9);
    let total_bytes = dataset.total_bytes();
    let aggregate_bps = total_bytes as f64 / elapsed_secs;
    TransferOutcome {
        strategy: format!("{strategy:?}"),
        total_bytes,
        total_files: dataset.len() as u64,
        elapsed_secs,
        aggregate_mbps: bps_to_mbps(aggregate_bps),
        per_node_mbps: bps_to_mbps(aggregate_bps / nodes as f64),
        nodes_used: nodes,
        streams_used: nodes * streams_per_node,
    }
}

/// Event-driven execution of the same transfer: every file is an
/// acquire-stream → transfer → release chain on a per-node
/// [`htpar_simkit::Tokens`] pool, with per-node start events batched
/// through [`htpar_simkit::Simulation::schedule_batch`].
///
/// [`simulate_transfer`] collapses the same schedule into a greedy
/// earliest-free-stream loop; the FIFO token queue grants streams in
/// exactly that order, so the two must agree to within the DES clock's
/// microsecond quantization. This cross-validates the fast closed-form
/// path and exercises the event engine at DTN scale (one event chain
/// per file).
pub fn simulate_transfer_des(
    dataset: &Dataset,
    config: &DtnConfig,
    strategy: TransferBaseline,
) -> TransferOutcome {
    use htpar_simkit::{SimTime, Simulation, Tokens};
    use std::rc::Rc;

    let (nodes, streams_per_node, per_file_extra) = match strategy {
        TransferBaseline::Sequential => (1u32, 1u32, 0.0),
        TransferBaseline::WmsProtocol {
            effective_streams,
            per_file_control_secs,
        } => (1, effective_streams.max(1), per_file_control_secs),
        TransferBaseline::ParallelRsync => (config.nodes, config.streams_per_node, 0.0),
    };

    let node_shards = dataset.shard_round_robin(nodes as usize);
    let nic = FairShareLink::new(config.nic_bps).with_per_flow_cap(config.per_stream_bps);
    let stream_rate = nic.rate_per_flow(streams_per_node as usize);

    // World: per-node latest completion time, seconds.
    let peak_events = (nodes * streams_per_node) as usize * 2 + nodes as usize;
    let mut sim = Simulation::with_capacity(vec![0f64; nodes as usize], 0, peak_events);
    let starts = node_shards.iter().enumerate().map(|(node, shard)| {
        let durs: Vec<f64> = shard
            .iter()
            .map(|f| f.bytes as f64 / stream_rate + config.per_file_secs + per_file_extra)
            .collect();
        (SimTime::ZERO, move |sim: &mut Simulation<Vec<f64>>| {
            let slots = Tokens::new(streams_per_node as u64);
            for dur in durs {
                let slots2 = Rc::clone(&slots);
                Tokens::acquire(&slots, sim, 1, move |sim| {
                    sim.schedule_in(SimTime::from_secs_f64(dur), move |sim| {
                        let now = sim.now().as_secs_f64();
                        let last = &mut sim.world_mut()[node];
                        *last = last.max(now);
                        Tokens::release(&slots2, sim, 1);
                    });
                });
            }
        })
    });
    sim.schedule_batch(starts.collect::<Vec<_>>());
    sim.run();
    let node_elapsed = sim.into_world();

    let elapsed_secs = node_elapsed.iter().cloned().fold(0.0, f64::max).max(1e-9);
    let total_bytes = dataset.total_bytes();
    let aggregate_bps = total_bytes as f64 / elapsed_secs;
    TransferOutcome {
        strategy: format!("{strategy:?}"),
        total_bytes,
        total_files: dataset.len() as u64,
        elapsed_secs,
        aggregate_mbps: bps_to_mbps(aggregate_bps),
        per_node_mbps: bps_to_mbps(aggregate_bps / nodes as f64),
        nodes_used: nodes,
        streams_used: nodes * streams_per_node,
    }
}

/// The three-way comparison the paper reports, plus the speedup factors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MotionComparison {
    pub parallel: TransferOutcome,
    pub sequential: TransferOutcome,
    pub wms: TransferOutcome,
}

impl MotionComparison {
    /// Run all three strategies over the same dataset.
    pub fn run(dataset: &Dataset, config: &DtnConfig) -> MotionComparison {
        MotionComparison {
            parallel: simulate_transfer(dataset, config, TransferBaseline::ParallelRsync),
            sequential: simulate_transfer(dataset, config, TransferBaseline::Sequential),
            wms: simulate_transfer(dataset, config, TransferBaseline::wms_default()),
        }
    }

    /// Speedup of parallel rsync over sequential.
    pub fn speedup_vs_sequential(&self) -> f64 {
        self.sequential.elapsed_secs / self.parallel.elapsed_secs
    }

    /// Speedup of parallel rsync over the WMS protocol.
    pub fn speedup_vs_wms(&self) -> f64 {
        self.wms.elapsed_secs / self.parallel.elapsed_secs
    }
}

/// Scale a petabyte-class population down to a tractable file count while
/// preserving the mean file size, so throughput numbers are unchanged and
/// runtimes stay in simulated (not wall-clock) hours.
pub fn representative_population(seed: u64, files: usize, mean_file_bytes: f64) -> Dataset {
    use htpar_simkit::Dist;
    // Lognormal with the requested mean: mean = exp(mu + sigma²/2).
    let sigma = 0.8f64;
    let mu = mean_file_bytes.max(1.0).ln() - sigma * sigma / 2.0;
    Dataset::generate(
        "petabyte-sample",
        "/gpfs/proj/data",
        files,
        &Dist::LogNormal { mu, sigma },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        // 20,000 files averaging 512 MiB ≈ 10 TiB total: big enough that
        // bandwidth dominates per-file cost, small enough to model fast.
        representative_population(7, 20_000, 512.0 * 1024.0 * 1024.0)
    }

    #[test]
    fn unit_conversions() {
        assert!((mbps_to_bps(8.0) - 1e6).abs() < 1e-9);
        assert!((bps_to_mbps(1e6) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn paper_per_node_throughput_band() {
        let out = simulate_transfer(
            &dataset(),
            &DtnConfig::paper_calibrated(),
            TransferBaseline::ParallelRsync,
        );
        // Paper: 2,385 Mb/s per node. End-of-run straggler streams and
        // per-file costs pull 10-20 % below the 32 × 75 = 2,400 ideal;
        // the paper's petabyte campaign amortized that tail away.
        assert!(
            out.per_node_mbps > 1_800.0 && out.per_node_mbps <= 2_400.0,
            "per-node {}",
            out.per_node_mbps
        );
        assert_eq!(out.streams_used, 256);
    }

    #[test]
    fn paper_speedup_factors() {
        let cmp = MotionComparison::run(&dataset(), &DtnConfig::paper_calibrated());
        // "200 speed up over sequential transfers, and over 10 when
        // compared to data transfer protocols used in traditional
        // workflow systems."
        let seq = cmp.speedup_vs_sequential();
        assert!(seq > 150.0 && seq < 300.0, "sequential speedup {seq}");
        let wms = cmp.speedup_vs_wms();
        assert!(wms > 10.0 && wms < 30.0, "wms speedup {wms}");
    }

    #[test]
    fn sequential_is_single_stream_rate() {
        let out = simulate_transfer(
            &dataset(),
            &DtnConfig::paper_calibrated(),
            TransferBaseline::Sequential,
        );
        assert!(
            out.aggregate_mbps <= 75.0 + 1.0,
            "sequential caps at one stream: {}",
            out.aggregate_mbps
        );
        assert_eq!(out.nodes_used, 1);
    }

    #[test]
    fn nic_ceiling_binds_with_many_streams() {
        use htpar_simkit::Dist;
        let mut cfg = DtnConfig::paper_calibrated();
        cfg.streams_per_node = 1024;
        // Uniform-size population so no single file dominates the tail.
        let d = Dataset::generate(
            "uniform",
            "/gpfs",
            200_000,
            &Dist::constant(256.0 * 1024.0 * 1024.0),
            1,
        );
        let out = simulate_transfer(&d, &cfg, TransferBaseline::ParallelRsync);
        // 1024 × 75 Mb/s ≫ 10 GbE: per-node throughput pinned at NIC.
        assert!(out.per_node_mbps <= 10_000.0 + 1.0, "{}", out.per_node_mbps);
        assert!(out.per_node_mbps > 8_000.0, "{}", out.per_node_mbps);
    }

    #[test]
    fn small_files_pay_per_file_costs() {
        // Same bytes, 1000× more files → per-file overhead costs real
        // throughput. The reason `-X` batching and stream parallelism
        // matter. Constant sizes isolate the per-file effect.
        use htpar_simkit::Dist;
        let gib = 1024.0 * 1024.0 * 1024.0;
        let big = Dataset::generate("big", "/g", 2_000, &Dist::constant(gib), 1);
        let small = Dataset::generate("small", "/g", 2_000_000, &Dist::constant(gib / 1000.0), 1);
        let cfg = DtnConfig::paper_calibrated();
        let t_big = simulate_transfer(&big, &cfg, TransferBaseline::ParallelRsync);
        let t_small = simulate_transfer(&small, &cfg, TransferBaseline::ParallelRsync);
        assert!(
            t_small.aggregate_mbps < t_big.aggregate_mbps,
            "{} vs {}",
            t_small.aggregate_mbps,
            t_big.aggregate_mbps
        );
    }

    #[test]
    fn des_execution_matches_the_greedy_model() {
        let cfg = DtnConfig::paper_calibrated();
        let d = dataset();
        for strategy in [
            TransferBaseline::ParallelRsync,
            TransferBaseline::Sequential,
            TransferBaseline::wms_default(),
        ] {
            let greedy = simulate_transfer(&d, &cfg, strategy);
            let des = simulate_transfer_des(&d, &cfg, strategy);
            assert_eq!(greedy.nodes_used, des.nodes_used, "{strategy:?}");
            assert_eq!(greedy.streams_used, des.streams_used, "{strategy:?}");
            // Greedy truncates each file to whole µs, the DES rounds:
            // the drift is bounded by 1 µs per file on one stream chain.
            assert!(
                (greedy.elapsed_secs - des.elapsed_secs).abs() < 0.05,
                "{strategy:?}: greedy {} vs des {}",
                greedy.elapsed_secs,
                des.elapsed_secs
            );
            let rel = (greedy.per_node_mbps - des.per_node_mbps).abs() / greedy.per_node_mbps;
            assert!(rel < 1e-3, "{strategy:?}: throughput drift {rel}");
        }
    }

    #[test]
    fn transfer_is_deterministic() {
        let cfg = DtnConfig::paper_calibrated();
        let a = simulate_transfer(&dataset(), &cfg, TransferBaseline::ParallelRsync);
        let b = simulate_transfer(&dataset(), &cfg, TransferBaseline::ParallelRsync);
        assert_eq!(a, b);
    }

    #[test]
    fn representative_population_hits_mean() {
        let d = representative_population(3, 50_000, 1e6);
        let mean = d.mean_file_bytes();
        assert!((mean - 1e6).abs() / 1e6 < 0.1, "mean {mean}");
    }
}
