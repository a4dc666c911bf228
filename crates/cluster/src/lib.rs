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
//! - [`faults`]: seeded node-crash/straggler/NVMe fault injection on
//!   simulated nodes, recovered by the [`drive`] policy (the dead node's
//!   unlogged lines go to the survivors — the paper's joblog/resume
//!   story).

pub mod des;
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
