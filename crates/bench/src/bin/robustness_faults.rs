//! Seeded fault-injection campaign: does the failure-resilient driver
//! hold the exactly-once invariant, and what does recovery cost?
//!
//! For each (seed, scenario) the campaign runs the weak-scaling workload
//! with injected node crashes / stragglers / NVMe write failures, checks
//! the joblog covers every task exactly once (panicking on violation —
//! this binary doubles as a CI gate), and reports recovery overhead
//! against the same-seed no-fault baseline plus the WMS restart cost for
//! the same loss.
//!
//! Pass `--jsonl PATH` to also write one machine-readable record per run.
//!
//! `--full-scale` replaces the campaign with one whole-machine run:
//! 9,408 nodes × 128 tasks (1.2 M tasks) under the calibrated fault
//! rates — ~1,400 node crashes recovered by the listing-1 + `--resume`
//! driver, with the exactly-once invariant checked over the full
//! joblog. Only tractable on the calendar-queue event core. It also
//! prints the process's peak resident memory (`VmHWM`).

use std::io::Write;

use htpar_bench::{header, preamble, row};
use htpar_cluster::faults::run_resilient;
use htpar_cluster::weak_scaling::WeakScalingConfig;
use htpar_cluster::FaultConfig;
use htpar_wms::compare::wms_restart_overhead_secs;
use htpar_wms::WmsConfig;
use serde_json::json;

fn scenario(name: &'static str, seed: u64) -> FaultConfig {
    let base = FaultConfig::calibrated(seed);
    match name {
        "crash-only" => FaultConfig {
            straggler_rate: 0.0,
            nvme_fault_rate: 0.0,
            ..base
        },
        "crash+straggler" => FaultConfig {
            nvme_fault_rate: 0.0,
            ..base
        },
        "heavy" => FaultConfig {
            crash_rate: 0.35,
            straggler_rate: 0.25,
            nvme_fault_rate: 0.15,
            ..base
        },
        _ => base,
    }
}

/// The whole-machine fault-recovery run (9,408 nodes × 128 tasks).
fn full_scale(jsonl: &mut Option<std::fs::File>) {
    let seed = 2024u64;
    let mut config = WeakScalingConfig::frontier(9_408, seed);
    config.tasks_per_node = 128;
    config.jobs_per_node = 128;
    let faults = FaultConfig::calibrated(seed);
    println!(
        "full-scale: {} nodes x {} tasks/node = {} tasks, calibrated faults (seed {seed})",
        config.nodes,
        config.tasks_per_node,
        config.nodes as u64 * config.tasks_per_node as u64,
    );

    let started = std::time::Instant::now();
    let result = run_resilient(&config, &faults);
    let wall = started.elapsed().as_secs_f64();
    if let Err(violation) = result.verify_exactly_once() {
        panic!("full-scale: exactly-once violated: {violation}");
    }
    println!(
        "  {} nodes down, {} tasks requeued, recovery overhead {:.1}s over a {:.1}s baseline",
        result.nodes_failed.len(),
        result.tasks_requeued,
        result.recovery_overhead_secs(),
        result.baseline_makespan_secs,
    );
    println!(
        "  {} joblog rows verified exactly-once in {wall:.2}s wall ({:.0}k tasks/s)",
        result.joblog.len(),
        result.tasks_total as f64 / wall / 1e3,
    );
    if let Some(kib) = peak_rss_kib() {
        println!("  peak RSS {:.1} MiB (VmHWM)", kib as f64 / 1024.0);
    }
    if let Some(file) = &mut *jsonl {
        let record = json!({
            "seed": seed,
            "scenario": "full-scale",
            "nodes": (config.nodes),
            "tasks_total": (result.tasks_total),
            "nodes_down": (result.nodes_failed.len()),
            "tasks_requeued": (result.tasks_requeued),
            "makespan_secs": (result.makespan_secs),
            "baseline_makespan_secs": (result.baseline_makespan_secs),
            "recovery_overhead_secs": (result.recovery_overhead_secs()),
            "wall_secs": wall,
            "exactly_once": true,
        });
        let line = serde_json::to_string(&record);
        writeln!(file, "{line}").expect("write jsonl record");
    }
}

/// This process's peak resident memory in KiB: `VmHWM` in
/// `/proc/self/status`, `None` without procfs.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    preamble(
        "Robustness — seeded node-failure campaign",
        "every task runs exactly once through crash recovery, for every seed",
    );

    let mut jsonl: Option<std::fs::File> = None;
    let mut want_full_scale = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--jsonl" {
            let path = argv.next().expect("--jsonl requires a path");
            jsonl = Some(std::fs::File::create(&path).expect("create jsonl file"));
        } else if arg == "--full-scale" {
            want_full_scale = true;
        }
    }
    if want_full_scale {
        full_scale(&mut jsonl);
        return;
    }

    let seeds: Vec<u64> = (0..6).map(|i| 2024 + i * 101).collect();
    let scenarios = ["crash-only", "crash+straggler", "heavy"];
    // Small enough to run in CI seconds, big enough that a crash costs
    // a whole shard: 12 nodes × 32 tasks.
    let nodes = 12u32;

    let widths = [8, 16, 6, 9, 11, 11, 9];
    println!(
        "{}",
        header(
            &[
                "seed",
                "scenario",
                "down",
                "requeued",
                "overhead_s",
                "wms_rst_s",
                "exact1"
            ],
            &widths
        )
    );

    let wms_cfg = WmsConfig::swift_t_like();
    let mut worst_overhead: f64 = 0.0;
    let mut total_down = 0usize;
    for &seed in &seeds {
        for name in scenarios {
            let mut config = WeakScalingConfig::frontier(nodes, seed);
            config.tasks_per_node = 32;
            config.jobs_per_node = 32;
            let faults = scenario(name, seed);
            let result = run_resilient(&config, &faults);
            if let Err(violation) = result.verify_exactly_once() {
                panic!("seed {seed} scenario {name}: exactly-once violated: {violation}");
            }
            let overhead = result.recovery_overhead_secs();
            let wms_restart = if result.tasks_requeued > 0 {
                wms_restart_overhead_secs(result.tasks_requeued, result.tasks_total, &wms_cfg)
            } else {
                0.0
            };
            worst_overhead = worst_overhead.max(overhead);
            total_down += result.nodes_failed.len();
            println!(
                "{}",
                row(
                    &[
                        format!("{seed}"),
                        name.to_string(),
                        format!("{}", result.nodes_failed.len()),
                        format!("{}", result.tasks_requeued),
                        format!("{overhead:.1}"),
                        format!("{wms_restart:.1}"),
                        "yes".to_string(),
                    ],
                    &widths
                )
            );
            if let Some(file) = &mut jsonl {
                let record = json!({
                    "seed": seed,
                    "scenario": name,
                    "nodes": nodes,
                    "tasks_total": (result.tasks_total),
                    "nodes_down": (result.nodes_failed.len()),
                    "tasks_requeued": (result.tasks_requeued),
                    "makespan_secs": (result.makespan_secs),
                    "baseline_makespan_secs": (result.baseline_makespan_secs),
                    "recovery_overhead_secs": overhead,
                    "wms_restart_secs": wms_restart,
                    "exactly_once": true,
                });
                let line = serde_json::to_string(&record);
                writeln!(file, "{line}").expect("write jsonl record");
            }
        }
    }
    println!(
        "  {} runs, {total_down} node crashes injected, worst recovery overhead {worst_overhead:.1}s — exactly-once held everywhere",
        seeds.len() * scenarios.len(),
    );
}
