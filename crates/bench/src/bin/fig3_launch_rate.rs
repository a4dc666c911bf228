//! Fig. 3 regenerator: maximum tasks launched per second.
//!
//! Paper (Perlmutter CPU node): a single GNU Parallel instance launches
//! ~470 processes/s; multiple instances raise the aggregate to ~6,400/s;
//! full 256-thread utilization therefore needs tasks ≥545 ms (single
//! instance) or ≥40 ms (multiple).
//!
//! Two parts:
//! 1. the calibrated Perlmutter model (the paper's numbers);
//! 2. a **real measurement** on this machine — our engine dispatching
//!    actual `/bin/true` processes and in-process no-ops — to show the
//!    same shape (single-instance serialization, multi-instance scaling
//!    to a node ceiling) with this host's absolute numbers.
//!
//! Pass `--jsonl PATH` to also write the machine-readable launch
//! trajectory (one telemetry event per line, schema in DESIGN.md) so
//! plots can consume the run directly.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use htpar_bench::{gate, harness, header, preamble, row};
use htpar_cluster::LaunchModel;
use htpar_core::prelude::*;
use htpar_core::stats::RateMeter;
use htpar_telemetry::{EventBus, JsonlWriter, MetricsRegistry};

fn model_sweep() {
    let model = LaunchModel::paper_calibrated();
    let widths = [10, 14, 22];
    println!(
        "{}",
        header(
            &["instances", "launch_rate/s", "min_task_full_util_ms"],
            &widths
        )
    );
    for instances in [1u32, 2, 4, 8, 13, 16, 32, 64] {
        let rate = model.aggregate_rate(instances);
        let floor_ms = LaunchModel::min_task_secs_for_utilization(256, rate) * 1e3;
        println!(
            "{}",
            row(
                &[
                    format!("{instances}"),
                    format!("{rate:.0}"),
                    format!("{floor_ms:.0}"),
                ],
                &widths
            )
        );
    }
    println!();
    println!("checks:");
    println!(
        "  1 instance: {:.0}/s (paper: 470/s), task floor {:.0} ms (paper: 545 ms)",
        model.aggregate_rate(1),
        LaunchModel::min_task_secs_for_utilization(256, model.aggregate_rate(1)) * 1e3
    );
    println!(
        "  many instances: {:.0}/s (paper: 6,400/s), task floor {:.0} ms (paper: 40 ms)",
        model.aggregate_rate(64),
        LaunchModel::min_task_secs_for_utilization(256, model.aggregate_rate(64)) * 1e3
    );
}

fn measure(instances: usize, tasks_per_instance: usize, real_processes: bool) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..instances {
            scope.spawn(move || {
                let builder = Parallel::new("true")
                    .jobs(16)
                    .args((0..tasks_per_instance).map(|i| i.to_string()));
                let builder = if real_processes {
                    builder.shell(false)
                } else {
                    builder.executor(FnExecutor::noop())
                };
                builder.run().expect("launch sweep run");
            });
        }
    });
    (instances * tasks_per_instance) as f64 / started.elapsed().as_secs_f64()
}

fn real_sweep() {
    println!("real measurement on this host (our engine):");
    let widths = [10, 20, 20];
    println!(
        "{}",
        header(&["instances", "fork_exec_rate/s", "inproc_rate/s"], &widths)
    );
    let per_instance = 1500usize;
    let mut single_fork = 0.0;
    let mut best_fork: f64 = 0.0;
    for instances in [1usize, 2, 4, 8] {
        let fork_rate = measure(instances, per_instance, true);
        let noop_rate = measure(instances, per_instance * 20, false);
        if instances == 1 {
            single_fork = fork_rate;
        }
        best_fork = best_fork.max(fork_rate);
        println!(
            "{}",
            row(
                &[
                    format!("{instances}"),
                    format!("{fork_rate:.0}"),
                    format!("{noop_rate:.0}"),
                ],
                &widths
            )
        );
    }
    println!();
    println!(
        "  shape check: multi-instance fork rate {:.1}x single-instance (paper's ratio: ~13.6x)",
        best_fork / single_fork
    );
}

/// Laptop scale of the Fig. 3 acceptance run: `-j 64`, 100k in-process
/// no-ops, observed by a [`MetricsRegistry`] on the bus — the same
/// measurement core as the launch gate, at 10x its task count. One
/// JSONL record per trial lands in the `--jsonl` file, so before/after
/// engine comparisons (`BENCH_fig3_launch_rate.json`) are reproducible
/// with this binary alone.
fn laptop_scale_sweep(out: Option<&mut dyn Write>) {
    const JOBS: usize = 64;
    const TASKS: u64 = 100_000;
    const TRIALS: usize = 3;
    let engine = std::env::var("HTPAR_FIG3_ENGINE").unwrap_or_else(|_| "current".into());
    println!("laptop-scale dispatch ({TASKS} in-process no-ops at -j {JOBS}, bus-observed):");
    let mut lines = Vec::new();
    for trial in 1..=TRIALS {
        let (wall, sustained) = gate::measure(JOBS, TASKS, true, None);
        let sustained = sustained.unwrap_or(0.0);
        let tasks_per_sec = harness::rate(TASKS, wall);
        println!(
            "  trial {trial}: {tasks_per_sec:>9.0} tasks/s wall-clock   {sustained:>9.0}/s sustained (bus)"
        );
        lines.push(format!(
            "{{\"bench\":\"fig3_laptop_scale\",\"engine\":\"{engine}\",\"jobs\":{JOBS},\"tasks\":{TASKS},\"trial\":{trial},\"wall_secs\":{:.6},\"tasks_per_sec\":{tasks_per_sec:.0},\"launch_rate_sustained\":{sustained:.0}}}",
            wall.as_secs_f64(),
        ));
    }
    if let Some(out) = out {
        for line in &lines {
            writeln!(out, "{line}").expect("write laptop-scale record");
        }
    }
}

/// Run one instrumented dispatch sweep with the legacy `RateMeter` and
/// the telemetry `MetricsRegistry` observing the same launches, and
/// (optionally) a JSONL trajectory on disk. The two rate estimates must
/// agree — the registry is a view over the bus, not a new definition.
fn telemetry_sweep(trajectory: Option<Arc<JsonlWriter>>) {
    let bus = EventBus::shared();
    let metrics = MetricsRegistry::shared();
    bus.attach(metrics.clone());
    let has_trajectory = trajectory.is_some();
    if let Some(writer) = trajectory {
        bus.attach(writer);
    }

    // The legacy meter stamps from inside the executor — the pre-bus
    // instrumentation point — while the registry stamps `spawned` events
    // off the bus. Tasks sleep ~1 ms so the run spans a measurable window.
    let meter = Arc::new(RateMeter::new());
    let meter2 = Arc::clone(&meter);
    Parallel::new("noop {}")
        .jobs(4)
        .telemetry(Arc::clone(&bus))
        .executor(FnExecutor::new(move |_| {
            meter2.record();
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(TaskOutput::success())
        }))
        .args((0..400).map(|i| i.to_string()))
        .run()
        .expect("telemetry sweep run");

    let legacy = meter.rate_per_sec().expect("≥2 launches");
    let registry = metrics.launch_rate_sustained().expect("≥2 spawned events");
    let disagreement = (registry - legacy).abs() / legacy;
    println!("telemetry cross-check (400 tasks, 4 slots):");
    println!("  legacy RateMeter:        {legacy:.1} launches/s");
    println!("  bus MetricsRegistry:     {registry:.1} launches/s");
    println!(
        "  disagreement:            {:.3} % (must be < 1 %)",
        disagreement * 100.0
    );
    assert!(
        disagreement < 0.01,
        "registry rate diverged from RateMeter: {registry} vs {legacy}"
    );
    let snap = metrics.snapshot();
    println!(
        "  registry snapshot:       ok={} p50={}us p99={}us",
        snap.ok, snap.runtime.p50, snap.runtime.p99
    );
    if has_trajectory {
        println!("  JSONL trajectory:        appended to --jsonl file");
    }
}

fn main() {
    preamble(
        "Fig. 3 — maximum tasks launched per second",
        "470/s single instance, ~6,400/s aggregate; task floors 545 ms / 40 ms",
    );
    println!("calibrated Perlmutter model:");
    model_sweep();
    println!();
    real_sweep();
    println!();
    let args: Vec<String> = std::env::args().collect();
    let jsonl = args
        .iter()
        .position(|a| a == "--jsonl")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let mut bench_file = jsonl.map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| panic!("fig3: cannot open {path}: {e}"))
    });
    laptop_scale_sweep(bench_file.as_mut().map(|f| f as &mut dyn Write));
    println!();
    let writer = bench_file.map(|f| Arc::new(JsonlWriter::new(Box::new(f))));
    telemetry_sweep(writer.clone());
    if let Some(writer) = writer {
        writer.flush().expect("flush --jsonl file");
    }
    if let Some(path) = jsonl {
        println!("  wrote laptop-scale records + trajectory to {path}");
    }
}
