//! Fig. 1 regenerator: weak scaling on simulated Frontier.
//!
//! Paper: "Each node executed 128 parallel instances of a simple bash
//! script... Half of the processes completed in less than a minute, and
//! 75% completed in less than two minutes with 8,000 nodes. Greater
//! variance was observed in 9,000-node runs due to outlier nodes...
//! the maximum execution time for 9,000 nodes (1.152 million tasks) is
//! 561 seconds."
//!
//! `--full-scale` additionally executes the whole-machine run (9,408
//! Frontier nodes, 1.2 M tasks — beyond the paper's 9,000-node /
//! 1.152 M-task largest run) through the event-driven simulator the
//! fault campaign runs (`htpar_cluster::faults`, with an empty fault
//! plan), cross-checks it against the analytic schedule draw for draw,
//! and reports the engine's event throughput. This is the workload the
//! calendar-queue event core exists for; it panics on any mismatch, so
//! it doubles as a CI gate.

use std::sync::Arc;

use htpar_bench::{header, preamble, row};
use htpar_cluster::faults::{run_with_plan, FaultPlan};
use htpar_cluster::weak_scaling::{run, WeakScalingConfig};
use htpar_telemetry::{EventBus, MetricsRegistry};

/// All 74 cabinets of Frontier: the full machine, not just the paper's
/// largest 9,000-node job.
const FULL_SCALE_NODES: u32 = 9_408;

fn full_scale(seed: u64) {
    let config = WeakScalingConfig::frontier(FULL_SCALE_NODES, seed);
    println!(
        "full-scale: {} nodes x {} tasks/node = {} tasks (event-driven, seed {seed})",
        config.nodes,
        config.tasks_per_node,
        config.nodes as u64 * config.tasks_per_node as u64,
    );
    let analytic = run(&config);
    let analytic_makespan = analytic.makespan_secs;
    // No crash, so no detection delay is ever paid.
    let simulate = |bus| run_with_plan(&config, &FaultPlan::default(), 0.0, analytic_makespan, bus);

    // Timed bare run: no telemetry, pure engine throughput.
    let started = std::time::Instant::now();
    let bare = simulate(None);
    let wall = started.elapsed().as_secs_f64();
    if let Err(violation) = bare.verify_exactly_once() {
        panic!("full-scale: exactly-once violated: {violation}");
    }

    // Cross-check the event-driven execution against the closed-form
    // schedule, draw for draw (the analytic path is node-major, the
    // simulator interleaves nodes; compare as sorted multisets).
    {
        let mut expected = analytic.task_completion_secs;
        expected.sort_by(f64::total_cmp);
        let simulated = bare.task_completion_secs();
        assert_eq!(expected.len(), simulated.len());
        for (i, (a, d)) in expected.iter().zip(&simulated).enumerate() {
            assert!(
                (a - d).abs() < 1e-3,
                "completion #{i}: analytic {a} vs simulated {d}"
            );
        }
        assert!(
            (analytic_makespan - bare.makespan_secs).abs() < 1e-3,
            "makespan: analytic {analytic_makespan} vs simulated {}",
            bare.makespan_secs
        );
    }

    // Observed run: counts fired events and proves the telemetry path
    // holds up at full scale without perturbing results.
    let bus = EventBus::shared();
    let metrics = MetricsRegistry::shared();
    bus.attach(metrics.clone());
    let observed = simulate(Some(Arc::clone(&bus)));
    let fired = metrics.counter("sim_event_fired");
    assert_eq!(
        bare.joblog, observed.joblog,
        "telemetry must not perturb the run"
    );

    println!(
        "  {} events fired in {wall:.2}s wall = {:.1}M events/s; makespan {:.1}s (analytic {:.1}s)",
        fired,
        fired as f64 / wall / 1e6,
        bare.makespan_secs,
        analytic_makespan
    );
    println!("  cross-check: event-driven == analytic schedule draw for draw (1.2M tasks)");
}

fn main() {
    let mut seed: u64 = 2024;
    let mut want_full_scale = false;
    for arg in std::env::args().skip(1) {
        if arg == "--full-scale" {
            want_full_scale = true;
        } else if let Ok(s) = arg.parse() {
            seed = s;
        }
    }
    preamble(
        "Fig. 1 — weak scaling on Frontier (simulated)",
        "linear medians; 8k nodes: median <60s, q3 <120s; 9k nodes max ~561s",
    );
    let widths = [6, 10, 9, 9, 9, 9, 9, 11];
    println!(
        "{}",
        header(
            &[
                "nodes",
                "tasks",
                "min_s",
                "q1_s",
                "med_s",
                "q3_s",
                "max_s",
                "makespan_s"
            ],
            &widths
        )
    );
    let mut rows = Vec::new();
    for nodes in (1..=9).map(|k| k * 1000) {
        let result = run(&WeakScalingConfig::frontier(nodes, seed));
        let s = result.task_summary();
        println!(
            "{}",
            row(
                &[
                    format!("{nodes}"),
                    format!("{}", result.tasks_total),
                    format!("{:.1}", s.min),
                    format!("{:.1}", s.q1),
                    format!("{:.1}", s.median),
                    format!("{:.1}", s.q3),
                    format!("{:.1}", s.max),
                    format!("{:.1}", result.makespan_secs),
                ],
                &widths
            )
        );
        rows.push((nodes, s, result.makespan_secs));
    }
    println!();
    let (_, s8k, _) = rows[7];
    let (_, _, mk9k) = rows[8];
    println!("checks:");
    println!(
        "  8,000 nodes: median {:.1}s (<60 expected), q3 {:.1}s (<120 expected)",
        s8k.median, s8k.q3
    );
    println!("  9,000 nodes: makespan {:.1}s (paper: 561s)", mk9k);
    if want_full_scale {
        println!();
        full_scale(seed);
    }
}
