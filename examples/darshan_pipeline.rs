//! §IV-B — massive Darshan log processing.
//!
//! Two pieces from the paper:
//!
//! 1. The **invocation** (listing 5): `parallel -j36 python3
//!    darshan_arch.py ::: {1..12} ::: {0..2}` — a 12×3 product of
//!    (month, app) tasks. Here each task parses and aggregates a real
//!    slice of synthetic Darshan logs.
//! 2. The **staged NVMe prefetch pipeline** (Fig. 7): process dataset
//!    *i* while copying *i+1* and deleting *i−1*; 358 min vs 430 min.
//!    Shown twice: as the stage-barrier plan, and as a dependency DAG
//!    executed through `htpar_core::dag` (the `htpar dag` grammar).
//!
//! `--emit-dag PATH` regenerates `examples/prefetch_pipeline.dag`, the
//! shipped copy of the DAG form (run it with `htpar dag PATH`).

use std::sync::Arc;

use htpar_core::dag::{DagRunner, DagSpec};
use htpar_core::prelude::*;
use htpar_storage::staging::PrefetchPipeline;
use htpar_workloads::darshan::{generate_archive_slice, DarshanLog, IoSummary};

/// Minutes→milliseconds when the ops become real `sleep`s: the 358 min
/// critical path replays in 358 ms.
const DAG_SECS_SCALE: f64 = 1.0 / 60_000.0;

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--emit-dag") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("examples/prefetch_pipeline.dag");
        let spec = PrefetchPipeline::darshan_paper().dag_spec(5, DAG_SECS_SCALE);
        std::fs::write(path, &spec).map_err(Error::from)?;
        println!(
            "wrote {path} ({} lines); run it with: htpar dag {path}",
            spec.lines().count()
        );
        return Ok(());
    }
    // ---- listing 5: the 36-way aggregation ----
    let apps = ["gromacs", "lammps", "vasp"];
    println!("processing the month x app grid (12 x 3 = 36 tasks, -j36):");
    let report = Parallel::new("python3 ./darshan_arch.py {1} {2}")
        .jobs(36)
        .keep_order(true)
        .executor(FnExecutor::new(move |cmd| {
            let month: u32 = cmd.args[0].parse().map_err(|e| format!("month: {e}"))?;
            let app_idx: usize = cmd.args[1].parse().map_err(|e| format!("app: {e}"))?;
            let app = apps[app_idx % apps.len()];
            // Generate + serialize + re-parse + aggregate: the real data
            // path a darshan-parser-based script walks.
            let logs = generate_archive_slice(2024, month, app, 200);
            let mut summary = IoSummary::default();
            for log in &logs {
                let reparsed = DarshanLog::parse(&log.to_text()).map_err(|e| e.to_string())?;
                summary.add(&reparsed);
            }
            Ok(TaskOutput::stdout(format!(
                "month {month:>2} {app:<8} jobs {} read {:>6.1} TiB written {:>5.1} TiB opens {}\n",
                summary.jobs,
                summary.bytes_read as f64 / (1u64 << 40) as f64,
                summary.bytes_written as f64 / (1u64 << 40) as f64,
                summary.opens,
            )))
        }))
        .args((1..=12).map(|m| m.to_string()))
        .args((0..=2).map(|a| a.to_string()))
        .on_result(|r| print!("{}", r.stdout))
        .run()?;
    println!(
        "{} aggregation tasks, wall {:?}\n",
        report.jobs_total, report.wall
    );

    // ---- Fig. 7: the prefetch pipeline schedule ----
    println!("staged NVMe prefetch pipeline over 5 datasets:");
    let plan = PrefetchPipeline::darshan_paper().plan(5);
    for (i, stage) in plan.stages.iter().enumerate() {
        println!(
            "  stage {}: {} concurrent ops, {:.0} min",
            i + 1,
            stage.ops.len(),
            stage.duration_secs / 60.0
        );
    }
    println!(
        "  pipelined {:.0} min vs all-Lustre {:.0} min -> {:.1}% faster (paper: 358 vs 430, 17%)",
        plan.total_secs / 60.0,
        plan.baseline_secs / 60.0,
        plan.improvement() * 100.0
    );

    // ---- the same pipeline as a dependency DAG ----
    // Barriers become edges: proc_i waits on (copy_i, proc_{i-1}) only,
    // so the copy stream runs ahead of the compute chain.
    let pipeline = PrefetchPipeline::darshan_paper();
    let spec_text = pipeline.dag_spec(5, DAG_SECS_SCALE);
    let dag = DagSpec::parse(&spec_text)?.build()?;
    println!(
        "\nsame pipeline as a DAG ({} ops; grammar: `htpar dag`):",
        dag.len()
    );
    for line in spec_text.lines().filter(|l| !l.starts_with('#')).take(4) {
        println!("  {line}");
    }
    println!("  ...");
    let report = DagRunner {
        options: Options {
            jobs: 3, // one slot each for the proc, copy, and delete streams
            ..Options::default()
        },
        executor: Arc::new(FnExecutor::noop()),
        bus: None,
    }
    .run(&dag)?;
    assert!(report.all_succeeded());
    println!(
        "  executed {} ops in dependency order ({} failed, {} skipped)",
        report.total, report.failed, report.skipped_dep_failed
    );
    println!(
        "  DAG critical path {:.0} min (= barrier plan here: processing dominates the copies)",
        pipeline.dag_makespan_secs(5) / 60.0
    );
    Ok(())
}
