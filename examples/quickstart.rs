//! Quickstart: the library equivalent of
//!
//! ```text
//! parallel -j4 -k gzip --best {} ::: *.log        # shell idiom
//! ```
//!
//! showing both real-process execution and in-process executors, plus
//! the replacement strings, keep-order output, and the job log.

use htpar_core::prelude::*;

fn main() -> Result<()> {
    // 1. Real processes: `echo` over three inputs, two slots, ordered
    //    output. This is `parallel -j2 -k echo hello-{} ::: a b c`.
    //    Each job's output is printed as it finishes, as GNU Parallel
    //    does; the report that comes back holds counts only.
    println!("-- real processes --");
    let report = Parallel::new("echo hello-{}")
        .jobs(2)
        .keep_order(true)
        .args(["a", "b", "c"])
        .on_result(|result| {
            print!(
                "seq {} (slot {}): {}",
                result.seq, result.slot, result.stdout
            )
        })
        .run()?;
    println!(
        "{} jobs, {} ok, wall {:?}, {:.0} launches/s",
        report.jobs_total, report.succeeded, report.wall, report.launch_rate
    );

    // 2. Replacement strings: path operations on file-name arguments,
    //    dry-run so nothing executes.
    println!("\n-- replacement strings (dry run) --");
    Parallel::new("convert {} thumbs/{/.}.png # from {//}")
        .dry_run(true)
        .keep_order(true)
        .args(["shots/alpha.jpg", "shots/beta.jpg"])
        .on_result(|r| print!("{}", r.stdout))
        .run()?;

    // 3. In-process executor: no fork/exec, just the scheduling engine —
    //    the mode the simulators and tests use.
    println!("\n-- in-process executor --");
    Parallel::new("task {#} of slot {%}: {}")
        .jobs(4)
        .keep_order(true)
        .executor(FnExecutor::new(|cmd| {
            Ok(TaskOutput::stdout(format!("[ran] {}\n", cmd.rendered())))
        }))
        .args((1..=6).map(|i| format!("input{i}")))
        .on_result(|r| print!("{}", r.stdout))
        .run()?;

    // 4. Cartesian product of input sources: the §IV-B Darshan grid,
    //    `parallel ... ::: {1..12} ::: {0..2}` — 36 jobs.
    println!("\n-- input products --");
    let report = Parallel::new("darshan_arch.py {1} {2}")
        .dry_run(true)
        .args((1..=12).map(|m| m.to_string()))
        .args((0..=2).map(|a| a.to_string()))
        .run()?;
    println!("product of 12 months x 3 apps = {} jobs", report.jobs_total);

    Ok(())
}
