//! Concurrency stress for the sharded dispatch path (satellite of the
//! sharded-dispatch PR).
//!
//! 50 seeded iterations run the same chaotic workload twice — once at
//! `-j 256` with a mid-run kill-and-resume, once single-threaded start
//! to finish — and assert the two agree task by task. The chaos draws
//! are keyed per `(seq, attempt)` (`ChaosExecutor::seeded_per_seq`), so
//! any divergence is the dispatch path's fault: a dropped chunk, a
//! double-claimed input, a completion lost between worker and joblog,
//! or retry accounting that depends on interleaving.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use htpar_core::chaos::ChaosExecutor;
use htpar_core::joblog;
use htpar_core::prelude::*;
use htpar_integration_tests::TestDir;

const TASKS: usize = 400;
const P_FAIL: f64 = 0.2;
const RETRIES: u32 = 3;
const ITERATIONS: u64 = 50;
const STRESS_JOBS: usize = 256;

fn chaotic(seed: u64) -> ChaosExecutor {
    ChaosExecutor::seeded_per_seq(FnExecutor::noop(), P_FAIL, seed)
}

/// A run's counts plus every result its callback received, in the
/// order the engine handed them on.
struct Run {
    report: RunReport,
    results: Vec<JobResult>,
}

fn run(seed: u64, jobs: usize, log: &Path, resume: bool, tasks: usize) -> Run {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let builder = Parallel::new("t {}")
        .jobs(jobs)
        .retries(RETRIES)
        .keep_order(true)
        .joblog(log)
        .executor(chaotic(seed))
        .on_result(move |r| seen2.lock().unwrap().push(r.clone()))
        .args((0..tasks).map(|i| i.to_string()));
    let builder = if resume { builder.resume() } else { builder };
    let report = builder.run().expect("stress run");
    let results = std::mem::take(&mut *seen.lock().unwrap());
    Run { report, results }
}

/// Deterministic projection of a run: seq -> (succeeded, tries), taken
/// from the delivered results. Timestamps and runtimes are excluded —
/// they legitimately differ between runs.
fn outcomes(runs: &[&Run]) -> BTreeMap<u64, (bool, u32)> {
    let mut map = BTreeMap::new();
    for run in runs {
        for r in &run.results {
            // Resume passes report already-logged tasks as skipped with
            // no attempt made; only executed tasks carry an outcome.
            if r.status != JobStatus::Skipped {
                map.insert(r.seq, (r.status == JobStatus::Success, r.tries));
            }
        }
    }
    map
}

/// Deterministic projection of a joblog: seq -> exit value of the last
/// entry for that seq (resume appends, so later entries win).
fn logged(log: &Path) -> BTreeMap<u64, i32> {
    let entries = joblog::read_log(log).expect("readable joblog");
    let mut map = BTreeMap::new();
    for e in &entries {
        map.insert(e.seq, e.exitval);
    }
    map
}

#[test]
fn parallel_kill_resume_matches_single_threaded_reference() {
    let dir = TestDir::new("dispatch-stress");
    for seed in 0..ITERATIONS {
        // Reference: single-threaded, uninterrupted.
        let ref_log = dir.path(&format!("ref-{seed}.joblog"));
        let reference = run(seed, 1, &ref_log, false, TASKS);
        assert_eq!(reference.report.jobs_total, TASKS as u64, "seed {seed}");

        // Stress: -j 256, killed after a seed-dependent prefix of the
        // input (simulating a worker box dying mid-run), then resumed
        // over the full input with the joblog deciding what already ran.
        let stress_log = dir.path(&format!("stress-{seed}.joblog"));
        let kill_after = 50 + (seed as usize * 37) % (TASKS - 100);
        let pass1 = run(seed, STRESS_JOBS, &stress_log, false, kill_after);
        let pass2 = run(seed, STRESS_JOBS, &stress_log, true, TASKS);

        // RunReport totals across kill+resume equal the reference's.
        let (r1, r2, rr) = (&pass1.report, &pass2.report, &reference.report);
        assert_eq!(
            r1.succeeded + r2.succeeded,
            rr.succeeded,
            "seed {seed}: succeeded diverged"
        );
        assert_eq!(
            r1.failed + r2.failed,
            rr.failed,
            "seed {seed}: failed diverged"
        );
        assert_eq!(r2.jobs_total, TASKS as u64, "seed {seed}");
        assert_eq!(
            r2.skipped, r1.jobs_total,
            "seed {seed}: resume must skip exactly the killed run's completions"
        );

        // Task-by-task: same per-seq outcome and same retry count.
        assert_eq!(
            outcomes(&[&pass1, &pass2]),
            outcomes(&[&reference]),
            "seed {seed}: per-task outcomes diverged"
        );

        // Joblog entries agree with the reference joblog per seq.
        assert_eq!(
            logged(&stress_log),
            logged(&ref_log),
            "seed {seed}: joblog diverged"
        );

        // keep_order holds under contention: results arrive seq-sorted.
        for run in [&reference, &pass1, &pass2] {
            let seqs: Vec<u64> = run.results.iter().map(|r| r.seq).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "seed {seed}: keep_order violated");
        }
    }
}
