//! Failure-injection integration tests: retries, halt policies, joblog
//! resume, and the progress tracker cooperating under an unreliable
//! executor — the operational story behind Fig. 5's "reliability issues
//! were observed at larger scales".

use std::sync::Arc;

use htpar_core::chaos::ChaosExecutor;
use htpar_core::halt::{HaltPolicy, HaltWhen};
use htpar_core::prelude::*;
use htpar_integration_tests::TestDir;

#[test]
fn retries_plus_resume_failed_eventually_complete_everything() {
    let dir = TestDir::new("chaos-resume");
    let log = dir.path("chaos.joblog");

    // Pass 1: 25 % injected failures, no retries.
    let report = Parallel::new("t {}")
        .jobs(4)
        .joblog(&log)
        .executor(ChaosExecutor::new(FnExecutor::noop(), 0.25, 1))
        .args((0..200).map(|i| i.to_string()))
        .run()
        .unwrap();
    let first_failed = report.failed;
    assert!(first_failed > 20, "chaos bit: {first_failed}");

    // Pass 2..: resume-failed with retries until clean (bounded).
    let mut pass = 0;
    loop {
        pass += 1;
        assert!(pass <= 6, "did not converge");
        let report = Parallel::new("t {}")
            .jobs(4)
            .joblog(&log)
            .resume_failed()
            .retries(3)
            .executor(ChaosExecutor::new(FnExecutor::noop(), 0.25, 1 + pass))
            .args((0..200).map(|i| i.to_string()))
            .run()
            .unwrap();
        if report.failed == 0 {
            // Everything either skipped (already done) or succeeded now.
            assert_eq!(report.skipped + report.succeeded, 200);
            break;
        }
    }

    // The joblog's union of successes covers every sequence number.
    let entries = htpar_core::joblog::read_log(&log).unwrap();
    let ok = htpar_core::joblog::successful_seqs(&entries);
    assert_eq!(ok.len(), 200);
}

#[test]
fn halt_soon_fires_under_chaos_storm() {
    // 90 % failure rate and a fail=10 halt: the run must stop early.
    let report = Parallel::new("t {}")
        .jobs(4)
        .halt(HaltPolicy::fail_count(10, HaltWhen::Soon))
        .executor(ChaosExecutor::new(FnExecutor::noop(), 0.9, 5))
        .args((0..10_000).map(|i| i.to_string()))
        .run()
        .unwrap();
    assert!(report.halted.is_some());
    assert!(
        report.jobs_total < 200,
        "stopped quickly: {}",
        report.jobs_total
    );
}

#[test]
fn progress_tracker_accounts_chaos_outcomes_exactly() {
    let progress = Arc::new(Progress::with_total(500));
    let p2 = Arc::clone(&progress);
    let report = Parallel::new("t {}")
        .jobs(4)
        .executor(ChaosExecutor::new(FnExecutor::noop(), 0.2, 9))
        .on_result(move |r| p2.record(r))
        .args((0..500).map(|i| i.to_string()))
        .run()
        .unwrap();
    let snap = progress.snapshot();
    assert_eq!(snap.completed, 500);
    assert_eq!(snap.succeeded, report.succeeded);
    assert_eq!(snap.failed, report.failed);
    assert_eq!(snap.eta, Some(std::time::Duration::ZERO));
    let line = snap.render();
    assert!(line.contains("500/500 done"), "{line}");
}

#[test]
fn report_counts_always_sum_under_chaos() {
    for seed in 0..5 {
        let report = Parallel::new("t {}")
            .jobs(3)
            .retries(1)
            .executor(ChaosExecutor::new(FnExecutor::noop(), 0.4, seed))
            .args((0..300).map(|i| i.to_string()))
            .run()
            .unwrap();
        assert_eq!(
            report.succeeded + report.failed + report.skipped,
            report.jobs_total,
            "seed {seed}"
        );
        assert_eq!(
            report.jobs_total, 300,
            "seed {seed}: every input accounted for"
        );
    }
}
