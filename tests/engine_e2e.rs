//! End-to-end engine tests with real OS processes: the full
//! GNU-Parallel-shaped surface working together — templates, slots,
//! joblogs, resume, halt, retries, streaming, batching.

use std::sync::Arc;
use std::time::Duration;

use htpar_core::output::tag_lines;
use htpar_core::prelude::*;
use htpar_integration_tests::TestDir;
use std::sync::Mutex;

type Collected = Arc<Mutex<Vec<JobResult>>>;

/// Attach a callback that collects every result in the order the
/// engine hands them on.
fn collecting(p: Parallel) -> (Parallel, Collected) {
    let seen: Collected = Arc::default();
    let seen2 = Arc::clone(&seen);
    (
        p.on_result(move |r| seen2.lock().unwrap().push(r.clone())),
        seen,
    )
}

/// The collected stdouts, in hand-over order.
fn stdouts(seen: &Collected) -> Vec<String> {
    seen.lock()
        .unwrap()
        .iter()
        .map(|r| r.stdout.clone())
        .collect()
}

#[test]
fn real_processes_with_path_ops_and_order() {
    let (p, seen) = collecting(
        Parallel::new("echo {/.} from {//}")
            .jobs(4)
            .keep_order(true)
            .args(["/data/a.txt", "/data/b.log", "/other/c.csv"]),
    );
    let report = p.run().unwrap();
    assert!(report.all_succeeded());
    assert_eq!(
        stdouts(&seen),
        vec!["a from /data\n", "b from /data\n", "c from /other\n"]
    );
}

#[test]
fn environment_carries_seq_and_slot_to_real_processes() {
    let (p, seen) = collecting(
        Parallel::new("echo $PARALLEL_SEQ:$PARALLEL_JOBSLOT")
            .jobs(1)
            .keep_order(true)
            .args(["x", "y"]),
    );
    p.run().unwrap();
    // No {} in the template: the engine appends the argument (xargs
    // behaviour), so the arg shows up after the env expansion.
    assert_eq!(stdouts(&seen), vec!["1:1 x\n", "2:1 y\n"]);
}

#[test]
fn joblog_resume_workflow_across_runs() {
    let dir = TestDir::new("joblog");
    let log = dir.path("run.joblog");
    let flaky_flag = dir.path("fail-once");
    std::fs::write(&flaky_flag, "1").unwrap();

    // Job 2 fails while the flag file exists, succeeds after.
    let cmd = format!(
        "if [ {{}} = b ] && [ -f {} ]; then exit 1; fi; echo ok-{{}}",
        flaky_flag.display()
    );

    let report = Parallel::new(&cmd)
        .jobs(2)
        .joblog(&log)
        .args(["a", "b", "c"])
        .run()
        .unwrap();
    assert_eq!(report.failed, 1);
    assert_eq!(report.succeeded, 2);

    // Fix the flake, resume failed only.
    std::fs::remove_file(&flaky_flag).unwrap();
    let (p, seen) = collecting(
        Parallel::new(&cmd)
            .jobs(2)
            .joblog(&log)
            .resume_failed()
            .keep_order(true)
            .args(["a", "b", "c"]),
    );
    let report = p.run().unwrap();
    assert_eq!(report.skipped, 2, "a and c skipped");
    assert_eq!(report.succeeded, 1, "b re-ran and succeeded");
    assert_eq!(stdouts(&seen)[1], "ok-b\n");

    // A third run with --resume skips everything.
    let report = Parallel::new(&cmd)
        .jobs(2)
        .joblog(&log)
        .resume()
        .args(["a", "b", "c"])
        .run()
        .unwrap();
    assert_eq!(report.skipped, 3);
}

#[test]
fn timeout_and_retries_interact() {
    // Each attempt sleeps 5 s and is killed at 50 ms; 2 retries = 3
    // attempts, all timing out.
    let (p, seen) = collecting(
        Parallel::new("sleep {}")
            .jobs(1)
            .timeout(Duration::from_millis(50))
            .retries(2)
            .args(["5"]),
    );
    let report = p.run().unwrap();
    assert_eq!(report.failed, 1);
    let seen = seen.lock().unwrap();
    assert_eq!(seen[0].status, JobStatus::TimedOut);
    assert_eq!(seen[0].tries, 2);
}

#[test]
fn halt_on_failures_stops_early_with_real_processes() {
    use htpar_core::halt::HaltWhen;
    let report = Parallel::new("exit 1")
        .jobs(1)
        .halt(HaltPolicy::fail_count(3, HaltWhen::Soon))
        .args((0..50).map(|i| i.to_string()))
        .run()
        .unwrap();
    assert!(report.jobs_total < 50, "halted at {}", report.jobs_total);
    assert!(report.failed >= 3);
}

#[test]
fn tag_output_helper_applies_to_results() {
    let (p, seen) = collecting(
        Parallel::new("printf 'l1\\nl2\\n'")
            .jobs(2)
            .tag(true)
            .keep_order(true)
            .args(["alpha"]),
    );
    p.run().unwrap();
    let r = &seen.lock().unwrap()[0];
    assert_eq!(tag_lines(&r.args, &r.stdout), "alpha\tl1\nalpha\tl2\n");
}

#[test]
fn streaming_input_with_real_processes() {
    let (writer, queue) = FollowQueue::channel();
    let producer = std::thread::spawn(move || {
        for i in 0..6 {
            writer.push(format!("v{i}"));
            std::thread::sleep(Duration::from_millis(3));
        }
    });
    let (p, seen) = collecting(Parallel::new("echo got-{}").jobs(3).keep_order(true));
    let report = p.run_stream(queue).unwrap();
    producer.join().unwrap();
    assert_eq!(report.jobs_total, 6);
    assert_eq!(stdouts(&seen)[5], "got-v5\n");
}

#[test]
fn file_backed_queue_drives_the_engine() {
    let dir = TestDir::new("queuefile");
    let qfile = dir.path("q.proc");
    std::fs::write(&qfile, "t1\nt2\n").unwrap();
    let queue = FollowQueue::tail_file(&qfile, Duration::from_millis(5));
    let stopper = queue.stopper();

    let appender = std::thread::spawn({
        let qfile = qfile.clone();
        move || {
            std::thread::sleep(Duration::from_millis(30));
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&qfile)
                .unwrap();
            writeln!(f, "t3").unwrap();
            f.flush().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            stopper.stop();
        }
    });

    let (p, seen) = collecting(Parallel::new("echo ts={}").jobs(2).keep_order(true));
    let report = p.run_stream(queue).unwrap();
    appender.join().unwrap();
    assert_eq!(report.jobs_total, 3);
    assert_eq!(stdouts(&seen)[2], "ts=t3\n");
}

#[test]
fn xargs_batching_with_real_wc() {
    // 10 args, batches of 4 -> 3 jobs; `echo` sees whole batches.
    let (p, seen) = collecting(
        Parallel::new("echo {}")
            .xargs()
            .max_args(4)
            .jobs(2)
            .keep_order(true)
            .args((0..10).map(|i| format!("w{i}"))),
    );
    let report = p.run().unwrap();
    assert_eq!(report.jobs_total, 3);
    let out = stdouts(&seen);
    assert_eq!(out[0], "w0 w1 w2 w3\n");
    assert_eq!(out[2], "w8 w9\n");
}

#[test]
fn concurrent_engines_share_a_semaphore() {
    use htpar_core::semaphore::Semaphore;
    let sem = Semaphore::new(2);
    let peak = Arc::new(Mutex::new((0usize, 0usize))); // (current, peak)
    let mut handles = Vec::new();
    for _ in 0..4 {
        let sem = Arc::clone(&sem);
        let peak = Arc::clone(&peak);
        handles.push(std::thread::spawn(move || {
            let sem2 = Arc::clone(&sem);
            let peak2 = Arc::clone(&peak);
            Parallel::new("sem-guarded {}")
                .jobs(2)
                .executor(FnExecutor::new(move |_| {
                    let _guard = sem2.acquire();
                    {
                        let mut p = peak2.lock().unwrap();
                        p.0 += 1;
                        p.1 = p.1.max(p.0);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    peak2.lock().unwrap().0 -= 1;
                    Ok(TaskOutput::success())
                }))
                .args(["1", "2", "3"])
                .run()
                .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let p = peak.lock().unwrap();
    assert!(
        p.1 <= 2,
        "semaphore capped cross-engine concurrency at {}",
        p.1
    );
}
