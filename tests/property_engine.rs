//! Engine-wide property tests: random configurations through the whole
//! scheduling engine, checking the invariants every GNU-Parallel user
//! relies on.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use htpar_core::chaos::ChaosExecutor;
use htpar_core::executor::ExecContext;
use htpar_core::prelude::*;

/// Each attempt's `(seq, slot, succeeded)`, in the order they ended.
type Attempts = Arc<Mutex<Vec<(u64, usize, bool)>>>;

/// Records every attempt on its way out of `inner`.
struct Recording<E> {
    inner: E,
    attempts: Attempts,
}

impl<E: Executor> Executor for Recording<E> {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let out = self.inner.execute(cmd, ctx);
        let ok = out.status.is_success();
        self.attempts.lock().unwrap().push((cmd.seq, cmd.slot, ok));
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every job runs to exactly one outcome, with counts that sum,
    /// whatever the slot count, failure rate, or retry policy.
    #[test]
    fn engine_conserves_jobs(
        n in 1usize..120,
        jobs in 1usize..9,
        fail_prob in 0.0f64..0.6,
        retries in 0u32..3,
        keep_order in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let attempts: Attempts = Arc::default();
        let mut run = Parallel::new("t {}")
            .jobs(jobs)
            .retries(retries)
            .keep_order(keep_order)
            .executor(Recording {
                inner: ChaosExecutor::new(FnExecutor::noop(), fail_prob, seed),
                attempts: Arc::clone(&attempts),
            })
            .args((0..n).map(|i| i.to_string()));
        // Half the cases add a consumer, which `-k` feeds in seq order;
        // the others run with none, where the engine only counts.
        let delivered = Arc::new(Mutex::new(Vec::new()));
        if keep_order {
            let d2 = Arc::clone(&delivered);
            run = run.on_result(move |r| d2.lock().unwrap().push(r.seq));
        }
        let report = run.run().unwrap();
        prop_assert_eq!(report.jobs_total, n as u64);
        prop_assert_eq!(
            report.succeeded + report.failed + report.skipped,
            report.jobs_total
        );
        // Every seq 1..=n ran exactly once: failed attempts, each one
        // retried, then at most one success, on a slot in range.
        let mut by_seq = vec![Vec::new(); n + 1];
        for &(seq, slot, ok) in attempts.lock().unwrap().iter() {
            prop_assert!(slot >= 1 && slot <= jobs);
            prop_assert!((1..=n as u64).contains(&seq), "seq {}", seq);
            by_seq[seq as usize].push(ok);
        }
        let mut succeeded = 0;
        for (seq, tries) in by_seq.iter().enumerate().skip(1) {
            let ok = tries.last() == Some(&true);
            let failures = tries.len() - usize::from(ok);
            prop_assert!(tries[..failures].iter().all(|&t| !t), "seq {} ran after success", seq);
            let retries = retries as usize;
            let settled = if ok { failures <= retries } else { failures == retries + 1 };
            prop_assert!(settled, "seq {} tries {:?}", seq, tries);
            succeeded += u64::from(ok);
        }
        prop_assert_eq!(report.succeeded, succeeded);
        if keep_order {
            let delivered = delivered.lock().unwrap().clone();
            prop_assert_eq!(delivered, (1..=n as u64).collect::<Vec<_>>());
        }
    }

    /// Concurrency never exceeds the slot count.
    #[test]
    fn engine_respects_slot_cap(
        n in 1usize..60,
        jobs in 1usize..7,
    ) {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&running);
        let p2 = Arc::clone(&peak);
        Parallel::new("t {}")
            .jobs(jobs)
            .executor(FnExecutor::new(move |_| {
                let now = r2.fetch_add(1, Ordering::SeqCst) + 1;
                p2.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                r2.fetch_sub(1, Ordering::SeqCst);
                Ok(TaskOutput::success())
            }))
            .args((0..n).map(|i| i.to_string()))
            .run()
            .unwrap();
        prop_assert!(peak.load(Ordering::SeqCst) <= jobs);
    }

    /// Rendered commands embed their argument exactly once for simple
    /// templates, regardless of batching off/on.
    #[test]
    fn rendering_is_faithful(
        args in proptest::collection::vec("[a-zA-Z0-9_./-]{1,16}", 1..30),
    ) {
        let expect: Vec<String> = args.iter().map(|a| format!("cmd {a} out/{a}.x")).collect();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        Parallel::new("cmd {} out/{}.x")
            .jobs(4)
            .keep_order(true)
            .executor(FnExecutor::new(|cmd| Ok(TaskOutput::stdout(cmd.rendered().to_string()))))
            .on_result(move |r| g2.lock().unwrap().push(r.stdout.clone()))
            .args(args.clone())
            .run()
            .unwrap();
        prop_assert_eq!(got.lock().unwrap().clone(), expect);
    }

    /// Pipe-mode blocks partition stdin losslessly through the engine.
    #[test]
    fn pipe_mode_partitions_stdin(
        lines in proptest::collection::vec("[a-z]{0,12}", 0..40),
        block in 1usize..64,
    ) {
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let collected = Arc::new(std::sync::Mutex::new(Vec::new()));
        let c2 = Arc::clone(&collected);
        let report = Parallel::new("consume")
            .jobs(3)
            .keep_order(true)
            .executor(FnExecutor::new(move |cmd| {
                c2.lock().unwrap().push((cmd.seq, cmd.stdin.clone().unwrap_or_default()));
                Ok(TaskOutput::success())
            }))
            .run_pipe(input.as_bytes(), block)
            .unwrap();
        prop_assert!(report.all_succeeded());
        let mut blocks = collected.lock().unwrap().clone();
        blocks.sort_by_key(|(seq, _)| *seq);
        let reassembled: String = blocks.into_iter().map(|(_, b)| b).collect();
        prop_assert_eq!(reassembled, input);
    }
}
