//! Failure injection for testing retry/halt/resume behaviour.
//!
//! [`ChaosExecutor`] wraps any executor and makes a deterministic,
//! seeded fraction of *attempts* fail before reaching the inner
//! executor — the tool the integration suite uses to prove that
//! `--retries`, `--halt`, and `--resume-failed` interact correctly
//! under unreliable infrastructure (the Podman-HPC situation of Fig. 5).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::executor::{ExecContext, Executor, TaskOutput};
use crate::job::CommandLine;

/// Wraps an executor, failing a seeded fraction of attempts.
pub struct ChaosExecutor {
    inner: Arc<dyn Executor>,
    /// Probability in `[0, 1]` that an attempt fails.
    fail_probability: f64,
    /// Exit code injected failures report.
    fail_code: i32,
    seed: u64,
    attempts: AtomicU64,
    /// When set, draws are keyed by `(seq, per-seq attempt)` instead of
    /// the global attempt counter, making outcomes independent of worker
    /// interleaving (see [`ChaosExecutor::seeded_per_seq`]).
    per_seq_attempts: Option<Mutex<HashMap<u64, u64>>>,
}

impl ChaosExecutor {
    /// Wrap `inner`, failing each attempt with `fail_probability`.
    pub fn new<E: Executor + 'static>(inner: E, fail_probability: f64, seed: u64) -> ChaosExecutor {
        ChaosExecutor {
            inner: Arc::new(inner),
            fail_probability: fail_probability.clamp(0.0, 1.0),
            fail_code: 199,
            seed,
            attempts: AtomicU64::new(0),
            per_seq_attempts: None,
        }
    }

    /// Like [`ChaosExecutor::new`], but each draw is a pure function of
    /// `(seed, seq, attempt-number-within-that-seq)` rather than of the
    /// global attempt order. A `-j 256` run and a `-j 1` run of the same
    /// workload then inject failures into exactly the same attempts, so
    /// concurrency stress tests can compare a parallel run against a
    /// single-threaded reference task by task.
    pub fn seeded_per_seq<E: Executor + 'static>(
        inner: E,
        fail_probability: f64,
        seed: u64,
    ) -> ChaosExecutor {
        ChaosExecutor {
            per_seq_attempts: Some(Mutex::new(HashMap::new())),
            ..ChaosExecutor::new(inner, fail_probability, seed)
        }
    }

    /// Total attempts observed (injected failures included).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Deterministic uniform draw in `[0, 1)` for attempt `n`.
    fn draw(&self, n: u64) -> f64 {
        let mut z = self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Executor for ChaosExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let global = self.attempts.fetch_add(1, Ordering::Relaxed);
        let n = match &self.per_seq_attempts {
            Some(per_seq) => {
                let mut per_seq = per_seq.lock().expect("chaos state poisoned");
                let attempt = per_seq.entry(cmd.seq).or_insert(0);
                let key = cmd.seq.wrapping_mul(0x517C_C1B7_2722_0A95) ^ *attempt;
                *attempt += 1;
                key
            }
            None => global,
        };
        if self.draw(n) < self.fail_probability {
            return TaskOutput::failed(self.fail_code, "injected failure");
        }
        self.inner.execute(cmd, ctx)
    }

    fn needs_argv(&self) -> bool {
        self.inner.needs_argv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FnExecutor;
    use crate::job::{JobResult, JobStatus};
    use crate::prelude::Parallel;

    /// Attach a callback that collects every result.
    fn collecting(p: Parallel) -> (Parallel, Arc<Mutex<Vec<JobResult>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        (
            p.on_result(move |r| seen2.lock().unwrap().push(r.clone())),
            seen,
        )
    }

    #[test]
    fn zero_probability_is_transparent() {
        let chaos = ChaosExecutor::new(FnExecutor::noop(), 0.0, 1);
        let report = Parallel::new("x {}")
            .jobs(2)
            .executor(chaos)
            .args((0..20).map(|i| i.to_string()))
            .run()
            .unwrap();
        assert!(report.all_succeeded());
    }

    #[test]
    fn one_probability_fails_everything() {
        let chaos = ChaosExecutor::new(FnExecutor::noop(), 1.0, 1);
        let (p, seen) = collecting(
            Parallel::new("x {}")
                .jobs(2)
                .executor(chaos)
                .args((0..10).map(|i| i.to_string())),
        );
        let report = p.run().unwrap();
        assert_eq!(report.failed, 10);
        assert!(matches!(
            seen.lock().unwrap()[0].status,
            JobStatus::Failed(199)
        ));
    }

    #[test]
    fn failure_rate_is_near_nominal() {
        let chaos = ChaosExecutor::new(FnExecutor::noop(), 0.3, 7);
        let report = Parallel::new("x {}")
            .jobs(4)
            .executor(chaos)
            .args((0..2000).map(|i| i.to_string()))
            .run()
            .unwrap();
        let ratio = report.failed as f64 / report.jobs_total as f64;
        assert!((ratio - 0.3).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn retries_absorb_transient_chaos() {
        // p=0.3 with 6 retries: P(all 7 attempts fail) ≈ 0.02% — a 500-job
        // run should come out clean.
        let chaos = ChaosExecutor::new(FnExecutor::noop(), 0.3, 11);
        let (p, seen) = collecting(
            Parallel::new("x {}")
                .jobs(4)
                .retries(6)
                .executor(chaos)
                .args((0..500).map(|i| i.to_string())),
        );
        let report = p.run().unwrap();
        assert_eq!(report.failed, 0, "retries absorbed injected failures");
        // Some retries actually happened.
        assert!(seen.lock().unwrap().iter().any(|r| r.tries > 0));
    }

    #[test]
    fn per_seq_draws_are_interleaving_independent() {
        // The global-counter mode depends on attempt order, so only the
        // per-seq mode can promise this: any -j produces the same
        // per-task outcomes and retry counts.
        let outcome = |jobs: usize| {
            let (p, results) = collecting(
                Parallel::new("x {}")
                    .jobs(jobs)
                    .retries(2)
                    .executor(ChaosExecutor::seeded_per_seq(FnExecutor::noop(), 0.4, 5))
                    .args((0..300).map(|i| i.to_string())),
            );
            p.run().unwrap();
            let mut seen: Vec<(u64, bool, u32)> = results
                .lock()
                .unwrap()
                .iter()
                .map(|r| (r.seq, r.status.is_success(), r.tries))
                .collect();
            seen.sort_unstable();
            seen
        };
        let reference = outcome(1);
        assert!(reference.iter().any(|(_, ok, _)| !ok), "chaos must bite");
        assert!(reference.iter().any(|(_, _, tries)| *tries > 0));
        assert_eq!(reference, outcome(8));
    }

    #[test]
    fn attempt_counter_counts_retries() {
        let chaos = ChaosExecutor::new(FnExecutor::noop(), 0.5, 3);
        let (p, seen) = collecting(
            Parallel::new("x {}")
                .jobs(1)
                .retries(2)
                .executor(chaos)
                .args((0..50).map(|i| i.to_string())),
        );
        let report = p.run().unwrap();
        let expected: u64 = seen
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.tries as u64 + 1)
            .sum();
        // `attempts` is only reachable before the executor moves into the
        // builder; reconstruct via tries instead.
        assert!(expected >= 50);
        assert!(report.jobs_total == 50);
    }
}
