//! `--halt`-style early-termination policies.
//!
//! GNU Parallel's `--halt when,why=val` controls when a run gives up (or
//! declares victory) early. The engine consults the policy after every
//! completed job.

use crate::job::JobStatus;

/// When to act once the condition trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltWhen {
    /// `soon`: stop dispatching new jobs, let running ones finish.
    Soon,
    /// `now`: stop dispatching and abandon waiting where possible.
    Now,
}

/// The halt condition.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Condition {
    Never,
    FailCount(u64),
    FailPercent(f64),
    SuccessCount(u64),
    SuccessPercent(f64),
}

/// A halt policy: condition + urgency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaltPolicy {
    condition: Condition,
    when: HaltWhen,
}

/// What the runner should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltDecision {
    Continue,
    StopSoon,
    StopNow,
}

impl Default for HaltPolicy {
    fn default() -> Self {
        HaltPolicy::never()
    }
}

impl HaltPolicy {
    /// Never halt early (GNU default).
    pub fn never() -> HaltPolicy {
        HaltPolicy {
            condition: Condition::Never,
            when: HaltWhen::Soon,
        }
    }

    /// Halt after `n` failed jobs (`--halt soon,fail=n` / `now,fail=n`).
    pub fn fail_count(n: u64, when: HaltWhen) -> HaltPolicy {
        HaltPolicy {
            condition: Condition::FailCount(n.max(1)),
            when,
        }
    }

    /// Halt when the failure ratio reaches `pct` percent (`--halt
    /// soon,fail=pct%`). With a known total job count the ratio is
    /// `failed / total`, evaluated from the first completion; for
    /// streaming inputs of unknown size it is `failed / completed`,
    /// checked only once at least 10 jobs finished so the first failure
    /// of a large run cannot trip it (see
    /// [`HaltPolicy::decide_with_total`]).
    pub fn fail_percent(pct: f64, when: HaltWhen) -> HaltPolicy {
        HaltPolicy {
            condition: Condition::FailPercent(pct.clamp(0.0, 100.0)),
            when,
        }
    }

    /// Halt after `n` successful jobs (`--halt now,success=n`).
    pub fn success_count(n: u64, when: HaltWhen) -> HaltPolicy {
        HaltPolicy {
            condition: Condition::SuccessCount(n.max(1)),
            when,
        }
    }

    /// Halt when the success ratio reaches `pct` percent of completed jobs.
    pub fn success_percent(pct: f64, when: HaltWhen) -> HaltPolicy {
        HaltPolicy {
            condition: Condition::SuccessPercent(pct.clamp(0.0, 100.0)),
            when,
        }
    }

    /// Whether this policy can never trip. The runner uses this to skip
    /// tallying entirely on its hot path.
    pub fn is_never(&self) -> bool {
        self.condition == Condition::Never
    }

    /// Evaluate after a job completion, for streaming inputs whose
    /// total job count is unknown. Equivalent to
    /// [`HaltPolicy::decide_with_total`] with `total = None`.
    pub fn decide(&self, tally: &Tally) -> HaltDecision {
        self.decide_with_total(tally, None)
    }

    /// Evaluate after a job completion.
    ///
    /// When `total` is known (exact-size inputs), percent conditions use
    /// it as the denominator and evaluate unconditionally — a 4-task
    /// run with `fail=50%` trips on its second failure. Note `total`
    /// counts every input job, including ones a `--resume` skip set
    /// filtered out, so percent is of the whole work list. With `total
    /// = None` (streaming inputs) percent conditions fall back to the
    /// completed-so-far ratio, guarded by a minimum sample of 10 so the
    /// first failure of a large run cannot trip them.
    pub fn decide_with_total(&self, tally: &Tally, total: Option<u64>) -> HaltDecision {
        let percent_tripped = |favourable: u64, ratio: f64, pct: f64| match total {
            Some(total) if total > 0 => favourable as f64 / total as f64 * 100.0 >= pct,
            Some(_) => false,
            None => tally.completed() >= 10 && ratio * 100.0 >= pct,
        };
        let tripped = match self.condition {
            Condition::Never => false,
            Condition::FailCount(n) => tally.failed >= n,
            Condition::SuccessCount(n) => tally.succeeded >= n,
            Condition::FailPercent(p) => percent_tripped(tally.failed, tally.fail_ratio(), p),
            Condition::SuccessPercent(p) => {
                percent_tripped(tally.succeeded, tally.success_ratio(), p)
            }
        };
        if !tripped {
            HaltDecision::Continue
        } else {
            match self.when {
                HaltWhen::Soon => HaltDecision::StopSoon,
                HaltWhen::Now => HaltDecision::StopNow,
            }
        }
    }
}

/// Running success/failure counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub succeeded: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one finished job.
    pub fn record(&mut self, status: &JobStatus) {
        if status.is_success() {
            self.succeeded += 1;
        } else if status.is_failure() {
            self.failed += 1;
        }
    }

    /// Jobs that ran to completion (success or failure; skips excluded).
    pub fn completed(&self) -> u64 {
        self.succeeded + self.failed
    }

    fn fail_ratio(&self) -> f64 {
        if self.completed() == 0 {
            0.0
        } else {
            self.failed as f64 / self.completed() as f64
        }
    }

    fn success_ratio(&self) -> f64 {
        if self.completed() == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.completed() as f64
        }
    }
}

/// Lock-free success/failure counters for the runner's hot path: each
/// worker records its completion with two atomic ops instead of a shared
/// mutex, and gets back a [`Tally`] snapshot to feed
/// [`HaltPolicy::decide`]. Counts are monotonic, so the worker whose
/// increment crosses a halt threshold is guaranteed to observe it.
#[derive(Debug, Default)]
pub struct AtomicTally {
    succeeded: std::sync::atomic::AtomicU64,
    failed: std::sync::atomic::AtomicU64,
}

impl AtomicTally {
    /// Record one finished job and return the post-update snapshot.
    pub fn record(&self, status: &JobStatus) -> Tally {
        use std::sync::atomic::Ordering::SeqCst;
        if status.is_success() {
            self.succeeded.fetch_add(1, SeqCst);
        } else if status.is_failure() {
            self.failed.fetch_add(1, SeqCst);
        }
        Tally {
            succeeded: self.succeeded.load(SeqCst),
            failed: self.failed.load(SeqCst),
        }
    }

    /// Current snapshot without recording anything.
    pub fn snapshot(&self) -> Tally {
        use std::sync::atomic::Ordering::SeqCst;
        Tally {
            succeeded: self.succeeded.load(SeqCst),
            failed: self.failed.load(SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(s: u64, f: u64) -> Tally {
        Tally {
            succeeded: s,
            failed: f,
        }
    }

    #[test]
    fn never_always_continues() {
        let p = HaltPolicy::never();
        assert_eq!(p.decide(&tally(0, 1_000_000)), HaltDecision::Continue);
    }

    #[test]
    fn fail_count_trips_at_threshold() {
        let p = HaltPolicy::fail_count(3, HaltWhen::Soon);
        assert_eq!(p.decide(&tally(10, 2)), HaltDecision::Continue);
        assert_eq!(p.decide(&tally(10, 3)), HaltDecision::StopSoon);
        assert_eq!(p.decide(&tally(10, 4)), HaltDecision::StopSoon);
    }

    #[test]
    fn fail_count_now_variant() {
        let p = HaltPolicy::fail_count(1, HaltWhen::Now);
        assert_eq!(p.decide(&tally(0, 1)), HaltDecision::StopNow);
    }

    #[test]
    fn zero_count_clamps_to_one() {
        let p = HaltPolicy::fail_count(0, HaltWhen::Soon);
        assert_eq!(p.decide(&tally(5, 0)), HaltDecision::Continue);
        assert_eq!(p.decide(&tally(5, 1)), HaltDecision::StopSoon);
    }

    #[test]
    fn fail_percent_needs_minimum_sample() {
        // Streaming regime (unknown total): the min-sample guard holds.
        let p = HaltPolicy::fail_percent(50.0, HaltWhen::Soon);
        // 1 of 2 failed = 50 %, but fewer than 10 completed: no trip.
        assert_eq!(p.decide(&tally(1, 1)), HaltDecision::Continue);
        assert_eq!(p.decide(&tally(5, 5)), HaltDecision::StopSoon);
        assert_eq!(p.decide(&tally(9, 1)), HaltDecision::Continue);
    }

    #[test]
    fn fail_percent_with_known_total_trips_on_small_runs() {
        // Known-total regime: a 4-task run with fail=50% trips as soon
        // as 2 jobs have failed — no minimum sample.
        let p = HaltPolicy::fail_percent(50.0, HaltWhen::Soon);
        assert_eq!(
            p.decide_with_total(&tally(0, 1), Some(4)),
            HaltDecision::Continue
        );
        assert_eq!(
            p.decide_with_total(&tally(0, 2), Some(4)),
            HaltDecision::StopSoon
        );
        assert_eq!(
            p.decide_with_total(&tally(2, 2), Some(4)),
            HaltDecision::StopSoon
        );
    }

    #[test]
    fn percent_with_known_total_uses_total_denominator() {
        // 5 of 10 completed failed (50% of completions), but only 5% of
        // the 100-job total: must not trip until failures themselves
        // reach the threshold share of the whole run.
        let p = HaltPolicy::fail_percent(50.0, HaltWhen::Now);
        assert_eq!(
            p.decide_with_total(&tally(5, 5), Some(100)),
            HaltDecision::Continue
        );
        assert_eq!(
            p.decide_with_total(&tally(0, 50), Some(100)),
            HaltDecision::StopNow
        );
    }

    #[test]
    fn success_percent_with_known_total() {
        let p = HaltPolicy::success_percent(75.0, HaltWhen::Soon);
        assert_eq!(
            p.decide_with_total(&tally(2, 0), Some(4)),
            HaltDecision::Continue
        );
        assert_eq!(
            p.decide_with_total(&tally(3, 0), Some(4)),
            HaltDecision::StopSoon
        );
        // Count conditions are unaffected by the total.
        let c = HaltPolicy::fail_count(2, HaltWhen::Soon);
        assert_eq!(
            c.decide_with_total(&tally(0, 2), Some(1_000_000)),
            HaltDecision::StopSoon
        );
    }

    #[test]
    fn success_count_trips() {
        let p = HaltPolicy::success_count(2, HaltWhen::Now);
        assert_eq!(p.decide(&tally(1, 5)), HaltDecision::Continue);
        assert_eq!(p.decide(&tally(2, 5)), HaltDecision::StopNow);
    }

    #[test]
    fn success_percent_trips() {
        let p = HaltPolicy::success_percent(90.0, HaltWhen::Soon);
        assert_eq!(p.decide(&tally(8, 2)), HaltDecision::Continue);
        assert_eq!(p.decide(&tally(9, 1)), HaltDecision::StopSoon);
    }

    #[test]
    fn is_never_only_for_never() {
        assert!(HaltPolicy::never().is_never());
        assert!(HaltPolicy::default().is_never());
        assert!(!HaltPolicy::fail_count(1, HaltWhen::Soon).is_never());
        assert!(!HaltPolicy::success_percent(50.0, HaltWhen::Now).is_never());
    }

    #[test]
    fn atomic_tally_matches_plain_tally() {
        let atomic = AtomicTally::default();
        atomic.record(&JobStatus::Success);
        atomic.record(&JobStatus::Failed(1));
        atomic.record(&JobStatus::Skipped);
        let snap = atomic.record(&JobStatus::Success);
        assert_eq!(snap, tally(2, 1));
        assert_eq!(atomic.snapshot(), tally(2, 1));
    }

    #[test]
    fn atomic_tally_is_exact_under_contention() {
        let atomic = std::sync::Arc::new(AtomicTally::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = std::sync::Arc::clone(&atomic);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    let status = if i % 3 == 0 {
                        JobStatus::Failed(1)
                    } else {
                        JobStatus::Success
                    };
                    t.record(&status);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = atomic.snapshot();
        assert_eq!(snap.completed(), 8000);
        assert_eq!(snap.failed, 8 * 334);
    }

    #[test]
    fn tally_ignores_skips() {
        let mut t = Tally::default();
        t.record(&JobStatus::Success);
        t.record(&JobStatus::Failed(1));
        t.record(&JobStatus::Skipped);
        assert_eq!(t, tally(1, 1));
        assert_eq!(t.completed(), 2);
    }
}
