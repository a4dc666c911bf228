//! Multi-host dispatch: the library form of `--sshlogin`.
//!
//! GNU Parallel distributes jobs over `N/host` login specs; the paper's
//! driver script (listing 1) achieves the same with Slurm environment
//! sharding. This module supports both styles:
//!
//! - [`Sshlogin`] parses `8/node01`, `user@dtn03`, `:` (localhost);
//! - [`HostPool`] tracks per-host slot occupancy and always places a job
//!   on the least-loaded host with a free slot (GNU's placement rule);
//! - [`MultiHostExecutor`] wraps one executor per host and routes each
//!   job through the pool, exporting `PARALLEL_SSHLOGIN` to the job.
//!
//! Actual `ssh` transport is out of scope (and untestable offline): a
//! host's executor is pluggable — `ProcessExecutor` for localhost,
//! simulators or ssh wrappers for remote hosts.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::executor::{ExecContext, Executor, TaskOutput};
use crate::job::CommandLine;

/// One `--sshlogin` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sshlogin {
    /// Host name (`:` parses to `localhost`).
    pub host: String,
    /// Optional `user@`.
    pub user: Option<String>,
    /// Slots on this host (`N/host`); `None` = decided by the pool's
    /// default.
    pub slots: Option<usize>,
}

impl Sshlogin {
    /// Parse `[N/][user@]host`. `:` is shorthand for localhost.
    pub fn parse(spec: &str) -> Result<Sshlogin> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(Error::Input("empty sshlogin".into()));
        }
        let (slots, rest) = match spec.split_once('/') {
            Some((n, rest)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                let slots: usize = n
                    .parse()
                    .map_err(|_| Error::Input("bad slot count".into()))?;
                if slots == 0 {
                    return Err(Error::Input("sshlogin slots must be >= 1".into()));
                }
                (Some(slots), rest)
            }
            _ => (None, spec),
        };
        let (user, host) = match rest.split_once('@') {
            Some((u, h)) => (Some(u.to_string()), h),
            None => (None, rest),
        };
        let host = if host == ":" { "localhost" } else { host };
        if host.is_empty() {
            return Err(Error::Input(format!("no host in sshlogin {spec:?}")));
        }
        Ok(Sshlogin {
            host: host.to_string(),
            user,
            slots,
        })
    }

    /// `user@host` or `host`.
    pub fn login_string(&self) -> String {
        match &self.user {
            Some(u) => format!("{u}@{}", self.host),
            None => self.host.clone(),
        }
    }
}

struct HostState {
    login: Sshlogin,
    slots: usize,
    busy: usize,
    dispatched: u64,
    /// Removed from placement after a transport error (the host is
    /// unreachable; retrying it would stall the whole pool forever).
    quarantined: bool,
}

/// Slot-aware host selection.
pub struct HostPool {
    state: Mutex<Vec<HostState>>,
    freed: Condvar,
}

impl HostPool {
    /// Build from logins; hosts without an explicit slot count get
    /// `default_slots`.
    pub fn new(logins: Vec<Sshlogin>, default_slots: usize) -> Result<Arc<HostPool>> {
        if logins.is_empty() {
            return Err(Error::Input("host pool needs at least one host".into()));
        }
        let default_slots = default_slots.max(1);
        Ok(Arc::new(HostPool {
            state: Mutex::new(
                logins
                    .into_iter()
                    .map(|login| HostState {
                        slots: login.slots.unwrap_or(default_slots),
                        login,
                        busy: 0,
                        dispatched: 0,
                        quarantined: false,
                    })
                    .collect(),
            ),
            freed: Condvar::new(),
        }))
    }

    /// Total slots across hosts — the natural `-j` for an engine backed
    /// by this pool.
    pub fn total_slots(&self) -> usize {
        self.state.lock().iter().map(|h| h.slots).sum()
    }

    /// Jobs dispatched per host so far (by pool order).
    pub fn dispatched(&self) -> Vec<(String, u64)> {
        self.state
            .lock()
            .iter()
            .map(|h| (h.login.login_string(), h.dispatched))
            .collect()
    }

    /// Block until some live host has a free slot; take the least-loaded
    /// one (by busy/slots ratio, lowest index on ties). `None` when every
    /// host is quarantined — blocking then would wait forever, since no
    /// release can ever free a slot on a live host.
    fn acquire(&self) -> Option<usize> {
        let mut state = self.state.lock();
        loop {
            let mut best: Option<(usize, f64)> = None;
            let mut any_live = false;
            for (i, h) in state.iter().enumerate() {
                if h.quarantined {
                    continue;
                }
                any_live = true;
                if h.busy < h.slots {
                    let load = h.busy as f64 / h.slots as f64;
                    if best.is_none_or(|(_, b)| load < b) {
                        best = Some((i, load));
                    }
                }
            }
            if let Some((i, _)) = best {
                state[i].busy += 1;
                state[i].dispatched += 1;
                return Some(i);
            }
            if !any_live {
                return None;
            }
            self.freed.wait(&mut state);
        }
    }

    fn release(&self, idx: usize) {
        let mut state = self.state.lock();
        state[idx].busy = state[idx].busy.saturating_sub(1);
        drop(state);
        self.freed.notify_one();
    }

    /// Remove `idx` from placement (transport failure). Wakes *all*
    /// waiters: each must re-scan, because the host they were queued
    /// behind may be the one that just vanished.
    pub fn quarantine(&self, idx: usize) {
        let mut state = self.state.lock();
        state[idx].quarantined = true;
        drop(state);
        self.freed.notify_all();
    }

    /// Hosts currently removed from placement (by login string).
    pub fn quarantined(&self) -> Vec<String> {
        self.state
            .lock()
            .iter()
            .filter(|h| h.quarantined)
            .map(|h| h.login.login_string())
            .collect()
    }
}

/// Routes jobs over a [`HostPool`], one executor per host.
pub struct MultiHostExecutor {
    pool: Arc<HostPool>,
    executors: Vec<Arc<dyn Executor>>,
}

impl MultiHostExecutor {
    /// Build from `(login, executor)` pairs; hosts without explicit slot
    /// counts get `default_slots`.
    pub fn new(
        hosts: Vec<(Sshlogin, Arc<dyn Executor>)>,
        default_slots: usize,
    ) -> Result<MultiHostExecutor> {
        let (logins, executors): (Vec<_>, Vec<_>) = hosts.into_iter().unzip();
        Ok(MultiHostExecutor {
            pool: HostPool::new(logins, default_slots)?,
            executors,
        })
    }

    /// The underlying pool (for slot counts and dispatch stats).
    pub fn pool(&self) -> &Arc<HostPool> {
        &self.pool
    }
}

impl Executor for MultiHostExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        // A transport error quarantines the host and moves the job to
        // another one; the job only fails when no live host remains.
        loop {
            let Some(idx) = self.pool.acquire() else {
                return TaskOutput::transport_error("no live hosts remain in the pool");
            };
            let login = {
                let state = self.pool.state.lock();
                state[idx].login.login_string()
            };
            let mut cmd = cmd.clone();
            cmd.env.push(("PARALLEL_SSHLOGIN".into(), login));
            let out = self.executors[idx].execute(&cmd, ctx);
            if out.is_transport_error() {
                self.pool.quarantine(idx);
                self.pool.release(idx);
                continue;
            }
            self.pool.release(idx);
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::FnExecutor;
    use crate::job::JobResult;
    use crate::prelude::Parallel;
    use std::time::Duration;

    /// Attach a callback that collects every result.
    fn collecting(p: Parallel) -> (Parallel, Arc<Mutex<Vec<JobResult>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        (p.on_result(move |r| seen2.lock().push(r.clone())), seen)
    }

    #[test]
    fn parse_forms() {
        assert_eq!(
            Sshlogin::parse("8/node01").unwrap(),
            Sshlogin {
                host: "node01".into(),
                user: None,
                slots: Some(8)
            }
        );
        assert_eq!(
            Sshlogin::parse("alice@dtn03").unwrap(),
            Sshlogin {
                host: "dtn03".into(),
                user: Some("alice".into()),
                slots: None
            }
        );
        assert_eq!(
            Sshlogin::parse("4/bob@h").unwrap(),
            Sshlogin {
                host: "h".into(),
                user: Some("bob".into()),
                slots: Some(4)
            }
        );
        assert_eq!(Sshlogin::parse(":").unwrap().host, "localhost");
        assert_eq!(Sshlogin::parse("2/:").unwrap().host, "localhost");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Sshlogin::parse("").is_err());
        assert!(Sshlogin::parse("0/host").is_err());
        assert!(Sshlogin::parse("8/").is_err());
        assert!(Sshlogin::parse("user@").is_err());
    }

    #[test]
    fn parse_keeps_path_like_hosts_literal() {
        // A slash with a non-numeric prefix is part of the host spec.
        let s = Sshlogin::parse("weird/host").unwrap();
        assert_eq!(s.host, "weird/host");
        assert_eq!(s.slots, None);
    }

    #[test]
    fn login_string_forms() {
        assert_eq!(Sshlogin::parse("8/n1").unwrap().login_string(), "n1");
        assert_eq!(Sshlogin::parse("u@n1").unwrap().login_string(), "u@n1");
    }

    #[test]
    fn pool_totals_and_defaults() {
        let pool = HostPool::new(
            vec![
                Sshlogin::parse("4/a").unwrap(),
                Sshlogin::parse("b").unwrap(),
            ],
            2,
        )
        .unwrap();
        assert_eq!(pool.total_slots(), 6);
    }

    #[test]
    fn empty_pool_rejected() {
        assert!(HostPool::new(vec![], 2).is_err());
    }

    fn host_exec(name: &'static str) -> Arc<dyn Executor> {
        Arc::new(FnExecutor::new(move |cmd| {
            std::thread::sleep(Duration::from_millis(3));
            let login = cmd
                .env
                .iter()
                .find(|(k, _)| k == "PARALLEL_SSHLOGIN")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            Ok(TaskOutput::stdout(format!("{name}:{login}")))
        }))
    }

    #[test]
    fn jobs_spread_over_hosts_respecting_slots() {
        let multi = MultiHostExecutor::new(
            vec![
                (Sshlogin::parse("2/alpha").unwrap(), host_exec("a")),
                (Sshlogin::parse("2/beta").unwrap(), host_exec("b")),
            ],
            1,
        )
        .unwrap();
        let total = multi.pool().total_slots();
        assert_eq!(total, 4);
        let pool = Arc::clone(multi.pool());
        let (p, results) = collecting(
            Parallel::new("job {}")
                .jobs(total)
                .executor(multi)
                .args((0..40).map(|i| i.to_string())),
        );
        let report = p.run().unwrap();
        assert!(report.all_succeeded());
        let dispatched = pool.dispatched();
        assert_eq!(dispatched.len(), 2);
        let (a, b) = (dispatched[0].1, dispatched[1].1);
        assert_eq!(a + b, 40);
        // Least-loaded placement keeps the split near even.
        assert!(a >= 12 && b >= 12, "split {a}/{b}");
        // Every job saw its host's login.
        for r in results.lock().iter() {
            assert!(
                r.stdout == "a:alpha" || r.stdout == "b:beta",
                "{}",
                r.stdout
            );
        }
    }

    #[test]
    fn transport_error_quarantines_host_and_jobs_migrate() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Host "flaky" fails with a transport error on every job; host
        // "solid" runs everything. Without quarantine, flaky's share of
        // jobs would return transport errors (the old retried-forever
        // placement); with it, every job lands on solid.
        let flaky_attempts = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flaky_attempts);
        let flaky: Arc<dyn Executor> = Arc::new(FnExecutor::new(move |_| {
            f2.fetch_add(1, Ordering::SeqCst);
            Ok(TaskOutput::transport_error("connection refused"))
        }));
        let multi = MultiHostExecutor::new(
            vec![
                (Sshlogin::parse("2/flaky").unwrap(), flaky),
                (Sshlogin::parse("2/solid").unwrap(), host_exec("s")),
            ],
            1,
        )
        .unwrap();
        let pool = Arc::clone(multi.pool());
        let (p, results) = collecting(
            Parallel::new("job {}")
                .jobs(4)
                .executor(multi)
                .args((0..20).map(|i| i.to_string())),
        );
        let report = p.run().unwrap();
        assert!(report.all_succeeded(), "all jobs migrated to solid");
        assert_eq!(pool.quarantined(), vec!["flaky".to_string()]);
        // Flaky saw at most a few probes before the first transport
        // error removed it from placement, never one per job.
        assert!(
            flaky_attempts.load(Ordering::SeqCst) <= 4,
            "flaky probed {} times",
            flaky_attempts.load(Ordering::SeqCst)
        );
        assert_eq!(results.lock().len(), 20);
        for r in results.lock().iter() {
            assert_eq!(r.stdout, "s:solid");
        }
    }

    #[test]
    fn all_hosts_quarantined_fails_jobs_instead_of_hanging() {
        let dead: Arc<dyn Executor> = Arc::new(FnExecutor::new(|_| {
            Ok(TaskOutput::transport_error("connection refused"))
        }));
        let multi = MultiHostExecutor::new(
            vec![
                (Sshlogin::parse("1/a").unwrap(), Arc::clone(&dead)),
                (Sshlogin::parse("1/b").unwrap(), dead),
            ],
            1,
        )
        .unwrap();
        // -j4 over 2 one-slot hosts: some workers are parked in
        // acquire() when the quarantines land; notify_all must wake
        // them so they fail fast instead of waiting forever.
        let (p, results) = collecting(
            Parallel::new("job {}")
                .jobs(4)
                .executor(multi)
                .args((0..8).map(|i| i.to_string())),
        );
        let report = p.run().unwrap();
        assert_eq!(report.failed, 8);
        for r in results.lock().iter() {
            assert!(
                matches!(&r.status, crate::job::JobStatus::ExecError(m)
                    if m.starts_with(crate::executor::TRANSPORT_ERROR_PREFIX)),
                "{:?}",
                r.status
            );
        }
    }

    #[test]
    fn non_transport_failures_do_not_quarantine() {
        let failing: Arc<dyn Executor> =
            Arc::new(FnExecutor::new(|_| Ok(TaskOutput::failed(7, "app error"))));
        let multi =
            MultiHostExecutor::new(vec![(Sshlogin::parse("2/h").unwrap(), failing)], 1).unwrap();
        let pool = Arc::clone(multi.pool());
        let report = Parallel::new("job {}")
            .jobs(2)
            .executor(multi)
            .args((0..6).map(|i| i.to_string()))
            .run()
            .unwrap();
        assert_eq!(report.failed, 6, "app failures surface as failures");
        assert!(pool.quarantined().is_empty(), "host stays in placement");
    }

    #[test]
    fn per_host_concurrency_never_exceeds_slots() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let busy = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let b2 = Arc::clone(&busy);
        let p2 = Arc::clone(&peak);
        let counting: Arc<dyn Executor> = Arc::new(FnExecutor::new(move |_| {
            let now = b2.fetch_add(1, Ordering::SeqCst) + 1;
            p2.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(3));
            b2.fetch_sub(1, Ordering::SeqCst);
            Ok(TaskOutput::success())
        }));
        let multi = MultiHostExecutor::new(vec![(Sshlogin::parse("3/only").unwrap(), counting)], 1)
            .unwrap();
        // Engine offers 8 threads but the single host has 3 slots.
        Parallel::new("x {}")
            .jobs(8)
            .executor(multi)
            .args((0..30).map(|i| i.to_string()))
            .run()
            .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
    }
}
