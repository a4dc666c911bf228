//! Deadlines, run directories, memory readings and the run's result.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Run `f` on its own thread and wait at most `limit` for it. A missed
/// deadline is an error naming `what`; the thread is then abandoned and
/// the caller fails the run, so the process exit tears it down.
pub fn with_deadline<T, F>(what: &str, limit: Duration, f: F) -> Result<T, String>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(what.to_string())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .map_err(|e| format!("spawning {what}: {e}"))?;
    match rx.recv_timeout(limit) {
        Ok(v) => {
            handle
                .join()
                .map_err(|_| format!("{what} panicked after returning"))?;
            Ok(v)
        }
        Err(RecvTimeoutError::Timeout) => Err(format!("{what} missed its {limit:?} deadline")),
        Err(RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(format!("{what} panicked"))
        }
    }
}

/// Collect one result from each of `n` workers sending on `rx`, all
/// within `limit`.
pub fn gather<T>(
    what: &str,
    rx: &mpsc::Receiver<T>,
    n: usize,
    limit: Duration,
) -> Result<Vec<T>, String> {
    let deadline = Instant::now() + limit;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(v) => out.push(v),
            Err(RecvTimeoutError::Timeout) => {
                return Err(format!(
                    "{what}: {} of {n} missed the {limit:?} deadline",
                    n - out.len()
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(format!("{what}: a worker panicked"))
            }
        }
    }
    Ok(out)
}

/// A directory private to this run, under `root` in the working
/// directory, removed when dropped. Nothing is shared between runs.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    pub fn create(root: &Path, workload: &str, seed: u64) -> Result<RunDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = root.join(format!("{workload}-{seed}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// A fresh subdirectory for one round.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("creating {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Slot, agent and client counts: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: correctness counts, the metrics of the result
/// line, and human-readable lines printed before it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Format an optional percentile for the report.
pub fn show(v: Option<f64>, unit: &str) -> String {
    match v {
        Some(v) => format!("{v:.3} {unit}"),
        None => "n/a (too few samples)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_passes_values_and_reports_misses() {
        assert_eq!(with_deadline("quick", Duration::from_secs(5), || 7), Ok(7));
        let err = with_deadline("slow", Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(300));
        })
        .unwrap_err();
        assert!(err.contains("slow missed"), "{err}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metric("tasks_per_s", 1234.5, "tasks/s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"tasks_per_s\": {\"value\": 1234.5, \"unit\": \"tasks/s\"}}}"
        );
        o.fail(2, "bad".into());
        assert!(o
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
    }
}
