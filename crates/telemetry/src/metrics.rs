//! Aggregating sink: counters, gauges, and quantile histograms over the
//! event stream.
//!
//! `MetricsRegistry` subsumes the engine's bespoke meters: the launch
//! rate it derives from `spawned` events matches
//! `htpar_core::stats::RateMeter` (same sustained-rate definition:
//! events-minus-one over first→last span), and its snapshot carries the
//! same ok/failed/retry tallies `htpar_core::progress::Progress`
//! tracks — both become views over the bus.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::bus::Sink;
use crate::event::Event;

/// Order statistics of one histogram (times in microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: usize,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSummary {
    fn empty() -> HistogramSummary {
        HistogramSummary {
            count: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            p50: 0,
            p95: 0,
            p99: 0,
        }
    }

    /// Nearest-rank quantiles over the (unsorted) sample set.
    fn from_samples(samples: &[u64]) -> HistogramSummary {
        if samples.is_empty() {
            return HistogramSummary::empty();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |q: f64| -> u64 {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        HistogramSummary {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().expect("nonempty"),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        }
    }
}

/// Point-in-time aggregate of everything the registry has observed.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Event counts keyed by [`Event::kind`] string.
    pub counters: BTreeMap<String, u64>,
    /// Latest queue depth seen (gauge).
    pub queue_depth: usize,
    /// Latest slot occupancy seen (gauge): `(busy, total)`.
    pub slot_occupancy: (usize, usize),
    /// Runtime distribution of completed tasks.
    pub runtime: HistogramSummary,
    /// In-parent launch-cost distribution (`latency_us` of
    /// `shell_bypass`/`sh_fallback` events from the process spawner).
    pub spawn_latency: HistogramSummary,
    /// Sustained launch rate over `spawned` events (see
    /// [`MetricsRegistry::launch_rate_sustained`]); `None` below 2 events.
    pub launch_rate: Option<f64>,
    /// Tasks that completed with exit 0.
    pub ok: u64,
    /// Tasks that completed with nonzero exit, plus terminal failures.
    pub failed: u64,
    /// Retry attempts observed.
    pub retries: u64,
    /// Total tasks launched into the cluster model, by launch waves.
    pub launched_tasks: u64,
    /// Simulated nodes lost to injected crashes.
    pub nodes_down: u64,
    /// Tasks requeued onto surviving nodes by the resilient driver.
    pub requeued_tasks: u64,
}

/// Sentinel for "no spawn seen yet" in the first-spawn stamp.
const NO_SPAWN: u64 = u64::MAX;

/// Shard count for the runtime sample vectors (power of two; completions
/// land in `seq % RUNTIME_SHARDS`, so concurrent workers rarely collide
/// on one lock).
const RUNTIME_SHARDS: usize = 8;

/// Thread-safe aggregating sink. Attach it to a bus and read
/// [`MetricsRegistry::snapshot`] during or after the run.
///
/// `record` is on the engine's per-task hot path (several events per
/// task, from every worker thread), so all counters and gauges are
/// plain atomics; the launch rate keeps only the spawn count and the
/// first/last spawn stamps (all [`rate_over`] ever looked at) instead
/// of the full stamp vector. The only locks guard the runtime sample
/// shards, one taken per completed task (sharded by `seq` to keep
/// concurrent completions off each other's lock).
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Event::KINDS.len()],
    queue_depth: AtomicUsize,
    slot_busy: AtomicUsize,
    slot_total: AtomicUsize,
    spawn_count: AtomicU64,
    spawn_first_ns: AtomicU64,
    spawn_last_ns: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    launched_tasks: AtomicU64,
    nodes_down: AtomicU64,
    requeued_tasks: AtomicU64,
    /// Final-attempt runtimes of completed tasks, microseconds, sharded
    /// by `seq` so concurrent completions rarely share a lock.
    runtimes_us: [Mutex<Vec<u64>>; RUNTIME_SHARDS],
    /// In-parent launch costs from the process spawner, microseconds,
    /// sharded like `runtimes_us`.
    spawn_latency_us: [Mutex<Vec<u64>>; RUNTIME_SHARDS],
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_depth: AtomicUsize::new(0),
            slot_busy: AtomicUsize::new(0),
            slot_total: AtomicUsize::new(0),
            spawn_count: AtomicU64::new(0),
            spawn_first_ns: AtomicU64::new(NO_SPAWN),
            spawn_last_ns: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            launched_tasks: AtomicU64::new(0),
            nodes_down: AtomicU64::new(0),
            requeued_tasks: AtomicU64::new(0),
            runtimes_us: std::array::from_fn(|_| Mutex::new(Vec::new())),
            spawn_latency_us: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn shared() -> std::sync::Arc<MetricsRegistry> {
        std::sync::Arc::new(MetricsRegistry::new())
    }

    /// Count of events of one kind seen so far.
    pub fn counter(&self, kind: &str) -> u64 {
        Event::KINDS
            .iter()
            .position(|k| *k == kind)
            .map(|i| self.counters[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sustained launch rate: `spawned`-events-minus-one over the
    /// first→last spawn span — the same definition as
    /// `RateMeter::rate_per_sec`, so the two agree when fed the same
    /// launches. `None` with fewer than 2 spawns or zero span.
    pub fn launch_rate_sustained(&self) -> Option<f64> {
        rate_over(
            self.spawn_count.load(Ordering::Relaxed),
            self.spawn_first_ns.load(Ordering::Relaxed),
            self.spawn_last_ns.load(Ordering::Relaxed),
        )
    }

    /// Launches per second of bus lifetime (count over last stamp).
    pub fn launch_rate_overall(&self) -> Option<f64> {
        let count = self.spawn_count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let last = self.spawn_last_ns.load(Ordering::Relaxed) as f64 / 1e9;
        if last <= 0.0 {
            return None;
        }
        Some(count as f64 / last)
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Event::KINDS
                .iter()
                .zip(self.counters.iter())
                .filter_map(|(k, v)| {
                    let v = v.load(Ordering::Relaxed);
                    (v > 0).then(|| (k.to_string(), v))
                })
                .collect(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            slot_occupancy: (
                self.slot_busy.load(Ordering::Relaxed),
                self.slot_total.load(Ordering::Relaxed),
            ),
            runtime: {
                let mut samples = Vec::new();
                for shard in &self.runtimes_us {
                    samples.extend_from_slice(&shard.lock().expect("metrics poisoned"));
                }
                HistogramSummary::from_samples(&samples)
            },
            spawn_latency: {
                let mut samples = Vec::new();
                for shard in &self.spawn_latency_us {
                    samples.extend_from_slice(&shard.lock().expect("metrics poisoned"));
                }
                HistogramSummary::from_samples(&samples)
            },
            launch_rate: self.launch_rate_sustained(),
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            launched_tasks: self.launched_tasks.load(Ordering::Relaxed),
            nodes_down: self.nodes_down.load(Ordering::Relaxed),
            requeued_tasks: self.requeued_tasks.load(Ordering::Relaxed),
        }
    }
}

fn rate_over(count: u64, first_ns: u64, last_ns: u64) -> Option<f64> {
    if count < 2 || first_ns == NO_SPAWN {
        return None;
    }
    let span = last_ns.saturating_sub(first_ns) as f64 / 1e9;
    if span <= 0.0 {
        return None;
    }
    Some((count - 1) as f64 / span)
}

impl Sink for MetricsRegistry {
    fn record(&self, at: Duration, event: &Event) {
        self.counters[event.kind_index()].fetch_add(1, Ordering::Relaxed);
        match event {
            Event::Spawned { .. } => {
                let ns = at.as_nanos() as u64;
                self.spawn_count.fetch_add(1, Ordering::Relaxed);
                self.spawn_first_ns.fetch_min(ns, Ordering::Relaxed);
                self.spawn_last_ns.fetch_max(ns, Ordering::Relaxed);
            }
            Event::ShellBypass { seq, latency_us } | Event::ShFallback { seq, latency_us } => {
                self.spawn_latency_us[*seq as usize % RUNTIME_SHARDS]
                    .lock()
                    .expect("metrics poisoned")
                    .push(*latency_us);
            }
            Event::Completed { seq, exit, runtime } => {
                self.runtimes_us[*seq as usize % RUNTIME_SHARDS]
                    .lock()
                    .expect("metrics poisoned")
                    .push(runtime.as_micros() as u64);
                if *exit == 0 {
                    self.ok.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Event::Failed { .. } => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
            Event::Retried { .. } => {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            Event::QueueDepth { depth } => self.queue_depth.store(*depth, Ordering::Relaxed),
            Event::SlotOccupancy { busy, total } => {
                self.slot_busy.store(*busy, Ordering::Relaxed);
                self.slot_total.store(*total, Ordering::Relaxed);
            }
            Event::Launch { tasks, .. } => {
                self.launched_tasks.fetch_add(*tasks, Ordering::Relaxed);
            }
            Event::NodeDown { .. } => {
                self.nodes_down.fetch_add(1, Ordering::Relaxed);
            }
            Event::ShardRequeued { tasks, .. } => {
                self.requeued_tasks.fetch_add(*tasks, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LaunchMethod;

    fn feed(reg: &MetricsRegistry, at_us: u64, event: Event) {
        reg.record(Duration::from_micros(at_us), &event);
    }

    #[test]
    fn counters_and_tallies() {
        let reg = MetricsRegistry::new();
        feed(&reg, 0, Event::Queued { seq: 1 });
        feed(&reg, 1, Event::Spawned { seq: 1, slot: 1 });
        feed(
            &reg,
            2,
            Event::Completed {
                seq: 1,
                exit: 0,
                runtime: Duration::from_millis(3),
            },
        );
        feed(&reg, 3, Event::Queued { seq: 2 });
        feed(&reg, 4, Event::Spawned { seq: 2, slot: 2 });
        feed(&reg, 5, Event::Retried { seq: 2, attempt: 1 });
        feed(
            &reg,
            6,
            Event::Completed {
                seq: 2,
                exit: 1,
                runtime: Duration::from_millis(9),
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counters["queued"], 2);
        assert_eq!(snap.counters["spawned"], 2);
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(reg.counter("completed"), 2);
        assert_eq!(reg.counter("nonexistent"), 0);
    }

    #[test]
    fn gauges_track_latest_value() {
        let reg = MetricsRegistry::new();
        feed(&reg, 0, Event::QueueDepth { depth: 5 });
        feed(&reg, 1, Event::QueueDepth { depth: 2 });
        feed(&reg, 2, Event::SlotOccupancy { busy: 3, total: 8 });
        let snap = reg.snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.slot_occupancy, (3, 8));
    }

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let reg = MetricsRegistry::new();
        for ms in 1..=100u64 {
            feed(
                &reg,
                ms,
                Event::Completed {
                    seq: ms,
                    exit: 0,
                    runtime: Duration::from_micros(ms),
                },
            );
        }
        let h = reg.snapshot().runtime;
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert_eq!(h.p50, 50);
        assert_eq!(h.p95, 95);
        assert_eq!(h.p99, 99);
        assert!((h.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn launch_rate_matches_rate_meter_definition() {
        let reg = MetricsRegistry::new();
        // 11 spawns, 10 ms apart: sustained rate = 10 / 0.1 s = 100/s.
        for i in 0..11u64 {
            feed(&reg, i * 10_000, Event::Spawned { seq: i, slot: 1 });
        }
        let rate = reg.launch_rate_sustained().unwrap();
        assert!((rate - 100.0).abs() < 1e-6, "rate {rate}");
        let overall = reg.launch_rate_overall().unwrap();
        assert!((overall - 110.0).abs() < 1e-6, "overall {overall}");
    }

    #[test]
    fn launch_waves_accumulate() {
        let reg = MetricsRegistry::new();
        feed(
            &reg,
            0,
            Event::Launch {
                method: LaunchMethod::Srun,
                tasks: 100,
            },
        );
        feed(
            &reg,
            1,
            Event::Launch {
                method: LaunchMethod::Parallel,
                tasks: 900,
            },
        );
        assert_eq!(reg.snapshot().launched_tasks, 1000);
    }

    #[test]
    fn fault_counters_accumulate() {
        let reg = MetricsRegistry::new();
        feed(
            &reg,
            0,
            Event::NodeDown {
                node: 2,
                sim_time: 4.0,
            },
        );
        feed(
            &reg,
            1,
            Event::ShardRequeued {
                from_node: 2,
                to_node: 0,
                tasks: 40,
            },
        );
        feed(
            &reg,
            2,
            Event::ShardRequeued {
                from_node: 2,
                to_node: 1,
                tasks: 24,
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.nodes_down, 1);
        assert_eq!(snap.requeued_tasks, 64);
        assert_eq!(snap.counters["node_down"], 1);
        assert_eq!(snap.counters["shard_requeued"], 2);
    }

    #[test]
    fn net_events_count_by_kind() {
        let reg = MetricsRegistry::new();
        feed(
            &reg,
            0,
            Event::AgentConnected {
                agent: 0,
                slots: 16,
            },
        );
        feed(
            &reg,
            1,
            Event::ShardSent {
                agent: 0,
                tasks: 2500,
            },
        );
        feed(
            &reg,
            2,
            Event::ShardSent {
                agent: 1,
                tasks: 2500,
            },
        );
        feed(
            &reg,
            3,
            Event::AgentLost {
                agent: 1,
                outstanding: 7,
            },
        );
        feed(
            &reg,
            4,
            Event::FrameBytes {
                agent: 0,
                sent: 100,
                received: 200,
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counters["agent_connected"], 1);
        assert_eq!(snap.counters["shard_sent"], 2);
        assert_eq!(snap.counters["agent_lost"], 1);
        assert_eq!(snap.counters["frame_bytes"], 1);
    }

    #[test]
    fn spawn_path_counters_and_latency_histogram() {
        let reg = MetricsRegistry::new();
        for seq in 0..10u64 {
            feed(
                &reg,
                seq,
                Event::ShellBypass {
                    seq,
                    latency_us: 100 + seq,
                },
            );
        }
        feed(
            &reg,
            10,
            Event::ShFallback {
                seq: 10,
                latency_us: 400,
            },
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counters["shell_bypass"], 10);
        assert_eq!(snap.counters["sh_fallback"], 1);
        assert_eq!(snap.spawn_latency.count, 11);
        assert_eq!(snap.spawn_latency.min, 100);
        assert_eq!(snap.spawn_latency.max, 400);
        assert_eq!(reg.counter("shell_bypass"), 10);
    }

    #[test]
    fn empty_registry_snapshot() {
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(snap.runtime.count, 0);
        assert_eq!(snap.launch_rate, None);
        assert!(snap.counters.is_empty());
    }
}
