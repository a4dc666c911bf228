//! Launch-rate measurement.
//!
//! Fig. 3 of the paper is "tasks launched per second" as a function of
//! instances × `-j`; [`RateMeter`] records launch timestamps and computes
//! the sustained rate the same way: completed launches over elapsed wall
//! time, with percentile inter-launch gaps available for diagnosis.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Thread-safe recorder of event timestamps.
pub struct RateMeter {
    start: Instant,
    stamps: Mutex<Vec<Duration>>,
}

impl Default for RateMeter {
    fn default() -> Self {
        RateMeter::new()
    }
}

impl RateMeter {
    /// Start the clock now.
    pub fn new() -> RateMeter {
        RateMeter {
            start: Instant::now(),
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Record one event at the current instant.
    pub fn record(&self) {
        let t = self.start.elapsed();
        self.stamps.lock().push(t);
    }

    /// Number of events recorded.
    pub fn count(&self) -> usize {
        self.stamps.lock().len()
    }

    /// Sustained rate: events per second between the first and last event.
    /// `None` with fewer than 2 events.
    pub fn rate_per_sec(&self) -> Option<f64> {
        let stamps = self.stamps.lock();
        if stamps.len() < 2 {
            return None;
        }
        let first = *stamps.iter().min().expect("nonempty");
        let last = *stamps.iter().max().expect("nonempty");
        let span = (last - first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some((stamps.len() - 1) as f64 / span)
    }

    /// Sorted inter-event gaps in seconds (empty with fewer than 2 events).
    pub fn gaps(&self) -> Vec<f64> {
        let mut stamps = self.stamps.lock().clone();
        stamps.sort();
        stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }
}

/// Summary of one completed run, computed by the runner.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub launched: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub skipped: u64,
    pub wall: Duration,
    /// Launches per second of wall time.
    pub launch_rate: f64,
    /// Sum of individual job runtimes (CPU-side parallelism measure).
    pub busy: Duration,
}

impl RunSummary {
    /// Parallel efficiency proxy: total busy time / (wall × slots).
    pub fn utilization(&self, slots: usize) -> f64 {
        let denom = self.wall.as_secs_f64() * slots as f64;
        if denom <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / denom).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_has_no_rate() {
        let m = RateMeter::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.rate_per_sec(), None);
        assert!(m.gaps().is_empty());
    }

    #[test]
    fn records_and_counts() {
        let m = RateMeter::new();
        for _ in 0..5 {
            m.record();
        }
        assert_eq!(m.count(), 5);
        assert_eq!(m.gaps().len(), 4);
    }

    #[test]
    fn rate_reflects_spacing() {
        let m = RateMeter::new();
        m.record();
        std::thread::sleep(Duration::from_millis(50));
        m.record();
        let rate = m.rate_per_sec().unwrap();
        // 1 gap over ~50 ms => ~20/s, generously bounded for CI jitter.
        assert!(rate > 5.0 && rate < 40.0, "rate {rate}");
    }

    #[test]
    fn utilization_bounds() {
        let s = RunSummary {
            launched: 4,
            succeeded: 4,
            failed: 0,
            skipped: 0,
            wall: Duration::from_secs(1),
            launch_rate: 4.0,
            busy: Duration::from_secs(2),
        };
        assert!((s.utilization(2) - 1.0).abs() < 1e-9);
        assert!((s.utilization(4) - 0.5).abs() < 1e-9);
        let zero_wall = RunSummary {
            wall: Duration::ZERO,
            ..s
        };
        assert_eq!(zero_wall.utilization(2), 0.0);
    }
}
