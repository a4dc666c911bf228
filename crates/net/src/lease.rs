//! Heartbeat leases: the driver's failure detector.
//!
//! Every inbound frame from an agent (heartbeats, but also `DoneBatch`
//! traffic — a busy agent should never be declared dead for skipping a
//! heartbeat tick) renews that agent's lease. The fleet's lease sweep
//! polls [`LeaseTracker::expired`]; an agent whose lease has gone stale
//! for longer than the configured window is treated exactly like a
//! closed socket: its unfinished work is re-sharded onto survivors.

use std::time::Instant;

/// Tracks the last-heard-from time of each agent, in milliseconds since
/// tracker creation. The reactor thread that decodes an agent's frames
/// is the one that renews and sweeps its lease.
pub struct LeaseTracker {
    epoch: Instant,
    last_heard_ms: Vec<u64>,
}

impl LeaseTracker {
    /// Track `n` agents, all leases fresh as of now.
    pub fn new(n: usize) -> LeaseTracker {
        LeaseTracker {
            epoch: Instant::now(),
            last_heard_ms: vec![0; n],
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Renew `agent`'s lease (any inbound frame counts).
    pub fn touch(&mut self, agent: usize) {
        self.last_heard_ms[agent] = self.now_ms();
    }

    /// Milliseconds since `agent` was last heard from.
    pub fn silence_ms(&self, agent: usize) -> u64 {
        let now = self.now_ms();
        now.saturating_sub(self.last_heard_ms[agent])
    }

    /// Whether `agent`'s lease is older than `window_ms`.
    pub fn expired(&self, agent: usize, window_ms: u64) -> bool {
        self.silence_ms(agent) > window_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_leases_are_live() {
        let t = LeaseTracker::new(3);
        for i in 0..3 {
            assert!(!t.expired(i, 50));
        }
    }

    #[test]
    fn silence_expires_a_lease_and_touch_renews_it() {
        let mut t = LeaseTracker::new(2);
        std::thread::sleep(Duration::from_millis(40));
        t.touch(1);
        assert!(t.expired(0, 20), "agent 0 went silent");
        assert!(!t.expired(1, 20), "agent 1 renewed");
        assert!(t.silence_ms(0) >= t.silence_ms(1));
    }
}
