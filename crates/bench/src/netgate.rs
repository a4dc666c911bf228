//! The net gate's workload: mini-cluster dispatch priced against
//! in-process dispatch.
//!
//! The network subsystem (DESIGN.md §12) adds framing, syscalls, and
//! process hops to every task. This workload keeps that overhead
//! honest: it drives the canonical no-op workload through a real
//! `--local-cluster 8 -j 8` mini-cluster (eight agent subprocesses,
//! Unix/TCP sockets, the full driver protocol) and compares the
//! achieved rate against the in-process dispatch rate of
//! [`crate::gate::measure`] on the same task count and total slot
//! count. The `net` row in [`crate::harness::GATES`] caps
//! `in-process rate / socket rate` — a *relative* floor, so it tracks
//! the machine instead of assuming one.

use std::time::Duration;

use htpar_net::driver::{run_driver, DriverConfig};
use htpar_net::frame::Payload;

use crate::gate;
use crate::harness::{rate, Ctx, Metrics};

/// Agent subprocesses in the canonical gate workload.
pub const NET_GATE_AGENTS: usize = 8;
/// Job slots per agent (`-j` in the handshake); total slots match the
/// in-process reference (8 × 8 = 64 = `gate::GATE_JOBS`).
pub const NET_GATE_JOBS_PER_AGENT: u32 = 8;
/// Task count of the canonical gate workload.
pub const NET_GATE_TASKS: u64 = 100_000;

/// The payload agents run: no-ops, or a sleep of `handicap` per task.
pub(crate) fn payload(handicap: Option<Duration>) -> Payload {
    handicap.map_or(Payload::Noop, |d| Payload::SleepUs(d.as_micros() as u64))
}

/// One gate trial: drive the canonical workload through a mini-cluster
/// spawned from `ctx`'s agent binary, then measure the in-process
/// reference on the same machine moments later. The handicap applies
/// to the agents only; the reference runs clean.
pub(crate) fn trial(ctx: &Ctx) -> Result<Metrics, String> {
    let cluster = ctx.cluster(NET_GATE_AGENTS)?;
    let inputs: Vec<Vec<String>> = (1..=NET_GATE_TASKS).map(|i| vec![i.to_string()]).collect();
    let mut config = DriverConfig::new(cluster.specs.clone(), "noop {}");
    config.jobs_per_agent = NET_GATE_JOBS_PER_AGENT;
    config.payload = payload(ctx.handicap);
    let outcome = run_driver(&config, &inputs, None).map_err(|e| format!("driving: {e}"))?;
    // The drained agents are exiting; dropping the cluster kills any
    // straggler and reaps them all without an unbounded wait.
    drop(cluster);
    if outcome.completed != NET_GATE_TASKS {
        return Err(format!(
            "gate drive completed {}/{NET_GATE_TASKS} tasks",
            outcome.completed
        ));
    }
    // Same tasks, same total slot count, no bus: pure dispatch cost.
    let slots = NET_GATE_AGENTS * NET_GATE_JOBS_PER_AGENT as usize;
    let (inproc_wall, _) = gate::measure(slots, NET_GATE_TASKS, false, None);
    let socket = outcome.tasks_per_sec();
    let inproc = rate(NET_GATE_TASKS, inproc_wall);
    Ok(vec![
        ("slowdown", inproc / socket.max(1e-9)),
        ("socket_tasks_per_s", socket),
        ("inproc_tasks_per_s", inproc),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_honors_handicap_grammar() {
        assert_eq!(payload(None), Payload::Noop);
        assert_eq!(
            payload(Some(Duration::from_millis(3))),
            Payload::SleepUs(3_000)
        );
    }
}
