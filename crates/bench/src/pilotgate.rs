//! The pilot gate's workload: sustained multi-session throughput, p99
//! time-to-first-task, and weighted fair-share accuracy.
//!
//! `htpar serve` (DESIGN.md §13) multiplexes many client sessions onto
//! one persistent agent fleet. This workload keeps three promises honest:
//!
//! 1. **Session throughput** — waves of concurrent sessions through a
//!    real `--local-cluster 4` fleet must sustain a committed
//!    sessions-per-second floor (the pilot exists to amortize fleet
//!    startup; if opening a session is slow, it amortizes nothing).
//! 2. **Time-to-first-task** — p99 latency from `Submit` to the first
//!    completion delivered back must stay under a committed ceiling
//!    (admission plus scheduling plus dispatch plus one task).
//! 3. **Fair share** — on a 3-tenant 1:2:4 shape with saturated
//!    backlogs, each tenant's share of dispatched tasks must land
//!    within a committed tolerance of its weight share.
//!
//! The rows live in [`crate::harness::GATES`] under `pilot`; a
//! handicap slows every throughput-phase task, the drill proving the
//! gate trips.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use htpar_net::client::{ClientEvent, SessionClient, SessionConfig};
use htpar_net::frame::Payload;
use htpar_net::serve::{PilotServer, ServeConfig};
use htpar_telemetry::{Event, EventBus, Recorder};

use crate::harness::{join_by, rate, Ctx, Metrics, PHASE_DEADLINE};
use crate::netgate::payload;

/// Agent subprocesses in the gate fleet (the ISSUE's canonical shape).
pub const PILOT_GATE_AGENTS: usize = 4;
/// Engine slots per agent.
pub const PILOT_GATE_JOBS: u32 = 4;
/// Concurrent client sessions per wave.
pub const PILOT_GATE_CONCURRENCY: usize = 8;
/// Sequential sessions per client thread (total = 8 × 3 = 24).
pub const PILOT_GATE_WAVES: usize = 3;
/// Tasks submitted by each throughput-phase session.
pub const PILOT_GATE_TASKS_PER_SESSION: u64 = 500;
/// Tasks per tenant in the fairness phase.
pub const PILOT_GATE_FAIR_TASKS: u64 = 3_000;
/// Per-task sleep in the fairness phase: slow enough that all three
/// backlogs stay saturated for the whole measurement window, fast
/// enough that the phase finishes in well under a second.
pub const PILOT_GATE_FAIR_TASK_US: u64 = 400;
/// Fairness-phase tenant weights (the ISSUE's 1:2:4 shape).
pub const FAIR_WEIGHTS: [u32; 3] = [1, 2, 4];

/// Fresh journal dir for one gate phase. Both phases run with
/// `state_dir` set: journaling fsyncs on every admission, so the
/// committed floors must hold in the durable configuration, not just
/// the in-memory one. Each call gets its own dir: gates running at once
/// in one process must never share a journal, or one pilot recovers
/// the other's live sessions and waits on them forever.
fn gate_state_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "htpar-pilot-gate-{tag}-{}-{call}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one complete session of `tasks` tasks, submitted once every
/// session sharing `start` has connected, and return its
/// time-to-first-task.
fn run_session(config: SessionConfig, tasks: u64, start: &Barrier) -> Result<Duration, String> {
    let mut client = SessionClient::connect(config).map_err(|e| format!("connect: {e}"))?;
    let inputs: Vec<Vec<String>> = (1..=tasks).map(|i| vec![i.to_string()]).collect();
    start.wait();
    let submitted = Instant::now();
    let verdict = client.submit(&inputs).map_err(|e| format!("submit: {e}"))?;
    if !verdict.accepted {
        return Err(format!("admission refused: {}", verdict.reason));
    }
    let mut ttft = None;
    while client.completed() < tasks {
        match client.recv().map_err(|e| format!("recv: {e}"))? {
            ClientEvent::Done(_) => {
                ttft.get_or_insert_with(|| submitted.elapsed());
            }
            other => return Err(format!("unexpected event {other:?}")),
        }
    }
    let completed = client.finish().map_err(|e| format!("finish: {e}"))?;
    if completed != tasks {
        return Err(format!("completed {completed}/{tasks}"));
    }
    ttft.ok_or_else(|| "no completions observed".to_string())
}

/// Run one gate phase: a journaled pilot over a fresh mini-cluster
/// (the pilot drains its fleet on exit) serves `sessions` sessions on
/// its own thread while `drive` runs the clients against its spec,
/// every join bounded by the phase deadline. Each session checks its
/// own completions; this returns what `drive` returned.
fn phase<T>(
    ctx: &Ctx,
    tag: &str,
    sessions: usize,
    bus: Option<Arc<EventBus>>,
    drive: impl FnOnce(&str, Instant) -> Result<T, String>,
) -> Result<T, String> {
    // Dropped on return: a drained fleet is exiting, and the drop kills
    // any straggler and reaps it without an unbounded wait.
    let cluster = ctx.cluster(PILOT_GATE_AGENTS)?;
    let state_dir = gate_state_dir(tag);
    let mut config = ServeConfig::new(cluster.specs.clone(), "127.0.0.1:0");
    config.jobs_per_agent = PILOT_GATE_JOBS;
    config.max_sessions = Some(sessions as u64);
    config.state_dir = Some(state_dir.clone());
    config.bus = bus;
    let server = PilotServer::bind(config).map_err(|e| format!("pilot bind: {e}"))?;
    let spec = server
        .local_spec()
        .map_err(|e| format!("pilot spec: {e}"))?;
    let serve = std::thread::spawn(move || server.run(None));
    let deadline = Instant::now() + PHASE_DEADLINE;
    let driven = drive(&spec, deadline)?;
    join_by(serve, deadline, &format!("{tag} serve loop"))?.map_err(|e| format!("serve: {e}"))?;
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(driven)
}

/// Throughput phase: `PILOT_GATE_CONCURRENCY` client threads, each
/// running `PILOT_GATE_WAVES` sessions back-to-back against one
/// persistent pilot. Returns (wall, per-session TTFTs).
fn measure_throughput(ctx: &Ctx) -> Result<(Duration, Vec<Duration>), String> {
    let sessions = PILOT_GATE_CONCURRENCY * PILOT_GATE_WAVES;
    let payload = payload(ctx.handicap);
    phase(ctx, "throughput", sessions, None, |spec, deadline| {
        let started = Instant::now();
        let workers: Vec<_> = (0..PILOT_GATE_CONCURRENCY)
            .map(|w| {
                let spec = spec.to_string();
                std::thread::spawn(move || -> Result<Vec<Duration>, String> {
                    let alone = Barrier::new(1);
                    let mut ttfts = Vec::with_capacity(PILOT_GATE_WAVES);
                    for wave in 0..PILOT_GATE_WAVES {
                        let mut config = SessionConfig::new(&spec, format!("client-{w}-{wave}"));
                        config.payload = payload;
                        ttfts.push(run_session(config, PILOT_GATE_TASKS_PER_SESSION, &alone)?);
                    }
                    Ok(ttfts)
                })
            })
            .collect();
        let mut ttfts = Vec::with_capacity(sessions);
        for worker in workers {
            ttfts.extend(join_by(worker, deadline, "throughput client")??);
        }
        Ok((started.elapsed(), ttfts))
    })
}

/// Fairness phase: three tenants with weights 1:2:4 submit identical
/// saturating backlogs; the dispatched-task share of each tenant over
/// the contended window (everyone backlogged) must track its weight
/// share. Returns the max relative deviation.
fn measure_fairness(ctx: &Ctx) -> Result<f64, String> {
    let recorder = Recorder::shared();
    let bus = Arc::new(EventBus::new());
    bus.attach(recorder.clone());
    let tenants = FAIR_WEIGHTS.len();
    phase(ctx, "fairness", tenants, Some(bus), |spec, deadline| {
        // All three Submits race within a barrier-width of each other so
        // no tenant gets a meaningful head start on the backlog window.
        let barrier = Arc::new(Barrier::new(tenants));
        let clients: Vec<_> = FAIR_WEIGHTS
            .iter()
            .map(|&weight| {
                let mut config = SessionConfig::new(spec, format!("fair-{weight}x"));
                config.weight = weight;
                config.payload = Payload::SleepUs(PILOT_GATE_FAIR_TASK_US);
                let barrier = barrier.clone();
                std::thread::spawn(move || run_session(config, PILOT_GATE_FAIR_TASKS, &barrier))
            })
            .collect();
        for client in clients {
            join_by(client, deadline, "fairness client")??;
        }
        Ok(())
    })?;

    // Walk dispatch events chronologically; the contended window ends
    // when the first tenant's backlog is exhausted (after that, the
    // survivors split the fleet among themselves and shares shift by
    // design).
    let mut granted = vec![0u64; FAIR_WEIGHTS.len()];
    for event in recorder.events() {
        if let Event::TenantShardSent { tenant, tasks, .. } = event {
            let Some(idx) = FAIR_WEIGHTS
                .iter()
                .position(|w| tenant == format!("fair-{w}x"))
            else {
                continue;
            };
            granted[idx] += tasks;
            if granted[idx] >= PILOT_GATE_FAIR_TASKS {
                break;
            }
        }
    }
    let total: u64 = granted.iter().sum();
    if total == 0 {
        return Err("no dispatch events recorded".to_string());
    }
    let weight_sum: u32 = FAIR_WEIGHTS.iter().sum();
    let mut worst = 0f64;
    for (i, &weight) in FAIR_WEIGHTS.iter().enumerate() {
        let expected = weight as f64 / weight_sum as f64;
        let actual = granted[i] as f64 / total as f64;
        worst = worst.max((actual - expected).abs() / expected);
    }
    Ok(worst)
}

/// One gate trial: both phases, each on agents from `ctx`'s agent
/// binary. The handicap slows the throughput phase's tasks.
pub(crate) fn trial(ctx: &Ctx) -> Result<Metrics, String> {
    let (wall, mut ttfts) = measure_throughput(ctx)?;
    let fairness_err = measure_fairness(ctx)?;
    ttfts.sort_unstable();
    let p99_idx = ((ttfts.len() as f64 * 0.99).ceil() as usize).clamp(1, ttfts.len()) - 1;
    let sessions = PILOT_GATE_CONCURRENCY * PILOT_GATE_WAVES;
    Ok(vec![
        ("sessions_per_s", rate(sessions as u64, wall)),
        ("p99_ttft_ms", ttfts[p99_idx].as_secs_f64() * 1e3),
        ("fairness_err", fairness_err),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_applies_all_three_floors() {
        let good = [
            ("sessions_per_s", 100.0),
            ("p99_ttft_ms", 1.0),
            ("fairness_err", 0.01),
        ];
        assert!(crate::harness::check("pilot", &good).is_ok());
        // An unreported metric counts as NaN, which misses every row.
        assert!(crate::harness::check("pilot", &good[..2]).is_err());
        for (i, bad) in [1.0, 10_000.0, 0.5].into_iter().enumerate() {
            let mut metrics = good;
            metrics[i].1 = bad;
            let err = crate::harness::check("pilot", &metrics).unwrap_err();
            assert!(err.contains(metrics[i].0), "{err}");
        }
    }

    #[test]
    fn payload_honors_handicap_grammar() {
        // The pilot drill's handicap reaches every throughput-phase task
        // as a sleep of exactly `drill_us`; a clean trial runs no-ops.
        let drill_us = crate::harness::find("pilot")
            .and_then(|g| g.drill_us)
            .expect("the pilot gate has a drill");
        let drill = Some(Duration::from_micros(drill_us));
        assert_eq!(payload(drill), Payload::SleepUs(drill_us));
        assert_eq!(payload(None), Payload::Noop);
    }

    #[test]
    fn gate_state_dirs_are_unique_per_call() {
        // Gates running at once in one process use the same tags.
        assert_ne!(gate_state_dir("throughput"), gate_state_dir("throughput"));
    }
}
