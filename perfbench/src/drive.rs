//! `drive_noop`: the paper's Listing 1 shape. `run_driver` shards a
//! preloaded argument list over a `LocalCluster` of `nproc` agents at
//! `-j 1`, running `Payload::Noop`, with the aggregated joblog on.

use std::process::Command;
use std::time::{Duration, Instant};

use htpar_net::driver::{run_driver, DriveOutcome, DriverConfig};
use htpar_net::frame::Payload;
use htpar_net::local::LocalCluster;

use crate::check;
use crate::gen::{self, Rng};
use crate::layers::{Inputs, Layers, SlotTime};
use crate::stats::median;
use crate::trace::{Counts, Span, Tracer};
use crate::util::{with_deadline, Outcome};
use crate::{Ctx, TEMPLATE};

/// Deadlines on one drive and on the fleet's exit after it.
const DRIVE_DEADLINE: Duration = Duration::from_secs(60);
const TEARDOWN_DEADLINE: Duration = Duration::from_secs(20);

/// Spawn `n` agents re-executing this binary: the set-up of every
/// socket-path workload.
pub fn spawn_cluster(ctx: &Ctx, n: usize) -> Result<LocalCluster, String> {
    let exe = ctx.exe.clone();
    let base = move || {
        let mut cmd = Command::new(&exe);
        cmd.env_remove(htpar_net::ENV_NET_CORE);
        cmd
    };
    with_deadline("cluster spawn", TEARDOWN_DEADLINE, move || {
        LocalCluster::spawn_with(n, base)
    })?
    .map_err(|e| format!("spawning agents: {e}"))
}

/// Wait for a drained fleet to exit.
pub fn teardown(mut cluster: LocalCluster) -> Result<(), String> {
    let agents = cluster.len();
    let clean = with_deadline("cluster teardown", TEARDOWN_DEADLINE, move || {
        cluster.join()
    })?;
    if clean != agents {
        return Err(format!(
            "{} of {agents} agents exited uncleanly",
            agents - clean
        ));
    }
    Ok(())
}

pub fn run(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let n = if ctx.tiny { 2_000 } else { 50_000 };
    let (counts, bus) = Counts::on_bus();
    let (mut untraced, mut traced, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut slot_time = SlotTime::default();
    let (mut peak_queue, mut skews, mut dups) = (0u64, Vec::new(), 0u64);
    let mut last = Inputs::new(TEMPLATE, Vec::new(), Vec::new());
    let since = Instant::now();
    let mut round = 0usize;
    while ctx.another_round(since, round) {
        let is_traced = ctx.traced(round);
        let args = gen::path_args(&mut Rng::new(ctx.seed, "args", round as u64), n);
        let dir = ctx.dir.sub(&format!("r{round}"))?;
        let joblog = dir.join("joblog");

        let setup_start = Instant::now();
        let cluster = spawn_cluster(ctx, ctx.slots)?;
        let setup_end = Instant::now();
        setups.push(setup_end.duration_since(setup_start).as_secs_f64());
        if is_traced {
            tracer.leaf("setup", setup_start, setup_end);
        }

        let mut config = DriverConfig::new(cluster.specs.clone(), TEMPLATE);
        config.jobs_per_agent = 1;
        config.payload = Payload::Noop;
        config.joblog = Some(joblog.clone());
        config.core = htpar_net::NetCore::Reactor;
        config.bus = is_traced.then(|| bus.clone());
        let inputs: Vec<Vec<String>> = args.iter().map(|a| vec![a.clone()]).collect();
        let (outcome, start, end) = with_deadline("drive", DRIVE_DEADLINE, move || {
            let start = Instant::now();
            let outcome = run_driver(&config, &inputs, None);
            (outcome, start, Instant::now())
        })?;
        let outcome: DriveOutcome = outcome.map_err(|e| format!("drive: {e}"))?;
        teardown(cluster)?;

        out.attempted += n as u64;
        if outcome.completed != n as u64 {
            out.fail(
                n as u64 - outcome.completed.min(n as u64),
                format!(
                    "round {round}: drive completed {} of {n}",
                    outcome.completed
                ),
            );
        }
        let rows = match check::joblog_exactly_once(&joblog, n as u64) {
            Ok(rows) => rows,
            Err((bad, why)) => {
                out.fail(bad, format!("round {round}: {why}"));
                Vec::new()
            }
        };
        let rate = (n as f64, end.duration_since(start).as_secs_f64());
        if is_traced {
            traced.push(rate);
            let parent = Span {
                layer: "driver",
                track: 0,
                width: ctx.slots,
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
            };
            slot_time.add(&parent, &[], n as u64);
            tracer.account(parent, &[], true);
            let done: Vec<u64> = outcome.agents.iter().map(|a| a.done).collect();
            let (hi, lo) = (done.iter().max().copied(), done.iter().min().copied());
            if let (Some(hi), Some(lo)) = (hi, lo) {
                skews.push(hi as f64 / lo.max(1) as f64);
            }
            peak_queue = peak_queue.max(
                outcome
                    .agents
                    .iter()
                    .map(|a| a.peak_queue_bytes)
                    .max()
                    .unwrap_or(0),
            );
            dups += outcome.duplicates;
        } else {
            untraced.push(rate);
        }
        if !rows.is_empty() {
            last = Inputs::new(TEMPLATE, args, rows);
        }
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    layers.rates(&untraced, &traced);
    layers.setup_s = median(&setups);

    out.note(format!(
        "drive_noop seed={} agents={} x -j1 rounds={round} round_tasks={n} tasks={}",
        ctx.seed, ctx.slots, out.attempted
    ));
    layers.note_end_to_end(
        out,
        &untraced,
        "untraced drives, connect and drain included",
        &setups,
        "agent fleet spawns",
    );
    if ctx.trace {
        layers.slot_time(&slot_time);
        let tasks = slot_time.tasks.max(1) as f64;
        layers.frame_bytes_per_task = Counts::get(&counts.frame_bytes) as f64 / tasks;
        layers.tasks_per_shard =
            Counts::get(&counts.shard_tasks) as f64 / Counts::get(&counts.shards).max(1) as f64;
        layers.peak_queue_bytes = peak_queue as f64;
        layers.agent_skew = median(&skews);
        layers.duplicate_frac = dups as f64 / tasks;
        for (name, v) in [
            (
                "runner.overhead_ns_per_task",
                format!(
                    "{:.1} ns of agent slot time per task (agents are opaque)",
                    layers.overhead_ns_per_task
                ),
            ),
            (
                "frame.bytes_per_task",
                format!("{:.2} bytes", layers.frame_bytes_per_task),
            ),
            (
                "driver.tasks_per_shard",
                format!("{:.1}", layers.tasks_per_shard),
            ),
            (
                "driver.peak_queue_bytes",
                format!("{}", layers.peak_queue_bytes),
            ),
            ("driver.agent_skew", format!("{:.4}", layers.agent_skew)),
            (
                "driver.duplicate_frac",
                format!("{}", layers.duplicate_frac),
            ),
        ] {
            out.note(format!("  {name:<28} {v}"));
        }
    }
    Ok(last)
}
