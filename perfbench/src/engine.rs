//! `flat_noop` and `spawn_true`: preloaded argument lists through
//! `Engine::run` at `-j nproc` with a joblog, on the in-process no-op
//! executor or on real `/bin/true` launches through `ProcessExecutor`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_core::executor::{Executor, FnExecutor, ProcessExecutor};
use htpar_core::job::JobResult;
use htpar_core::options::Options;
use htpar_core::runner::{Engine, JobInput, ResultCallback, RunReport};
use htpar_core::template::Template;
use htpar_telemetry::EventBus;

use crate::check;
use crate::gen::{self, Rng};
use crate::layers::{Inputs, Layers, SlotTime};
use crate::stats::{median, Dist};
use crate::trace::{Counts, Span, TaskStamps, TimedExecutor, Tracer};
use crate::util::{show, with_deadline, Outcome};
use crate::{Ctx, TEMPLATE};

const SPAWN_TEMPLATE: &str = "/bin/true {}";
/// Deadline on one engine run.
const ROUND_DEADLINE: Duration = Duration::from_secs(60);
/// Latency samples kept per traced round (evenly strided).
const SAMPLES_PER_ROUND: usize = 20_000;

struct Plan {
    spawn: bool,
    round_tasks: usize,
}

fn plan(spawn: bool, tiny: bool) -> Plan {
    match (spawn, tiny) {
        (false, false) => Plan {
            spawn,
            round_tasks: 50_000,
        },
        (true, false) => Plan {
            spawn,
            round_tasks: 400,
        },
        (false, true) => Plan {
            spawn,
            round_tasks: 2_000,
        },
        (true, true) => Plan {
            spawn,
            round_tasks: 20,
        },
    }
}

fn args_for(p: &Plan, rng: &mut Rng, n: usize) -> Vec<String> {
    if p.spawn {
        gen::spawn_args(rng, n)
    } else {
        gen::path_args(rng, n)
    }
}

/// The workload's engine over `executor`, logging to `joblog`.
fn engine(
    p: &Plan,
    slots: usize,
    joblog: std::path::PathBuf,
    executor: Arc<dyn Executor>,
    on_result: Option<ResultCallback>,
    bus: Option<Arc<EventBus>>,
) -> Engine {
    Engine {
        options: Options {
            jobs: slots,
            shell: p.spawn,
            joblog: Some(joblog),
            ..Options::default()
        },
        template: Template::parse(if p.spawn { SPAWN_TEMPLATE } else { TEMPLATE })
            .expect("benchmark templates parse"),
        executor,
        on_result,
        skip: HashSet::new(),
        gate: None,
        bus,
    }
}

fn base_executor(p: &Plan, bus: Option<Arc<EventBus>>) -> Arc<dyn Executor> {
    match (p.spawn, bus) {
        (false, _) => Arc::new(FnExecutor::noop()),
        (true, None) => Arc::new(ProcessExecutor::shell()),
        (true, Some(bus)) => Arc::new(ProcessExecutor::shell().observed(bus)),
    }
}

fn timed_run(
    engine: Engine,
    inputs: Vec<JobInput>,
) -> Result<(RunReport, Instant, Instant), String> {
    with_deadline("engine run", ROUND_DEADLINE, move || {
        let start = Instant::now();
        let report = engine.run(Box::new(inputs.into_iter()));
        (report, start, Instant::now())
    })
    .and_then(|(r, s, e)| r.map(|r| (r, s, e)).map_err(|e| format!("engine: {e}")))
}

/// Keep every `k`-th of `v` so at most `cap` remain.
fn strided(v: Vec<f64>, cap: usize) -> impl Iterator<Item = f64> {
    let k = v.len().div_ceil(cap).max(1);
    v.into_iter().step_by(k)
}

pub fn run(
    ctx: &Ctx,
    spawn: bool,
    out: &mut Outcome,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let p = plan(spawn, ctx.tiny);
    let (counts, bus) = Counts::on_bus();
    let (mut untraced, mut traced, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut exec_us, mut lag_us) = (Dist::default(), Dist::default());
    let mut slot_time = SlotTime::default();
    let mut last = Inputs::new(TEMPLATE, Vec::new(), Vec::new());
    let mut tasks_done = 0u64;
    let since = Instant::now();
    let mut round = 0usize;
    while ctx.another_round(since, round) {
        let is_traced = ctx.traced(round);
        let n = p.round_tasks;
        let args = args_for(&p, &mut Rng::new(ctx.seed, "args", round as u64), n);
        let dir = ctx.dir.sub(&format!("r{round}"))?;
        let joblog = dir.join("joblog");
        let stamps = is_traced.then(|| TaskStamps::new(ctx.origin, n));
        // Set-up: the executor, the engine and its preloaded input list.
        let setup_start = Instant::now();
        let base = base_executor(&p, is_traced.then(|| bus.clone()));
        let (executor, on_result): (Arc<dyn Executor>, Option<ResultCallback>) = match &stamps {
            None => (base, None),
            Some(st) => {
                let hook = st.clone();
                (
                    Arc::new(TimedExecutor {
                        inner: base,
                        stamps: st.clone(),
                    }),
                    Some(Arc::new(move |r: &JobResult| hook.collect(r.seq))),
                )
            }
        };
        let e = engine(
            &p,
            ctx.slots,
            joblog.clone(),
            executor,
            on_result,
            is_traced.then(|| bus.clone()),
        );
        let inputs: Vec<JobInput> = args
            .iter()
            .enumerate()
            .map(|(i, a)| JobInput::new(i as u64 + 1, vec![a.clone()]))
            .collect();
        if !is_traced {
            setups.push(setup_start.elapsed().as_secs_f64());
        }
        let (report, start, end) = timed_run(e, inputs)?;
        let wall = end.duration_since(start);
        out.attempted += n as u64;
        tasks_done += n as u64;
        if report.succeeded != n as u64 {
            out.fail(
                n as u64 - report.succeeded,
                format!("round {round}: {} of {n} tasks succeeded", report.succeeded),
            );
        }
        drop(report);
        let rows = match check::joblog_exactly_once(&joblog, n as u64) {
            Ok(rows) => rows,
            Err((bad, why)) => {
                out.fail(bad, format!("round {round}: {why}"));
                Vec::new()
            }
        };
        let rate = (n as f64, wall.as_secs_f64());
        if let Some(st) = stamps {
            traced.push(rate);
            let spans = st.exec_spans("executor");
            let parent = Span {
                layer: "runner",
                track: 0,
                width: ctx.slots,
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
            };
            slot_time.add(&parent, &spans, n as u64);
            exec_us.extend(strided(
                spans.iter().map(|s| s.dur_ns() as f64 / 1e3).collect(),
                SAMPLES_PER_ROUND,
            ));
            lag_us.extend(strided(st.collect_lags_us(), SAMPLES_PER_ROUND));
            tracer.account(parent, &spans, true);
        } else {
            untraced.push(rate);
        }
        if !rows.is_empty() {
            last = Inputs::new(if p.spawn { SPAWN_TEMPLATE } else { TEMPLATE }, args, rows);
        }
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    layers.rates(&untraced, &traced);
    layers.setup_s = median(&setups);

    out.note(format!(
        "{} seed={} slots={} rounds={round} round_tasks={} tasks={tasks_done}",
        ctx.workload.name(),
        ctx.seed,
        ctx.slots,
        p.round_tasks
    ));
    layers.note_end_to_end(
        out,
        &untraced,
        "untraced rounds",
        &setups,
        "untraced round set-ups",
    );
    if ctx.trace {
        layers.slot_time(&slot_time);
        layers.collector_backlog_max = Counts::get(&counts.backlog_max) as f64;
        let (bypass, fallback) = (Counts::get(&counts.bypass), Counts::get(&counts.fallback));
        layers.bypass_frac = bypass as f64 / (bypass + fallback).max(1) as f64;
        let (e50, e99) = exec_us.p50_p99();
        let (l50, l99) = lag_us.p50_p99();
        for (name, v) in [
            (
                "runner.overhead_ns_per_task",
                format!("{:.1} ns", layers.overhead_ns_per_task),
            ),
            (
                "runner.slot_busy_frac",
                format!("{:.4}", layers.slot_busy_frac),
            ),
            (
                "runner.collector_backlog_max",
                format!("{}", layers.collector_backlog_max),
            ),
            ("runner.collect_lag_us_p50", show(l50, "us")),
            ("runner.collect_lag_us_p99", show(l99, "us")),
            ("spawn.execute_us_p50", show(e50, "us")),
            ("spawn.execute_us_p99", show(e99, "us")),
            (
                "spawn.bypass_frac",
                format!(
                    "{:.4} ({bypass} bypassed, {fallback} via sh -c)",
                    layers.bypass_frac
                ),
            ),
        ] {
            out.note(format!("  {name:<28} {v}"));
        }
        out.note(format!(
            "  (latency samples: execute {}, collect {})",
            exec_us.len(),
            lag_us.len()
        ));
    }
    Ok(last)
}
