//! `dag_chain`: `nproc` seeded chains of fan-out/fan-in blocks through
//! `DagRunner::run` at `-j nproc` with a joblog, on no-op tasks. One
//! chain per slot keeps each slot on a critical path; a single chain
//! leaves a slot idle at every link, and its rate then swings with the
//! host's thread wake-up latency by several times from run to run.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_core::dag::{Dag, DagReport, DagRunner, DagSpec};
use htpar_core::executor::{Executor, FnExecutor};
use htpar_core::options::Options;

use crate::check;
use crate::gen::{self, DagTask, Rng};
use crate::layers::{Inputs, Layers, SlotTime};
use crate::stats::{median, Dist};
use crate::trace::{Counts, Span, TaskStamps, TimedExecutor, Tracer};
use crate::util::{show, with_deadline, Outcome};
use crate::Ctx;

/// Deadline on one DAG run.
const ROUND_DEADLINE: Duration = Duration::from_secs(60);

/// Build the graph: the program's set-up for a DAG run. Returns the
/// graph and how long `DagSpec::build` alone took.
fn build(tasks: &[DagTask]) -> Result<(Dag, Duration), String> {
    let mut spec = DagSpec::new();
    for (i, t) in tasks.iter().enumerate() {
        spec.task(
            format!("t{i}"),
            t.command.clone(),
            t.deps.iter().map(|d| format!("t{d}")).collect(),
        )
        .map_err(|e| format!("dag spec: {e}"))?;
    }
    let started = Instant::now();
    let dag = spec.build().map_err(|e| format!("dag build: {e}"))?;
    Ok((dag, started.elapsed()))
}

/// A task's `execute` start minus the latest `execute` return among
/// its dependencies, in µs, for every task with dependencies.
fn release_us(stamps: &TaskStamps, tasks: &[DagTask]) -> Vec<f64> {
    let at = |v: &Vec<std::sync::atomic::AtomicU64>, i: usize| v[i + 1].load(Ordering::Relaxed);
    tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.deps.is_empty())
        .filter_map(|(i, t)| {
            let ready = t.deps.iter().map(|&d| at(&stamps.end, d)).max()?;
            let start = at(&stamps.start, i);
            (ready > 0 && start > 0).then(|| start.saturating_sub(ready) as f64 / 1e3)
        })
        .collect()
}

pub fn run(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let n = if ctx.tiny { 300 } else { 20_000 };
    let (counts, bus) = Counts::on_bus();
    let (mut untraced, mut traced, mut setups, mut builds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut release, mut exec_us) = (Dist::default(), Dist::default());
    let mut slot_time = SlotTime::default();
    let mut graph_width = Vec::new();
    let mut last = Inputs::new("{}", Vec::new(), Vec::new());
    let since = Instant::now();
    let mut round = 0usize;
    while ctx.another_round(since, round) {
        let is_traced = ctx.traced(round);
        let (tasks, depth) =
            gen::dag_chains(&mut Rng::new(ctx.seed, "dag", round as u64), n, ctx.slots);
        graph_width.push(n as f64 / depth as f64);
        let dir = ctx.dir.sub(&format!("r{round}"))?;
        let joblog = dir.join("joblog");

        let setup_start = Instant::now();
        let (dag, build_time) = build(&tasks)?;
        let noop: Arc<dyn Executor> = Arc::new(FnExecutor::noop());
        let setup_end = Instant::now();
        setups.push(setup_end.duration_since(setup_start).as_secs_f64());
        builds.push(build_time.as_secs_f64() * 1e3);
        if is_traced {
            tracer.leaf("setup", setup_start, setup_end);
        }

        let stamps = is_traced.then(|| TaskStamps::new(ctx.origin, n));
        let executor: Arc<dyn Executor> = match &stamps {
            None => noop,
            Some(st) => Arc::new(TimedExecutor {
                inner: noop,
                stamps: st.clone(),
            }),
        };
        let runner = DagRunner {
            options: Options {
                jobs: ctx.slots,
                shell: false,
                joblog: Some(joblog.clone()),
                ..Options::default()
            },
            executor,
            bus: is_traced.then(|| bus.clone()),
        };
        let (report, start, end): (htpar_core::error::Result<DagReport>, Instant, Instant) =
            with_deadline("dag run", ROUND_DEADLINE, move || {
                let start = Instant::now();
                let report = runner.run(&dag);
                (report, start, Instant::now())
            })?;
        let report = report.map_err(|e| format!("dag run: {e}"))?;
        out.attempted += n as u64;
        if !report.all_succeeded() {
            out.fail(
                report.failed + report.skipped_dep_failed,
                format!(
                    "round {round}: {} failed, {} skipped",
                    report.failed, report.skipped_dep_failed
                ),
            );
        }
        drop(report);
        let deps: Vec<Vec<usize>> = tasks.iter().map(|t| t.deps.clone()).collect();
        let rows = match check::joblog_exactly_once(&joblog, n as u64)
            .and_then(|rows| check::deps_before(&rows, &deps).map(|_| rows))
        {
            Ok(rows) => rows,
            Err((bad, why)) => {
                out.fail(bad, format!("round {round}: {why}"));
                Vec::new()
            }
        };
        let rate = (n as f64, end.duration_since(start).as_secs_f64());
        if let Some(st) = stamps {
            traced.push(rate);
            let spans = st.exec_spans("executor");
            let parent = Span {
                layer: "dag",
                track: 0,
                width: ctx.slots,
                start_ns: tracer.ns(start),
                end_ns: tracer.ns(end),
            };
            slot_time.add(&parent, &spans, n as u64);
            exec_us.extend(spans.iter().map(|s| s.dur_ns() as f64 / 1e3));
            release.extend(release_us(&st, &tasks));
            tracer.account(parent, &spans, true);
        } else {
            untraced.push(rate);
        }
        if !rows.is_empty() {
            last = Inputs::new("{}", tasks.into_iter().map(|t| t.command).collect(), rows);
        }
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    layers.rates(&untraced, &traced);
    layers.setup_s = median(&setups);

    out.note(format!(
        "dag_chain seed={} slots={} rounds={round} round_tasks={n} tasks={}",
        ctx.seed, ctx.slots, out.attempted
    ));
    layers.note_end_to_end(out, &untraced, "untraced rounds", &setups, "graph builds");
    if ctx.trace {
        layers.slot_time(&slot_time);
        layers.collector_backlog_max = Counts::get(&counts.backlog_max) as f64;
        let (r50, r99) = release.p50_p99();
        let (e50, e99) = exec_us.p50_p99();
        for (name, v) in [
            ("runner.overhead_ns_per_task", format!("{:.1} ns", layers.overhead_ns_per_task)),
            ("runner.collector_backlog_max", format!("{}", layers.collector_backlog_max)),
            ("spawn.execute_us_p50", show(e50, "us")),
            ("spawn.execute_us_p99", show(e99, "us")),
            ("dag.build_ms", format!("{:.3} ms (median)", median(&builds))),
            ("dag.release_us_p50", show(r50, "us")),
            ("dag.release_us_p99", show(r99, "us")),
            (
                "dag.width_mean",
                format!(
                    "{:.4} slots busy on average; the graph offers {:.4} tasks per critical-path step",
                    layers.width_mean,
                    median(&graph_width)
                ),
            ),
        ] {
            out.note(format!("  {name:<28} {v}"));
        }
        out.note(format!(
            "  (latency samples: release {}, execute {})",
            release.len(),
            exec_us.len()
        ));
    }
    Ok(last)
}
