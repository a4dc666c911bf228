//! The numbers a workload hands back: its end-to-end summary, the
//! per-layer metrics of the result line, and the inputs the layer
//! probes replay.

use htpar_core::joblog::LogEntry;

use crate::stats::range;
use crate::trace::{Span, Tracer};
use crate::util::Outcome;

/// Inputs and rows from the run's last verified round, replayed by the
/// template, joblog and frame probes.
pub struct Inputs {
    pub template: &'static str,
    pub args: Vec<String>,
    pub rows: Vec<LogEntry>,
}

/// Work over wall time summed across `(work, seconds)` rounds; 0 for
/// no rounds. Unlike a median of round rates, this does not jump
/// between the modes of a bimodal round distribution.
pub fn per_second(rounds: &[(f64, f64)]) -> f64 {
    let (work, secs) = rounds
        .iter()
        .fold((0.0, 0.0), |(w, s), &(a, b)| (w + a, s + b));
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

/// Most arguments and rows the probes replay.
pub const PROBE_CAP: usize = 50_000;

impl Inputs {
    pub fn new(template: &'static str, mut args: Vec<String>, mut rows: Vec<LogEntry>) -> Inputs {
        args.truncate(PROBE_CAP);
        rows.truncate(PROBE_CAP);
        Inputs {
            template,
            args,
            rows,
        }
    }
}

/// Slot time of the traced rounds: wall × slots, the part spent inside
/// `execute` (none seen where agents run the tasks), and tasks run.
#[derive(Debug, Default)]
pub struct SlotTime {
    busy_ns: u64,
    cap_ns: u64,
    wall_ns: u64,
    pub tasks: u64,
}

impl SlotTime {
    /// Add one traced round covering `round.width` slots, whose tasks
    /// ran inside `execute` for the `tasks` spans.
    pub fn add(&mut self, round: &Span, tasks: &[Span], n: u64) {
        self.busy_ns += tasks.iter().map(Span::dur_ns).sum::<u64>();
        self.cap_ns += round.dur_ns() * round.width as u64;
        self.wall_ns += round.dur_ns();
        self.tasks += n;
    }
}

/// Per-layer metrics on the result line of a traced run. A layer the
/// workload does not load reads 0 (none of these is a time).
#[derive(Debug, Default)]
pub struct Layers {
    /// End to end: tasks over wall time of the untraced rounds.
    pub tasks_per_s: f64,
    /// End to end: median set-up time.
    pub setup_s: f64,
    /// Tasks over wall time of the traced rounds.
    pub traced_tasks_per_s: f64,
    pub overhead_ns_per_task: f64,
    pub slot_busy_frac: f64,
    pub collector_backlog_max: f64,
    pub bypass_frac: f64,
    pub width_mean: f64,
    pub frame_bytes_per_task: f64,
    pub tasks_per_shard: f64,
    pub peak_queue_bytes: f64,
    pub agent_skew: f64,
    pub duplicate_frac: f64,
    pub tasks_per_grant: f64,
}

impl Layers {
    /// Summarize `(tasks, seconds)` rounds into the end-to-end rate and
    /// the traced rate it is compared with.
    pub fn rates(&mut self, untraced: &[(f64, f64)], traced: &[(f64, f64)]) {
        self.tasks_per_s = per_second(untraced);
        self.traced_tasks_per_s = per_second(traced);
    }

    /// The runner metrics of the traced rounds.
    pub fn slot_time(&mut self, t: &SlotTime) {
        self.overhead_ns_per_task =
            t.cap_ns.saturating_sub(t.busy_ns) as f64 / t.tasks.max(1) as f64;
        self.slot_busy_frac = t.busy_ns as f64 / t.cap_ns.max(1) as f64;
        self.width_mean = t.busy_ns as f64 / t.wall_ns.max(1) as f64;
    }

    /// Report the end-to-end numbers every workload shares: the rate
    /// over `rounds` (untraced round rates), set-up over `setups`, and
    /// the failed share of the operations attempted.
    pub fn note_end_to_end(
        &self,
        out: &mut Outcome,
        rounds: &[(f64, f64)],
        what: &str,
        setups: &[f64],
        setup: &str,
    ) {
        let rates: Vec<f64> = rounds.iter().map(|&(n, s)| n / s).collect();
        out.note(format!(
            "  {:<28} {:.1} tasks/s (over {} {what}; round range {})",
            "tasks_per_s",
            self.tasks_per_s,
            rounds.len(),
            range(&rates, 1)
        ));
        out.note(format!(
            "  {:<28} {:.6} s (median of {} {setup}; range {})",
            "setup_s",
            self.setup_s,
            setups.len(),
            range(setups, 6)
        ));
        out.note(format!(
            "  {:<28} {} ratio ({} of {} operations)",
            "fail_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
    }

    /// `1 - traced / untraced` tasks per second.
    pub fn overhead_frac(&self) -> f64 {
        if self.tasks_per_s > 0.0 {
            1.0 - self.traced_tasks_per_s / self.tasks_per_s
        } else {
            0.0
        }
    }

    /// Append every per-layer metric, in a fixed order.
    pub fn emit(&self, out: &mut Outcome, tracer: &Tracer) {
        out.metric(
            "runner.overhead_ns_per_task",
            self.overhead_ns_per_task,
            "ns",
        );
        out.metric("runner.slot_busy_frac", self.slot_busy_frac, "ratio");
        out.metric(
            "runner.collector_backlog_max",
            self.collector_backlog_max,
            "count",
        );
        out.metric("spawn.bypass_frac", self.bypass_frac, "ratio");
        out.metric("dag.width_mean", self.width_mean, "slots");
        out.metric("frame.bytes_per_task", self.frame_bytes_per_task, "bytes");
        out.metric("driver.tasks_per_shard", self.tasks_per_shard, "count");
        out.metric("driver.peak_queue_bytes", self.peak_queue_bytes, "bytes");
        out.metric("driver.agent_skew", self.agent_skew, "ratio");
        out.metric("driver.duplicate_frac", self.duplicate_frac, "ratio");
        out.metric("sched.tasks_per_grant", self.tasks_per_grant, "count");
        out.metric("trace.overhead_frac", self.overhead_frac(), "ratio");
        out.metric(
            "trace.unattributed_frac",
            tracer.unattributed_frac(),
            "ratio",
        );
        out.note(format!(
            "  {:<28} {:.4} (untraced {:.1} vs traced {:.1} tasks/s)",
            "trace.overhead_frac",
            self.overhead_frac(),
            self.tasks_per_s,
            self.traced_tasks_per_s
        ));
        out.note(format!(
            "  {:<28} {:.4} of {:.3} track-s",
            "trace.unattributed_frac",
            tracer.unattributed_frac(),
            tracer.capacity_ns as f64 / 1e9
        ));
        out.note(
            "  layer self time (span time minus child spans; a span over k tracks counts k times)"
                .to_string(),
        );
        for (layer, t) in &tracer.layers {
            out.note(format!(
                "    {layer:<22} spans {:>9}  total {:>10.3} ms  self {:>10.3} ms",
                t.spans,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
}
