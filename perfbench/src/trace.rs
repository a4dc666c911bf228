//! Tracing from outside the program: spans recorded at the
//! benchmark's own call boundaries, per-task stamps from a timing
//! executor wrapper and an `on_result` hook, and counts from the
//! telemetry events the program already emits.
//!
//! Task-level stamps live only for one round: each round is reduced to
//! its layer totals and latency samples before the next one starts.
//! Round- and session-level spans stay in memory and are written once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use htpar_core::executor::{ExecContext, Executor, TaskOutput};
use htpar_core::job::CommandLine;
use htpar_telemetry::{Event, EventBus, Sink};

/// A timed interval on one track (a thread or an engine slot).
/// `width` is how many tracks the span covers: an engine run covers
/// every slot, a task covers one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub track: usize,
    pub width: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of a span: its duration on each track it covers minus the
/// part of that track its children cover. Children are clipped to the
/// parent's interval, and overlapping children on one track count
/// once.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(usize, u64, u64)> = children
        .iter()
        .filter_map(|c| {
            let (s, e) = (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns));
            (s < e).then_some((c.track, s, e))
        })
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(usize, u64, u64)> = None;
    for (track, s, e) in clipped {
        match cur {
            Some((t, cs, ce)) if t == track && s <= ce => cur = Some((t, cs, ce.max(e))),
            _ => {
                if let Some((_, cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((track, s, e));
            }
        }
    }
    if let Some((_, cs, ce)) = cur {
        covered += ce - cs;
    }
    (parent.dur_ns() * parent.width as u64).saturating_sub(covered)
}

/// Per-layer totals across a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The run's span store and per-layer accounting.
pub struct Tracer {
    origin: Instant,
    /// Round- and session-level spans, kept until the run ends.
    pub spans: Vec<Span>,
    pub layers: BTreeMap<&'static str, LayerTotal>,
    /// Track-time the spans could have covered, and the part no span
    /// covered (for `trace.unattributed_frac`).
    pub capacity_ns: u64,
    pub unattributed_ns: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            layers: BTreeMap::new(),
            capacity_ns: 0,
            unattributed_ns: 0,
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A leaf span with no children (set-up steps).
    pub fn leaf(&mut self, layer: &'static str, start: Instant, end: Instant) {
        let span = Span {
            layer,
            track: 0,
            width: 1,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.account(span, &[], false);
    }

    /// A span whose children (tasks, session phases) were stamped
    /// separately. The parent is kept; the children only feed the
    /// per-layer totals. With `attribute`, the parent's own self time
    /// counts as time no span explains.
    pub fn account(&mut self, parent: Span, children: &[Span], attribute: bool) {
        let own = self_time_ns(&parent, children);
        for c in children {
            let t = self.layers.entry(c.layer).or_default();
            t.spans += 1;
            t.total_ns += c.dur_ns();
            t.self_ns += c.dur_ns();
        }
        let t = self.layers.entry(parent.layer).or_default();
        t.spans += 1;
        t.total_ns += parent.dur_ns();
        t.self_ns += own;
        if attribute {
            self.capacity_ns += parent.dur_ns() * parent.width as u64;
            self.unattributed_ns += own;
        }
        self.spans.push(parent);
    }

    pub fn unattributed_frac(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.capacity_ns as f64
        }
    }

    /// Write the kept spans and the layer totals as TSV, once.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# layer\tspans\ttotal_ns\tself_ns")?;
        for (layer, t) in &self.layers {
            writeln!(out, "{layer}\t{}\t{}\t{}", t.spans, t.total_ns, t.self_ns)?;
        }
        writeln!(out, "# layer\ttrack\twidth\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.layer, s.track, s.width, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-task stamps for one round, indexed by seq: when `execute`
/// started and returned, the slot it ran in, and when `on_result` saw
/// it. Zero means "not stamped".
pub struct TaskStamps {
    origin: Instant,
    pub start: Vec<AtomicU64>,
    pub end: Vec<AtomicU64>,
    pub slot: Vec<AtomicUsize>,
    pub collected: Vec<AtomicU64>,
}

impl TaskStamps {
    pub fn new(origin: Instant, tasks: usize) -> Arc<TaskStamps> {
        let zeros = || (0..=tasks).map(|_| AtomicU64::new(0)).collect();
        Arc::new(TaskStamps {
            origin,
            start: zeros(),
            end: zeros(),
            slot: (0..=tasks).map(|_| AtomicUsize::new(0)).collect(),
            collected: zeros(),
        })
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stamp `on_result` for `seq`.
    pub fn collect(&self, seq: u64) {
        if let Some(c) = self.collected.get(seq as usize) {
            c.store(self.now(), Ordering::Relaxed);
        }
    }

    /// The round's `execute` spans, one per stamped task, on the
    /// track of the slot it ran in (slots are 1-based; tracks 0-based).
    pub fn exec_spans(&self, layer: &'static str) -> Vec<Span> {
        (1..self.start.len())
            .filter_map(|seq| {
                let (s, e) = (
                    self.start[seq].load(Ordering::Relaxed),
                    self.end[seq].load(Ordering::Relaxed),
                );
                (e > 0).then(|| Span {
                    layer,
                    track: self.slot[seq].load(Ordering::Relaxed).saturating_sub(1),
                    width: 1,
                    start_ns: s,
                    end_ns: e,
                })
            })
            .collect()
    }

    /// `on_result` stamp minus `execute` return, per task, in µs.
    pub fn collect_lags_us(&self) -> Vec<f64> {
        (1..self.end.len())
            .filter_map(|seq| {
                let (e, c) = (
                    self.end[seq].load(Ordering::Relaxed),
                    self.collected[seq].load(Ordering::Relaxed),
                );
                (e > 0 && c > 0).then(|| c.saturating_sub(e) as f64 / 1e3)
            })
            .collect()
    }
}

/// Wraps the workload's executor and stamps every `execute` call. It
/// forwards `needs_argv`, so the engine renders exactly what it would
/// for the bare executor.
pub struct TimedExecutor {
    pub inner: Arc<dyn Executor>,
    pub stamps: Arc<TaskStamps>,
}

impl Executor for TimedExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let start = self.stamps.now();
        let out = self.inner.execute(cmd, ctx);
        let end = self.stamps.now();
        let seq = cmd.seq as usize;
        if seq < self.stamps.start.len() {
            self.stamps.start[seq].store(start, Ordering::Relaxed);
            self.stamps.end[seq].store(end, Ordering::Relaxed);
            self.stamps.slot[seq].store(cmd.slot, Ordering::Relaxed);
        }
        out
    }

    fn needs_argv(&self) -> bool {
        self.inner.needs_argv()
    }
}

/// A telemetry sink that keeps only the counts the benchmark reports,
/// so a traced run's memory does not grow with its task count.
#[derive(Default)]
pub struct Counts {
    pub backlog_max: AtomicU64,
    pub bypass: AtomicU64,
    pub fallback: AtomicU64,
    pub shards: AtomicU64,
    pub shard_tasks: AtomicU64,
    pub frame_bytes: AtomicU64,
    pub grants: AtomicU64,
    pub grant_tasks: AtomicU64,
}

impl Sink for Counts {
    fn record(&self, _at: std::time::Duration, event: &Event) {
        let r = Ordering::Relaxed;
        match event {
            Event::CollectorBacklog { pending } => {
                self.backlog_max.fetch_max(*pending as u64, r);
            }
            Event::ShellBypass { .. } => {
                self.bypass.fetch_add(1, r);
            }
            Event::ShFallback { .. } => {
                self.fallback.fetch_add(1, r);
            }
            Event::ShardSent { tasks, .. } => {
                self.shards.fetch_add(1, r);
                self.shard_tasks.fetch_add(*tasks, r);
            }
            Event::FrameBytes { sent, received, .. } => {
                self.frame_bytes.fetch_add(sent + received, r);
            }
            Event::TenantShardSent { tasks, .. } => {
                self.grants.fetch_add(1, r);
                self.grant_tasks.fetch_add(*tasks, r);
            }
            _ => {}
        }
    }
}

impl Counts {
    /// A telemetry bus with fresh counts attached.
    pub fn on_bus() -> (Arc<Counts>, Arc<EventBus>) {
        let counts = Arc::new(Counts::default());
        let bus = EventBus::shared();
        bus.attach(counts.clone());
        (counts, bus)
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: usize, width: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "t",
            track,
            width,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_per_track() {
        let parent = span(0, 1, 100, 200);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Two disjoint children.
        assert_eq!(
            self_time_ns(&parent, &[span(0, 1, 110, 120), span(0, 1, 150, 170)]),
            70
        );
        // Overlapping children count once; parts outside the parent are clipped.
        assert_eq!(
            self_time_ns(
                &parent,
                &[
                    span(0, 1, 90, 130),
                    span(0, 1, 120, 140),
                    span(0, 1, 190, 250)
                ]
            ),
            50
        );
        // A child that covers everything leaves nothing.
        assert_eq!(self_time_ns(&parent, &[span(0, 1, 0, 1000)]), 0);
    }

    #[test]
    fn self_time_of_a_multi_track_span() {
        // An engine run over two slots for 100 ns: 200 slot-ns.
        let run = span(0, 2, 0, 100);
        let tasks = [span(0, 1, 0, 40), span(1, 1, 10, 60), span(0, 1, 50, 90)];
        // Covered: 40 + 40 on slot 0, 50 on slot 1.
        assert_eq!(self_time_ns(&run, &tasks), 200 - 130);
    }

    #[test]
    fn tracer_accounts_children_and_residual() {
        let mut t = Tracer::new(Instant::now());
        t.account(
            span(0, 2, 0, 100),
            &[span(0, 1, 0, 30), span(1, 1, 0, 50)],
            true,
        );
        let child = t.layers["t"];
        // Parent and children share a layer name here: 3 spans.
        assert_eq!(child.spans, 3);
        assert_eq!(t.capacity_ns, 200);
        assert_eq!(t.unattributed_ns, 120);
        assert!((t.unattributed_frac() - 0.6).abs() < 1e-12);
    }
}
