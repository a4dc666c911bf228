//! The typed event vocabulary shared by engine, simulator, and cluster
//! models, plus its line-oriented JSON encoding.
//!
//! The JSONL schema (documented in DESIGN.md) is stable: every line is
//! an object with `"t_us"` (microseconds since bus creation), `"type"`
//! (the variant's kind string), and the variant's fields by name.

use std::time::Duration;

/// How a batch of tasks was launched onto a node (paper §IV compares
/// one `srun` per task against a single `srun` wrapping GNU parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchMethod {
    /// One scheduler RPC per task (`srun` per task).
    Srun,
    /// One scheduler RPC for the whole batch, fan-out by GNU parallel.
    Parallel,
}

impl LaunchMethod {
    pub fn as_str(&self) -> &'static str {
        match self {
            LaunchMethod::Srun => "srun",
            LaunchMethod::Parallel => "parallel",
        }
    }
}

/// A structured telemetry event. Variants group into four families:
/// task lifecycle, scheduler state, DES milestones, and cluster/launch.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // -- Task lifecycle -------------------------------------------------
    /// A job left the input source and entered the run queue.
    Queued { seq: u64 },
    /// A job claimed an execution slot (GNU parallel `{%}`, 1-based).
    SlotAcquired { seq: u64, slot: usize },
    /// The job's command was spawned (or simulated/dry-run rendered).
    Spawned { seq: u64, slot: usize },
    /// The process-launch fast path execed the rendered command
    /// directly as argv — no `sh -c` layer (see
    /// `htpar_core::spawn::bypass_argv`): the command had no unquoted
    /// metacharacter, so shell-quoted replacement values land here too.
    /// `latency_us` is the in-parent launch cost: argv/env arena fill
    /// through `posix_spawn` return.
    ShellBypass { seq: u64, latency_us: u64 },
    /// The fast path fell back to `sh -c` (the command's own text needs
    /// shell interpretation). Same `latency_us` definition as
    /// `ShellBypass`.
    ShFallback { seq: u64, latency_us: u64 },
    /// The job finished. `runtime` is wall time of the final attempt.
    Completed {
        seq: u64,
        exit: i32,
        runtime: Duration,
    },
    /// A failed attempt is being retried (`attempt` counts from 1).
    Retried { seq: u64, attempt: u32 },
    /// The job exhausted retries (or failed with none configured).
    Failed { seq: u64, exit: i32 },

    // -- Scheduler state ------------------------------------------------
    /// Slot occupancy after an acquire/release (`busy` of `total`).
    SlotOccupancy { busy: usize, total: usize },
    /// Pending depth of the ingest queue after a push or pop.
    QueueDepth { depth: usize },
    /// Completion records buffered in per-slot buffers, not yet drained
    /// by a collector thread. The engine no longer has one and never
    /// emits this; the variant stays so sinks that match on it compile.
    CollectorBacklog { pending: usize },

    // -- DES milestones -------------------------------------------------
    /// The simulator fired a scheduled event at virtual time `sim_time`.
    SimEventFired { sim_time: f64, count: u64 },
    /// `count` scheduled events were cancelled before firing (a single
    /// cancel emits `count: 1`; a batch cancel — e.g. everything in
    /// flight on a crashed node — emits one aggregate event).
    SimEventCancelled { sim_time: f64, count: u64 },

    // -- Cluster / launch ----------------------------------------------
    /// A simulated node came up and can accept work.
    NodeUp { node: u32 },
    /// A launch wave was dispatched: `tasks` tasks via `method`.
    Launch { method: LaunchMethod, tasks: u64 },
    /// A simulated node died mid-run (fault injection); `sim_time` is
    /// the crash instant in simulated seconds.
    NodeDown { node: u32, sim_time: f64 },
    /// A dead node's unfinished shard slice was requeued onto a
    /// surviving node by the resilient driver.
    ShardRequeued {
        from_node: u32,
        to_node: u32,
        tasks: u64,
    },

    // -- Network driver/agent -------------------------------------------
    /// A live agent process completed the protocol handshake with the
    /// driver, granting `slots` job slots.
    AgentConnected { agent: u32, slots: usize },
    /// An agent was declared lost (socket closed or heartbeat lease
    /// expired) with `outstanding` unfinished tasks re-sharded onto
    /// survivors.
    AgentLost { agent: u32, outstanding: u64 },
    /// A shard of `tasks` task assignments was sent to an agent (initial
    /// placement or recovery re-shard).
    ShardSent { agent: u32, tasks: u64 },
    /// Protocol byte totals for one agent connection, emitted when the
    /// driver closes it.
    FrameBytes {
        agent: u32,
        sent: u64,
        received: u64,
    },

    // -- Pilot service (`htpar serve`) ----------------------------------
    /// A client session completed its handshake with the pilot and bound
    /// a tenant on its first `Submit`.
    SessionOpened { session: u64, tenant: String },
    /// A session ended; `reason` is `"complete"` (all accepted work done
    /// and acknowledged) or `"disconnect"` (client went away mid-run).
    SessionClosed {
        session: u64,
        tenant: String,
        completed: u64,
        reason: String,
    },
    /// Admission control refused a `Submit` (the tenant's queue was at
    /// its depth bound); `queued` is the depth at the time of refusal.
    SubmitRejected {
        session: u64,
        tenant: String,
        tasks: u64,
        queued: u64,
    },
    /// Tenant-attributed shard dispatch: the pilot's scheduler granted
    /// `tasks` tasks of this tenant onto an agent.
    TenantShardSent {
        tenant: String,
        agent: u32,
        tasks: u64,
    },
    /// Tenant-attributed completion routed back to its session (`seq` is
    /// the session-local sequence number, the tenant joblog key).
    TenantTaskDone {
        tenant: String,
        session: u64,
        seq: u64,
    },
    /// A session detached: its client may drop the socket and reattach
    /// later by key; its accepted work stays live.
    SessionDetached { session: u64, tenant: String },
    /// A client reattached to a detached session; `replayed` counts
    /// already-recorded completions resent from the tenant joblog.
    SessionReattached {
        session: u64,
        tenant: String,
        replayed: u64,
    },
    /// A restarted pilot rebuilt its session table from the journal:
    /// `sessions` recovered, `tasks` unfinished seqs re-queued.
    PilotRecovered { sessions: u64, tasks: u64 },
}

/// The one event-kind table: each variant with its kind string, in
/// index order. It defines [`Event::KINDS`] and [`Event::kind_index`],
/// so a variant's index always names its own kind.
macro_rules! kinds {
    ($($variant:ident => $kind:literal,)*) => {
        impl Event {
            /// Every kind string, indexed by [`Event::kind_index`].
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// This event's index into [`Event::KINDS`]: a variant match, so
            /// a counter per kind needs no string lookup.
            pub fn kind_index(&self) -> usize {
                enum Index {
                    $($variant),*
                }
                match self {
                    $(Event::$variant { .. } => Index::$variant as usize),*
                }
            }
        }
    };
}

kinds! {
    Queued => "queued",
    SlotAcquired => "slot_acquired",
    Spawned => "spawned",
    ShellBypass => "shell_bypass",
    ShFallback => "sh_fallback",
    Completed => "completed",
    Retried => "retried",
    Failed => "failed",
    SlotOccupancy => "slot_occupancy",
    QueueDepth => "queue_depth",
    CollectorBacklog => "collector_backlog",
    SimEventFired => "sim_event_fired",
    SimEventCancelled => "sim_event_cancelled",
    NodeUp => "node_up",
    Launch => "launch",
    NodeDown => "node_down",
    ShardRequeued => "shard_requeued",
    AgentConnected => "agent_connected",
    AgentLost => "agent_lost",
    ShardSent => "shard_sent",
    FrameBytes => "frame_bytes",
    SessionOpened => "session_opened",
    SessionClosed => "session_closed",
    SubmitRejected => "submit_rejected",
    TenantShardSent => "tenant_shard_sent",
    TenantTaskDone => "tenant_task_done",
    SessionDetached => "session_detached",
    SessionReattached => "session_reattached",
    PilotRecovered => "pilot_recovered",
}

impl Event {
    /// Stable kind string; also the `"type"` field of the JSONL encoding
    /// and the metric key prefix in [`crate::MetricsRegistry`].
    pub fn kind(&self) -> &'static str {
        Event::KINDS[self.kind_index()]
    }

    /// Sequence number for task-lifecycle events, if any.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Event::Queued { seq }
            | Event::SlotAcquired { seq, .. }
            | Event::Spawned { seq, .. }
            | Event::ShellBypass { seq, .. }
            | Event::ShFallback { seq, .. }
            | Event::Completed { seq, .. }
            | Event::Retried { seq, .. }
            | Event::Failed { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    /// Encode as a single JSONL object (no trailing newline).
    pub fn to_jsonl(&self, at: Duration) -> String {
        let t_us = at.as_micros();
        let body = match self {
            Event::Queued { seq } => format!("\"seq\":{seq}"),
            Event::SlotAcquired { seq, slot } => format!("\"seq\":{seq},\"slot\":{slot}"),
            Event::Spawned { seq, slot } => format!("\"seq\":{seq},\"slot\":{slot}"),
            Event::ShellBypass { seq, latency_us } | Event::ShFallback { seq, latency_us } => {
                format!("\"seq\":{seq},\"latency_us\":{latency_us}")
            }
            Event::Completed { seq, exit, runtime } => format!(
                "\"seq\":{seq},\"exit\":{exit},\"runtime_us\":{}",
                runtime.as_micros()
            ),
            Event::Retried { seq, attempt } => format!("\"seq\":{seq},\"attempt\":{attempt}"),
            Event::Failed { seq, exit } => format!("\"seq\":{seq},\"exit\":{exit}"),
            Event::SlotOccupancy { busy, total } => format!("\"busy\":{busy},\"total\":{total}"),
            Event::QueueDepth { depth } => format!("\"depth\":{depth}"),
            Event::CollectorBacklog { pending } => format!("\"pending\":{pending}"),
            Event::SimEventFired { sim_time, count } => {
                format!("\"sim_time\":{},\"count\":{count}", fmt_f64(*sim_time))
            }
            Event::SimEventCancelled { sim_time, count } => {
                format!("\"sim_time\":{},\"count\":{count}", fmt_f64(*sim_time))
            }
            Event::NodeUp { node } => format!("\"node\":{node}"),
            Event::Launch { method, tasks } => {
                format!("\"method\":\"{}\",\"tasks\":{tasks}", method.as_str())
            }
            Event::NodeDown { node, sim_time } => {
                format!("\"node\":{node},\"sim_time\":{}", fmt_f64(*sim_time))
            }
            Event::ShardRequeued {
                from_node,
                to_node,
                tasks,
            } => {
                format!("\"from_node\":{from_node},\"to_node\":{to_node},\"tasks\":{tasks}")
            }
            Event::AgentConnected { agent, slots } => {
                format!("\"agent\":{agent},\"slots\":{slots}")
            }
            Event::AgentLost { agent, outstanding } => {
                format!("\"agent\":{agent},\"outstanding\":{outstanding}")
            }
            Event::ShardSent { agent, tasks } => format!("\"agent\":{agent},\"tasks\":{tasks}"),
            Event::FrameBytes {
                agent,
                sent,
                received,
            } => {
                format!("\"agent\":{agent},\"sent\":{sent},\"received\":{received}")
            }
            Event::SessionOpened { session, tenant } => {
                format!("\"session\":{session},\"tenant\":{}", json_str(tenant))
            }
            Event::SessionClosed {
                session,
                tenant,
                completed,
                reason,
            } => format!(
                "\"session\":{session},\"tenant\":{},\"completed\":{completed},\"reason\":{}",
                json_str(tenant),
                json_str(reason)
            ),
            Event::SubmitRejected {
                session,
                tenant,
                tasks,
                queued,
            } => format!(
                "\"session\":{session},\"tenant\":{},\"tasks\":{tasks},\"queued\":{queued}",
                json_str(tenant)
            ),
            Event::TenantShardSent {
                tenant,
                agent,
                tasks,
            } => format!(
                "\"tenant\":{},\"agent\":{agent},\"tasks\":{tasks}",
                json_str(tenant)
            ),
            Event::TenantTaskDone {
                tenant,
                session,
                seq,
            } => format!(
                "\"tenant\":{},\"session\":{session},\"seq\":{seq}",
                json_str(tenant)
            ),
            Event::SessionDetached { session, tenant } => {
                format!("\"session\":{session},\"tenant\":{}", json_str(tenant))
            }
            Event::SessionReattached {
                session,
                tenant,
                replayed,
            } => format!(
                "\"session\":{session},\"tenant\":{},\"replayed\":{replayed}",
                json_str(tenant)
            ),
            Event::PilotRecovered { sessions, tasks } => {
                format!("\"sessions\":{sessions},\"tasks\":{tasks}")
            }
        };
        format!("{{\"t_us\":{t_us},\"type\":\"{}\",{body}}}", self.kind())
    }
}

/// JSON string literal with the two escapes that matter for
/// caller-supplied names (quotes, backslashes) plus control bytes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON-safe float formatting (no NaN/inf in the output stream).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An event stamped with its offset from bus creation, as captured by
/// [`crate::Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    pub at: Duration,
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_strings_are_unique() {
        let events = [
            Event::Queued { seq: 1 },
            Event::SlotAcquired { seq: 1, slot: 2 },
            Event::Spawned { seq: 1, slot: 2 },
            Event::ShellBypass {
                seq: 1,
                latency_us: 180,
            },
            Event::ShFallback {
                seq: 2,
                latency_us: 420,
            },
            Event::Completed {
                seq: 1,
                exit: 0,
                runtime: Duration::from_millis(5),
            },
            Event::Retried { seq: 1, attempt: 1 },
            Event::Failed { seq: 1, exit: 2 },
            Event::SlotOccupancy { busy: 1, total: 4 },
            Event::QueueDepth { depth: 3 },
            Event::CollectorBacklog { pending: 2 },
            Event::SimEventFired {
                sim_time: 1.5,
                count: 9,
            },
            Event::SimEventCancelled {
                sim_time: 2.0,
                count: 1,
            },
            Event::NodeUp { node: 7 },
            Event::Launch {
                method: LaunchMethod::Parallel,
                tasks: 64,
            },
            Event::NodeDown {
                node: 3,
                sim_time: 12.5,
            },
            Event::ShardRequeued {
                from_node: 3,
                to_node: 1,
                tasks: 17,
            },
            Event::AgentConnected {
                agent: 0,
                slots: 16,
            },
            Event::AgentLost {
                agent: 2,
                outstanding: 41,
            },
            Event::ShardSent {
                agent: 1,
                tasks: 2500,
            },
            Event::FrameBytes {
                agent: 1,
                sent: 4096,
                received: 8192,
            },
            Event::SessionOpened {
                session: 3,
                tenant: "t0".into(),
            },
            Event::SessionClosed {
                session: 3,
                tenant: "t0".into(),
                completed: 100,
                reason: "complete".into(),
            },
            Event::SubmitRejected {
                session: 3,
                tenant: "t0".into(),
                tasks: 512,
                queued: 4096,
            },
            Event::TenantShardSent {
                tenant: "t0".into(),
                agent: 1,
                tasks: 64,
            },
            Event::TenantTaskDone {
                tenant: "t0".into(),
                session: 3,
                seq: 17,
            },
            Event::SessionDetached {
                session: 3,
                tenant: "t0".into(),
            },
            Event::SessionReattached {
                session: 3,
                tenant: "t0".into(),
                replayed: 42,
            },
            Event::PilotRecovered {
                sessions: 2,
                tasks: 300,
            },
        ];
        let mut kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());

        // One sample per variant: each variant's index names its own
        // kind, and the table has a row for every variant and no other.
        let mut indices: Vec<usize> = events.iter().map(Event::kind_index).collect();
        for e in &events {
            assert_eq!(Event::KINDS[e.kind_index()], e.kind());
        }
        indices.sort_unstable();
        assert_eq!(indices, (0..Event::KINDS.len()).collect::<Vec<_>>());
    }

    #[test]
    fn jsonl_lines_parse_as_json() {
        let at = Duration::from_micros(1234);
        let events = [
            Event::Completed {
                seq: 42,
                exit: 0,
                runtime: Duration::from_millis(545),
            },
            Event::ShellBypass {
                seq: 42,
                latency_us: 95,
            },
            Event::ShFallback {
                seq: 43,
                latency_us: 310,
            },
            Event::Launch {
                method: LaunchMethod::Srun,
                tasks: 1000,
            },
            Event::SimEventFired {
                sim_time: 0.25,
                count: 3,
            },
            Event::NodeDown {
                node: 9,
                sim_time: 3.75,
            },
            Event::ShardRequeued {
                from_node: 9,
                to_node: 0,
                tasks: 128,
            },
            Event::AgentConnected {
                agent: 3,
                slots: 16,
            },
            Event::AgentLost {
                agent: 3,
                outstanding: 12,
            },
            Event::ShardSent {
                agent: 0,
                tasks: 2048,
            },
            Event::FrameBytes {
                agent: 0,
                sent: 123456,
                received: 654321,
            },
            Event::SessionOpened {
                session: 7,
                tenant: "tenant \"a\"\\b".into(),
            },
            Event::SessionClosed {
                session: 7,
                tenant: "t1".into(),
                completed: 9,
                reason: "disconnect".into(),
            },
            Event::SubmitRejected {
                session: 7,
                tenant: "t1".into(),
                tasks: 100,
                queued: 1024,
            },
            Event::TenantShardSent {
                tenant: "t1".into(),
                agent: 2,
                tasks: 32,
            },
            Event::TenantTaskDone {
                tenant: "t1".into(),
                session: 7,
                seq: 5,
            },
            Event::SessionDetached {
                session: 7,
                tenant: "t \"x\"".into(),
            },
            Event::SessionReattached {
                session: 7,
                tenant: "t1".into(),
                replayed: 9,
            },
            Event::PilotRecovered {
                sessions: 1,
                tasks: 77,
            },
        ];
        for e in &events {
            let line = e.to_jsonl(at);
            let v = serde_json::from_str(&line).expect("valid JSON line");
            assert_eq!(v["t_us"].as_u64(), Some(1234));
            assert_eq!(v["type"].as_str(), Some(e.kind()));
        }
        let v = serde_json::from_str(&events[0].to_jsonl(at)).unwrap();
        assert_eq!(v["seq"].as_u64(), Some(42));
        assert_eq!(v["runtime_us"].as_u64(), Some(545_000));
        // Tenant names are caller-supplied; quotes and backslashes must
        // survive the JSON encoding.
        let v = serde_json::from_str(&events[11].to_jsonl(at)).unwrap();
        assert_eq!(v["tenant"].as_str(), Some("tenant \"a\"\\b"));
    }

    #[test]
    fn seq_accessor_covers_lifecycle_only() {
        assert_eq!(Event::Queued { seq: 9 }.seq(), Some(9));
        assert_eq!(Event::QueueDepth { depth: 1 }.seq(), None);
        assert_eq!(Event::NodeUp { node: 1 }.seq(), None);
    }
}
