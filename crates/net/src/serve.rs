//! The pilot service: `htpar serve`.
//!
//! Where [`crate::driver`] runs one task list to completion and tears
//! the fleet down, the pilot keeps the agent fleet alive and accepts
//! many concurrent client *sessions* over the same framed protocol.
//! Each session speaks the v3 extension: `Submit` batches of
//! session-local tasks in, `SessionAck` admission verdicts and
//! `DoneBatch` completions back out, `SessionDone` in both directions
//! to finish. Tenants (named by the client's `Submit`) get their own
//! admitted-task queues; a pluggable [`Scheduler`] — FIFO, weighted
//! fair share, or strict priority — multiplexes those queues onto the
//! shared slot pool.
//!
//! Everything runs on one epoll [`Reactor`]: the listening socket,
//! every client session, the agent [`crate::fleet`] the one-shot driver
//! runs on too, and the lease-sweep tick are tokens on the same poll
//! loop. Agents are dialed once at bind time with [`Payload::Dynamic`],
//! so a single fleet serves tenants with different payloads — the work
//! kind rides in each task's first argument as a directive the agent
//! renders through the `"{}"` template.
//!
//! A task carries as little through the pilot as through the one-shot
//! driver. A session holds its template, its payload and the arguments of its accepted
//! tasks once, moved out of the decoded `Submit`; a queued task is a
//! `(session, local seq)` pair and an in-flight one adds its agent.
//! Dispatch writes each directive straight into the agent's `Shard`
//! bytes, and a completion renders its command once, for its joblog
//! row, then drops the task's arguments. A `Submit` must carry the
//! seqs that continue the session's (`submitted+1 ..= submitted+n`),
//! or it gets a typed refusal, so its arguments sit in a table by seq
//! and taking a task's marks it recorded. One
//! fsync per loop turn commits every admission and detach of the turn;
//! their acks wait for it, and the turn dispatches after it.
//!
//! Each agent gets an in-flight window sized from its own measurements
//! (`Window`): its slots, plus enough tasks to cover its measured
//! completion rate over its round trip and a `QUEUE_TARGET` (1 ms) of
//! queueing. Short tasks keep a deep window, so a slot that frees
//! finds its next task already on the node instead of waiting for a
//! pilot round trip; long tasks settle at `slots + 1`, so scheduling
//! decisions stay late. A window that drains goes back to `slots + 1`.
//! A new tenant waits about `QUEUE_TARGET` behind work already placed
//! while that work is as short as the work the window was measured on;
//! long tasks placed while short ones keep a window deep wait longer.
//!
//! Guarantees (enforced by `serve_e2e`, `serve_differential`, and the
//! scheduler property suite):
//! - recording is exactly-once per session (re-run work after an agent
//!   loss is delivered and logged once);
//! - admission is bounded: a tenant whose queue would exceed
//!   `max_queue_per_tenant` gets a typed `SessionAck` refusal, not an
//!   unbounded buffer;
//! - a dead session's queued work is purged and its in-flight work is
//!   released on completion — slots never leak (the final
//!   `SlotOccupancy` event reports zero busy);
//! - an old-version client gets a clean `AgentExit` refusal it can
//!   decode, not a socket drop;
//! - with `--state-dir`, sessions are durable: a `Detach`ed client may
//!   drop its socket and `Reattach` later by key, and every admission
//!   is in the fsynced write-ahead [`crate::journal`] before its ack,
//!   so a SIGKILLed pilot restarts with exactly the unfinished seqs
//!   re-dispatched, their commands rendered again from the journaled
//!   template and arguments (see `DESIGN.md` §13 "Durability").

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_core::joblog::{self, JobLogWriter};
use htpar_core::options::ResumeMode;
use htpar_core::reactor::{Interest, PollEvent, Reactor};
use htpar_core::sched::{SchedPolicy, Scheduler};
use htpar_core::template::{ExpandContext, Template};
use htpar_telemetry::{Event, EventBus};

use crate::conn::{Conn, Listener};
use crate::fleet::{self, AgentStat, Fleet, TOK_TICK, WRITE_QUEUE_CAP};
use crate::frame::{Frame, Payload, TaskDoneRec, TaskSpec, PROTOCOL_VERSION, SHARD_CHUNK};
use crate::journal::{read_journal, JRecord, JournalWriter, JOURNAL_FILE};
use crate::nbio::{Fill, Flush, FrameConn};
use crate::{NetError, Result};

/// Announce line the CLI prints once the pilot is accepting sessions,
/// mirroring the agent's `HTPAR_AGENT_LISTENING`.
pub const SERVE_ANNOUNCE_PREFIX: &str = "HTPAR_SERVE_LISTENING";

/// Session-local seqs occupy the low bits of a wire seq; the session id
/// (plus one, so driver-style seqs with a zero session part can never
/// collide) occupies the high bits.
const SESSION_SEQ_BITS: u32 = 40;
const MAX_LOCAL_SEQ: u64 = (1 << SESSION_SEQ_BITS) - 1;
/// Highest usable session id: `session + 1` must fit the high bits of
/// a wire seq, so ids at or past `2^24 - 1` would overflow into (or
/// wrap out of) another session's seq space.
const MAX_SESSION_ID: u64 = (1 << (64 - SESSION_SEQ_BITS)) - 2;

/// Compose a wire seq. Callers must have validated both components at
/// admission ([`wire_seq_checked`]); the debug asserts catch any path
/// that skips that validation before it can misroute completions.
fn wire_seq(session: u64, local_seq: u64) -> u64 {
    debug_assert!(
        session <= MAX_SESSION_ID,
        "session id {session} overflows the wire-seq namespace"
    );
    debug_assert!(
        (1..=MAX_LOCAL_SEQ).contains(&local_seq),
        "local seq {local_seq} outside [1, {MAX_LOCAL_SEQ}]"
    );
    ((session + 1) << SESSION_SEQ_BITS) | local_seq
}

/// Bounds-checked [`wire_seq`]: `None` when either component would
/// escape its bit field and alias another session's seqs.
fn wire_seq_checked(session: u64, local_seq: u64) -> Option<u64> {
    if session > MAX_SESSION_ID || local_seq == 0 || local_seq > MAX_LOCAL_SEQ {
        return None;
    }
    Some(((session + 1) << SESSION_SEQ_BITS) | local_seq)
}

/// Pilot-side configuration. How many tasks each agent holds in flight
/// is not configured: the pilot sizes every agent's window from that
/// agent's measured completion rate and round trip.
pub struct ServeConfig {
    /// Agent address specs to dial at bind time.
    pub agents: Vec<String>,
    /// Listener spec for client sessions (`host:port` or `unix:/path`).
    pub listen: String,
    /// Job slots requested per agent.
    pub jobs_per_agent: u32,
    /// Interval agents heartbeat at.
    pub heartbeat_ms: u32,
    /// Silence window after which an agent is declared lost.
    pub lease_window_ms: u64,
    /// Which scheduler multiplexes tenants onto the slot pool.
    pub policy: SchedPolicy,
    /// Admission bound: a `Submit` that would push a tenant's queue past
    /// this depth is refused.
    pub max_queue_per_tenant: u64,
    /// Directory for per-tenant joblogs (`<tenant>.joblog`); `None`
    /// disables logging.
    pub joblog_dir: Option<PathBuf>,
    /// Telemetry bus for session/tenant/occupancy events.
    pub bus: Option<Arc<EventBus>>,
    /// Exit after this many sessions have closed (tests and bounded
    /// benchmark runs); `None` serves forever.
    pub max_sessions: Option<u64>,
    /// Directory for the write-ahead session journal. When set, every
    /// admission is fsynced before its `SessionAck` and a restarted
    /// pilot recovers accepted-but-unfinished work from it; `None`
    /// disables durability (sessions die with the pilot).
    pub state_dir: Option<PathBuf>,
    /// How long a detached session (socket gone) is held for reattach
    /// before its remaining work is purged; `None` holds forever.
    pub detach_ttl: Option<Duration>,
    /// Compact the session journal after this many journaled sessions
    /// close (rewrite dropping closed-session records so the WAL stays
    /// proportional to *live* work, not lifetime throughput). `0`
    /// disables compaction.
    pub journal_compact_every: u64,
}

impl ServeConfig {
    pub fn new(agents: Vec<String>, listen: impl Into<String>) -> ServeConfig {
        ServeConfig {
            agents,
            listen: listen.into(),
            jobs_per_agent: 2,
            heartbeat_ms: 200,
            lease_window_ms: 2_000,
            policy: SchedPolicy::Fair,
            max_queue_per_tenant: 100_000,
            joblog_dir: None,
            bus: None,
            max_sessions: None,
            state_dir: None,
            detach_ttl: None,
            journal_compact_every: 64,
        }
    }

    /// Emit the event `event` builds; without a bus it is never built.
    fn emit(&self, event: impl FnOnce() -> Event) {
        if let Some(bus) = &self.bus {
            bus.emit(event());
        }
    }
}

/// Per-tenant accounting at shutdown.
#[derive(Debug, Clone)]
pub struct TenantStat {
    pub name: String,
    /// Tasks completed and recorded for this tenant.
    pub completed: u64,
    /// Submits refused by admission control.
    pub rejected_submits: u64,
}

/// What a serve run accomplished.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Sessions that opened and closed (complete or disconnect).
    pub sessions: u64,
    /// Completions recorded and delivered.
    pub completed: u64,
    /// Completions for already-closed sessions (work released, not
    /// delivered anywhere).
    pub released: u64,
    /// Completions for already-recorded seqs (re-run work finishing
    /// twice after a lease-expiry re-dispatch).
    pub duplicates: u64,
    /// Submits refused by admission control, across all tenants.
    pub rejected_submits: u64,
    pub tenants: Vec<TenantStat>,
    pub agents: Vec<AgentStat>,
    pub wall: Duration,
}

// -- Reactor tokens ----------------------------------------------------

/// Agents hold tokens `0..fleet.len()`; the fleet's timers sit at the
/// top of the token space, just above the listener.
const TOK_LISTENER: usize = usize::MAX - 2;
/// Session tokens start here; everything below is an agent index.
const CLIENT_BASE: usize = 1 << 32;

// -- Internal state ----------------------------------------------------

/// Hashes the integer keys the pilot assigns itself (session ids, and
/// wire seqs built from them and validated dense local seqs) with one
/// multiply. A client cannot choose these keys, so they need no defence
/// against collisions built on purpose.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// One client session.
struct Session {
    fc: Option<FrameConn<Conn>>,
    /// `false` until the client's `Hello` is answered.
    active: bool,
    /// Tenant index bound by the first `Submit`.
    tenant: Option<usize>,
    payload: Payload,
    /// The template from the client's `Hello`; its source is journaled.
    template: Option<Template>,
    /// Arguments of the accepted tasks, indexed by local seq − 1 (local
    /// seqs run `1..=args.len()`). Recording a task takes its arguments,
    /// so `None` marks a recorded seq (the exactly-once guard) and only
    /// unfinished work holds any.
    args: Vec<Option<Vec<String>>>,
    completed: u64,
    /// Frames queued to the client wait for the loop turn's journal
    /// sync: an admission or detach ack is sent only once its record
    /// is on disk.
    awaiting_sync: bool,
    /// Client sent its `SessionDone`.
    client_done: bool,
    /// Final frame queued; close once the socket drains.
    closing: bool,
    want_write: bool,
    /// The session survives its socket: the client detached (or the
    /// session was recovered from the journal) and may reattach.
    detached: bool,
    /// Key the client reattaches by.
    detach_key: u64,
    /// When the session detached; drives the `detach_ttl` sweep.
    detached_at: Option<Instant>,
    /// A `SessionOpen` record for this session is in the journal.
    journaled: bool,
}

impl Session {
    fn fresh(fc: Option<FrameConn<Conn>>) -> Session {
        Session {
            fc,
            active: false,
            tenant: None,
            payload: Payload::Noop,
            template: None,
            args: Vec::new(),
            completed: 0,
            awaiting_sync: false,
            client_done: false,
            closing: false,
            want_write: false,
            detached: false,
            detach_key: 0,
            detached_at: None,
            journaled: false,
        }
    }

    /// Tasks accepted (admission passed) over the session's lifetime.
    fn submitted(&self) -> u64 {
        self.args.len() as u64
    }

    /// The command of local seq `seq` with `args`: the joblog's Command
    /// column, and what a shell directive runs.
    fn render(&self, args: &[String], seq: u64) -> String {
        let template = self
            .template
            .as_ref()
            .expect("sessions with tasks have a template");
        template.expand(&ExpandContext { args, seq, slot: 0 })
    }

    /// Write the directive the agent runs for local seq `seq`: `noop`,
    /// `sleep:MICROS`, or `sh:` and the rendered command. A
    /// dynamic-payload session's rendered command is its directive.
    fn put_directive(&self, out: &mut Vec<u8>, seq: u64) {
        let args = self.args[(seq - 1) as usize]
            .as_deref()
            .expect("a dispatched task is not recorded yet");
        match self.payload {
            Payload::Noop => out.extend_from_slice(b"noop"),
            Payload::SleepUs(us) => {
                let _ = write!(out, "sleep:{us}");
            }
            Payload::Shell => {
                out.extend_from_slice(b"sh:");
                out.extend_from_slice(self.render(args, seq).as_bytes());
            }
            Payload::Dynamic => out.extend_from_slice(self.render(args, seq).as_bytes()),
        }
    }
}

/// One admitted, not-yet-dispatched task.
struct QTask {
    session: u64,
    local_seq: u64,
}

/// One dispatched, not-yet-completed task.
struct InflightTask {
    agent: usize,
    tenant: usize,
    session: u64,
    local_seq: u64,
    /// When a probe was placed (see [`Window::place`]); `None` for a
    /// task that queues at its agent.
    sent: Option<Instant>,
}

/// The longest a task should sit queued at an agent before a slot
/// takes it (`H` in DESIGN.md §13), at the completion rate the window
/// last measured. A newly arrived tenant waits about this long behind
/// other tenants' work already placed only while that work is about as
/// long as the tasks the window was measured on: longer tasks placed in
/// a window sized for short ones hold it for longer.
const QUEUE_TARGET: Duration = Duration::from_millis(1);

/// Weight of each new sample in an agent's completion-rate average.
const RATE_GAIN: f64 = 0.5;

/// How long an agent's smallest probe round trip stands before a larger
/// one replaces it.
const RTT_HORIZON: Duration = Duration::from_secs(1);

/// One agent's in-flight window: how many tasks the pilot keeps placed
/// on it. The limit is `slots + max(1, ⌈rate × (rtt + QUEUE_TARGET)⌉)`,
/// capped at [`SHARD_CHUNK`] (at `slots + 1` for an agent with more
/// slots than that), where
/// - `rate` averages the agent's completions per second over intervals
///   in which it held work, each lasting at least [`QUEUE_TARGET`] and
///   taking at least one completion per slot. A shorter interval reads
///   one slot's completion as the whole agent's rate: two `-j 2` slots
///   finishing 20 ms tasks a few milliseconds apart read as several
///   hundred tasks a second, and under load that grew the window past
///   `slots + 1`;
/// - `rtt` is the smallest `arrival − dispatch − runtime` among the
///   probes of the last [`RTT_HORIZON`]: tasks placed while the agent
///   held fewer tasks than slots, so they start as they arrive. A task
///   that queued at the agent would count the queue this window builds.
///   A probe's round trip also counts the pilot's own loop, which grows
///   with the windows it serves; the smallest recent one is the round
///   trip without that growth, so windows do not feed on it.
///
/// An underfed agent completes about `window / (rtt + task)` tasks per
/// second, so tasks shorter than the queue target grow the window
/// geometrically until the agent's slots stay busy; tasks longer than
/// it settle at `slots + 1`. A new window starts at that floor, and
/// goes back to it whenever its agent drains. No method reads a clock:
/// callers pass the time in.
struct Window {
    slots: u64,
    /// Tasks placed on the agent and not yet completed, its fleet
    /// backlog included.
    held: u64,
    limit: u64,
    /// Completions per second, averaged over measured intervals.
    rate: Option<f64>,
    /// Smallest probe round trip within the horizon, and when it was
    /// measured.
    rtt: Option<(Duration, Instant)>,
    /// Start of the current interval; `None` while the agent is idle.
    since: Option<Instant>,
    /// Completions in the current interval.
    done: u64,
}

impl Window {
    fn new(slots: u32) -> Window {
        let slots = u64::from(slots);
        Window {
            slots,
            held: 0,
            limit: slots + 1,
            rate: None,
            rtt: None,
            since: None,
            done: 0,
        }
    }

    /// Tasks the agent may take before it is full.
    fn free(&self) -> u64 {
        self.limit.saturating_sub(self.held)
    }

    /// Place one task at `now`. Returns whether it is a probe: one of
    /// the agent's slots is free for it, so it starts as it arrives.
    fn place(&mut self, now: Instant) -> bool {
        self.since.get_or_insert(now);
        self.held += 1;
        self.held <= self.slots
    }

    /// One placed task completed at `now`; `rtt` is its round trip if
    /// it was a probe.
    fn complete(&mut self, rtt: Option<Duration>, now: Instant) {
        debug_assert!(self.held > 0, "completion on an agent holding nothing");
        self.held = self.held.saturating_sub(1);
        self.done += 1;
        if let Some(rtt) = rtt {
            let stands = self.rtt.is_some_and(|(min, at)| {
                min < rtt && now.saturating_duration_since(at) < RTT_HORIZON
            });
            if !stands {
                self.rtt = Some((rtt, now));
            }
        }
    }

    /// Close the interval at `now` once it has lasted the queue target
    /// and taken a completion per slot, and size the window from what it
    /// measured.
    fn measure(&mut self, now: Instant) {
        let Some(since) = self.since else {
            return;
        };
        let span = now.saturating_duration_since(since);
        if span < QUEUE_TARGET || self.done < self.slots {
            return;
        }
        let sample = self.done as f64 / span.as_secs_f64();
        let rate = self.rate.map_or(sample, |r| r + RATE_GAIN * (sample - r));
        self.rate = Some(rate);
        self.since = Some(now);
        self.done = 0;
        let rtt = self.rtt.map_or(Duration::ZERO, |(rtt, _)| rtt);
        let ahead = (rate * (rtt + QUEUE_TARGET).as_secs_f64()).ceil().max(1.0) as u64;
        let cap = (SHARD_CHUNK as u64).max(self.slots + 1);
        self.limit = (self.slots + ahead).min(cap);
    }

    /// If the agent holds nothing after a dispatch round, end the
    /// interval without a sample (idle time is not a measure of its
    /// rate) and put the window back at its floor, so the next busy
    /// period is sized from its own completions, not from the last one's.
    fn idle(&mut self) {
        if self.held == 0 {
            self.since = None;
            self.done = 0;
            self.rate = None;
            self.limit = self.slots + 1;
        }
    }
}

struct Tenant {
    name: String,
    queue: VecDeque<QTask>,
    log: Option<JobLogWriter>,
    /// Retained stdout/stderr sidecar (`<tenant>.outlog`), opened with
    /// the joblog; reattach replay reads real output back from it.
    outlog: Option<crate::outlog::OutLog>,
    completed: u64,
    rejected_submits: u64,
}

/// A bound pilot: agents dialed and handshaken, listener open. Split
/// from [`PilotServer::run`] so callers (the CLI, tests) can learn the
/// actual listen address before the serve loop starts.
pub struct PilotServer {
    config: ServeConfig,
    reactor: Reactor,
    listener: Listener,
    fleet: Fleet,
    /// The journal a previous pilot left in `state_dir`, replayed by
    /// [`PilotServer::run`].
    journal: Vec<JRecord>,
}

impl PilotServer {
    /// Read the journal in `state_dir` if there is one (refusing one in
    /// an older layout), dial and handshake every agent (blocking,
    /// sequential), bind the session listener, and register both with
    /// a fresh reactor.
    pub fn bind(config: ServeConfig) -> Result<PilotServer> {
        let journal = match &config.state_dir {
            Some(dir) => read_journal(&dir.join(JOURNAL_FILE))?,
            None => Vec::new(),
        };
        // Agents run the dynamic engine: the per-task directive carries
        // the work, the template is pure pass-through.
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            jobs: config.jobs_per_agent,
            heartbeat_ms: config.heartbeat_ms,
            payload: Payload::Dynamic,
            command: "{}".to_string(),
        };
        let reactor = Reactor::new()?;
        let fleet = Fleet::connect(
            &reactor,
            &config.agents,
            &hello,
            config.lease_window_ms,
            WRITE_QUEUE_CAP,
            config.bus.clone(),
        )?;
        let listener = Listener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        reactor.register(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
        Ok(PilotServer {
            config,
            reactor,
            listener,
            fleet,
            journal,
        })
    }

    /// The spec clients should dial.
    pub fn local_spec(&self) -> Result<String> {
        Ok(self.listener.local_spec()?)
    }

    /// Run the serve loop until `max_sessions` sessions have closed (or
    /// forever), then drain the fleet. `on_done` observes the global
    /// recorded-completion count after every newly recorded task —
    /// tests use it to trigger chaos at a deterministic point.
    pub fn run(self, on_done: Option<&mut dyn FnMut(u64)>) -> Result<ServeOutcome> {
        Pilot::new(self)?.run(on_done)
    }
}

struct Pilot {
    config: ServeConfig,
    reactor: Reactor,
    listener: Listener,
    fleet: Fleet,
    /// Each agent's in-flight window and the count it holds.
    windows: Vec<Window>,
    sessions: IdMap<Session>,
    next_session: u64,
    sessions_closed: u64,
    tenants: Vec<Tenant>,
    tenant_ids: HashMap<String, usize>,
    scheduler: Box<dyn Scheduler>,
    /// Dispatched tasks by wire seq.
    inflight: IdMap<InflightTask>,
    /// Completions of the current read batch by session, kept between
    /// batches for its capacity.
    delivery: IdMap<Vec<TaskDoneRec>>,
    /// Agents a dispatch round placed tasks on, kept between rounds.
    touched: Vec<usize>,
    completed: u64,
    released: u64,
    duplicates: u64,
    rejected_submits: u64,
    /// Round-robin cursor over agents for grant placement.
    rr: usize,
    /// Last occupancy emitted, to keep the event stream edge-triggered.
    last_occupancy: Option<(usize, usize)>,
    capacity: usize,
    /// Write-ahead journal; `Some` iff `config.state_dir` is set.
    journal: Option<JournalWriter>,
    /// Sessions whose queued frames wait for this loop turn's journal
    /// sync ([`Pilot::commit`]).
    unsynced: Vec<u64>,
    /// Completions recorded since the last journal flush, appended as
    /// `Done` records *after* the tenant joblogs flush each loop.
    pending_done: Vec<(u64, u64)>,
    /// Journaled sessions closed since the last compaction; drives
    /// `journal_compact_every`.
    closed_since_compaction: u64,
}

impl Pilot {
    fn new(server: PilotServer) -> Result<Pilot> {
        let scheduler = server.config.policy.build();
        let mut pilot = Pilot {
            config: server.config,
            reactor: server.reactor,
            listener: server.listener,
            windows: (0..server.fleet.len())
                .map(|idx| Window::new(server.fleet.slots(idx)))
                .collect(),
            capacity: server.fleet.alive_slots(),
            fleet: server.fleet,
            sessions: IdMap::default(),
            next_session: 0,
            sessions_closed: 0,
            tenants: Vec::new(),
            tenant_ids: HashMap::new(),
            scheduler,
            inflight: IdMap::default(),
            delivery: IdMap::default(),
            touched: Vec::new(),
            completed: 0,
            released: 0,
            duplicates: 0,
            rejected_submits: 0,
            rr: 0,
            last_occupancy: None,
            journal: None,
            unsynced: Vec::new(),
            pending_done: Vec::new(),
            closed_since_compaction: 0,
        };
        if let Some(dir) = pilot.config.state_dir.clone() {
            pilot.recover(server.journal)?;
            pilot.journal = Some(JournalWriter::open(&dir)?);
        }
        Ok(pilot)
    }

    /// Rebuild the session table from a previous pilot's journal
    /// records: unclosed sessions come back under their original ids
    /// (so wire seqs stay stable) as detached sessions awaiting
    /// reattach, with their templates and the arguments of exactly the
    /// unfinished seqs, which are re-queued. A seq counts as done if
    /// the journal says so *or* the tenant joblog holds its row — the
    /// joblog flush precedes the journal `Done` flush, so either
    /// surviving record proves completion.
    fn recover(&mut self, recs: Vec<JRecord>) -> Result<()> {
        struct RSession {
            tenant: String,
            weight: u32,
            priority: u32,
            payload: Payload,
            template: String,
            /// Accepted tasks' arguments, by local seq − 1.
            args: Vec<Option<Vec<String>>>,
            done: HashSet<u64>,
            detach_key: u64,
        }
        if recs.is_empty() {
            return Ok(());
        }
        let mut rs: HashMap<u64, RSession> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut max_id = 0u64;
        for rec in recs {
            match rec {
                JRecord::SessionOpen {
                    session,
                    tenant,
                    weight,
                    priority,
                    payload,
                    template,
                } => {
                    max_id = max_id.max(session);
                    order.push(session);
                    rs.insert(
                        session,
                        RSession {
                            tenant,
                            weight,
                            priority,
                            payload,
                            template,
                            args: Vec::new(),
                            done: HashSet::new(),
                            detach_key: 0,
                        },
                    );
                }
                JRecord::Accepted { session, tasks } => {
                    if let Some(r) = rs.get_mut(&session) {
                        for task in tasks {
                            // Admission took only seqs that continue the
                            // session's accepted ones.
                            if task.seq != r.args.len() as u64 + 1 {
                                return Err(NetError::Protocol(format!(
                                    "journal: session {session} accepted seq {} after {}",
                                    task.seq,
                                    r.args.len()
                                )));
                            }
                            r.args.push(Some(task.args));
                        }
                    }
                }
                JRecord::Done { session, seqs } => {
                    if let Some(r) = rs.get_mut(&session) {
                        r.done.extend(seqs);
                    }
                }
                JRecord::Detached {
                    session,
                    detach_key,
                } => {
                    if let Some(r) = rs.get_mut(&session) {
                        r.detach_key = detach_key;
                    }
                }
                JRecord::Closed { session } => {
                    rs.remove(&session);
                }
            }
        }
        self.next_session = max_id + 1;
        if rs.is_empty() {
            return Ok(());
        }
        // Per-tenant joblog rows, loaded once per tenant on demand.
        let mut log_seqs: HashMap<usize, HashSet<u64>> = HashMap::new();
        let mut recovered_sessions = 0u64;
        let mut recovered_tasks = 0u64;
        for id in order {
            let Some(r) = rs.remove(&id) else {
                continue;
            };
            let tidx = self.tenant_index(&r.tenant);
            self.scheduler.set_tenant(tidx, r.weight, r.priority);
            let accepted = 1..=r.args.len() as u64;
            let mut done = r.done;
            if let Some(joblog_dir) = &self.config.joblog_dir {
                let from_log = match log_seqs.entry(tidx) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let path =
                            joblog_dir.join(format!("{}.joblog", sanitize_tenant(&r.tenant)));
                        e.insert(joblog::resume_set(&path, ResumeMode::Resume)?)
                    }
                };
                done.extend(from_log.iter().filter(|s| accepted.contains(s)));
            }
            done.retain(|s| accepted.contains(s));
            let mut session = Session::fresh(None);
            session.active = true;
            session.tenant = Some(tidx);
            session.payload = r.payload;
            session.template = Some(Template::parse(&r.template)?);
            session.args = r.args;
            let mut unfinished = 0u64;
            for seq in accepted {
                if done.contains(&seq) {
                    session.args[(seq - 1) as usize] = None;
                    continue;
                }
                self.tenants[tidx].queue.push_back(QTask {
                    session: id,
                    local_seq: seq,
                });
                unfinished += 1;
            }
            if unfinished > 0 {
                self.scheduler.enqueue(tidx, unfinished);
            }
            session.completed = done.len() as u64;
            session.detached = true;
            session.detach_key = r.detach_key;
            session.detached_at = Some(Instant::now());
            session.journaled = true;
            self.sessions.insert(id, session);
            recovered_sessions += 1;
            recovered_tasks += unfinished;
        }
        self.emit(|| Event::PilotRecovered {
            sessions: recovered_sessions,
            tasks: recovered_tasks,
        });
        Ok(())
    }

    /// The index of tenant `name`, added on first use.
    fn tenant_index(&mut self, name: &str) -> usize {
        if let Some(&tidx) = self.tenant_ids.get(name) {
            return tidx;
        }
        let tidx = self.tenants.len();
        self.tenant_ids.insert(name.to_string(), tidx);
        self.tenants.push(Tenant {
            name: name.to_string(),
            queue: VecDeque::new(),
            log: None,
            outlog: None,
            completed: 0,
            rejected_submits: 0,
        });
        tidx
    }

    fn emit(&self, event: impl FnOnce() -> Event) {
        self.config.emit(event);
    }

    /// A session's tenant name for telemetry; empty before it binds one.
    fn tenant_name(&self, tenant: Option<usize>) -> String {
        tenant
            .map(|t| self.tenants[t].name.clone())
            .unwrap_or_default()
    }

    fn emit_occupancy(&mut self) {
        if self.config.bus.is_none() {
            return;
        }
        // `busy` counts dispatched-not-completed tasks, which exceed raw
        // slots by design. `total` sums the live agents' windows, each
        // at least what its agent holds (a window can shrink below
        // that), so busy <= total always holds.
        let busy = self.inflight.len();
        let total = (0..self.fleet.len())
            .filter(|&idx| self.fleet.is_alive(idx))
            .map(|idx| self.windows[idx].limit.max(self.windows[idx].held) as usize)
            .sum();
        if self.last_occupancy != Some((busy, total)) {
            self.last_occupancy = Some((busy, total));
            self.emit(|| Event::SlotOccupancy { busy, total });
        }
    }

    fn run(mut self, mut on_done: Option<&mut dyn FnMut(u64)>) -> Result<ServeOutcome> {
        let started = Instant::now();
        let tick = fleet::tick_interval(self.config.heartbeat_ms);
        let mut tick_key = self.reactor.arm_timer(Instant::now() + tick, TOK_TICK);
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);

        loop {
            if let Some(max) = self.config.max_sessions {
                if self.sessions_closed >= max && self.sessions.is_empty() {
                    break;
                }
            }
            if !self.fleet.any_alive() {
                return Err(NetError::AllAgentsLost {
                    remaining: self.scheduler.total_queued() + self.inflight.len() as u64,
                });
            }
            events.clear();
            self.reactor
                .poll(&mut events, Some(Duration::from_millis(200)))?;
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match *ev {
                    PollEvent::Timer { token: TOK_TICK } => {
                        for idx in self.fleet.expired() {
                            self.handle_agent_loss(idx);
                        }
                        self.sweep_detach_ttl();
                        tick_key = self.reactor.arm_timer(Instant::now() + tick, TOK_TICK);
                    }
                    PollEvent::Timer { .. } => {}
                    PollEvent::Io { token, .. } if token == TOK_LISTENER => {
                        self.accept_sessions()?;
                    }
                    PollEvent::Io {
                        token,
                        readable,
                        writable,
                        hangup,
                    } if token < self.fleet.len() => {
                        self.agent_event(token, readable || hangup, writable, &mut on_done)?;
                    }
                    PollEvent::Io {
                        token,
                        readable,
                        writable,
                        hangup,
                    } if token >= CLIENT_BASE => {
                        self.session_event(
                            (token - CLIENT_BASE) as u64,
                            readable,
                            writable,
                            hangup,
                        )?;
                    }
                    PollEvent::Io { .. } => {}
                }
            }
            events = batch;
            // One fsync makes the turn's admissions durable before their
            // acks go out and before any of their tasks is dispatched.
            self.commit()?;
            self.dispatch();
            for tenant in self.tenants.iter_mut() {
                if let Some(log) = &mut tenant.log {
                    log.flush()?;
                }
                if let Some(outlog) = &mut tenant.outlog {
                    outlog.flush()?;
                }
            }
            // Joblogs first, then journal `Done` records: on replay a
            // seq is done if either survived, so this order can only
            // cause a benign re-dispatch, never a lost completion.
            self.flush_done_records()?;
            self.emit_occupancy();
            // Telemetry too, so a killed pilot's event file ends at its
            // last loop, not at its last full buffer.
            if let Some(bus) = &self.config.bus {
                bus.flush();
            }
        }
        self.reactor.cancel_timer(tick_key);

        // -- Shutdown: close any straggler sessions, then drain the
        // fleet.
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in ids {
            self.close_session(id, "shutdown");
        }
        self.drain_agents()?;
        for tenant in self.tenants.iter_mut() {
            if let Some(log) = &mut tenant.log {
                log.flush()?;
            }
            if let Some(outlog) = &mut tenant.outlog {
                outlog.flush()?;
            }
        }
        self.flush_done_records()?;
        if let Some(j) = self.journal.as_mut() {
            j.sync()?;
        }
        self.emit_occupancy();

        Ok(ServeOutcome {
            sessions: self.sessions_closed,
            completed: self.completed,
            released: self.released,
            duplicates: self.duplicates,
            rejected_submits: self.rejected_submits,
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantStat {
                    name: t.name.clone(),
                    completed: t.completed,
                    rejected_submits: t.rejected_submits,
                })
                .collect(),
            agents: self.fleet.stats(),
            wall: started.elapsed(),
        })
    }

    // -- Accepting sessions --------------------------------------------

    fn accept_sessions(&mut self) -> Result<()> {
        while let Some(conn) = self.listener.accept_nonblocking()? {
            conn.set_nonblocking(true)?;
            if self.next_session > MAX_SESSION_ID {
                // The wire-seq namespace is exhausted; admitting this
                // session would alias another's seqs. Refuse with a
                // frame any client version can decode. The single
                // small frame fits a fresh socket buffer, so the
                // best-effort blocking-style flush is fine here.
                let mut fc = FrameConn::new(conn);
                fc.queue_frame(&Frame::AgentExit {
                    done: 0,
                    reason: format!("session id space exhausted (max {MAX_SESSION_ID})"),
                });
                let _ = fc.flush();
                fc.stream().shutdown();
                continue;
            }
            let id = self.next_session;
            self.next_session += 1;
            // Tokens are never reused across sessions, so a stale
            // reactor event for a closed session cannot alias a new one.
            self.reactor
                .register(conn.as_raw_fd(), CLIENT_BASE + id as usize, Interest::READ)?;
            self.sessions
                .insert(id, Session::fresh(Some(FrameConn::new(conn))));
        }
        Ok(())
    }

    // -- Session I/O ---------------------------------------------------

    fn session_event(
        &mut self,
        id: u64,
        readable: bool,
        writable: bool,
        hangup: bool,
    ) -> Result<()> {
        if !self.sessions.contains_key(&id) {
            return Ok(());
        }
        if readable || hangup {
            let fill = {
                let session = self.sessions.get_mut(&id).expect("checked above");
                match session.fc.as_mut() {
                    Some(fc) => fc.fill(),
                    None => return Ok(()),
                }
            };
            let mut conn_down = false;
            match fill {
                Ok(Fill::Blocked) => {}
                Ok(Fill::Eof) => conn_down = true,
                Err(_) => conn_down = true,
            }
            loop {
                let frame = {
                    let session = self.sessions.get_mut(&id).expect("session alive");
                    match session.fc.as_mut() {
                        Some(fc) => fc.next_frame(),
                        None => break,
                    }
                };
                match frame {
                    Ok(Some(f)) => {
                        if !self.session_frame(id, f)? {
                            // The frame handler closed the session.
                            return Ok(());
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn_down = true;
                        break;
                    }
                }
            }
            if conn_down {
                if self.sessions.get(&id).is_some_and(|s| s.detached) {
                    // A detached client dropping its socket is the
                    // expected lifecycle, not an abort: release the
                    // socket, keep the session for reattach.
                    self.release_detached_socket(id);
                } else {
                    self.close_session(id, "disconnect");
                }
                return Ok(());
            }
        }
        if writable {
            self.pump_session(id);
        }
        Ok(())
    }

    /// Handle one client frame. Returns `false` when the session was
    /// closed (stop processing its buffered frames).
    fn session_frame(&mut self, id: u64, frame: Frame) -> Result<bool> {
        match frame {
            Frame::Hello {
                version,
                payload,
                command,
                ..
            } => {
                let session = self.sessions.get_mut(&id).expect("session alive");
                if session.active {
                    self.close_session(id, "protocol: second Hello");
                    return Ok(false);
                }
                if version != PROTOCOL_VERSION {
                    // Refuse with a frame every protocol version can
                    // decode, then close once it flushes.
                    let reason = format!(
                        "pilot speaks protocol {PROTOCOL_VERSION}, client speaks {version}"
                    );
                    if let Some(fc) = session.fc.as_mut() {
                        fc.queue_frame(&Frame::AgentExit { done: 0, reason });
                    }
                    session.closing = true;
                    self.pump_session(id);
                    return Ok(false);
                }
                let template = match Template::parse(&command) {
                    Ok(t) => t,
                    Err(e) => {
                        self.close_session(id, &format!("bad template: {e}"));
                        return Ok(false);
                    }
                };
                session.payload = payload;
                session.template = Some(template);
                session.active = true;
                let ack = Frame::HelloAck {
                    version: PROTOCOL_VERSION,
                    slots: self.capacity as u32,
                    agent: "pilot".to_string(),
                };
                if let Some(fc) = session.fc.as_mut() {
                    fc.queue_frame(&ack);
                }
                self.pump_session(id);
                Ok(true)
            }
            Frame::Submit {
                tenant,
                weight,
                priority,
                submit_id,
                tasks,
            } => self.session_submit(id, tenant, weight, priority, submit_id, tasks),
            Frame::SessionDone { .. } => {
                let session = self.sessions.get_mut(&id).expect("session alive");
                if !session.active {
                    self.close_session(id, "protocol: SessionDone before Hello");
                    return Ok(false);
                }
                session.client_done = true;
                Ok(self.maybe_finish_session(id))
            }
            Frame::Detach { detach_key } => self.session_detach(id, detach_key),
            Frame::Reattach { tenant, detach_key } => self.session_reattach(id, tenant, detach_key),
            other => {
                self.close_session(id, &format!("protocol: unexpected client frame {other:?}"));
                Ok(false)
            }
        }
    }

    /// Mark a session durable-detached: the client may drop its socket
    /// after the ack and reattach later by `detach_key`. The detach is
    /// journaled, and its ack waits for the turn's fsync so the key
    /// survives a pilot crash.
    fn session_detach(&mut self, id: u64, detach_key: u64) -> Result<bool> {
        let session = self.sessions.get_mut(&id).expect("session alive");
        if !session.active {
            self.close_session(id, "protocol: Detach before Hello");
            return Ok(false);
        }
        let Some(tidx) = session.tenant else {
            // Nothing accepted yet — nothing to keep alive. Typed
            // refusal rather than a close, mirroring admission.
            let ack = Frame::SessionAck {
                submit_id: detach_key,
                accepted: false,
                queued: 0,
                reason: "nothing to detach: no accepted Submit yet".to_string(),
            };
            if let Some(fc) = session.fc.as_mut() {
                fc.queue_frame(&ack);
            }
            self.pump_session(id);
            return Ok(self.sessions.contains_key(&id));
        };
        session.detached = true;
        session.detach_key = detach_key;
        session.detached_at = Some(Instant::now());
        let queued = session.submitted() - session.completed;
        if let Some(j) = self.journal.as_mut() {
            j.append(&JRecord::Detached {
                session: id,
                detach_key,
            });
            self.await_sync(id);
        }
        self.emit(|| Event::SessionDetached {
            session: id,
            tenant: self.tenants[tidx].name.clone(),
        });
        let session = self.sessions.get_mut(&id).expect("session alive");
        if let Some(fc) = session.fc.as_mut() {
            fc.queue_frame(&Frame::SessionAck {
                submit_id: detach_key,
                accepted: true,
                queued,
                reason: "detached".to_string(),
            });
        }
        self.pump_session(id);
        Ok(self.sessions.contains_key(&id))
    }

    /// Adopt a detached session: the fresh connection `id` (post-Hello,
    /// pre-Submit) takes over the detached session's socket slot, gets
    /// already-recorded completions replayed from the tenant joblog,
    /// and then streams the remainder live. Always returns `false`:
    /// the temporary session id is gone whether or not the target was
    /// found.
    fn session_reattach(&mut self, id: u64, tenant: String, detach_key: u64) -> Result<bool> {
        let session = self.sessions.get(&id).expect("session alive");
        if !session.active || session.tenant.is_some() {
            self.close_session(id, "protocol: Reattach on a used session");
            return Ok(false);
        }
        let target = self.sessions.iter().find_map(|(&sid, s)| {
            let matches = sid != id
                && s.detached
                && s.detach_key == detach_key
                && s.tenant.is_some_and(|t| self.tenants[t].name == tenant);
            matches.then_some(sid)
        });
        let Some(tid) = target else {
            let session = self.sessions.get_mut(&id).expect("session alive");
            if let Some(fc) = session.fc.as_mut() {
                fc.queue_frame(&Frame::ReattachAck {
                    found: false,
                    submitted: 0,
                    completed: 0,
                    reason: format!(
                        "no detached session for tenant {tenant:?} with key {detach_key}"
                    ),
                });
            }
            session.closing = true;
            self.pump_session(id);
            return Ok(false);
        };
        // Merge the fresh connection into the detached session. The
        // temporary id never counted as a session, so remove it
        // directly rather than through `finalize_session`.
        let mut temp = self.sessions.remove(&id).expect("session alive");
        let fc = temp.fc.take();
        // The detaching client's EOF may not have been processed yet;
        // drop any stale socket before attaching the new one.
        self.release_detached_socket(tid);
        let session = self.sessions.get_mut(&tid).expect("target alive");
        session.fc = fc;
        session.detached = false;
        session.detached_at = None;
        // Reattached clients are collect-only: treat the client's
        // SessionDone as already sent so the session finishes when the
        // last accepted task completes.
        session.client_done = true;
        session.want_write = false;
        let (submitted, completed) = (session.submitted(), session.completed);
        if let Some(fc) = session.fc.as_ref() {
            let _ = self.reactor.reregister(
                fc.stream().as_raw_fd(),
                CLIENT_BASE + tid as usize,
                Interest::READ,
            );
        }
        let session = self.sessions.get_mut(&tid).expect("target alive");
        if let Some(fc) = session.fc.as_mut() {
            fc.queue_frame(&Frame::ReattachAck {
                found: true,
                submitted,
                completed,
                reason: String::new(),
            });
        }
        let replayed = self.replay_recorded(tid)?;
        self.emit(|| Event::SessionReattached {
            session: tid,
            tenant,
            replayed,
        });
        self.maybe_finish_session(tid);
        self.pump_session(tid);
        Ok(false)
    }

    /// Queue `DoneBatch` replays for every already-recorded seq of a
    /// freshly reattached session. Joblog rows supply real exit codes
    /// and runtimes, the `<tenant>.outlog` sidecar supplies the
    /// retained stdout/stderr; recorded seqs missing a row (no
    /// `--joblog-dir`, or a row lost to a crash after the journal
    /// `Done` survived) replay as zeros with empty output. Returns the
    /// number of seqs replayed.
    fn replay_recorded(&mut self, id: u64) -> Result<u64> {
        let (tidx, seqs) = {
            let session = self.sessions.get(&id).expect("session alive");
            (
                session.tenant.expect("reattached sessions have a tenant"),
                (1..)
                    .zip(&session.args)
                    .filter(|(_, args)| args.is_none())
                    .map(|(seq, _)| seq)
                    .collect::<Vec<u64>>(),
            )
        };
        if seqs.is_empty() {
            return Ok(0);
        }
        let mut by_seq: HashMap<u64, TaskDoneRec> = HashMap::new();
        if let Some(dir) = &self.config.joblog_dir {
            if let Some(log) = self.tenants[tidx].log.as_mut() {
                log.flush()?;
            }
            if let Some(outlog) = self.tenants[tidx].outlog.as_mut() {
                outlog.flush()?;
            }
            let safe = sanitize_tenant(&self.tenants[tidx].name);
            let mut outputs = crate::outlog::read_outputs(dir.join(format!("{safe}.outlog")))?;
            for e in joblog::read_log(dir.join(format!("{safe}.joblog")))? {
                if seqs.binary_search(&e.seq).is_ok() {
                    let (stdout, stderr) = outputs.remove(&e.seq).unwrap_or_default();
                    by_seq
                        .entry(e.seq)
                        .or_insert(TaskDoneRec::from_log_entry(&e, stdout, stderr));
                }
            }
        }
        let n = seqs.len() as u64;
        let session = self.sessions.get_mut(&id).expect("session alive");
        let Some(fc) = session.fc.as_mut() else {
            return Ok(0);
        };
        for chunk in seqs.chunks(256) {
            let results: Vec<TaskDoneRec> = chunk
                .iter()
                .map(|&seq| {
                    by_seq.remove(&seq).unwrap_or(TaskDoneRec {
                        seq,
                        exitval: 0,
                        signal: 0,
                        start_epoch_us: 0,
                        runtime_us: 0,
                        stdout: String::new(),
                        stderr: String::new(),
                    })
                })
                .collect();
            fc.queue_frame(&Frame::DoneBatch { results });
        }
        Ok(n)
    }

    /// Drop a detached session's socket without touching the session:
    /// its queued and in-flight work stays live for a later reattach.
    fn release_detached_socket(&mut self, id: u64) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if let Some(fc) = session.fc.take() {
            let _ = self.reactor.deregister(fc.stream().as_raw_fd());
            fc.stream().shutdown();
        }
        session.want_write = false;
    }

    /// Close detached sessions whose reattach window ran out. Runs on
    /// the lease tick; only sessions whose socket is actually gone are
    /// eligible (a still-connected detached client keeps its session).
    fn sweep_detach_ttl(&mut self) {
        let Some(ttl) = self.config.detach_ttl else {
            return;
        };
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.detached && s.fc.is_none() && s.detached_at.is_some_and(|at| at.elapsed() >= ttl)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.close_session(id, "detach ttl expired");
        }
    }

    /// Append journal `Done` records for completions recorded since
    /// the last flush. Called after the tenant joblogs flush: the
    /// joblog row is the commit record, so these records only spare a
    /// recovering pilot a benign re-dispatch and are never fsynced on
    /// the hot path.
    fn flush_done_records(&mut self) -> Result<()> {
        if self.pending_done.is_empty() {
            return Ok(());
        }
        let Some(j) = self.journal.as_mut() else {
            self.pending_done.clear();
            return Ok(());
        };
        self.pending_done.sort_unstable();
        for run in self.pending_done.chunk_by(|a, b| a.0 == b.0) {
            j.append_done(run[0].0, run.iter().map(|&(_, seq)| seq));
        }
        self.pending_done.clear();
        j.flush()?;
        Ok(())
    }

    /// Admit one `Submit`: its tasks must carry the seqs that continue
    /// the session's accepted ones, in order, and fit the tenant's
    /// queue bound. Admitted arguments move into the session; the ack
    /// waits for the loop turn's journal sync.
    #[allow(clippy::too_many_arguments)]
    fn session_submit(
        &mut self,
        id: u64,
        tenant: String,
        weight: u32,
        priority: u32,
        submit_id: u64,
        tasks: Vec<TaskSpec>,
    ) -> Result<bool> {
        let session = self.sessions.get_mut(&id).expect("session alive");
        if !session.active || session.client_done {
            self.close_session(id, "protocol: Submit outside active session");
            return Ok(false);
        }
        // Bind the tenant on first Submit; later Submits may update the
        // scheduling knobs but not the tenant name.
        let tidx = match session.tenant {
            Some(tidx) => {
                if self.tenants[tidx].name != tenant {
                    self.close_session(id, "protocol: tenant changed mid-session");
                    return Ok(false);
                }
                self.scheduler.set_tenant(tidx, weight, priority);
                tidx
            }
            None => {
                let tidx = self.tenant_index(&tenant);
                self.scheduler.set_tenant(tidx, weight, priority);
                self.sessions.get_mut(&id).expect("session alive").tenant = Some(tidx);
                self.emit(|| Event::SessionOpened {
                    session: id,
                    tenant: tenant.clone(),
                });
                tidx
            }
        };
        let depth = self.tenants[tidx].queue.len() as u64;
        let n = tasks.len() as u64;
        let first = self.sessions[&id].submitted() + 1;
        // Seqs run 1..=n per session with no gaps or repeats: two tasks
        // under one seq would share one wire seq and one in-flight entry.
        // A seq outside its 40-bit field (or a session id outside its
        // 24-bit field) would alias another session's wire seqs. Either
        // way the whole batch gets a typed refusal.
        let misnumbered = tasks
            .iter()
            .zip(first..)
            .find(|(t, due)| t.seq != *due)
            .map(|(t, due)| {
                format!(
                    "seq {} where {due} was due: seqs continue the session's, in order",
                    t.seq
                )
            });
        let refusal = if let Some(reason) = misnumbered {
            Some(reason)
        } else if n > 0 && wire_seq_checked(id, first + n - 1).is_none() {
            Some(format!(
                "local seq {} outside [1, {MAX_LOCAL_SEQ}]",
                first + n - 1
            ))
        } else if depth + n > self.config.max_queue_per_tenant {
            Some(format!(
                "tenant queue at {depth} of {}; resubmit after draining",
                self.config.max_queue_per_tenant
            ))
        } else {
            None
        };
        let ack = if let Some(reason) = refusal {
            self.rejected_submits += 1;
            self.tenants[tidx].rejected_submits += 1;
            self.emit(|| Event::SubmitRejected {
                session: id,
                tenant: self.tenants[tidx].name.clone(),
                tasks: n,
                queued: depth,
            });
            Frame::SessionAck {
                submit_id,
                accepted: false,
                queued: depth,
                reason,
            }
        } else {
            let queue = &mut self.tenants[tidx].queue;
            queue.extend((first..first + n).map(|local_seq| QTask {
                session: id,
                local_seq,
            }));
            self.scheduler.enqueue(tidx, n);
            let session = self.sessions.get_mut(&id).expect("session alive");
            let needs_open = !session.journaled;
            session.journaled = true;
            // Journal the admission before the ack: the ack waits for
            // the turn's fsync, so once the client sees `accepted`, the
            // work survives a pilot SIGKILL.
            if let Some(j) = self.journal.as_mut() {
                if needs_open {
                    j.append(&JRecord::SessionOpen {
                        session: id,
                        tenant,
                        weight,
                        priority,
                        payload: session.payload,
                        template: session
                            .template
                            .as_ref()
                            .expect("active session")
                            .source()
                            .to_string(),
                    });
                }
                j.append_accepted(id, &tasks);
            }
            session.args.extend(tasks.into_iter().map(|t| Some(t.args)));
            if self.journal.is_some() {
                self.await_sync(id);
            }
            Frame::SessionAck {
                submit_id,
                accepted: true,
                queued: depth + n,
                reason: String::new(),
            }
        };
        let session = self.sessions.get_mut(&id).expect("session alive");
        if let Some(fc) = session.fc.as_mut() {
            fc.queue_frame(&ack);
        }
        self.pump_session(id);
        Ok(self.sessions.contains_key(&id))
    }

    /// Hold session `id`'s queued frames until the loop turn's journal
    /// sync.
    fn await_sync(&mut self, id: u64) {
        let session = self.sessions.get_mut(&id).expect("session alive");
        if !session.awaiting_sync {
            session.awaiting_sync = true;
            self.unsynced.push(id);
        }
    }

    /// Make the loop turn's journal records durable with one fsync,
    /// then send the frames that waited for it.
    fn commit(&mut self) -> Result<()> {
        if self.unsynced.is_empty() {
            return Ok(());
        }
        if let Some(j) = self.journal.as_mut() {
            j.sync()?;
        }
        let mut ids = std::mem::take(&mut self.unsynced);
        for &id in &ids {
            if let Some(session) = self.sessions.get_mut(&id) {
                session.awaiting_sync = false;
                self.pump_session(id);
            }
        }
        ids.clear();
        self.unsynced = ids;
        Ok(())
    }

    /// If the session has received its client `SessionDone` and every
    /// accepted task is complete, queue the final pilot `SessionDone`
    /// and start closing. Returns `false` once the session is gone.
    fn maybe_finish_session(&mut self, id: u64) -> bool {
        let Some(session) = self.sessions.get_mut(&id) else {
            return false;
        };
        if !session.client_done || session.closing || session.completed < session.submitted() {
            return true;
        }
        let completed = session.completed;
        session.closing = true;
        if let Some(fc) = session.fc.as_mut() {
            fc.queue_frame(&Frame::SessionDone {
                completed,
                reason: "complete".to_string(),
            });
        }
        let tenant = session.tenant;
        self.emit(|| Event::SessionClosed {
            session: id,
            tenant: self.tenant_name(tenant),
            completed,
            reason: "complete".to_string(),
        });
        self.pump_session(id);
        self.sessions.contains_key(&id)
    }

    /// Flush a session's write queue, adjusting write interest; tear
    /// the session down on write error, or on drain when it is closing.
    /// A session awaiting the turn's journal sync keeps its frames.
    fn pump_session(&mut self, id: u64) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if session.awaiting_sync {
            return;
        }
        let Some(fc) = session.fc.as_mut() else {
            return;
        };
        let closing = session.closing;
        match fc.flush() {
            Ok(Flush::Drained) => {
                if closing {
                    self.finalize_session(id);
                    return;
                }
                self.set_session_write_interest(id, false);
            }
            Ok(Flush::Blocked) => {
                self.set_session_write_interest(id, true);
            }
            Err(_) => {
                if self.sessions.get(&id).is_some_and(|s| s.detached) {
                    // A detached client may already be gone when the
                    // ack flushes; the session outlives its socket.
                    self.release_detached_socket(id);
                } else {
                    self.close_session(id, "disconnect");
                }
            }
        }
    }

    fn set_session_write_interest(&mut self, id: u64, want: bool) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if session.want_write == want {
            return;
        }
        let Some(fc) = session.fc.as_ref() else {
            return;
        };
        let interest = if want {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if self
            .reactor
            .reregister(fc.stream().as_raw_fd(), CLIENT_BASE + id as usize, interest)
            .is_ok()
        {
            session.want_write = want;
        }
    }

    /// Close a session that ended abnormally (or at shutdown): emit the
    /// close event, purge its queued work, drop the socket. In-flight
    /// work stays on the agents and is released as it completes.
    fn close_session(&mut self, id: u64, reason: &str) {
        let Some(session) = self.sessions.get(&id) else {
            return;
        };
        if !session.closing {
            self.emit(|| Event::SessionClosed {
                session: id,
                tenant: self.tenant_name(session.tenant),
                completed: session.completed,
                reason: reason.to_string(),
            });
        }
        if let Some(tidx) = session.tenant {
            // Purge the dead session's queued (not yet dispatched) work
            // and mirror the removal into the scheduler's counts.
            let before = self.tenants[tidx].queue.len();
            self.tenants[tidx].queue.retain(|t| t.session != id);
            let purged = (before - self.tenants[tidx].queue.len()) as u64;
            if purged > 0 {
                self.scheduler.remove(tidx, purged);
            }
        }
        self.finalize_session(id);
    }

    /// Drop the session's socket and forget it.
    fn finalize_session(&mut self, id: u64) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if let Some(fc) = session.fc.take() {
            let _ = self.reactor.deregister(fc.stream().as_raw_fd());
            fc.stream().shutdown();
        }
        // Connections refused before the handshake completed (version
        // gate, bad template) never became sessions — they don't count
        // toward `max_sessions`.
        let counted = session.active;
        let journaled = session.journaled;
        self.sessions.remove(&id);
        if counted {
            self.sessions_closed += 1;
        }
        if journaled {
            // Flush (not fsync): a lost `Closed` record only makes the
            // next restart resurrect a finished session that then ages
            // out through the detach TTL.
            if let Some(j) = self.journal.as_mut() {
                j.append(&JRecord::Closed { session: id });
                let _ = j.flush();
            }
            self.closed_since_compaction += 1;
            let every = self.config.journal_compact_every;
            if every > 0 && self.closed_since_compaction >= every {
                self.closed_since_compaction = 0;
                // Best-effort: a failed compaction leaves the old
                // journal intact and appendable, so just keep going.
                if let Some(j) = self.journal.as_mut() {
                    let _ = j.compact();
                }
            }
        }
    }

    // -- Agent I/O -----------------------------------------------------

    fn agent_event(
        &mut self,
        idx: usize,
        readable: bool,
        writable: bool,
        on_done: &mut Option<&mut dyn FnMut(u64)>,
    ) -> Result<()> {
        let mut done = Vec::new();
        let down = self
            .fleet
            .io(&self.reactor, idx, readable, writable, &mut done);
        let now = Instant::now();
        let n = done.len();
        for (i, rec) in done.into_iter().enumerate() {
            if let Some((session, rec)) = self.complete(idx, rec, now, on_done)? {
                self.delivery
                    .entry(session)
                    .or_insert_with(|| Vec::with_capacity(n - i))
                    .push(rec);
            }
        }
        self.windows[idx].measure(now);
        self.deliver();
        if down {
            self.handle_agent_loss(idx);
        }
        Ok(())
    }

    /// Record one completion from agent `idx`, which arrived at `now`:
    /// its command is rendered here, once, for its joblog row, and its
    /// arguments are dropped. Returns the session to deliver it to and
    /// the completion under its session-local seq. Dead-session
    /// completions are released (their slot frees, nothing is
    /// recorded); duplicate completions after a lease-expiry
    /// re-dispatch are dropped.
    fn complete(
        &mut self,
        idx: usize,
        rec: TaskDoneRec,
        now: Instant,
        on_done: &mut Option<&mut dyn FnMut(u64)>,
    ) -> Result<Option<(u64, TaskDoneRec)>> {
        let Some(inf) = self.inflight.remove(&rec.seq) else {
            self.duplicates += 1;
            return Ok(None);
        };
        if inf.agent != idx {
            // The task was re-dispatched after this agent's lease
            // expired; the copy tracked in `inflight` lives elsewhere
            // and counts in that agent's window. Re-insert and treat
            // this completion as the duplicate.
            self.inflight.insert(rec.seq, inf);
            self.duplicates += 1;
            return Ok(None);
        }
        let rtt = inf.sent.map(|sent| {
            now.saturating_duration_since(sent)
                .saturating_sub(Duration::from_micros(rec.runtime_us))
        });
        self.windows[idx].complete(rtt, now);
        let Some(session) = self.sessions.get_mut(&inf.session) else {
            self.released += 1;
            return Ok(None);
        };
        let Some(args) = session.args[(inf.local_seq - 1) as usize].take() else {
            self.duplicates += 1;
            return Ok(None);
        };
        // Log and deliver under the session-local seq the client submitted.
        let rec = TaskDoneRec {
            seq: inf.local_seq,
            ..rec
        };
        session.completed += 1;
        self.fleet.credit(idx);
        self.completed += 1;
        let tenant = &mut self.tenants[inf.tenant];
        tenant.completed += 1;
        self.config.emit(|| Event::TenantTaskDone {
            tenant: tenant.name.clone(),
            session: inf.session,
            seq: inf.local_seq,
        });
        if let Some(dir) = &self.config.joblog_dir {
            if tenant.log.is_none() {
                std::fs::create_dir_all(dir)?;
                let safe = sanitize_tenant(&tenant.name);
                tenant.log = Some(JobLogWriter::open(dir.join(format!("{safe}.joblog")))?);
                tenant.outlog = Some(crate::outlog::OutLog::open(
                    dir.join(format!("{safe}.outlog")),
                )?);
            }
            if let Some(log) = &mut tenant.log {
                let command = session.render(&args, inf.local_seq);
                log.record_row(&rec.row(self.fleet.name(idx), &command))?;
            }
            if let Some(outlog) = &mut tenant.outlog {
                outlog.record(rec.seq, &rec.stdout, &rec.stderr)?;
            }
        }
        if self.journal.is_some() {
            self.pending_done.push((inf.session, inf.local_seq));
        }
        if let Some(cb) = on_done.as_deref_mut() {
            cb(self.completed);
        }
        Ok(Some((inf.session, rec)))
    }

    /// Queue the read batch's completions to their sessions, one
    /// coalesced DoneBatch each, and let finished sessions start
    /// closing.
    fn deliver(&mut self) {
        let mut delivery = std::mem::take(&mut self.delivery);
        for (id, results) in delivery.drain() {
            let Some(session) = self.sessions.get_mut(&id) else {
                continue;
            };
            if let Some(fc) = session.fc.as_mut() {
                fc.queue_frame(&Frame::DoneBatch { results });
            }
            if self.maybe_finish_session(id) {
                self.pump_session(id);
            }
        }
        self.delivery = delivery;
    }

    /// Declare an agent lost and release what it held.
    fn handle_agent_loss(&mut self, idx: usize) {
        if self.fleet.lose(&self.reactor, idx) {
            self.release_agent(idx);
        }
    }

    /// Requeue a lost agent's in-flight work for live sessions (head of
    /// the tenant queue, so recovered work runs first), release the rest.
    fn release_agent(&mut self, idx: usize) {
        self.capacity = self.fleet.alive_slots();
        let wire_seqs: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, inf)| inf.agent == idx)
            .map(|(&wire, _)| wire)
            .collect();
        debug_assert_eq!(wire_seqs.len() as u64, self.windows[idx].held);
        self.windows[idx].held = 0;
        let mut requeued_per_tenant: HashMap<usize, u64> = HashMap::new();
        let outstanding = wire_seqs.len() as u64;
        for wire in wire_seqs {
            let inf = self.inflight.remove(&wire).expect("collected above");
            if !self.sessions.contains_key(&inf.session) {
                // Dead session: the work is simply released.
                self.released += 1;
                continue;
            }
            self.tenants[inf.tenant].queue.push_front(QTask {
                session: inf.session,
                local_seq: inf.local_seq,
            });
            *requeued_per_tenant.entry(inf.tenant).or_default() += 1;
        }
        for (tenant, n) in requeued_per_tenant {
            self.scheduler.requeue(tenant, n);
        }
        self.emit(|| Event::AgentLost {
            agent: idx as u32,
            outstanding,
        });
    }

    // -- Dispatch ------------------------------------------------------

    /// In-flight room on agent `idx`: its window, less what it already
    /// holds.
    fn free(&self, idx: usize) -> u64 {
        if !self.fleet.is_alive(idx) {
            return 0;
        }
        self.windows[idx].free()
    }

    /// Ask the scheduler for grants while the fleet has free capacity,
    /// placing granted tasks round-robin across agents with room.
    fn dispatch(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        // One timestamp for everything this round places.
        let mut stamp = None;
        loop {
            let free_total: u64 = (0..self.fleet.len()).map(|idx| self.free(idx)).sum();
            if free_total == 0 {
                break;
            }
            let Some(grant) = self.scheduler.grant(free_total.min(SHARD_CHUNK as u64)) else {
                break;
            };
            let now = *stamp.get_or_insert_with(Instant::now);
            let mut remaining = grant.n;
            while remaining > 0 {
                // Next agent with room, round-robin for spread.
                let mut target = None;
                for step in 0..self.fleet.len() {
                    let idx = (self.rr + step) % self.fleet.len();
                    if self.free(idx) > 0 {
                        target = Some(idx);
                        break;
                    }
                }
                let Some(idx) = target else {
                    // Capacity vanished mid-grant (agent lost between
                    // iterations). The remainder tasks are still in the
                    // tenant queue; give the scheduler its count back.
                    self.scheduler.requeue(grant.tenant, remaining);
                    break;
                };
                self.rr = (idx + 1) % self.fleet.len();
                let take = remaining.min(self.free(idx));
                let mut placed = 0u64;
                for _ in 0..take {
                    let Some(task) = self.tenants[grant.tenant].queue.pop_front() else {
                        break;
                    };
                    let wire = wire_seq(task.session, task.local_seq);
                    // Queued work of a closed session is purged at close.
                    let session = &self.sessions[&task.session];
                    self.fleet.enqueue_with(idx, wire, |out| {
                        session.put_directive(out, task.local_seq);
                    });
                    let probe = self.windows[idx].place(now);
                    self.inflight.insert(
                        wire,
                        InflightTask {
                            agent: idx,
                            tenant: grant.tenant,
                            session: task.session,
                            local_seq: task.local_seq,
                            sent: probe.then_some(now),
                        },
                    );
                    placed += 1;
                }
                if placed > 0 {
                    self.emit(|| Event::TenantShardSent {
                        tenant: self.tenants[grant.tenant].name.clone(),
                        agent: idx as u32,
                        tasks: placed,
                    });
                    if !touched.contains(&idx) {
                        touched.push(idx);
                    }
                }
                if placed < take {
                    // The tenant queue ran dry ahead of the scheduler's
                    // count (should not happen; counts are mirrored).
                    break;
                }
                remaining -= placed;
            }
        }
        for window in &mut self.windows {
            window.idle();
        }
        for &idx in &touched {
            if self.fleet.is_alive(idx) && !self.fleet.pump(&self.reactor, idx) {
                self.handle_agent_loss(idx);
            }
        }
        touched.clear();
        self.touched = touched;
    }

    // -- Shutdown drain ------------------------------------------------

    fn drain_agents(&mut self) -> Result<()> {
        let drained = self.fleet.drain(&mut self.reactor)?;
        for idx in drained.lost {
            self.release_agent(idx);
        }
        // Completions still land during the drain (e.g. a disconnected
        // session's tasks finishing); route them through the normal path
        // so the occupancy accounting zeroes. The sessions are gone by
        // now, so nothing is delivered.
        let mut no_callback: Option<&mut dyn FnMut(u64)> = None;
        let now = Instant::now();
        for (idx, rec) in drained.late {
            self.complete(idx, rec, now, &mut no_callback)?;
        }
        Ok(())
    }
}

/// Make a tenant name safe as a file stem. Names that survive
/// unchanged map to themselves; any name the substitution altered gets
/// a short hash of the raw name appended, so distinct tenants (`a/b`
/// vs `a_b`) can never share a joblog file and corrupt each other's
/// exactly-once accounting.
fn sanitize_tenant(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if safe == name {
        return safe;
    }
    // FNV-1a over the raw bytes, folded to 32 bits for a short stable
    // suffix.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{safe}-{:08x}", (h ^ (h >> 32)) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_seq_namespacing_never_collides_across_sessions() {
        let a = wire_seq(0, 1);
        let b = wire_seq(1, 1);
        assert_ne!(a, b);
        // Driver-style plain seqs live entirely below the first
        // session's namespace.
        assert!(MAX_LOCAL_SEQ < wire_seq(0, 1));
        assert_eq!(wire_seq(2, 7) >> SESSION_SEQ_BITS, 3);
        assert_eq!(wire_seq(2, 7) & MAX_LOCAL_SEQ, 7);
    }

    #[test]
    fn wire_seq_bounds_are_enforced() {
        // The extreme valid corner neither overflows nor aliases.
        let top = wire_seq_checked(MAX_SESSION_ID, MAX_LOCAL_SEQ).expect("corner is valid");
        assert_eq!(top, u64::MAX);
        assert_eq!(top >> SESSION_SEQ_BITS, MAX_SESSION_ID + 1);
        assert_eq!(top & MAX_LOCAL_SEQ, MAX_LOCAL_SEQ);
        // One past either bound is refused — these are exactly the
        // inputs that used to silently wrap into another session's
        // namespace.
        assert_eq!(wire_seq_checked(MAX_SESSION_ID + 1, 1), None);
        assert_eq!(wire_seq_checked(0, MAX_LOCAL_SEQ + 1), None);
        assert_eq!(wire_seq_checked(0, 0), None);
        assert_eq!(wire_seq_checked(u64::MAX, 1), None);
        assert_eq!(wire_seq_checked(0, u64::MAX), None);
    }

    /// What one agent did under a [`Window`] in [`simulate`].
    struct Run {
        /// The limit after each measured interval.
        limits: Vec<u64>,
        /// Most tasks the agent held at once.
        peak_held: u64,
    }

    /// Closed-loop model of one agent under a [`Window`], on synthetic
    /// time: `slots` slots take tasks first come first served, each task
    /// runs `task`, and a frame spends half of `rtt` on the wire each
    /// way. The pilot tops the window up whenever a completion arrives,
    /// as `dispatch` does.
    fn simulate(slots: u32, task: Duration, rtt: Duration, run: Duration) -> Run {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        const ARRIVE: u8 = 0;
        const FINISH: u8 = 1;
        const DONE: u8 = 2;
        let t0 = Instant::now();
        let half = rtt / 2;
        let mut window = Window::new(slots);
        let mut idle_slots = u64::from(slots);
        // Tasks waiting at the agent, each with its probe stamp.
        let mut waiting: VecDeque<Option<Instant>> = VecDeque::new();
        // (when, tie-break, what, probe stamp), earliest first.
        let mut events = BinaryHeap::new();
        let mut order = 0u64;
        let mut push = |events: &mut BinaryHeap<_>, at: Duration, what: u8, sent| {
            order += 1;
            events.push(Reverse((at, order, what, sent)));
        };
        let mut out = Run {
            limits: Vec::new(),
            peak_held: 0,
        };
        let mut fill = |window: &mut Window, events: &mut BinaryHeap<_>, at: Duration| {
            let now = t0 + at;
            for _ in 0..window.free() {
                let probe = window.place(now);
                push(events, at + half, ARRIVE, probe.then_some(now));
            }
        };
        fill(&mut window, &mut events, Duration::ZERO);
        while let Some(Reverse((at, _, what, sent))) = events.pop() {
            if at > run {
                break;
            }
            match what {
                ARRIVE if idle_slots > 0 => {
                    idle_slots -= 1;
                    events.push(Reverse((at + task, 0, FINISH, sent)));
                }
                ARRIVE => waiting.push_back(sent),
                FINISH => {
                    events.push(Reverse((at + half, 0, DONE, sent)));
                    match waiting.pop_front() {
                        Some(next) => events.push(Reverse((at + task, 0, FINISH, next))),
                        None => idle_slots += 1,
                    }
                }
                _ => {
                    let now = t0 + at;
                    window.complete(sent.map(|s| now - s - task), now);
                    window.measure(now);
                    if window.done == 0 {
                        out.limits.push(window.limit);
                    }
                    fill(&mut window, &mut events, at);
                    out.peak_held = out.peak_held.max(window.held);
                }
            }
        }
        out
    }

    #[test]
    fn window_grows_geometrically_for_short_tasks() {
        // 5 µs tasks behind a 50 µs round trip: the starting window of 3
        // leaves both slots idle most of each round trip.
        let run = simulate(
            2,
            Duration::from_micros(5),
            Duration::from_micros(50),
            Duration::from_millis(50),
        );
        assert!(
            run.limits[..3].iter().any(|&l| l > 4 * 2),
            "limits {:?}",
            &run.limits[..3]
        );
        // Saturated, the agent completes 400k/s: the window covers the
        // round trip and the queue target of that, and no more.
        let last = *run.limits.last().expect("measured");
        assert!((400..=480).contains(&last), "settled at {last}");
        assert!(run.peak_held <= SHARD_CHUNK as u64);
    }

    #[test]
    fn window_holds_slots_plus_one_for_long_tasks() {
        let run = simulate(
            2,
            Duration::from_millis(20),
            Duration::from_micros(50),
            Duration::from_secs(1),
        );
        assert!(run.limits.len() >= 40, "{} intervals", run.limits.len());
        assert!(run.limits.iter().all(|&l| l == 3), "{:?}", run.limits);
        assert_eq!(run.peak_held, 3);
    }

    #[test]
    fn window_covers_a_long_round_trip() {
        // A 2 ms round trip is longer than the queue target; the window
        // must still grow to keep the slot busy through it.
        let rtt = Duration::from_millis(2);
        let task = Duration::from_micros(5);
        let run = simulate(1, task, rtt, Duration::from_millis(300));
        let rate = 1.0 / task.as_secs_f64();
        let last = *run.limits.last().expect("measured");
        assert!(
            last as f64 >= rate * rtt.as_secs_f64(),
            "settled at {last}, under rate × rtt"
        );
        assert!(run.limits.iter().all(|&l| l <= SHARD_CHUNK as u64));
    }

    #[test]
    fn window_never_exceeds_shard_chunk() {
        let t0 = Instant::now();
        let mut window = Window::new(4);
        for round in 0..5u32 {
            // Back-to-back intervals: the pilot refills the window at
            // each completion batch, so the agent never drains.
            let start = t0 + QUEUE_TARGET * round;
            let n = window.free();
            for _ in 0..n {
                window.place(start);
            }
            for _ in 0..n {
                window.complete(Some(Duration::from_millis(10)), start);
            }
            // Thousands of completions per millisecond over a 10 ms
            // round trip ask for far more than a shard.
            window.measure(start + QUEUE_TARGET);
            assert!(window.limit <= SHARD_CHUNK as u64, "{}", window.limit);
        }
        assert_eq!(window.limit, SHARD_CHUNK as u64);
    }

    #[test]
    fn window_keeps_the_smallest_recent_round_trip() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut window = Window::new(1);
        let probe_round = |window: &mut Window, at: Instant, rtt: Duration| {
            window.place(at);
            window.complete(Some(rtt), at + rtt);
            window.measure(at + QUEUE_TARGET);
            window.idle();
            window.rtt.map(|(rtt, _)| rtt)
        };
        assert_eq!(probe_round(&mut window, t0, ms(1)), Some(ms(1)));
        // A pilot stall inflates one probe; the smaller round trip stands.
        let inflated = probe_round(&mut window, t0 + ms(10), ms(5));
        assert_eq!(inflated, Some(ms(1)));
        // Past the horizon, a larger round trip replaces it.
        let later = probe_round(&mut window, t0 + RTT_HORIZON + ms(20), ms(5));
        assert_eq!(later, Some(ms(5)));
    }

    #[test]
    fn a_drained_window_starts_again_from_its_floor() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut window = Window::new(1);
        // Two tasks placed at `at` complete by `at + span`; the pilot
        // then finds nothing to place and the agent drains.
        let busy_period = |window: &mut Window, at: Instant, span: Duration| {
            assert!(window.place(at), "first task finds the slot free");
            window.place(at);
            window.complete(Some(ms(1)), at + ms(1));
            window.complete(None, at + span);
            window.measure(at + span);
            let measured = window.limit;
            window.idle();
            measured
        };
        let short = busy_period(&mut window, t0, ms(2));
        assert!(short > 2, "1000/s over 2 ms reaches past slots + 1");
        assert_eq!(window.limit, 2, "drained: back at slots + 1");
        // The idle second between busy periods is in no interval, so a
        // second burst measures what the first did.
        assert_eq!(busy_period(&mut window, t0 + ms(1000), ms(2)), short);
        // Long tasks are sized from their own completions alone: had
        // the short tasks' rate stayed in the average, this would read 3.
        let long = busy_period(&mut window, t0 + ms(2000), ms(40));
        assert_eq!(long, 2);
    }

    #[test]
    fn tenant_names_sanitize_to_file_stems() {
        // Already-safe names map to themselves (joblog paths from
        // earlier releases stay valid).
        assert_eq!(sanitize_tenant("team-a_1.x"), "team-a_1.x");
        // Altered names stay filesystem-safe but gain a disambiguating
        // suffix.
        let ugly = sanitize_tenant("a/b c\"d");
        assert!(ugly.starts_with("a_b_c_d-"), "got {ugly}");
        assert!(ugly
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'));
    }

    #[test]
    fn sanitized_tenant_names_do_not_collide() {
        // The original bug: `a/b` and `a_b` both mapped to `a_b` and
        // shared a joblog file.
        assert_ne!(sanitize_tenant("a/b"), sanitize_tenant("a_b"));
        assert_ne!(sanitize_tenant("a/b"), sanitize_tenant("a b"));
        assert_ne!(sanitize_tenant("x:1"), sanitize_tenant("x/1"));
        // Deterministic across calls (the suffix is a hash, not a
        // counter).
        assert_eq!(sanitize_tenant("a/b"), sanitize_tenant("a/b"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Injectivity over the full valid domain: distinct
            /// (session, local_seq) pairs never share a wire seq, and
            /// the wire seq decomposes back into its components.
            #[test]
            fn wire_seq_is_injective_over_the_valid_domain(
                s1 in 0u64..MAX_SESSION_ID + 1,
                l1 in 1u64..MAX_LOCAL_SEQ + 1,
                s2 in 0u64..MAX_SESSION_ID + 1,
                l2 in 1u64..MAX_LOCAL_SEQ + 1,
            ) {
                let w1 = wire_seq_checked(s1, l1).expect("valid domain");
                let w2 = wire_seq_checked(s2, l2).expect("valid domain");
                prop_assert_eq!(w1 == w2, (s1, l1) == (s2, l2));
                prop_assert_eq!(w1 >> SESSION_SEQ_BITS, s1 + 1);
                prop_assert_eq!(w1 & MAX_LOCAL_SEQ, l1);
                prop_assert_eq!(w1, wire_seq(s1, l1));
            }

            /// Out-of-range components are always refused.
            #[test]
            fn wire_seq_rejects_out_of_range(
                session in 0u64..MAX_SESSION_ID + 1,
                local in 1u64..MAX_LOCAL_SEQ + 1,
                over in 1u64..1 << 20,
            ) {
                prop_assert_eq!(wire_seq_checked(MAX_SESSION_ID + over, local), None);
                prop_assert_eq!(wire_seq_checked(session, MAX_LOCAL_SEQ + over), None);
                prop_assert_eq!(wire_seq_checked(session, 0), None);
            }
        }
    }
}
