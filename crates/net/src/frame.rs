//! The wire protocol: length-prefixed binary frames.
//!
//! Every message on a driver↔agent connection is one frame:
//!
//! ```text
//! [u32 LE body length][u8 tag][tag-specific payload]
//! ```
//!
//! Integers are little-endian; strings are `u32` length + UTF-8 bytes;
//! vectors are `u32` count + elements. The protocol is versioned through
//! the [`Frame::Hello`]/[`Frame::HelloAck`] handshake: the driver speaks
//! first, the agent refuses a version it does not understand, and no
//! other frame is valid before the handshake completes.
//!
//! Decoding is incremental ([`Decoder`]) so a reader can feed arbitrary
//! byte chunks straight off a socket. Malformed or oversized input
//! yields a typed [`FrameError`] — never a panic, and never an
//! allocation larger than the bytes actually received.

use std::fmt;

use htpar_core::joblog::{LogEntry, Row};

/// Protocol revision carried in the handshake. Bump on any wire change.
/// v2 added [`Frame::DoneBatch`] (coalesced completion acks). v3 added
/// the pilot-service session frames ([`Frame::Submit`],
/// [`Frame::SessionAck`], [`Frame::SessionDone`]) and the
/// [`Payload::Dynamic`] per-task directive payload. v4 added the
/// durable-session frames ([`Frame::Detach`], [`Frame::Reattach`],
/// [`Frame::ReattachAck`]). v5 retired the per-task `TaskDone` frame
/// (tag 4): completions travel only in [`Frame::DoneBatch`], and a peer
/// that still sends tag 4 is refused at `Hello`.
pub const PROTOCOL_VERSION: u16 = 5;

/// Hard ceiling on one frame's body. A `Shard` of [`SHARD_CHUNK`] tasks
/// with generous arguments stays far below this; anything bigger is a
/// corrupt or hostile stream.
pub const MAX_FRAME_LEN: u32 = 32 << 20;

/// Senders split task batches into `Shard` frames of at most this many
/// tasks, bounding frame size and letting agents start work while a
/// large assignment is still in flight.
pub const SHARD_CHUNK: usize = 2048;

/// What the agent runs for each task (the driver decides; benches use
/// the non-process payloads to measure protocol overhead in isolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// `sh -c <rendered command>` — real work.
    Shell,
    /// In-process no-op (dispatch/protocol overhead only).
    Noop,
    /// In-process sleep of the given microseconds (fixed-cost tasks for
    /// chaos tests and the gate's handicap drill).
    SleepUs(u64),
    /// Per-task directive (v3+): the work kind rides in each task's
    /// first argument instead of the session handshake, so one agent
    /// engine can serve many tenants with different payloads. The
    /// directive grammar is `noop`, `sleep:MICROS`, or `sh:COMMAND`.
    Dynamic,
}

/// One task assignment inside a [`Frame::Shard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Driver-global sequence number (joblog key).
    pub seq: u64,
    /// Arguments substituted into the command template.
    pub args: Vec<String>,
}

/// One completion record inside a [`Frame::DoneBatch`]; agents coalesce
/// many of these per frame so an ack costs a fraction of a syscall
/// instead of a write+flush each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDoneRec {
    pub seq: u64,
    pub exitval: i32,
    pub signal: i32,
    /// Task start, microseconds since the Unix epoch (agent clock).
    pub start_epoch_us: u64,
    pub runtime_us: u64,
    pub stdout: String,
    pub stderr: String,
}

impl TaskDoneRec {
    /// The joblog row recording this completion: run on `host` as
    /// `command`, keyed by `self.seq`.
    pub fn row<'a>(&self, host: &'a str, command: &'a str) -> Row<'a> {
        Row {
            seq: self.seq,
            host,
            start: self.start_epoch_us as f64 / 1e6,
            runtime: self.runtime_us as f64 / 1e6,
            send: 0,
            receive: self.stdout.len() as u64,
            exitval: self.exitval,
            signal: self.signal,
            command,
        }
    }

    /// The completion a joblog row records. A row keeps no output, so
    /// the streams come from the caller (the pilot's retained outlog).
    pub fn from_log_entry(entry: &LogEntry, stdout: String, stderr: String) -> TaskDoneRec {
        TaskDoneRec {
            seq: entry.seq,
            exitval: entry.exitval,
            signal: entry.signal,
            start_epoch_us: (entry.start * 1e6) as u64,
            runtime_us: (entry.runtime * 1e6) as u64,
            stdout,
            stderr,
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Driver → agent, first frame on the wire.
    Hello {
        version: u16,
        /// Job slots the agent should run (`-j` per agent).
        jobs: u32,
        /// Milliseconds between agent heartbeats.
        heartbeat_ms: u32,
        payload: Payload,
        /// Command template the agent renders per task.
        command: String,
    },
    /// Agent → driver, handshake reply.
    HelloAck {
        version: u16,
        /// Slots the agent actually granted.
        slots: u32,
        /// Agent's self-reported name (joblog `Host` column).
        agent: String,
    },
    /// Driver → agent: a batch of task assignments.
    Shard { tasks: Vec<TaskSpec> },
    /// Agent → driver (and pilot → client): tasks finished, coalesced
    /// into one ack (v2+).
    DoneBatch { results: Vec<TaskDoneRec> },
    /// Agent → driver: liveness lease renewal.
    Heartbeat { done: u64, inflight: u32 },
    /// Driver → agent: no more shards will come; finish and exit.
    Drain,
    /// Agent → driver: final frame before the agent closes its end.
    AgentExit { done: u64, reason: String },
    /// Client → pilot (v3+): a batch of tasks for one tenant. The first
    /// `Submit` on a session binds the session to its tenant; `weight`
    /// and `priority` feed the pilot's scheduler. Seqs are
    /// session-local, starting at 1.
    Submit {
        tenant: String,
        weight: u32,
        priority: u32,
        /// Client-chosen id echoed in the matching [`Frame::SessionAck`].
        submit_id: u64,
        tasks: Vec<TaskSpec>,
    },
    /// Pilot → client (v3+): admission verdict for one `Submit`. A
    /// refusal (`accepted: false`) is backpressure, not an error — the
    /// session stays open and the client may resubmit after draining.
    SessionAck {
        submit_id: u64,
        accepted: bool,
        /// Tenant queue depth after the verdict.
        queued: u64,
        /// Human-readable refusal reason; empty when accepted.
        reason: String,
    },
    /// Bidirectional session terminator (v3+). Client → pilot: no more
    /// `Submit`s will come. Pilot → client: every accepted task has
    /// completed and been delivered; the connection closes after it.
    SessionDone { completed: u64, reason: String },
    /// Client → pilot (v4+): keep this session's accepted work alive
    /// after the socket drops. The pilot answers with a
    /// [`Frame::SessionAck`] echoing `detach_key` as its submit id;
    /// once that ack arrives the client may disconnect and later
    /// [`Frame::Reattach`] by the same key.
    Detach { detach_key: u64 },
    /// Client → pilot (v4+), first frame after the handshake on a
    /// fresh connection: adopt the detached session of `tenant` that
    /// detached under `detach_key`.
    Reattach { tenant: String, detach_key: u64 },
    /// Pilot → client (v4+): reattach verdict. On `found`, the pilot
    /// replays already-recorded completions (synthesized from the
    /// per-tenant joblog) and then streams the rest live.
    ReattachAck {
        found: bool,
        /// Tasks the detached session had accepted in total.
        submitted: u64,
        /// Tasks already completed and recorded (these are replayed).
        completed: u64,
        /// Why `found` is false; empty on success.
        reason: String,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_SHARD: u8 = 3;
// Tag 4 was the per-task `TaskDone` (v1–v4); it stays unassigned.
const TAG_HEARTBEAT: u8 = 5;
const TAG_DRAIN: u8 = 6;
const TAG_AGENT_EXIT: u8 = 7;
const TAG_DONE_BATCH: u8 = 8;
const TAG_SUBMIT: u8 = 9;
const TAG_SESSION_ACK: u8 = 10;
const TAG_SESSION_DONE: u8 = 11;
const TAG_DETACH: u8 = 12;
const TAG_REATTACH: u8 = 13;
const TAG_REATTACH_ACK: u8 = 14;

const PAYLOAD_SHELL: u8 = 0;
const PAYLOAD_NOOP: u8 = 1;
const PAYLOAD_SLEEP: u8 = 2;
const PAYLOAD_DYNAMIC: u8 = 3;

/// Why a byte stream failed to decode. All variants are terminal for
/// the connection: framing has lost sync and cannot recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared body length exceeds [`MAX_FRAME_LEN`].
    Oversized { len: u32 },
    /// Unknown frame tag byte.
    UnknownTag(u8),
    /// Body ended before its fields did, or a length field points past
    /// the body end.
    Malformed(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame body of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::BadUtf8 => write!(f, "frame string is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

// -- Encoding ----------------------------------------------------------

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_done_rec(out: &mut Vec<u8>, r: &TaskDoneRec) {
    out.extend_from_slice(&r.seq.to_le_bytes());
    out.extend_from_slice(&r.exitval.to_le_bytes());
    out.extend_from_slice(&r.signal.to_le_bytes());
    out.extend_from_slice(&r.start_epoch_us.to_le_bytes());
    out.extend_from_slice(&r.runtime_us.to_le_bytes());
    put_str(out, &r.stdout);
    put_str(out, &r.stderr);
}

pub(crate) fn put_payload(out: &mut Vec<u8>, p: Payload) {
    match p {
        Payload::Shell => out.push(PAYLOAD_SHELL),
        Payload::Noop => out.push(PAYLOAD_NOOP),
        Payload::SleepUs(us) => {
            out.push(PAYLOAD_SLEEP);
            out.extend_from_slice(&us.to_le_bytes());
        }
        Payload::Dynamic => out.push(PAYLOAD_DYNAMIC),
    }
}

/// Task-list encoding shared by `Shard`, `Submit` and the journal's
/// `Accepted` record: a count, then each task's seq and arguments.
pub(crate) fn put_tasks<'a>(
    out: &mut Vec<u8>,
    tasks: impl ExactSizeIterator<Item = (u64, &'a [String])>,
) {
    out.extend_from_slice(&(tasks.len() as u32).to_le_bytes());
    for (seq, args) in tasks {
        put_task(out, seq, args);
    }
}

/// One task of a task list: its seq, then its arguments.
fn put_task(out: &mut Vec<u8>, seq: u64, args: &[String]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(args.len() as u32).to_le_bytes());
    for arg in args {
        put_str(out, arg);
    }
}

/// Start a length-prefixed record with `tag` in `out`; returns where it
/// starts, for [`end_record`].
pub(crate) fn begin_record(out: &mut Vec<u8>, tag: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(tag);
    at
}

/// Write the length prefix of the record [`begin_record`] started at
/// `at`, now that its body is complete.
pub(crate) fn end_record(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The bytes of `Frame::Submit { .. }.encode()` for tasks numbered
/// `first_seq..` in the order of `args`, without building a
/// [`TaskSpec`] per task.
pub(crate) fn encode_submit(
    tenant: &str,
    weight: u32,
    priority: u32,
    submit_id: u64,
    first_seq: u64,
    args: &[Vec<String>],
) -> Vec<u8> {
    let values: usize = args.iter().flatten().map(|a| 4 + a.len()).sum();
    let mut out = Vec::with_capacity(29 + tenant.len() + 12 * args.len() + values);
    let at = begin_record(&mut out, TAG_SUBMIT);
    put_str(&mut out, tenant);
    out.extend_from_slice(&weight.to_le_bytes());
    out.extend_from_slice(&priority.to_le_bytes());
    out.extend_from_slice(&submit_id.to_le_bytes());
    put_tasks(
        &mut out,
        args.iter()
            .enumerate()
            .map(|(i, a)| (first_seq + i as u64, a.as_slice())),
    );
    end_record(&mut out, at);
    out
}

/// One `Shard` frame encoded in place, task by task: the bytes
/// `Frame::Shard { tasks }.encode()` gives for the same tasks, with no
/// [`TaskSpec`] per task.
pub(crate) struct ShardBytes {
    buf: Vec<u8>,
    tasks: u32,
}

impl ShardBytes {
    pub(crate) fn new() -> ShardBytes {
        let mut buf = Vec::with_capacity(256);
        begin_record(&mut buf, TAG_SHARD);
        // The task count, written by `finish`.
        buf.extend_from_slice(&[0; 4]);
        ShardBytes { buf, tasks: 0 }
    }

    pub(crate) fn tasks(&self) -> usize {
        self.tasks as usize
    }

    /// Append a task with `args`.
    pub(crate) fn push(&mut self, seq: u64, args: &[String]) {
        put_task(&mut self.buf, seq, args);
        self.tasks += 1;
    }

    /// Append a task with one argument, whose UTF-8 bytes `arg` writes.
    pub(crate) fn push_with(&mut self, seq: u64, arg: impl FnOnce(&mut Vec<u8>)) {
        self.buf.extend_from_slice(&seq.to_le_bytes());
        self.buf.extend_from_slice(&1u32.to_le_bytes());
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        arg(&mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.tasks += 1;
    }

    /// The finished frame, length prefix included.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.buf[5..9].copy_from_slice(&self.tasks.to_le_bytes());
        end_record(&mut self.buf, 0);
        self.buf
    }
}

impl Frame {
    /// Serialize as one length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.size_hint());
        body.extend_from_slice(&[0; 4]);
        match self {
            Frame::Hello {
                version,
                jobs,
                heartbeat_ms,
                payload,
                command,
            } => {
                body.push(TAG_HELLO);
                body.extend_from_slice(&version.to_le_bytes());
                body.extend_from_slice(&jobs.to_le_bytes());
                body.extend_from_slice(&heartbeat_ms.to_le_bytes());
                put_payload(&mut body, *payload);
                put_str(&mut body, command);
            }
            Frame::HelloAck {
                version,
                slots,
                agent,
            } => {
                body.push(TAG_HELLO_ACK);
                body.extend_from_slice(&version.to_le_bytes());
                body.extend_from_slice(&slots.to_le_bytes());
                put_str(&mut body, agent);
            }
            Frame::Shard { tasks } => {
                body.push(TAG_SHARD);
                put_tasks(&mut body, tasks.iter().map(|t| (t.seq, t.args.as_slice())));
            }
            Frame::DoneBatch { results } => {
                body.push(TAG_DONE_BATCH);
                body.extend_from_slice(&(results.len() as u32).to_le_bytes());
                for r in results {
                    put_done_rec(&mut body, r);
                }
            }
            Frame::Heartbeat { done, inflight } => {
                body.push(TAG_HEARTBEAT);
                body.extend_from_slice(&done.to_le_bytes());
                body.extend_from_slice(&inflight.to_le_bytes());
            }
            Frame::Drain => body.push(TAG_DRAIN),
            Frame::AgentExit { done, reason } => {
                body.push(TAG_AGENT_EXIT);
                body.extend_from_slice(&done.to_le_bytes());
                put_str(&mut body, reason);
            }
            Frame::Submit {
                tenant,
                weight,
                priority,
                submit_id,
                tasks,
            } => {
                body.push(TAG_SUBMIT);
                put_str(&mut body, tenant);
                body.extend_from_slice(&weight.to_le_bytes());
                body.extend_from_slice(&priority.to_le_bytes());
                body.extend_from_slice(&submit_id.to_le_bytes());
                put_tasks(&mut body, tasks.iter().map(|t| (t.seq, t.args.as_slice())));
            }
            Frame::SessionAck {
                submit_id,
                accepted,
                queued,
                reason,
            } => {
                body.push(TAG_SESSION_ACK);
                body.extend_from_slice(&submit_id.to_le_bytes());
                body.push(*accepted as u8);
                body.extend_from_slice(&queued.to_le_bytes());
                put_str(&mut body, reason);
            }
            Frame::SessionDone { completed, reason } => {
                body.push(TAG_SESSION_DONE);
                body.extend_from_slice(&completed.to_le_bytes());
                put_str(&mut body, reason);
            }
            Frame::Detach { detach_key } => {
                body.push(TAG_DETACH);
                body.extend_from_slice(&detach_key.to_le_bytes());
            }
            Frame::Reattach { tenant, detach_key } => {
                body.push(TAG_REATTACH);
                put_str(&mut body, tenant);
                body.extend_from_slice(&detach_key.to_le_bytes());
            }
            Frame::ReattachAck {
                found,
                submitted,
                completed,
                reason,
            } => {
                body.push(TAG_REATTACH_ACK);
                body.push(*found as u8);
                body.extend_from_slice(&submitted.to_le_bytes());
                body.extend_from_slice(&completed.to_le_bytes());
                put_str(&mut body, reason);
            }
        }
        end_record(&mut body, 0);
        body
    }

    /// Room for the encoded frame: exact for the batch frames, which can
    /// be large, and enough for the others.
    fn size_hint(&self) -> usize {
        let tasks = |tasks: &[TaskSpec]| -> usize {
            tasks
                .iter()
                .map(|t| 12 + t.args.iter().map(|a| 4 + a.len()).sum::<usize>())
                .sum()
        };
        match self {
            Frame::Shard { tasks: t } => 9 + tasks(t),
            Frame::Submit {
                tenant, tasks: t, ..
            } => 29 + tenant.len() + tasks(t),
            Frame::DoneBatch { results } => {
                9 + results
                    .iter()
                    .map(|r| 40 + r.stdout.len() + r.stderr.len())
                    .sum::<usize>()
            }
            _ => 64,
        }
    }
}

// -- Decoding ----------------------------------------------------------

/// Cursor over one frame (or journal record) body. Every accessor
/// bounds-checks against the body end, so a hostile length field can
/// never read out of range or trigger an oversized allocation.
pub(crate) struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Body<'a> {
        Body { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Malformed("truncated field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, FrameError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A string field, borrowed from the body.
    pub(crate) fn str(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| FrameError::BadUtf8)
    }

    pub(crate) fn string(&mut self) -> Result<String, FrameError> {
        self.str().map(str::to_owned)
    }

    pub(crate) fn payload(&mut self) -> Result<Payload, FrameError> {
        Ok(match self.u8()? {
            PAYLOAD_SHELL => Payload::Shell,
            PAYLOAD_NOOP => Payload::Noop,
            PAYLOAD_SLEEP => Payload::SleepUs(self.u64()?),
            PAYLOAD_DYNAMIC => Payload::Dynamic,
            _ => return Err(FrameError::Malformed("unknown payload kind")),
        })
    }

    fn done_rec(&mut self) -> Result<TaskDoneRec, FrameError> {
        Ok(TaskDoneRec {
            seq: self.u64()?,
            exitval: self.i32()?,
            signal: self.i32()?,
            start_epoch_us: self.u64()?,
            runtime_us: self.u64()?,
            stdout: self.string()?,
            stderr: self.string()?,
        })
    }

    /// A count of items of at least `min` bytes each, refused when the
    /// rest of the body cannot hold that many: the hostile-count guard
    /// that runs before any allocation.
    pub(crate) fn count(&mut self, min: usize, what: &'static str) -> Result<usize, FrameError> {
        let count = self.u32()? as usize;
        if count > (self.buf.len() - self.pos) / min {
            return Err(FrameError::Malformed(what));
        }
        Ok(count)
    }

    /// Task-list decoding shared by `Shard`, `Submit` and the journal's
    /// `Accepted` record. A task is at least 12 bytes (seq + argc).
    pub(crate) fn tasks(&mut self) -> Result<Vec<TaskSpec>, FrameError> {
        let count = self.count(12, "task count exceeds body")?;
        let mut tasks = Vec::with_capacity(count);
        for _ in 0..count {
            let seq = self.u64()?;
            let argc = self.count(4, "arg count exceeds body")?;
            let mut args = Vec::with_capacity(argc);
            for _ in 0..argc {
                args.push(self.string()?);
            }
            tasks.push(TaskSpec { seq, args });
        }
        Ok(tasks)
    }

    /// Check a task list as [`Body::tasks`] reads it, allocating
    /// nothing.
    pub(crate) fn skip_tasks(&mut self) -> Result<(), FrameError> {
        for _ in 0..self.count(12, "task count exceeds body")? {
            self.u64()?;
            for _ in 0..self.count(4, "arg count exceeds body")? {
                self.str()?;
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after frame body"))
        }
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut b = Body::new(body);
    let frame = match b.u8()? {
        TAG_HELLO => Frame::Hello {
            version: b.u16()?,
            jobs: b.u32()?,
            heartbeat_ms: b.u32()?,
            payload: b.payload()?,
            command: b.string()?,
        },
        TAG_HELLO_ACK => Frame::HelloAck {
            version: b.u16()?,
            slots: b.u32()?,
            agent: b.string()?,
        },
        TAG_SHARD => Frame::Shard { tasks: b.tasks()? },
        TAG_DONE_BATCH => {
            // A record is at least 40 bytes of fixed fields.
            let count = b.count(40, "done batch count exceeds body")?;
            let mut results = Vec::with_capacity(count);
            for _ in 0..count {
                results.push(b.done_rec()?);
            }
            Frame::DoneBatch { results }
        }
        TAG_HEARTBEAT => Frame::Heartbeat {
            done: b.u64()?,
            inflight: b.u32()?,
        },
        TAG_DRAIN => Frame::Drain,
        TAG_AGENT_EXIT => Frame::AgentExit {
            done: b.u64()?,
            reason: b.string()?,
        },
        TAG_SUBMIT => {
            let tenant = b.string()?;
            let weight = b.u32()?;
            let priority = b.u32()?;
            let submit_id = b.u64()?;
            Frame::Submit {
                tenant,
                weight,
                priority,
                submit_id,
                tasks: b.tasks()?,
            }
        }
        TAG_SESSION_ACK => Frame::SessionAck {
            submit_id: b.u64()?,
            accepted: b.u8()? != 0,
            queued: b.u64()?,
            reason: b.string()?,
        },
        TAG_SESSION_DONE => Frame::SessionDone {
            completed: b.u64()?,
            reason: b.string()?,
        },
        TAG_DETACH => Frame::Detach {
            detach_key: b.u64()?,
        },
        TAG_REATTACH => Frame::Reattach {
            tenant: b.string()?,
            detach_key: b.u64()?,
        },
        TAG_REATTACH_ACK => Frame::ReattachAck {
            found: b.u8()? != 0,
            submitted: b.u64()?,
            completed: b.u64()?,
            reason: b.string()?,
        },
        other => return Err(FrameError::UnknownTag(other)),
    };
    b.finish()?;
    Ok(frame)
}

/// Incremental frame decoder: feed it byte chunks in any split,
/// [`Decoder::next_frame`] yields complete frames as they materialize.
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it outgrows the tail.
    pos: usize,
}

impl Decoder {
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection's buffer
        // stays proportional to the largest in-flight frame.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, `Ok(None)` if more bytes are
    /// needed. After any `Err`, the stream is out of sync and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..4 + len])?;
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert_eq!(d.next_frame().unwrap(), Some(frame));
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.pending_bytes(), 0);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            jobs: 16,
            heartbeat_ms: 250,
            payload: Payload::Shell,
            command: "gzip {}".into(),
        });
        round_trip(Frame::Hello {
            version: 2,
            jobs: 1,
            heartbeat_ms: 10,
            payload: Payload::SleepUs(1500),
            command: String::new(),
        });
        round_trip(Frame::HelloAck {
            version: 1,
            slots: 8,
            agent: "nid001".into(),
        });
        round_trip(Frame::Shard {
            tasks: vec![
                TaskSpec {
                    seq: 1,
                    args: vec!["a".into(), "b c".into()],
                },
                TaskSpec {
                    seq: u64::MAX,
                    args: vec![],
                },
            ],
        });
        round_trip(Frame::DoneBatch {
            results: vec![
                TaskDoneRec {
                    seq: 0,
                    exitval: 0,
                    signal: 0,
                    start_epoch_us: 0,
                    runtime_us: 0,
                    stdout: String::new(),
                    stderr: String::new(),
                },
                TaskDoneRec {
                    seq: u64::MAX,
                    exitval: 127,
                    signal: 15,
                    start_epoch_us: 1_700_000_000_000_000,
                    runtime_us: 88,
                    stdout: "done\n".into(),
                    stderr: "λ".into(),
                },
            ],
        });
        round_trip(Frame::DoneBatch { results: vec![] });
        round_trip(Frame::Heartbeat {
            done: 99,
            inflight: 3,
        });
        round_trip(Frame::Drain);
        round_trip(Frame::AgentExit {
            done: 1000,
            reason: "drained".into(),
        });
        round_trip(Frame::Hello {
            version: 3,
            jobs: 8,
            heartbeat_ms: 100,
            payload: Payload::Dynamic,
            command: "{}".into(),
        });
        round_trip(Frame::Submit {
            tenant: "team-a".into(),
            weight: 4,
            priority: 2,
            submit_id: 77,
            tasks: vec![
                TaskSpec {
                    seq: 1,
                    args: vec!["sh:echo hi".into()],
                },
                TaskSpec {
                    seq: u64::MAX,
                    args: vec![],
                },
            ],
        });
        round_trip(Frame::Submit {
            tenant: String::new(),
            weight: 0,
            priority: 0,
            submit_id: 0,
            tasks: vec![],
        });
        round_trip(Frame::SessionAck {
            submit_id: 77,
            accepted: true,
            queued: 4096,
            reason: String::new(),
        });
        round_trip(Frame::SessionAck {
            submit_id: 78,
            accepted: false,
            queued: 65536,
            reason: "tenant queue full".into(),
        });
        round_trip(Frame::SessionDone {
            completed: 10_000,
            reason: "complete".into(),
        });
        round_trip(Frame::Detach { detach_key: 42 });
        round_trip(Frame::Detach {
            detach_key: u64::MAX,
        });
        round_trip(Frame::Reattach {
            tenant: "astro/sim".into(),
            detach_key: 42,
        });
        round_trip(Frame::ReattachAck {
            found: true,
            submitted: 10_000,
            completed: 9_999,
            reason: String::new(),
        });
        round_trip(Frame::ReattachAck {
            found: false,
            submitted: 0,
            completed: 0,
            reason: "no detached session for key 42".into(),
        });
    }

    #[test]
    fn byte_at_a_time_decoding() {
        let frame = Frame::Shard {
            tasks: vec![TaskSpec {
                seq: 7,
                args: vec!["hello world".into()],
            }],
        };
        let bytes = frame.encode();
        let mut d = Decoder::new();
        for (i, b) in bytes.iter().enumerate() {
            d.extend(std::slice::from_ref(b));
            let got = d.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "complete at byte {i} of {}", bytes.len());
            } else {
                assert_eq!(got, Some(frame.clone()));
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let frames = vec![
            Frame::Drain,
            Frame::Heartbeat {
                done: 1,
                inflight: 0,
            },
            Frame::Drain,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut d = Decoder::new();
        d.extend(&bytes);
        for f in &frames {
            assert_eq!(d.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_is_a_typed_error() {
        let mut d = Decoder::new();
        d.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        d.extend(&[0u8; 16]);
        assert_eq!(
            d.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        // 4 is the retired per-task `TaskDone` tag.
        for tag in [200u8, 4] {
            let mut d = Decoder::new();
            d.extend(&1u32.to_le_bytes());
            d.extend(&[tag]);
            assert_eq!(d.next_frame(), Err(FrameError::UnknownTag(tag)));
        }
    }

    #[test]
    fn truncated_body_rejected() {
        // Heartbeat body claims full length but carries too few bytes
        // for its fields.
        let mut d = Decoder::new();
        d.extend(&3u32.to_le_bytes());
        d.extend(&[TAG_HEARTBEAT, 1, 2]);
        assert_eq!(
            d.next_frame(),
            Err(FrameError::Malformed("truncated field"))
        );
    }

    #[test]
    fn trailing_garbage_in_body_rejected() {
        let mut body = Frame::Drain.encode();
        // Rewrite the length to include one junk byte after the tag.
        body.push(0xFF);
        body[..4].copy_from_slice(&2u32.to_le_bytes());
        let mut d = Decoder::new();
        d.extend(&body);
        assert!(matches!(d.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn hostile_done_batch_count_does_not_allocate() {
        // DoneBatch claiming u32::MAX records in a tiny body fails fast.
        let mut body = vec![TAG_DONE_BATCH];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert!(matches!(d.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn hostile_shard_count_does_not_allocate() {
        // Shard claiming u32::MAX tasks in a tiny body must fail fast.
        let mut body = vec![TAG_SHARD];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert!(matches!(d.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn hostile_submit_count_does_not_allocate() {
        // Submit claiming u32::MAX tasks in a tiny body must fail fast,
        // same guard as Shard.
        let mut body = vec![TAG_SUBMIT];
        body.extend_from_slice(&0u32.to_le_bytes()); // empty tenant
        body.extend_from_slice(&1u32.to_le_bytes()); // weight
        body.extend_from_slice(&0u32.to_le_bytes()); // priority
        body.extend_from_slice(&1u64.to_le_bytes()); // submit_id
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // task count
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert!(matches!(d.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn session_ack_truncation_rejected() {
        let full = Frame::SessionAck {
            submit_id: 9,
            accepted: false,
            queued: 10,
            reason: "full".into(),
        }
        .encode();
        // Rewriting the length to end mid-reason must be a typed error,
        // not a panic or a short string.
        let mut bytes = full.clone();
        bytes.truncate(full.len() - 2);
        let cut_body = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&cut_body.to_le_bytes());
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert!(matches!(d.next_frame(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // AgentExit with a reason of 2 bytes of invalid UTF-8.
        let mut body = vec![TAG_AGENT_EXIT];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0xFF, 0xFE]);
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let mut d = Decoder::new();
        d.extend(&bytes);
        assert_eq!(d.next_frame(), Err(FrameError::BadUtf8));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Hand-rolled frame generator (the vendored proptest has no
        /// `prop_oneof!`): weights lean on the hot frames.
        #[derive(Debug, Clone)]
        struct FrameStrategy;

        fn arb_string(rng: &mut TestRng) -> String {
            let len = rng.below(12) as usize;
            (0..len)
                .map(|_| char::from_u32(0x20 + rng.below(0x50) as u32).unwrap_or('x'))
                .collect()
        }

        fn arb_done_rec(rng: &mut TestRng) -> TaskDoneRec {
            TaskDoneRec {
                seq: rng.next_u64(),
                exitval: rng.below(512) as i32 - 256,
                signal: rng.below(64) as i32,
                start_epoch_us: rng.next_u64(),
                runtime_us: rng.next_u64(),
                stdout: arb_string(rng),
                stderr: arb_string(rng),
            }
        }

        impl Strategy for FrameStrategy {
            type Value = Frame;
            fn generate(&self, rng: &mut TestRng) -> Frame {
                match rng.below(11) {
                    0 => Frame::Hello {
                        version: rng.below(u16::MAX as u64 + 1) as u16,
                        jobs: rng.below(1 << 16) as u32,
                        heartbeat_ms: rng.below(10_000) as u32,
                        payload: match rng.below(4) {
                            0 => Payload::Shell,
                            1 => Payload::Noop,
                            2 => Payload::Dynamic,
                            _ => Payload::SleepUs(rng.next_u64()),
                        },
                        command: arb_string(rng),
                    },
                    1 => Frame::HelloAck {
                        version: rng.below(1 << 16) as u16,
                        slots: rng.below(1 << 10) as u32,
                        agent: arb_string(rng),
                    },
                    2 | 3 => {
                        let n = rng.below(20) as usize;
                        Frame::Shard {
                            tasks: (0..n)
                                .map(|_| TaskSpec {
                                    seq: rng.next_u64(),
                                    args: (0..rng.below(4)).map(|_| arb_string(rng)).collect(),
                                })
                                .collect(),
                        }
                    }
                    4 | 5 => {
                        let n = rng.below(16) as usize;
                        Frame::DoneBatch {
                            results: (0..n).map(|_| arb_done_rec(rng)).collect(),
                        }
                    }
                    6 => Frame::Heartbeat {
                        done: rng.next_u64(),
                        inflight: rng.below(1 << 20) as u32,
                    },
                    7 => {
                        if rng.below(2) == 0 {
                            Frame::Drain
                        } else {
                            Frame::AgentExit {
                                done: rng.next_u64(),
                                reason: arb_string(rng),
                            }
                        }
                    }
                    8 => {
                        let n = rng.below(12) as usize;
                        Frame::Submit {
                            tenant: arb_string(rng),
                            weight: rng.below(1 << 10) as u32,
                            priority: rng.below(1 << 8) as u32,
                            submit_id: rng.next_u64(),
                            tasks: (0..n)
                                .map(|_| TaskSpec {
                                    seq: rng.next_u64(),
                                    args: (0..rng.below(3)).map(|_| arb_string(rng)).collect(),
                                })
                                .collect(),
                        }
                    }
                    9 => {
                        if rng.below(2) == 0 {
                            Frame::SessionAck {
                                submit_id: rng.next_u64(),
                                accepted: rng.below(2) == 0,
                                queued: rng.next_u64(),
                                reason: arb_string(rng),
                            }
                        } else {
                            Frame::SessionDone {
                                completed: rng.next_u64(),
                                reason: arb_string(rng),
                            }
                        }
                    }
                    _ => match rng.below(3) {
                        0 => Frame::Detach {
                            detach_key: rng.next_u64(),
                        },
                        1 => Frame::Reattach {
                            tenant: arb_string(rng),
                            detach_key: rng.next_u64(),
                        },
                        _ => Frame::ReattachAck {
                            found: rng.below(2) == 0,
                            submitted: rng.next_u64(),
                            completed: rng.next_u64(),
                            reason: arb_string(rng),
                        },
                    },
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]
            #[test]
            fn streams_round_trip_across_arbitrary_splits(
                frames in proptest::collection::vec(FrameStrategy, 1..12),
                cuts in proptest::collection::vec(0usize..64, 1..40),
            ) {
                let mut wire = Vec::new();
                for f in &frames {
                    wire.extend_from_slice(&f.encode());
                }
                // Split the byte stream at pseudo-random boundaries
                // derived from `cuts`, then feed chunk by chunk.
                let mut d = Decoder::new();
                let mut got = Vec::new();
                let mut off = 0usize;
                let mut cut_it = cuts.iter().cycle();
                while off < wire.len() {
                    let step = (cut_it.next().unwrap() % 61) + 1;
                    let end = (off + step).min(wire.len());
                    d.extend(&wire[off..end]);
                    while let Some(f) = d.next_frame().unwrap() {
                        got.push(f);
                    }
                    off = end;
                }
                prop_assert_eq!(got, frames);
                prop_assert_eq!(d.pending_bytes(), 0);
            }

            /// Satellite: batching fidelity. Arbitrary seq batches go
            /// out as chunked `Shard`s one way and coalesced
            /// `DoneBatch`es the other, each frame its own buffer (as
            /// the vectored-write queue keeps them), concatenated and
            /// re-split at arbitrary byte boundaries — exactly what
            /// partial `writev` calls produce on the wire. Every seq
            /// must come back exactly once, in order.
            #[test]
            fn batched_seqs_survive_chunking_and_vectored_splits(
                seqs in proptest::collection::vec(any::<u64>(), 1..400),
                shard_chunk in 1usize..48,
                ack_batch in 1usize..48,
                cuts in proptest::collection::vec(1usize..96, 1..32),
            ) {
                // Driver direction: seqs → chunked Shard frames.
                let mut wire = Vec::new();
                for chunk in seqs.chunks(shard_chunk) {
                    let f = Frame::Shard {
                        tasks: chunk
                            .iter()
                            .map(|&seq| TaskSpec { seq, args: vec![seq.to_string()] })
                            .collect(),
                    };
                    wire.extend_from_slice(&f.encode());
                }
                // Agent direction: same seqs → coalesced DoneBatch acks.
                for batch in seqs.chunks(ack_batch) {
                    let f = Frame::DoneBatch {
                        results: batch
                            .iter()
                            .map(|&seq| TaskDoneRec {
                                seq,
                                exitval: 0,
                                signal: 0,
                                start_epoch_us: seq ^ 0x5a5a,
                                runtime_us: seq % 7919,
                                stdout: String::new(),
                                stderr: String::new(),
                            })
                            .collect(),
                    };
                    wire.extend_from_slice(&f.encode());
                }
                // Feed the stream in chunks cut at arbitrary offsets.
                let mut d = Decoder::new();
                let mut shard_seqs = Vec::new();
                let mut done_seqs = Vec::new();
                let mut off = 0usize;
                let mut cut_it = cuts.iter().cycle();
                while off < wire.len() {
                    let end = (off + cut_it.next().unwrap()).min(wire.len());
                    d.extend(&wire[off..end]);
                    while let Some(f) = d.next_frame().unwrap() {
                        match f {
                            Frame::Shard { tasks } => {
                                for t in tasks {
                                    prop_assert_eq!(t.args.len(), 1);
                                    prop_assert_eq!(&t.args[0], &t.seq.to_string());
                                    shard_seqs.push(t.seq);
                                }
                            }
                            Frame::DoneBatch { results } => {
                                for r in results {
                                    prop_assert_eq!(r.start_epoch_us, r.seq ^ 0x5a5a);
                                    done_seqs.push(r.seq);
                                }
                            }
                            other => prop_assert!(false, "unexpected frame {:?}", other),
                        }
                    }
                    off = end;
                }
                // No seq lost, duplicated, or reordered — either way.
                prop_assert_eq!(&shard_seqs, &seqs);
                prop_assert_eq!(&done_seqs, &seqs);
                prop_assert_eq!(d.pending_bytes(), 0);
            }

            #[test]
            fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let mut d = Decoder::new();
                d.extend(&bytes);
                // Drain until the decoder either wants more bytes or
                // reports a typed error; no panic, no runaway loop.
                for _ in 0..bytes.len() + 1 {
                    match d.next_frame() {
                        Ok(Some(_)) => continue,
                        Ok(None) | Err(_) => break,
                    }
                }
            }

            /// Valid streams (all frame kinds, the session trio
            /// included) with single bit flips: the decoder must yield
            /// frames, want more bytes, or fail typed — never panic,
            /// over-read, or allocate past the received bytes. Covers
            /// the length prefix, the tag byte, and every body offset.
            #[test]
            fn bit_flipped_streams_never_panic(
                frames in proptest::collection::vec(FrameStrategy, 1..6),
                flips in proptest::collection::vec(any::<u32>(), 1..8),
            ) {
                let mut wire = Vec::new();
                for f in &frames {
                    wire.extend_from_slice(&f.encode());
                }
                for &flip in &flips {
                    // Low 3 bits pick the bit, the rest pick the byte.
                    let at = (flip >> 3) as usize % wire.len();
                    wire[at] ^= 1 << (flip & 7);
                }
                let mut d = Decoder::new();
                d.extend(&wire);
                for _ in 0..frames.len() + 1 {
                    match d.next_frame() {
                        Ok(Some(_)) => continue,
                        Ok(None) | Err(_) => break,
                    }
                }
            }

            /// Truncating a valid stream at any byte boundary is never a
            /// panic: the decoder yields the complete prefix frames and
            /// then reports "need more bytes" (truncation mid-frame is
            /// indistinguishable from a slow socket, so it is not an
            /// error at this layer).
            #[test]
            fn truncated_streams_never_panic(
                frames in proptest::collection::vec(FrameStrategy, 1..6),
                cut in any::<u32>(),
            ) {
                let mut wire = Vec::new();
                for f in &frames {
                    wire.extend_from_slice(&f.encode());
                }
                let keep = cut as usize % (wire.len() + 1);
                let mut d = Decoder::new();
                d.extend(&wire[..keep]);
                let mut got = 0usize;
                loop {
                    match d.next_frame() {
                        Ok(Some(_)) => got += 1,
                        Ok(None) => break,
                        Err(_) => {
                            prop_assert!(false, "clean truncation decoded as corrupt");
                        }
                    }
                }
                prop_assert!(got <= frames.len());
            }
        }
    }
}
