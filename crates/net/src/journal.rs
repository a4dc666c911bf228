//! Write-ahead journal for the pilot's session table.
//!
//! The pilot ([`crate::serve`]) is the only durable point in a
//! multi-tenant campaign: clients may detach and agents are
//! stateless. When `--state-dir` is set, every admission decision is
//! appended here as a length-prefixed record and fsynced *before* the
//! client sees its `SessionAck`, so a SIGKILLed pilot can restart,
//! replay the journal against the per-tenant joblogs, and re-dispatch
//! exactly the unfinished seqs. One fsync commits every admission of a
//! pilot loop turn.
//!
//! Records use the frame codec's layout and field encoding:
//! `[u32 LE len][u8 tag][body]`. A session's `SessionOpen` holds its
//! payload and its template as the client sent it, and each `Accepted`
//! record holds the seq and arguments of each task, so recovery renders
//! the commands again. Completion (`Done`) records are written after
//! the tenant joblog has been flushed, so on replay a seq counts as
//! done if *either* the journal or the joblog says so — the joblog row
//! is the commit record, the journal `Done` only spares a benign
//! re-dispatch. The crash rule is the joblog's
//! ([`htpar_core::joblog`]): a record exists only once its last byte is
//! on disk. Replay stops cleanly at the first truncated or corrupt
//! record, and [`JournalWriter::open`] cuts that tail away before
//! appending. A journal written by an older pilot, whose records held
//! rendered commands, is refused with [`NetError::OlderJournal`].

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::frame::{
    begin_record, end_record, put_payload, put_str, put_tasks, Body, FrameError, Payload, TaskSpec,
};
use crate::{NetError, Result};

/// File name of the journal inside `--state-dir`.
pub const JOURNAL_FILE: &str = "pilot.journal";

/// Upper bound on a single record's encoded length; anything larger
/// is treated as corruption (mirrors the frame codec's cap).
const MAX_RECORD_LEN: usize = 32 << 20;

const TAG_DONE: u8 = 3;
const TAG_DETACHED: u8 = 4;
const TAG_CLOSED: u8 = 5;
const TAG_SESSION_OPEN: u8 = 6;
const TAG_ACCEPTED: u8 = 7;
/// Tags of the older layout's `SessionOpen` (tenant, weight, priority)
/// and `Accepted` (each task's seq, rendered command and directive).
const RETIRED_TAGS: [u8; 2] = [1, 2];

/// One journal record. `session` ids are the pilot's own session ids;
/// replay reconstructs sessions under their original ids so wire seqs
/// stay stable across the restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JRecord {
    /// A session bound to a tenant (first accepted `Submit`), with what
    /// its tasks run: the payload and the template from its `Hello`.
    SessionOpen {
        session: u64,
        tenant: String,
        weight: u32,
        priority: u32,
        payload: Payload,
        template: String,
    },
    /// A batch of tasks passed admission: each task's local seq and
    /// arguments. Fsynced before the ack.
    Accepted { session: u64, tasks: Vec<TaskSpec> },
    /// Local seqs whose completions were recorded (joblog already
    /// flushed). Appended opportunistically, never fsynced.
    Done { session: u64, seqs: Vec<u64> },
    /// The session detached under `detach_key`. Fsynced before the
    /// ack so the key survives a crash.
    Detached { session: u64, detach_key: u64 },
    /// The session finished or was closed; replay skips it entirely.
    Closed { session: u64 },
}

impl JRecord {
    /// Encode as `[u32 LE len][u8 tag][body]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            JRecord::SessionOpen {
                session,
                tenant,
                weight,
                priority,
                payload,
                template,
            } => {
                let at = begin_record(out, TAG_SESSION_OPEN);
                out.extend_from_slice(&session.to_le_bytes());
                put_str(out, tenant);
                out.extend_from_slice(&weight.to_le_bytes());
                out.extend_from_slice(&priority.to_le_bytes());
                put_payload(out, *payload);
                put_str(out, template);
                end_record(out, at);
            }
            JRecord::Accepted { session, tasks } => put_accepted(
                out,
                *session,
                tasks.iter().map(|t| (t.seq, t.args.as_slice())),
            ),
            JRecord::Done { session, seqs } => put_done(out, *session, seqs.iter().copied()),
            JRecord::Detached {
                session,
                detach_key,
            } => {
                let at = begin_record(out, TAG_DETACHED);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&detach_key.to_le_bytes());
                end_record(out, at);
            }
            JRecord::Closed { session } => {
                let at = begin_record(out, TAG_CLOSED);
                out.extend_from_slice(&session.to_le_bytes());
                end_record(out, at);
            }
        }
    }
}

fn put_accepted<'a>(
    out: &mut Vec<u8>,
    session: u64,
    tasks: impl ExactSizeIterator<Item = (u64, &'a [String])>,
) {
    let at = begin_record(out, TAG_ACCEPTED);
    out.extend_from_slice(&session.to_le_bytes());
    put_tasks(out, tasks);
    end_record(out, at);
}

fn put_done(out: &mut Vec<u8>, session: u64, seqs: impl ExactSizeIterator<Item = u64>) {
    let at = begin_record(out, TAG_DONE);
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
    for s in seqs {
        out.extend_from_slice(&s.to_le_bytes());
    }
    end_record(out, at);
}

/// Decode one record body (tag + payload, without the length prefix).
fn decode(body: &[u8]) -> std::result::Result<JRecord, FrameError> {
    let mut c = Body::new(body);
    let rec = match c.u8()? {
        TAG_SESSION_OPEN => JRecord::SessionOpen {
            session: c.u64()?,
            tenant: c.string()?,
            weight: c.u32()?,
            priority: c.u32()?,
            payload: c.payload()?,
            template: c.string()?,
        },
        TAG_ACCEPTED => JRecord::Accepted {
            session: c.u64()?,
            tasks: c.tasks()?,
        },
        TAG_DONE => {
            let session = c.u64()?;
            let n = c.count(8, "record count exceeds body")?;
            let mut seqs = Vec::with_capacity(n);
            for _ in 0..n {
                seqs.push(c.u64()?);
            }
            JRecord::Done { session, seqs }
        }
        TAG_DETACHED => JRecord::Detached {
            session: c.u64()?,
            detach_key: c.u64()?,
        },
        TAG_CLOSED => JRecord::Closed { session: c.u64()? },
        tag => return Err(FrameError::UnknownTag(tag)),
    };
    c.finish()?;
    Ok(rec)
}

/// Check one record body as [`decode`] reads it, allocating nothing;
/// its tag and session id.
fn skim(body: &[u8]) -> std::result::Result<(u8, u64), FrameError> {
    let mut c = Body::new(body);
    let tag = c.u8()?;
    let session = c.u64()?;
    match tag {
        TAG_SESSION_OPEN => {
            c.str()?;
            c.u32()?;
            c.u32()?;
            c.payload()?;
            c.str()?;
        }
        TAG_ACCEPTED => c.skip_tasks()?,
        TAG_DONE => {
            for _ in 0..c.count(8, "record count exceeds body")? {
                c.u64()?;
            }
        }
        TAG_DETACHED => {
            c.u64()?;
        }
        TAG_CLOSED => {}
        tag => return Err(FrameError::UnknownTag(tag)),
    }
    c.finish()?;
    Ok((tag, session))
}

/// One intact record in a journal's bytes.
struct Span<'a> {
    tag: u8,
    session: u64,
    /// The whole record, length prefix included.
    bytes: &'a [u8],
}

/// The intact records of a journal's bytes, up to the first truncated
/// or corrupt one; `end` is then the length of the prefix they span.
/// A record with a retired tag ends the walk with `older` set.
struct Spans<'a> {
    bytes: &'a [u8],
    end: usize,
    older: bool,
}

impl<'a> Spans<'a> {
    fn new(bytes: &'a [u8]) -> Spans<'a> {
        Spans {
            bytes,
            end: 0,
            older: false,
        }
    }
}

impl<'a> Iterator for Spans<'a> {
    type Item = Span<'a>;

    fn next(&mut self) -> Option<Span<'a>> {
        let rest = &self.bytes[self.end..];
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().expect("four bytes")) as usize;
        if len > MAX_RECORD_LEN || rest.len() - 4 < len {
            return None; // truncated or corrupt tail
        }
        let body = &rest[4..4 + len];
        if body.first().is_some_and(|tag| RETIRED_TAGS.contains(tag)) {
            self.older = true;
            return None;
        }
        let (tag, session) = skim(body).ok()?;
        self.end += 4 + len;
        Some(Span {
            tag,
            session,
            bytes: &rest[..4 + len],
        })
    }
}

/// The journal's bytes; an absent file has none.
fn read_bytes(path: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    }
}

/// The error for a journal in the older layout at `path`.
fn older(path: &Path) -> NetError {
    NetError::OlderJournal {
        path: path.to_path_buf(),
    }
}

/// Append-only journal writer. Records buffer in memory until
/// [`flush`](JournalWriter::flush) (cheap, for `Done` records) or
/// [`sync`](JournalWriter::sync) (flush + fdatasync, for admission
/// and detach records that must survive a crash).
pub struct JournalWriter {
    file: File,
    buf: Vec<u8>,
    path: PathBuf,
}

impl JournalWriter {
    /// Open (append) the journal under `state_dir`, creating the
    /// directory if needed. The file is first cut back to the prefix
    /// [`read_journal`] replays: a torn record was never committed, and
    /// appending behind it would make the next replay read its length
    /// over the new records. A journal in the older layout is refused.
    pub fn open(state_dir: &Path) -> Result<JournalWriter> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = read_bytes(&path)?;
        let mut spans = Spans::new(&bytes);
        spans.by_ref().for_each(drop);
        if spans.older {
            return Err(older(&path));
        }
        if bytes.len() > spans.end {
            file.set_len(spans.end as u64)?;
        }
        Ok(JournalWriter {
            file,
            buf: Vec::new(),
            path,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffer one record; durability is deferred to flush/sync.
    pub fn append(&mut self, rec: &JRecord) {
        rec.encode_into(&mut self.buf);
    }

    /// Buffer the `Accepted` record of `tasks`, encoding straight from
    /// the borrowed tasks.
    pub fn append_accepted(&mut self, session: u64, tasks: &[TaskSpec]) {
        put_accepted(
            &mut self.buf,
            session,
            tasks.iter().map(|t| (t.seq, t.args.as_slice())),
        );
    }

    /// Buffer the `Done` record of `seqs`.
    pub fn append_done(&mut self, session: u64, seqs: impl ExactSizeIterator<Item = u64>) {
        put_done(&mut self.buf, session, seqs);
    }

    /// Write buffered records to the OS. No durability guarantee.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Flush and fdatasync: the records survive a pilot SIGKILL and
    /// a machine crash.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }

    /// Rewrite the journal without the records of closed sessions.
    ///
    /// A long-lived pilot appends forever; every task ever admitted
    /// stays on disk even after its session closed and replay would
    /// skip it. Compaction reads the journal back, drops every record
    /// whose session has a `Closed` record (including the `Closed`
    /// itself — a session absent from the journal and a closed one
    /// replay identically), copies the survivors byte for byte into a
    /// temp file, fsyncs it, and renames it over the live journal. It
    /// reads each record's tag and session and checks the rest without
    /// decoding it, and stops where [`read_journal`] would. The rename
    /// is the commit point: a crash at any step leaves either the old or
    /// the new journal, both of which replay to the same session
    /// table. The writer reopens in append mode on the new file.
    pub fn compact(&mut self) -> Result<CompactStats> {
        self.sync()?;
        let bytes = read_bytes(&self.path)?;
        let closed: HashSet<u64> = Spans::new(&bytes)
            .filter(|span| span.tag == TAG_CLOSED)
            .map(|span| span.session)
            .collect();
        let mut kept = Vec::with_capacity(bytes.len());
        let (mut before, mut after) = (0, 0);
        let mut spans = Spans::new(&bytes);
        for span in spans.by_ref() {
            before += 1;
            if !closed.contains(&span.session) {
                after += 1;
                kept.extend_from_slice(span.bytes);
            }
        }
        if spans.older {
            return Err(older(&self.path));
        }
        let stats = CompactStats {
            records_before: before,
            records_after: after,
            sessions_dropped: closed.len(),
        };
        let tmp = self.path.with_extension("compact");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&kept)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Durably record the rename itself, then resume appending to
        // the compacted file.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(stats)
    }
}

/// What [`JournalWriter::compact`] dropped and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    pub records_before: usize,
    pub records_after: usize,
    pub sessions_dropped: usize,
}

/// Read every intact record from `path`. An absent file yields an
/// empty journal (fresh start); a truncated or corrupt tail ends the
/// replay at the last intact record rather than failing, since a
/// crash mid-append is exactly the case the journal exists for. A
/// journal in the older layout is refused with
/// [`NetError::OlderJournal`].
pub fn read_journal(path: &Path) -> Result<Vec<JRecord>> {
    let bytes = read_bytes(path)?;
    let mut spans = Spans::new(&bytes);
    let recs = spans
        .by_ref()
        .map_while(|span| decode(&span.bytes[4..]).ok())
        .collect();
    if spans.older {
        return Err(older(path));
    }
    Ok(recs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htpar-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<JRecord> {
        vec![
            JRecord::SessionOpen {
                session: 0,
                tenant: "astro/sim".into(),
                weight: 3,
                priority: 1,
                payload: Payload::Shell,
                template: "echo {} {#}".into(),
            },
            JRecord::Accepted {
                session: 0,
                tasks: vec![
                    TaskSpec {
                        seq: 1,
                        args: vec!["hi".into()],
                    },
                    TaskSpec {
                        seq: 2,
                        args: vec![],
                    },
                ],
            },
            JRecord::Done {
                session: 0,
                seqs: vec![1, 2],
            },
            JRecord::Detached {
                session: 0,
                detach_key: u64::MAX,
            },
            JRecord::Closed { session: 0 },
        ]
    }

    #[test]
    fn every_record_round_trips() {
        for rec in sample_records() {
            let wire = rec.encode();
            let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
            assert_eq!(len, wire.len() - 4);
            assert_eq!(decode(&wire[4..]).ok(), Some(rec));
        }
        // Empty collections are valid too.
        for rec in [
            JRecord::Accepted {
                session: 9,
                tasks: vec![],
            },
            JRecord::Done {
                session: 9,
                seqs: vec![],
            },
        ] {
            let wire = rec.encode();
            assert_eq!(decode(&wire[4..]).ok(), Some(rec));
        }
    }

    #[test]
    fn absent_journal_reads_empty() {
        let dir = temp_dir("absent");
        let recs = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn append_sync_reopen_appends_more() {
        let dir = temp_dir("reopen");
        let recs = sample_records();
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            for rec in &recs[..3] {
                w.append(rec);
            }
            w.sync().unwrap();
        }
        {
            // Reopen must append, not truncate.
            let mut w = JournalWriter::open(&dir).unwrap();
            for rec in &recs[3..] {
                w.append(rec);
            }
            w.sync().unwrap();
        }
        let got = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(got, recs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_closed_sessions_and_survives_reopen() {
        let dir = temp_dir("compact");
        let live_open = JRecord::SessionOpen {
            session: 7,
            tenant: "climate/run".into(),
            weight: 1,
            priority: 0,
            payload: Payload::SleepUs(250),
            template: "echo {}".into(),
        };
        let live_accepted = JRecord::Accepted {
            session: 7,
            tasks: vec![TaskSpec {
                seq: 1,
                args: vec!["live".into()],
            }],
        };
        let stats = {
            let mut w = JournalWriter::open(&dir).unwrap();
            // Session 0: full closed lifecycle — must vanish.
            for rec in sample_records() {
                w.append(&rec);
            }
            // Session 7: still open — must survive byte-for-byte.
            w.append(&live_open);
            w.append(&live_accepted);
            w.sync().unwrap();
            let stats = w.compact().unwrap();
            // The reopened append handle must land records *after* the
            // compacted contents, not at a stale offset.
            w.append(&JRecord::Done {
                session: 7,
                seqs: vec![1],
            });
            w.sync().unwrap();
            stats
        };
        assert_eq!(
            stats,
            CompactStats {
                records_before: 7,
                records_after: 2,
                sessions_dropped: 1,
            }
        );
        let got = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            got,
            vec![
                live_open,
                live_accepted,
                JRecord::Done {
                    session: 7,
                    seqs: vec![1],
                },
            ]
        );
        // A fresh writer (pilot restart) appends to the compacted file.
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append(&JRecord::Closed { session: 7 });
            w.sync().unwrap();
        }
        let got = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(*got.last().unwrap(), JRecord::Closed { session: 7 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacting_everything_leaves_an_empty_replayable_journal() {
        let dir = temp_dir("compact-all");
        let mut w = JournalWriter::open(&dir).unwrap();
        for rec in sample_records() {
            w.append(&rec);
        }
        w.sync().unwrap();
        let stats = w.compact().unwrap();
        assert_eq!(stats.records_after, 0);
        assert_eq!(stats.sessions_dropped, 1);
        assert!(read_journal(&dir.join(JOURNAL_FILE)).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_stops_at_last_intact_record() {
        let dir = temp_dir("trunc");
        let recs = sample_records();
        let mut w = JournalWriter::open(&dir).unwrap();
        for rec in &recs {
            w.append(rec);
        }
        w.sync().unwrap();
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Chop mid-way through the final record: replay keeps the
        // first four and silently drops the torn tail.
        let last_len = recs.last().unwrap().encode().len();
        std::fs::write(&path, &bytes[..bytes.len() - last_len + 3]).unwrap();
        let got = read_journal(&path).unwrap();
        assert_eq!(got, recs[..4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_stops_replay_without_error() {
        let dir = temp_dir("corrupt");
        let mut w = JournalWriter::open(&dir).unwrap();
        w.append(&JRecord::Closed { session: 1 });
        w.sync().unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // A record with an unknown tag after the good one.
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0x00]);
        std::fs::write(&path, &bytes).unwrap();
        let got = read_journal(&path).unwrap();
        assert_eq!(got, vec![JRecord::Closed { session: 1 }]);
        // Hostile count: an Accepted record claiming 2^31 tasks in a
        // tiny body must not allocate or loop.
        let mut body = vec![TAG_ACCEPTED];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&(1u32 << 31).to_le_bytes());
        assert_eq!(decode(&body).ok(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_torn_record_cuts_it_before_appending() {
        let dir = temp_dir("torn-reopen");
        let recs = sample_records();
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append(&recs[0]);
            w.append(&recs[1]);
            w.sync().unwrap();
        }
        // A pilot killed mid-append leaves the head of a record: its
        // length prefix, tag and part of its body.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&recs[2].encode()[..7]);
        std::fs::write(&path, &bytes).unwrap();
        let next = JRecord::SessionOpen {
            session: 1,
            tenant: "bio/align".into(),
            weight: 2,
            priority: 0,
            payload: Payload::Noop,
            template: "align {}".into(),
        };
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append(&next);
            w.sync().unwrap();
        }
        let got = read_journal(&path).unwrap();
        assert_eq!(got, vec![recs[0].clone(), recs[1].clone(), next]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `append_accepted` and `append_done` write the bytes of the
    /// records they stand for.
    #[test]
    fn direct_appends_match_the_record_encoding() {
        let dir = temp_dir("direct");
        let args: Vec<Vec<String>> = vec![vec!["a b".into()], vec![], vec!["x".into(), "y".into()]];
        let tasks: Vec<TaskSpec> = (5..)
            .zip(args)
            .map(|(seq, args)| TaskSpec { seq, args })
            .collect();
        let mut w = JournalWriter::open(&dir).unwrap();
        w.append_accepted(3, &tasks);
        w.append_done(3, [5u64, 7].into_iter());
        let accepted = JRecord::Accepted { session: 3, tasks };
        let done = JRecord::Done {
            session: 3,
            seqs: vec![5, 7],
        };
        assert_eq!(w.buf, [accepted.encode(), done.encode()].concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `read_journal` and `open` refuse a journal that holds a record
    /// with a retired tag, and leave the file as it was. (The pilot's
    /// own test, `pilot_contracts::a_journal_in_the_older_layout_is_refused_at_bind`,
    /// builds a whole journal in the older layout.)
    #[test]
    fn a_retired_tag_is_refused_and_the_file_left_alone() {
        let dir = temp_dir("older");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        // An older `Accepted` record of session 0 with no tasks.
        let mut bytes = 13u32.to_le_bytes().to_vec();
        bytes.push(RETIRED_TAGS[1]);
        bytes.extend_from_slice(&[0; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let errors = [
            read_journal(&path).unwrap_err(),
            JournalWriter::open(&dir).err().expect("open refuses it"),
        ];
        for err in errors {
            match err {
                NetError::OlderJournal { path: named } => assert_eq!(named, path),
                other => panic!("expected OlderJournal, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "not truncated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn session_of(rec: &JRecord) -> u64 {
            match rec {
                JRecord::SessionOpen { session, .. }
                | JRecord::Accepted { session, .. }
                | JRecord::Done { session, .. }
                | JRecord::Detached { session, .. }
                | JRecord::Closed { session } => *session,
            }
        }

        /// Record `op` of a generated journal: one of five kinds, over
        /// six sessions.
        fn record(op: u64) -> JRecord {
            let session = op % 6;
            let n = op / 30 % 5;
            match op / 6 % 5 {
                0 => JRecord::SessionOpen {
                    session,
                    tenant: format!("t{session}"),
                    weight: n as u32,
                    priority: 1,
                    payload: [Payload::Noop, Payload::Shell, Payload::SleepUs(n)][(n % 3) as usize],
                    template: format!("run {{}} {n}"),
                },
                1 => JRecord::Accepted {
                    session,
                    tasks: (1..=n)
                        .map(|seq| TaskSpec {
                            seq,
                            args: vec![format!("in-{op}"); (seq % 3) as usize],
                        })
                        .collect(),
                },
                2 => JRecord::Done {
                    session,
                    seqs: (1..=n).collect(),
                },
                3 => JRecord::Detached {
                    session,
                    detach_key: op,
                },
                _ => JRecord::Closed { session },
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Compaction copies records without decoding them: the
            /// compacted journal replays to exactly what `read_journal`
            /// read before, minus every record of a closed session, and
            /// it stops where `read_journal` stops (a torn tail).
            #[test]
            fn compaction_replays_to_the_journal_minus_closed_sessions(
                ops in proptest::collection::vec(0u64..1_000_000, 0..60),
                torn in 0usize..12,
            ) {
                let dir = temp_dir("compact-prop");
                let path = dir.join(JOURNAL_FILE);
                let recs: Vec<JRecord> = ops.iter().map(|&op| record(op)).collect();
                let mut w = JournalWriter::open(&dir).unwrap();
                for rec in &recs {
                    w.append(rec);
                }
                w.sync().unwrap();
                if torn > 0 {
                    let mut bytes = std::fs::read(&path).unwrap();
                    let head = record(torn as u64 * 7).encode();
                    bytes.extend_from_slice(&head[..torn.min(head.len() - 1)]);
                    std::fs::write(&path, bytes).unwrap();
                }
                let before = read_journal(&path).unwrap();
                prop_assert_eq!(&before, &recs);
                let closed: HashSet<u64> = before
                    .iter()
                    .filter(|r| matches!(r, JRecord::Closed { .. }))
                    .map(session_of)
                    .collect();
                let stats = w.compact().unwrap();
                let want: Vec<JRecord> = before
                    .iter()
                    .filter(|r| !closed.contains(&session_of(r)))
                    .cloned()
                    .collect();
                prop_assert_eq!(read_journal(&path).unwrap(), want.clone());
                prop_assert_eq!(
                    stats,
                    CompactStats {
                        records_before: before.len(),
                        records_after: want.len(),
                        sessions_dropped: closed.len(),
                    }
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
