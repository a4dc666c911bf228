//! Write-ahead journal for the pilot's session table.
//!
//! The pilot ([`crate::serve`]) is the only durable point in a
//! multi-tenant campaign: clients may detach and agents are
//! stateless. When `--state-dir` is set, every admission decision is
//! appended here as a length-prefixed record and fsynced *before* the
//! client sees its `SessionAck`, so a SIGKILLed pilot can restart,
//! replay the journal against the per-tenant joblogs, and re-dispatch
//! exactly the unfinished seqs.
//!
//! Records use the frame codec's layout and field encoding:
//! `[u32 LE len][u8 tag][body]`. Completion (`Done`) records are
//! written after the tenant joblog has been flushed, so on replay a seq
//! counts as done if *either* the journal or the joblog says so — the
//! joblog row is the commit record, the journal `Done` only spares a
//! benign re-dispatch. The crash rule is the joblog's
//! ([`htpar_core::joblog`]): a record exists only once its last byte is
//! on disk. Replay stops cleanly at the first truncated or corrupt
//! record, and [`JournalWriter::open`] cuts that tail away before
//! appending.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::frame::{put_str, Body, FrameError};

/// File name of the journal inside `--state-dir`.
pub const JOURNAL_FILE: &str = "pilot.journal";

/// Upper bound on a single record's encoded length; anything larger
/// is treated as corruption (mirrors the frame codec's cap).
const MAX_RECORD_LEN: usize = 32 << 20;

const TAG_SESSION_OPEN: u8 = 1;
const TAG_ACCEPTED: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_DETACHED: u8 = 4;
const TAG_CLOSED: u8 = 5;

/// One accepted task, as journaled at admission: everything the pilot
/// needs to re-dispatch it after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JTask {
    pub local_seq: u64,
    pub command: String,
    pub directive: String,
}

/// One journal record. `session` ids are the pilot's own session ids;
/// replay reconstructs sessions under their original ids so wire seqs
/// stay stable across the restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JRecord {
    /// A session bound to a tenant (first accepted `Submit`).
    SessionOpen {
        session: u64,
        tenant: String,
        weight: u32,
        priority: u32,
    },
    /// A batch of tasks passed admission. Fsynced before the ack.
    Accepted { session: u64, tasks: Vec<JTask> },
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
        let mut body = Vec::with_capacity(32);
        match self {
            JRecord::SessionOpen {
                session,
                tenant,
                weight,
                priority,
            } => {
                body.push(TAG_SESSION_OPEN);
                body.extend_from_slice(&session.to_le_bytes());
                put_str(&mut body, tenant);
                body.extend_from_slice(&weight.to_le_bytes());
                body.extend_from_slice(&priority.to_le_bytes());
            }
            JRecord::Accepted { session, tasks } => {
                body.push(TAG_ACCEPTED);
                body.extend_from_slice(&session.to_le_bytes());
                body.extend_from_slice(&(tasks.len() as u32).to_le_bytes());
                for t in tasks {
                    body.extend_from_slice(&t.local_seq.to_le_bytes());
                    put_str(&mut body, &t.command);
                    put_str(&mut body, &t.directive);
                }
            }
            JRecord::Done { session, seqs } => {
                body.push(TAG_DONE);
                body.extend_from_slice(&session.to_le_bytes());
                body.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
                for s in seqs {
                    body.extend_from_slice(&s.to_le_bytes());
                }
            }
            JRecord::Detached {
                session,
                detach_key,
            } => {
                body.push(TAG_DETACHED);
                body.extend_from_slice(&session.to_le_bytes());
                body.extend_from_slice(&detach_key.to_le_bytes());
            }
            JRecord::Closed { session } => {
                body.push(TAG_CLOSED);
                body.extend_from_slice(&session.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// Decode one record body (tag + payload, without the length prefix).
/// `None` means corruption; the caller stops replay there.
fn decode_record(body: &[u8]) -> Option<JRecord> {
    decode(body).ok()
}

fn decode(body: &[u8]) -> Result<JRecord, FrameError> {
    let mut c = Body::new(body);
    let corrupt = FrameError::Malformed("record count exceeds body");
    let rec = match c.u8()? {
        TAG_SESSION_OPEN => JRecord::SessionOpen {
            session: c.u64()?,
            tenant: c.string()?,
            weight: c.u32()?,
            priority: c.u32()?,
        },
        TAG_ACCEPTED => {
            let session = c.u64()?;
            let n = c.u32()? as usize;
            // Hostile-count guard: each task needs ≥ 16 bytes.
            if n > body.len() / 16 + 1 {
                return Err(corrupt);
            }
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                tasks.push(JTask {
                    local_seq: c.u64()?,
                    command: c.string()?,
                    directive: c.string()?,
                });
            }
            JRecord::Accepted { session, tasks }
        }
        TAG_DONE => {
            let session = c.u64()?;
            let n = c.u32()? as usize;
            if n > body.len() / 8 + 1 {
                return Err(corrupt);
            }
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
    /// over the new records.
    pub fn open(state_dir: &Path) -> io::Result<JournalWriter> {
        std::fs::create_dir_all(state_dir)?;
        let path = state_dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let (_, intact) = replay(&path)?;
        if file.metadata()?.len() > intact {
            file.set_len(intact)?;
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
        self.buf.extend_from_slice(&rec.encode());
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
    /// replay identically), writes the survivors to a temp file,
    /// fsyncs it, and renames it over the live journal. The rename is
    /// the commit point: a crash at any step leaves either the old or
    /// the new journal, both of which replay to the same session
    /// table. The writer reopens in append mode on the new file.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        self.sync()?;
        let recs = read_journal(&self.path)?;
        let closed: std::collections::HashSet<u64> = recs
            .iter()
            .filter_map(|r| match r {
                JRecord::Closed { session } => Some(*session),
                _ => None,
            })
            .collect();
        let session_of = |r: &JRecord| match r {
            JRecord::SessionOpen { session, .. }
            | JRecord::Accepted { session, .. }
            | JRecord::Done { session, .. }
            | JRecord::Detached { session, .. }
            | JRecord::Closed { session } => *session,
        };
        let kept: Vec<&JRecord> = recs
            .iter()
            .filter(|r| !closed.contains(&session_of(r)))
            .collect();
        let stats = CompactStats {
            records_before: recs.len(),
            records_after: kept.len(),
            sessions_dropped: closed.len(),
        };
        let tmp = self.path.with_extension("compact");
        {
            let mut f = File::create(&tmp)?;
            let mut buf = Vec::new();
            for rec in &kept {
                buf.extend_from_slice(&rec.encode());
            }
            f.write_all(&buf)?;
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
/// crash mid-append is exactly the case the journal exists for.
pub fn read_journal(path: &Path) -> io::Result<Vec<JRecord>> {
    Ok(replay(path)?.0)
}

/// The records [`read_journal`] returns and the byte length of the
/// prefix they span.
fn replay(path: &Path) -> io::Result<(Vec<JRecord>, u64)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    }
    let mut recs = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 4 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len > MAX_RECORD_LEN || bytes.len() - pos - 4 < len {
            break; // truncated or corrupt tail
        }
        match decode_record(&bytes[pos + 4..pos + 4 + len]) {
            Some(rec) => recs.push(rec),
            None => break,
        }
        pos += 4 + len;
    }
    Ok((recs, pos as u64))
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
            },
            JRecord::Accepted {
                session: 0,
                tasks: vec![
                    JTask {
                        local_seq: 1,
                        command: "echo hi".into(),
                        directive: "sh:echo hi".into(),
                    },
                    JTask {
                        local_seq: 2,
                        command: String::new(),
                        directive: "noop".into(),
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
            assert_eq!(decode_record(&wire[4..]), Some(rec));
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
            assert_eq!(decode_record(&wire[4..]), Some(rec));
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
        };
        let live_accepted = JRecord::Accepted {
            session: 7,
            tasks: vec![JTask {
                local_seq: 1,
                command: "echo live".into(),
                directive: "sh:echo live".into(),
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
        assert_eq!(decode_record(&body), None);
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
}
