//! Retained task output for detached sessions (`<tenant>.outlog`).
//!
//! The per-tenant joblog is the commit record for exit codes and
//! timing, but `ReattachAck` replay used to synthesize *empty*
//! stdout/stderr for every recorded completion — a detached pipeline
//! reattached to real exit codes and vanished output. This sidecar is
//! the joblog's payload half: an append-only, tab-separated,
//! escape-encoded `seq \t stdout \t stderr` line per completion that
//! produced output, living next to `<tenant>.joblog`. Completions with
//! no output are not written; replay defaults their streams to empty
//! strings, so the sidecar stays proportional to actual output volume.
//! Fields use the joblog's escaping and lines follow its crash rule
//! ([`htpar_core::joblog`]): a line exists once its newline is on disk.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use htpar_core::joblog::{committed_lines, escape, repair_torn_tail, unescape};

/// Append-mode retained-output writer, one per tenant, opened lazily
/// alongside the tenant joblog.
#[derive(Debug)]
pub struct OutLog {
    out: BufWriter<File>,
}

impl OutLog {
    /// Open (creating or appending), first cutting away a torn final
    /// line so the next record does not fuse onto it.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<OutLog> {
        repair_torn_tail(path.as_ref())?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(OutLog {
            out: BufWriter::new(file),
        })
    }

    /// Record one completion's output. A no-op when both streams are
    /// empty — replay synthesizes empty strings for absent seqs.
    pub fn record(&mut self, seq: u64, stdout: &str, stderr: &str) -> std::io::Result<()> {
        if stdout.is_empty() && stderr.is_empty() {
            return Ok(());
        }
        writeln!(self.out, "{seq}\t{}\t{}", escape(stdout), escape(stderr))
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Load retained outputs keyed by seq. A missing file is an empty map
/// (retention starts with the first completion that has output). A
/// torn final line is not read, malformed lines are skipped, and a
/// later duplicate row wins.
pub fn read_outputs<P: AsRef<Path>>(path: P) -> std::io::Result<HashMap<u64, (String, String)>> {
    let mut map = HashMap::new();
    for line in committed_lines(path)? {
        let line = line?;
        let mut parts = line.splitn(3, '\t');
        let (Some(seq), Some(out), Some(err)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let Ok(seq) = seq.parse::<u64>() else {
            continue;
        };
        map.insert(seq, (unescape(out), unescape(err)));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_multiline_output() {
        let dir = std::env::temp_dir().join(format!("htpar-outlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.outlog");
        let mut log = OutLog::open(&path).unwrap();
        log.record(1, "line one\nline two\n", "").unwrap();
        log.record(2, "", "").unwrap(); // empty: not written
        log.record(3, "tab\there", "err\\msg\n").unwrap();
        log.flush().unwrap();
        let map = read_outputs(&path).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&1], ("line one\nline two\n".to_string(), String::new()));
        assert!(!map.contains_key(&2));
        assert_eq!(map[&3], ("tab\there".to_string(), "err\\msg\n".to_string()));
        // Append survives reopen; later rows win.
        let mut log = OutLog::open(&path).unwrap();
        log.record(1, "replaced", "e").unwrap();
        log.flush().unwrap();
        let map = read_outputs(&path).unwrap();
        assert_eq!(map[&1], ("replaced".to_string(), "e".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_and_torn_lines_are_tolerated() {
        let dir = std::env::temp_dir().join(format!("htpar-outlog2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.outlog");
        assert!(read_outputs(&path).unwrap().is_empty());
        std::fs::write(&path, "1\tok\t\ngarbage line\n7\ttorn").unwrap();
        let map = read_outputs(&path).unwrap();
        assert_eq!(map[&1], ("ok".to_string(), String::new()));
        assert_eq!(map.len(), 1, "torn and field-short lines are skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_torn_line_keeps_the_next_record() {
        let dir = std::env::temp_dir().join(format!("htpar-outlog3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.outlog");
        std::fs::write(&path, "1\tok\t\n7\tpartial-out").unwrap();
        let mut log = OutLog::open(&path).unwrap();
        log.record(8, "fresh\n", "warn").unwrap();
        log.flush().unwrap();
        let map = read_outputs(&path).unwrap();
        assert_eq!(map[&8], ("fresh\n".to_string(), "warn".to_string()));
        assert_eq!(map[&1], ("ok".to_string(), String::new()));
        assert!(!map.contains_key(&7), "the torn line was never committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
