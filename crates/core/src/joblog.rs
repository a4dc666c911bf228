//! `--joblog` files and `--resume` semantics.
//!
//! The format matches GNU Parallel's joblog: a tab-separated header line
//! followed by one row per finished job:
//!
//! ```text
//! Seq  Host  Starttime  JobRuntime  Send  Receive  Exitval  Signal  Command
//! ```
//!
//! `Send`/`Receive` are byte counts of the job's stdin/stdout (we always
//! send 0 and receive `stdout.len()`).
//!
//! Crash rule, shared by every log htpar appends to (this joblog, the
//! pilot's `<tenant>.outlog` and its `pilot.journal`): a record exists
//! only once its terminator is on disk. Readers ignore the bytes after
//! the last terminator ([`committed_lines`]), and writers cut them away
//! before appending ([`repair_torn_tail`]), so a writer killed
//! mid-append loses only the record it was writing.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, UNIX_EPOCH};

use crate::error::{Error, Result};
use crate::job::JobResult;
use crate::options::ResumeMode;

/// Column header, identical to GNU Parallel's.
pub const HEADER: &str =
    "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand";

/// One parsed joblog row.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    pub seq: u64,
    pub host: String,
    pub start: f64,
    pub runtime: f64,
    pub send: u64,
    pub receive: u64,
    pub exitval: i32,
    pub signal: i32,
    pub command: String,
}

impl LogEntry {
    /// Serialize as a joblog row. Newlines/tabs in the command are escaped
    /// so the file stays line-oriented.
    pub fn to_line(&self) -> String {
        let mut line = Vec::with_capacity(64 + self.command.len());
        self.row()
            .encode(&mut line)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(line).expect("escaping keeps UTF-8 intact")
    }

    fn row(&self) -> Row<'_> {
        Row {
            seq: self.seq,
            host: &self.host,
            start: self.start,
            runtime: self.runtime,
            send: self.send,
            receive: self.receive,
            exitval: self.exitval,
            signal: self.signal,
            command: &self.command,
        }
    }

    /// Parse one row. `line_no` only feeds error messages.
    pub fn parse(line: &str, line_no: usize) -> Result<LogEntry> {
        let mut cols = line.splitn(9, '\t');
        let mut next = |name: &str| {
            cols.next().ok_or_else(|| Error::JobLogParse {
                line: line_no,
                reason: format!("missing column {name}"),
            })
        };
        let parse_err = |name: &str| Error::JobLogParse {
            line: line_no,
            reason: format!("bad {name}"),
        };
        let seq = next("Seq")?.parse().map_err(|_| parse_err("Seq"))?;
        let host = next("Host")?.to_string();
        let start = next("Starttime")?
            .parse()
            .map_err(|_| parse_err("Starttime"))?;
        let runtime = next("JobRuntime")?
            .parse()
            .map_err(|_| parse_err("JobRuntime"))?;
        let send = next("Send")?.parse().map_err(|_| parse_err("Send"))?;
        let receive = next("Receive")?.parse().map_err(|_| parse_err("Receive"))?;
        let exitval = next("Exitval")?.parse().map_err(|_| parse_err("Exitval"))?;
        let signal = next("Signal")?.parse().map_err(|_| parse_err("Signal"))?;
        let command = unescape(next("Command")?);
        Ok(LogEntry {
            seq,
            host,
            start,
            runtime,
            send,
            receive,
            exitval,
            signal,
            command,
        })
    }

    /// Whether this row records a success.
    pub fn succeeded(&self) -> bool {
        self.exitval == 0 && self.signal == 0
    }
}

/// One joblog row by reference: the one encoder behind
/// [`JobLogWriter::record`], [`JobLogWriter::record_row`],
/// [`JobLogWriter::record_entry`] and [`LogEntry::to_line`], writing
/// straight into its output with no intermediate strings. Callers that
/// hold a completion's fields build one in place instead of a
/// [`LogEntry`].
pub struct Row<'a> {
    pub seq: u64,
    pub host: &'a str,
    /// Seconds since the Unix epoch.
    pub start: f64,
    /// Seconds.
    pub runtime: f64,
    pub send: u64,
    pub receive: u64,
    pub exitval: i32,
    pub signal: i32,
    pub command: &'a str,
}

impl<'a> Row<'a> {
    /// The row for a job this process ran on `host`.
    fn of_result(result: &'a JobResult, host: &'a str) -> Row<'a> {
        let start = result
            .started_at
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        Row {
            seq: result.seq,
            host,
            start,
            runtime: result.runtime.as_secs_f64(),
            send: 0,
            receive: result.stdout.len() as u64,
            exitval: result.status.exitval(),
            signal: result.status.signal(),
            command: &result.command,
        }
    }

    /// Write the row without its newline: the bytes
    /// `"{seq}\t{host}\t{start:.3}\t{runtime:.3}\t…"` would give, from
    /// integer code.
    fn encode(&self, out: &mut impl Write) -> io::Result<()> {
        put_u64(out, self.seq)?;
        out.write_all(b"\t")?;
        out.write_all(self.host.as_bytes())?;
        out.write_all(b"\t")?;
        put_millis(out, self.start)?;
        out.write_all(b"\t")?;
        put_millis(out, self.runtime)?;
        out.write_all(b"\t")?;
        put_u64(out, self.send)?;
        out.write_all(b"\t")?;
        put_u64(out, self.receive)?;
        out.write_all(b"\t")?;
        put_i64(out, self.exitval.into())?;
        out.write_all(b"\t")?;
        put_i64(out, self.signal.into())?;
        out.write_all(b"\t")?;
        escape_into(self.command, out)
    }
}

/// Write `n` in decimal.
fn put_u64(out: &mut impl Write, mut n: u64) -> io::Result<()> {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_all(&digits[at..])
}

/// Write `n` in decimal, with a `-` when negative.
fn put_i64(out: &mut impl Write, n: i64) -> io::Result<()> {
    if n < 0 {
        out.write_all(b"-")?;
    }
    put_u64(out, n.unsigned_abs())
}

/// Write `secs` exactly as `{:.3}` does. `{:.3}` rounds the exact value
/// of `secs` half to even. Below 2^44 the product `secs × 1000` is
/// within 2^-10 of that exact value, so when its fraction is more than
/// 2^-8 away from one half, both round to the same integer and the
/// digits come from integer code. Near a tie, and for negative,
/// huge or non-finite values, the formatter decides.
fn put_millis(out: &mut impl Write, secs: f64) -> io::Result<()> {
    const FAST_BELOW: f64 = (1u64 << 44) as f64;
    let scaled = secs * 1000.0;
    if secs.is_sign_positive() && scaled < FAST_BELOW {
        let whole = scaled.floor();
        let frac = scaled - whole;
        if (frac - 0.5).abs() > 1.0 / 256.0 {
            let millis = whole as u64 + u64::from(frac > 0.5);
            put_u64(out, millis / 1000)?;
            let rem = millis % 1000;
            let digit = |d: u64| b'0' + d as u8;
            return out.write_all(&[
                b'.',
                digit(rem / 100),
                digit(rem / 10 % 10),
                digit(rem % 10),
            ]);
        }
    }
    write!(out, "{secs:.3}")
}

/// Escape a TSV field so the record stays one line: `\`, tab and
/// newline become `\\`, `\t` and `\n`.
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    escape_into(s, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("escaping keeps UTF-8 intact")
}

/// [`escape`] `s` straight into `out`, copying unescaped runs whole.
fn escape_into(s: &str, out: &mut impl Write) -> io::Result<()> {
    let bytes = s.as_bytes();
    let mut from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            _ => continue,
        };
        out.write_all(&bytes[from..i])?;
        out.write_all(escaped)?;
        from = i + 1;
    }
    out.write_all(&bytes[from..])
}

/// Invert [`escape`].
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// An append-mode joblog writer.
///
/// Rows are encoded straight into a write buffer and reach the file on
/// [`JobLogWriter::flush`], so a caller that flushes per batch pays one
/// write syscall per batch, not per row. In-process runs write through
/// one [`LogSink`]: the engine flushes once per batch a worker hands
/// over, and the DAG layer after a task that ran at least 500 µs, every
/// 64 rows and before a worker parks; both flush at the end of the run.
/// Flush to make rows visible to concurrent `--resume` readers. Dropping
/// the writer also flushes.
pub struct JobLogWriter {
    file: std::io::BufWriter<File>,
    host: String,
}

impl JobLogWriter {
    /// Open (creating or appending). A header is written only when the
    /// file is empty so that resumed runs keep a single header. A torn
    /// final line (writer SIGKILLed mid-append) is truncated away
    /// first — otherwise the next row would be appended onto the
    /// partial line and both records would be lost to parsers.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<JobLogWriter> {
        repair_torn_tail(path.as_ref()).map_err(Error::JobLog)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(Error::JobLog)?;
        let empty = file.metadata().map_err(Error::JobLog)?.len() == 0;
        let mut writer = JobLogWriter {
            file: std::io::BufWriter::new(file),
            host: hostname(),
        };
        if empty {
            writeln!(writer.file, "{HEADER}").map_err(Error::JobLog)?;
            writer.flush()?;
        }
        Ok(writer)
    }

    /// Append one finished job (buffered until the next [`flush`]).
    ///
    /// [`flush`]: JobLogWriter::flush
    pub fn record(&mut self, result: &JobResult) -> Result<()> {
        let row = Row::of_result(result, &self.host);
        write_row(&mut self.file, &row)
    }

    /// Append a pre-built entry, keeping its own `host` column — the
    /// aggregation path for drivers that log completions reported by
    /// remote agents rather than jobs run in this process.
    pub fn record_entry(&mut self, entry: &LogEntry) -> Result<()> {
        write_row(&mut self.file, &entry.row())
    }

    /// Append a row built in place, keeping its own `host` column: what
    /// [`record_entry`](JobLogWriter::record_entry) writes, without an
    /// owned [`LogEntry`].
    pub fn record_row(&mut self, row: &Row) -> Result<()> {
        write_row(&mut self.file, row)
    }

    /// Push buffered rows to the file.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush().map_err(Error::JobLog)
    }
}

/// The joblog of one in-process run, written by the engine's workers
/// and by the DAG layer's release hook, each under its run-wide lock.
///
/// A failed write or flush does not stop the run: the sink keeps the
/// first error and [`LogSink::finish`] returns it once the run is over.
/// Without `--joblog` every call does nothing.
pub(crate) struct LogSink {
    writer: Option<JobLogWriter>,
    /// Rows written since the last flush.
    unflushed: usize,
    /// First write or flush error.
    error: Option<Error>,
}

impl LogSink {
    /// A sink over the joblog at `path` (see [`JobLogWriter::open`]), or
    /// one that logs nothing.
    pub(crate) fn open(path: Option<&Path>) -> Result<LogSink> {
        Ok(LogSink {
            writer: path.map(JobLogWriter::open).transpose()?,
            unflushed: 0,
            error: None,
        })
    }

    pub(crate) fn is_open(&self) -> bool {
        self.writer.is_some()
    }

    /// Rows written since the last flush.
    pub(crate) fn unflushed(&self) -> usize {
        self.unflushed
    }

    /// Append the row of a job this process ran.
    pub(crate) fn record(&mut self, result: &JobResult) {
        self.write(|w| w.record(result));
    }

    /// Append a pre-built row.
    pub(crate) fn record_entry(&mut self, entry: &LogEntry) {
        self.write(|w| w.record_entry(entry));
    }

    fn write(&mut self, write: impl FnOnce(&mut JobLogWriter) -> Result<()>) {
        if let Some(writer) = &mut self.writer {
            if let Err(e) = write(writer) {
                self.error.get_or_insert(e);
            }
            self.unflushed += 1;
        }
    }

    /// Push the rows written since the last flush to the file.
    pub(crate) fn flush(&mut self) {
        if self.unflushed == 0 {
            return;
        }
        self.unflushed = 0;
        if let Some(Err(e)) = self.writer.as_mut().map(JobLogWriter::flush) {
            self.error.get_or_insert(e);
        }
    }

    /// Flush the last rows; the first error of the run, if any.
    pub(crate) fn finish(mut self) -> Result<()> {
        self.flush();
        self.error.map_or(Ok(()), Err)
    }
}

/// One row and its newline.
fn write_row(out: &mut impl Write, row: &Row) -> Result<()> {
    row.encode(out)
        .and_then(|_| out.write_all(b"\n"))
        .map_err(Error::JobLog)
}

/// Truncate the bytes after the last newline of the line log at
/// `path`: they were never committed, and appending behind them would
/// fuse the next record onto the partial one. An absent file is left
/// alone.
pub fn repair_torn_tail(path: &Path) -> io::Result<()> {
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let keep = committed_len(&mut file)?;
    if keep < file.metadata()?.len() {
        file.set_len(keep)?;
    }
    Ok(())
}

/// The committed lines of the line log at `path`, without their
/// newlines. Bytes after the last newline are a torn append and are
/// never yielded; an absent file has no lines.
pub fn committed_lines<P: AsRef<Path>>(
    path: P,
) -> io::Result<impl Iterator<Item = io::Result<String>>> {
    let committed = match File::open(path) {
        Ok(mut file) => {
            let len = committed_len(&mut file)?;
            file.rewind()?;
            Some(BufReader::new(file.take(len)))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    Ok(committed.into_iter().flat_map(BufRead::lines))
}

/// Length of `file` up to and including its last newline.
fn committed_len(file: &mut File) -> io::Result<u64> {
    // Walk back in chunks (a large stdout column can stretch one row
    // past any fixed tail window).
    let mut pos = file.metadata()?.len();
    let mut buf = [0u8; 4096];
    while pos > 0 {
        let n = std::cmp::min(buf.len() as u64, pos);
        pos -= n;
        file.seek(SeekFrom::Start(pos))?;
        let chunk = &mut buf[..n as usize];
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(pos + i as u64 + 1);
        }
    }
    Ok(0)
}

/// Best-effort local hostname (joblogs are informational).
fn hostname() -> String {
    std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string())
}

/// Parse a whole joblog's committed rows. A torn final row is skipped,
/// but a malformed row that ends in a newline is an error; an absent
/// file yields an empty list (a fresh `--resume` run starts from
/// nothing).
pub fn read_log<P: AsRef<Path>>(path: P) -> Result<Vec<LogEntry>> {
    let mut entries = Vec::new();
    for (idx, line) in committed_lines(path).map_err(Error::JobLog)?.enumerate() {
        let line = line.map_err(Error::JobLog)?;
        if idx == 0 && line.starts_with("Seq\t") {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        entries.push(LogEntry::parse(&line, idx + 1)?);
    }
    Ok(entries)
}

/// The seqs a run over the joblog at `path` skips under `mode`: none
/// when off, every logged seq for `--resume`, every seq with a
/// successful row for `--resume-failed`.
pub fn resume_set<P: AsRef<Path>>(path: P, mode: ResumeMode) -> Result<HashSet<u64>> {
    Ok(match mode {
        ResumeMode::Off => HashSet::new(),
        ResumeMode::Resume => completed_seqs(&read_log(path)?),
        ResumeMode::ResumeFailed => successful_seqs(&read_log(path)?),
    })
}

/// Sequence numbers recorded at all (for `--resume`).
pub fn completed_seqs(entries: &[LogEntry]) -> HashSet<u64> {
    entries.iter().map(|e| e.seq).collect()
}

/// Sequence numbers recorded as successful (for `--resume-failed`). A seq
/// that appears multiple times counts as successful if *any* attempt
/// succeeded.
pub fn successful_seqs(entries: &[LogEntry]) -> HashSet<u64> {
    entries
        .iter()
        .filter(|e| e.succeeded())
        .map(|e| e.seq)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use std::time::Duration;

    fn result(seq: u64, status: JobStatus) -> JobResult {
        JobResult {
            seq,
            slot: 1,
            args: vec![format!("a{seq}")],
            command: format!("echo a{seq}"),
            status,
            stdout: "out\n".into(),
            stderr: String::new(),
            started_at: UNIX_EPOCH + Duration::from_secs(1_700_000_000),
            runtime: Duration::from_millis(1234),
            tries: 0,
        }
    }

    /// The entry `record` writes for `result` on `host`, read back.
    fn logged(result: &JobResult, host: &str) -> LogEntry {
        let mut line = Vec::new();
        Row::of_result(result, host).encode(&mut line).unwrap();
        LogEntry::parse(std::str::from_utf8(&line).unwrap(), 1).unwrap()
    }

    /// Every column of a row, byte for byte: the `{:.3}` times, a
    /// negative exitval, a signal, and a command that needs escaping,
    /// through all three encoding entry points.
    #[test]
    fn rows_encode_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("htpar-joblog-gold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gold.tsv");
        let _ = std::fs::remove_file(&path);
        let mut killed = result(7, JobStatus::Signaled(9));
        killed.command = "printf 'a\tb\nc' \\ end".into();
        killed.started_at = UNIX_EPOCH + Duration::from_millis(1_700_000_000_250);
        let skipped = LogEntry {
            seq: 8,
            host: "skipped-dep-failed".into(),
            start: 12.5,
            runtime: 0.0,
            send: 0,
            receive: 0,
            exitval: -2,
            signal: 0,
            command: "x\\y\tz".into(),
        };
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record(&killed).unwrap();
            w.record_entry(&skipped).unwrap();
            w.record(&result(9, JobStatus::Failed(2))).unwrap();
        }
        let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string());
        let skip_row = "8\tskipped-dep-failed\t12.500\t0.000\t0\t0\t-2\t0\tx\\\\y\\tz";
        let want = format!(
            "{HEADER}\n\
             7\t{host}\t1700000000.250\t1.234\t0\t4\t-1\t9\tprintf 'a\\tb\\nc' \\\\ end\n\
             {skip_row}\n\
             9\t{host}\t1700000000.000\t1.234\t0\t4\t2\t0\techo a9\n"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
        assert_eq!(skipped.to_line(), skip_row);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_round_trips() {
        let entry = logged(&result(7, JobStatus::Failed(2)), "nid001");
        let parsed = LogEntry::parse(&entry.to_line(), 1).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn commands_with_tabs_and_newlines_round_trip() {
        let mut r = result(1, JobStatus::Success);
        r.command = "echo\t'a\nb' \\ weird".into();
        let entry = logged(&r, "h");
        let line = entry.to_line();
        assert!(!line.contains('\n'));
        let parsed = LogEntry::parse(&line, 1).unwrap();
        assert_eq!(parsed.command, r.command);
    }

    #[test]
    fn writer_then_reader() {
        let dir = std::env::temp_dir().join(format!("htpar-joblog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record(&result(1, JobStatus::Success)).unwrap();
            w.record(&result(2, JobStatus::Failed(1))).unwrap();
        }
        // Re-open appends without duplicating the header.
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record(&result(3, JobStatus::Success)).unwrap();
        }
        let entries = read_log(&path).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].seq, 1);
        assert!(entries[0].succeeded());
        assert!(!entries[1].succeeded());
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.matches("Seq\t").count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_entry_keeps_foreign_host() {
        let dir = std::env::temp_dir().join(format!("htpar-joblog-agg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agg.tsv");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record_entry(&logged(&result(1, JobStatus::Success), "agent-3"))
                .unwrap();
        }
        let entries = read_log(&path).unwrap();
        assert_eq!(entries[0].host, "agent-3");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reads_empty() {
        let entries = read_log("/definitely/not/here.tsv").unwrap();
        assert!(entries.is_empty());
    }

    #[test]
    fn tolerant_reader_skips_only_a_torn_tail() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("htpar-joblog-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.tsv");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record(&result(1, JobStatus::Success)).unwrap();
            w.record(&result(2, JobStatus::Success)).unwrap();
        }
        // Simulate a SIGKILL mid-append: a partial record with no
        // terminating structure.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "3\tagent-0\t17").unwrap();
        }
        let entries = read_log(&path).unwrap();
        assert_eq!(entries.len(), 2, "intact prefix survives");
        assert_eq!(entries[1].seq, 2);
        // A malformed line *before* intact records is corruption and
        // still errors.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "\tgarbage").unwrap();
            writeln!(
                f,
                "{}",
                logged(&result(4, JobStatus::Success), "h").to_line()
            )
            .unwrap();
        }
        assert!(read_log(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_set_ignores_a_torn_row_that_parses() {
        let dir = std::env::temp_dir().join(format!("htpar-joblog-rs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.tsv");
        let ok = |seq| logged(&result(seq, JobStatus::Success), "h").to_line();
        let failed = logged(&result(2, JobStatus::Failed(1)), "h").to_line();
        // Seq 3's row lost its last command byte: it parses, but its
        // newline never landed, so it was never committed.
        let torn = ok(3);
        let text = format!("{HEADER}\n{}\n{failed}\n{}", ok(1), &torn[..torn.len() - 1]);
        std::fs::write(&path, text).unwrap();
        let set = |mode| resume_set(&path, mode).unwrap();
        assert!(set(ResumeMode::Off).is_empty());
        assert_eq!(set(ResumeMode::Resume), [1, 2].into_iter().collect());
        assert_eq!(set(ResumeMode::ResumeFailed), [1].into_iter().collect());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_truncates_a_torn_tail_before_appending() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("htpar-joblog-repair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repair.tsv");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record(&result(1, JobStatus::Success)).unwrap();
            w.record(&result(2, JobStatus::Success)).unwrap();
        }
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "3\tagent-0\t17").unwrap();
        }
        {
            let mut w = JobLogWriter::open(&path).unwrap();
            w.record(&result(4, JobStatus::Success)).unwrap();
        }
        // The torn seq-3 bytes are gone, the appended row is intact,
        // and the strict reader accepts the whole file again.
        let entries = read_log(&path).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// On a full disk every flush fails. The sink keeps the first error,
    /// goes on taking rows, and returns that error once the run is over.
    #[test]
    fn sink_returns_its_first_error_at_the_end() {
        // Built by hand: `open` would already fail on the header.
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let mut sink = LogSink {
            writer: Some(JobLogWriter {
                file: std::io::BufWriter::new(full),
                host: "h".into(),
            }),
            unflushed: 0,
            error: None,
        };
        sink.record(&result(1, JobStatus::Success));
        assert!(sink.error.is_none(), "a row waits in the buffer");
        sink.flush();
        assert!(
            matches!(&sink.error, Some(Error::JobLog(e)) if e.kind() == io::ErrorKind::StorageFull),
            "{:?}",
            sink.error
        );
        assert_eq!(sink.unflushed(), 0);
        sink.record(&result(2, JobStatus::Failed(1)));
        sink.record_entry(&logged(&result(3, JobStatus::Success), "agent-1"));
        assert_eq!(sink.unflushed(), 2);
        match sink.finish() {
            Err(Error::JobLog(e)) => assert_eq!(e.kind(), io::ErrorKind::StorageFull),
            other => panic!("expected the full-disk error, got {other:?}"),
        }
        // A sink with no joblog logs nothing and never fails.
        let mut none = LogSink::open(None).unwrap();
        none.record(&result(1, JobStatus::Success));
        assert!(!none.is_open());
        assert_eq!(none.unflushed(), 0);
        assert!(none.finish().is_ok());
    }

    #[test]
    fn malformed_line_errors_with_position() {
        let err = LogEntry::parse("not a joblog line", 5).unwrap_err();
        match err {
            Error::JobLogParse { line, .. } => assert_eq!(line, 5),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn resume_sets() {
        let entries = vec![
            logged(&result(1, JobStatus::Success), "h"),
            logged(&result(2, JobStatus::Failed(1)), "h"),
            logged(&result(2, JobStatus::Success), "h"), // retry succeeded
            logged(&result(3, JobStatus::Signaled(9)), "h"),
        ];
        let completed = completed_seqs(&entries);
        assert_eq!(completed, [1, 2, 3].into_iter().collect());
        let ok = successful_seqs(&entries);
        assert_eq!(ok, [1, 2].into_iter().collect());
    }

    #[test]
    fn signaled_jobs_are_not_successes() {
        let entry = logged(&result(1, JobStatus::Signaled(9)), "h");
        assert!(!entry.succeeded());
        assert_eq!(entry.exitval, -1);
        assert_eq!(entry.signal, 9);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn entry_roundtrips_through_tsv(
                seq in 0u64..1_000_000_000u64,
                host in "[a-z0-9-]{1,12}",
                start_ms in 0u64..10_000_000_000u64,
                runtime_ms in 0u64..100_000_000u64,
                send in 0u64..1_000_000u64,
                receive in 0u64..1_000_000u64,
                exitval in -1i32..256i32,
                signal in 0i32..64i32,
                command in "[ -~]{0,24}",
                spice in 0u8..4u8,
            ) {
                // Sprinkle the characters the TSV escaping must defend
                // against into some commands.
                let command = match spice {
                    1 => format!("{command}\tnext-col"),
                    2 => format!("first-line\n{command}"),
                    3 => format!("{command}\\trailing"),
                    _ => command,
                };
                // Times are whole milliseconds so the {:.3} formatting in
                // to_line is lossless.
                let entry = LogEntry {
                    seq,
                    host,
                    start: start_ms as f64 / 1000.0,
                    runtime: runtime_ms as f64 / 1000.0,
                    send,
                    receive,
                    exitval,
                    signal,
                    command,
                };
                let line = entry.to_line();
                prop_assert!(!line.contains('\n'), "log stays line-oriented");
                let parsed = LogEntry::parse(&line, 1).unwrap();
                prop_assert_eq!(parsed, entry);
            }

            /// The integer encoder writes the bytes the formatter did
            /// for every column: agent microsecond times, arbitrary bit
            /// patterns, exact decimal ties (odd sixteenths round half
            /// to even), the doubles either side of them, and the
            /// nearest doubles to ties that are not exact.
            #[test]
            fn rows_match_the_formatter_byte_for_byte(
                seq in any::<u64>(),
                micros in any::<u64>(),
                bits in any::<u64>(),
                tie in 0u64..1 << 40,
                send in any::<u64>(),
                exitval in any::<i32>(),
                signal in any::<i32>(),
                command in "[ -~]{0,12}",
            ) {
                let exact_tie = (2 * tie + 1) as f64 / 16.0;
                let times = [
                    micros as f64 / 1e6,
                    (micros % 100_000_000_000_000) as f64 / 1e6,
                    f64::from_bits(bits),
                    exact_tie,
                    f64::from_bits(exact_tie.to_bits() + 1),
                    f64::from_bits(exact_tie.to_bits() - 1),
                    (2 * tie + 1) as f64 / 2000.0,
                    -exact_tie,
                ];
                for &start in &times {
                    for &runtime in &times {
                        let row = Row {
                            seq,
                            host: "agent-1",
                            start,
                            runtime,
                            send,
                            receive: micros,
                            exitval,
                            signal,
                            command: &command,
                        };
                        let mut got = Vec::new();
                        row.encode(&mut got).unwrap();
                        let want = format!(
                            "{}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}",
                            row.seq,
                            row.host,
                            row.start,
                            row.runtime,
                            row.send,
                            row.receive,
                            row.exitval,
                            row.signal,
                            escape(row.command)
                        );
                        prop_assert_eq!(String::from_utf8(got).unwrap(), want);
                    }
                }
            }

            #[test]
            fn success_predicate_matches_fields(exitval in -1i32..256i32, signal in 0i32..64i32) {
                let entry = LogEntry {
                    seq: 1,
                    host: "h".to_string(),
                    start: 0.0,
                    runtime: 0.0,
                    send: 0,
                    receive: 0,
                    exitval,
                    signal,
                    command: "c".to_string(),
                };
                prop_assert_eq!(entry.succeeded(), exitval == 0 && signal == 0);
            }
        }
    }
}
