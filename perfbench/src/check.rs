//! Output checks. Each returns the number of operations it could not
//! verify (0 when the output is right) and a reason when it is not.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use htpar_core::joblog::{self, LogEntry};
use htpar_net::driver::verify_exactly_once;

/// Operations (of `total`) that a set of rows does not show as run
/// exactly once with exit 0.
pub fn unverified(rows: &[LogEntry], total: u64) -> u64 {
    let mut seen: HashMap<u64, u32> = HashMap::with_capacity(rows.len());
    for r in rows {
        *seen.entry(r.seq).or_default() += if r.succeeded() { 1 } else { 2 };
    }
    let good = (1..=total).filter(|s| seen.get(s) == Some(&1)).count() as u64;
    total - good
}

/// A joblog holds exactly one row per seq `1..=total`, each exit 0.
pub fn exactly_once(rows: &[LogEntry], total: u64) -> Result<(), (u64, String)> {
    let bad = unverified(rows, total);
    if let Err(why) = verify_exactly_once(rows, total) {
        return Err((bad.max(1), why));
    }
    if bad > 0 {
        return Err((bad, format!("{bad} of {total} rows did not exit 0")));
    }
    Ok(())
}

/// Read a joblog and check it is exactly-once with every row exit 0.
pub fn joblog_exactly_once(path: &Path, total: u64) -> Result<Vec<LogEntry>, (u64, String)> {
    let rows = joblog::read_log(path).map_err(|e| (total, format!("reading joblog: {e}")))?;
    exactly_once(&rows, total)?;
    Ok(rows)
}

/// Every task's row comes after the rows of all its dependencies
/// (`deps[i]` lists the 0-based indices task `i` waits on; task `i`
/// has seq `i + 1`).
pub fn deps_before(rows: &[LogEntry], deps: &[Vec<usize>]) -> Result<(), (u64, String)> {
    let pos: HashMap<u64, usize> = rows.iter().enumerate().map(|(i, r)| (r.seq, i)).collect();
    let late: Vec<usize> = (0..deps.len())
        .filter(|&i| {
            let Some(&at) = pos.get(&(i as u64 + 1)) else {
                return true;
            };
            deps[i]
                .iter()
                .any(|&d| pos.get(&(d as u64 + 1)).is_none_or(|&dp| dp > at))
        })
        .collect();
    match late.first() {
        None => Ok(()),
        Some(&i) => Err((
            late.len() as u64,
            format!(
                "{} tasks logged before a dependency (first: seq {})",
                late.len(),
                i + 1
            ),
        )),
    }
}

/// A tenant joblog written by back-to-back sessions of the given sizes
/// splits into one contiguous exactly-once segment per session.
/// Returns the number of sessions that fail the check.
pub fn tenant_segments(rows: &[LogEntry], sizes: &[u64]) -> Result<(), (u64, String)> {
    let expected: u64 = sizes.iter().sum();
    if rows.len() as u64 != expected {
        return Err((
            sizes.len() as u64,
            format!("tenant joblog has {} rows for {expected} tasks", rows.len()),
        ));
    }
    let mut at = 0usize;
    let mut bad = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let seg = &rows[at..at + n as usize];
        at += n as usize;
        let seqs: HashSet<u64> = seg.iter().map(|r| r.seq).collect();
        if exactly_once(seg, n).is_err() || seqs.len() as u64 != n {
            bad.push(i);
        }
    }
    match bad.first() {
        None => Ok(()),
        Some(i) => Err((
            bad.len() as u64,
            format!(
                "{} sessions not exactly-once in the tenant joblog (first: #{i})",
                bad.len()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seq: u64, exitval: i32) -> LogEntry {
        LogEntry {
            seq,
            host: "h".into(),
            start: 0.0,
            runtime: 0.0,
            send: 0,
            receive: 0,
            exitval,
            signal: 0,
            command: "c".into(),
        }
    }

    #[test]
    fn exactly_once_counts_missing_duplicate_and_failed_rows() {
        let good: Vec<_> = (1..=4).map(|s| row(s, 0)).collect();
        assert!(exactly_once(&good, 4).is_ok());
        let missing = vec![row(1, 0), row(2, 0), row(4, 0)];
        assert_eq!(exactly_once(&missing, 4).unwrap_err().0, 1);
        let dup = vec![row(1, 0), row(2, 0), row(2, 0), row(3, 0), row(4, 0)];
        assert_eq!(exactly_once(&dup, 4).unwrap_err().0, 1);
        let failed = vec![row(1, 0), row(2, 1), row(3, 0), row(4, 0)];
        assert_eq!(exactly_once(&failed, 4).unwrap_err().0, 1);
    }

    #[test]
    fn deps_must_be_logged_first() {
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let ok: Vec<_> = [1, 3, 2, 4].iter().map(|&s| row(s, 0)).collect();
        assert!(deps_before(&ok, &deps).is_ok());
        let bad: Vec<_> = [1, 2, 4, 3].iter().map(|&s| row(s, 0)).collect();
        assert_eq!(deps_before(&bad, &deps).unwrap_err().0, 1);
    }

    #[test]
    fn tenant_log_splits_into_sessions() {
        let rows: Vec<_> = [1, 2, 3, 2, 1].iter().map(|&s| row(s, 0)).collect();
        assert!(tenant_segments(&rows, &[3, 2]).is_ok());
        let swapped: Vec<_> = [1, 2, 1, 3, 2].iter().map(|&s| row(s, 0)).collect();
        assert_eq!(tenant_segments(&swapped, &[3, 2]).unwrap_err().0, 2);
        assert!(tenant_segments(&rows, &[3, 3]).is_err());
    }
}
