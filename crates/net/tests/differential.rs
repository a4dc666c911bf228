//! Differential harness: the in-process engine is the oracle for the
//! net path. The same seeded workload runs once as a drive (real agent
//! sessions, real sockets, an aggregated joblog) and once as an
//! in-process `Parallel` run of the same template; after pinning the
//! host and the two volatile timing columns, the sorted joblogs must
//! match byte for byte.
//!
//! Placement is deterministic (NR-modulo over the agent list), so the
//! drive's host column is a pure function of the seq and is checked on
//! its own: seq `n` runs on agent `a{n % AGENTS}`. Every other column
//! (seq, send/receive byte counts, exitval, signal, and the rendered
//! command) must agree with the engine's.

use std::path::{Path, PathBuf};
use std::time::Duration;

use htpar_core::executor::FnExecutor;
use htpar_core::joblog::{self, LogEntry};
use htpar_core::parallel::Parallel;
use htpar_net::agent::{self, AgentConfig};
use htpar_net::driver::{run_driver, verify_exactly_once, DriverConfig};
use htpar_net::frame::Payload;

const TASKS: u64 = 10_000;
const AGENTS: usize = 4;
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64: tiny, deterministic, and good enough to vary argument
/// content and length across the workload without a rand dependency.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded workload: arguments of varying length and content.
fn seeded_inputs() -> Vec<Vec<String>> {
    let mut state = SEED;
    (0..TASKS)
        .map(|_| {
            splitmix64(&mut state);
            let x = mix(state);
            let reps = (x % 3) as usize + 1;
            vec![format!("{:016x}", x).repeat(reps)]
        })
        .collect()
}

fn sock_spec(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("htpar-diff-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    format!("unix:{}", path.display())
}

fn wait_bound(spec: &str) {
    let path = PathBuf::from(spec.strip_prefix("unix:").expect("unix spec"));
    for _ in 0..400 {
        if path.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("agent never bound {spec}");
}

fn temp_joblog(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("htpar-diff-{tag}-{}.joblog", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// One canonical joblog row with the host and the volatile wall-clock
/// columns (`start`, `runtime`) pinned. Everything else must be
/// identical between the drive and the in-process run.
fn normalize(entry: &LogEntry) -> String {
    format!(
        "{}\thost\t0\t0\t{}\t{}\t{}\t{}\t{}",
        entry.seq, entry.send, entry.receive, entry.exitval, entry.signal, entry.command
    )
}

/// Joblog rows checked exactly-once, then normalized and sorted.
fn normalized_rows(entries: &[LogEntry]) -> Vec<String> {
    verify_exactly_once(entries, TASKS).expect("one row per seq");
    let mut rows: Vec<String> = entries.iter().map(normalize).collect();
    rows.sort_unstable();
    rows
}

/// Drive the seeded workload over `AGENTS` in-process agent sessions
/// and return the aggregated joblog.
fn run_drive(tag: &str) -> Vec<LogEntry> {
    let specs: Vec<String> = (0..AGENTS)
        .map(|i| sock_spec(&format!("{tag}{i}")))
        .collect();
    let handles: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let config = AgentConfig {
                listen: spec.clone(),
                name: format!("a{i}"),
                announce: false,
            };
            let handle = std::thread::spawn(move || agent::serve(&config));
            wait_bound(spec);
            handle
        })
        .collect();

    let log_path = temp_joblog(tag);
    let mut config = DriverConfig::new(specs, "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.joblog = Some(log_path.clone());

    let outcome = run_driver(&config, &seeded_inputs(), None).expect("drive succeeds");
    assert_eq!(outcome.completed, TASKS);
    assert_eq!(outcome.duplicates, 0);
    for handle in handles {
        handle
            .join()
            .expect("agent thread")
            .expect("clean agent exit");
    }
    read_log(&log_path)
}

/// Run the same template over the same inputs in-process, with the
/// agents' no-op payload, and return its joblog.
fn run_in_process(tag: &str) -> Vec<LogEntry> {
    let log_path = temp_joblog(tag);
    let report = Parallel::new("task {}")
        .jobs(4)
        .executor(FnExecutor::noop())
        .joblog(&log_path)
        .args(seeded_inputs().into_iter().flatten())
        .run()
        .expect("in-process run succeeds");
    assert_eq!(report.succeeded, TASKS);
    read_log(&log_path)
}

fn read_log(path: &Path) -> Vec<LogEntry> {
    let entries = joblog::read_log(path).expect("readable joblog");
    let _ = std::fs::remove_file(path);
    entries
}

/// Kept under its original name: the in-process engine has replaced the
/// retired threaded net core as the oracle.
#[test]
fn reactor_and_threaded_cores_produce_identical_joblogs() {
    let drive = run_drive("drv");
    for entry in &drive {
        let want = format!("a{}", entry.seq % AGENTS as u64);
        assert_eq!(
            entry.host, want,
            "seq {} ran off its NR-modulo agent",
            entry.seq
        );
    }
    let drive = normalized_rows(&drive);
    let engine = normalized_rows(&run_in_process("eng"));

    // Byte-identical after sorting: compare as one blob so a mismatch
    // reports the first differing row, not ten thousand lines.
    let drive_blob = drive.join("\n");
    let engine_blob = engine.join("\n");
    if drive_blob != engine_blob {
        for (d, e) in drive.iter().zip(engine.iter()) {
            assert_eq!(d, e, "first divergent joblog row");
        }
    }
    assert_eq!(drive_blob.into_bytes(), engine_blob.into_bytes());
}
