//! End-to-end tests of `htpar drive --local-cluster`: real OS processes
//! (the driver spawns agent subprocesses by re-exec'ing the `htpar`
//! binary), real sockets, real SIGKILL. This is the acceptance surface
//! for the network subsystem: completion must be exactly-once in the
//! aggregated joblog even when an agent is killed mid-run, and
//! `--resume` after the *driver* is killed must run exactly the
//! unlogged seqs.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use htpar_core::joblog;
use htpar_net::driver::verify_exactly_once;

fn htpar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_htpar"))
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("htpar-net-e2e-{tag}-{}", std::process::id()))
}

fn seq_stdin(n: u64) -> String {
    let mut s = String::new();
    for i in 1..=n {
        s.push_str(&i.to_string());
        s.push('\n');
    }
    s
}

/// Run `htpar drive` with the given args and stdin, capturing stderr.
fn drive(args: &[&str], stdin: &str) -> (String, i32) {
    let mut child = htpar()
        .arg("drive")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn htpar drive");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Pull `(completed, total, skipped)` out of the drive summary line.
fn summary(stderr: &str) -> (u64, u64, u64) {
    for line in stderr.lines() {
        if let Some(rest) = line.strip_prefix("htpar drive: ") {
            if rest.contains("task(s) in") {
                let tokens: Vec<&str> = rest.split_whitespace().collect();
                let (completed, total) = tokens[0].split_once('/').expect("completed/total");
                let skipped_at = tokens
                    .iter()
                    .position(|t| *t == "skipped,")
                    .expect("skipped field");
                return (
                    completed.parse().unwrap(),
                    total.parse().unwrap(),
                    tokens[skipped_at - 1].parse().unwrap(),
                );
            }
        }
    }
    panic!("no drive summary in stderr:\n{stderr}");
}

fn assert_exactly_once(log: &Path, total: u64) {
    let entries = joblog::read_log(log).expect("readable joblog");
    verify_exactly_once(&entries, total).unwrap_or_else(|e| panic!("joblog not exactly-once: {e}"));
}

/// A 10k-task mini-cluster run with one agent SIGKILLed mid-flight:
/// the run completes, and the merged joblog holds exactly one row per
/// seq — the killed agent's unfinished work re-ran on survivors, its
/// finished work did not.
#[test]
fn chaos_sigkill_agent_mid_run_completes_exactly_once() {
    let log = temp_path("chaos.joblog");
    let _ = std::fs::remove_file(&log);
    let total = 10_000u64;
    let (stderr, code) = drive(
        &[
            "--local-cluster",
            "4",
            "-j",
            "4",
            "--payload",
            "sleep:200",
            "--chaos-kill-agent",
            "2@1000",
            "--joblog",
            log.to_str().unwrap(),
            "task",
            "{}",
        ],
        &seq_stdin(total),
    );
    assert_eq!(code, 0, "drive failed:\n{stderr}");
    assert!(
        stderr.contains("chaos: killing agent 2"),
        "chaos hook never fired:\n{stderr}"
    );
    assert!(
        stderr.contains("[lost]"),
        "agent 2 not reported lost:\n{stderr}"
    );
    let (completed, reported_total, skipped) = summary(&stderr);
    assert_eq!((completed, reported_total, skipped), (total, total, 0));
    assert_exactly_once(&log, total);
    let _ = std::fs::remove_file(&log);
}

/// Kill the *driver* mid-run, then `--resume`: the second run skips
/// every seq the first run logged and runs exactly the rest.
#[test]
fn driver_kill_then_resume_runs_exactly_the_unlogged_seqs() {
    let log = temp_path("resume.joblog");
    let _ = std::fs::remove_file(&log);
    let total = 400u64;

    let mut child = htpar()
        .args([
            "drive",
            "--local-cluster",
            "2",
            "-j",
            "2",
            "--payload",
            "sleep:20000",
            "--joblog",
            log.to_str().unwrap(),
            "task",
            "{}",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn htpar drive");
    {
        // Write and close stdin: the driver reads the whole task list
        // (to EOF) before dialing agents.
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(seq_stdin(total).as_bytes()).unwrap();
    }

    // Per-row flushing means complete joblog lines appear while the run
    // is live; kill the driver once a real prefix is on disk.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let rows = std::fs::read_to_string(&log)
            .map(|s| s.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if rows >= 50 {
            break;
        }
        assert!(Instant::now() < deadline, "first run never logged 50 rows");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let first_run = joblog::completed_seqs(&joblog::read_log(&log).expect("readable joblog"));
    assert!(!first_run.is_empty() && (first_run.len() as u64) < total);

    let (stderr, code) = drive(
        &[
            "--local-cluster",
            "2",
            "-j",
            "2",
            "--payload",
            "sleep:1000",
            "--resume",
            "--joblog",
            log.to_str().unwrap(),
            "task",
            "{}",
        ],
        &seq_stdin(total),
    );
    assert_eq!(code, 0, "resume drive failed:\n{stderr}");
    let (completed, reported_total, skipped) = summary(&stderr);
    assert_eq!(reported_total, total);
    assert_eq!(
        skipped,
        first_run.len() as u64,
        "resume must skip exactly the logged seqs"
    );
    assert_eq!(
        completed,
        total - first_run.len() as u64,
        "resume must run exactly the unlogged seqs"
    );
    assert_exactly_once(&log, total);
    let _ = std::fs::remove_file(&log);
}

/// Shell payload over a mini-cluster: real `sh -c` on the agent side,
/// output bytes accounted in the joblog `Receive` column.
#[test]
fn shell_payload_runs_real_commands_on_agents() {
    let log = temp_path("shell.joblog");
    let _ = std::fs::remove_file(&log);
    let (stderr, code) = drive(
        &[
            "--local-cluster",
            "2",
            "--joblog",
            log.to_str().unwrap(),
            "echo",
            "out-{}",
            ":::",
            "a",
            "bb",
            "ccc",
            "dddd",
        ],
        "",
    );
    assert_eq!(code, 0, "drive failed:\n{stderr}");
    let entries = joblog::read_log(&log).expect("readable joblog");
    verify_exactly_once(&entries, 4).unwrap();
    for entry in &entries {
        assert_eq!(entry.exitval, 0);
        // "out-a\n" = 6 bytes, etc.
        let arg_len = entry.command.len() - "echo out-".len();
        assert_eq!(entry.receive as usize, "out-\n".len() + arg_len);
    }
    let _ = std::fs::remove_file(&log);
}
