//! End-to-end tests of `htpar serve` as real processes.
//!
//! The chaos test runs a real pilot with a real `--local-cluster`
//! fleet, three concurrent tenant sessions, one agent SIGKILLed mid-run
//! and one client disconnecting mid-session. The surviving sessions
//! must complete exactly-once (client-side counts and per-tenant
//! joblogs), the dead session's work must be released rather than leak
//! slots (final occupancy telemetry reads zero busy), and the pilot
//! must exit cleanly. The other tests hold a long-lived agent's memory
//! flat across sessions, check `htpar submit`'s exit status, and check
//! that `submit` expands its `:::` sources as `htpar` does.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use htpar_core::joblog;
use htpar_net::agent::ANNOUNCE_PREFIX as AGENT_ANNOUNCE_PREFIX;
use htpar_net::client::{ClientEvent, SessionClient, SessionConfig};
use htpar_net::driver::verify_exactly_once;
use htpar_net::frame::Payload;
use htpar_net::serve::SERVE_ANNOUNCE_PREFIX;

/// How long any one step of these tests may take.
const STEP_DEADLINE: Duration = Duration::from_secs(120);

const SURVIVOR_TASKS: u64 = 2_000;
const ABORTER_TASKS: u64 = 1_000;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("htpar-serve-e2e-{tag}-{}", std::process::id()))
}

/// Drive a full session: submit `total` tasks in batches, finish, and
/// assert client-side exactly-once (every seq seen exactly once).
fn run_survivor(spec: String, tenant: &str, weight: u32, total: u64) -> u64 {
    let mut config = SessionConfig::new(spec, tenant);
    config.payload = Payload::Noop;
    config.weight = weight;
    let mut client = SessionClient::connect(config).expect("session connects");
    let inputs: Vec<Vec<String>> = (1..=total).map(|i| vec![i.to_string()]).collect();
    for batch in inputs.chunks(500) {
        let verdict = client.submit(batch).expect("submit");
        assert!(verdict.accepted, "admission refused: {}", verdict.reason);
    }
    // Collect every completion seq; duplicates or gaps here mean the
    // pilot broke exactly-once across the chaos.
    let mut seen = vec![false; total as usize + 1];
    while client.completed() < total {
        match client.recv().expect("recv") {
            ClientEvent::Done(recs) => {
                for rec in recs {
                    let seq = rec.seq as usize;
                    assert!(seq >= 1 && seq <= total as usize, "seq {seq} out of range");
                    assert!(!seen[seq], "seq {seq} delivered twice to {tenant}");
                    seen[seq] = true;
                }
            }
            other => panic!("{tenant}: unexpected event {other:?}"),
        }
    }
    assert!(
        seen[1..].iter().all(|&s| s),
        "{tenant}: not every seq delivered"
    );
    let completed = client.finish().expect("finish");
    assert_eq!(completed, total, "{tenant}: completion total");
    total
}

/// Submit a batch, take one completion event, then vanish.
fn run_aborter(spec: String, tenant: &str) {
    let mut config = SessionConfig::new(spec, tenant);
    config.payload = Payload::SleepUs(2_000);
    let mut client = SessionClient::connect(config).expect("aborter connects");
    let inputs: Vec<Vec<String>> = (1..=ABORTER_TASKS).map(|i| vec![i.to_string()]).collect();
    let verdict = client.submit(&inputs).expect("aborter submit");
    assert!(verdict.accepted, "aborter refused: {}", verdict.reason);
    match client.recv().expect("aborter recv") {
        ClientEvent::Done(_) => {}
        other => panic!("aborter expected completions, got {other:?}"),
    }
    client.abort();
}

#[test]
fn chaos_survivors_complete_exactly_once_and_slots_drain() {
    let joblog_dir = temp_path("logs");
    let telemetry = temp_path("events.jsonl");
    let _ = std::fs::remove_dir_all(&joblog_dir);
    let _ = std::fs::remove_file(&telemetry);

    let mut serve = Command::new(env!("CARGO_BIN_EXE_htpar"))
        .args([
            "serve",
            "--local-cluster",
            "4",
            "-j",
            "2",
            "--max-sessions",
            "3",
            "--scheduler",
            "fair",
            "--chaos-kill-agent",
            "1@300",
            "--joblog-dir",
        ])
        .arg(&joblog_dir)
        .env("HTPAR_TELEMETRY_JSONL", &telemetry)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn htpar serve");

    // The pilot announces its bound address on stdout once ready.
    let stdout = serve.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let spec = loop {
        let line = lines
            .next()
            .expect("serve announced before exiting")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix(SERVE_ANNOUNCE_PREFIX) {
            break rest.trim().to_string();
        }
    };

    let survivors: Vec<_> = [("tenant-a", 1u32), ("tenant-b", 2u32)]
        .into_iter()
        .map(|(tenant, weight)| {
            let spec = spec.clone();
            std::thread::spawn(move || run_survivor(spec, tenant, weight, SURVIVOR_TASKS))
        })
        .collect();
    let aborter = {
        let spec = spec.clone();
        std::thread::spawn(move || run_aborter(spec, "tenant-c"))
    };

    for handle in survivors {
        assert_eq!(handle.join().expect("survivor thread"), SURVIVOR_TASKS);
    }
    aborter.join().expect("aborter thread");

    // All three sessions closed → the pilot drains its fleet and exits.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = serve.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "serve did not exit");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "serve exits cleanly");

    // Per-tenant joblogs: survivors exactly-once on disk too.
    for tenant in ["tenant-a", "tenant-b"] {
        let entries =
            joblog::read_log(joblog_dir.join(format!("{tenant}.joblog"))).expect("tenant joblog");
        verify_exactly_once(&entries, SURVIVOR_TASKS)
            .unwrap_or_else(|e| panic!("{tenant} joblog not exactly-once: {e}"));
    }

    // Telemetry: the SIGKILLed agent was detected, the aborter's close
    // is attributed as a disconnect, and the final occupancy sample
    // shows every slot released (no leak from the dead session).
    let events = std::fs::read_to_string(&telemetry).expect("telemetry jsonl");
    assert!(
        events
            .lines()
            .any(|l| l.contains("\"type\":\"agent_lost\"")),
        "agent_lost event recorded"
    );
    assert!(
        events
            .lines()
            .any(|l| l.contains("\"type\":\"session_closed\"")
                && l.contains("tenant-c")
                && l.contains("disconnect")),
        "aborted session closed as disconnect"
    );
    let last_occupancy = events
        .lines()
        .rfind(|l| l.contains("\"type\":\"slot_occupancy\""))
        .expect("occupancy samples present");
    assert!(
        last_occupancy.contains("\"busy\":0"),
        "slots fully released at shutdown: {last_occupancy}"
    );
}

/// A child process that is killed and reaped when dropped, so a failed
/// assertion leaves no agent or pilot behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `htpar ARGS` and return it with the address from the first
/// stdout line starting with `prefix`. A reader thread keeps draining
/// stdout afterwards, so the child never blocks on a full pipe.
fn spawn_announced(args: &[&str], prefix: &'static str) -> (Reaped, String) {
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_htpar"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn htpar"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if let Some(rest) = line.strip_prefix(prefix) {
                let _ = tx.send(rest.trim().to_string());
            }
        }
    });
    let addr = rx
        .recv_timeout(STEP_DEADLINE)
        .unwrap_or_else(|e| panic!("htpar {} never announced: {e}", args[0]));
    (child, addr)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in KiB.
fn vm_hwm_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("process alive");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// One closed session of `tasks` no-op tasks.
fn noop_session(spec: &str, tasks: u64) {
    let mut config = SessionConfig::new(spec, "mem");
    config.payload = Payload::Noop;
    let mut client = SessionClient::connect(config).expect("session connects");
    let inputs: Vec<Vec<String>> = (1..=tasks).map(|i| vec![i.to_string()]).collect();
    for batch in inputs.chunks(1000) {
        let verdict = client.submit(batch).expect("submit");
        assert!(verdict.accepted, "admission refused: {}", verdict.reason);
    }
    assert_eq!(client.finish().expect("finish"), tasks);
}

/// An agent under a pilot runs one engine for its whole connection. The
/// engine must keep nothing per finished task, so ten sessions cost the
/// agent no more peak memory than one.
#[test]
fn agent_memory_stays_flat_across_sessions() {
    const SESSIONS: usize = 10;
    const TASKS: u64 = 10_000;
    const SLACK_KIB: u64 = 8 * 1024;
    let (agent, agent_addr) =
        spawn_announced(&["agent", "--listen", "127.0.0.1:0"], AGENT_ANNOUNCE_PREFIX);
    let (_serve, spec) = spawn_announced(
        &["serve", "--agents", &agent_addr, "-j", "2"],
        SERVE_ANNOUNCE_PREFIX,
    );
    let agent_pid = agent.0.id();
    let (tx, rx) = mpsc::channel();
    let sessions = std::thread::spawn(move || {
        for _ in 0..SESSIONS {
            noop_session(&spec, TASKS);
            if tx.send(vm_hwm_kib(agent_pid)).is_err() {
                return;
            }
        }
    });
    let readings: Vec<u64> = (1..=SESSIONS)
        .map(|session| {
            rx.recv_timeout(STEP_DEADLINE)
                .unwrap_or_else(|e| panic!("session {session} did not finish: {e}"))
        })
        .collect();
    sessions.join().expect("session thread");
    let growth = readings[SESSIONS - 1].saturating_sub(readings[0]);
    assert!(
        growth < SLACK_KIB,
        "agent VmHWM grew {growth} KiB from session 1 to {SESSIONS} (KiB per session: {readings:?})"
    );
}

/// Run `htpar submit ARGS` to completion and return its exit code.
fn submit(args: &[&str]) -> i32 {
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_htpar"))
            .arg("submit")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn htpar submit"),
    );
    let deadline = Instant::now() + STEP_DEADLINE;
    loop {
        if let Some(status) = child.0.try_wait().expect("try_wait") {
            return status.code().expect("submit exited, not signaled");
        }
        assert!(Instant::now() < deadline, "htpar submit {args:?} hung");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `htpar submit` exits 1 when any task failed, like `submit --dag`,
/// both for a collected session and for a reattached one.
#[test]
fn submit_exit_status_reports_failed_tasks() {
    let joblog_dir = temp_path("exit-logs");
    let _ = std::fs::remove_dir_all(&joblog_dir);
    let dir = joblog_dir.to_str().expect("utf-8 temp path");
    let (_serve, spec) = spawn_announced(
        &[
            "serve",
            "--local-cluster",
            "1",
            "-j",
            "2",
            "--joblog-dir",
            dir,
        ],
        SERVE_ANNOUNCE_PREFIX,
    );
    let connect = ["--connect", spec.as_str()];
    let run = |rest: &[&str]| submit(&[&connect[..], rest].concat());
    assert_eq!(run(&["true", "{}", ":::", "1", "2", "3"]), 0);
    assert_eq!(run(&["false", "{}", ":::", "1", "2", "3"]), 1);
    assert_eq!(
        run(&["--tenant", "t", "--detach", "7", "false", "{}", ":::", "1", "2"]),
        0
    );
    assert_eq!(run(&["--tenant", "t", "--reattach", "7"]), 1);
    let _ = std::fs::remove_dir_all(&joblog_dir);
}

/// The commands `htpar --dry-run -k` prints for `line`, in input order.
fn dry_run(line: &[String]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_htpar"))
        .args(["--dry-run", "-k"])
        .args(line)
        .stdin(Stdio::null())
        .output()
        .expect("run htpar --dry-run");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 commands");
    stdout.lines().map(str::to_string).collect()
}

fn words(line: &[&str]) -> Vec<String> {
    line.iter().map(|w| w.to_string()).collect()
}

/// `submit` reads the classic tail: the paper's §IV-B Darshan line,
/// `::: {1..12} ::: {0..2}`, is the 36 commands `htpar --dry-run`
/// prints, and `:::+` links its values to the source before it.
#[test]
fn submit_expands_sources_like_htpar() {
    let joblog_dir = temp_path("tail-logs");
    let _ = std::fs::remove_dir_all(&joblog_dir);
    let dir = joblog_dir.to_str().expect("utf-8 temp path");
    let (mut serve, spec) = spawn_announced(
        &[
            "serve",
            "--local-cluster",
            "1",
            "-j",
            "2",
            "--max-sessions",
            "2",
            "--joblog-dir",
            dir,
        ],
        SERVE_ANNOUNCE_PREFIX,
    );
    let mut darshan = words(&["python3 ./darshan_arch.py {1} {2}", ":::"]);
    darshan.extend((1..=12).map(|month| month.to_string()));
    darshan.extend(words(&[":::", "0", "1", "2"]));
    let linked = words(&["echo {1} {2}", ":::", "a", "b", ":::+", "1", "2"]);
    let cases = [("darshan", darshan, 36), ("linked", linked, 2)];
    for (tenant, line, _) in &cases {
        let mut args = vec!["--connect", &spec, "--tenant", tenant, "--payload", "noop"];
        args.extend(line.iter().map(String::as_str));
        assert_eq!(submit(&args), 0, "{tenant}");
    }
    // Both sessions are closed, so the pilot flushes its joblogs and exits.
    let deadline = Instant::now() + STEP_DEADLINE;
    while serve.0.try_wait().expect("try_wait").is_none() {
        assert!(Instant::now() < deadline, "serve did not exit");
        std::thread::sleep(Duration::from_millis(20));
    }
    for (tenant, line, tasks) in &cases {
        let mut entries =
            joblog::read_log(joblog_dir.join(format!("{tenant}.joblog"))).expect("tenant joblog");
        entries.sort_by_key(|e| e.seq);
        let logged: Vec<String> = entries.into_iter().map(|e| e.command).collect();
        let expected = dry_run(line);
        assert_eq!(expected.len(), *tasks, "{expected:?}");
        assert_eq!(logged, expected, "{tenant}");
    }
    let _ = std::fs::remove_dir_all(&joblog_dir);
}
