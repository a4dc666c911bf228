//! End-to-end durability test of `htpar serve --state-dir`: a real
//! pilot process is SIGKILLed mid-campaign with one attached session
//! and one detached session in flight, then restarted against the same
//! journal, listen path, and joblog directory. The restarted pilot
//! must recover both sessions from the write-ahead journal, re-run
//! exactly the unfinished seqs (per-tenant joblogs end up exactly-once
//! at the full campaign size), serve a `--reattach` client the complete
//! result set (replayed history plus live completions, no duplicates),
//! and release the orphaned attached session via `--detach-ttl`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use htpar_core::joblog;
use htpar_net::client::{ClientEvent, SessionClient, SessionConfig};
use htpar_net::driver::verify_exactly_once;
use htpar_net::frame::Payload;
use htpar_net::serve::SERVE_ANNOUNCE_PREFIX;

const TASKS: u64 = 300;
const DETACH_KEY: u64 = 42;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("htpar-restart-e2e-{tag}-{}", std::process::id()))
}

fn spawn_pilot(listen: &str, state: &PathBuf, logs: &PathBuf, ttl: &str, tel: &PathBuf) -> Child {
    spawn_pilot_sessions(listen, state, logs, ttl, tel, "2")
}

fn spawn_pilot_sessions(
    listen: &str,
    state: &PathBuf,
    logs: &PathBuf,
    ttl: &str,
    tel: &PathBuf,
    max_sessions: &str,
) -> Child {
    Command::new(env!("CARGO_BIN_EXE_htpar"))
        .args([
            "serve",
            "--local-cluster",
            "2",
            "-j",
            "2",
            "--max-sessions",
            max_sessions,
            "--listen",
            listen,
            "--detach-ttl",
            ttl,
            "--state-dir",
        ])
        .arg(state)
        .arg("--joblog-dir")
        .arg(logs)
        .env("HTPAR_TELEMETRY_JSONL", tel)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn htpar serve")
}

/// Read the pilot's stdout until its announce line.
fn await_announce(pilot: &mut Child) -> String {
    let stdout = pilot.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    loop {
        let line = lines
            .next()
            .expect("serve announced before exiting")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix(SERVE_ANNOUNCE_PREFIX) {
            return rest.trim().to_string();
        }
    }
}

/// Submit the full campaign for one tenant in several batches. The
/// journal is fsynced before each `SessionAck`, so once this returns
/// the pilot may be SIGKILLed without losing any accepted task.
fn submit_all(client: &mut SessionClient) {
    let inputs: Vec<Vec<String>> = (1..=TASKS).map(|i| vec![i.to_string()]).collect();
    for batch in inputs.chunks(100) {
        let verdict = client.submit(batch).expect("submit");
        assert!(verdict.accepted, "admission refused: {}", verdict.reason);
    }
}

fn joblog_rows(path: &PathBuf) -> usize {
    joblog::read_log(path).map_or(0, |e| e.len())
}

/// Regression: completions replayed from a *previous pilot life* must
/// carry the tasks' real stdout, not zeros. Every task finishes and is
/// recorded before the SIGKILL, so everything the reattach client sees
/// is synthesized from the `<tenant>.outlog` sidecar next to the
/// joblog — any record with empty output means the retention path broke.
#[test]
fn reattach_replays_retained_stdout_after_restart() {
    const OUT_TASKS: u64 = 60;
    let sock = temp_path("outlog.sock");
    let listen = format!("unix:{}", sock.display());
    let state = temp_path("outlog-state");
    let logs = temp_path("outlog-logs");
    let tel = temp_path("outlog-events.jsonl");
    for dir in [&state, &logs] {
        let _ = std::fs::remove_dir_all(dir);
    }
    for f in [&sock, &tel] {
        let _ = std::fs::remove_file(f);
    }

    // ---- first life: run the whole campaign to completion, detach.
    let mut pilot = spawn_pilot_sessions(&listen, &state, &logs, "60", &tel, "1");
    let spec = await_announce(&mut pilot);
    let mut config = SessionConfig::new(spec, "out");
    config.payload = Payload::Shell;
    config.command = "echo out-{}".to_string();
    let mut session = SessionClient::connect(config).expect("out connects");
    let inputs: Vec<Vec<String>> = (1..=OUT_TASKS).map(|i| vec![i.to_string()]).collect();
    let verdict = session.submit(&inputs).expect("submit");
    assert!(verdict.accepted, "admission refused: {}", verdict.reason);
    session.detach(DETACH_KEY).expect("detach acked");

    let out_log = logs.join("out.joblog");
    let deadline = Instant::now() + Duration::from_secs(30);
    while joblog_rows(&out_log) < OUT_TASKS as usize {
        assert!(Instant::now() < deadline, "campaign did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
    pilot.kill().expect("kill pilot");
    pilot.wait().expect("reap pilot");

    // ---- second life: everything the client collects is replay.
    let mut pilot2 = spawn_pilot_sessions(&listen, &state, &logs, "8", &tel, "1");
    let spec2 = await_announce(&mut pilot2);
    let reattached =
        SessionClient::reattach(SessionConfig::new(spec2, "out"), DETACH_KEY).expect("reattach");
    let mut seen = vec![false; OUT_TASKS as usize + 1];
    let completed = reattached
        .collect(|recs| {
            for rec in recs {
                let seq = rec.seq as usize;
                assert!(
                    seq >= 1 && seq <= OUT_TASKS as usize,
                    "seq {seq} out of range"
                );
                assert!(!seen[seq], "seq {seq} delivered twice");
                seen[seq] = true;
                assert_eq!(rec.exitval, 0, "seq {seq} replayed a failure");
                assert_eq!(
                    rec.stdout.trim(),
                    format!("out-{seq}"),
                    "seq {seq} replayed without its retained stdout"
                );
            }
        })
        .expect("collect");
    assert_eq!(completed, OUT_TASKS);
    assert!(seen[1..].iter().all(|&s| s), "not every seq replayed");
    assert!(
        logs.join("out.outlog").exists(),
        "outlog sidecar persisted next to the joblog"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = pilot2.try_wait().expect("try_wait") {
            assert_eq!(status.code(), Some(0), "restarted pilot exits cleanly");
            break;
        }
        if Instant::now() >= deadline {
            // Reap before panicking: a leaked pilot holds the test
            // harness's inherited stderr pipe open forever.
            let _ = pilot2.kill();
            let _ = pilot2.wait();
            panic!("restarted pilot did not exit");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn killed_pilot_recovers_sessions_and_reattach_collects_everything() {
    let sock = temp_path("pilot.sock");
    let listen = format!("unix:{}", sock.display());
    let state = temp_path("state");
    let logs = temp_path("logs");
    let tel1 = temp_path("events-1.jsonl");
    let tel2 = temp_path("events-2.jsonl");
    for dir in [&state, &logs] {
        let _ = std::fs::remove_dir_all(dir);
    }
    for f in [&sock, &tel1, &tel2] {
        let _ = std::fs::remove_file(f);
    }

    // ---- first life: admit two campaigns, then die mid-flight.
    let mut pilot = spawn_pilot(&listen, &state, &logs, "60", &tel1);
    let spec = await_announce(&mut pilot);

    // Attached session: submits everything and keeps collecting until
    // the kill severs the socket.
    let mut att_config = SessionConfig::new(spec.clone(), "att");
    att_config.payload = Payload::SleepUs(20_000);
    let mut att = SessionClient::connect(att_config).expect("att connects");
    submit_all(&mut att);
    let att_thread = std::thread::spawn(move || {
        let mut seen = 0u64;
        loop {
            match att.recv() {
                Ok(ClientEvent::Done(recs)) => seen += recs.len() as u64,
                Ok(other) => panic!("att: unexpected event {other:?}"),
                Err(_) => return seen, // pilot died under us
            }
        }
    });

    // Detached session: submits everything, detaches durably, hangs up.
    let mut det_config = SessionConfig::new(spec.clone(), "det");
    det_config.payload = Payload::SleepUs(20_000);
    let mut det = SessionClient::connect(det_config).expect("det connects");
    submit_all(&mut det);
    let pending = det.detach(DETACH_KEY).expect("detach acked");
    assert!(pending > 0, "detached with work still pending");

    // Let both campaigns make real progress, then SIGKILL the pilot
    // with work queued, in flight, and partially recorded.
    let att_log = logs.join("att.joblog");
    let det_log = logs.join("det.joblog");
    let deadline = Instant::now() + Duration::from_secs(30);
    while joblog_rows(&att_log) < 20 || joblog_rows(&det_log) < 20 {
        assert!(Instant::now() < deadline, "campaigns made no progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    pilot.kill().expect("kill pilot");
    pilot.wait().expect("reap pilot");
    let att_seen_before_kill = att_thread.join().expect("att thread");
    assert!(
        att_seen_before_kill < TASKS,
        "kill arrived before the attached campaign finished"
    );

    // ---- second life: same state dir, journal replay, short TTL so
    // the orphaned attached session is released once its work drains.
    let mut pilot2 = spawn_pilot(&listen, &state, &logs, "8", &tel2);
    let spec2 = await_announce(&mut pilot2);

    // Reattach to the detached campaign and collect everything:
    // replayed pre-kill history first, live completions after.
    let reattached =
        SessionClient::reattach(SessionConfig::new(spec2, "det"), DETACH_KEY).expect("reattach");
    assert_eq!(reattached.submitted(), TASKS, "recovered accepted total");
    let mut seen = vec![false; TASKS as usize + 1];
    let completed = reattached
        .collect(|recs| {
            for rec in recs {
                let seq = rec.seq as usize;
                assert!(seq >= 1 && seq <= TASKS as usize, "seq {seq} out of range");
                assert!(!seen[seq], "seq {seq} delivered twice across lives");
                seen[seq] = true;
            }
        })
        .expect("collect");
    assert_eq!(completed, TASKS, "pilot's completion total");
    assert!(seen[1..].iter().all(|&s| s), "not every seq collected");

    // The recovered attached session has no client to return to; it
    // finishes its residual work and is swept by the detach TTL, which
    // lets `--max-sessions 2` drain the pilot to a clean exit.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = pilot2.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "restarted pilot did not exit");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "restarted pilot exits cleanly");

    // Exactly-once on disk across both lives: every seq has exactly
    // one row, none lost to the kill, none re-run after being recorded.
    for path in [&att_log, &det_log] {
        let entries = joblog::read_log(path).expect("tenant joblog");
        verify_exactly_once(&entries, TASKS)
            .unwrap_or_else(|e| panic!("{} not exactly-once: {e}", path.display()));
    }

    // Telemetry: life 1 recorded the durable detach; life 2 recorded
    // the journal replay and the reattach.
    let events1 = std::fs::read_to_string(&tel1).expect("life-1 telemetry");
    assert!(
        events1
            .lines()
            .any(|l| l.contains("\"type\":\"session_detached\"")),
        "session_detached recorded in life 1"
    );
    let events2 = std::fs::read_to_string(&tel2).expect("life-2 telemetry");
    assert!(
        events2
            .lines()
            .any(|l| l.contains("\"type\":\"pilot_recovered\"")),
        "pilot_recovered recorded in life 2"
    );
    assert!(
        events2
            .lines()
            .any(|l| l.contains("\"type\":\"session_reattached\"")),
        "session_reattached recorded in life 2"
    );
    assert!(
        state.join("pilot.journal").exists(),
        "journal persisted under --state-dir"
    );
}
