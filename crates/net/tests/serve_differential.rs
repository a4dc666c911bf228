//! Serve-vs-drive differential: a single-tenant session through the
//! pilot service must produce the same work as a one-shot `drive` run
//! of the identical workload. Placement differs
//! (the pilot round-robins over free agents, the driver shards
//! NR-modulo), so the `host` column is pinned along with the two
//! wall-clock columns; everything else — seq, byte counts, exitval,
//! signal, rendered command — must be byte-identical after sorting.
//!
//! Also proves the version gate: an old-protocol client gets a clean,
//! decodable `AgentExit` refusal frame from the pilot, not a hangup.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

use htpar_core::joblog::{self, LogEntry};
use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{SessionClient, SessionConfig};
use htpar_net::conn::Conn;
use htpar_net::driver::{run_driver, verify_exactly_once, DriverConfig};
use htpar_net::frame::{Decoder, Frame, Payload, PROTOCOL_VERSION};
use htpar_net::serve::{PilotServer, ServeConfig};

const TASKS: u64 = 10_000;
const AGENTS: usize = 4;
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Same seeded workload as the driver differential suite.
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
    let path = std::env::temp_dir().join(format!("htpar-sdiff-{tag}-{}.sock", std::process::id()));
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

/// Canonical row with wall-clock columns pinned to zero and the host
/// pinned to a constant (serve and drive place tasks differently).
fn normalize(entry: &LogEntry) -> String {
    format!(
        "{}\thost\t0\t0\t{}\t{}\t{}\t{}\t{}",
        entry.seq, entry.send, entry.receive, entry.exitval, entry.signal, entry.command
    )
}

type AgentHandle = std::thread::JoinHandle<htpar_net::Result<agent::AgentReport>>;

fn spawn_agents(tag: &str) -> (Vec<String>, Vec<AgentHandle>) {
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
    (specs, handles)
}

/// Run the workload as one session through the pilot and return the
/// normalized, sorted tenant joblog.
fn run_serve(tag: &str) -> Vec<String> {
    let (specs, handles) = spawn_agents(tag);
    let log_dir = std::env::temp_dir().join(format!("htpar-sdiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);

    let mut config = ServeConfig::new(specs, sock_spec(&format!("{tag}-pilot")));
    config.jobs_per_agent = 4;
    config.joblog_dir = Some(log_dir.clone());
    config.max_sessions = Some(1);
    let server = PilotServer::bind(config).expect("pilot binds");
    let spec = server.local_spec().expect("pilot spec");
    let serve = std::thread::spawn(move || server.run(None));

    let mut session = SessionConfig::new(spec, "tenant-a");
    session.payload = Payload::Noop;
    session.command = "task {}".to_string();
    let mut client = SessionClient::connect(session).expect("session connects");
    for batch in seeded_inputs().chunks(1_000) {
        let verdict = client.submit(batch).expect("submit");
        assert!(verdict.accepted, "admission refused: {}", verdict.reason);
    }
    let completed = client.finish().expect("session finishes");
    assert_eq!(completed, TASKS);

    let outcome = serve
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
    assert_eq!(outcome.completed, TASKS);
    assert_eq!(outcome.duplicates, 0);
    assert_eq!(outcome.released, 0);
    for handle in handles {
        handle
            .join()
            .expect("agent thread")
            .expect("clean agent exit");
    }

    let entries = joblog::read_log(log_dir.join("tenant-a.joblog")).expect("tenant joblog");
    verify_exactly_once(&entries, TASKS).expect("one row per seq");
    let mut rows: Vec<String> = entries.iter().map(normalize).collect();
    rows.sort_unstable();
    rows
}

/// Run the same workload through a one-shot `drive` and return the
/// normalized, sorted joblog.
fn run_drive(tag: &str) -> Vec<String> {
    let (specs, handles) = spawn_agents(tag);
    let log_path =
        std::env::temp_dir().join(format!("htpar-sdiff-{tag}-{}.joblog", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let mut config = DriverConfig::new(specs, "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.joblog = Some(log_path.clone());

    let outcome = run_driver(&config, &seeded_inputs(), None).expect("drive succeeds");
    assert_eq!(outcome.completed, TASKS);
    for handle in handles {
        handle
            .join()
            .expect("agent thread")
            .expect("clean agent exit");
    }

    let entries = joblog::read_log(&log_path).expect("readable joblog");
    verify_exactly_once(&entries, TASKS).expect("one row per seq");
    let mut rows: Vec<String> = entries.iter().map(normalize).collect();
    rows.sort_unstable();
    rows
}

fn assert_identical(a: &[String], b: &[String], what: &str) {
    assert_eq!(a.len() as u64, TASKS, "{what}: row count");
    if a != b {
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y, "{what}: first divergent joblog row");
        }
        panic!("{what}: joblogs diverge");
    }
}

/// Kept under its original name from when a second, threaded net core
/// ran the same pair; the reactor is now the only core.
#[test]
fn serve_matches_drive_on_both_cores() {
    let drive = run_drive("drv");
    let serve = run_serve("srv");
    assert_identical(&drive, &serve, "serve vs drive");
}

#[test]
fn old_version_client_gets_a_typed_refusal() {
    let agent_spec = sock_spec("vgate-agent");
    let agent_config = AgentConfig {
        listen: agent_spec.clone(),
        name: "a0".to_string(),
        announce: false,
    };
    let agent = std::thread::spawn(move || agent::serve(&agent_config));
    wait_bound(&agent_spec);

    let mut config = ServeConfig::new(vec![agent_spec], sock_spec("vgate-pilot"));
    config.max_sessions = Some(1);
    let server = PilotServer::bind(config).expect("pilot binds");
    let spec = server.local_spec().expect("pilot spec");
    let serve = std::thread::spawn(move || server.run(None));

    let mut conn = Conn::connect(&spec).expect("dial pilot");
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION - 1,
        jobs: 0,
        heartbeat_ms: 0,
        payload: Payload::Shell,
        command: "{}".to_string(),
    };
    conn.write_all(&hello.encode()).expect("send stale hello");
    conn.flush().expect("flush");

    let mut dec = Decoder::new();
    let mut buf = [0u8; 4096];
    let refusal = loop {
        if let Some(frame) = dec.next_frame().expect("decodable refusal") {
            break frame;
        }
        let n = conn.read(&mut buf).expect("read refusal");
        assert!(n > 0, "pilot hung up without a refusal frame");
        dec.extend(&buf[..n]);
    };
    match refusal {
        Frame::AgentExit { done, reason } => {
            assert_eq!(done, 0);
            assert!(
                reason.contains("version") || reason.contains("protocol"),
                "refusal names the version mismatch: {reason}"
            );
        }
        other => panic!("expected AgentExit refusal, got {other:?}"),
    }
    drop(conn);

    // The refused connection must not count as a session: a current
    // client still gets in, and the pilot still exits cleanly.
    let mut session = SessionConfig::new(spec, "late");
    session.payload = Payload::Noop;
    let mut client = SessionClient::connect(session).expect("current client accepted");
    let verdict = client.submit(&[vec!["x".to_string()]]).expect("submit");
    assert!(verdict.accepted);
    assert_eq!(client.finish().expect("finish"), 1);

    let outcome = serve
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
    assert_eq!(outcome.sessions, 1);
    assert_eq!(outcome.completed, 1);
    agent
        .join()
        .expect("agent thread")
        .expect("clean agent exit");
}
