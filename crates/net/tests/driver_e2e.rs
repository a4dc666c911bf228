//! End-to-end tests for the network subsystem, run entirely in-process:
//! real `agent::serve` sessions on background threads, Unix sockets in
//! the temp dir, and a real `run_driver` dispatching to them. Chaos
//! tests with separate OS processes and SIGKILL live in the CLI crate
//! (`crates/cli/tests/net_e2e.rs`); this file covers the protocol and
//! recovery logic where failures are cheap to stage deterministically.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

use htpar_core::joblog::{self, JobLogWriter, LogEntry};
use htpar_net::agent::{self, AgentConfig};
use htpar_net::conn::{Conn, Listener};
use htpar_net::driver::{run_driver, verify_exactly_once, DriverConfig};
use htpar_net::frame::{Decoder, Frame, Payload, TaskDoneRec, PROTOCOL_VERSION};
use htpar_telemetry::{Event, EventBus, Recorder};

/// Unique Unix-socket spec for one test.
fn sock_spec(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("htpar-e2e-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    format!("unix:{}", path.display())
}

/// Block until the agent thread has bound its socket.
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

/// Spawn a real agent session on a thread.
fn spawn_agent(
    spec: &str,
    name: &str,
) -> std::thread::JoinHandle<htpar_net::Result<agent::AgentReport>> {
    let config = AgentConfig {
        listen: spec.to_string(),
        name: name.to_string(),
        announce: false,
    };
    let handle = std::thread::spawn(move || agent::serve(&config));
    wait_bound(spec);
    handle
}

/// Test-side frame reader (EOF → `None`).
fn read_frame(conn: &mut Conn, dec: &mut Decoder) -> Option<Frame> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("well-formed frame") {
            return Some(frame);
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => dec.extend(&buf[..n]),
        }
    }
}

fn inputs(n: u64) -> Vec<Vec<String>> {
    (1..=n).map(|i| vec![i.to_string()]).collect()
}

fn temp_joblog(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("htpar-e2e-{tag}-{}.joblog", std::process::id()))
}

/// A hand-rolled agent's ack for one finished task: a one-record
/// `DoneBatch`, the only completion frame the protocol has.
fn done_frame(seq: u64) -> Frame {
    Frame::DoneBatch {
        results: vec![TaskDoneRec {
            seq,
            exitval: 0,
            signal: 0,
            start_epoch_us: 0,
            runtime_us: 1_000,
            stdout: String::new(),
            stderr: String::new(),
        }],
    }
}

#[test]
fn three_agents_complete_all_tasks_exactly_once() {
    let specs: Vec<String> = (0..3).map(|i| sock_spec(&format!("happy{i}"))).collect();
    let handles: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| spawn_agent(s, &format!("a{i}")))
        .collect();

    let recorder = Recorder::shared();
    let bus = EventBus::shared();
    bus.attach(recorder.clone());

    let log_path = temp_joblog("happy");
    let _ = std::fs::remove_file(&log_path);
    let mut config = DriverConfig::new(specs, "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.joblog = Some(log_path.clone());
    config.bus = Some(bus);

    let total = 600u64;
    let outcome = run_driver(&config, &inputs(total), None).expect("drive succeeds");
    assert_eq!(outcome.completed, total);
    assert_eq!(outcome.duplicates, 0);
    assert_eq!(outcome.skipped, 0);
    assert!(outcome.agents.iter().all(|a| !a.lost && a.error.is_none()));
    // Placement is the NR-modulo split: all three agents worked.
    assert!(outcome.agents.iter().all(|a| a.done > 0));

    let entries = joblog::read_log(&log_path).expect("readable joblog");
    verify_exactly_once(&entries, total).expect("one row per seq");
    // Host column carries the agent's handshake name.
    assert!(entries.iter().all(|e| e.host.starts_with('a')));

    for handle in handles {
        let report = handle
            .join()
            .expect("agent thread")
            .expect("clean agent exit");
        assert_eq!(report.reason, "drained");
    }

    let events = recorder.events();
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    assert_eq!(count("agent_connected"), 3);
    assert!(count("shard_sent") >= 3);
    assert_eq!(count("frame_bytes"), 3);
    assert_eq!(count("agent_lost"), 0);
    for event in &events {
        if let Event::FrameBytes { sent, received, .. } = event {
            assert!(*sent > 0 && *received > 0);
        }
    }
}

#[test]
fn agent_death_reshards_unfinished_work() {
    let steady_spec = sock_spec("death-steady");
    let flaky_spec = sock_spec("death-flaky");
    let steady = spawn_agent(&steady_spec, "steady");

    // A protocol-correct agent that completes five tasks of its shard
    // and then drops the connection, as a SIGKILLed node would.
    let flaky_listener = Listener::bind(&flaky_spec).expect("bind flaky");
    let flaky = std::thread::spawn(move || {
        let mut conn = flaky_listener.accept().expect("driver connects");
        let mut dec = Decoder::new();
        assert!(matches!(
            read_frame(&mut conn, &mut dec),
            Some(Frame::Hello { .. })
        ));
        let ack = Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: 2,
            agent: "flaky".to_string(),
        };
        conn.write_all(&ack.encode()).unwrap();
        conn.flush().unwrap();
        let Some(Frame::Shard { tasks }) = read_frame(&mut conn, &mut dec) else {
            panic!("expected a shard");
        };
        for task in tasks.iter().take(5) {
            conn.write_all(&done_frame(task.seq).encode()).unwrap();
        }
        conn.flush().unwrap();
        conn.shutdown();
    });

    let recorder = Recorder::shared();
    let bus = EventBus::shared();
    bus.attach(recorder.clone());

    let log_path = temp_joblog("death");
    let _ = std::fs::remove_file(&log_path);
    let mut config = DriverConfig::new(vec![steady_spec, flaky_spec], "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.joblog = Some(log_path.clone());
    config.bus = Some(bus);

    let total = 200u64;
    let outcome = run_driver(&config, &inputs(total), None).expect("drive survives the loss");
    assert_eq!(outcome.completed, total);
    assert_eq!(outcome.duplicates, 0, "record-once keeps the log exact");
    assert!(outcome.agents[1].lost, "flaky was declared lost");
    assert!(!outcome.agents[0].lost);
    assert_eq!(outcome.agents[1].done, 5);
    assert_eq!(outcome.agents[0].done, total - 5);

    let entries = joblog::read_log(&log_path).expect("readable joblog");
    verify_exactly_once(&entries, total).expect("one row per seq despite the loss");

    let events = recorder.events();
    let lost_events: Vec<&Event> = events.iter().filter(|e| e.kind() == "agent_lost").collect();
    assert_eq!(lost_events.len(), 1);
    if let Event::AgentLost { agent, outstanding } = lost_events[0] {
        assert_eq!(*agent, 1);
        assert_eq!(*outstanding, 100 - 5, "half the shard minus completions");
    }

    flaky.join().expect("flaky thread");
    steady
        .join()
        .expect("steady thread")
        .expect("steady drained cleanly");
}

#[test]
fn lease_expiry_recovers_from_silent_agent() {
    let steady_spec = sock_spec("lease-steady");
    let silent_spec = sock_spec("lease-silent");
    let steady = spawn_agent(&steady_spec, "steady");

    // Handshakes, then never reads or writes again: the half-open /
    // wedged-node case only the heartbeat lease can catch.
    let silent_listener = Listener::bind(&silent_spec).expect("bind silent");
    std::thread::spawn(move || {
        let mut conn = silent_listener.accept().expect("driver connects");
        let mut dec = Decoder::new();
        assert!(matches!(
            read_frame(&mut conn, &mut dec),
            Some(Frame::Hello { .. })
        ));
        let ack = Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: 2,
            agent: "silent".to_string(),
        };
        conn.write_all(&ack.encode()).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_secs(30));
    });

    let mut config = DriverConfig::new(vec![steady_spec, silent_spec], "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.heartbeat_ms = 50;
    config.lease_window_ms = 400;

    let total = 40u64;
    let outcome = run_driver(&config, &inputs(total), None).expect("drive survives the silence");
    assert_eq!(outcome.completed, total);
    assert!(outcome.agents[1].lost, "silent agent leased out");
    assert_eq!(outcome.agents[0].done, total);
    steady
        .join()
        .expect("steady thread")
        .expect("steady drained cleanly");
}

#[test]
fn lease_expiry_and_socket_loss_race_resolves_to_one_reshard() {
    // Regression for the double-reshard race: an agent that goes silent
    // past the lease window and *then* drops its socket fires both
    // death signals close together — possibly in the same poll batch.
    // Agent-death handling must be idempotent: exactly one `agent_lost`
    // event, exactly one re-shard, exactly-once joblog.
    let steady_spec = sock_spec("race-steady");
    let flaky_spec = sock_spec("race-flaky");
    let steady = spawn_agent(&steady_spec, "steady");

    let flaky_listener = Listener::bind(&flaky_spec).expect("bind flaky");
    let flaky = std::thread::spawn(move || {
        let mut conn = flaky_listener.accept().expect("driver connects");
        let mut dec = Decoder::new();
        assert!(matches!(
            read_frame(&mut conn, &mut dec),
            Some(Frame::Hello { .. })
        ));
        let ack = Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: 2,
            agent: "flaky".to_string(),
        };
        conn.write_all(&ack.encode()).unwrap();
        conn.flush().unwrap();
        let Some(Frame::Shard { tasks }) = read_frame(&mut conn, &mut dec) else {
            panic!("expected a shard");
        };
        // Complete a few tasks (touching the lease), then wedge until
        // just past the lease window and hang up: the driver sees the
        // expiry and the hangup back to back, whichever lands first.
        for task in tasks.iter().take(3) {
            conn.write_all(&done_frame(task.seq).encode()).unwrap();
        }
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(350));
        conn.shutdown();
    });

    let recorder = Recorder::shared();
    let bus = EventBus::shared();
    bus.attach(recorder.clone());

    let log_path = temp_joblog("race");
    let _ = std::fs::remove_file(&log_path);
    let mut config = DriverConfig::new(vec![steady_spec, flaky_spec], "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.heartbeat_ms = 50;
    config.lease_window_ms = 300;
    config.joblog = Some(log_path.clone());
    config.bus = Some(bus);

    let total = 100u64;
    let outcome = run_driver(&config, &inputs(total), None).expect("drive survives the race");
    assert_eq!(outcome.completed, total);
    assert_eq!(outcome.duplicates, 0);
    assert!(outcome.agents[1].lost);
    assert!(!outcome.agents[0].lost);

    let entries = joblog::read_log(&log_path).expect("readable joblog");
    verify_exactly_once(&entries, total).expect("one row per seq despite both signals");

    let events = recorder.events();
    let lost = events.iter().filter(|e| e.kind() == "agent_lost").count();
    assert_eq!(lost, 1, "both death signals collapsed into one re-shard");

    flaky.join().expect("flaky thread");
    steady
        .join()
        .expect("steady thread")
        .expect("steady drained cleanly");
}

#[test]
fn never_reading_agent_stalls_bounded_write_queue() {
    // Backpressure: a peer that handshakes and then never reads again
    // must not make the driver buffer its whole shard in userspace. The
    // write queue stays under `write_queue_cap` plus one frame; the
    // overflow lives in the backlog until the lease reclaims the tasks.
    let steady_spec = sock_spec("bp-steady");
    let stalled_spec = sock_spec("bp-stalled");
    let steady = spawn_agent(&steady_spec, "steady");

    let stalled_listener = Listener::bind(&stalled_spec).expect("bind stalled");
    std::thread::spawn(move || {
        let mut conn = stalled_listener.accept().expect("driver connects");
        let mut dec = Decoder::new();
        assert!(matches!(
            read_frame(&mut conn, &mut dec),
            Some(Frame::Hello { .. })
        ));
        let ack = Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: 4,
            agent: "stalled".to_string(),
        };
        conn.write_all(&ack.encode()).unwrap();
        conn.flush().unwrap();
        // Never read: the kernel socket buffer fills and the driver's
        // writes hit EAGAIN until the lease declares this agent dead.
        std::thread::sleep(Duration::from_secs(30));
    });

    let recorder = Recorder::shared();
    let bus = EventBus::shared();
    bus.attach(recorder.clone());

    let log_path = temp_joblog("bp");
    let _ = std::fs::remove_file(&log_path);
    let mut config = DriverConfig::new(vec![steady_spec, stalled_spec], "task {}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 4;
    config.heartbeat_ms = 50;
    config.lease_window_ms = 400;
    config.write_queue_cap = 32 * 1024;
    config.joblog = Some(log_path.clone());
    config.bus = Some(bus);

    // Half of these land on the stalled agent: far more frame bytes
    // than its kernel socket buffer plus the cap can hold.
    let total = 40_000u64;
    let outcome = run_driver(&config, &inputs(total), None).expect("drive survives the stall");
    assert_eq!(outcome.completed, total);
    assert_eq!(outcome.duplicates, 0);
    assert!(outcome.agents[1].lost, "stalled agent leased out");
    assert_eq!(outcome.agents[0].done, total);

    // The bound: cap plus one in-flight shard frame (a frame is queued
    // whole even when the cap is already reached, to guarantee
    // progress). 2048 tiny tasks encode well under 100 KiB.
    let peak = outcome.agents[1].peak_queue_bytes;
    assert!(peak > 0, "backpressure path actually queued frames");
    assert!(
        peak <= (config.write_queue_cap + 100 * 1024) as u64,
        "peak write queue {peak} exceeds cap {} + one frame",
        config.write_queue_cap
    );

    let entries = joblog::read_log(&log_path).expect("readable joblog");
    verify_exactly_once(&entries, total).expect("one row per seq despite the stall");

    // Telemetry cross-check: the stalled agent's connection shows bytes
    // pushed into the socket but nothing ever read back.
    let events = recorder.events();
    let stalled_bytes: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::FrameBytes {
                agent: 1,
                sent,
                received,
            } => Some((*sent, *received)),
            _ => None,
        })
        .collect();
    assert_eq!(stalled_bytes.len(), 1);
    let (sent, received) = stalled_bytes[0];
    assert!(sent > 0, "some frames reached the kernel buffer");
    assert_eq!(received, 0, "a never-reading peer also never wrote");

    steady
        .join()
        .expect("steady thread")
        .expect("steady drained cleanly");
}

#[test]
fn resume_skips_already_recorded_seqs() {
    let log_path = temp_joblog("resume");
    let _ = std::fs::remove_file(&log_path);
    let total = 20u64;

    // Seed the joblog with completions for the even seqs, as if a
    // previous driver died halfway.
    {
        let mut log = JobLogWriter::open(&log_path).expect("open joblog");
        for seq in (2..=total).step_by(2) {
            log.record_entry(&LogEntry {
                seq,
                host: "earlier-run".to_string(),
                start: 1.0,
                runtime: 0.5,
                send: 0,
                receive: 0,
                exitval: 0,
                signal: 0,
                command: format!("task {seq}"),
            })
            .expect("record");
        }
        log.flush().expect("flush");
    }

    let spec = sock_spec("resume");
    let handle = spawn_agent(&spec, "a0");
    let mut config = DriverConfig::new(vec![spec], "task {}");
    config.payload = Payload::Noop;
    config.joblog = Some(log_path.clone());
    config.resume = true;

    let outcome = run_driver(&config, &inputs(total), None).expect("resume drive");
    assert_eq!(outcome.skipped, total / 2);
    assert_eq!(outcome.completed, total / 2);

    let entries = joblog::read_log(&log_path).expect("readable joblog");
    verify_exactly_once(&entries, total).expect("resume fills exactly the gaps");
    // The resumed run only ran odd seqs.
    for entry in entries.iter().filter(|e| e.host == "a0") {
        assert_eq!(entry.seq % 2, 1, "seq {} was already recorded", entry.seq);
    }
    handle.join().expect("agent thread").expect("agent drained");
}

#[test]
fn version_mismatch_is_refused_with_agent_exit() {
    // A newer driver, and an older one that may still send the retired
    // per-task `TaskDone` frame: both are refused at `Hello`.
    for version in [PROTOCOL_VERSION + 1, PROTOCOL_VERSION - 1] {
        let spec = sock_spec(&format!("vermis{version}"));
        let handle = spawn_agent(&spec, "a0");

        let mut conn = Conn::connect(&spec).expect("dial agent");
        let hello = Frame::Hello {
            version,
            jobs: 1,
            heartbeat_ms: 1_000,
            payload: Payload::Noop,
            command: "{}".to_string(),
        };
        conn.write_all(&hello.encode()).unwrap();
        conn.flush().unwrap();
        let mut dec = Decoder::new();
        match read_frame(&mut conn, &mut dec) {
            Some(Frame::AgentExit { done, reason }) => {
                assert_eq!(done, 0);
                assert!(reason.contains("version mismatch"), "reason: {reason}");
            }
            other => panic!("v{version}: expected AgentExit, got {other:?}"),
        }
        assert!(handle.join().expect("agent thread").is_err());
    }
}
