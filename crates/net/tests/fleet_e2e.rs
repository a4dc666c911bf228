//! The agent fleet under `drive` and `serve`, end to end over
//! in-process agents: agents lost inside a reshard, the slots an agent
//! grants at `-j 0`, and the lease sweep reclaiming the work of an agent
//! that handshakes and then goes silent. Each failure mode hangs rather
//! than fails, so every scenario runs under a deadline.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use htpar_core::joblog;
use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{SessionClient, SessionConfig};
use htpar_net::conn::{Conn, Listener};
use htpar_net::driver::{run_driver, verify_exactly_once, DriverConfig};
use htpar_net::frame::{Decoder, Frame, Payload, PROTOCOL_VERSION};
use htpar_net::serve::{PilotServer, ServeConfig};

fn sock_spec(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("htpar-fleet-{tag}-{}.sock", std::process::id()));
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

/// Run `scenario` on its own thread and fail if it is still running
/// after `limit`.
fn within<T: Send + 'static>(limit: Duration, scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            handle.join().expect("scenario thread");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("scenario still running after {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("scenario sent no result"))
        }
    }
}

fn inputs(n: u64) -> Vec<Vec<String>> {
    (1..=n).map(|i| vec![i.to_string()]).collect()
}

/// An agent that acknowledges the handshake and hangs up at once, so
/// the driver's first write to it fails.
fn spawn_quitter(spec: &str) -> std::thread::JoinHandle<()> {
    let listener = Listener::bind(spec).expect("bind quitter");
    std::thread::spawn(move || {
        let mut conn = listener.accept().expect("driver connects");
        let mut dec = Decoder::new();
        assert!(matches!(
            read_frame(&mut conn, &mut dec),
            Some(Frame::Hello { .. })
        ));
        let ack = Frame::HelloAck {
            version: PROTOCOL_VERSION,
            slots: 1,
            agent: "quitter".to_string(),
        };
        conn.write_all(&ack.encode()).unwrap();
        conn.flush().unwrap();
    })
}

/// Agents lost inside a re-shard: re-sharding the first quitter's work
/// finds the second dead too, whose own re-shard finds the third. Once
/// those nested losses are handled, the outer re-shard must not hand
/// the third quitter a share, which no later loss would re-shard.
#[test]
fn drive_survives_losses_nested_inside_a_reshard() {
    within(Duration::from_secs(60), || {
        let specs: Vec<String> = (0..4).map(|i| sock_spec(&format!("cascade-{i}"))).collect();
        let quitters: Vec<_> = specs[..3].iter().map(|s| spawn_quitter(s)).collect();
        let steady = spawn_agent(&specs[3], "steady");

        let mut config = DriverConfig::new(specs, "task {}");
        config.payload = Payload::Noop;
        let total = 40u64;
        let outcome = run_driver(&config, &inputs(total), None).expect("drive survives");
        assert_eq!(outcome.completed, total);
        assert!(outcome.agents[..3].iter().all(|a| a.lost));
        assert_eq!(outcome.agents[3].done, total);

        for quitter in quitters {
            quitter.join().expect("quitter thread");
        }
        steady
            .join()
            .expect("steady thread")
            .expect("steady drained cleanly");
    });
}

/// Agents floor `-j 0` at one engine slot, and the handshake must grant
/// that slot: a pilot sizing its capacity from a zero grant never
/// dispatches, and the session waits forever.
#[test]
fn pilot_at_zero_jobs_per_agent_still_runs_sessions() {
    within(Duration::from_secs(30), || {
        let agent_spec = sock_spec("j0-agent");
        let agent = spawn_agent(&agent_spec, "a0");
        let mut config = ServeConfig::new(vec![agent_spec], sock_spec("j0"));
        config.jobs_per_agent = 0;
        config.max_sessions = Some(1);
        let server = PilotServer::bind(config).expect("pilot binds");
        let spec = server.local_spec().expect("pilot spec");
        let serve = std::thread::spawn(move || server.run(None));

        let mut session = SessionConfig::new(spec, "tenant-j0");
        session.payload = Payload::Noop;
        let mut client = SessionClient::connect(session).expect("session connects");
        assert!(client.submit(&inputs(3)).expect("submit").accepted);
        assert_eq!(client.finish().expect("session finishes"), 3);

        let outcome = serve
            .join()
            .expect("serve thread")
            .expect("clean serve exit");
        assert_eq!(outcome.completed, 3);
        agent
            .join()
            .expect("agent thread")
            .expect("agent drained cleanly");
    });
}

/// An agent that handshakes and then never reads or writes again (a
/// wedged node, a half-open partition) is caught only by the heartbeat
/// lease. Its share of the grant must be requeued onto the live agent
/// and the session must still complete exactly once.
#[test]
fn serve_lease_expiry_requeues_a_silent_agents_work() {
    within(Duration::from_secs(60), || {
        let steady_spec = sock_spec("lease-steady");
        let silent_spec = sock_spec("lease-silent");
        let steady = spawn_agent(&steady_spec, "steady");

        let silent_listener = Listener::bind(&silent_spec).expect("bind silent");
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let mut conn = silent_listener.accept().expect("pilot connects");
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
            // Keep the socket open, unread, until the test is done.
            let _ = hold_rx.recv();
        });

        let log_dir =
            std::env::temp_dir().join(format!("htpar-fleet-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&log_dir);
        let mut config = ServeConfig::new(vec![steady_spec, silent_spec], sock_spec("lease"));
        config.jobs_per_agent = 2;
        config.heartbeat_ms = 50;
        config.lease_window_ms = 400;
        config.joblog_dir = Some(log_dir.clone());
        config.max_sessions = Some(1);
        let server = PilotServer::bind(config).expect("pilot binds");
        let spec = server.local_spec().expect("pilot spec");
        let serve = std::thread::spawn(move || server.run(None));

        // The first grant fills both agents' oversubscribed slots, so
        // the silent agent is holding eight of these when it goes quiet.
        let total = 40u64;
        let mut session = SessionConfig::new(spec, "tenant-lease");
        session.payload = Payload::Noop;
        session.command = "task {}".to_string();
        let mut client = SessionClient::connect(session).expect("session connects");
        assert!(client.submit(&inputs(total)).expect("submit").accepted);
        assert_eq!(client.finish().expect("session finishes"), total);

        let outcome = serve
            .join()
            .expect("serve thread")
            .expect("clean serve exit");
        assert_eq!(outcome.completed, total);
        assert_eq!(outcome.duplicates, 0);
        assert!(outcome.agents[1].lost, "silent agent leased out");
        assert!(!outcome.agents[0].lost);
        assert_eq!(outcome.agents[0].done, total);

        let entries = joblog::read_log(log_dir.join("tenant-lease.joblog")).expect("tenant joblog");
        verify_exactly_once(&entries, total).expect("one row per seq despite the silence");

        hold_tx.send(()).expect("silent agent waiting");
        silent.join().expect("silent thread");
        steady
            .join()
            .expect("steady thread")
            .expect("steady drained cleanly");
        let _ = std::fs::remove_dir_all(&log_dir);
    });
}
