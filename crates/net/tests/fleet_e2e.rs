//! The agent fleet under `drive` and `serve`, end to end over
//! in-process agents: agents lost inside a reshard, the slots an agent
//! grants at `-j 0`, the lease sweep reclaiming the work of an agent
//! that handshakes and then goes silent, and the pilot's in-flight
//! windows over short tasks, long tasks, a drain between them and a
//! slow link. Each failure mode hangs rather than fails, so every
//! scenario runs under a deadline.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_core::joblog;
use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{SessionClient, SessionConfig};
use htpar_net::conn::{Conn, Listener};
use htpar_net::driver::{run_driver, verify_exactly_once, DriverConfig};
use htpar_net::frame::{Decoder, Frame, Payload, PROTOCOL_VERSION};
use htpar_net::serve::{PilotServer, ServeConfig};
use htpar_telemetry::{Event, EventBus, Recorder};

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

        // The first grant fills both agents' starting windows of
        // `slots + 1`, so the silent agent is holding three of these
        // when it goes quiet; with nothing measured, its window stays.
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

/// What one session saw in [`run_sessions`].
struct SessionRun {
    /// Most tasks the pilot reported in flight (`SlotOccupancy.busy`)
    /// while the session ran.
    peak_busy: usize,
    /// Agents named in the session's joblog rows.
    hosts: BTreeSet<String>,
}

/// Run `sessions` (payload, task count) one after another through one
/// pilot over two in-process `-j 2` agents, each behind a link that
/// holds every byte for `delay` each way when one is given. Every
/// occupancy sample must keep `busy <= total`.
fn run_sessions(
    tag: &str,
    delay: Option<Duration>,
    sessions: &[(Payload, u64)],
) -> Vec<SessionRun> {
    let agent_specs: Vec<String> = (0..2)
        .map(|i| sock_spec(&format!("{tag}-agent-{i}")))
        .collect();
    let agents: Vec<_> = agent_specs
        .iter()
        .enumerate()
        .map(|(i, spec)| spawn_agent(spec, &format!("a{i}")))
        .collect();
    let (dial, links): (Vec<String>, Vec<_>) = match delay {
        None => (agent_specs, Vec::new()),
        Some(delay) => agent_specs
            .iter()
            .enumerate()
            .map(|(i, agent)| {
                let spec = sock_spec(&format!("{tag}-link-{i}"));
                let link = spawn_delay_link(&spec, agent, delay);
                (spec, link)
            })
            .unzip(),
    };
    let log_dir = std::env::temp_dir().join(format!("htpar-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let recorder = Recorder::shared();
    let bus = Arc::new(EventBus::new());
    bus.attach(recorder.clone());
    let mut config = ServeConfig::new(dial, sock_spec(tag));
    config.jobs_per_agent = 2;
    config.max_sessions = Some(sessions.len() as u64);
    config.joblog_dir = Some(log_dir.clone());
    config.bus = Some(bus);
    let server = PilotServer::bind(config).expect("pilot binds");
    let spec = server.local_spec().expect("pilot spec");
    let serve = std::thread::spawn(move || server.run(None));

    let tenant = |k: usize| format!("tenant-{tag}-{k}");
    for (k, (payload, tasks)) in sessions.iter().enumerate() {
        let mut session = SessionConfig::new(spec.clone(), tenant(k));
        session.payload = *payload;
        let mut client = SessionClient::connect(session).expect("session connects");
        assert!(client.submit(&inputs(*tasks)).expect("submit").accepted);
        assert_eq!(client.finish().expect("session finishes"), *tasks);
    }
    let outcome = serve
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
    assert_eq!(
        outcome.completed,
        sessions.iter().map(|(_, n)| n).sum::<u64>()
    );
    for agent in agents {
        agent
            .join()
            .expect("agent thread")
            .expect("agent drained cleanly");
    }
    for link in links {
        link.join().expect("link thread");
    }

    // Sessions run one at a time, so each occupancy sample belongs to
    // the session opened last.
    let mut peaks = vec![0; sessions.len()];
    let mut opened = 0;
    for event in recorder.events() {
        match event {
            Event::SessionOpened { .. } => opened += 1,
            Event::SlotOccupancy { busy, total } => {
                assert!(busy <= total, "busy {busy} over total {total}");
                if opened > 0 {
                    peaks[opened - 1] = peaks[opened - 1].max(busy);
                }
            }
            _ => {}
        }
    }
    assert_eq!(opened, sessions.len());
    let runs = peaks
        .into_iter()
        .enumerate()
        .map(|(k, peak_busy)| {
            let log = log_dir.join(format!("{}.joblog", tenant(k)));
            let entries = joblog::read_log(log).expect("tenant joblog");
            verify_exactly_once(&entries, sessions[k].1).expect("one row per seq");
            SessionRun {
                peak_busy,
                hosts: entries.into_iter().map(|e| e.host).collect(),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&log_dir);
    runs
}

/// Listen on `spec` for the pilot and relay its connection to the agent
/// at `agent`, holding every byte for `delay` in each direction: a
/// network link with a round trip of twice `delay`.
fn spawn_delay_link(spec: &str, agent: &str, delay: Duration) -> std::thread::JoinHandle<()> {
    let path = |spec: &str| PathBuf::from(spec.strip_prefix("unix:").expect("unix spec"));
    let listener = UnixListener::bind(path(spec)).expect("bind link");
    let agent = path(agent);
    std::thread::spawn(move || {
        let pilot = listener.accept().expect("pilot dials the link").0;
        let node = UnixStream::connect(agent).expect("link dials the agent");
        let up = relay(
            pilot.try_clone().expect("clone"),
            node.try_clone().expect("clone"),
            delay,
        );
        let down = relay(node, pilot, delay);
        up.join().expect("uplink");
        down.join().expect("downlink");
    })
}

/// Copy `from` to `to`, each chunk `delay` after it was read, until
/// `from` closes; then close `to` for writing. Returns the writer.
fn relay(mut from: UnixStream, mut to: UnixStream, delay: Duration) -> std::thread::JoinHandle<()> {
    let (tx, rx) = mpsc::channel::<(Instant, Vec<u8>)>();
    std::thread::spawn(move || {
        let mut buf = vec![0u8; 64 * 1024];
        while let Ok(n @ 1..) = from.read(&mut buf) {
            if tx
                .send((Instant::now() + delay, buf[..n].to_vec()))
                .is_err()
            {
                break;
            }
        }
    });
    std::thread::spawn(move || {
        for (due, chunk) in rx {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if to.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    })
}

/// Tasks much longer than the queue target keep each agent's window at
/// `slots + 1`: two `-j 2` agents never hold more than six 20 ms tasks,
/// so a tenant arriving later waits behind at most one queued task per
/// agent.
#[test]
fn pilot_window_stays_at_slots_plus_one_for_long_tasks() {
    let runs = within(Duration::from_secs(60), || {
        run_sessions("long", None, &[(Payload::SleepUs(20_000), 40)])
    });
    let peak = runs[0].peak_busy;
    assert!(peak <= 6, "{peak} tasks in flight on 4 slots");
    assert!(peak >= 4, "only {peak} tasks in flight: slots left idle");
}

/// No-op tasks finish far inside the queue target, so each window grows
/// from its measured completion rate until the agents stay busy, with
/// more than four tasks per slot (16 here) in flight.
#[test]
fn pilot_window_grows_for_short_tasks() {
    let runs = within(Duration::from_secs(120), || {
        run_sessions("short", None, &[(Payload::Noop, 20_000)])
    });
    let peak = runs[0].peak_busy;
    assert!(peak > 16, "window never grew: peak {peak} in flight");
}

/// A window that grew on no-op tasks must not carry over to the next
/// busy period: once the agents drain, 20 ms tasks start again from
/// `slots + 1` and spread over both agents, instead of all landing in
/// the first agent's deep window while the other sits idle.
#[test]
fn pilot_window_restarts_from_its_floor_after_a_drain() {
    let runs = within(Duration::from_secs(120), || {
        run_sessions(
            "drain",
            None,
            &[(Payload::Noop, 20_000), (Payload::SleepUs(20_000), 40)],
        )
    });
    assert!(runs[0].peak_busy > 16, "no-op windows never grew");
    let peak = runs[1].peak_busy;
    assert!(peak <= 6, "{peak} 20 ms tasks in flight on 4 slots");
    assert_eq!(
        runs[1].hosts,
        BTreeSet::from(["a0".to_string(), "a1".to_string()]),
        "20 ms tasks ran on one agent"
    );
}

/// Over a link whose round trip (4 ms) is longer than the queue target,
/// the window must cover the round trip too. Sized from the queue target
/// alone it stalls at `slots + 1`, six tasks on two `-j 2` agents, and
/// the agents idle through most of every round trip.
#[test]
fn pilot_window_covers_a_long_round_trip() {
    let runs = within(Duration::from_secs(120), || {
        run_sessions(
            "delayed",
            Some(Duration::from_millis(2)),
            &[(Payload::Noop, 5_000)],
        )
    });
    let peak = runs[0].peak_busy;
    assert!(
        peak > 32,
        "window stalled under a 4 ms round trip: peak {peak}"
    );
}
