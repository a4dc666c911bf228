//! The agent fleet under `drive` and `serve`, end to end over
//! in-process agents: agents lost inside a reshard, the slots an agent
//! grants at `-j 0`, the lease sweep reclaiming the work of an agent
//! that handshakes and then goes silent, and the pilot's in-flight
//! windows over short tasks, long tasks, a drain between them, short
//! sessions after a long one and a slow link, and the order in which
//! `--scheduler fifo` and `--scheduler priority` start the tasks of
//! several tenants. Each failure mode hangs rather than fails, so every
//! scenario runs under a deadline.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpar_core::joblog;
use htpar_core::sched::SchedPolicy;
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
        config.heartbeat_ms = 40;
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
    /// Tasks the pilot placed in its first shard after the session's
    /// first completion (0 if it placed none).
    first_top_up: u64,
    /// Agents named in the session's joblog rows.
    hosts: BTreeSet<String>,
    /// The session's joblog rows per agent.
    rows: BTreeMap<String, u64>,
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

    // Sessions run one at a time, so each occupancy sample and shard
    // belongs to the session opened last.
    let mut peaks = vec![0; sessions.len()];
    let mut top_ups = vec![None; sessions.len()];
    let mut opened = 0;
    let mut completed = false;
    for event in recorder.events() {
        match event {
            Event::SessionOpened { .. } => {
                opened += 1;
                completed = false;
            }
            Event::SlotOccupancy { busy, total } => {
                assert!(busy <= total, "busy {busy} over total {total}");
                if opened > 0 {
                    peaks[opened - 1] = peaks[opened - 1].max(busy);
                }
            }
            Event::TenantTaskDone { .. } => completed = true,
            Event::TenantShardSent { tasks, .. } if completed => {
                top_ups[opened - 1].get_or_insert(tasks);
            }
            _ => {}
        }
    }
    assert_eq!(opened, sessions.len());
    let runs = peaks
        .into_iter()
        .zip(top_ups)
        .enumerate()
        .map(|(k, (peak_busy, first_top_up))| {
            let log = log_dir.join(format!("{}.joblog", tenant(k)));
            let entries = joblog::read_log(log).expect("tenant joblog");
            verify_exactly_once(&entries, sessions[k].1).expect("one row per seq");
            let mut rows = BTreeMap::new();
            for entry in entries {
                *rows.entry(entry.host).or_insert(0) += 1;
            }
            SessionRun {
                peak_busy,
                first_top_up: first_top_up.unwrap_or(0),
                hosts: rows.keys().cloned().collect(),
                rows,
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

/// Tasks under the queue target but far longer than the no-ops a window
/// was measured on start again from `slots + 1` after a drain too: the
/// first of them to complete shows their length, so the 40 tasks of
/// 500 µs spread over both agents. A window that took a first
/// completion under the queue target as confirming its no-op rate
/// placed the other 34 on the agent that completed first, while the
/// other agent ran only its floor of 3.
#[test]
fn pilot_window_restarts_from_its_floor_for_sub_ms_tasks() {
    let runs = within(Duration::from_secs(120), || {
        run_sessions(
            "submillisecond",
            None,
            &[(Payload::Noop, 20_000), (Payload::SleepUs(500), 40)],
        )
    });
    assert!(runs[0].peak_busy > 16, "no-op windows never grew");
    let rows = &runs[1].rows;
    assert!(
        rows.len() == 2 && rows.values().all(|&n| n >= 8),
        "500 µs tasks per agent {rows:?}"
    );
}

/// A drained window keeps the rate it measured: after a long no-op
/// session, each short one starts at `slots + 1` per agent, regains the
/// depth the no-ops measured at its first completion, and puts more
/// than 16 of its 100 tasks in flight. A window that forgot its rate
/// regrows only through measured intervals of at least a millisecond,
/// so the first shard after a session's first completion replaces no
/// more than the tasks that completed. In a debug build the sessions
/// last long enough for such intervals, so the peaks alone do not tell
/// the two apart; the first shards do.
#[test]
fn pilot_windows_restart_warm_after_a_drain() {
    let mut sessions = vec![(Payload::Noop, 20_000)];
    sessions.extend([(Payload::Noop, 100); 20]);
    let runs = within(Duration::from_secs(120), move || {
        run_sessions("warm", None, &sessions)
    });
    assert!(runs[0].peak_busy > 16, "no-op windows never grew");
    let later = &runs[1..];
    let peaks: Vec<usize> = later.iter().map(|run| run.peak_busy).collect();
    let deep = peaks.iter().filter(|&&peak| peak > 16).count();
    assert!(deep > later.len() / 2, "peaks in flight {peaks:?}");
    // A first shard that only replaces completed tasks holds at most
    // the two agents' floors, 3 each.
    let top_ups: Vec<u64> = later.iter().map(|run| run.first_top_up).collect();
    let warm = top_ups.iter().filter(|&&tasks| tasks > 6).count();
    assert!(
        warm > later.len() / 2,
        "first shards after a completion {top_ups:?}"
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

/// Run `submits` (tenant, priority, tasks) in turn through a pilot
/// under `policy` over one in-process `-j 1` agent, each tenant on its
/// own session and every task a 50 ms sleep, and return the tasks as
/// (tenant, seq) in the order the agent started them. The first submit
/// fills the agent's in-flight window of `slots + 1` tasks; the rest are
/// admitted within a few milliseconds, so they queue behind it.
fn start_order(tag: &str, policy: SchedPolicy, submits: &[(&str, u32, u64)]) -> Vec<(String, u64)> {
    let agent_spec = sock_spec(&format!("{tag}-agent"));
    let agent = spawn_agent(&agent_spec, "a0");
    let log_dir = std::env::temp_dir().join(format!("htpar-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&log_dir);
    let mut tenants: Vec<&str> = submits.iter().map(|&(tenant, ..)| tenant).collect();
    tenants.sort_unstable();
    tenants.dedup();
    let mut config = ServeConfig::new(vec![agent_spec], sock_spec(tag));
    config.jobs_per_agent = 1;
    config.policy = policy;
    config.max_sessions = Some(tenants.len() as u64);
    config.joblog_dir = Some(log_dir.clone());
    let server = PilotServer::bind(config).expect("pilot binds");
    let spec = server.local_spec().expect("pilot spec");
    let serve = std::thread::spawn(move || server.run(None));

    let mut clients: Vec<(&str, SessionClient)> = Vec::new();
    for &(tenant, priority, tasks) in submits {
        let k = match clients.iter().position(|(t, _)| *t == tenant) {
            Some(k) => k,
            None => {
                let mut session = SessionConfig::new(spec.clone(), tenant);
                session.payload = Payload::SleepUs(50_000);
                session.priority = priority;
                let client = SessionClient::connect(session).expect("session connects");
                clients.push((tenant, client));
                clients.len() - 1
            }
        };
        let verdict = clients[k].1.submit(&inputs(tasks)).expect("submit");
        assert!(verdict.accepted, "{tenant}: {}", verdict.reason);
    }
    for (_, client) in clients {
        let submitted = client.submitted();
        assert_eq!(client.finish().expect("session finishes"), submitted);
    }
    serve
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
    agent
        .join()
        .expect("agent thread")
        .expect("agent drained cleanly");

    let mut started = Vec::new();
    for tenant in tenants {
        let entries = joblog::read_log(log_dir.join(format!("{tenant}.joblog"))).expect("joblog");
        started.extend(
            entries
                .into_iter()
                .map(|e| (e.start, tenant.to_string(), e.seq)),
        );
    }
    let _ = std::fs::remove_dir_all(&log_dir);
    started.sort_by(|a, b| a.0.total_cmp(&b.0));
    started.into_iter().map(|(_, t, seq)| (t, seq)).collect()
}

/// `--scheduler fifo` starts tasks in admission order across tenants:
/// tenant A's first batch, all of B's, then A's second batch, although
/// A's two batches share one queue.
#[test]
fn pilot_fifo_starts_tasks_in_admission_order() {
    let order = within(Duration::from_secs(60), || {
        start_order(
            "fifo",
            SchedPolicy::Fifo,
            &[("A", 0, 5), ("B", 0, 5), ("A", 0, 5)],
        )
    });
    let want: Vec<(String, u64)> = (1..=5)
        .map(|seq| ("A".to_string(), seq))
        .chain((1..=5).map(|seq| ("B".to_string(), seq)))
        .chain((6..=10).map(|seq| ("A".to_string(), seq)))
        .collect();
    assert_eq!(order, want);
}

/// `--scheduler priority` runs a high-priority tenant admitted behind a
/// queued low-priority one ahead of the rest of the low tenant's queue:
/// only the low tasks already in the agent's window of `slots + 1`
/// start first.
#[test]
fn pilot_priority_runs_a_later_high_tenant_first() {
    let order = within(Duration::from_secs(60), || {
        start_order(
            "priority",
            SchedPolicy::Priority,
            &[("low", 0, 8), ("high", 9, 4)],
        )
    });
    let tenants: Vec<&str> = order.iter().map(|(t, _)| t.as_str()).collect();
    let first_high = tenants.iter().position(|&t| t == "high").expect("high ran");
    assert!(
        first_high <= 2,
        "{first_high} low tasks started first: {tenants:?}"
    );
    assert_eq!(
        tenants[first_high..first_high + 4],
        ["high"; 4],
        "low tasks ran between high ones: {tenants:?}"
    );
    assert!(tenants[first_high + 4..].iter().all(|&t| t == "low"));
}
