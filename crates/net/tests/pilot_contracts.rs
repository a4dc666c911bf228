//! The pilot's contracts for a session's tasks, end to end over
//! in-process agents:
//! - a `Submit` carries the seqs that continue the session's, in order;
//!   a gap or a repeat gets a typed refusal and the session goes on;
//! - an accepted `Submit` is on disk: once `submit()` returns, the
//!   journal holds its `Accepted` record with every seq and argument;
//! - recovery renders each command again from the journaled template
//!   and arguments;
//! - a journal in the older layout is refused at bind, by name.
//!
//! Every blocking wait has a deadline.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use htpar_core::joblog;
use htpar_core::template::{ExpandContext, Template};
use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{SessionClient, SessionConfig};
use htpar_net::conn::Conn;
use htpar_net::frame::{Decoder, Frame, Payload, TaskSpec, PROTOCOL_VERSION};
use htpar_net::journal::{read_journal, JRecord, JournalWriter, JOURNAL_FILE};
use htpar_net::serve::{PilotServer, ServeConfig, ServeOutcome};
use htpar_net::NetError;
use htpar_telemetry::{Event, EventBus, Recorder};

/// A fresh scratch directory path for `tag`.
fn temp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("htpar-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn sock_spec(tag: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("htpar-contract-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    format!("unix:{}", path.display())
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

/// A pilot over two in-process `-j 1` agents, serving on its own
/// thread until `sessions` sessions closed.
struct Pilot {
    spec: String,
    serve: JoinHandle<htpar_net::Result<ServeOutcome>>,
    agents: Vec<JoinHandle<htpar_net::Result<agent::AgentReport>>>,
}

impl Pilot {
    fn start(tag: &str, sessions: u64, configure: impl FnOnce(&mut ServeConfig)) -> Pilot {
        let agent_specs: Vec<String> = (0..2)
            .map(|i| sock_spec(&format!("{tag}-agent-{i}")))
            .collect();
        let agents = agent_specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let config = AgentConfig {
                    listen: spec.clone(),
                    name: format!("a{i}"),
                    announce: false,
                };
                let handle = std::thread::spawn(move || agent::serve(&config));
                let path = PathBuf::from(spec.strip_prefix("unix:").expect("unix spec"));
                for _ in 0..400 {
                    if path.exists() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                handle
            })
            .collect();
        let mut config = ServeConfig::new(agent_specs, sock_spec(tag));
        config.jobs_per_agent = 1;
        config.max_sessions = Some(sessions);
        configure(&mut config);
        let server = PilotServer::bind(config).expect("pilot binds");
        let spec = server.local_spec().expect("pilot spec");
        let serve = std::thread::spawn(move || server.run(None));
        Pilot {
            spec,
            serve,
            agents,
        }
    }

    fn finish(self) -> ServeOutcome {
        let outcome = self
            .serve
            .join()
            .expect("serve thread")
            .expect("clean serve exit");
        for agent in self.agents {
            agent.join().expect("agent thread").expect("agent drains");
        }
        outcome
    }
}

fn send(conn: &mut Conn, frame: &Frame) {
    conn.write_all(&frame.encode()).expect("send frame");
    conn.flush().expect("flush frame");
}

/// The next frame; a read timeout set on `conn` bounds the wait.
fn recv(conn: &mut Conn, dec: &mut Decoder) -> Frame {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("well-formed frame") {
            return frame;
        }
        match conn.read(&mut buf) {
            Ok(0) => panic!("pilot closed the session"),
            Ok(n) => dec.extend(&buf[..n]),
            Err(e) => panic!("no frame from the pilot: {e}"),
        }
    }
}

fn submit(id: u64, seqs: &[u64]) -> Frame {
    Frame::Submit {
        tenant: "dense".into(),
        weight: 1,
        priority: 0,
        submit_id: id,
        tasks: seqs
            .iter()
            .map(|&seq| TaskSpec {
                seq,
                args: vec![format!("in-{seq}")],
            })
            .collect(),
    }
}

/// A session's seqs run `1..=n` with no gaps or repeats: a `Submit`
/// with a gap and one with a repeated seq are each refused with a typed
/// verdict, counted as rejected, and the next `Submit` that continues
/// the session's seqs is accepted and runs. Two tasks under one seq
/// would share one in-flight entry, and the session would never finish.
#[test]
fn a_submit_must_continue_the_sessions_seqs() {
    let recorder = Recorder::shared();
    let bus = Arc::new(EventBus::new());
    bus.attach(recorder.clone());
    let pilot = Pilot::start("dense", 1, |config| config.bus = Some(bus));
    let spec = pilot.spec.clone();
    let (verdicts, mut done) = within(Duration::from_secs(30), move || {
        let mut conn = Conn::connect(&spec).expect("dial pilot");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut dec = Decoder::new();
        send(
            &mut conn,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                jobs: 0,
                heartbeat_ms: 0,
                payload: Payload::Noop,
                command: "task {}".into(),
            },
        );
        assert!(matches!(recv(&mut conn, &mut dec), Frame::HelloAck { .. }));
        let mut verdicts = Vec::new();
        for (id, seqs) in [(1, &[1, 3][..]), (2, &[1, 1][..]), (3, &[1, 2][..])] {
            send(&mut conn, &submit(id, seqs));
            match recv(&mut conn, &mut dec) {
                Frame::SessionAck {
                    submit_id,
                    accepted,
                    reason,
                    ..
                } => {
                    assert_eq!(submit_id, id);
                    verdicts.push((accepted, reason));
                }
                other => panic!("expected SessionAck, got {other:?}"),
            }
        }
        send(
            &mut conn,
            &Frame::SessionDone {
                completed: 0,
                reason: String::new(),
            },
        );
        let mut done = Vec::new();
        loop {
            match recv(&mut conn, &mut dec) {
                Frame::DoneBatch { results } => done.extend(results.iter().map(|r| r.seq)),
                Frame::SessionDone { completed, .. } => {
                    assert_eq!(completed, 2);
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        (verdicts, done)
    });
    assert!(!verdicts[0].0, "a gap is refused");
    assert!(
        verdicts[0].1.contains("seq 3 where 2 was due"),
        "{}",
        verdicts[0].1
    );
    assert!(!verdicts[1].0, "a repeat is refused");
    assert!(
        verdicts[1].1.contains("seq 1 where 2 was due"),
        "{}",
        verdicts[1].1
    );
    assert_eq!(verdicts[2], (true, String::new()));
    done.sort_unstable();
    assert_eq!(done, [1, 2]);
    let outcome = pilot.finish();
    assert_eq!(outcome.completed, 2);
    assert_eq!(outcome.rejected_submits, 2);
    assert_eq!(outcome.tenants[0].rejected_submits, 2);
    let rejected = recorder
        .events()
        .iter()
        .filter(|e| matches!(e, Event::SubmitRejected { tasks: 2, .. }))
        .count();
    assert_eq!(rejected, 2);
}

/// The arguments of every task of `session` in the journal at `path`,
/// by seq.
fn journaled_args(path: &Path, session: u64) -> BTreeMap<u64, Vec<String>> {
    let mut args = BTreeMap::new();
    for rec in read_journal(path).expect("journal reads") {
        if let JRecord::Accepted { session: s, tasks } = rec {
            if s == session {
                for task in tasks {
                    assert!(
                        args.insert(task.seq, task.args).is_none(),
                        "seq journaled twice"
                    );
                }
            }
        }
    }
    args
}

/// An ack means the admission is on disk: the pilot commits a loop
/// turn's admissions with one fsync and only then sends their acks, so
/// after every accepted `submit()` the journal already holds the
/// batch's `Accepted` record with every seq and argument.
#[test]
fn an_accepted_submit_is_in_the_journal_when_it_returns() {
    let dir = temp("durable");
    let state = dir.join("state");
    let journal = state.join(JOURNAL_FILE);
    let pilot = Pilot::start("durable", 1, |config| {
        config.state_dir = Some(state.clone());
    });
    let spec = pilot.spec.clone();
    within(Duration::from_secs(30), move || {
        let mut session = SessionConfig::new(spec, "durable");
        session.payload = Payload::SleepUs(200);
        session.command = "run {} {#}".into();
        let mut client = SessionClient::connect(session).expect("session connects");
        let mut want = BTreeMap::new();
        for batch in 0..6u64 {
            let args: Vec<Vec<String>> = (0..40)
                .map(|i| vec![format!("b{batch} #{i}"), format!("x'{i}")])
                .collect();
            assert!(client.submit(&args).expect("submit").accepted);
            for (i, a) in args.into_iter().enumerate() {
                want.insert(batch * 40 + i as u64 + 1, a);
            }
            // The only session of a fresh journal has id 0.
            assert_eq!(journaled_args(&journal, 0), want, "after batch {batch}");
        }
        assert_eq!(client.finish().expect("session finishes"), 240);
    });
    assert_eq!(pilot.finish().completed, 240);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restarted pilot renders each command again: the journal holds the
/// session's template and each task's arguments, and every joblog row
/// it records carries `Template::expand` of its argument and seq, as
/// does the shell directive the agents ran.
#[test]
fn recovery_renders_commands_from_the_journaled_template() {
    let dir = temp("rerender");
    let state = dir.join("state");
    let logs = dir.join("logs");
    let template = "echo {} {#}";
    let args = ["it's", "a  b", "$HOME", "x;y", "plain"];
    {
        let mut w = JournalWriter::open(&state).expect("journal opens");
        w.append(&JRecord::SessionOpen {
            session: 0,
            tenant: "rerender".into(),
            weight: 1,
            priority: 0,
            payload: Payload::Shell,
            template: template.into(),
        });
        w.append(&JRecord::Accepted {
            session: 0,
            tasks: (1..)
                .zip(args)
                .map(|(seq, a)| TaskSpec {
                    seq,
                    args: vec![a.to_string()],
                })
                .collect(),
        });
        w.append(&JRecord::Detached {
            session: 0,
            detach_key: 9,
        });
        w.sync().expect("journal syncs");
    }
    let pilot = Pilot::start("rerender", 1, |config| {
        config.state_dir = Some(state.clone());
        config.joblog_dir = Some(logs.clone());
    });
    let spec = pilot.spec.clone();
    let outputs = within(Duration::from_secs(30), move || {
        let client = SessionClient::reattach(SessionConfig::new(spec, "rerender"), 9)
            .expect("reattach finds the recovered session");
        let mut outputs = BTreeMap::new();
        let completed = client
            .collect(|recs| {
                for r in recs {
                    outputs.insert(r.seq, r.stdout.clone());
                }
            })
            .expect("collect");
        assert_eq!(completed, args.len() as u64);
        outputs
    });
    assert_eq!(pilot.finish().completed, args.len() as u64);
    let parsed = Template::parse(template).unwrap();
    let rows = joblog::read_log(logs.join("rerender.joblog")).expect("tenant joblog");
    assert_eq!(rows.len(), args.len());
    for row in rows {
        let arg = args[(row.seq - 1) as usize].to_string();
        let command = parsed.expand(&ExpandContext {
            args: std::slice::from_ref(&arg),
            seq: row.seq,
            slot: 0,
        });
        assert_eq!(row.command, command);
        assert_eq!(outputs[&row.seq], format!("{arg} {}\n", row.seq));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal in the layout before records held arguments, built here
/// byte by byte. Every record is `[u32 LE body length][u8 tag][body]`;
/// integers are little-endian and strings are a u32 length and UTF-8
/// bytes. `SessionOpen` was tag 1: session (u64), tenant (string),
/// weight (u32), priority (u32). `Accepted` was tag 2: session (u64), a
/// task count (u32), then each task's seq (u64), rendered command
/// (string) and directive (string). `Done` (tag 3: session, a count and
/// that many seqs) kept its layout.
fn older_journal() -> Vec<u8> {
    fn string(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    fn record(out: &mut Vec<u8>, body: &[u8]) {
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
    }
    let mut journal = Vec::new();
    let mut open = vec![1u8];
    open.extend_from_slice(&0u64.to_le_bytes());
    string(&mut open, "astro/sim");
    open.extend_from_slice(&1u32.to_le_bytes());
    open.extend_from_slice(&0u32.to_le_bytes());
    record(&mut journal, &open);
    let mut accepted = vec![2u8];
    accepted.extend_from_slice(&0u64.to_le_bytes());
    accepted.extend_from_slice(&2u32.to_le_bytes());
    for seq in 1..=2u64 {
        accepted.extend_from_slice(&seq.to_le_bytes());
        string(&mut accepted, &format!("echo {seq}"));
        string(&mut accepted, &format!("sh:echo {seq}"));
    }
    record(&mut journal, &accepted);
    let mut done = vec![3u8];
    done.extend_from_slice(&0u64.to_le_bytes());
    done.extend_from_slice(&1u32.to_le_bytes());
    done.extend_from_slice(&1u64.to_le_bytes());
    record(&mut journal, &done);
    journal
}

/// A pilot refuses at bind a journal whose records hold rendered
/// commands, with a typed error naming the file, and leaves it as it
/// was: one replay path, no silent loss of its sessions.
#[test]
fn a_journal_in_the_older_layout_is_refused_at_bind() {
    let state = temp("older");
    std::fs::create_dir_all(&state).unwrap();
    let path = state.join(JOURNAL_FILE);
    let bytes = older_journal();
    std::fs::write(&path, &bytes).unwrap();
    let mut config = ServeConfig::new(vec![sock_spec("older-agent")], sock_spec("older"));
    config.state_dir = Some(state.clone());
    match PilotServer::bind(config) {
        Err(err @ NetError::OlderJournal { .. }) => {
            assert!(
                err.to_string().contains(&path.display().to_string()),
                "{err}"
            );
            let NetError::OlderJournal { path: named } = err else {
                unreachable!()
            };
            assert_eq!(named, path);
        }
        Err(other) => panic!("expected OlderJournal, got {other}"),
        Ok(_) => panic!("a pilot bound on an older journal"),
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "journal left as it was"
    );
    let _ = std::fs::remove_dir_all(&state);
}
