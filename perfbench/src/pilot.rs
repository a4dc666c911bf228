//! `pilot_sessions`: a `PilotServer` over `nproc` agents at `-j 1` with
//! the fair scheduler, the journal (`state_dir`) and per-tenant joblogs
//! on. `nproc` client threads, one tenant each, run sessions back to
//! back in a closed loop: each waits for its session to finish before
//! opening the next. Session sizes are log-uniform over 10 to 5,000
//! no-op tasks.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use htpar_core::joblog;
use htpar_net::client::{ClientEvent, SessionClient, SessionConfig};
use htpar_net::frame::Payload;
use htpar_net::serve::{PilotServer, ServeConfig, ServeOutcome};
use htpar_telemetry::EventBus;

use crate::check;
use crate::drive::{spawn_cluster, teardown};
use crate::gen::{self, Rng};
use crate::layers::{per_second, Inputs, Layers, SlotTime, PROBE_CAP};
use crate::stats::{median, Dist};
use crate::trace::{Counts, Span, Tracer};
use crate::util::{gather, show, with_deadline, Outcome};
use crate::{Ctx, TEMPLATE};

/// Deadlines on a pilot's sessions, on its serve loop after the last
/// session, and on its bind.
const CLIENTS_DEADLINE: Duration = Duration::from_secs(90);
const SERVE_DEADLINE: Duration = Duration::from_secs(30);
const BIND_DEADLINE: Duration = Duration::from_secs(20);

struct Plan {
    sessions_per_client: usize,
    min_sessions: usize,
    lo: u64,
    hi: u64,
}

/// Client-side stamps of one session, in ms from its `connect()` call.
#[derive(Debug, Clone)]
struct Session {
    tasks: u64,
    completed: u64,
    connect: f64,
    admitted: f64,
    first_done: f64,
    last_done: f64,
    finished: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Run one session to completion and stamp its phases.
fn session(spec: &str, tenant: &str, args: &[Vec<String>]) -> Result<Session, String> {
    let mut config = SessionConfig::new(spec, tenant);
    config.payload = Payload::Noop;
    config.command = TEMPLATE.to_string();
    let t0 = Instant::now();
    let mut client = SessionClient::connect(config).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    let verdict = client.submit(args).map_err(|e| format!("submit: {e}"))?;
    let admitted = Instant::now();
    if !verdict.accepted {
        return Err(format!("admission refused: {}", verdict.reason));
    }
    let tasks = args.len() as u64;
    let (mut first, mut last) = (None, admitted);
    while client.completed() < tasks {
        match client.recv().map_err(|e| format!("recv: {e}"))? {
            ClientEvent::Done(_) => {
                last = Instant::now();
                first.get_or_insert(last);
            }
            other => return Err(format!("unexpected event {other:?}")),
        }
    }
    let first = first.unwrap_or(last);
    let completed = client.finish().map_err(|e| format!("finish: {e}"))?;
    let finished = Instant::now();
    Ok(Session {
        tasks,
        completed,
        connect: ms(t0, connected),
        admitted: ms(t0, admitted),
        first_done: ms(t0, first),
        last_done: ms(t0, last),
        finished: ms(t0, finished),
    })
}

/// One client thread's sessions, back to back under one tenant. Each
/// session's arguments are generated just before it opens, so the
/// benchmark holds one session's inputs per client at a time.
fn client(
    spec: String,
    c: usize,
    sizes: Vec<u64>,
    mut rng: Rng,
    origin: Instant,
) -> Result<Vec<(Session, u64)>, String> {
    let mut out = Vec::with_capacity(sizes.len());
    for n in sizes {
        let args: Vec<Vec<String>> = gen::path_args(&mut rng, n as usize)
            .into_iter()
            .map(|a| vec![a])
            .collect();
        let start_ns = origin.elapsed().as_nanos() as u64;
        out.push((session(&spec, &tenant(c), &args)?, start_ns));
    }
    Ok(out)
}

/// What one pilot round produced.
struct Round {
    setup: f64,
    wall: Duration,
    start: Instant,
    end: Instant,
    sessions: Vec<Vec<(Session, u64)>>,
    serve: ServeOutcome,
}

fn tenant(c: usize) -> String {
    format!("tenant-{c}")
}

/// Client `c`'s argument stream in pilot round `round`: its sessions
/// draw their arguments from it in order.
fn args_rng(seed: u64, c: usize, round: usize) -> Rng {
    Rng::new(seed, &format!("session-args-{c}"), round as u64)
}

fn pilot_round(
    ctx: &Ctx,
    p: &Plan,
    round: usize,
    dir: &Path,
    bus: Option<Arc<EventBus>>,
) -> Result<Round, String> {
    let clients = ctx.slots;
    let sizes = gen::session_sizes(
        &mut Rng::new(ctx.seed, "sessions", round as u64),
        clients * p.sessions_per_client,
        p.lo,
        p.hi,
    );

    let setup_start = Instant::now();
    let cluster = spawn_cluster(ctx, ctx.slots)?;
    let mut config = ServeConfig::new(cluster.specs.clone(), "127.0.0.1:0");
    config.jobs_per_agent = 1;
    config.max_sessions = Some((clients * p.sessions_per_client) as u64);
    config.state_dir = Some(dir.join("state"));
    config.joblog_dir = Some(dir.join("joblogs"));
    config.bus = bus;
    let server = with_deadline("pilot bind", BIND_DEADLINE, move || {
        PilotServer::bind(config)
    })?
    .map_err(|e| format!("pilot bind: {e}"))?;
    let spec = server
        .local_spec()
        .map_err(|e| format!("pilot spec: {e}"))?;
    let setup = setup_start.elapsed().as_secs_f64();

    let (serve_tx, serve_rx) = mpsc::channel();
    let serve = std::thread::spawn(move || {
        let _ = serve_tx.send(server.run(None));
    });
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let sizes = sizes[c * p.sessions_per_client..(c + 1) * p.sessions_per_client].to_vec();
        let rng = args_rng(ctx.seed, c, round);
        let (tx, spec, origin) = (tx.clone(), spec.clone(), ctx.origin);
        handles.push(std::thread::spawn(move || {
            let _ = tx.send((c, client(spec, c, sizes, rng, origin)));
        }));
    }
    let mut results = gather("pilot clients", &rx, clients, CLIENTS_DEADLINE)?;
    let end = Instant::now();
    for h in handles {
        h.join().map_err(|_| "client thread panicked".to_string())?;
    }
    let serve_outcome = gather("pilot serve loop", &serve_rx, 1, SERVE_DEADLINE)?
        .pop()
        .expect("gathered one")
        .map_err(|e| format!("serve: {e}"))?;
    serve
        .join()
        .map_err(|_| "serve thread panicked".to_string())?;
    teardown(cluster)?;

    results.sort_by_key(|(c, _)| *c);
    let sessions = results
        .into_iter()
        .map(|(_, r)| r)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Round {
        setup,
        wall: end - start,
        start,
        end,
        sessions,
        serve: serve_outcome,
    })
}

/// Check a round's sessions and tenant joblogs; returns the rows of the
/// first tenant's joblog for the layer probes.
fn check_round(dir: &Path, r: &Round, round: usize, out: &mut Outcome) -> Vec<joblog::LogEntry> {
    let mut first_rows = Vec::new();
    for (c, sessions) in r.sessions.iter().enumerate() {
        out.attempted += sessions.len() as u64;
        let short = sessions
            .iter()
            .filter(|(s, _)| s.completed != s.tasks)
            .count() as u64;
        if short > 0 {
            out.fail(
                short,
                format!("round {round}: {short} sessions of tenant {c} completed short"),
            );
        }
        let path: PathBuf = dir.join("joblogs").join(format!("{}.joblog", tenant(c)));
        let sizes: Vec<u64> = sessions.iter().map(|(s, _)| s.tasks).collect();
        match joblog::read_log(&path) {
            Ok(rows) => match check::tenant_segments(&rows, &sizes) {
                Ok(()) if c == 0 => first_rows = rows,
                Ok(()) => {}
                Err((bad, why)) => out.fail(bad, format!("round {round}, tenant {c}: {why}")),
            },
            Err(e) => out.fail(
                sessions.len() as u64,
                format!("round {round}: reading {}: {e}", path.display()),
            ),
        }
    }
    first_rows
}

pub fn run(
    ctx: &Ctx,
    out: &mut Outcome,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let p = if ctx.tiny {
        Plan {
            sessions_per_client: 5,
            min_sessions: 10,
            lo: 10,
            hi: 50,
        }
    } else {
        Plan {
            sessions_per_client: 50,
            min_sessions: 1000,
            lo: 10,
            hi: 5000,
        }
    };
    let (counts, bus) = Counts::on_bus();
    let (mut untraced, mut traced, mut setups, mut per_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut d = [(); 9].map(|_| Dist::default());
    let [ttft, total, connect, admit, first_done, drain, finish, traced_ttft, traced_total] =
        &mut d;
    let mut slot_time = SlotTime::default();
    let (mut peak_queue, mut skews, mut dups) = (0u64, Vec::new(), 0u64);
    let (mut sessions_done, mut traced_sessions, mut tasks_done) = (0usize, 0usize, 0u64);
    let (mut last_rows, mut last_round) = (Vec::new(), 0);
    let since = Instant::now();
    let mut round = 0usize;
    while ctx.another_round(since, round)
        || sessions_done < p.min_sessions
        || (ctx.trace && traced_sessions < p.min_sessions)
    {
        let is_traced = ctx.traced(round);
        let dir = ctx.dir.sub(&format!("r{round}"))?;
        let r = pilot_round(ctx, &p, round, &dir, is_traced.then(|| bus.clone()))?;
        setups.push(r.setup);
        let rows = check_round(&dir, &r, round, out);
        let n_sessions: usize = r.sessions.iter().map(Vec::len).sum();
        let tasks: u64 = r.sessions.iter().flatten().map(|(s, _)| s.completed).sum();
        let rate = (tasks as f64, r.wall.as_secs_f64());
        if is_traced {
            traced.push(rate);
            traced_sessions += n_sessions;
            // One track per client; each session's phases are children.
            let mut children = Vec::new();
            for (c, sessions) in r.sessions.iter().enumerate() {
                for (s, at) in sessions {
                    let ns = |ms: f64| at + (ms * 1e6) as u64;
                    for (layer, a, b) in [
                        ("client.connect", 0.0, s.connect),
                        ("serve.admit", s.connect, s.admitted),
                        ("serve.first_done", s.admitted, s.first_done),
                        ("serve.drain", s.first_done, s.last_done),
                        ("serve.finish", s.last_done, s.finished),
                    ] {
                        children.push(Span {
                            layer,
                            track: c,
                            width: 1,
                            start_ns: ns(a),
                            end_ns: ns(b),
                        });
                    }
                    connect.push(s.connect);
                    admit.push(s.admitted - s.connect);
                    first_done.push(s.first_done - s.admitted);
                    drain.push(s.last_done - s.first_done);
                    finish.push(s.finished - s.last_done);
                    traced_ttft.push(s.first_done - s.connect);
                    traced_total.push(s.finished);
                }
            }
            let parent = Span {
                layer: "pilot",
                track: 0,
                width: ctx.slots,
                start_ns: tracer.ns(r.start),
                end_ns: tracer.ns(r.end),
            };
            // The agents run the tasks out of sight: no execute spans.
            slot_time.add(&parent, &[], tasks);
            tracer.account(parent, &children, true);
            let done: Vec<u64> = r.serve.agents.iter().map(|a| a.done).collect();
            if let (Some(hi), Some(lo)) = (done.iter().max(), done.iter().min()) {
                skews.push(*hi as f64 / (*lo).max(1) as f64);
            }
            peak_queue = peak_queue.max(
                r.serve
                    .agents
                    .iter()
                    .map(|a| a.peak_queue_bytes)
                    .max()
                    .unwrap_or(0),
            );
            dups += r.serve.duplicates;
        } else {
            untraced.push(rate);
            sessions_done += n_sessions;
            tasks_done += tasks;
            per_s.push((n_sessions as f64, r.wall.as_secs_f64()));
            for (s, _) in r.sessions.iter().flatten() {
                ttft.push(s.first_done - s.connect);
                total.push(s.finished);
            }
        }
        if !rows.is_empty() {
            (last_rows, last_round) = (rows, round);
        }
        let _ = std::fs::remove_dir_all(&dir);
        round += 1;
    }
    layers.rates(&untraced, &traced);
    layers.setup_s = median(&setups);

    let (t50, t99) = ttft.p50_p99();
    let (s50, s99) = total.p50_p99();
    out.note(format!(
        "pilot_sessions seed={} agents={} x -j1 clients={} rounds={round} sessions={} tasks={tasks_done} (untraced)",
        ctx.seed, ctx.slots, ctx.slots, sessions_done
    ));
    layers.note_end_to_end(
        out,
        &untraced,
        "untraced pilots",
        &setups,
        "fleet spawns and binds",
    );
    for (name, v) in [
        (
            "sessions_per_s",
            format!("{:.2} sessions/s", per_second(&per_s)),
        ),
        ("ttft_p50_ms", show(t50, "ms")),
        ("ttft_p99_ms", show(t99, "ms")),
        ("session_p50_ms", show(s50, "ms")),
        ("session_p99_ms", show(s99, "ms")),
    ] {
        out.note(format!("  {name:<28} {v}"));
    }
    out.note(format!("  (latency samples: {} sessions)", ttft.len()));
    if ctx.trace {
        layers.slot_time(&slot_time);
        let tasks = slot_time.tasks.max(1) as f64;
        layers.frame_bytes_per_task = Counts::get(&counts.frame_bytes) as f64 / tasks;
        layers.tasks_per_grant =
            Counts::get(&counts.grant_tasks) as f64 / Counts::get(&counts.grants).max(1) as f64;
        layers.peak_queue_bytes = peak_queue as f64;
        layers.agent_skew = median(&skews);
        layers.duplicate_frac = dups as f64 / tasks;
        let pct = |d: &Dist| d.p50_p99();
        for (name, v) in [
            ("client.connect_ms_p50", show(pct(connect).0, "ms")),
            ("serve.admit_ms_p50", show(pct(admit).0, "ms")),
            ("serve.admit_ms_p99", show(pct(admit).1, "ms")),
            ("serve.first_done_ms_p50", show(pct(first_done).0, "ms")),
            ("serve.first_done_ms_p99", show(pct(first_done).1, "ms")),
            ("serve.drain_ms_p50", show(pct(drain).0, "ms")),
            ("serve.finish_ms_p50", show(pct(finish).0, "ms")),
            (
                "sched.tasks_per_grant",
                format!("{:.2}", layers.tasks_per_grant),
            ),
            (
                "frame.bytes_per_task",
                format!("{:.2} bytes", layers.frame_bytes_per_task),
            ),
            (
                "driver.peak_queue_bytes",
                format!("{}", layers.peak_queue_bytes),
            ),
            ("driver.agent_skew", format!("{:.4}", layers.agent_skew)),
            (
                "driver.duplicate_frac",
                format!("{}", layers.duplicate_frac),
            ),
            ("traced ttft_p50_ms", show(pct(traced_ttft).0, "ms")),
            ("traced session_p50_ms", show(pct(traced_total).0, "ms")),
        ] {
            out.note(format!("  {name:<28} {v}"));
        }
        out.note(format!(
            "  (traced latency samples: {} sessions)",
            connect.len()
        ));
    }
    // Tenant 0's arguments of that round, in the order its rows log them.
    let n = last_rows.len().min(PROBE_CAP);
    let args = gen::path_args(&mut args_rng(ctx.seed, 0, last_round), n);
    Ok(Inputs::new(TEMPLATE, args, last_rows))
}
