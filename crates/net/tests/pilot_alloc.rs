//! The pilot loop's allocation budget. This binary installs a counting
//! global allocator that counts only threads which set a thread-local
//! flag, and the pilot's serve thread sets it, so the count is exactly
//! what the pilot loop allocates: admission, dispatch, completion,
//! journal and joblogs. Two in-process agents at `-j 1` run four
//! concurrent sessions of 5,000 no-op tasks, journaled and with tenant
//! joblogs, under the perfbench template and path-like arguments.
//!
//! A pilot that renders every command at admission and copies it into
//! its queue, journal and in-flight records allocates about ten times
//! per task; one that keeps each session's template and arguments once
//! allocates for the `Submit` decode, one render per joblog row, and a
//! share of per-batch buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{SessionClient, SessionConfig};
use htpar_net::frame::Payload;
use htpar_net::serve::{PilotServer, ServeConfig};

/// Counts allocations (fresh and resized) made on threads that set
/// [`COUNTED`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting touches only an
// atomic and a const-initialised thread-local with no destructor, and
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SESSIONS: usize = 4;
const TASKS: usize = 5_000;
/// Most allocations the pilot thread may make per task.
const BUDGET: f64 = 4.0;

fn sock_spec(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("htpar-alloc-{tag}-{}.sock", std::process::id()));
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

/// Path-like arguments of varied depth and length, as perfbench's
/// generator makes them.
fn args(session: usize) -> Vec<Vec<String>> {
    (0..TASKS)
        .map(|i| {
            let depth = 1 + i % 4;
            let mut path: String = (0..depth)
                .map(|d| format!("dir{}_{}/", (i * 7 + d * 13 + session) % 97, d))
                .collect();
            path.push_str(&format!("sample-{session}-{i:05}.dat"));
            vec![path]
        })
        .collect()
}

#[test]
fn pilot_allocates_at_most_four_times_per_task() {
    let (tx, rx) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(per_task) => {
            scenario.join().expect("scenario thread");
            eprintln!("pilot thread: {per_task:.2} allocations per task");
            assert!(
                per_task <= BUDGET,
                "pilot thread made {per_task:.2} allocations per task, over {BUDGET}"
            );
        }
        Err(RecvTimeoutError::Timeout) => panic!("pilot run still going after 120 s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(scenario.join().expect_err("scenario sent no result"))
        }
    }
}

/// Run the workload; the pilot thread's allocations per task.
fn run() -> f64 {
    let dir = std::env::temp_dir().join(format!("htpar-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let agent_specs: Vec<String> = (0..2).map(|i| sock_spec(&format!("agent-{i}"))).collect();
    let agents: Vec<_> = agent_specs
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
    let mut config = ServeConfig::new(agent_specs, sock_spec("pilot"));
    config.jobs_per_agent = 1;
    config.max_sessions = Some(SESSIONS as u64);
    config.state_dir = Some(dir.join("state"));
    config.joblog_dir = Some(dir.join("joblogs"));
    let server = PilotServer::bind(config).expect("pilot binds");
    let spec = server.local_spec().expect("pilot spec");
    let serve = std::thread::spawn(move || {
        COUNTED.set(true);
        let outcome = server.run(None);
        COUNTED.set(false);
        outcome
    });
    let clients: Vec<_> = (0..SESSIONS)
        .map(|k| {
            let spec = spec.clone();
            let args = args(k);
            std::thread::spawn(move || {
                let mut session = SessionConfig::new(spec, format!("tenant-{k}"));
                session.payload = Payload::Noop;
                session.command = "noop {} {/.} {#}".to_string();
                let mut client = SessionClient::connect(session).expect("session connects");
                assert!(client.submit(&args).expect("submit").accepted);
                client.finish().expect("session finishes")
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().expect("client thread"), TASKS as u64);
    }
    let outcome = serve
        .join()
        .expect("serve thread")
        .expect("clean serve exit");
    assert_eq!(outcome.completed, (SESSIONS * TASKS) as u64);
    for agent in agents {
        agent.join().expect("agent thread").expect("agent drains");
    }
    let _ = std::fs::remove_dir_all(&dir);
    ALLOCATIONS.load(Ordering::Relaxed) as f64 / (SESSIONS * TASKS) as f64
}
