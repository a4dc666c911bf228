//! The driver's allocation budget. This binary installs a counting
//! global allocator that counts only threads which set a thread-local
//! flag, and the thread that calls `run_driver` sets it, so the count is
//! exactly what the driver allocates: placement, shard encoding,
//! completion decoding, the exactly-once record and the joblog. Two
//! in-process agents at `-j 1` run 20,000 no-op tasks with a joblog,
//! under the perfbench template and path-like arguments.
//!
//! A driver that copies every task's arguments into its pending list
//! and again into each agent's shard, and records placement and
//! completion in hash sets, allocates about five times per task; one
//! that places seqs and writes arguments from the borrowed inputs
//! straight into the shard bytes allocates for one render per joblog
//! row and a share of per-batch buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use htpar_core::joblog;
use htpar_net::agent::{self, AgentConfig};
use htpar_net::driver::{run_driver, verify_exactly_once, DriverConfig};
use htpar_net::frame::Payload;

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

const TASKS: usize = 20_000;
/// Most allocations the driver thread may make per task.
const BUDGET: f64 = 2.0;

fn sock_spec(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("htpar-dalloc-{tag}-{}.sock", std::process::id()));
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
fn args() -> Vec<Vec<String>> {
    (0..TASKS)
        .map(|i| {
            let depth = 1 + i % 4;
            let mut path: String = (0..depth)
                .map(|d| format!("dir{}_{}/", (i * 7 + d * 13) % 97, d))
                .collect();
            path.push_str(&format!("sample-{i:05}.dat"));
            vec![path]
        })
        .collect()
}

#[test]
fn driver_allocates_at_most_twice_per_task() {
    let (tx, rx) = mpsc::channel();
    let scenario = std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(per_task) => {
            scenario.join().expect("scenario thread");
            eprintln!("driver thread: {per_task:.2} allocations per task");
            assert!(
                per_task <= BUDGET,
                "driver thread made {per_task:.2} allocations per task, over {BUDGET}"
            );
        }
        Err(RecvTimeoutError::Timeout) => panic!("drive still going after 120 s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(scenario.join().expect_err("scenario sent no result"))
        }
    }
}

/// Run the workload; the driver thread's allocations per task.
fn run() -> f64 {
    let dir = std::env::temp_dir().join(format!("htpar-dalloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
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
    let joblog_path = dir.join("drive.joblog");
    let mut config = DriverConfig::new(agent_specs, "noop {} {/.} {#}");
    config.payload = Payload::Noop;
    config.jobs_per_agent = 1;
    config.joblog = Some(joblog_path.clone());
    let inputs = args();
    COUNTED.set(true);
    let outcome = run_driver(&config, &inputs, None);
    COUNTED.set(false);
    let outcome = outcome.expect("drive succeeds");
    assert_eq!(outcome.completed, TASKS as u64);
    for agent in agents {
        agent.join().expect("agent thread").expect("agent drains");
    }
    let entries = joblog::read_log(&joblog_path).expect("readable joblog");
    verify_exactly_once(&entries, TASKS as u64).expect("one row per seq");
    let _ = std::fs::remove_dir_all(&dir);
    ALLOCATIONS.load(Ordering::Relaxed) as f64 / TASKS as f64
}
