//! Regression gates: `gate [NAME...] [--trials N] [--jsonl PATH]`.
//!
//! Runs each named gate (all of them, in table order, when none is
//! named) through the harness in `crates/bench/src/harness.rs`: up to
//! `--trials` trials per gate (default 3), passing at the first trial
//! that clears every one of the gate's rows. Every trial prints one
//! line and, with `--jsonl`, appends one JSON record to PATH. Exits 1
//! when any gate misses, 2 on bad usage. CI runs this in release; each
//! gate's `*_rate_gate.rs` test file checks the same rows in debug.
//!
//! To verify a gate trips, set `HTPAR_GATE_HANDICAP_US` to an
//! artificial per-task cost in microseconds and watch it fail. This
//! binary re-executes itself as the net and pilot gates' agents.

use std::fs::File;
use std::io::Write;
use std::time::Duration;

use htpar_bench::harness::{self, Ctx, GATES};

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
    eprintln!("gate: {problem}\nusage: gate [NAME...] [--trials N] [--jsonl PATH]");
    eprintln!("gates: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    // Children spawned by the gates' mini-clusters become agents here.
    htpar_net::local::maybe_become_agent();

    let mut gates = Vec::new();
    let mut trials = harness::TRIALS;
    let mut jsonl = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => trials = n,
                _ => usage("--trials needs a positive count"),
            },
            "--jsonl" => jsonl = Some(args.next().unwrap_or_else(|| usage("--jsonl needs a path"))),
            name => match harness::find(name) {
                Some(gate) => gates.push(gate),
                None => usage(&format!("unknown gate {name:?}")),
            },
        }
    }
    if gates.is_empty() {
        gates.extend(GATES);
    }
    let mut out = jsonl.map(|path| {
        File::options()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| usage(&format!("cannot open {path}: {e}")))
    });
    let ctx = Ctx {
        handicap: std::env::var(harness::ENV_HANDICAP_US)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&us| us > 0)
            .map(Duration::from_micros),
        agent: std::env::current_exe().expect("the gate binary knows its own path"),
    };
    if let Some(cost) = ctx.handicap {
        println!("handicap: {cost:?} per task (simulated slowdown)");
    }

    let mut failed = false;
    for gate in gates {
        let sink = out.as_mut().map(|f| f as &mut dyn Write);
        match harness::run(gate, &ctx, trials, sink) {
            Ok(()) => println!("PASS {}", gate.name),
            Err(misses) => {
                eprintln!("FAIL {misses}");
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}
