//! A tiny-size run of every workload, untraced and traced, through the
//! same binary and code path the full benchmark uses.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "flat_noop",
    "spawn_true",
    "dag_chain",
    "drive_noop",
    "pilot_sessions",
];

const END_TO_END: [&str; 3] = ["tasks_per_s", "setup_s", "peak_rss_mib"];

const PER_LAYER: [&str; 22] = [
    "template.expand_ns",
    "joblog.row_ns",
    "joblog.bytes_per_task",
    "frame.encode_ns_per_task",
    "frame.decode_ns_per_task",
    "ceil.spawn_per_s",
    "ceil.channel_hop_ns",
    "ceil.socketpair_rtt_us",
    "ceil.fsync_ms",
    "runner.overhead_ns_per_task",
    "runner.slot_busy_frac",
    "runner.collector_backlog_max",
    "spawn.bypass_frac",
    "dag.width_mean",
    "frame.bytes_per_task",
    "driver.tasks_per_shard",
    "driver.peak_queue_bytes",
    "driver.agent_skew",
    "driver.duplicate_frac",
    "sched.tasks_per_grant",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

/// Run one tiny workload in its own directory; return stdout.
fn tiny(workload: &str, trace: u8) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The run removes its own working directory; only traces remain.
    let left: Vec<_> = std::fs::read_dir(dir.join(".bench_work"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(left.iter().all(|n| n == "traces"), "{left:?}");
    stdout
}

fn check_result(stdout: &str, names: &[&str]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
    assert_eq!(last.matches("\"value\"").count(), names.len(), "{last}");
}

#[test]
fn every_workload_runs_tiny_untraced() {
    for w in WORKLOADS {
        let stdout = tiny(w, 0);
        check_result(&stdout, &END_TO_END);
        assert!(stdout.contains("fail_frac"), "{stdout}");
    }
}

#[test]
fn every_workload_runs_tiny_traced() {
    for w in WORKLOADS {
        let stdout = tiny(w, 1);
        check_result(&stdout, &PER_LAYER);
        assert!(stdout.contains("layer self time"), "{stdout}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
