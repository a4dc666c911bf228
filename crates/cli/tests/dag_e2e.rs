//! End-to-end acceptance tests for `htpar drive --dag`: a 10k-task
//! diamond graph over a real local cluster with a chaos-SIGKILLed
//! agent, and driver-SIGKILL + `--resume` replaying exactly the
//! unfinished subgraph. Both runs must leave an exactly-once joblog in
//! which every task's dependencies are logged before it.
//!
//! Then `htpar --dag`, on real processes: a graph run prints its
//! tasks' output, takes `-k`, `--tag`, `--retries`, `--timeout` and
//! `--dry-run` like any `htpar` run, and exits by `htpar`'s rule.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use htpar_core::dag::{Dag, DagSpec, SKIPPED_DEP_FAILED};
use htpar_core::joblog;
use htpar_net::driver::verify_exactly_once;

fn htpar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_htpar"))
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("htpar-dag-e2e-{tag}-{}", std::process::id()))
}

/// Write a diamond-chain DAG of `tasks` nodes (a multiple of 4): blocks
/// of head → two arms → join, each head depending on the previous join.
/// Returns the 1-based dependency list per seq (seq = line order + 1)
/// of the generated file.
fn write_diamond(path: &Path, tasks: u64) -> Vec<Vec<u64>> {
    assert_eq!(tasks % 4, 0, "diamond blocks are 4 tasks");
    let mut spec = String::new();
    let mut deps: Vec<Vec<u64>> = Vec::with_capacity(tasks as usize);
    for b in 0..tasks / 4 {
        let head = 4 * b + 1;
        let (a1, a2, join) = (head + 1, head + 2, head + 3);
        if b == 0 {
            spec.push_str(&format!("t{head}: task {head}\n"));
            deps.push(vec![]);
        } else {
            spec.push_str(&format!("t{head}: task {head} # after: t{}\n", head - 1));
            deps.push(vec![head - 1]);
        }
        spec.push_str(&format!("t{a1}: task {a1} # after: t{head}\n"));
        deps.push(vec![head]);
        spec.push_str(&format!("t{a2}: task {a2} # after: t{head}\n"));
        deps.push(vec![head]);
        spec.push_str(&format!("t{join}: task {join} # after: t{a1},t{a2}\n"));
        deps.push(vec![a1, a2]);
    }
    std::fs::write(path, spec).expect("write dag file");
    deps
}

/// Every row's dependencies must appear earlier in the joblog than the
/// row itself — the scheduler never dispatched a task before its
/// dependencies completed, and the log preserves that order.
fn assert_deps_logged_first(log: &Path, deps: &[Vec<u64>]) {
    let entries = joblog::read_log(log).expect("readable joblog");
    let mut seen = vec![false; deps.len() + 1];
    for entry in &entries {
        for &dep in &deps[(entry.seq - 1) as usize] {
            assert!(
                seen[dep as usize],
                "seq {} logged before its dependency {dep}",
                entry.seq
            );
        }
        seen[entry.seq as usize] = true;
    }
}

/// Pull `(completed, total, skipped)` out of the drive summary line.
fn summary(stderr: &str) -> (u64, u64, u64) {
    for line in stderr.lines() {
        if let Some(rest) = line.strip_prefix("htpar drive: ") {
            if rest.contains("task(s) in") {
                let tokens: Vec<&str> = rest.split_whitespace().collect();
                let (completed, total) = tokens[0].split_once('/').expect("completed/total");
                let skipped_at = tokens
                    .iter()
                    .position(|t| *t == "skipped," || *t == "skipped")
                    .expect("skipped field");
                return (
                    completed.parse().unwrap(),
                    total.parse().unwrap(),
                    tokens[skipped_at - 1].parse().unwrap(),
                );
            }
        }
    }
    panic!("no drive summary in stderr:\n{stderr}");
}

/// The issue's acceptance scenario: a 10k-task diamond DAG under
/// `htpar drive --local-cluster 4` with one agent chaos-SIGKILLed
/// mid-graph. The run completes every task exactly once, and no row
/// precedes a row for one of its dependencies.
#[test]
fn diamond_dag_with_chaos_killed_agent_completes_exactly_once_in_dep_order() {
    let dag_file = temp_path("diamond.dag");
    let log = temp_path("diamond.joblog");
    let _ = std::fs::remove_file(&log);
    let total = 10_000u64;
    let deps = write_diamond(&dag_file, total);

    let out = htpar()
        .args([
            "drive",
            "--local-cluster",
            "4",
            "-j",
            "4",
            "--payload",
            "sleep:200",
            "--chaos-kill-agent",
            "2@1000",
            "--dag",
            dag_file.to_str().unwrap(),
            "--joblog",
            log.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run htpar drive --dag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "drive failed:\n{stderr}");
    assert!(
        stderr.contains("chaos: killing agent 2"),
        "chaos hook never fired:\n{stderr}"
    );
    assert!(
        stderr.contains("[lost]"),
        "agent 2 not reported lost:\n{stderr}"
    );
    let (completed, reported_total, skipped) = summary(&stderr);
    assert_eq!((completed, reported_total, skipped), (total, total, 0));

    let entries = joblog::read_log(&log).expect("readable joblog");
    verify_exactly_once(&entries, total).unwrap_or_else(|e| panic!("joblog not exactly-once: {e}"));
    assert_deps_logged_first(&log, &deps);
    let _ = std::fs::remove_file(&dag_file);
    let _ = std::fs::remove_file(&log);
}

/// SIGKILL the *driver* mid-graph, then `--dag --resume`: the second
/// run keeps every successfully logged task and replays exactly the
/// unfinished subgraph, and the merged joblog is exactly-once with
/// dependencies still ahead of their dependents.
#[test]
fn driver_sigkill_then_dag_resume_replays_exactly_the_unfinished_subgraph() {
    let dag_file = temp_path("resume.dag");
    let log = temp_path("resume.joblog");
    let _ = std::fs::remove_file(&log);
    let total = 400u64;
    let deps = write_diamond(&dag_file, total);

    let mut child = htpar()
        .args([
            "drive",
            "--local-cluster",
            "2",
            "-j",
            "2",
            "--payload",
            "sleep:20000",
            "--dag",
            dag_file.to_str().unwrap(),
            "--joblog",
            log.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn htpar drive --dag");

    // Per-row flushing means complete joblog lines appear while the run
    // is live; kill the driver once a real prefix is on disk.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let rows = std::fs::read_to_string(&log)
            .map(|s| s.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if rows >= 50 {
            break;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("first run never logged 50 rows");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let first_run = joblog::completed_seqs(&joblog::read_log(&log).expect("readable joblog"));
    assert!(!first_run.is_empty() && (first_run.len() as u64) < total);

    let out = htpar()
        .args([
            "drive",
            "--local-cluster",
            "2",
            "-j",
            "2",
            "--payload",
            "sleep:1000",
            "--resume",
            "--dag",
            dag_file.to_str().unwrap(),
            "--joblog",
            log.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run resume drive");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "resume drive failed:\n{stderr}");
    let (completed, reported_total, skipped) = summary(&stderr);
    assert_eq!(reported_total, total);
    assert_eq!(
        skipped,
        first_run.len() as u64,
        "resume must keep exactly the logged subgraph"
    );
    assert_eq!(
        completed,
        total - first_run.len() as u64,
        "resume must replay exactly the unfinished subgraph"
    );

    let entries = joblog::read_log(&log).expect("readable joblog");
    verify_exactly_once(&entries, total).unwrap_or_else(|e| panic!("joblog not exactly-once: {e}"));
    assert_deps_logged_first(&log, &deps);
    let _ = std::fs::remove_file(&dag_file);
    let _ = std::fs::remove_file(&log);
}

/// A fresh working directory holding `g.dag` with `graph`.
fn graph_dir(tag: &str, graph: &str) -> PathBuf {
    let dir = temp_path(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("g.dag"), graph).unwrap();
    dir
}

/// Run `htpar ARGS` in `dir` with `stdin`: (stdout, stderr, exit status).
fn run_in(dir: &Path, args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = htpar()
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn htpar");
    // A run that refuses its command line may exit before reading.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    let out = child.wait_with_output().unwrap();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let code = out.status.code().unwrap_or(-1);
    (text(&out.stdout), text(&out.stderr), code)
}

/// A two-link chain prints both tasks' output in dependency order, even
/// when the first link is the slower one; `-k --tag` prefixes each line
/// with its task's command.
#[test]
fn dag_chain_prints_its_output_in_dependency_order() {
    let dir = graph_dir(
        "chain",
        "a: sleep 0.2; echo first\nb: echo second # after: a\n",
    );
    let (out, err, code) = run_in(&dir, &["-j", "2", "--dag", "g.dag"], "");
    assert_eq!((out.as_str(), code), ("first\nsecond\n", 0), "{err}");
    let (out, err, code) = run_in(&dir, &["-k", "--tag", "--dag", "g.dag"], "");
    let tagged = "sleep 0.2; echo first\tfirst\necho second\tsecond\n";
    assert_eq!((out.as_str(), code), (tagged, 0), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--retries 1` re-runs a node that fails once, and its dependent then
/// runs.
#[test]
fn dag_retries_rescue_a_node_that_fails_once() {
    let graph = "m: test -e m || { touch m; exit 3; }\nn: echo after-m # after: m\n";
    let dir = graph_dir("retries", graph);
    let (out, err, code) = run_in(
        &dir,
        &["--retries", "1", "--joblog", "J", "--dag", "g.dag"],
        "",
    );
    assert_eq!((out.as_str(), code), ("after-m\n", 0), "{err}");
    let entries = joblog::read_log(dir.join("J")).unwrap();
    assert_eq!(entries.len(), 2);
    assert!(entries.iter().all(|e| e.exitval == 0), "{entries:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--timeout` kills a node, whose dependent gets a `skipped-dep-failed`
/// row instead of running; with one more failed node, the run exits 2
/// (skipped tasks do not count) and names both failures on stderr.
#[test]
fn dag_timeout_fails_a_node_and_skips_its_dependent() {
    let dir = graph_dir(
        "timeout",
        "s: sleep 5\nd: echo never # after: s\nf: exit 7\n",
    );
    let started = Instant::now();
    let args = ["--timeout", "200ms", "--joblog", "J", "--dag", "g.dag"];
    let (out, err, code) = run_in(&dir, &args, "");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "the timeout killed sleep 5"
    );
    assert_eq!((out.as_str(), code), ("", 2), "{err}");
    for line in [
        "htpar: failed: s",
        "htpar: failed: f",
        "1 task(s) skipped-dep-failed",
    ] {
        assert!(err.contains(line), "{line:?} missing from stderr:\n{err}");
    }
    let entries = joblog::read_log(dir.join("J")).unwrap();
    let skipped: Vec<_> = entries
        .iter()
        .filter(|e| e.host == SKIPPED_DEP_FAILED)
        .collect();
    assert_eq!(skipped.len(), 1, "{entries:?}");
    assert_eq!((skipped[0].seq, skipped[0].exitval), (2, -2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `htpar ARGS` in `dir`: each line of its stdout with the time it
/// arrived since the start, and its exit status.
fn timed_lines(dir: &Path, args: &[&str]) -> (Vec<(String, Duration)>, i32) {
    let started = Instant::now();
    let mut child = htpar()
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn htpar");
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let lines = stdout
        .lines()
        .map(|line| (line.unwrap(), started.elapsed()))
        .collect();
    let code = child.wait().unwrap().code().unwrap_or(-1);
    (lines, code)
}

/// The text of `lines`, and when `line` arrived.
fn arrival(lines: &[(String, Duration)], line: &str) -> (Vec<String>, Duration) {
    let text = lines.iter().map(|(l, _)| l.clone()).collect();
    let at = lines.iter().find(|(l, _)| l == line).map(|&(_, at)| at);
    (text, at.unwrap_or_else(|| panic!("{line:?} never printed")))
}

/// Under `-k`, a task skipped after its dependency failed produces no
/// output and holds none back: `c-early` prints as soon as it ran, not
/// with the 2 s task after it, and the output stays in seq order.
#[test]
fn keep_order_dag_passes_over_a_skipped_task() {
    let graph = "a: false\nb: echo b # after: a\nc: echo c-early\nd: sleep 2; echo d\n";
    let dir = graph_dir("keep-skip", graph);
    let (lines, code) = timed_lines(&dir, &["-k", "-j", "4", "--dag", "g.dag"]);
    let (text, at) = arrival(&lines, "c-early");
    assert_eq!((text, code), (vec!["c-early".to_string(), "d".into()], 1));
    assert!(at < Duration::from_secs(1), "c-early printed at {at:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `-k`, a task a resumed run finds logged holds no output back:
/// `b-early` prints as soon as it ran, not with the 2 s task after it.
#[test]
fn keep_order_dag_passes_over_a_resumed_task() {
    let dir = graph_dir("keep-resume", "a: echo a\n");
    let (out, err, code) = run_in(&dir, &["--joblog", "J", "--dag", "g.dag"], "");
    assert_eq!((out.as_str(), code), ("a\n", 0), "{err}");
    let graph = "a: echo a\nb: echo b-early\nc: sleep 2; echo c\n";
    std::fs::write(dir.join("g.dag"), graph).unwrap();
    let args = [
        "-k", "-j", "4", "--joblog", "J", "--resume", "--dag", "g.dag",
    ];
    let (lines, code) = timed_lines(&dir, &args);
    let (text, at) = arrival(&lines, "b-early");
    assert_eq!((text, code), (vec!["b-early".to_string(), "c".into()], 0));
    assert!(at < Duration::from_secs(1), "b-early printed at {at:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each task of `dag` by id: its command and its dependencies' ids.
fn shape(dag: &Dag) -> HashMap<String, (String, Vec<String>)> {
    let ids = |deps: &[u32]| {
        deps.iter()
            .map(|&d| dag.node(d as usize).id.clone())
            .collect()
    };
    let nodes = dag.nodes().iter();
    nodes
        .map(|n| (n.id.clone(), (n.command.clone(), ids(&n.deps))))
        .collect()
}

/// `--dag --dry-run` on the shipped §IV-B prefetch pipeline prints a
/// topological plan that the DAG grammar reads back to the same tasks,
/// commands and dependencies, and runs none of them.
#[test]
fn dag_dry_run_plan_reads_back_as_the_same_graph() {
    let example = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/prefetch_pipeline.dag"
    );
    let dir = graph_dir("plan", "");
    let (plan, err, code) = run_in(&dir, &["--dry-run", "--joblog", "J", "--dag", example], "");
    assert_eq!(code, 0, "{err}");
    assert!(!dir.join("J").exists(), "a dry run logs nothing");
    let read = |text: &str| DagSpec::parse(text).and_then(DagSpec::build).unwrap();
    let shipped = read(&std::fs::read_to_string(example).unwrap());
    let planned = read(&plan);
    assert_eq!(planned.len(), 13);
    assert_eq!(shape(&planned), shape(&shipped));
    // Topological: every task's dependencies come before it.
    for (at, node) in planned.nodes().iter().enumerate() {
        assert!(node.deps.iter().all(|&d| (d as usize) < at), "{plan}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retired `htpar dag FILE` is a usage error naming `--dag`: read as
/// the classic grammar it would launch `dag FILE` once per stdin line.
#[test]
fn retired_dag_subcommand_names_the_flag_and_runs_nothing() {
    let dir = graph_dir("retired", "a: touch ran\n");
    let (out, err, code) = run_in(&dir, &["dag", "g.dag"], "x\n");
    assert_eq!((out.as_str(), code), ("", 255), "{err}");
    assert!(err.contains("htpar --dag FILE"), "{err}");
    assert!(!dir.join("ran").exists(), "the graph ran");
    let _ = std::fs::remove_dir_all(&dir);
}
