//! Joblog order under concurrent flushes: chains of fan-out/fan-in
//! blocks run through `DagRunner` at `-j 4` and `-j 8` with a joblog,
//! over 20 seeds. Some tasks sleep 600 µs, so their rows are written at
//! once (the prompt flush); some fail, so skip rows are written too.
//! The joblog must hold one row per task, every task's dependencies
//! before it, and `--resume` must re-run exactly the failed subgraph.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use htpar_core::dag::{Dag, DagRunner, DagSpec, SKIPPED_DEP_FAILED};
use htpar_core::executor::{FnExecutor, TaskOutput};
use htpar_core::joblog::{self, LogEntry};
use htpar_core::options::{Options, ResumeMode};

/// Tasks per graph.
const NODES: usize = 3_000;

/// What a task does when it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Quick,
    /// Sleeps past the 500 µs prompt-flush threshold.
    Slow,
    Fail,
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// `chains` independent chains, `NODES` tasks in all, each a run of
/// blocks: a head, 1–4 arms that depend on it, and a join of the arms
/// that the next block's head depends on. Each task's 0-based deps and
/// kind: 2% are slow and 0.1% fail.
fn chains_of_diamonds(seed: u64, chains: usize) -> Vec<(Vec<usize>, Kind)> {
    let mut rng = Rng(seed);
    let mut nodes: Vec<(Vec<usize>, Kind)> = Vec::with_capacity(NODES);
    let push = |nodes: &mut Vec<_>, deps: Vec<usize>, rng: &mut Rng| {
        let kind = match rng.below(1000) {
            0..=19 => Kind::Slow,
            20 => Kind::Fail,
            _ => Kind::Quick,
        };
        nodes.push((deps, kind));
    };
    for c in 0..chains {
        let end = NODES * (c + 1) / chains;
        let mut tail = None;
        while nodes.len() < end {
            let deps: Vec<usize> = tail.into_iter().collect();
            let width = 1 + rng.below(4) as usize;
            if end - nodes.len() < width + 2 {
                push(&mut nodes, deps, &mut rng);
            } else {
                let head = nodes.len();
                push(&mut nodes, deps, &mut rng);
                for _ in 0..width {
                    push(&mut nodes, vec![head], &mut rng);
                }
                push(&mut nodes, (head + 1..=head + width).collect(), &mut rng);
            }
            tail = Some(nodes.len() - 1);
        }
    }
    nodes
}

fn build(graph: &[(Vec<usize>, Kind)]) -> Dag {
    let mut spec = DagSpec::new();
    for (i, (deps, kind)) in graph.iter().enumerate() {
        let deps = deps.iter().map(|d| format!("t{d}")).collect();
        spec.task(format!("t{i}"), format!("{kind:?} {i}"), deps)
            .unwrap();
    }
    spec.build().unwrap()
}

/// The tasks that fail and the tasks a failure condemns, as 1-based
/// seqs: a task runs only when every dependency succeeded.
fn model(graph: &[(Vec<usize>, Kind)]) -> (HashSet<u64>, HashSet<u64>) {
    let (mut failed, mut skipped) = (HashSet::new(), HashSet::new());
    let bad = |seq: u64, f: &HashSet<u64>, s: &HashSet<u64>| f.contains(&seq) || s.contains(&seq);
    for (i, (deps, kind)) in graph.iter().enumerate() {
        let seq = i as u64 + 1;
        if deps.iter().any(|&d| bad(d as u64 + 1, &failed, &skipped)) {
            skipped.insert(seq);
        } else if *kind == Kind::Fail {
            failed.insert(seq);
        }
    }
    (failed, skipped)
}

/// Run the graph at `-j jobs` with `path` as its joblog; the tasks the
/// executor ran, by seq.
fn run(dag: &Dag, jobs: usize, path: &Path, resume: bool) -> Vec<u64> {
    let ran = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&ran);
    // A resumed run succeeds everywhere: the failures were fixed.
    let exec = FnExecutor::new(move |cmd| {
        seen.lock().unwrap().push(cmd.seq);
        let kind = cmd.rendered().split(' ').next().unwrap_or_default();
        match kind {
            "Slow" => std::thread::sleep(Duration::from_micros(600)),
            "Fail" if !resume => return Ok(TaskOutput::failed(1, "boom")),
            _ => {}
        }
        Ok(TaskOutput::success())
    });
    let runner = DagRunner {
        options: Options {
            jobs,
            shell: false,
            joblog: Some(path.to_path_buf()),
            resume: if resume {
                ResumeMode::ResumeFailed
            } else {
                ResumeMode::Off
            },
            ..Options::default()
        },
        executor: Arc::new(exec),
        bus: None,
    };
    runner.run(dag).expect("the graph runs");
    let ran = ran.lock().unwrap().clone();
    ran
}

/// Every row from `from` on has, earlier in the file, a row for each of
/// its task's dependencies: a successful one, unless it is a skip row.
fn assert_deps_first(rows: &[LogEntry], from: usize, graph: &[(Vec<usize>, Kind)], what: &str) {
    let (mut logged, mut ok) = (vec![false; graph.len()], vec![false; graph.len()]);
    for (at, row) in rows.iter().enumerate() {
        let i = row.seq as usize - 1;
        let skip = row.host == SKIPPED_DEP_FAILED;
        if at >= from {
            for &d in &graph[i].0 {
                let before = if skip { logged[d] } else { ok[d] };
                assert!(
                    before,
                    "{what}: seq {} logged before its dependency {}",
                    row.seq,
                    d + 1
                );
            }
        }
        logged[i] = true;
        ok[i] |= row.succeeded();
    }
}

#[test]
fn chains_of_diamonds_log_deps_first_and_resume_exactly_the_failed_subgraph() {
    let dir = std::env::temp_dir().join(format!("htpar-dag-log-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in 1..=20u64 {
        for jobs in [4, 8] {
            let what = format!("seed {seed} -j {jobs}");
            let graph = chains_of_diamonds(seed, jobs);
            let dag = build(&graph);
            let (failed, skipped) = model(&graph);
            let path = dir.join(format!("s{seed}-j{jobs}.joblog"));
            let _ = std::fs::remove_file(&path);

            let ran = run(&dag, jobs, &path, false);
            assert_eq!(ran.len(), NODES - skipped.len(), "{what}");
            let rows = joblog::read_log(&path).unwrap();
            assert_eq!(rows.len(), NODES, "{what}: one row per task");
            let seqs: HashSet<u64> = rows.iter().map(|r| r.seq).collect();
            assert_eq!(seqs.len(), NODES, "{what}: a task logged twice");
            let logged = |skip: bool| -> HashSet<u64> {
                let rows = rows.iter().filter(|r| !r.succeeded());
                let rows = rows.filter(|r| (r.host == SKIPPED_DEP_FAILED) == skip);
                rows.map(|r| r.seq).collect()
            };
            assert_eq!(logged(false), failed, "{what}: failed rows");
            assert_eq!(logged(true), skipped, "{what}: skip rows");
            assert_deps_first(&rows, 0, &graph, &what);

            let reran: HashSet<u64> = run(&dag, jobs, &path, true).into_iter().collect();
            let subgraph: HashSet<u64> = failed.union(&skipped).copied().collect();
            assert_eq!(reran, subgraph, "{what}: --resume re-ran another set");
            let rows = joblog::read_log(&path).unwrap();
            assert_eq!(rows.len(), NODES + subgraph.len(), "{what}");
            assert_eq!(joblog::successful_seqs(&rows).len(), NODES, "{what}");
            assert_deps_first(&rows, NODES, &graph, &format!("{what} resumed"));
            std::fs::remove_file(&path).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
