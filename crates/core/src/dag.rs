//! DAG workflows: dependency-aware scheduling layered over the flat
//! dispatch path.
//!
//! The paper's workloads are flat task lists; this module is the step
//! beyond embarrassingly-parallel (ROADMAP item 1): tasks whose inputs
//! are other tasks' outputs. The design keeps the paper's thesis intact
//! — the DAG layer adds *scheduling*, not a second execution path. A
//! [`ReadySet`] tracks in-degrees and releases tasks the moment their
//! last dependency completes. Release runs on the worker that finished
//! the dependency ([`Engine::run_released`]), with no central scheduler
//! thread. That worker encodes the task's joblog row before it takes
//! any lock; under the one release lock it appends the row, completes
//! the ready set into a reused [`Completion`] and keeps the first
//! newly-ready task as its own next job, so a chain stays on one slot.
//! After the lock it writes any rows due at the file and sends the rest
//! of the release through [`send_chunks`], the batch rule every
//! producer of engine input shares, for idle slots to claim. Released
//! tasks run through the same engine, the same sharded dispatch, and
//! the same joblog as a flat list. Ready-set overhead is O(1) per edge:
//! one in-degree decrement when a dependency completes, over flat
//! offset-and-index arrays of each node's dependents.
//!
//! ## Spec grammar (command mode)
//!
//! ```text
//! # comment
//! fetch: curl -s http://example/data -o raw.bin
//! chunk: split.sh {} ::: 0 1 2 3            # after: fetch
//! merge: cat chunk.* > out                  # after: chunk
//! ```
//!
//! One task per line: `id: command`. A `# after: id1,id2` suffix names
//! dependencies. A `:::` argument list expands the line into one task
//! per argument (`chunk.1` … `chunk.N`, the command rendered through the
//! usual `{}` template); the bare line id then names the whole group, so
//! `after: chunk` waits for every expansion.
//!
//! ## Spec grammar (make mode)
//!
//! ```text
//! out: mid1 mid2
//! mid1: raw
//! mid2: raw
//! ```
//!
//! Lines are `target: dep dep …` — structure only. Commands come from a
//! command template supplied alongside the spec (`{}` = the target id).
//! A dependency that never appears as a target becomes an implicit leaf
//! task.
//!
//! ## Failure propagation and resume
//!
//! When a task fails, every transitive descendant is marked
//! `skipped-dep-failed` and gets its own joblog row (exitval −2, host
//! column `skipped-dep-failed`) — written *after* the failing
//! dependency's row, so a joblog always records a task's dependencies
//! before the task itself. `--resume` diffs the joblog: tasks with a
//! *successful* row are not re-run; failed tasks, their skipped
//! descendants, and anything unrecorded (including in-flight tasks lost
//! to a crash) replay. That is exactly the affected subgraph.
//!
//! Joblog rows go through the flat engine's sink (`joblog::LogSink`) and
//! are flushed by its rule: after a task that ran at least 500 µs (the
//! write finishes before its successors are released), every 64 rows,
//! before a worker parks on an empty channel, and once at the end of
//! the run, which then fails with the first write error if there was
//! one. Rows reach the file in the order they were appended under the
//! release lock, and no write runs under it. A crash loses at most the
//! unflushed rows, and `--resume` re-runs those tasks.
//!
//! Under `--keep-order`, the hook tells the engine which seqs will never
//! produce a result (resumed tasks at the start, condemned tasks as they
//! are condemned), so the output after them is not held back.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use htpar_telemetry::EventBus;
use parking_lot::Mutex;

use crate::crossbeam_channel::Sender;
use crate::dispatch::send_chunks;
use crate::error::{Error, Result};
use crate::executor::Executor;
use crate::job::JobResult;
use crate::joblog::{self, LogEntry, LogSink, Rows};
use crate::options::{Options, ResumeMode};
use crate::runner::{Engine, JobInput, Release, RunReport, DELIVER_BATCH, PROMPT_DELIVERY};
use crate::template::{ExpandContext, Template};

/// Host column marker for a task skipped because a dependency failed.
/// Paired with exitval −2 (the [`crate::job::JobStatus::Skipped`]
/// convention) so `--resume` re-runs these rows.
pub const SKIPPED_DEP_FAILED: &str = "skipped-dep-failed";

/// Structural errors in a DAG definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The same task id was defined twice.
    DuplicateId(String),
    /// A dependency names a task that does not exist.
    UnknownDep { task: String, dep: String },
    /// The dependency edges contain a cycle; the ids trace it
    /// (`a -> b -> a` means "a depends on b depends on a").
    Cycle(Vec<String>),
    /// A spec line could not be parsed.
    Parse { line: usize, reason: String },
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::DuplicateId(id) => write!(f, "duplicate task id {id:?}"),
            DagError::UnknownDep { task, dep } => {
                write!(f, "task {task:?} depends on unknown task {dep:?}")
            }
            DagError::Cycle(ids) => write!(f, "dependency cycle: {}", ids.join(" -> ")),
            DagError::Parse { line, reason } => {
                write!(f, "dag spec line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for DagError {}

impl From<DagError> for Error {
    fn from(e: DagError) -> Error {
        Error::Input(format!("dag: {e}"))
    }
}

/// One task in a validated [`Dag`].
#[derive(Debug, Clone)]
pub struct Node {
    /// The task's id from the spec (unique).
    pub id: String,
    /// The fully rendered command for this task.
    pub command: String,
    /// Indices of the tasks this one depends on (deduplicated).
    pub deps: Vec<u32>,
}

/// An unvalidated DAG under construction: tasks plus dependency *names*.
/// [`DagSpec::build`] resolves names and proves acyclicity.
#[derive(Debug, Default, Clone)]
pub struct DagSpec {
    tasks: Vec<(String, String, Vec<String>)>,
    index: HashMap<String, usize>,
    /// `:::`-expanded line id → member task ids, so a dependency on the
    /// bare line id fans out to every expansion.
    groups: HashMap<String, Vec<String>>,
}

impl DagSpec {
    pub fn new() -> DagSpec {
        DagSpec::default()
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Add one task. `deps` are task (or group) ids, resolved at
    /// [`DagSpec::build`] time so forward references work.
    pub fn task(
        &mut self,
        id: impl Into<String>,
        command: impl Into<String>,
        deps: Vec<String>,
    ) -> std::result::Result<(), DagError> {
        let id = id.into();
        if self.index.contains_key(&id) || self.groups.contains_key(&id) {
            return Err(DagError::DuplicateId(id));
        }
        self.index.insert(id.clone(), self.tasks.len());
        self.tasks.push((id, command.into(), deps));
        Ok(())
    }

    /// Parse a command-mode spec (see the module docs for the grammar).
    pub fn parse(text: &str) -> std::result::Result<DagSpec, DagError> {
        let mut spec = DagSpec::new();
        for (line_no, raw) in text.lines().enumerate() {
            let line_no = line_no + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_err = |reason: &str| DagError::Parse {
                line: line_no,
                reason: reason.to_string(),
            };
            // Dependencies ride a trailing `# after:` marker. The *last*
            // occurrence wins so commands containing the literal text can
            // still carry a real marker after it.
            let (head, deps) = match line.rfind("# after:") {
                Some(pos) => {
                    let list = line[pos + "# after:".len()..]
                        .split([',', ' ', '\t'])
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect::<Vec<_>>();
                    if list.is_empty() {
                        return Err(parse_err("empty dependency list after `# after:`"));
                    }
                    (line[..pos].trim_end(), list)
                }
                None => (line, Vec::new()),
            };
            let (id, command) = head
                .split_once(':')
                .ok_or_else(|| parse_err("expected `id: command`"))?;
            let id = id.trim();
            let command = command.trim();
            if id.is_empty() || id.contains(char::is_whitespace) || id.contains(',') {
                return Err(parse_err("task id must be one word without commas"));
            }
            if command.is_empty() {
                return Err(parse_err("empty command"));
            }
            // A trailing bare `:::` misses the spaced separator below but
            // is clearly an argument list that never came.
            if command.ends_with(" :::") {
                return Err(parse_err("`:::` with no arguments"));
            }
            match command.split_once(" ::: ") {
                Some((tpl_src, args)) => {
                    let args: Vec<&str> = args.split_whitespace().collect();
                    if args.is_empty() {
                        return Err(parse_err("`:::` with no arguments"));
                    }
                    let tpl_src = tpl_src.trim_end();
                    let tpl = Template::parse(tpl_src)
                        .map_err(|e| parse_err(&format!("bad template: {e}")))?;
                    let mut members = Vec::with_capacity(args.len());
                    for (k, arg) in args.iter().enumerate() {
                        let member = format!("{id}.{}", k + 1);
                        let arg_vec = [arg.to_string()];
                        let rendered = tpl.expand(&ExpandContext {
                            args: &arg_vec,
                            seq: (k + 1) as u64,
                            slot: 1,
                        });
                        spec.task(member.clone(), rendered, deps.clone())
                            .map_err(|e| parse_err(&e.to_string()))?;
                        members.push(member);
                    }
                    if spec.index.contains_key(id) {
                        return Err(parse_err(
                            &DagError::DuplicateId(id.to_string()).to_string(),
                        ));
                    }
                    spec.groups.insert(id.to_string(), members);
                }
                None => spec
                    .task(id, command, deps)
                    .map_err(|e| parse_err(&e.to_string()))?,
            }
        }
        Ok(spec)
    }

    /// Parse a make-mode spec: `target: dep dep …` lines, commands
    /// rendered from `command` with `{}` = the target id. Dependencies
    /// never defined as targets become implicit leaf tasks.
    pub fn parse_make(text: &str, command: &str) -> std::result::Result<DagSpec, DagError> {
        let tpl = Template::parse(command).map_err(|e| DagError::Parse {
            line: 0,
            reason: format!("bad command template: {e}"),
        })?;
        let render = |target: &str| {
            let args = [target.to_string()];
            tpl.expand(&ExpandContext {
                args: &args,
                seq: 1,
                slot: 1,
            })
        };
        let mut spec = DagSpec::new();
        let mut referenced: Vec<String> = Vec::new();
        for (line_no, raw) in text.lines().enumerate() {
            let line_no = line_no + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse_err = |reason: &str| DagError::Parse {
                line: line_no,
                reason: reason.to_string(),
            };
            let (target, deps) = line
                .split_once(':')
                .ok_or_else(|| parse_err("expected `target: deps`"))?;
            let target = target.trim();
            if target.is_empty() || target.contains(char::is_whitespace) {
                return Err(parse_err("target must be one word"));
            }
            let deps: Vec<String> = deps
                .split([',', ' ', '\t'])
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            referenced.extend(deps.iter().cloned());
            spec.task(target, render(target), deps)
                .map_err(|e| parse_err(&e.to_string()))?;
        }
        for dep in referenced {
            if !spec.index.contains_key(&dep) {
                let cmd = render(&dep);
                spec.task(dep, cmd, Vec::new()).expect("checked absent");
            }
        }
        Ok(spec)
    }

    /// Resolve dependency names and prove the graph acyclic.
    pub fn build(self) -> std::result::Result<Dag, DagError> {
        let mut nodes = Vec::with_capacity(self.tasks.len());
        for (id, command, dep_names) in &self.tasks {
            let mut deps = Vec::new();
            let mut seen = HashSet::new();
            for name in dep_names {
                let resolved: &[String] = match self.groups.get(name) {
                    Some(members) => members,
                    None => std::slice::from_ref(name),
                };
                for dep in resolved {
                    let &idx = self.index.get(dep).ok_or_else(|| DagError::UnknownDep {
                        task: id.clone(),
                        dep: dep.clone(),
                    })?;
                    if self.tasks[idx].0 == *id {
                        return Err(DagError::Cycle(vec![id.clone(), id.clone()]));
                    }
                    if seen.insert(idx as u32) {
                        deps.push(idx as u32);
                    }
                }
            }
            nodes.push(Node {
                id: id.clone(),
                command: command.clone(),
                deps,
            });
        }
        let dag = Dag { nodes };
        dag.check_acyclic()?;
        Ok(dag)
    }
}

/// A validated dependency graph. Task `i` (0-based) has engine sequence
/// number `i + 1`, so joblog rows map back to nodes positionally and a
/// dependency-free DAG is bit-for-bit the flat list it looks like.
#[derive(Debug, Clone)]
pub struct Dag {
    nodes: Vec<Node>,
}

impl Dag {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Per-task argument vectors in seq order — the shape the engine and
    /// the network driver take as input (`args = [command]`, executed
    /// through a `{}` template).
    pub fn inputs(&self) -> Vec<Vec<String>> {
        self.nodes.iter().map(|n| vec![n.command.clone()]).collect()
    }

    /// Kahn's algorithm; on leftover nodes, walk unprocessed
    /// dependencies until one repeats and name the cycle.
    fn check_acyclic(&self) -> std::result::Result<(), DagError> {
        let n = self.nodes.len();
        let mut indeg = vec![0u32; n];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            indeg[i] = node.deps.len() as u32;
            for &d in &node.deps {
                dependents[d as usize].push(i as u32);
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut done = 0usize;
        while let Some(i) = queue.pop() {
            done += 1;
            for &d in &dependents[i as usize] {
                indeg[d as usize] -= 1;
                if indeg[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        if done == n {
            return Ok(());
        }
        // Every leftover node still has an unprocessed dependency, so
        // following those edges must revisit a node: that's the cycle.
        let start = (0..n).find(|&i| indeg[i] > 0).expect("leftover exists");
        let mut path = vec![start];
        let mut at = start;
        let mut seen = HashMap::new();
        seen.insert(start, 0usize);
        loop {
            let next = self.nodes[at]
                .deps
                .iter()
                .map(|&d| d as usize)
                .find(|&d| indeg[d] > 0)
                .expect("leftover node keeps an unprocessed dep");
            if let Some(&first) = seen.get(&next) {
                let mut ids: Vec<String> = path[first..]
                    .iter()
                    .map(|&i| self.nodes[i].id.clone())
                    .collect();
                ids.push(self.nodes[next].id.clone());
                return Err(DagError::Cycle(ids));
            }
            seen.insert(next, path.len());
            path.push(next);
            at = next;
        }
    }
}

/// Scheduling state of one node in a [`ReadySet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Dependencies outstanding.
    Waiting,
    /// Released to the executor (ready or running).
    Dispatched,
    /// Completed successfully.
    Done,
    /// Completed with a failure.
    Failed,
    /// Never run: a transitive dependency failed.
    SkippedDep,
    /// Successful in a previous run (`--resume`); never released.
    PreDone,
}

/// What one completion unlocked. [`ReadySet::complete`] overwrites it,
/// so one value serves every completion of a run without allocating.
#[derive(Debug, Default, Clone)]
pub struct Completion {
    /// Seqs whose last dependency just succeeded — release these now.
    pub newly_ready: Vec<u64>,
    /// Seqs condemned by this failure (transitive descendants whose
    /// last outstanding dependency just resolved), ordered so every
    /// entry's dependencies precede it — log these as
    /// `skipped-dep-failed` in this order.
    pub newly_skipped: Vec<u64>,
    /// Condemned nodes whose dependents are still to be resolved.
    condemned: Vec<usize>,
}

/// In-degree tracker with O(1) decrement per edge on completion.
///
/// Drive it with [`ReadySet::take_ready`] (initial release) and
/// [`ReadySet::complete`] (per finished task); every node reaches a
/// terminal state exactly once, so `released + pre_done` converges on
/// the node count and [`ReadySet::is_finished`] flips exactly when the
/// last terminal state lands.
#[derive(Debug)]
pub struct ReadySet {
    indeg: Vec<u32>,
    /// Node `i`'s dependents are `dependents[first[i]..first[i + 1]]`,
    /// in node order.
    first: Vec<u32>,
    dependents: Vec<u32>,
    state: Vec<NodeState>,
    /// True once any dependency (transitively) failed; the node is
    /// condemned when its in-degree reaches zero.
    poisoned: Vec<bool>,
    ready: Vec<u64>,
    unfinished: usize,
    done: u64,
    failed: u64,
    skipped: u64,
    pre_done: u64,
}

impl ReadySet {
    /// Fresh run: everything pending.
    pub fn new(dag: &Dag) -> ReadySet {
        ReadySet::resumed(dag, &HashSet::new())
    }

    /// Resume: seqs in `done` (1-based, from the previous joblog's
    /// *successful* rows) count as already satisfied and are never
    /// released. Everything else — failed, skipped, unrecorded — runs.
    pub fn resumed(dag: &Dag, done: &HashSet<u64>) -> ReadySet {
        let n = dag.len();
        // Lay the edges out by dependency: count each node's dependents
        // into `first[d + 1]`, sum the counts into start offsets, then
        // place each edge at its dependency's next free offset. Placing
        // moves `first[d]` up to `d`'s end, so shifting `first` up by
        // one entry restores the start offsets.
        let mut indeg: Vec<u32> = dag
            .nodes
            .iter()
            .map(|node| node.deps.len() as u32)
            .collect();
        let mut first = vec![0u32; n + 1];
        for node in &dag.nodes {
            for &d in &node.deps {
                first[d as usize + 1] += 1;
            }
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut dependents = vec![0u32; first[n] as usize];
        for (i, node) in dag.nodes.iter().enumerate() {
            for &d in &node.deps {
                let at = &mut first[d as usize];
                dependents[*at as usize] = i as u32;
                *at += 1;
            }
        }
        first.copy_within(0..n, 1);
        first[0] = 0;

        let mut state = vec![NodeState::Waiting; n];
        let mut pre_done = 0u64;
        for &seq in done {
            if (1..=n as u64).contains(&seq) {
                state[seq as usize - 1] = NodeState::PreDone;
                pre_done += 1;
            }
        }
        // Pre-done nodes satisfy their dependents up front.
        for i in 0..n {
            if state[i] == NodeState::PreDone {
                let (from, to) = (first[i] as usize, first[i + 1] as usize);
                for &d in &dependents[from..to] {
                    indeg[d as usize] -= 1;
                }
            }
        }
        let ready = (0..n)
            .filter(|&i| state[i] == NodeState::Waiting && indeg[i] == 0)
            .map(|i| i as u64 + 1)
            .collect();
        ReadySet {
            indeg,
            first,
            dependents,
            state,
            poisoned: vec![false; n],
            ready,
            unfinished: n - pre_done as usize,
            done: 0,
            failed: 0,
            skipped: 0,
            pre_done,
        }
    }

    /// Drain the tasks whose dependencies are all satisfied, marking
    /// them released. First call returns the DAG's sources; afterwards
    /// newly-ready work comes back from [`ReadySet::complete`] instead.
    pub fn take_ready(&mut self) -> Vec<u64> {
        for &seq in &self.ready {
            self.state[seq as usize - 1] = NodeState::Dispatched;
        }
        std::mem::take(&mut self.ready)
    }

    /// Record one finished task into `out`, replacing what it held.
    /// Newly-unblocked tasks come back already marked released (the
    /// caller is dispatching them); condemned descendants come back
    /// already terminal.
    pub fn complete(&mut self, seq: u64, ok: bool, out: &mut Completion) {
        let idx = (seq - 1) as usize;
        out.newly_ready.clear();
        out.newly_skipped.clear();
        if self.state[idx] != NodeState::Dispatched {
            debug_assert!(false, "complete({seq}) in state {:?}", self.state[idx]);
            return;
        }
        self.unfinished -= 1;
        if ok {
            self.state[idx] = NodeState::Done;
            self.done += 1;
        } else {
            self.state[idx] = NodeState::Failed;
            self.failed += 1;
        }
        // Propagate terminality through the in-degree counters. A node
        // is condemned only when its *last* dependency resolves — not
        // eagerly on the first failure — so `newly_skipped` (and thus
        // the joblog) always lists a node after every one of its
        // dependencies, and a node with an in-flight dependency is not
        // logged before that dependency's own row.
        self.resolve(idx, !ok, out);
        while let Some(at) = out.condemned.pop() {
            self.resolve(at, true, out);
        }
    }

    /// Count terminal node `at` against each waiting dependent, which
    /// it poisons if `bad`. A dependent whose count reaches zero is
    /// released, or condemned and pushed onto `out.condemned` to pass
    /// the failure on.
    fn resolve(&mut self, at: usize, bad: bool, out: &mut Completion) {
        for d in self.first[at]..self.first[at + 1] {
            let dep = self.dependents[d as usize] as usize;
            if self.state[dep] != NodeState::Waiting {
                continue;
            }
            if bad {
                self.poisoned[dep] = true;
            }
            self.indeg[dep] -= 1;
            if self.indeg[dep] == 0 {
                if self.poisoned[dep] {
                    self.state[dep] = NodeState::SkippedDep;
                    self.skipped += 1;
                    self.unfinished -= 1;
                    out.newly_skipped.push(dep as u64 + 1);
                    out.condemned.push(dep);
                } else {
                    self.state[dep] = NodeState::Dispatched;
                    out.newly_ready.push(dep as u64 + 1);
                }
            }
        }
    }

    /// True once every node is terminal (done, failed, skipped, or
    /// pre-done).
    pub fn is_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// `(done, failed, skipped-dep-failed, pre_done)` counts.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (self.done, self.failed, self.skipped, self.pre_done)
    }
}

/// Outcome of a DAG run.
#[derive(Debug)]
pub struct DagReport {
    /// The engine's report over the tasks that actually executed.
    pub engine: RunReport,
    /// Total tasks in the graph.
    pub total: u64,
    /// Tasks that failed.
    pub failed: u64,
    /// Tasks never run because a dependency failed.
    pub skipped_dep_failed: u64,
    /// Tasks carried over from a previous run's joblog (`--resume`).
    pub resumed: u64,
    /// Ids of the tasks that failed (execution failures, not skips).
    pub failed_ids: Vec<String>,
}

impl DagReport {
    /// True when every task in the graph is accounted for successfully.
    pub fn all_succeeded(&self) -> bool {
        self.failed == 0 && self.skipped_dep_failed == 0
    }
}

/// The DAG layer's release hook ([`Engine::run_released`]): the worker
/// that finished a task appends its joblog row, completes the ready set
/// and keeps the first newly-ready task as its own next job.
struct DagRelease<'d> {
    dag: &'d Dag,
    /// Slot count, which sizes released batches.
    jobs: usize,
    log: LogSink,
    /// Seqs a previous run logged as done, in seq order.
    resumed: Vec<u64>,
    state: Mutex<DagState>,
}

/// What finishing workers share, under one lock.
struct DagState {
    ready: ReadySet,
    /// Reused by every completion.
    completion: Completion,
    /// Release channel into the engine; dropped when the graph is
    /// finished (or a `--halt` policy stops the run) so the engine sees
    /// end-of-input.
    tx: Option<Sender<Vec<JobInput>>>,
    /// Rows appended since the last hand-over to the file.
    rows: Rows,
    failed_ids: Vec<String>,
}

impl DagRelease<'_> {
    fn command(&self, seq: u64) -> &str {
        &self.dag.nodes[(seq - 1) as usize].command
    }

    fn job(&self, seq: u64) -> JobInput {
        JobInput::new(seq, vec![self.command(seq).to_string()])
    }

    /// The failure path, under the lock: append a row for each task the
    /// last completion condemned (a success condemns the tasks that
    /// waited on it and on a failed task), and report them.
    fn skip(&self, st: &mut DagState, condemned: &mut Vec<u64>) {
        for &seq in &st.completion.newly_skipped {
            self.log
                .encode_entry(&skip_entry(seq, self.command(seq)), &mut st.rows);
        }
        condemned.extend_from_slice(&st.completion.newly_skipped);
    }
}

impl Release for DagRelease<'_> {
    fn log(&self) -> Option<&LogSink> {
        Some(&self.log)
    }

    fn resumed(&self) -> &[u64] {
        &self.resumed
    }

    fn done(&self, result: &JobResult, row: &Rows, condemned: &mut Vec<u64>) -> Option<JobInput> {
        let ok = result.status.is_success();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        // The row lands before any dependent is released, and skip rows
        // after it, ordered dependencies-first, so the joblog lists
        // every task's dependencies before the task itself.
        st.rows.extend(row);
        st.ready.complete(result.seq, ok, &mut st.completion);
        if !ok {
            let id = &self.dag.nodes[(result.seq - 1) as usize].id;
            st.failed_ids.push(id.clone());
        }
        if !st.completion.newly_skipped.is_empty() {
            self.skip(st, condemned);
        }
        // The flat engine's flush rule: a slow task's row reaches the
        // file before its successors start; fast rows go in batches.
        let flush = (result.runtime >= PROMPT_DELIVERY || st.rows.len() >= DELIVER_BATCH)
            .then(|| self.log.take(&mut st.rows));
        if st.ready.is_finished() {
            // Closing the channel is what ends the engine run.
            st.tx = None;
        }
        let ready = &mut st.completion.newly_ready;
        let next = ready.first().copied();
        let rest = match ready.len() {
            0 | 1 => None,
            _ => Some((std::mem::take(ready), st.tx.clone())),
        };
        drop(guard);
        if let Some(flush) = flush {
            flush.write();
        }
        if let Some((ready, Some(tx))) = rest {
            // The rest go out in chunk-sized batches, so idle slots
            // claim them instead of one slot taking the whole release.
            let jobs = ready[1..].iter().map(|&seq| self.job(seq));
            send_chunks(&tx, jobs, self.jobs);
        }
        next.map(|seq| self.job(seq))
    }

    fn park(&self) {
        if self.log.is_open() {
            let mut st = self.state.lock();
            let flush = self.log.take(&mut st.rows);
            drop(st);
            flush.write();
        }
    }

    fn halt(&self) {
        self.state.lock().tx = None;
    }
}

/// A joblog row for a task condemned by a dependency failure. Public so
/// the network driver writes the identical row shape for DAG drives.
pub fn skip_entry(seq: u64, command: &str) -> LogEntry {
    let start = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs_f64();
    LogEntry {
        seq,
        host: SKIPPED_DEP_FAILED.to_string(),
        start,
        runtime: 0.0,
        send: 0,
        receive: 0,
        exitval: -2,
        signal: 0,
        command: command.to_string(),
    }
}

/// In-process DAG execution: ready-set release on the finishing worker,
/// over [`Engine::run_released`].
///
/// `options.joblog`/`options.resume` are handled by this layer (the DAG
/// owns the joblog so skip rows interleave correctly); the remaining
/// options pass straight to the engine. Both resume modes behave like
/// `--resume-failed`: only *successful* rows are skipped, because a
/// failed row's descendants must replay.
pub struct DagRunner {
    pub options: Options,
    pub executor: Arc<dyn Executor>,
    pub bus: Option<Arc<EventBus>>,
}

impl DagRunner {
    pub fn run(self, dag: &Dag) -> Result<DagReport> {
        let engine = Engine {
            options: self.options,
            template: Template::parse("{}")?,
            executor: self.executor,
            on_result: None,
            skip: HashSet::new(),
            gate: None,
            bus: self.bus,
        };
        run_dag(dag, engine)
    }
}

/// Run `dag` over `engine`, whose template is `{}` and skip set empty,
/// each job's one argument a node's command line. The engine's `joblog`
/// and `resume` options move to this layer, as [`DagRunner`] describes.
pub(crate) fn run_dag(dag: &Dag, mut engine: Engine) -> Result<DagReport> {
    let total = dag.len() as u64;
    let joblog = engine.options.joblog.take();
    let mode = match std::mem::take(&mut engine.options.resume) {
        ResumeMode::Off => ResumeMode::Off,
        _ => ResumeMode::ResumeFailed,
    };
    let done = match &joblog {
        Some(path) => joblog::resume_set(path, mode)?,
        None => HashSet::new(),
    };
    let log = LogSink::open(joblog.as_deref())?;

    let mut ready = ReadySet::resumed(dag, &done);
    let initial = ready.take_ready();
    let finished = ready.is_finished();
    let jobs = engine.options.jobs;
    let mut resumed: Vec<u64> = done.into_iter().filter(|&seq| seq <= total).collect();
    resumed.sort_unstable();
    let release = DagRelease {
        dag,
        jobs,
        log,
        resumed,
        state: Mutex::new(DagState {
            ready,
            completion: Completion::default(),
            tx: None,
            rows: Rows::default(),
            failed_ids: Vec::new(),
        }),
    };
    let (tx, rx) = crate::crossbeam_channel::unbounded::<Vec<JobInput>>();
    send_chunks(&tx, initial.into_iter().map(|seq| release.job(seq)), jobs);
    // Nothing will ever complete on an already-finished graph (empty
    // or fully resumed), so no hook can close the channel: drop the
    // sender here or the engine waits on it forever.
    release.state.lock().tx = (!finished).then_some(tx);

    let engine_report = engine.run_released(rx, &release)?;

    let mut st = release.state.into_inner();
    release.log.take(&mut st.rows).write();
    release.log.finish()?;
    let (_done, failed, skipped, pre_done) = st.ready.counts();
    Ok(DagReport {
        engine: engine_report,
        total,
        failed,
        skipped_dep_failed: skipped,
        resumed: pre_done,
        failed_ids: st.failed_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{FnExecutor, TaskOutput};
    use crate::job::CommandLine;

    fn spec(lines: &[(&str, &str, &[&str])]) -> DagSpec {
        let mut s = DagSpec::new();
        for (id, cmd, deps) in lines {
            s.task(*id, *cmd, deps.iter().map(|d| d.to_string()).collect())
                .unwrap();
        }
        s
    }

    #[test]
    fn diamond_builds_and_orders() {
        let dag = spec(&[
            ("a", "true", &[]),
            ("b", "true", &["a"]),
            ("c", "true", &["a"]),
            ("d", "true", &["b", "c"]),
        ])
        .build()
        .unwrap();
        assert_eq!(dag.len(), 4);
        let mut rs = ReadySet::new(&dag);
        assert_eq!(rs.take_ready(), vec![1]);
        // One `Completion` serves every call; each overwrites it.
        let mut c = Completion::default();
        rs.complete(1, true, &mut c);
        assert_eq!(c.newly_ready, vec![2, 3]);
        rs.complete(2, true, &mut c);
        assert!(c.newly_ready.is_empty());
        rs.complete(3, true, &mut c);
        assert_eq!(c.newly_ready, vec![4]);
        assert!(!rs.is_finished());
        rs.complete(4, true, &mut c);
        assert!(rs.is_finished());
        assert_eq!(rs.counts(), (4, 0, 0, 0));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut s = DagSpec::new();
        s.task("a", "true", vec![]).unwrap();
        assert_eq!(
            s.task("a", "true", vec![]),
            Err(DagError::DuplicateId("a".into()))
        );
    }

    #[test]
    fn unknown_dep_rejected() {
        let err = spec(&[("a", "true", &["ghost"])]).build().unwrap_err();
        assert_eq!(
            err,
            DagError::UnknownDep {
                task: "a".into(),
                dep: "ghost".into()
            }
        );
    }

    #[test]
    fn cycle_is_named() {
        let err = spec(&[
            ("a", "true", &["c"]),
            ("b", "true", &["a"]),
            ("c", "true", &["b"]),
        ])
        .build()
        .unwrap_err();
        match err {
            DagError::Cycle(ids) => {
                // The trace closes on itself and contains all three ids.
                assert_eq!(ids.first(), ids.last());
                assert_eq!(ids.len(), 4);
                for id in ["a", "b", "c"] {
                    assert!(ids.contains(&id.to_string()), "{ids:?} misses {id}");
                }
                let msg = DagError::Cycle(ids).to_string();
                assert!(msg.contains("dependency cycle:"), "{msg}");
                assert!(msg.contains(" -> "), "{msg}");
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn self_dep_is_a_cycle() {
        let err = spec(&[("a", "true", &["a"])]).build().unwrap_err();
        assert_eq!(err, DagError::Cycle(vec!["a".into(), "a".into()]));
    }

    #[test]
    fn failure_skips_descendants_transitively() {
        let dag = spec(&[
            ("a", "true", &[]),
            ("b", "false", &["a"]),
            ("c", "true", &["b"]),
            ("d", "true", &["c"]),
            ("e", "true", &["a"]),
        ])
        .build()
        .unwrap();
        let mut rs = ReadySet::new(&dag);
        assert_eq!(rs.take_ready(), vec![1]);
        let mut c = Completion::default();
        rs.complete(1, true, &mut c);
        assert_eq!(c.newly_ready, vec![2, 5]);
        rs.complete(2, false, &mut c);
        assert!(c.newly_ready.is_empty());
        assert_eq!(c.newly_skipped, vec![3, 4]);
        rs.complete(5, true, &mut c);
        assert!(c.newly_skipped.is_empty());
        assert!(rs.is_finished());
        assert_eq!(rs.counts(), (2, 1, 2, 0));
    }

    #[test]
    fn parse_command_mode_with_expansion_and_after() {
        let text = "\
# staged pipeline
fetch: curl -o raw
chunk: process {} ::: x y z # after: fetch
merge: cat out.* # after: chunk, fetch
";
        let spec = DagSpec::parse(text).unwrap();
        let dag = spec.build().unwrap();
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.node(0).id, "fetch");
        assert_eq!(dag.node(1).id, "chunk.1");
        assert_eq!(dag.node(1).command, "process x");
        assert_eq!(dag.node(3).command, "process z");
        assert_eq!(dag.node(1).deps, vec![0]);
        let merge = dag.node(4);
        assert_eq!(merge.id, "merge");
        // Group `chunk` fans out to all three members, plus fetch, deduped.
        assert_eq!(merge.deps, vec![1, 2, 3, 0]);
    }

    #[test]
    fn parse_rejects_bad_lines() {
        for (text, needle) in [
            ("no-colon-here", "expected `id: command`"),
            ("a:", "empty command"),
            ("two words: true", "one word"),
            ("a: true # after:", "empty dependency list"),
            ("a: go ::: ", "`:::` with no arguments"),
        ] {
            let err = DagSpec::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?}: {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn parse_make_mode_with_implicit_leaves() {
        let text = "\
out: mid1 mid2
mid1: raw
mid2: raw
";
        let spec = DagSpec::parse_make(text, "touch {}").unwrap();
        let dag = spec.build().unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.node(0).id, "out");
        assert_eq!(dag.node(0).command, "touch out");
        assert_eq!(dag.node(3).id, "raw");
        assert!(dag.node(3).deps.is_empty());
        let mut rs = ReadySet::new(&dag);
        assert_eq!(rs.take_ready(), vec![4]);
    }

    #[test]
    fn resume_releases_only_the_unfinished_subgraph() {
        let dag = spec(&[
            ("a", "true", &[]),
            ("b", "true", &["a"]),
            ("c", "true", &["b"]),
            ("d", "true", &[]),
        ])
        .build()
        .unwrap();
        // a and d succeeded last run; b failed (not in the done set).
        let done: HashSet<u64> = [1, 4].into_iter().collect();
        let mut rs = ReadySet::resumed(&dag, &done);
        assert_eq!(rs.take_ready(), vec![2]);
        let mut c = Completion::default();
        rs.complete(2, true, &mut c);
        assert_eq!(c.newly_ready, vec![3]);
        rs.complete(3, true, &mut c);
        assert!(rs.is_finished());
        assert_eq!(rs.counts(), (2, 0, 0, 2));
    }

    fn runner(jobs: usize, keep_order: bool, exec: FnExecutor) -> DagRunner {
        DagRunner {
            options: Options {
                jobs,
                keep_order,
                shell: false,
                ..Options::default()
            },
            executor: Arc::new(exec),
            bus: None,
        }
    }

    fn run_dag(dag: &Dag, joblog: Option<std::path::PathBuf>, resume: bool) -> DagReport {
        let exec = FnExecutor::new(|cmd: &CommandLine| {
            if cmd.rendered().contains("fail") {
                Ok(TaskOutput {
                    status: crate::job::JobStatus::Failed(1),
                    stdout: String::new(),
                    stderr: "boom\n".into(),
                })
            } else {
                Ok(TaskOutput::stdout(format!("ran {}\n", cmd.rendered())))
            }
        });
        let mut run = runner(4, false, exec);
        run.options.joblog = joblog;
        if resume {
            run.options.resume = ResumeMode::ResumeFailed;
        }
        run.run(dag).unwrap()
    }

    #[test]
    fn engine_run_executes_dag_and_logs_skips() {
        let dir = std::env::temp_dir().join(format!("htpar-dag-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        let _ = std::fs::remove_file(&path);
        let dag = spec(&[
            ("a", "ok-a", &[]),
            ("b", "fail-b", &["a"]),
            ("c", "ok-c", &["b"]),
            ("d", "ok-d", &["a"]),
        ])
        .build()
        .unwrap();
        let report = run_dag(&dag, Some(path.clone()), false);
        assert_eq!(report.total, 4);
        assert_eq!(report.failed, 1);
        assert_eq!(report.skipped_dep_failed, 1);
        assert_eq!(report.failed_ids, vec!["b".to_string()]);
        assert_eq!(report.engine.jobs_total, 3, "c never executed");
        let entries = joblog::read_log(&path).unwrap();
        assert_eq!(entries.len(), 4, "every task has exactly one row");
        let row = |seq: u64| entries.iter().find(|e| e.seq == seq).unwrap();
        assert!(row(1).succeeded());
        assert!(!row(2).succeeded());
        assert_eq!(row(3).host, SKIPPED_DEP_FAILED);
        assert_eq!(row(3).exitval, -2);
        assert_eq!(row(3).command, "ok-c");
        // Dependencies are logged before their dependents.
        let pos = |seq: u64| entries.iter().position(|e| e.seq == seq).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
        assert!(pos(1) < pos(4));

        // Resume: a and d succeeded, so only b (failed) and c (skipped)
        // replay. With the failure "fixed", everything completes.
        let fixed = spec(&[
            ("a", "ok-a", &[]),
            ("b", "now-ok-b", &["a"]),
            ("c", "ok-c", &["b"]),
            ("d", "ok-d", &["a"]),
        ])
        .build()
        .unwrap();
        let report = run_dag(&fixed, Some(path.clone()), true);
        assert_eq!(report.resumed, 2);
        assert_eq!(report.engine.jobs_total, 2, "only b and c re-ran");
        assert!(report.all_succeeded());
        let entries = joblog::read_log(&path).unwrap();
        let ok: HashSet<u64> = joblog::successful_seqs(&entries);
        assert_eq!(ok, [1, 2, 3, 4].into_iter().collect());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_fully_resumed_dags_terminate() {
        let dag = DagSpec::new().build().unwrap();
        let report = run_dag(&dag, None, false);
        assert_eq!(report.total, 0);
        assert!(report.all_succeeded());

        let dir = std::env::temp_dir().join(format!("htpar-dag-done-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        let _ = std::fs::remove_file(&path);
        let dag = spec(&[("a", "ok", &[]), ("b", "ok", &["a"])])
            .build()
            .unwrap();
        run_dag(&dag, Some(path.clone()), false);
        let report = run_dag(&dag, Some(path), true);
        assert_eq!(report.resumed, 2);
        assert_eq!(report.engine.jobs_total, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reruns_a_torn_row_before_its_dependents() {
        let dir = std::env::temp_dir().join(format!("htpar-dag-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        let dag = spec(&[
            ("a", "ok-a", &[]),
            ("b", "ok-b", &["a"]),
            ("c", "ok-c", &["b"]),
            ("d", "ok-d", &[]),
        ])
        .build()
        .unwrap();
        let row = |seq: u64, command: &str| {
            LogEntry {
                seq,
                host: "h".into(),
                start: 0.0,
                runtime: 0.0,
                send: 0,
                receive: 0,
                exitval: 0,
                signal: 0,
                command: command.into(),
            }
            .to_line()
        };
        // d's row is committed; a's successful row parses, but a crash
        // mid-append kept its newline off the disk.
        let text = format!("{}\n{}\n{}", joblog::HEADER, row(4, "ok-d"), row(1, "ok-a"));
        std::fs::write(&path, text).unwrap();
        let report = run_dag(&dag, Some(path.clone()), true);
        assert_eq!(report.resumed, 1, "only d was done");
        assert_eq!(report.engine.jobs_total, 3, "a, b and c ran");
        let seqs: Vec<u64> = joblog::read_log(&path)
            .unwrap()
            .iter()
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, vec![4, 1, 2, 3], "a's row precedes its dependents'");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Released work spreads over idle slots: 16 independent 20 ms tasks
    /// at `-j 8` overlap, where one slot claiming the whole initial
    /// release would run them one at a time.
    #[test]
    fn wide_dag_of_real_tasks_runs_in_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (r, p) = (Arc::clone(&running), Arc::clone(&peak));
        let exec = FnExecutor::new(move |_| {
            let now = r.fetch_add(1, Ordering::SeqCst) + 1;
            p.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            r.fetch_sub(1, Ordering::SeqCst);
            Ok(TaskOutput::success())
        });
        let mut s = DagSpec::new();
        for i in 0..16 {
            s.task(format!("t{i}"), "sleep", vec![]).unwrap();
        }
        let report = runner(8, false, exec).run(&s.build().unwrap()).unwrap();
        assert!(report.all_succeeded());
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 4, "at most {peak} of 8 slots ran at once");
    }

    /// `keep_order` never holds back the release: in the make-mode
    /// graph `out: mid` / `mid: raw` the leaf `raw` is seq 3, and seqs
    /// 1 and 2 wait on it, so a release that waited for in-order
    /// delivery would never start them.
    #[test]
    fn keep_order_dag_finishes() {
        let dag = DagSpec::parse_make("out: mid\nmid: raw\n", "make {}")
            .unwrap()
            .build()
            .unwrap();
        let (tx, rx) = crate::crossbeam_channel::bounded(1);
        std::thread::spawn(move || {
            let _ = tx.send(runner(2, true, FnExecutor::noop()).run(&dag));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a keep_order DAG run hung")
            .unwrap();
        assert!(report.all_succeeded());
        assert_eq!(report.engine.jobs_total, 3);
    }

    /// The worker that finishes a link runs the next one itself: every
    /// link of a chain lands on one slot.
    #[test]
    fn chain_links_run_on_one_slot() {
        let slots = Arc::new(Mutex::new(HashSet::new()));
        let seen = Arc::clone(&slots);
        let exec = FnExecutor::new(move |cmd: &CommandLine| {
            seen.lock().insert(cmd.slot);
            Ok(TaskOutput::success())
        });
        let mut s = DagSpec::new();
        for i in 0..200 {
            let deps = if i == 0 {
                vec![]
            } else {
                vec![format!("t{}", i - 1)]
            };
            s.task(format!("t{i}"), "link", deps).unwrap();
        }
        let report = runner(4, false, exec).run(&s.build().unwrap()).unwrap();
        assert_eq!(report.engine.jobs_total, 200);
        let slots = slots.lock().clone();
        assert_eq!(slots.len(), 1, "slots used: {slots:?}");
    }

    /// Flush before release: a dependency that ran at least 500 µs has
    /// its row in the file when its dependent starts.
    #[test]
    fn slow_dependency_row_is_on_disk_when_its_dependent_starts() {
        let dir = std::env::temp_dir().join(format!("htpar-dag-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        let _ = std::fs::remove_file(&path);
        let misses = Arc::new(Mutex::new(Vec::new()));
        let (log, seen) = (path.clone(), Arc::clone(&misses));
        let exec = FnExecutor::new(move |cmd: &CommandLine| {
            if cmd.rendered() == "slow" {
                std::thread::sleep(Duration::from_millis(2));
            } else {
                let dep = cmd.seq - 1;
                let rows = joblog::read_log(&log).unwrap();
                if !rows.iter().any(|row| row.seq == dep) {
                    seen.lock().push(dep);
                }
            }
            Ok(TaskOutput::success())
        });
        // Eight `slow -> check` pairs: seq 2k+1 is slow, seq 2k+2 reads
        // the log for it.
        let mut s = DagSpec::new();
        for k in 0..8 {
            s.task(format!("slow{k}"), "slow", vec![]).unwrap();
            s.task(format!("check{k}"), "check", vec![format!("slow{k}")])
                .unwrap();
        }
        let mut run = runner(4, false, exec);
        run.options.joblog = Some(path.clone());
        let report = run.run(&s.build().unwrap()).unwrap();
        assert!(report.all_succeeded());
        assert_eq!(*misses.lock(), Vec::<u64>::new(), "rows missing at start");
        assert_eq!(joblog::read_log(&path).unwrap().len(), 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `--halt` policy ends a DAG run: workers parked on the release
    /// channel see its end instead of waiting on a graph that will
    /// never finish.
    #[test]
    fn halted_dag_run_ends() {
        use crate::halt::{HaltDecision, HaltPolicy, HaltWhen};
        let exec = FnExecutor::new(|cmd: &CommandLine| {
            if cmd.rendered() == "fail" {
                std::thread::sleep(Duration::from_millis(20));
                Ok(TaskOutput::failed(1, "boom"))
            } else {
                Ok(TaskOutput::success())
            }
        });
        let dag = spec(&[
            ("a", "fail", &[]),
            ("b", "ok", &["a"]),
            ("c", "ok", &[]),
            ("d", "ok", &["c"]),
        ])
        .build()
        .unwrap();
        let mut run = runner(4, false, exec);
        run.options.halt = HaltPolicy::fail_count(1, HaltWhen::Soon);
        let (tx, rx) = crate::crossbeam_channel::bounded(1);
        std::thread::spawn(move || {
            let _ = tx.send(run.run(&dag));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a halted DAG run hung")
            .unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.engine.halted, Some(HaltDecision::StopSoon));
    }

    #[test]
    fn wide_dag_matches_flat_throughput_shape() {
        // 1k independent tasks: everything releases in the first batch.
        let mut s = DagSpec::new();
        for i in 0..1000 {
            s.task(format!("t{i}"), "noop", vec![]).unwrap();
        }
        let dag = s.build().unwrap();
        let report = run_dag(&dag, None, false);
        assert_eq!(report.engine.jobs_total, 1000);
        assert!(report.all_succeeded());
    }
}
