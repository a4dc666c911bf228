//! The `htpar agent` and `htpar drive` subcommands — the CLI face of
//! the network subsystem (`htpar-net`, DESIGN.md §12).
//!
//! ```text
//! # one agent per node, then drive from the head node:
//! htpar agent --listen 0.0.0.0:4511
//! seq 100000 | htpar drive --agents n1:4511,n2:4511 -j 16 --joblog run.log 'task {}'
//!
//! # or a self-contained mini-cluster of local subprocesses:
//! seq 10000 | htpar drive --local-cluster 4 --joblog run.log 'task {}'
//! ```
//!
//! `drive` accepts the same `COMMAND ::: ARGS` tail as the classic CLI
//! (stdin lines when no `:::` source is given), records an aggregated
//! joblog with the agent name in the `Host` column, and honors
//! `--resume` against it. `--chaos-kill-agent IDX@DONE` SIGKILLs one
//! `--local-cluster` agent once the global completion count reaches
//! `DONE` — the fault-injection knob the e2e recovery tests are built
//! on.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use htpar_core::dag::{Dag, DagRunner, DagSpec, ReadySet};
use htpar_core::sched::SchedPolicy;
use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{ClientEvent, SessionClient, SessionConfig};
use htpar_net::driver::{run_driver, DriveOutcome, DriverConfig};
use htpar_net::fleet::AgentStat;
use htpar_net::frame::Payload;
use htpar_net::local::LocalCluster;
use htpar_net::serve::{PilotServer, ServeConfig, ServeOutcome, SERVE_ANNOUNCE_PREFIX};
use htpar_telemetry::{EventBus, JsonlWriter};

pub const AGENT_USAGE: &str = "\
usage: htpar agent --listen ADDR [--name NAME] [--quiet]
  --listen ADDR   bind address: HOST:PORT (0 picks a port) or unix:/path
  --name NAME     handshake name (drivers log it as the joblog Host)
  --quiet         do not print the HTPAR_AGENT_LISTENING announce line";

pub const DRIVE_USAGE: &str = "\
usage: htpar drive (--agents SPEC[,SPEC...] | --local-cluster N) [OPTIONS] \
COMMAND... [::: ARGS...]
  --agents SPECS         comma-separated agent addresses to dial
  --local-cluster N      spawn N agent subprocesses on this machine
  -j, --jobs-per-agent N job slots per agent (default: 2)
      --joblog FILE      aggregated joblog (Host = agent name)
      --resume           skip seqs already recorded in the joblog
      --heartbeat-ms MS  agent heartbeat interval (default: 200)
      --lease-ms MS      declare an agent lost after MS of silence
                         (default: 2000)
      --payload KIND     what agents run: shell (default), noop, or
                         sleep:MICROS (measurement payloads)
      --chaos-kill-agent IDX@DONE
                         SIGKILL local agent IDX once DONE tasks have
                         completed (requires --local-cluster)
      --dag FILE         drive a dependency graph: FILE supplies the
                         commands (htpar dag grammar) and the driver
                         releases a task to the fleet only after its
                         dependencies succeed; no COMMAND/::: tail
      --make             with --dag: FILE is make-style `target: deps`
                         lines and the COMMAND tail renders each task
                         ({} = target)
With no ::: source, arguments are read from stdin, one per line.";

pub const DAG_USAGE: &str = "\
usage: htpar dag FILE [OPTIONS]
Run a dependency graph in-process: ready tasks release into the slot
engine as their dependencies complete; a failure marks every descendant
skipped-dep-failed with its own joblog row.
FILE grammar (one task per line; blank lines and # comments ignored):
  ID: COMMAND                     one task
  ID: COMMAND {} ::: A B C        expands to ID.1..ID.N, one arg each;
                                  ID then names the whole group
  ...anything... # after: ID,ID   run only after the named tasks
  -j, --jobs N      parallel job slots
      --joblog FILE one row per task; skipped tasks get
                    Host=skipped-dep-failed, Exitval=-2
      --resume      with --joblog: keep tasks that already have a
                    successful row and replay exactly the unfinished
                    subgraph (failed tasks, their descendants, and
                    anything unrecorded)
      --make CMD    FILE is make-style `target: deps` lines; CMD
                    renders each task's command ({} = target)
      --no-shell    exec argv directly instead of via sh -c
      --dry-run     validate and print a topological plan, then exit";

pub const SERVE_USAGE: &str = "\
usage: htpar serve (--agents SPEC[,SPEC...] | --local-cluster N) [OPTIONS]
  --listen ADDR          session listener: HOST:PORT (0 picks a port;
                         default 127.0.0.1:0) or unix:/path
  --agents SPECS         comma-separated agent addresses to dial
  --local-cluster N      spawn N agent subprocesses on this machine
  -j, --jobs-per-agent N job slots per agent (default: 2)
      --scheduler POLICY tenant multiplexing: fifo, fair (default,
                         weighted fair share), or priority
      --max-queue N      per-tenant admission bound; a Submit past it
                         gets a SessionAck refusal (default: 100000)
      --oversub N        in-flight target per agent, in multiples of
                         its slots (default: 4)
      --joblog-dir DIR   per-tenant joblogs, DIR/<tenant>.joblog
      --state-dir DIR    write-ahead session journal (DIR/pilot.journal);
                         a restarted pilot recovers accepted-but-
                         unfinished work from it
      --detach-ttl SECS  hold a detached session for SECS after its
                         socket drops before purging its work
                         (default: 3600; 0 holds forever)
      --journal-compact N
                         rewrite the session journal after N journaled
                         sessions close, dropping closed-session
                         records (default: 64; 0 never compacts)
      --max-sessions N   exit after N sessions close (default: forever)
      --heartbeat-ms MS  agent heartbeat interval (default: 200)
      --lease-ms MS      declare an agent lost after MS of silence
                         (default: 2000)
      --chaos-kill-agent IDX@DONE
                         SIGKILL local agent IDX once DONE tasks have
                         completed (requires --local-cluster)
      --quiet            do not print the HTPAR_SERVE_LISTENING line
One-shot runs are unchanged: `htpar drive` still owns its own fleet.";

pub const SUBMIT_USAGE: &str = "\
usage: htpar submit --connect ADDR [OPTIONS] COMMAND... [::: ARGS...]
  --connect ADDR     pilot address (HOST:PORT or unix:/path)
  --tenant NAME      tenant to submit under (default: default)
  --weight N         fair-share weight (default: 1)
  --priority N       priority level, higher wins (default: 0)
  --payload KIND     shell (default), noop, or sleep:MICROS
  --batch N          tasks per Submit frame (default: 1000)
  --retry-max N      give up after N backpressure retries per batch,
                     with capped exponential backoff (default: 10)
  --detach KEY       submit everything, then detach: the pilot keeps
                     the work alive; collect later with --reattach KEY
  --reattach KEY     reattach to a detached session and collect its
                     results (no command template; requires --tenant
                     to match the detached session)
  --dag FILE         submit a dependency graph: the client withholds
                     each task until its dependencies' completions
                     arrive, so the pilot sees ordinary batches
  --make             with --dag: FILE is make-style `target: deps`
                     lines rendered through the COMMAND tail
With no ::: source, arguments are read from stdin, one per line.
Exit status: 0 when every task completed with exit 0; 2 when the pilot
still refused a batch after --retry-max retries; 1 otherwise: a task
failed (with --dag, also one skipped after a failed dependency), the
session ended short, or an error. --detach exits 0 once the pilot holds
the work. --reattach applies the same rule, but a task that finished
while detached keeps its exit code only when the pilot runs with
--joblog-dir; otherwise it counts as exit 0.";

/// Dispatch a net subcommand. `None` means `argv` is a classic
/// `parallel`-style invocation and the caller should fall through.
pub fn dispatch(argv: &[String]) -> Option<i32> {
    match argv.first().map(String::as_str) {
        Some("agent") => Some(run_agent(&argv[1..])),
        Some("drive") => Some(run_drive(&argv[1..])),
        Some("dag") => Some(run_dag(&argv[1..])),
        Some("serve") => Some(run_serve(&argv[1..])),
        Some("submit") => Some(run_submit(&argv[1..])),
        _ => None,
    }
}

/// `HTPAR_TELEMETRY_JSONL=PATH` attaches a JSONL sink, same contract as
/// the classic CLI path: agent lifecycle, shard, and frame-byte events
/// land in the file.
fn bus_from_env() -> Option<Arc<EventBus>> {
    let path = std::env::var("HTPAR_TELEMETRY_JSONL").ok()?;
    match JsonlWriter::create(std::path::Path::new(&path)) {
        Ok(writer) => {
            let bus = EventBus::shared();
            bus.attach(writer);
            Some(bus)
        }
        Err(e) => {
            eprintln!("htpar: cannot open telemetry file {path}: {e}");
            None
        }
    }
}

/// The `COMMAND... [::: ARGS...]` tail both `drive` and `submit`
/// accept, split starting at `argv[i]`: everything up to `:::` joins
/// into the command template, everything after it is the argument list
/// (`None` = read stdin lines). One helper so the two grammars cannot
/// drift.
fn parse_command_tail(argv: &[String], i: usize) -> (String, Option<Vec<String>>) {
    let mut j = i;
    let mut words = Vec::new();
    while j < argv.len() && argv[j] != ":::" {
        words.push(argv[j].clone());
        j += 1;
    }
    let values = (j < argv.len()).then(|| argv[j + 1..].to_vec());
    (words.join(" "), values)
}

/// The value word after the flag at `argv[i]`.
fn flag_value(argv: &[String], i: usize, flag: &str) -> Result<String, String> {
    argv.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Read and build a `--dag` file. `make` carries the `--make` render
/// template (`{}` = target); `None` selects the `id: cmd` grammar.
fn load_dag(path: &std::path::Path, make: Option<&str>) -> Result<Dag, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let spec = match make {
        Some(template) => DagSpec::parse_make(&text, template),
        None => DagSpec::parse(&text),
    };
    spec.and_then(DagSpec::build).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- agent

fn run_agent(argv: &[String]) -> i32 {
    let mut listen: Option<String> = None;
    let mut name: Option<String> = None;
    let mut announce = true;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => match argv.get(i + 1) {
                Some(v) => {
                    listen = Some(v.clone());
                    i += 2;
                }
                None => return usage_error("agent: --listen needs an address", AGENT_USAGE),
            },
            "--name" => match argv.get(i + 1) {
                Some(v) => {
                    name = Some(v.clone());
                    i += 2;
                }
                None => return usage_error("agent: --name needs a value", AGENT_USAGE),
            },
            "--quiet" => {
                announce = false;
                i += 1;
            }
            "--help" | "-h" => {
                println!("{AGENT_USAGE}");
                return 0;
            }
            other => return usage_error(&format!("agent: unknown option {other}"), AGENT_USAGE),
        }
    }
    let Some(listen) = listen else {
        return usage_error("agent: --listen is required", AGENT_USAGE);
    };
    let mut config = AgentConfig::new(listen);
    if let Some(name) = name {
        config.name = name;
    }
    config.announce = announce;
    match agent::serve(&config) {
        Ok(report) => {
            eprintln!(
                "htpar agent: {} task(s) done, session {}",
                report.done, report.reason
            );
            0
        }
        Err(e) => {
            eprintln!("htpar agent: {e}");
            1
        }
    }
}

// ---------------------------------------------------------------- fleet

/// The fleet flags `drive` and `serve` share: where the agents are, the
/// slots each runs, heartbeat and lease timing, and the chaos hook.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    pub agents: Vec<String>,
    pub local_cluster: usize,
    pub jobs_per_agent: u32,
    pub heartbeat_ms: u32,
    pub lease_window_ms: u64,
    /// `--chaos-kill-agent IDX@DONE`.
    pub chaos_kill: Option<(usize, u64)>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            agents: Vec::new(),
            local_cluster: 0,
            jobs_per_agent: 2,
            heartbeat_ms: 200,
            lease_window_ms: 2_000,
            chaos_kill: None,
        }
    }
}

impl FleetArgs {
    /// Parse the fleet flag at `argv[i]`, if it is one. Returns how many
    /// words it took; 0 means `argv[i]` is not a fleet flag.
    fn parse_flag(&mut self, argv: &[String], i: usize) -> Result<usize, String> {
        match argv[i].as_str() {
            "--agents" => {
                self.agents = flag_value(argv, i, "--agents")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--local-cluster" => {
                self.local_cluster = flag_value(argv, i, "--local-cluster")?
                    .parse()
                    .map_err(|_| "--local-cluster needs a count".to_string())?;
            }
            "-j" | "--jobs-per-agent" => {
                self.jobs_per_agent = flag_value(argv, i, "-j")?
                    .parse()
                    .map_err(|_| "-j needs a number".to_string())?;
            }
            "--heartbeat-ms" => {
                self.heartbeat_ms = flag_value(argv, i, "--heartbeat-ms")?
                    .parse()
                    .map_err(|_| "--heartbeat-ms needs milliseconds".to_string())?;
            }
            "--lease-ms" => {
                self.lease_window_ms = flag_value(argv, i, "--lease-ms")?
                    .parse()
                    .map_err(|_| "--lease-ms needs milliseconds".to_string())?;
            }
            "--chaos-kill-agent" => {
                self.chaos_kill = Some(parse_chaos(&flag_value(argv, i, "--chaos-kill-agent")?)?);
            }
            other => {
                // `-j16` attached form, matching the main CLI grammar.
                return match other.strip_prefix("-j") {
                    Some(n) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => {
                        self.jobs_per_agent =
                            n.parse().map_err(|_| "-j needs a number".to_string())?;
                        Ok(1)
                    }
                    _ => Ok(0),
                };
            }
        }
        Ok(2)
    }

    /// Cross-flag checks, once every flag is parsed.
    fn validate(&self) -> Result<(), String> {
        if self.agents.is_empty() && self.local_cluster == 0 {
            return Err("one of --agents or --local-cluster is required".to_string());
        }
        match self.chaos_kill {
            Some(_) if self.local_cluster == 0 => {
                Err("--chaos-kill-agent requires --local-cluster".to_string())
            }
            Some((idx, _)) if idx >= self.local_cluster => Err(format!(
                "--chaos-kill-agent index {idx} out of range for --local-cluster {}",
                self.local_cluster
            )),
            _ => Ok(()),
        }
    }

    /// Bring the fleet up for `htpar CMD` and run `body` on it: spawn the
    /// `--local-cluster`, and hand `body` the agent specs plus the
    /// `--chaos-kill-agent` hook.
    /// `body` returns the exit code. After a clean run the drained local
    /// agents are reaped; after a failed one they are killed, since some
    /// may still wait for a driver that never dialed them.
    fn run(
        &self,
        cmd: &str,
        body: impl FnOnce(Vec<String>, Option<&mut dyn FnMut(u64)>) -> i32,
    ) -> i32 {
        let mut cluster = if self.local_cluster > 0 {
            match LocalCluster::spawn_self(self.local_cluster) {
                Ok(cluster) => Some(cluster),
                Err(e) => {
                    eprintln!("htpar {cmd}: spawning local cluster: {e}");
                    return 1;
                }
            }
        } else {
            None
        };
        let agents = match &cluster {
            Some(cluster) => cluster.specs.clone(),
            None => self.agents.clone(),
        };
        // Chaos hook: SIGKILL one local agent at a deterministic point in
        // the completion sequence.
        let mut chaos = match (self.chaos_kill, cluster.as_mut()) {
            (Some((idx, at)), Some(cluster)) => {
                let mut fired = false;
                Some(move |done: u64| {
                    if !fired && done >= at {
                        fired = true;
                        eprintln!("htpar {cmd}: chaos: killing agent {idx} at done={done}");
                        cluster.kill(idx);
                    }
                })
            }
            _ => None,
        };
        let code = body(agents, chaos.as_mut().map(|f| f as &mut dyn FnMut(u64)));
        if code == 0 {
            // Drained agents exit on their own; reap them. After a
            // failure, dropping the cluster kills them instead.
            if let Some(mut cluster) = cluster {
                cluster.join();
            }
        }
        code
    }
}

/// One summary line per agent.
fn print_agents(agents: &[AgentStat]) {
    for (idx, agent) in agents.iter().enumerate() {
        let mut line = format!("  agent {idx} ({}): {} done", agent.name, agent.done);
        if agent.lost {
            line.push_str(" [lost]");
        }
        if let Some(error) = &agent.error {
            line.push_str(&format!(" [error: {error}]"));
        }
        eprintln!("{line}");
    }
}

// ---------------------------------------------------------------- drive

/// Parsed `htpar drive` invocation (separated from execution so the
/// grammar is unit-testable without sockets).
#[derive(Debug, Clone, PartialEq)]
pub struct DriveSpec {
    pub fleet: FleetArgs,
    pub joblog: Option<PathBuf>,
    pub resume: bool,
    pub payload: Payload,
    /// `--dag FILE`: dependency-aware drive; commands come from FILE.
    pub dag: Option<PathBuf>,
    /// `--make`: the `--dag` file is make-style `target: deps` lines,
    /// rendered through the command template.
    pub make: bool,
    pub command: String,
    /// `::: ARGS` values; `None` means read stdin lines.
    pub values: Option<Vec<String>>,
    pub help: bool,
}

impl Default for DriveSpec {
    fn default() -> Self {
        DriveSpec {
            fleet: FleetArgs::default(),
            joblog: None,
            resume: false,
            payload: Payload::Shell,
            dag: None,
            make: false,
            command: String::new(),
            values: None,
            help: false,
        }
    }
}

/// Parse `htpar drive` arguments (everything after the subcommand).
pub fn parse_drive(argv: &[String]) -> Result<DriveSpec, String> {
    let mut spec = DriveSpec::default();
    let mut i = 0;
    while i < argv.len() {
        let taken = spec.fleet.parse_flag(argv, i)?;
        if taken > 0 {
            i += taken;
            continue;
        }
        match argv[i].as_str() {
            "--joblog" => {
                spec.joblog = Some(PathBuf::from(flag_value(argv, i, "--joblog")?));
                i += 2;
            }
            "--resume" => {
                spec.resume = true;
                i += 1;
            }
            "--payload" => {
                spec.payload = parse_payload(&flag_value(argv, i, "--payload")?)?;
                i += 2;
            }
            "--dag" => {
                spec.dag = Some(PathBuf::from(flag_value(argv, i, "--dag")?));
                i += 2;
            }
            "--make" => {
                spec.make = true;
                i += 1;
            }
            "--help" | "-h" => {
                spec.help = true;
                return Ok(spec);
            }
            other => {
                // An unrecognized `--flag` before the command is a typo,
                // not a command word — absorbing it would silently eat
                // everything after it (e.g. `--joblog`) into the template.
                if other.starts_with("--") {
                    return Err(format!("unknown option {other}"));
                }
                break;
            }
        }
    }
    // Everything from here is the command template, then `::: ARGS`.
    let (command, values) = parse_command_tail(argv, i);
    spec.command = command;
    spec.values = values;
    if spec.make && spec.dag.is_none() {
        return Err("--make requires --dag FILE".to_string());
    }
    if spec.dag.is_some() {
        if spec.values.is_some() {
            return Err("--dag and ::: are mutually exclusive".to_string());
        }
        if spec.make && spec.command.is_empty() {
            return Err("--dag --make needs a command template ({} = target)".to_string());
        }
        if !spec.make && !spec.command.is_empty() {
            return Err(
                "--dag FILE supplies the commands; drop the command words (or add --make)"
                    .to_string(),
            );
        }
    } else if spec.command.is_empty() {
        return Err("a command template is required".to_string());
    }
    spec.fleet.validate()?;
    Ok(spec)
}

/// `shell`, `noop`, or `sleep:MICROS`.
fn parse_payload(s: &str) -> Result<Payload, String> {
    match s {
        "shell" => Ok(Payload::Shell),
        "noop" => Ok(Payload::Noop),
        _ => match s.strip_prefix("sleep:") {
            Some(us) => us
                .parse()
                .map(Payload::SleepUs)
                .map_err(|_| format!("bad sleep payload {s:?} (want sleep:MICROS)")),
            None => Err(format!(
                "unknown payload {s:?} (want shell, noop, or sleep:MICROS)"
            )),
        },
    }
}

/// `IDX@DONE` — kill agent IDX once DONE tasks have completed.
fn parse_chaos(s: &str) -> Result<(usize, u64), String> {
    let (idx, done) = s
        .split_once('@')
        .ok_or_else(|| format!("bad --chaos-kill-agent {s:?} (want IDX@DONE)"))?;
    let idx = idx
        .parse()
        .map_err(|_| format!("bad agent index in {s:?}"))?;
    let done = done
        .parse()
        .map_err(|_| format!("bad completion count in {s:?}"))?;
    Ok((idx, done))
}

fn run_drive(argv: &[String]) -> i32 {
    let spec = match parse_drive(argv) {
        Ok(spec) => spec,
        Err(msg) => return usage_error(&format!("drive: {msg}"), DRIVE_USAGE),
    };
    if spec.help {
        println!("{DRIVE_USAGE}");
        return 0;
    }
    // `--dag FILE`: the graph supplies the commands; the driver runs
    // the per-node command lines through a bare `{}` template and
    // withholds each task until its dependencies succeed.
    let dag = match &spec.dag {
        Some(path) => {
            let make = spec.make.then_some(spec.command.as_str());
            match load_dag(path, make) {
                Ok(dag) => Some(dag),
                Err(msg) => {
                    eprintln!("htpar drive: {msg}");
                    return 1;
                }
            }
        }
        None => None,
    };
    let inputs: Vec<Vec<String>> = match (&dag, &spec.values) {
        (Some(dag), _) => dag.inputs(),
        (None, Some(values)) => values.iter().map(|v| vec![v.clone()]).collect(),
        (None, None) => {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            match stdin.lock().lines().collect::<std::io::Result<Vec<_>>>() {
                Ok(lines) => lines.into_iter().map(|l| vec![l]).collect(),
                Err(e) => {
                    eprintln!("htpar drive: reading stdin: {e}");
                    return 1;
                }
            }
        }
    };
    if inputs.is_empty() {
        if spec.dag.is_some() {
            eprintln!("htpar drive: the DAG has no tasks");
        } else {
            eprintln!("htpar drive: no input arguments");
        }
        return 1;
    }

    let command = if dag.is_some() {
        "{}".to_string()
    } else {
        spec.command.clone()
    };
    spec.fleet.run("drive", |agents, chaos| {
        let mut config = DriverConfig::new(agents, command);
        config.deps = dag.as_ref().map(Dag::dep_seqs);
        config.jobs_per_agent = spec.fleet.jobs_per_agent;
        config.payload = spec.payload;
        config.heartbeat_ms = spec.fleet.heartbeat_ms;
        config.lease_window_ms = spec.fleet.lease_window_ms;
        config.joblog = spec.joblog.clone();
        config.resume = spec.resume;
        config.bus = bus_from_env();
        match run_driver(&config, &inputs, chaos) {
            Ok(outcome) => {
                print_summary(&outcome);
                // A dep-failed skip is a terminal outcome, not missing work.
                if outcome.completed + outcome.skipped + outcome.skipped_dep_failed == outcome.total
                {
                    0
                } else {
                    1
                }
            }
            Err(e) => {
                eprintln!("htpar drive: {e}");
                1
            }
        }
    })
}

fn print_summary(outcome: &DriveOutcome) {
    let dep_failed = if outcome.skipped_dep_failed > 0 {
        format!(", {} skipped-dep-failed", outcome.skipped_dep_failed)
    } else {
        String::new()
    };
    eprintln!(
        "htpar drive: {}/{} task(s) in {:.2}s ({:.0} tasks/s), {} skipped{dep_failed}, {} duplicate completion(s) suppressed",
        outcome.completed,
        outcome.total,
        outcome.wall.as_secs_f64(),
        outcome.tasks_per_sec(),
        outcome.skipped,
        outcome.duplicates,
    );
    print_agents(&outcome.agents);
}

// ------------------------------------------------------------------ dag

/// Parsed `htpar dag` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DagCmdSpec {
    pub file: Option<PathBuf>,
    pub jobs: Option<usize>,
    pub joblog: Option<PathBuf>,
    pub resume: bool,
    /// `--make CMD`: make-style input rendered through CMD.
    pub make: Option<String>,
    pub shell: bool,
    pub dry_run: bool,
    pub help: bool,
}

impl Default for DagCmdSpec {
    fn default() -> Self {
        DagCmdSpec {
            file: None,
            jobs: None,
            joblog: None,
            resume: false,
            make: None,
            shell: true,
            dry_run: false,
            help: false,
        }
    }
}

/// Parse `htpar dag` arguments (everything after the subcommand).
pub fn parse_dag(argv: &[String]) -> Result<DagCmdSpec, String> {
    let mut spec = DagCmdSpec::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-j" | "--jobs" => {
                spec.jobs = Some(
                    flag_value(argv, i, "-j")?
                        .parse()
                        .map_err(|_| "-j needs a number".to_string())?,
                );
                i += 2;
            }
            "--joblog" => {
                spec.joblog = Some(PathBuf::from(flag_value(argv, i, "--joblog")?));
                i += 2;
            }
            "--resume" => {
                spec.resume = true;
                i += 1;
            }
            "--make" => {
                spec.make = Some(flag_value(argv, i, "--make")?);
                i += 2;
            }
            "--no-shell" => {
                spec.shell = false;
                i += 1;
            }
            "--dry-run" => {
                spec.dry_run = true;
                i += 1;
            }
            "--help" | "-h" => {
                spec.help = true;
                return Ok(spec);
            }
            other => {
                if let Some(n) = other.strip_prefix("-j") {
                    if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) {
                        spec.jobs = Some(n.parse().map_err(|_| "-j needs a number".to_string())?);
                        i += 1;
                        continue;
                    }
                }
                if other.starts_with('-') && other.len() > 1 {
                    return Err(format!("unknown option {other}"));
                }
                if spec.file.is_some() {
                    return Err(format!("unexpected extra argument {other:?}"));
                }
                spec.file = Some(PathBuf::from(other));
                i += 1;
            }
        }
    }
    if spec.file.is_none() {
        return Err("a DAG file is required".to_string());
    }
    if spec.resume && spec.joblog.is_none() {
        return Err("--resume requires --joblog".to_string());
    }
    Ok(spec)
}

fn run_dag(argv: &[String]) -> i32 {
    let spec = match parse_dag(argv) {
        Ok(spec) => spec,
        Err(msg) => return usage_error(&format!("dag: {msg}"), DAG_USAGE),
    };
    if spec.help {
        println!("{DAG_USAGE}");
        return 0;
    }
    let file = spec.file.as_ref().expect("validated by parse_dag");
    let dag = match load_dag(file, spec.make.as_deref()) {
        Ok(dag) => dag,
        Err(msg) => {
            eprintln!("htpar dag: {msg}");
            return 1;
        }
    };
    if spec.dry_run {
        print_dag_plan(&dag);
        return 0;
    }

    use htpar_core::executor::ProcessExecutor;
    use htpar_core::options::{Options, ResumeMode};
    let mut options = Options::default();
    if let Some(jobs) = spec.jobs {
        options.jobs = jobs;
    }
    options.joblog = spec.joblog.clone();
    options.resume = if spec.resume {
        ResumeMode::Resume
    } else {
        ResumeMode::Off
    };
    options.shell = spec.shell;
    let executor: Arc<dyn htpar_core::executor::Executor> = if spec.shell {
        Arc::new(ProcessExecutor::shell())
    } else {
        Arc::new(ProcessExecutor::no_shell())
    };
    let runner = DagRunner {
        options,
        executor,
        bus: bus_from_env(),
    };
    let started = std::time::Instant::now();
    match runner.run(&dag) {
        Ok(report) => {
            let ok = report.total - report.failed - report.skipped_dep_failed - report.resumed;
            eprintln!(
                "htpar dag: {}/{} task(s) ok in {:.2}s ({} failed, {} skipped-dep-failed, \
                 {} kept from a previous run)",
                ok,
                report.total,
                started.elapsed().as_secs_f64(),
                report.failed,
                report.skipped_dep_failed,
                report.resumed,
            );
            for id in &report.failed_ids {
                eprintln!("  failed: {id}");
            }
            if report.all_succeeded() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("htpar dag: {e}");
            1
        }
    }
}

/// `--dry-run`: one line per task in a valid topological order, in the
/// same grammar the parser accepts (round-trippable).
fn print_dag_plan(dag: &Dag) {
    let mut rs = ReadySet::new(dag);
    let mut order = rs.take_ready();
    let mut at = 0;
    while at < order.len() {
        let seq = order[at];
        at += 1;
        order.extend(rs.complete(seq, true).newly_ready);
    }
    for seq in order {
        let node = dag.node((seq - 1) as usize);
        let after: Vec<&str> = node
            .deps
            .iter()
            .map(|&d| dag.node(d as usize).id.as_str())
            .collect();
        if after.is_empty() {
            println!("{}: {}", node.id, node.command);
        } else {
            println!("{}: {} # after: {}", node.id, node.command, after.join(","));
        }
    }
}

// ---------------------------------------------------------------- serve

/// Parsed `htpar serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    pub fleet: FleetArgs,
    pub listen: String,
    pub policy: SchedPolicy,
    pub max_queue: u64,
    pub oversub: u32,
    pub joblog_dir: Option<PathBuf>,
    pub state_dir: Option<PathBuf>,
    /// Detach TTL in seconds; 0 holds detached sessions forever.
    pub detach_ttl: u64,
    /// Compact the journal after this many closed sessions; 0 never.
    pub journal_compact_every: u64,
    pub max_sessions: Option<u64>,
    pub announce: bool,
    pub help: bool,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            fleet: FleetArgs::default(),
            listen: "127.0.0.1:0".to_string(),
            policy: SchedPolicy::Fair,
            max_queue: 100_000,
            oversub: 4,
            joblog_dir: None,
            state_dir: None,
            detach_ttl: 3_600,
            journal_compact_every: 64,
            max_sessions: None,
            announce: true,
            help: false,
        }
    }
}

/// Parse `htpar serve` arguments (everything after the subcommand).
pub fn parse_serve(argv: &[String]) -> Result<ServeSpec, String> {
    let mut spec = ServeSpec::default();
    let mut i = 0;
    while i < argv.len() {
        let taken = spec.fleet.parse_flag(argv, i)?;
        if taken > 0 {
            i += taken;
            continue;
        }
        match argv[i].as_str() {
            "--listen" => {
                spec.listen = flag_value(argv, i, "--listen")?;
                i += 2;
            }
            "--scheduler" => {
                let v = flag_value(argv, i, "--scheduler")?;
                spec.policy = SchedPolicy::parse(&v).ok_or_else(|| {
                    format!("unknown scheduler {v:?} (want fifo, fair, or priority)")
                })?;
                i += 2;
            }
            "--max-queue" => {
                spec.max_queue = flag_value(argv, i, "--max-queue")?
                    .parse()
                    .map_err(|_| "--max-queue needs a count".to_string())?;
                i += 2;
            }
            "--oversub" => {
                spec.oversub = flag_value(argv, i, "--oversub")?
                    .parse()
                    .map_err(|_| "--oversub needs a number".to_string())?;
                i += 2;
            }
            "--joblog-dir" => {
                spec.joblog_dir = Some(PathBuf::from(flag_value(argv, i, "--joblog-dir")?));
                i += 2;
            }
            "--state-dir" => {
                spec.state_dir = Some(PathBuf::from(flag_value(argv, i, "--state-dir")?));
                i += 2;
            }
            "--detach-ttl" => {
                spec.detach_ttl = flag_value(argv, i, "--detach-ttl")?
                    .parse()
                    .map_err(|_| "--detach-ttl needs seconds".to_string())?;
                i += 2;
            }
            "--journal-compact" => {
                spec.journal_compact_every = flag_value(argv, i, "--journal-compact")?
                    .parse()
                    .map_err(|_| "--journal-compact needs a count".to_string())?;
                i += 2;
            }
            "--max-sessions" => {
                spec.max_sessions = Some(
                    flag_value(argv, i, "--max-sessions")?
                        .parse()
                        .map_err(|_| "--max-sessions needs a count".to_string())?,
                );
                i += 2;
            }
            "--quiet" => {
                spec.announce = false;
                i += 1;
            }
            "--help" | "-h" => {
                spec.help = true;
                return Ok(spec);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    spec.fleet.validate()?;
    if spec.oversub == 0 {
        return Err("--oversub must be at least 1".to_string());
    }
    Ok(spec)
}

fn run_serve(argv: &[String]) -> i32 {
    let spec = match parse_serve(argv) {
        Ok(spec) => spec,
        Err(msg) => return usage_error(&format!("serve: {msg}"), SERVE_USAGE),
    };
    if spec.help {
        println!("{SERVE_USAGE}");
        return 0;
    }
    spec.fleet.run("serve", |agents, chaos| {
        let mut config = ServeConfig::new(agents, spec.listen.clone());
        config.jobs_per_agent = spec.fleet.jobs_per_agent;
        config.policy = spec.policy;
        config.max_queue_per_tenant = spec.max_queue;
        config.oversub = spec.oversub;
        config.joblog_dir = spec.joblog_dir.clone();
        config.state_dir = spec.state_dir.clone();
        config.detach_ttl = if spec.detach_ttl == 0 {
            None
        } else {
            Some(Duration::from_secs(spec.detach_ttl))
        };
        config.journal_compact_every = spec.journal_compact_every;
        config.max_sessions = spec.max_sessions;
        config.heartbeat_ms = spec.fleet.heartbeat_ms;
        config.lease_window_ms = spec.fleet.lease_window_ms;
        config.bus = bus_from_env();

        let server = match PilotServer::bind(config) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("htpar serve: {e}");
                return 1;
            }
        };
        if spec.announce {
            match server.local_spec() {
                Ok(addr) => {
                    println!("{SERVE_ANNOUNCE_PREFIX} {addr}");
                    let _ = std::io::stdout().flush();
                }
                Err(e) => {
                    eprintln!("htpar serve: {e}");
                    return 1;
                }
            }
        }
        match server.run(chaos) {
            Ok(outcome) => {
                print_serve_summary(&outcome);
                0
            }
            Err(e) => {
                eprintln!("htpar serve: {e}");
                1
            }
        }
    })
}

fn print_serve_summary(outcome: &ServeOutcome) {
    eprintln!(
        "htpar serve: {} session(s), {} task(s) completed in {:.2}s, {} released, \
         {} duplicate(s), {} submit(s) rejected",
        outcome.sessions,
        outcome.completed,
        outcome.wall.as_secs_f64(),
        outcome.released,
        outcome.duplicates,
        outcome.rejected_submits,
    );
    for tenant in &outcome.tenants {
        eprintln!(
            "  tenant {}: {} done, {} rejected submit(s)",
            tenant.name, tenant.completed, tenant.rejected_submits
        );
    }
    print_agents(&outcome.agents);
}

// --------------------------------------------------------------- submit

/// Parsed `htpar submit` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    pub connect: String,
    pub tenant: String,
    pub weight: u32,
    pub priority: u32,
    pub payload: Payload,
    pub batch: usize,
    pub retry_max: u32,
    pub detach: Option<u64>,
    pub reattach: Option<u64>,
    /// `--dag FILE`: client-side ready-set release over the session.
    pub dag: Option<PathBuf>,
    /// `--make`: the `--dag` file is make-style `target: deps` lines,
    /// rendered through the command template.
    pub make: bool,
    pub command: String,
    pub values: Option<Vec<String>>,
    pub help: bool,
}

impl Default for SubmitSpec {
    fn default() -> Self {
        SubmitSpec {
            connect: String::new(),
            tenant: "default".to_string(),
            weight: 1,
            priority: 0,
            payload: Payload::Shell,
            batch: 1_000,
            retry_max: 10,
            detach: None,
            reattach: None,
            dag: None,
            make: false,
            command: String::new(),
            values: None,
            help: false,
        }
    }
}

/// Parse `htpar submit` arguments (everything after the subcommand).
pub fn parse_submit(argv: &[String]) -> Result<SubmitSpec, String> {
    let mut spec = SubmitSpec::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => {
                spec.connect = flag_value(argv, i, "--connect")?;
                i += 2;
            }
            "--tenant" => {
                spec.tenant = flag_value(argv, i, "--tenant")?;
                i += 2;
            }
            "--weight" => {
                spec.weight = flag_value(argv, i, "--weight")?
                    .parse()
                    .map_err(|_| "--weight needs a number".to_string())?;
                i += 2;
            }
            "--priority" => {
                spec.priority = flag_value(argv, i, "--priority")?
                    .parse()
                    .map_err(|_| "--priority needs a number".to_string())?;
                i += 2;
            }
            "--payload" => {
                spec.payload = parse_payload(&flag_value(argv, i, "--payload")?)?;
                i += 2;
            }
            "--batch" => {
                spec.batch = flag_value(argv, i, "--batch")?
                    .parse()
                    .map_err(|_| "--batch needs a count".to_string())?;
                i += 2;
            }
            "--retry-max" => {
                spec.retry_max = flag_value(argv, i, "--retry-max")?
                    .parse()
                    .map_err(|_| "--retry-max needs a count".to_string())?;
                i += 2;
            }
            "--detach" => {
                spec.detach = Some(
                    flag_value(argv, i, "--detach")?
                        .parse()
                        .map_err(|_| "--detach needs a numeric key".to_string())?,
                );
                i += 2;
            }
            "--reattach" => {
                spec.reattach = Some(
                    flag_value(argv, i, "--reattach")?
                        .parse()
                        .map_err(|_| "--reattach needs a numeric key".to_string())?,
                );
                i += 2;
            }
            "--dag" => {
                spec.dag = Some(PathBuf::from(flag_value(argv, i, "--dag")?));
                i += 2;
            }
            "--make" => {
                spec.make = true;
                i += 1;
            }
            "--help" | "-h" => {
                spec.help = true;
                return Ok(spec);
            }
            other => {
                if other.starts_with("--") {
                    return Err(format!("unknown option {other}"));
                }
                break;
            }
        }
    }
    let (command, values) = parse_command_tail(argv, i);
    spec.command = command;
    spec.values = values;
    if spec.detach.is_some() && spec.reattach.is_some() {
        return Err("--detach and --reattach are mutually exclusive".to_string());
    }
    if spec.make && spec.dag.is_none() {
        return Err("--make requires --dag FILE".to_string());
    }
    if spec.dag.is_some() {
        if spec.detach.is_some() || spec.reattach.is_some() {
            // The client *is* the scheduler for a DAG session; there is
            // nothing to hand to the pilot while detached.
            return Err("--dag needs a live session; it cannot --detach or --reattach".to_string());
        }
        if spec.values.is_some() {
            return Err("--dag and ::: are mutually exclusive".to_string());
        }
        if spec.make && spec.command.is_empty() {
            return Err("--dag --make needs a command template ({} = target)".to_string());
        }
        if !spec.make && !spec.command.is_empty() {
            return Err(
                "--dag FILE supplies the commands; drop the command words (or add --make)"
                    .to_string(),
            );
        }
    } else if spec.reattach.is_some() {
        if !spec.command.is_empty() || spec.values.is_some() {
            return Err("--reattach collects results; it takes no command or args".to_string());
        }
    } else if spec.command.is_empty() {
        return Err("a command template is required".to_string());
    }
    if spec.connect.is_empty() {
        return Err("--connect is required".to_string());
    }
    if spec.batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    Ok(spec)
}

/// Backoff before the `attempt`-th backpressure resubmit: 10 ms base,
/// doubling per attempt, capped at the same `2^10` multiplier the
/// in-process retry path uses (`htpar_core::runner::retry_backoff`).
fn submit_backoff(attempt: u32) -> Duration {
    htpar_core::runner::retry_backoff(Duration::from_millis(10), attempt)
}

/// Submit one batch. Admission refusals are backpressure: back off with
/// a capped exponential schedule and resubmit the same batch. A bounded
/// retry count turns a wedged tenant queue into a typed error instead
/// of an infinite spin. `Err` carries the exit status: 2 when the pilot
/// still refuses after `retry_max` retries, 1 on a connection error.
fn submit_with_backoff(
    client: &mut SessionClient,
    batch: &[Vec<String>],
    retry_max: u32,
) -> Result<(), i32> {
    let mut attempt = 0u32;
    loop {
        match client.submit(batch) {
            Ok(verdict) if verdict.accepted => return Ok(()),
            Ok(_) if attempt < retry_max => {
                std::thread::sleep(submit_backoff(attempt));
                attempt += 1;
            }
            Ok(verdict) => {
                eprintln!(
                    "htpar submit: tenant queue still full after {retry_max} \
                     backpressure retries (last refusal: {}); giving up",
                    verdict.reason
                );
                return Err(2);
            }
            Err(e) => {
                eprintln!("htpar submit: {e}");
                return Err(1);
            }
        }
    }
}

fn run_submit(argv: &[String]) -> i32 {
    let spec = match parse_submit(argv) {
        Ok(spec) => spec,
        Err(msg) => return usage_error(&format!("submit: {msg}"), SUBMIT_USAGE),
    };
    if spec.help {
        println!("{SUBMIT_USAGE}");
        return 0;
    }
    if let Some(key) = spec.reattach {
        return run_reattach(&spec, key);
    }
    if let Some(path) = &spec.dag {
        let make = spec.make.then_some(spec.command.as_str());
        let dag = match load_dag(path, make) {
            Ok(dag) => dag,
            Err(msg) => {
                eprintln!("htpar submit: {msg}");
                return 1;
            }
        };
        return run_submit_dag(&spec, &dag);
    }
    let inputs: Vec<Vec<String>> = match &spec.values {
        Some(values) => values.iter().map(|v| vec![v.clone()]).collect(),
        None => {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            match stdin.lock().lines().collect::<std::io::Result<Vec<_>>>() {
                Ok(lines) => lines.into_iter().map(|l| vec![l]).collect(),
                Err(e) => {
                    eprintln!("htpar submit: reading stdin: {e}");
                    return 1;
                }
            }
        }
    };
    if inputs.is_empty() {
        eprintln!("htpar submit: no input arguments");
        return 1;
    }

    let mut config = SessionConfig::new(spec.connect.clone(), spec.tenant.clone());
    config.weight = spec.weight;
    config.priority = spec.priority;
    config.payload = spec.payload;
    config.command = spec.command.clone();
    let mut client = match SessionClient::connect(config) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    let started = std::time::Instant::now();
    for batch in inputs.chunks(spec.batch) {
        if let Err(code) = submit_with_backoff(&mut client, batch, spec.retry_max) {
            client.abort();
            return code;
        }
    }
    let submitted = client.submitted();
    if let Some(key) = spec.detach {
        let queued = match client.detach(key) {
            Ok(queued) => queued,
            Err(e) => {
                eprintln!("htpar submit: {e}");
                return 1;
            }
        };
        eprintln!(
            "htpar submit: detached after {:.2}s: {submitted} task(s) accepted, \
             {queued} still pending; collect with --reattach {key}",
            started.elapsed().as_secs_f64()
        );
        return 0;
    }
    let mut failed = 0u64;
    let completed = match drain_to_done(&mut client, &mut failed) {
        Ok(completed) => completed,
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    eprintln!(
        "htpar submit: {completed}/{submitted} task(s) completed in {:.2}s ({failed} failed)",
        started.elapsed().as_secs_f64()
    );
    if failed == 0 && completed == submitted {
        0
    } else {
        1
    }
}

/// `htpar submit --dag`: client-side ready-set release. The pilot sees
/// ordinary Submit batches over a bare `{}` template; the client
/// withholds each task until its dependencies' `DoneBatch` records
/// arrive, so running a graph needs no protocol change. Session seqs
/// are assigned in submission order, so `node_for[s - 1]` maps a
/// session seq back to the DAG node it carried.
fn run_submit_dag(spec: &SubmitSpec, dag: &Dag) -> i32 {
    let mut config = SessionConfig::new(spec.connect.clone(), spec.tenant.clone());
    config.weight = spec.weight;
    config.priority = spec.priority;
    config.payload = spec.payload;
    config.command = "{}".to_string();
    let mut client = match SessionClient::connect(config) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    let started = std::time::Instant::now();
    let mut ready = ReadySet::new(dag);
    let mut node_for: Vec<u64> = Vec::new();
    let mut to_submit: Vec<u64> = ready.take_ready();
    loop {
        let mut at = 0;
        while at < to_submit.len() {
            let end = (at + spec.batch).min(to_submit.len());
            let chunk = &to_submit[at..end];
            let batch: Vec<Vec<String>> = chunk
                .iter()
                .map(|&seq| vec![dag.node((seq - 1) as usize).command.clone()])
                .collect();
            if let Err(code) = submit_with_backoff(&mut client, &batch, spec.retry_max) {
                client.abort();
                return code;
            }
            node_for.extend_from_slice(chunk);
            at = end;
        }
        to_submit.clear();
        if ready.is_finished() {
            break;
        }
        let recs = match client.recv() {
            Ok(ClientEvent::Done(recs)) => recs,
            Ok(ClientEvent::SessionDone { .. }) => break,
            Err(e) => {
                eprintln!("htpar submit: {e}");
                return 1;
            }
        };
        for rec in &recs {
            let Some(&node_seq) = node_for.get((rec.seq - 1) as usize) else {
                continue;
            };
            let ok = rec.exitval == 0 && rec.signal == 0;
            to_submit.extend(ready.complete(node_seq, ok).newly_ready);
        }
    }
    let submitted = client.submitted();
    let mut late_failed = 0u64;
    let completed = match drain_to_done(&mut client, &mut late_failed) {
        Ok(completed) => completed,
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    let (_done, failed, skipped, _pre) = ready.counts();
    eprintln!(
        "htpar submit: dag: {completed}/{submitted} task(s) completed in {:.2}s \
         ({failed} failed, {skipped} skipped-dep-failed)",
        started.elapsed().as_secs_f64()
    );
    if failed == 0 && skipped == 0 && completed == submitted {
        0
    } else {
        1
    }
}

/// Send the client-side `SessionDone` and drain completions until the
/// pilot's final frame, counting nonzero exits into `failed`.
fn drain_to_done(client: &mut SessionClient, failed: &mut u64) -> htpar_net::Result<u64> {
    client.finish_async()?;
    loop {
        match client.recv()? {
            ClientEvent::Done(recs) => {
                *failed += recs.iter().filter(|r| r.exitval != 0).count() as u64;
            }
            ClientEvent::SessionDone { completed, .. } => return Ok(completed),
        }
    }
}

/// `htpar submit --reattach KEY`: adopt a detached session and collect
/// its results (replayed history first, then live completions).
fn run_reattach(spec: &SubmitSpec, key: u64) -> i32 {
    let mut config = SessionConfig::new(spec.connect.clone(), spec.tenant.clone());
    config.payload = spec.payload;
    let client = match SessionClient::reattach(config, key) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    let started = std::time::Instant::now();
    let submitted = client.submitted();
    let mut failed = 0u64;
    let completed = match client.collect(|recs| {
        failed += recs.iter().filter(|r| r.exitval != 0).count() as u64;
    }) {
        Ok(completed) => completed,
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    eprintln!(
        "htpar submit: reattached: {completed}/{submitted} task(s) collected in {:.2}s \
         ({failed} failed)",
        started.elapsed().as_secs_f64()
    );
    if failed == 0 && completed == submitted {
        0
    } else {
        1
    }
}

fn usage_error(msg: &str, usage: &str) -> i32 {
    eprintln!("htpar: {msg}");
    eprintln!("{usage}");
    255
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn drive_grammar_parses() {
        let spec = parse_drive(&argv(
            "--local-cluster 4 -j 16 --joblog run.log --resume --payload noop \
             --chaos-kill-agent 2@500 task {} ::: a b c",
        ))
        .unwrap();
        assert_eq!(spec.fleet.local_cluster, 4);
        assert_eq!(spec.fleet.jobs_per_agent, 16);
        assert_eq!(spec.joblog, Some(PathBuf::from("run.log")));
        assert!(spec.resume);
        assert_eq!(spec.payload, Payload::Noop);
        assert_eq!(spec.fleet.chaos_kill, Some((2, 500)));
        assert_eq!(spec.command, "task {}");
        assert_eq!(
            spec.values,
            Some(vec!["a".to_string(), "b".to_string(), "c".to_string()])
        );
    }

    #[test]
    fn drive_attached_jobs_form_and_unknown_flags() {
        let spec = parse_drive(&argv("--local-cluster 2 -j16 --joblog run.log task {}")).unwrap();
        assert_eq!(spec.fleet.jobs_per_agent, 16);
        assert_eq!(spec.joblog, Some(PathBuf::from("run.log")));
        assert_eq!(spec.command, "task {}");
        let err = parse_drive(&argv("--local-cluster 2 --jobslog run.log task {}")).unwrap_err();
        assert!(err.contains("unknown option --jobslog"), "{err}");
    }

    #[test]
    fn drive_agents_list_splits_on_commas() {
        let spec = parse_drive(&argv("--agents n1:4511,n2:4511 task {}")).unwrap();
        assert_eq!(spec.fleet.agents, vec!["n1:4511", "n2:4511"]);
        assert_eq!(spec.values, None, "stdin is the input source");
    }

    #[test]
    fn drive_requires_agents_and_command() {
        assert!(parse_drive(&argv("task {}")).is_err());
        assert!(parse_drive(&argv("--local-cluster 2")).is_err());
    }

    #[test]
    fn chaos_requires_local_cluster_and_range() {
        assert!(parse_drive(&argv("--agents a --chaos-kill-agent 0@5 task {}")).is_err());
        assert!(parse_drive(&argv("--local-cluster 2 --chaos-kill-agent 2@5 task {}")).is_err());
        assert!(parse_drive(&argv("--local-cluster 2 --chaos-kill-agent 1@5 task {}")).is_ok());
    }

    #[test]
    fn serve_grammar_parses() {
        let spec = parse_serve(&argv(
            "--local-cluster 4 -j 8 --scheduler priority --max-queue 500 --oversub 2 \
             --joblog-dir logs --max-sessions 3 --heartbeat-ms 100 --lease-ms 900 \
             --chaos-kill-agent 1@50 --quiet",
        ))
        .unwrap();
        assert_eq!(spec.fleet.local_cluster, 4);
        assert_eq!(spec.fleet.jobs_per_agent, 8);
        assert_eq!(spec.policy, SchedPolicy::Priority);
        assert_eq!(spec.max_queue, 500);
        assert_eq!(spec.oversub, 2);
        assert_eq!(spec.joblog_dir, Some(PathBuf::from("logs")));
        assert_eq!(spec.max_sessions, Some(3));
        assert_eq!(spec.fleet.heartbeat_ms, 100);
        assert_eq!(spec.fleet.lease_window_ms, 900);
        assert_eq!(spec.fleet.chaos_kill, Some((1, 50)));
        assert!(!spec.announce);
    }

    #[test]
    fn serve_durability_flags_parse() {
        let spec =
            parse_serve(&argv("--local-cluster 2 --state-dir state --detach-ttl 30")).unwrap();
        assert_eq!(spec.state_dir, Some(PathBuf::from("state")));
        assert_eq!(spec.detach_ttl, 30);
        let spec = parse_serve(&argv("--local-cluster 2")).unwrap();
        assert_eq!(spec.state_dir, None, "journaling is opt-in");
        assert_eq!(spec.detach_ttl, 3_600, "default TTL is one hour");
        let spec = parse_serve(&argv("--local-cluster 2 --detach-ttl 0")).unwrap();
        assert_eq!(spec.detach_ttl, 0, "0 holds detached sessions forever");
        let spec = parse_serve(&argv("--local-cluster 2 --journal-compact 8")).unwrap();
        assert_eq!(spec.journal_compact_every, 8);
        let spec = parse_serve(&argv("--local-cluster 2")).unwrap();
        assert_eq!(spec.journal_compact_every, 64, "compaction defaults on");
        assert!(parse_serve(&argv("--local-cluster 2 --detach-ttl soon")).is_err());
        assert!(parse_serve(&argv("--local-cluster 2 --state-dir")).is_err());
    }

    #[test]
    fn serve_defaults_and_validation() {
        let spec = parse_serve(&argv("--agents n1:4511,n2:4511")).unwrap();
        assert_eq!(spec.fleet.agents, vec!["n1:4511", "n2:4511"]);
        assert_eq!(spec.listen, "127.0.0.1:0");
        assert_eq!(spec.policy, SchedPolicy::Fair);
        assert_eq!(spec.max_queue, 100_000);
        assert!(spec.announce);
        assert!(
            parse_serve(&argv("")).is_err(),
            "agents or cluster required"
        );
        assert!(parse_serve(&argv("--agents a --chaos-kill-agent 0@5")).is_err());
        assert!(parse_serve(&argv("--local-cluster 2 --chaos-kill-agent 2@5")).is_err());
        assert!(parse_serve(&argv("--local-cluster 2 --oversub 0")).is_err());
        let err = parse_serve(&argv("--local-cluster 2 --scheduler lifo")).unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
        let err = parse_serve(&argv("--local-cluster 2 extra")).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
    }

    #[test]
    fn submit_grammar_parses() {
        let spec = parse_submit(&argv(
            "--connect 127.0.0.1:4511 --tenant ml --weight 4 --priority 2 \
             --payload sleep:100 --batch 50 task {} ::: a b",
        ))
        .unwrap();
        assert_eq!(spec.connect, "127.0.0.1:4511");
        assert_eq!(spec.tenant, "ml");
        assert_eq!(spec.weight, 4);
        assert_eq!(spec.priority, 2);
        assert_eq!(spec.payload, Payload::SleepUs(100));
        assert_eq!(spec.batch, 50);
        assert_eq!(spec.command, "task {}");
        assert_eq!(spec.values, Some(vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn submit_requires_connect_and_command() {
        let spec = parse_submit(&argv("--connect unix:/tmp/p.sock task {}")).unwrap();
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.values, None, "stdin is the input source");
        assert!(parse_submit(&argv("task {}")).is_err(), "connect required");
        assert!(
            parse_submit(&argv("--connect a:1")).is_err(),
            "command required"
        );
        assert!(parse_submit(&argv("--connect a:1 --batch 0 task {}")).is_err());
        let err = parse_submit(&argv("--connect a:1 --wieght 2 task {}")).unwrap_err();
        assert!(err.contains("unknown option --wieght"), "{err}");
    }

    #[test]
    fn submit_detach_reattach_grammar() {
        let spec = parse_submit(&argv("--connect a:1 --detach 42 --retry-max 3 task {}")).unwrap();
        assert_eq!(spec.detach, Some(42));
        assert_eq!(spec.reattach, None);
        assert_eq!(spec.retry_max, 3);
        let spec = parse_submit(&argv("--connect a:1 --tenant ml --reattach 42")).unwrap();
        assert_eq!(spec.reattach, Some(42));
        assert!(spec.command.is_empty(), "reattach takes no command");
        let spec = parse_submit(&argv("--connect a:1 task {}")).unwrap();
        assert_eq!(spec.retry_max, 10, "default backpressure retry cap");
        let err = parse_submit(&argv("--connect a:1 --detach 1 --reattach 2 task {}")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --reattach 2 task {}")).unwrap_err();
        assert!(err.contains("no command"), "{err}");
        assert!(parse_submit(&argv("--connect a:1 --detach soon task {}")).is_err());
        assert!(parse_submit(&argv("--connect a:1 --retry-max many task {}")).is_err());
    }

    #[test]
    fn submit_backoff_schedule_doubles_then_caps() {
        assert_eq!(submit_backoff(0), Duration::from_millis(10));
        assert_eq!(submit_backoff(1), Duration::from_millis(20));
        assert_eq!(submit_backoff(2), Duration::from_millis(40));
        assert_eq!(submit_backoff(10), Duration::from_millis(10 * 1024));
        assert_eq!(
            submit_backoff(11),
            Duration::from_millis(10 * 1024),
            "the exponent caps at 2^10"
        );
        assert_eq!(submit_backoff(u32::MAX), Duration::from_millis(10 * 1024));
    }

    #[test]
    fn net_core_grammar() {
        // The reactor is the only net core; the old selector is a typo
        // like any other unknown flag.
        for core in ["reactor", "threaded"] {
            let err = parse_drive(&argv(&format!(
                "--local-cluster 2 --net-core {core} task {{}}"
            )))
            .unwrap_err();
            assert!(err.contains("unknown option --net-core"), "{err}");
            let err =
                parse_serve(&argv(&format!("--local-cluster 2 --net-core {core}"))).unwrap_err();
            assert!(err.contains("unknown option --net-core"), "{err}");
        }
    }

    #[test]
    fn payload_grammar() {
        assert_eq!(parse_payload("shell").unwrap(), Payload::Shell);
        assert_eq!(parse_payload("noop").unwrap(), Payload::Noop);
        assert_eq!(parse_payload("sleep:250").unwrap(), Payload::SleepUs(250));
        assert!(parse_payload("sleep:x").is_err());
        assert!(parse_payload("exec").is_err());
    }

    #[test]
    fn command_tail_is_shared_between_drive_and_submit() {
        // The same tail must parse identically through both grammars.
        for tail in ["task {} ::: a b c", "task {}", "wc -l {} ::: x"] {
            let d = parse_drive(&argv(&format!("--local-cluster 1 {tail}"))).unwrap();
            let s = parse_submit(&argv(&format!("--connect a:1 {tail}"))).unwrap();
            assert_eq!(d.command, s.command, "{tail}");
            assert_eq!(d.values, s.values, "{tail}");
        }
        // `:::` with no values is an empty (not absent) source.
        let (cmd, values) = parse_command_tail(&argv("task {} :::"), 0);
        assert_eq!(cmd, "task {}");
        assert_eq!(values, Some(vec![]));
        let (cmd, values) = parse_command_tail(&argv(""), 0);
        assert!(cmd.is_empty());
        assert_eq!(values, None);
    }

    #[test]
    fn drive_dag_grammar() {
        let spec = parse_drive(&argv("--local-cluster 2 --dag graph.dag")).unwrap();
        assert_eq!(spec.dag, Some(PathBuf::from("graph.dag")));
        assert!(!spec.make);
        assert!(spec.command.is_empty());
        let spec = parse_drive(&argv("--local-cluster 2 --dag deps.mk --make render {}")).unwrap();
        assert!(spec.make);
        assert_eq!(spec.command, "render {}");
        let err = parse_drive(&argv("--local-cluster 2 --dag g.dag task {}")).unwrap_err();
        assert!(err.contains("supplies the commands"), "{err}");
        let err = parse_drive(&argv("--local-cluster 2 --dag g.dag ::: a b")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_drive(&argv("--local-cluster 2 --dag deps.mk --make")).unwrap_err();
        assert!(err.contains("command template"), "{err}");
        let err = parse_drive(&argv("--local-cluster 2 --make task {}")).unwrap_err();
        assert!(err.contains("requires --dag"), "{err}");
    }

    #[test]
    fn submit_dag_grammar() {
        let spec = parse_submit(&argv("--connect a:1 --dag graph.dag --batch 10")).unwrap();
        assert_eq!(spec.dag, Some(PathBuf::from("graph.dag")));
        assert_eq!(spec.batch, 10);
        let spec = parse_submit(&argv("--connect a:1 --dag deps.mk --make render {}")).unwrap();
        assert!(spec.make);
        assert_eq!(spec.command, "render {}");
        let err = parse_submit(&argv("--connect a:1 --dag g.dag task {}")).unwrap_err();
        assert!(err.contains("supplies the commands"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --dag g.dag --detach 7")).unwrap_err();
        assert!(err.contains("live session"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --dag g.dag --reattach 7")).unwrap_err();
        assert!(err.contains("live session"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --make task {}")).unwrap_err();
        assert!(err.contains("requires --dag"), "{err}");
    }

    #[test]
    fn dag_cmd_grammar() {
        let spec = parse_dag(&argv("graph.dag -j 8 --joblog run.log --resume")).unwrap();
        assert_eq!(spec.file, Some(PathBuf::from("graph.dag")));
        assert_eq!(spec.jobs, Some(8));
        assert_eq!(spec.joblog, Some(PathBuf::from("run.log")));
        assert!(spec.resume);
        assert!(spec.shell);
        let spec = parse_dag(&argv("-j4 --no-shell --dry-run graph.dag")).unwrap();
        assert_eq!(spec.jobs, Some(4));
        assert!(!spec.shell);
        assert!(spec.dry_run);
        let spec = parse_dag(&argv("deps.mk --make render_{}")).unwrap();
        assert_eq!(spec.make, Some("render_{}".to_string()));
        assert!(parse_dag(&argv("")).is_err(), "file required");
        assert!(parse_dag(&argv("a.dag b.dag")).is_err(), "one file only");
        assert!(
            parse_dag(&argv("a.dag --resume")).is_err(),
            "resume needs a joblog"
        );
        let err = parse_dag(&argv("a.dag --jobslog x")).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
    }

    #[test]
    fn dispatch_ignores_classic_invocations() {
        assert_eq!(dispatch(&argv("-j8 echo {} ::: 1 2")), None);
        assert_eq!(dispatch(&[]), None);
    }
}
