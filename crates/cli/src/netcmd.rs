//! The `htpar` subcommands: `agent`, `drive`, `serve` and `submit`, the
//! CLI face of the network subsystem (`htpar-net`, DESIGN.md §12–13).
//! Each reads its words through the one [`Args`] reader that `htpar`
//! itself uses.
//!
//! ```text
//! # one agent per node, then drive from the head node:
//! htpar agent --listen 0.0.0.0:4511
//! seq 100000 | htpar drive --agents n1:4511,n2:4511 -j 16 --joblog run.log 'task {}'
//!
//! # or a self-contained mini-cluster of local subprocesses, here the
//! # paper's 12 x 3 Darshan product (36 tasks):
//! htpar drive --local-cluster 4 --joblog run.log \
//!     'python3 ./darshan_arch.py {1} {2}' ::: {1..12} ::: {0..2}
//! ```
//!
//! `drive` and `submit` take the same `COMMAND ::: A... :::+ B...` tail
//! as `htpar`, expanded by the same [`read_inputs`] (stdin lines when no
//! `:::` source is given). `drive` records an aggregated joblog with the
//! agent name in the `Host` column, and honors `--resume` against it.
//! `--chaos-kill-agent IDX@DONE` SIGKILLs one `--local-cluster` agent
//! once the global completion count reaches `DONE` — the
//! fault-injection knob the e2e recovery tests are built on.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use htpar_core::dag::{Completion, Dag, ReadySet};
use htpar_core::sched::SchedPolicy;
use htpar_net::agent::{self, AgentConfig};
use htpar_net::client::{ClientEvent, SessionClient, SessionConfig};
use htpar_net::driver::{run_driver, DriveOutcome, DriverConfig};
use htpar_net::fleet::AgentStat;
use htpar_net::frame::Payload;
use htpar_net::local::LocalCluster;
use htpar_net::serve::{PilotServer, ServeConfig, ServeOutcome, SERVE_ANNOUNCE_PREFIX};

use crate::args::{check_dag, load_dag, read_inputs, ArgError, Args, SourceSpec};
use crate::exec::{exit_code, telemetry_from_env};

pub const AGENT_USAGE: &str = "\
usage: htpar agent --listen ADDR [--name NAME] [--quiet]
  --listen ADDR   bind address: HOST:PORT (0 picks a port) or unix:/path
  --name NAME     handshake name (drivers log it as the joblog Host)
  --quiet         do not print the HTPAR_AGENT_LISTENING announce line";

pub const DRIVE_USAGE: &str = "\
usage: htpar drive (--agents SPEC[,SPEC...] | --local-cluster N) [OPTIONS] \
COMMAND... [::: ARGS...]...
  --agents SPECS         comma-separated agent addresses to dial
  --local-cluster N      spawn N agent subprocesses on this machine
  -j, --jobs-per-agent N job slots per agent (default: 2)
      --joblog FILE      aggregated joblog (Host = agent name)
      --resume           skip seqs already recorded in the joblog
                         (requires --joblog)
      --heartbeat-ms MS  agent heartbeat interval (default: 200); an
                         agent silent for ten is declared lost
      --payload KIND     what agents run: shell (default), noop, or
                         sleep:MICROS (measurement payloads)
      --chaos-kill-agent IDX@DONE
                         SIGKILL local agent IDX once DONE tasks have
                         completed (requires --local-cluster)
      --dag FILE         drive a dependency graph: FILE supplies the
                         commands (htpar --dag grammar) and the driver
                         releases a task to the fleet only after its
                         dependencies succeed; no COMMAND/::: tail
      --make             with --dag: FILE is make-style `target: deps`
                         lines and the COMMAND tail renders each task
                         ({} = target)
With no ::: source, arguments are read from stdin, one per line.
Exit status: as htpar's, the number of failed tasks (0 when none, 101
above 100); 255 when the drive itself fails.";

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
      --joblog-dir DIR   per-tenant joblogs, DIR/<tenant>.joblog
      --state-dir DIR    write-ahead session journal (DIR/pilot.journal);
                         a restarted pilot recovers accepted-but-
                         unfinished work from it
      --detach-ttl SECS  hold a detached session for SECS after its
                         socket drops before purging its work
                         (default: 3600; 0 holds forever)
      --max-sessions N   exit after N sessions close (default: forever)
      --heartbeat-ms MS  agent heartbeat interval (default: 200); an
                         agent silent for ten is declared lost
      --chaos-kill-agent IDX@DONE
                         SIGKILL local agent IDX once DONE tasks have
                         completed (requires --local-cluster)
      --quiet            do not print the HTPAR_SERVE_LISTENING line
One-shot runs are unchanged: `htpar drive` still owns its own fleet.";

pub const SUBMIT_USAGE: &str = "\
usage: htpar submit --connect ADDR [OPTIONS] COMMAND... [::: ARGS...]...
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

/// A subcommand: its name, its usage, and how it parses and runs.
type Subcommand = (
    &'static str,
    &'static str,
    fn(&[String]) -> Result<i32, ArgError>,
);

/// Every subcommand `htpar` routes.
pub const SUBCOMMANDS: [Subcommand; 4] = [
    ("agent", AGENT_USAGE, |argv| {
        Ok(run_agent(parse_agent(argv)?))
    }),
    ("drive", DRIVE_USAGE, |argv| {
        Ok(run_drive(parse_drive(argv)?))
    }),
    ("serve", SERVE_USAGE, |argv| {
        Ok(run_serve(parse_serve(argv)?))
    }),
    ("submit", SUBMIT_USAGE, |argv| {
        Ok(run_submit(parse_submit(argv)?))
    }),
];

/// Dispatch a subcommand. `None` means `argv` is a classic
/// `parallel`-style invocation and the caller should fall through.
pub fn dispatch(argv: &[String]) -> Option<i32> {
    let (word, rest) = argv.split_first()?;
    let (name, usage, run) = SUBCOMMANDS.iter().find(|(name, ..)| name == word)?;
    Some(run(rest).unwrap_or_else(|e| e.exit(&format!("htpar {name}"), usage)))
}

// ---------------------------------------------------------------- agent

/// Parse `htpar agent` arguments (everything after the subcommand).
pub fn parse_agent(argv: &[String]) -> Result<AgentConfig, ArgError> {
    let mut config = AgentConfig::new("");
    config.announce = true;
    let mut args = Args::new(argv);
    while let Some(flag) = args.flag()? {
        match flag {
            "--listen" => config.listen = args.value(flag)?.into(),
            "--name" => config.name = args.value(flag)?.into(),
            "--quiet" => config.announce = false,
            _ => return Err(args.unknown()),
        }
    }
    if config.listen.is_empty() {
        return Err("--listen is required".into());
    }
    Ok(config)
}

fn run_agent(config: AgentConfig) -> i32 {
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
/// slots each runs, the heartbeat (an agent silent for ten is lost),
/// and the chaos hook.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    pub agents: Vec<String>,
    pub local_cluster: usize,
    pub jobs_per_agent: u32,
    pub heartbeat_ms: u32,
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
            chaos_kill: None,
        }
    }
}

impl FleetArgs {
    /// Read `flag` if it is a fleet flag; `false` when it is not one.
    fn read(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--agents" => {
                let specs = args.value(flag)?.split(',').filter(|s| !s.is_empty());
                self.agents = specs.map(str::to_string).collect();
            }
            "--local-cluster" => self.local_cluster = args.parse(flag)?,
            "-j" | "--jobs-per-agent" => self.jobs_per_agent = args.parse(flag)?,
            "--heartbeat-ms" => self.heartbeat_ms = args.parse(flag)?,
            "--chaos-kill-agent" => self.chaos_kill = Some(parse_chaos(args.value(flag)?)?),
            _ => return Ok(false),
        }
        Ok(true)
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
    /// `body` returns the exit code; a cluster that cannot be spawned
    /// exits `failed`. After a clean run the drained local agents are
    /// reaped; after a failed one they are killed, since some may still
    /// wait for a driver that never dialed them.
    fn run(
        &self,
        cmd: &str,
        failed: i32,
        body: impl FnOnce(Vec<String>, Option<&mut dyn FnMut(u64)>) -> i32,
    ) -> i32 {
        let mut cluster = if self.local_cluster > 0 {
            match LocalCluster::spawn_self(self.local_cluster) {
                Ok(cluster) => Some(cluster),
                Err(e) => {
                    eprintln!("htpar {cmd}: spawning local cluster: {e}");
                    return failed;
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
    /// The `:::` / `:::+` sources; none means read stdin lines.
    pub sources: Vec<SourceSpec>,
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
            sources: Vec::new(),
        }
    }
}

/// Parse `htpar drive` arguments (everything after the subcommand).
pub fn parse_drive(argv: &[String]) -> Result<DriveSpec, ArgError> {
    let mut spec = DriveSpec::default();
    let mut args = Args::new(argv);
    while let Some(flag) = args.flag()? {
        match flag {
            "--joblog" => spec.joblog = Some(args.value(flag)?.into()),
            "--resume" => spec.resume = true,
            "--payload" => spec.payload = parse_payload(args.value(flag)?)?,
            "--dag" => spec.dag = Some(args.value(flag)?.into()),
            "--make" => spec.make = true,
            _ if spec.fleet.read(flag, &mut args)? => {}
            _ => {
                spec.command = args.tail(&mut spec.sources)?;
                break;
            }
        }
    }
    check_dag(spec.dag.is_some(), spec.make, &spec.command, &spec.sources)?;
    if spec.dag.is_none() && spec.command.is_empty() {
        return Err("a command template is required".into());
    }
    if spec.resume && spec.joblog.is_none() {
        return Err("--resume/--resume-failed require a joblog".into());
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

/// The exit status of a drive that fails as a whole (a bad `--dag`
/// file, no inputs, a fleet that cannot start or is lost), as `htpar`'s.
const DRIVE_FAILED: i32 = 255;

fn run_drive(spec: DriveSpec) -> i32 {
    // `--dag FILE`: the graph supplies the commands; the driver runs
    // the per-node command lines through a bare `{}` template and
    // withholds each task until its dependencies succeed.
    let dag = match &spec.dag {
        Some(path) => match load_dag(path, spec.make.then_some(spec.command.as_str())) {
            Ok(dag) => Some(dag),
            Err(msg) => {
                eprintln!("htpar drive: {msg}");
                return DRIVE_FAILED;
            }
        },
        None => None,
    };
    let inputs = match &dag {
        Some(dag) => dag.inputs(),
        None => match read_inputs(&spec.sources, None, std::io::stdin().lock()) {
            Ok(set) => set.into_rows(),
            Err(e) => {
                eprintln!("htpar drive: {e}");
                return DRIVE_FAILED;
            }
        },
    };
    if inputs.is_empty() {
        if spec.dag.is_some() {
            eprintln!("htpar drive: the DAG has no tasks");
        } else {
            eprintln!("htpar drive: no input arguments");
        }
        return DRIVE_FAILED;
    }

    let command = if dag.is_some() {
        "{}".to_string()
    } else {
        spec.command.clone()
    };
    spec.fleet.run("drive", DRIVE_FAILED, |agents, chaos| {
        let mut config = DriverConfig::new(agents, command);
        config.dag = dag;
        config.jobs_per_agent = spec.fleet.jobs_per_agent;
        config.payload = spec.payload;
        config.heartbeat_ms = spec.fleet.heartbeat_ms;
        config.joblog = spec.joblog.clone();
        config.resume = spec.resume;
        config.bus = telemetry_from_env();
        match run_driver(&config, &inputs, chaos) {
            Ok(outcome) => {
                print_summary(&outcome);
                exit_code(outcome.failed)
            }
            Err(e) => {
                eprintln!("htpar drive: {e}");
                DRIVE_FAILED
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
        "htpar drive: {}/{} task(s) in {:.2}s ({:.0} tasks/s), {} failed, {} skipped{dep_failed}, {} duplicate completion(s) suppressed",
        outcome.completed,
        outcome.total,
        outcome.wall.as_secs_f64(),
        outcome.tasks_per_sec(),
        outcome.failed,
        outcome.skipped,
        outcome.duplicates,
    );
    print_agents(&outcome.agents);
}

// ---------------------------------------------------------------- serve

/// Parsed `htpar serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    pub fleet: FleetArgs,
    pub listen: String,
    pub policy: SchedPolicy,
    pub max_queue: u64,
    pub joblog_dir: Option<PathBuf>,
    pub state_dir: Option<PathBuf>,
    /// Detach TTL in seconds; 0 holds detached sessions forever.
    pub detach_ttl: u64,
    pub max_sessions: Option<u64>,
    pub announce: bool,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            fleet: FleetArgs::default(),
            listen: "127.0.0.1:0".to_string(),
            policy: SchedPolicy::Fair,
            max_queue: 100_000,
            joblog_dir: None,
            state_dir: None,
            detach_ttl: 3_600,
            max_sessions: None,
            announce: true,
        }
    }
}

/// Parse `htpar serve` arguments (everything after the subcommand).
pub fn parse_serve(argv: &[String]) -> Result<ServeSpec, ArgError> {
    let mut spec = ServeSpec::default();
    let mut args = Args::new(argv);
    while let Some(flag) = args.flag()? {
        match flag {
            "--listen" => spec.listen = args.value(flag)?.into(),
            "--scheduler" => {
                let v = args.value(flag)?;
                spec.policy = SchedPolicy::parse(v).ok_or_else(|| {
                    format!("unknown scheduler {v:?} (want fifo, fair, or priority)")
                })?;
            }
            "--max-queue" => spec.max_queue = args.parse(flag)?,
            "--joblog-dir" => spec.joblog_dir = Some(args.value(flag)?.into()),
            "--state-dir" => spec.state_dir = Some(args.value(flag)?.into()),
            "--detach-ttl" => spec.detach_ttl = args.parse(flag)?,
            "--max-sessions" => spec.max_sessions = Some(args.parse(flag)?),
            "--quiet" => spec.announce = false,
            _ if spec.fleet.read(flag, &mut args)? => {}
            _ => return Err(args.unknown()),
        }
    }
    spec.fleet.validate()?;
    Ok(spec)
}

fn run_serve(spec: ServeSpec) -> i32 {
    spec.fleet.run("serve", 1, |agents, chaos| {
        let mut config = ServeConfig::new(agents, spec.listen.clone());
        config.jobs_per_agent = spec.fleet.jobs_per_agent;
        config.policy = spec.policy;
        config.max_queue_per_tenant = spec.max_queue;
        config.joblog_dir = spec.joblog_dir.clone();
        config.state_dir = spec.state_dir.clone();
        config.detach_ttl = if spec.detach_ttl == 0 {
            None
        } else {
            Some(Duration::from_secs(spec.detach_ttl))
        };
        config.max_sessions = spec.max_sessions;
        config.heartbeat_ms = spec.fleet.heartbeat_ms;
        config.bus = telemetry_from_env();

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
    /// The `:::` / `:::+` sources; none means read stdin lines.
    pub sources: Vec<SourceSpec>,
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
            sources: Vec::new(),
        }
    }
}

/// Parse `htpar submit` arguments (everything after the subcommand).
pub fn parse_submit(argv: &[String]) -> Result<SubmitSpec, ArgError> {
    let mut spec = SubmitSpec::default();
    let mut args = Args::new(argv);
    while let Some(flag) = args.flag()? {
        match flag {
            "--connect" => spec.connect = args.value(flag)?.into(),
            "--tenant" => spec.tenant = args.value(flag)?.into(),
            "--weight" => spec.weight = args.parse(flag)?,
            "--priority" => spec.priority = args.parse(flag)?,
            "--payload" => spec.payload = parse_payload(args.value(flag)?)?,
            "--batch" => spec.batch = args.parse(flag)?,
            "--retry-max" => spec.retry_max = args.parse(flag)?,
            "--detach" => spec.detach = Some(args.parse(flag)?),
            "--reattach" => spec.reattach = Some(args.parse(flag)?),
            "--dag" => spec.dag = Some(args.value(flag)?.into()),
            "--make" => spec.make = true,
            _ => {
                spec.command = args.tail(&mut spec.sources)?;
                break;
            }
        }
    }
    if spec.detach.is_some() && spec.reattach.is_some() {
        return Err("--detach and --reattach are mutually exclusive".into());
    }
    if spec.dag.is_some() && (spec.detach.is_some() || spec.reattach.is_some()) {
        // The client *is* the scheduler for a DAG session; there is
        // nothing to hand to the pilot while detached.
        return Err("--dag needs a live session; it cannot --detach or --reattach".into());
    }
    check_dag(spec.dag.is_some(), spec.make, &spec.command, &spec.sources)?;
    if spec.reattach.is_some() {
        if !spec.command.is_empty() || !spec.sources.is_empty() {
            return Err("--reattach collects results; it takes no command or args".into());
        }
    } else if spec.dag.is_none() && spec.command.is_empty() {
        return Err("a command template is required".into());
    }
    if spec.connect.is_empty() {
        return Err("--connect is required".into());
    }
    if spec.batch == 0 {
        return Err("--batch must be at least 1".into());
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

/// Open a session on the pilot for `spec`, rendering `command`.
fn connect(spec: &SubmitSpec, command: &str) -> Option<SessionClient> {
    let mut config = SessionConfig::new(spec.connect.clone(), spec.tenant.clone());
    config.weight = spec.weight;
    config.priority = spec.priority;
    config.payload = spec.payload;
    config.command = command.to_string();
    let client = SessionClient::connect(config);
    client.map_err(|e| eprintln!("htpar submit: {e}")).ok()
}

fn run_submit(spec: SubmitSpec) -> i32 {
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
    let inputs = match read_inputs(&spec.sources, None, std::io::stdin().lock()) {
        Ok(set) => set.into_rows(),
        Err(e) => {
            eprintln!("htpar submit: {e}");
            return 1;
        }
    };
    if inputs.is_empty() {
        eprintln!("htpar submit: no input arguments");
        return 1;
    }
    let Some(mut client) = connect(&spec, &spec.command) else {
        return 1;
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
    let Some(mut client) = connect(spec, "{}") else {
        return 1;
    };
    let started = std::time::Instant::now();
    let mut ready = ReadySet::new(dag);
    let mut comp = Completion::default();
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
            ready.complete(node_seq, ok, &mut comp);
            to_submit.extend_from_slice(&comp.newly_ready);
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
            spec.sources,
            vec![SourceSpec::Values(vec![
                "a".to_string(),
                "b".to_string(),
                "c".to_string()
            ])]
        );
    }

    #[test]
    fn drive_attached_jobs_form_and_unknown_flags() {
        let spec = parse_drive(&argv("--local-cluster 2 -j16 --joblog run.log task {}")).unwrap();
        assert_eq!(spec.fleet.jobs_per_agent, 16);
        assert_eq!(spec.joblog, Some(PathBuf::from("run.log")));
        assert_eq!(spec.command, "task {}");
        let err = parse_drive(&argv("--local-cluster 2 --jobslog run.log task {}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown option --jobslog"), "{err}");
    }

    #[test]
    fn drive_agents_list_splits_on_commas() {
        let spec = parse_drive(&argv("--agents n1:4511,n2:4511 task {}")).unwrap();
        assert_eq!(spec.fleet.agents, vec!["n1:4511", "n2:4511"]);
        assert_eq!(spec.sources, vec![], "stdin is the input source");
    }

    #[test]
    fn drive_requires_agents_and_command() {
        assert!(parse_drive(&argv("task {}")).is_err());
        assert!(parse_drive(&argv("--local-cluster 2")).is_err());
    }

    /// `--resume` with no joblog would run everything; `drive` refuses
    /// it as `htpar` does.
    #[test]
    fn drive_resume_requires_a_joblog() {
        let err = parse_drive(&argv("--local-cluster 1 --resume echo ::: a b"))
            .unwrap_err()
            .to_string();
        assert_eq!(err, "--resume/--resume-failed require a joblog");
        assert!(parse_drive(&argv("--local-cluster 1 --joblog f --resume echo")).is_ok());
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
            "--local-cluster 4 -j 8 --scheduler priority --max-queue 500 \
             --joblog-dir logs --max-sessions 3 --heartbeat-ms 100 \
             --chaos-kill-agent 1@50 --quiet",
        ))
        .unwrap();
        assert_eq!(spec.fleet.local_cluster, 4);
        assert_eq!(spec.fleet.jobs_per_agent, 8);
        assert_eq!(spec.policy, SchedPolicy::Priority);
        assert_eq!(spec.max_queue, 500);
        assert_eq!(spec.joblog_dir, Some(PathBuf::from("logs")));
        assert_eq!(spec.max_sessions, Some(3));
        assert_eq!(spec.fleet.heartbeat_ms, 100);
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
        let err = parse_serve(&argv("--local-cluster 2 --scheduler lifo"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown scheduler"), "{err}");
        let err = parse_serve(&argv("--local-cluster 2 extra"))
            .unwrap_err()
            .to_string();
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
        assert_eq!(
            spec.sources,
            vec![SourceSpec::Values(vec!["a".to_string(), "b".to_string()])]
        );
    }

    #[test]
    fn submit_requires_connect_and_command() {
        let spec = parse_submit(&argv("--connect unix:/tmp/p.sock task {}")).unwrap();
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.sources, vec![], "stdin is the input source");
        assert!(parse_submit(&argv("task {}")).is_err(), "connect required");
        assert!(
            parse_submit(&argv("--connect a:1")).is_err(),
            "command required"
        );
        assert!(parse_submit(&argv("--connect a:1 --batch 0 task {}")).is_err());
        let err = parse_submit(&argv("--connect a:1 --wieght 2 task {}"))
            .unwrap_err()
            .to_string();
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
        let err = parse_submit(&argv("--connect a:1 --detach 1 --reattach 2 task {}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --reattach 2 task {}"))
            .unwrap_err()
            .to_string();
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
            .unwrap_err()
            .to_string();
            assert!(err.contains("unknown option --net-core"), "{err}");
            let err = parse_serve(&argv(&format!("--local-cluster 2 --net-core {core}")))
                .unwrap_err()
                .to_string();
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
        // The same tail must parse identically through all three grammars.
        for tail in [
            "task {} ::: a b c",
            "task {}",
            "wc -l {} ::: x",
            "run {1} {2} ::: a b :::+ 1 2 ::: x",
        ] {
            let d = parse_drive(&argv(&format!("--local-cluster 1 {tail}"))).unwrap();
            let s = parse_submit(&argv(&format!("--connect a:1 {tail}"))).unwrap();
            let c = crate::args::parse_args(&argv(tail)).unwrap();
            assert_eq!(d.command, s.command, "{tail}");
            assert_eq!(d.sources, s.sources, "{tail}");
            assert_eq!((&d.command, &d.sources), (&c.command, &c.sources), "{tail}");
        }
        // `:::` with no values is an empty (not absent) source.
        let d = parse_drive(&argv("--local-cluster 1 task {} :::")).unwrap();
        assert_eq!(d.command, "task {}");
        assert_eq!(d.sources, vec![SourceSpec::Values(vec![])]);
        let d = parse_drive(&argv("--local-cluster 1 task {}")).unwrap();
        assert!(d.sources.is_empty());
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
        let err = parse_drive(&argv("--local-cluster 2 --dag g.dag task {}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("supplies the commands"), "{err}");
        let err = parse_drive(&argv("--local-cluster 2 --dag g.dag ::: a b"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_drive(&argv("--local-cluster 2 --dag deps.mk --make"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("command template"), "{err}");
        let err = parse_drive(&argv("--local-cluster 2 --make task {}"))
            .unwrap_err()
            .to_string();
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
        let err = parse_submit(&argv("--connect a:1 --dag g.dag task {}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("supplies the commands"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --dag g.dag --detach 7"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("live session"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --dag g.dag --reattach 7"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("live session"), "{err}");
        let err = parse_submit(&argv("--connect a:1 --make task {}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("requires --dag"), "{err}");
    }

    #[test]
    fn dispatch_ignores_classic_invocations() {
        assert_eq!(dispatch(&argv("-j8 echo {} ::: 1 2")), None);
        assert_eq!(dispatch(&[]), None);
    }

    #[test]
    fn usage_names_every_subcommand() {
        for (name, ..) in SUBCOMMANDS {
            let line = format!("\n  htpar {name} ");
            assert!(
                crate::args::USAGE.contains(&line),
                "htpar --help omits {name}"
            );
        }
    }

    /// The flags a usage text lists: the leading `-x` / `--xyz` words of
    /// each indented line.
    fn listed_flags(usage: &str) -> Vec<&str> {
        let lines = usage.lines().filter(|line| line.starts_with(' '));
        let words =
            lines.flat_map(|line| line.split_whitespace().take_while(|w| w.starts_with('-')));
        words
            .map(|w| w.trim_end_matches(',').split('[').next().unwrap())
            .collect()
    }

    /// Every case parses, and every flag `usage` lists is in some case.
    fn parses_every_listed_flag(
        usage: &str,
        parse: impl Fn(&[String]) -> Result<(), ArgError>,
        cases: &[&str],
    ) {
        for case in cases {
            let parsed = parse(&argv(case));
            assert!(
                matches!(parsed, Ok(()) | Err(ArgError::Help)),
                "{case}: {parsed:?}"
            );
        }
        for flag in listed_flags(usage) {
            let covered = cases
                .iter()
                .any(|c| c.split_whitespace().any(|w| w == flag));
            assert!(covered, "{flag} is listed but no case parses it");
        }
    }

    #[test]
    fn every_flag_each_usage_lists_parses() {
        use crate::args::{parse_args, USAGE};
        parses_every_listed_flag(
            USAGE,
            |a| parse_args(a).map(drop),
            &[
                "-j 4 c {}",
                "--jobs 4 c",
                "-j4 c",
                "-k c",
                "--keep-order c",
                "--tag c",
                "--dry-run c",
                "--retries 2 c",
                "--retry-delay 1s c",
                "--memfree 1G c",
                "--timeout 30s c",
                "--delay 10ms c",
                "--halt now,fail=1 c",
                "--joblog f c",
                "--resume c",
                "--resume-failed c",
                "--results d c",
                "-a f c",
                "--arg-file f c",
                "--colsep , c",
                "--shuf c",
                "--shuf=7 c",
                "-X c",
                "-m c",
                "-n 2 c",
                "--max-args 2 c",
                "-s 99 c",
                "--max-chars 99 c",
                "-I X c",
                "--pipe c",
                "--block 1M c",
                "--no-shell c",
                "-S 1/h c",
                "--sshlogin 1/h c",
                "--ssh-cmd ssh c",
                "--tagstring {} c",
                "--line-buffer c",
                "--progress c",
                "--fault-rate 0.5 c",
                "--fault-seed 3 c",
                "--dag g",
                "--dag g --make c {}",
                "--help",
                "--version",
            ],
        );
        parses_every_listed_flag(
            AGENT_USAGE,
            |a| parse_agent(a).map(drop),
            &["--listen 127.0.0.1:0 --name n --quiet", "--help", "-h"],
        );
        parses_every_listed_flag(
            DRIVE_USAGE,
            |a| parse_drive(a).map(drop),
            &[
                "--agents a:1,b:2 c",
                "--local-cluster 2 -j 4 c",
                "--local-cluster 2 -j4 c",
                "--local-cluster 2 --jobs-per-agent 4 c",
                "--local-cluster 2 --joblog f c",
                "--local-cluster 2 --joblog f --resume c",
                "--local-cluster 2 --heartbeat-ms 9 c",
                "--local-cluster 2 --payload noop c",
                "--local-cluster 2 --chaos-kill-agent 1@5 c",
                "--local-cluster 2 --dag g",
                "--local-cluster 2 --dag g --make c {}",
                "--help",
                "-h",
            ],
        );
        parses_every_listed_flag(
            SERVE_USAGE,
            |a| parse_serve(a).map(drop),
            &[
                "--agents a:1 --listen unix:/s",
                "--local-cluster 2 -j 4",
                "--local-cluster 2 -j4",
                "--local-cluster 2 --jobs-per-agent 4",
                "--local-cluster 2 --scheduler fifo",
                "--local-cluster 2 --max-queue 9",
                "--local-cluster 2 --joblog-dir d",
                "--local-cluster 2 --state-dir d",
                "--local-cluster 2 --detach-ttl 0",
                "--local-cluster 2 --max-sessions 1",
                "--local-cluster 2 --heartbeat-ms 9",
                "--local-cluster 2 --chaos-kill-agent 1@5",
                "--local-cluster 2 --quiet",
                "--help",
                "-h",
            ],
        );
        parses_every_listed_flag(
            SUBMIT_USAGE,
            |a| parse_submit(a).map(drop),
            &[
                "--connect a:1 --tenant t --weight 2 --priority 1 c",
                "--connect a:1 --payload sleep:9 --batch 9 --retry-max 3 c",
                "--connect a:1 --detach 7 c",
                "--connect a:1 --reattach 7",
                "--connect a:1 --dag g",
                "--connect a:1 --dag g --make c {}",
                "--help",
                "-h",
            ],
        );
    }

    /// `-h` asks a subcommand for its usage; to `htpar` itself it is a
    /// command word.
    #[test]
    fn short_help_is_a_subcommand_flag() {
        assert_eq!(parse_serve(&argv("-h")), Err(ArgError::Help));
        let spec = crate::args::parse_args(&argv("-h x")).unwrap();
        assert_eq!(spec.command, "-h x");
    }
}
