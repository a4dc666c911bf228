//! Command-line reading for `htpar` and its subcommands.
//!
//! Every command reads its words through one [`Args`] reader: its flags
//! first, then, for `htpar`, `drive` and `submit`, the classic tail (a
//! faithful subset of `parallel`'s grammar):
//!
//! ```text
//! COMMAND... [::: ARGS... | :::+ ARGS...]...
//! ```
//!
//! The first word that is not one of the command's flags starts the
//! command template; each `:::` / `:::+` starts an input source. With no
//! `:::` sources and no `-a` files, arguments are read from stdin, one per
//! line (pipe them in like `find ... | htpar ...`). [`read_inputs`] expands
//! the sources, or those stdin lines, for all three commands. Each of them
//! instead takes a dependency graph as `--dag FILE [--make]`, under one
//! rule ([`check_dag`]).

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::time::Duration;

use htpar_core::dag::{Dag, DagSpec};
use htpar_core::halt::{HaltPolicy, HaltWhen};
use htpar_core::input::{InputSet, InputSource};
use htpar_core::options::{BatchMode, Options, ResumeMode};

/// One input source given on the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// `::: v1 v2 ...`
    Values(Vec<String>),
    /// `:::+ v1 v2 ...` (linked to the previous source)
    LinkedValues(Vec<String>),
    /// `-a FILE` / `--arg-file FILE`
    File(PathBuf),
}

/// The fully parsed invocation.
#[derive(Debug, Clone)]
pub struct CliSpec {
    pub options: Options,
    /// The command template (words joined by single spaces).
    pub command: String,
    pub sources: Vec<SourceSpec>,
    /// `--colsep SEP` for stdin/file sources.
    pub colsep: Option<String>,
    /// `--shuf [SEED]`.
    pub shuffle: Option<u64>,
    /// `-I STR`.
    pub replacement: Option<String>,
    /// `--pipe` mode with `--block N` bytes.
    pub pipe: bool,
    pub block_size: usize,
    /// `--memfree BYTES`: hold launches while available memory is below
    /// this (accepts k/M/G suffixes).
    pub memfree_bytes: Option<u64>,
    /// `--sshlogin SPEC[,SPEC...]`: distribute jobs over remote hosts.
    pub sshlogins: Vec<String>,
    /// `--ssh-cmd PROG`: the ssh program to use (GNU's `--ssh`).
    pub ssh_cmd: String,
    /// `--tagstring TPL`: tag output lines with an expanded template
    /// (e.g. `--tagstring '{#}/{}'`) instead of the plain arguments.
    pub tagstring: Option<String>,
    /// `--line-buffer`: stream output lines as they appear instead of
    /// grouping per job (lines from concurrent jobs interleave).
    pub line_buffer: bool,
    /// `--progress`: print a live status line to stderr per completion.
    pub progress: bool,
    /// `--fault-rate P`: inject a seeded failure (exit 199) into each
    /// task attempt with probability `P ∈ [0, 1]` — the chaos knob for
    /// exercising `--retries`/`--resume-failed` recovery paths.
    pub fault_rate: Option<f64>,
    /// `--fault-seed N`: seed for `--fault-rate` injection (default 0,
    /// so campaigns are reproducible).
    pub fault_seed: u64,
    /// `--dag FILE`: run the dependency graph in FILE; its lines are the
    /// jobs, so there is no input list.
    pub dag: Option<PathBuf>,
    /// `--make`: the `--dag` file is make-style `target: deps` lines,
    /// rendered through the command template.
    pub make: bool,
    /// `--version` short-circuits.
    pub version: bool,
}

impl Default for CliSpec {
    fn default() -> Self {
        CliSpec {
            options: Options::default(),
            command: String::new(),
            sources: Vec::new(),
            colsep: None,
            shuffle: None,
            replacement: None,
            pipe: false,
            block_size: 1 << 20,
            memfree_bytes: None,
            line_buffer: false,
            sshlogins: Vec::new(),
            ssh_cmd: "ssh".to_string(),
            tagstring: None,
            progress: false,
            fault_rate: None,
            fault_seed: 0,
            dag: None,
            make: false,
            version: false,
        }
    }
}

/// Usage text for `--help`.
pub const USAGE: &str = "\
usage: htpar [OPTIONS] COMMAND... [::: ARGS...]...
       htpar [OPTIONS] --dag FILE [--make COMMAND...]
  -j, --jobs N          job slots (default: CPU count)
  -k, --keep-order      emit output in input order
      --tag             prefix output lines with the argument(s)
      --dry-run         print commands without running them
      --retries N       retry failing jobs N extra times
      --retry-delay DUR exponential backoff before retries
      --memfree SIZE    hold launches below this much free memory
      --timeout DUR     kill jobs after DUR (e.g. 30s, 5m, 500ms)
      --delay DUR       spacing between job launches
      --halt SPEC       now|soon,fail|success=N[%]
      --joblog FILE     record finished jobs
      --resume          skip jobs already in the joblog
      --resume-failed   re-run only failed jobs from the joblog
      --results DIR     write per-job stdout/stderr/exitval under DIR
  -a, --arg-file FILE   read arguments from FILE (repeatable)
      --colsep SEP      split input lines into {1} {2} ... columns
      --shuf[=SEED]     run jobs in random order
  -X                    context-replace batching (rsync idiom)
  -m                    xargs batching
  -n, --max-args N      max arguments per batch
  -s, --max-chars N     command length budget for batching
  -I STR                use STR instead of {} as the replacement string
      --pipe            split stdin into blocks fed to jobs' stdin
      --block N[kKmM]   block size for --pipe (default 1M)
      --no-shell        exec the argv directly instead of via sh -c
  -S, --sshlogin SPECS  distribute over hosts: [N/][user@]host, comma-separated
      --ssh-cmd PROG    ssh program to use (default: ssh)
      --tagstring TPL   tag output with an expanded template (implies --tag)
      --line-buffer     stream output lines as they appear (interleaved)
      --progress        print live progress to stderr
      --fault-rate P    inject seeded task failures with probability P (testing)
      --fault-seed N    seed for --fault-rate injection (default 0)
      --dag FILE        run the graph in FILE: `ID: COMMAND [# after: ID,...]`
                        lines; a task runs once its dependencies succeed
      --make            with --dag: FILE is make-style `target: deps` lines
                        and COMMAND renders each task ({} = target)
      --help, --version

subcommands (see `htpar SUBCOMMAND --help`):
  htpar agent --listen ADDR          run a node agent serving one driver
  htpar drive --agents SPECS CMD...  shard work across live agents
  htpar drive --local-cluster N ...  same, over N local agent processes
  htpar serve --local-cluster N ...  run a pilot that takes many sessions
  htpar submit --connect ADDR CMD... run a session on a pilot";

/// Why a command line did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help`: print the usage and exit 0.
    Help,
    /// A usage mistake: print it with the usage and exit 255.
    Usage(String),
}

impl From<String> for ArgError {
    fn from(msg: String) -> ArgError {
        ArgError::Usage(msg)
    }
}

impl From<&str> for ArgError {
    fn from(msg: &str) -> ArgError {
        ArgError::Usage(msg.to_string())
    }
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Help => f.write_str("help requested"),
            ArgError::Usage(msg) => f.write_str(msg),
        }
    }
}

impl ArgError {
    /// Report this error of the command `cmd` next to its `usage`, and
    /// return the exit status.
    pub fn exit(self, cmd: &str, usage: &str) -> i32 {
        match self {
            ArgError::Help => {
                println!("{usage}");
                0
            }
            ArgError::Usage(msg) => {
                eprintln!("{cmd}: {msg}\n{usage}");
                255
            }
        }
    }
}

/// One command's words, read front to back: flags, then the tail.
pub struct Args<'a> {
    words: &'a [String],
    /// The next word to read.
    at: usize,
    /// The `N` of an attached `-jN`: the value of the `-j` just read.
    attached: Option<&'a str>,
    /// Whether `-h` asks for help, as it does for every subcommand.
    short_help: bool,
}

impl<'a> Args<'a> {
    /// A subcommand's words: `--help` and `-h` ask for its usage.
    pub fn new(words: &'a [String]) -> Args<'a> {
        Args {
            words,
            at: 0,
            attached: None,
            short_help: true,
        }
    }

    /// `htpar`'s own words: only `--help` asks for the usage.
    pub fn classic(words: &'a [String]) -> Args<'a> {
        Args {
            short_help: false,
            ..Args::new(words)
        }
    }

    /// The next word, read as a flag; `None` once the words run out. An
    /// attached `-jN` (GNU's `-j128`) reads as `-j` with the value `N`.
    pub fn flag(&mut self) -> Result<Option<&'a str>, ArgError> {
        let Some(word) = self.words.get(self.at) else {
            return Ok(None);
        };
        self.at += 1;
        if word == "--help" || (self.short_help && word == "-h") {
            return Err(ArgError::Help);
        }
        self.attached = word
            .strip_prefix("-j")
            .filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        Ok(Some(if self.attached.is_some() { "-j" } else { word }))
    }

    /// The value of `flag`, the flag just read.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        if let Some(value) = self.attached.take() {
            return Ok(value);
        }
        let value = self
            .words
            .get(self.at)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.at += 1;
        Ok(value)
    }

    /// The value of `flag`, parsed.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("bad {flag} value {value:?}"))
    }

    /// The error for the word just read, which is none of this
    /// command's flags.
    pub fn unknown(&self) -> ArgError {
        ArgError::Usage(format!("unknown option {}", self.words[self.at - 1]))
    }

    /// The classic tail, from the word just read to the end. Returns the
    /// command words joined by single spaces and appends one source per
    /// `:::` or `:::+` to `sources`. An unknown `--flag` where the
    /// command would start is a typo, not a command word: taking it
    /// would silently swallow every flag after it into the template.
    pub fn tail(&mut self, sources: &mut Vec<SourceSpec>) -> Result<String, ArgError> {
        let rest = &self.words[self.at - 1..];
        if rest[0].starts_with("--") {
            return Err(self.unknown());
        }
        self.at = self.words.len();
        let split = rest
            .iter()
            .position(|w| w == ":::" || w == ":::+")
            .unwrap_or(rest.len());
        for word in &rest[split..] {
            match word.as_str() {
                ":::" => sources.push(SourceSpec::Values(Vec::new())),
                ":::+" => sources.push(SourceSpec::LinkedValues(Vec::new())),
                _ => {
                    if let Some(SourceSpec::Values(v) | SourceSpec::LinkedValues(v)) =
                        sources.last_mut()
                    {
                        v.push(word.clone());
                    }
                }
            }
        }
        Ok(rest[..split].join(" "))
    }
}

/// Expand `sources` into the input set they name: `:::` values, `:::+`
/// values linked to the source before them, and `-a` files. With no
/// source at all, the lines of `stdin` are the one source. File and
/// stdin lines split into `{1} {2} ...` columns on `colsep` when given.
pub fn read_inputs(
    sources: &[SourceSpec],
    colsep: Option<&str>,
    stdin: impl BufRead,
) -> htpar_core::Result<InputSet> {
    let mut set = InputSet::new();
    if sources.is_empty() {
        push_lines(&mut set, stdin, colsep)?;
    }
    for source in sources {
        match source {
            SourceSpec::Values(values) => set.push(InputSource::product(values.clone()))?,
            SourceSpec::LinkedValues(values) => set.push(InputSource::linked(values.clone()))?,
            SourceSpec::File(path) => {
                push_lines(&mut set, BufReader::new(File::open(path)?), colsep)?
            }
        }
    }
    Ok(set)
}

/// Push the lines of `reader` onto `set`: one source, or one per column.
fn push_lines(
    set: &mut InputSet,
    reader: impl BufRead,
    colsep: Option<&str>,
) -> htpar_core::Result<()> {
    match colsep {
        Some(sep) => InputSource::columns_from_lines(reader, sep)?
            .into_iter()
            .try_for_each(|source| set.push(source)),
        None => set.push(InputSource::from_lines(reader)?),
    }
}

/// The `--dag` rules every front door shares: `--make` needs `--dag`,
/// and a `--dag` file supplies the commands (with `--make`, through the
/// command template) and takes no `:::` source.
pub fn check_dag(
    dag: bool,
    make: bool,
    command: &str,
    sources: &[SourceSpec],
) -> Result<(), String> {
    let msg = match (dag, make) {
        (false, true) => "--make requires --dag FILE",
        (true, _) if !sources.is_empty() => "--dag and ::: are mutually exclusive",
        (true, true) if command.is_empty() => "--dag --make needs a command template ({} = target)",
        (true, false) if !command.is_empty() => {
            "--dag FILE supplies the commands; drop the command words (or add --make)"
        }
        _ => return Ok(()),
    };
    Err(msg.to_string())
}

/// Read and build a `--dag` file. `make` carries the `--make` render
/// template (`{}` = target); `None` selects the `id: cmd` grammar.
pub fn load_dag(path: &std::path::Path, make: Option<&str>) -> Result<Dag, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let spec = match make {
        Some(template) => DagSpec::parse_make(&text, template),
        None => DagSpec::parse(&text),
    };
    spec.and_then(DagSpec::build).map_err(|e| e.to_string())
}

/// Parse a duration: `10` (seconds), `500ms`, `30s`, `5m`, `2h`.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => (s, "s"),
    };
    let value: f64 = num
        .parse()
        .map_err(|_| format!("invalid duration number {num:?}"))?;
    if value < 0.0 {
        return Err("duration cannot be negative".into());
    }
    let secs = match unit {
        "ms" => value / 1e3,
        "s" | "" => value,
        "m" => value * 60.0,
        "h" => value * 3600.0,
        other => return Err(format!("unknown duration unit {other:?}")),
    };
    Ok(Duration::from_secs_f64(secs))
}

/// Parse `--block` sizes: `4096`, `64k`, `10M`.
pub fn parse_block_size(s: &str) -> Result<usize, String> {
    let (num, suffix) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => (s, ""),
    };
    let value: usize = num
        .parse()
        .map_err(|_| format!("invalid block size {num:?}"))?;
    let mult = match suffix {
        "" => 1,
        "k" | "K" => 1 << 10,
        "m" | "M" => 1 << 20,
        "g" | "G" => 1 << 30,
        other => return Err(format!("unknown block suffix {other:?}")),
    };
    value
        .checked_mul(mult)
        .ok_or_else(|| "block size overflows".to_string())
}

/// Parse a `--halt` spec: `when,why=value` with when ∈ {now, soon},
/// why ∈ {fail, success}, value an integer or `N%`.
pub fn parse_halt(s: &str) -> Result<HaltPolicy, String> {
    if s == "never" {
        return Ok(HaltPolicy::never());
    }
    let (when_str, rest) = s
        .split_once(',')
        .ok_or_else(|| format!("halt spec {s:?} needs when,why=value"))?;
    let when = match when_str {
        "now" => HaltWhen::Now,
        "soon" => HaltWhen::Soon,
        other => return Err(format!("halt when must be now/soon, got {other:?}")),
    };
    let (why, value) = rest
        .split_once('=')
        .ok_or_else(|| format!("halt spec {rest:?} needs why=value"))?;
    let percent = value.ends_with('%');
    let number = value.trim_end_matches('%');
    match (why, percent) {
        ("fail", false) => Ok(HaltPolicy::fail_count(
            number.parse().map_err(|_| "bad halt count")?,
            when,
        )),
        ("fail", true) => Ok(HaltPolicy::fail_percent(
            number.parse().map_err(|_| "bad halt percent")?,
            when,
        )),
        ("success", false) => Ok(HaltPolicy::success_count(
            number.parse().map_err(|_| "bad halt count")?,
            when,
        )),
        ("success", true) => Ok(HaltPolicy::success_percent(
            number.parse().map_err(|_| "bad halt percent")?,
            when,
        )),
        (other, _) => Err(format!("halt why must be fail/success, got {other:?}")),
    }
}

/// Parse the full argument vector (everything after the program name).
pub fn parse_args(argv: &[String]) -> Result<CliSpec, ArgError> {
    // Read as the classic grammar, `htpar dag g.dag` would run `dag g.dag`
    // once per stdin line.
    if argv.first().is_some_and(|word| word == "dag") {
        return Err("there is no dag subcommand: run a graph with `htpar --dag FILE`".into());
    }
    let mut spec = CliSpec::default();
    let mut args = Args::classic(argv);
    while let Some(flag) = args.flag()? {
        let options = &mut spec.options;
        match flag {
            "--version" => {
                spec.version = true;
                return Ok(spec);
            }
            "-j" | "--jobs" => options.jobs = args.parse(flag)?,
            "-k" | "--keep-order" => options.keep_order = true,
            "--tag" => options.tag = true,
            "--dry-run" => options.dry_run = true,
            "--retries" => options.retries = args.parse(flag)?,
            "--retry-delay" => options.retry_delay = Some(parse_duration(args.value(flag)?)?),
            "--memfree" => {
                let size = parse_block_size(args.value(flag)?);
                spec.memfree_bytes = Some(size.map_err(|e| format!("bad --memfree: {e}"))? as u64);
            }
            "--timeout" => options.timeout = Some(parse_duration(args.value(flag)?)?),
            "--delay" => options.delay = Some(parse_duration(args.value(flag)?)?),
            "--halt" => options.halt = parse_halt(args.value(flag)?)?,
            "--joblog" => options.joblog = Some(args.value(flag)?.into()),
            "--resume" => options.resume = ResumeMode::Resume,
            "--resume-failed" => options.resume = ResumeMode::ResumeFailed,
            "--results" => options.results_dir = Some(args.value(flag)?.into()),
            "-a" | "--arg-file" => spec
                .sources
                .push(SourceSpec::File(args.value(flag)?.into())),
            "--colsep" => spec.colsep = Some(args.value(flag)?.into()),
            "--shuf" => spec.shuffle = Some(0xD1CE),
            "-X" => options.batch = BatchMode::ContextReplace,
            "-m" => options.batch = BatchMode::Xargs,
            "-n" | "--max-args" => options.max_args = Some(args.parse(flag)?),
            "-s" | "--max-chars" => options.max_chars = args.parse(flag)?,
            "-I" => spec.replacement = Some(args.value(flag)?.into()),
            "--pipe" => spec.pipe = true,
            "--block" => spec.block_size = parse_block_size(args.value(flag)?)?,
            "--no-shell" => options.shell = false,
            "--progress" => spec.progress = true,
            "--line-buffer" => spec.line_buffer = true,
            "--tagstring" => {
                spec.tagstring = Some(args.value(flag)?.into());
                options.tag = true;
            }
            "-S" | "--sshlogin" => {
                let hosts = args.value(flag)?.split(',');
                spec.sshlogins.extend(hosts.map(|s| s.trim().to_string()));
            }
            "--ssh-cmd" => spec.ssh_cmd = args.value(flag)?.into(),
            "--fault-rate" => {
                let rate: f64 = args.parse(flag)?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("fault rate must be in [0, 1], got {rate}").into());
                }
                spec.fault_rate = Some(rate);
            }
            "--fault-seed" => spec.fault_seed = args.parse(flag)?,
            "--dag" => spec.dag = Some(args.value(flag)?.into()),
            "--make" => spec.make = true,
            _ if flag.starts_with("--shuf=") => {
                let seed = flag["--shuf=".len()..].parse();
                spec.shuffle = Some(seed.map_err(|_| format!("bad shuf seed in {flag:?}"))?);
            }
            _ => {
                spec.command = args.tail(&mut spec.sources)?;
                break;
            }
        }
    }
    // A graph is its own input list, and each node one shell command line
    // whose `:::` values were quoted when the file was read; a `--make`
    // template is read with `{}`.
    let arg_file = spec
        .sources
        .iter()
        .any(|s| matches!(s, SourceSpec::File(_)));
    let refused = [
        ("-a", arg_file),
        ("--pipe", spec.pipe),
        ("-X", spec.options.batch == BatchMode::ContextReplace),
        ("-m", spec.options.batch == BatchMode::Xargs),
        ("--shuf", spec.shuffle.is_some()),
        ("--no-shell", !spec.options.shell),
        ("-I", spec.replacement.is_some()),
    ];
    if let Some((flag, _)) = refused.iter().find(|(_, on)| *on && spec.dag.is_some()) {
        return Err(format!("--dag FILE cannot take {flag}").into());
    }
    check_dag(spec.dag.is_some(), spec.make, &spec.command, &spec.sources)?;
    if spec.dag.is_none() && spec.command.is_empty() {
        return Err("no command given".into());
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<CliSpec, ArgError> {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn minimal_command() {
        let spec = parse(&["echo", "{}"]).unwrap();
        assert_eq!(spec.command, "echo {}");
        assert!(spec.sources.is_empty());
    }

    #[test]
    fn no_command_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["-j", "4"]).is_err());
    }

    #[test]
    fn flags_then_command_then_sources() {
        let spec = parse(&[
            "-j", "8", "-k", "--tag", "gzip", "-9", "{}", ":::", "a.log", "b.log",
        ])
        .unwrap();
        assert_eq!(spec.options.jobs, 8);
        assert!(spec.options.keep_order);
        assert!(spec.options.tag);
        assert_eq!(spec.command, "gzip -9 {}");
        assert_eq!(
            spec.sources,
            vec![SourceSpec::Values(vec!["a.log".into(), "b.log".into()])]
        );
    }

    #[test]
    fn glued_job_count() {
        let spec = parse(&["-j128", "true", "{}"]).unwrap();
        assert_eq!(spec.options.jobs, 128);
    }

    #[test]
    fn multiple_and_linked_sources() {
        let spec = parse(&[
            "run", "{1}", "{2}", "{3}", ":::", "a", "b", ":::+", "x", "y", ":::", "1", "2",
        ])
        .unwrap();
        assert_eq!(
            spec.sources,
            vec![
                SourceSpec::Values(vec!["a".into(), "b".into()]),
                SourceSpec::LinkedValues(vec!["x".into(), "y".into()]),
                SourceSpec::Values(vec!["1".into(), "2".into()]),
            ]
        );
    }

    #[test]
    fn command_words_may_start_with_dash_after_command_begins() {
        let spec = parse(&["rsync", "-R", "-Ha", "{}", "/dst/"]).unwrap();
        assert_eq!(spec.command, "rsync -R -Ha {} /dst/");
    }

    #[test]
    fn batching_flags() {
        let spec = parse(&["-X", "-n", "16", "-s", "4096", "rsync", "{}"]).unwrap();
        assert_eq!(spec.options.batch, BatchMode::ContextReplace);
        assert_eq!(spec.options.max_args, Some(16));
        assert_eq!(spec.options.max_chars, 4096);
        let spec = parse(&["-m", "echo", "{}"]).unwrap();
        assert_eq!(spec.options.batch, BatchMode::Xargs);
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("10").unwrap(), Duration::from_secs(10));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("5d").is_err());
        assert!(parse_duration("-3").is_err());
    }

    #[test]
    fn block_sizes() {
        assert_eq!(parse_block_size("4096").unwrap(), 4096);
        assert_eq!(parse_block_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_block_size("10M").unwrap(), 10 << 20);
        assert_eq!(parse_block_size("1G").unwrap(), 1 << 30);
        assert!(parse_block_size("10x").is_err());
        assert!(parse_block_size("").is_err());
    }

    #[test]
    fn halt_specs() {
        assert_eq!(parse_halt("never").unwrap(), HaltPolicy::never());
        assert_eq!(
            parse_halt("now,fail=3").unwrap(),
            HaltPolicy::fail_count(3, HaltWhen::Now)
        );
        assert_eq!(
            parse_halt("soon,fail=10%").unwrap(),
            HaltPolicy::fail_percent(10.0, HaltWhen::Soon)
        );
        assert_eq!(
            parse_halt("soon,success=5").unwrap(),
            HaltPolicy::success_count(5, HaltWhen::Soon)
        );
        assert!(parse_halt("later,fail=1").is_err());
        assert!(parse_halt("now,crash=1").is_err());
        assert!(parse_halt("now").is_err());
    }

    #[test]
    fn joblog_resume_results() {
        let spec = parse(&[
            "--joblog",
            "run.log",
            "--resume-failed",
            "--results",
            "out/",
            "work",
            "{}",
        ])
        .unwrap();
        assert_eq!(spec.options.joblog, Some(PathBuf::from("run.log")));
        assert_eq!(spec.options.resume, ResumeMode::ResumeFailed);
        assert_eq!(spec.options.results_dir, Some(PathBuf::from("out/")));
    }

    #[test]
    fn pipe_and_block() {
        let spec = parse(&["--pipe", "--block", "64k", "wc", "-l"]).unwrap();
        assert!(spec.pipe);
        assert_eq!(spec.block_size, 64 << 10);
    }

    #[test]
    fn shuf_with_and_without_seed() {
        assert!(parse(&["--shuf", "cmd", "{}"]).unwrap().shuffle.is_some());
        assert_eq!(parse(&["--shuf=7", "cmd", "{}"]).unwrap().shuffle, Some(7));
    }

    #[test]
    fn arg_files_and_colsep() {
        let spec = parse(&["-a", "list.txt", "--colsep", ",", "go", "{1}", "{2}"]).unwrap();
        assert_eq!(
            spec.sources,
            vec![SourceSpec::File(PathBuf::from("list.txt"))]
        );
        assert_eq!(spec.colsep.as_deref(), Some(","));
    }

    #[test]
    fn unknown_long_flag_errors() {
        let err = parse(&["--frobnicate", "cmd"]).unwrap_err().to_string();
        assert!(err.contains("unknown option"));
    }

    #[test]
    fn value_missing_errors() {
        assert!(parse(&["-j"]).is_err());
        assert!(parse(&["--timeout"]).is_err());
    }

    #[test]
    fn help_and_version_short_circuit() {
        assert_eq!(parse(&["--help"]).unwrap_err(), ArgError::Help);
        assert!(parse(&["--version"]).unwrap().version);
    }

    #[test]
    fn line_buffer_flag() {
        assert!(parse(&["--line-buffer", "cmd", "{}"]).unwrap().line_buffer);
    }

    #[test]
    fn retry_delay_and_memfree() {
        let spec = parse(&["--retry-delay", "500ms", "--memfree", "2G", "cmd", "{}"]).unwrap();
        assert_eq!(spec.options.retry_delay, Some(Duration::from_millis(500)));
        assert_eq!(spec.memfree_bytes, Some(2 << 30));
    }

    #[test]
    fn sshlogin_specs_accumulate_and_split() {
        let spec = parse(&["-S", "8/n01,n02", "--sshlogin", "u@n03", "cmd", "{}"]).unwrap();
        assert_eq!(spec.sshlogins, vec!["8/n01", "n02", "u@n03"]);
        assert_eq!(spec.ssh_cmd, "ssh");
        let spec = parse(&["--ssh-cmd", "/opt/fake-ssh", "-S", ":", "c", "{}"]).unwrap();
        assert_eq!(spec.ssh_cmd, "/opt/fake-ssh");
    }

    #[test]
    fn tagstring_implies_tag() {
        let spec = parse(&["--tagstring", "{#}:", "cmd", "{}"]).unwrap();
        assert_eq!(spec.tagstring.as_deref(), Some("{#}:"));
        assert!(spec.options.tag);
    }

    #[test]
    fn progress_flag() {
        assert!(parse(&["--progress", "cmd", "{}"]).unwrap().progress);
        assert!(!parse(&["cmd", "{}"]).unwrap().progress);
    }

    #[test]
    fn fault_injection_knobs() {
        let spec = parse(&["--fault-rate", "0.25", "--fault-seed", "42", "cmd", "{}"]).unwrap();
        assert_eq!(spec.fault_rate, Some(0.25));
        assert_eq!(spec.fault_seed, 42);
        // Defaults: no injection, seed 0.
        let spec = parse(&["cmd", "{}"]).unwrap();
        assert_eq!(spec.fault_rate, None);
        assert_eq!(spec.fault_seed, 0);
        // Out-of-range and garbage rates are rejected.
        assert!(parse(&["--fault-rate", "1.5", "cmd"]).is_err());
        assert!(parse(&["--fault-rate", "-0.1", "cmd"]).is_err());
        assert!(parse(&["--fault-rate", "x", "cmd"]).is_err());
        assert!(parse(&["--fault-seed", "x", "cmd"]).is_err());
    }

    #[test]
    fn dag_and_make_flags() {
        let spec = parse(&["-j", "4", "--dag", "g.dag", "--joblog", "l", "--resume"]).unwrap();
        assert_eq!(spec.dag, Some(PathBuf::from("g.dag")));
        assert!(!spec.make);
        assert!(spec.command.is_empty() && spec.sources.is_empty());
        assert_eq!(spec.options.jobs, 4);
        assert_eq!(spec.options.resume, ResumeMode::Resume);
        let spec = parse(&["--dag", "deps.mk", "--make", "-k", "render", "{}"]).unwrap();
        assert!(spec.make && spec.options.keep_order);
        assert_eq!(spec.command, "render {}");
        for (line, why) in [
            ("--dag g task {}", "supplies the commands"),
            ("--dag g ::: a b", "mutually exclusive"),
            ("--dag g --make", "needs a command template"),
            ("--make task {}", "requires --dag"),
            ("-a f --dag g", "cannot take -a"),
            ("--pipe --dag g", "cannot take --pipe"),
            ("-X --dag g", "cannot take -X"),
            ("--dag g -m", "cannot take -m"),
            ("--dag g --shuf", "cannot take --shuf"),
            ("--shuf=3 --dag g", "cannot take --shuf"),
            ("--dag g --no-shell", "cannot take --no-shell"),
            ("-I X --dag g --make c X", "cannot take -I"),
            ("dag g", "htpar --dag FILE"),
        ] {
            let words: Vec<&str> = line.split(' ').collect();
            let err = parse(&words).unwrap_err().to_string();
            assert!(err.contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn custom_replacement_flag() {
        let spec = parse(&["-I", "FILE", "cp", "FILE", "FILE.bak"]).unwrap();
        assert_eq!(spec.replacement.as_deref(), Some("FILE"));
        assert_eq!(spec.command, "cp FILE FILE.bak");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn parser_never_panics(tokens in proptest::collection::vec("[ -~]{0,12}", 0..12)) {
                let _ = parse_args(&tokens);
            }

            #[test]
            fn source_values_round_trip(vals in proptest::collection::vec("[a-z0-9]{1,8}", 1..10)) {
                let mut tokens = vec!["cmd".to_string(), "{}".to_string(), ":::".to_string()];
                tokens.extend(vals.clone());
                let spec = parse_args(&tokens).unwrap();
                prop_assert_eq!(spec.sources, vec![SourceSpec::Values(vals)]);
            }
        }
    }
}
