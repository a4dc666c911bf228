//! `perfbench`: the htpar benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload through htpar's public entry points for about
//! `--seconds`, checks the program's outputs, prints a human-readable
//! report, and ends with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! rounds and reports the per-layer metrics. `--tiny` shrinks every
//! size for tests. See `README.md` for the workloads and metrics.

mod check;
mod dag;
mod drive;
mod engine;
mod gen;
mod layers;
mod pilot;
mod probes;
mod stats;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::layers::Layers;
use crate::util::{Outcome, RunDir};

/// The whole run, set-up included, must end within this long.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// The command template the flat, drive and pilot workloads render.
pub const TEMPLATE: &str = "noop {} {/.} {#}";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatNoop,
    SpawnTrue,
    DagChain,
    DriveNoop,
    PilotSessions,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::FlatNoop,
        Workload::SpawnTrue,
        Workload::DagChain,
        Workload::DriveNoop,
        Workload::PilotSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatNoop => "flat_noop",
            Workload::SpawnTrue => "spawn_true",
            Workload::DagChain => "dag_chain",
            Workload::DriveNoop => "drive_noop",
            Workload::PilotSessions => "pilot_sessions",
        }
    }
}

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// Slots, agents and client threads: the machine's parallelism.
    pub slots: usize,
    pub dir: RunDir,
    /// Time zero for every stamp and span of the run.
    pub origin: Instant,
    /// This binary, re-executed as the agents of local clusters.
    pub exe: PathBuf,
}

impl Ctx {
    /// Whether to start another round: until `--seconds` have passed
    /// since `since`, and in a traced run at least one untraced and one
    /// traced round.
    pub fn another_round(&self, since: Instant, rounds: usize) -> bool {
        since.elapsed().as_secs_f64() < self.seconds || rounds < if self.trace { 2 } else { 1 }
    }

    /// Traced runs trace every other round, so the untraced rounds
    /// between them give `trace.overhead_frac` its baseline.
    pub fn traced(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        slots: util::nproc(),
        dir: RunDir::create(&cwd.join(".bench_work"), args.workload.name(), args.seed)?,
        origin: Instant::now(),
        exe: std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?,
    };
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut tracer = trace::Tracer::new(ctx.origin);
    let inputs = match ctx.workload {
        Workload::FlatNoop => engine::run(&ctx, false, &mut out, &mut layers, &mut tracer)?,
        Workload::SpawnTrue => engine::run(&ctx, true, &mut out, &mut layers, &mut tracer)?,
        Workload::DagChain => dag::run(&ctx, &mut out, &mut layers, &mut tracer)?,
        Workload::DriveNoop => drive::run(&ctx, &mut out, &mut layers, &mut tracer)?,
        Workload::PilotSessions => pilot::run(&ctx, &mut out, &mut layers, &mut tracer)?,
    };
    let rss = util::peak_rss_mib();
    if !ctx.trace {
        out.metric("tasks_per_s", layers.tasks_per_s, "tasks/s");
        out.metric("setup_s", layers.setup_s, "s");
        out.metric("peak_rss_mib", rss, "MiB");
        out.note(format!("  {:<28} {rss:.3} MiB", "peak_rss_mib"));
        return Ok(out);
    }
    let size = probes::ProbeSize::new(ctx.tiny);
    let probe_dir = ctx.dir.sub("probes")?;
    probes::layer_costs(
        &mut out,
        size,
        &probe_dir,
        inputs.template,
        &inputs.args,
        &inputs.rows,
    )?;
    probes::ceilings(&mut out, size, ctx.slots, &probe_dir)?;
    layers.emit(&mut out, &tracer);
    let traces = cwd.join(".bench_work").join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("creating {}: {e}", traces.display()))?;
    let file = traces.join(format!(
        "{}-seed{}-{}.tsv",
        ctx.workload.name(),
        ctx.seed,
        std::process::id()
    ));
    tracer
        .write(&file)
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    out.note(format!("  spans written to {}", file.display()));
    Ok(out)
}

fn main() {
    // Local clusters re-execute this binary; those children become
    // agents here and never return.
    htpar_net::local::maybe_become_agent();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    // Backstop for every per-step deadline: a run never outlives this.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: run exceeded {RUN_LIMIT:?}; aborting");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(out) => {
            for line in &out.notes {
                println!("{line}");
            }
            for e in &out.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{}", out.json());
            if !out.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = parse_args(&argv(
            "--workload dag_chain --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::DagChain);
        assert_eq!((a.seed, a.seconds, a.trace, a.tiny), (7, 10.0, true, false));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload flat_noop --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload flat_noop --seconds 1")).is_err());
    }
}
