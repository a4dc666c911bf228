//! Mapping a parsed [`CliSpec`] onto the engine and GNU-compatible exit
//! codes. One setup of executor, gate, result callback and telemetry
//! serves an input list, `--pipe` blocks and a `--dag` graph alike.

use std::io::BufRead;

use std::sync::Arc;

use htpar_core::chaos::ChaosExecutor;
use htpar_core::dag::{Completion, Dag, ReadySet};
use htpar_core::executor::StreamKind;
use htpar_core::output::tag_lines;
use htpar_core::prelude::*;
use htpar_core::progress::Progress;
use htpar_core::template::{ExpandContext, Template};
use htpar_telemetry::{EventBus, JsonlWriter};

use crate::args::{load_dag, read_inputs, CliSpec};

/// GNU Parallel's exit-code convention over the number of failed tasks:
/// 0 when none failed, 1–100 = that number, 101 when more than 100 did.
/// `htpar`, `htpar --dag` and `htpar drive` all exit by it.
pub fn exit_code(failed: u64) -> i32 {
    failed.min(101) as i32
}

/// Execute a spec. `stdin` supplies input lines (or `--pipe` bytes) when
/// no `:::`/`-a` sources or `--dag` graph were given; `emit` receives each
/// finished job's (stdout, stderr) pair, already tagged if `--tag` is on,
/// in the right order. A `--dag` run then reports its failed task ids and
/// its count of tasks skipped after a failed dependency on `emit`'s
/// stderr side, and its report counts the tasks that ran.
pub fn execute<R, F>(spec: CliSpec, stdin: R, emit: F) -> Result<RunReport>
where
    R: BufRead + Send + 'static,
    F: Fn(&str, &str) + Send + Sync + Clone + 'static,
{
    execute_observed(spec, stdin, emit, None)
}

/// [`execute`] with an optional telemetry bus attached to the engine:
/// every job's lifecycle ([`htpar_telemetry::Event`]) reaches the bus's
/// sinks, so a `Recorder` or `MetricsRegistry` can observe a CLI-shaped
/// run in-process.
pub fn execute_observed<R, F>(
    spec: CliSpec,
    stdin: R,
    emit: F,
    bus: Option<Arc<EventBus>>,
) -> Result<RunReport>
where
    R: BufRead + Send + 'static,
    F: Fn(&str, &str) + Send + Sync + Clone + 'static,
{
    let make = spec.make.then_some(spec.command.as_str());
    let dag = spec.dag.as_deref().map(|path| load_dag(path, make));
    let dag = dag.transpose().map_err(Error::Input)?;
    if let (Some(dag), true) = (&dag, spec.options.dry_run) {
        print_dag_plan(dag, &emit);
        return Ok(RunReport::default());
    }
    let tag = spec.options.tag;
    let use_shell = spec.options.shell;
    let tag_template = match &spec.tagstring {
        Some(tpl) => Some(Template::parse(tpl)?),
        None => None,
    };
    let progress = if spec.progress {
        Some(Arc::new(Progress::streaming()))
    } else {
        None
    };
    let mut builder = Parallel::new(&spec.command).options(spec.options);
    if let Some(bus) = bus.clone() {
        builder = builder.telemetry(bus);
    }
    if let Some(min_free) = spec.memfree_bytes {
        builder = builder.gate(htpar_core::gate::MemFreeGate::new(min_free));
    }
    // `--line-buffer` streams lines straight through `emit`; the
    // per-job grouped emission below is suppressed.
    let line_buffer = spec.line_buffer && spec.sshlogins.is_empty();
    // `--fault-rate` wraps whichever executor the spec selects in a
    // seeded chaos layer. Draws are keyed per (seq, attempt), so a
    // given seed fails the same seqs regardless of worker interleaving
    // — which is what makes `--joblog` + `--resume-failed` campaigns
    // reproducible.
    let chaos = spec.fault_rate.filter(|rate| *rate > 0.0);
    let fault_seed = spec.fault_seed;
    if spec.sshlogins.is_empty() {
        let mut exec = if use_shell {
            ProcessExecutor::shell()
        } else {
            ProcessExecutor::no_shell()
        };
        if let Some(bus) = &bus {
            exec = exec.observed(Arc::clone(bus));
        }
        if line_buffer {
            // The one conversion to text for the `&str` sink, as the
            // grouped output gets it.
            let e = emit.clone();
            exec = exec.line_buffered(move |ev| {
                let line = format!("{}\n", String::from_utf8_lossy(&ev.line));
                match ev.kind {
                    StreamKind::Stdout => e(&line, ""),
                    StreamKind::Stderr => e("", &line),
                }
            });
        }
        builder = with_chaos(builder, exec, chaos, fault_seed);
    } else {
        let specs: Vec<&str> = spec.sshlogins.iter().map(String::as_str).collect();
        let multi = htpar_core::sshexec::multi_host_from_specs(&specs, 1, &spec.ssh_cmd)?;
        // Size the slot pool to the hosts unless -j was explicit... the
        // pool itself caps per-host concurrency either way.
        builder = builder.jobs(multi.pool().total_slots());
        builder = with_chaos(builder, multi, chaos, fault_seed);
    }
    if let Some(repl) = &spec.replacement {
        builder = builder.replacement(repl.clone());
    }
    if let Some(seed) = spec.shuffle {
        builder = builder.shuffle(seed);
    }
    let progress2 = progress.clone();
    let line_buffer_for_results = line_buffer;
    let report_to = emit.clone();
    builder = builder.on_result(move |result| {
        let line_buffer = line_buffer_for_results;
        if let Some(p) = &progress2 {
            p.record(result);
            eprintln!("{}", p.snapshot().render());
        }
        // --tagstring renders a custom per-job tag; --tag uses the args.
        // No shell reads a tag, so its values stay unquoted, as in GNU.
        let custom_tag = tag_template.as_ref().map(|tpl| {
            tpl.expand_raw(&ExpandContext {
                args: &result.args,
                seq: result.seq,
                slot: result.slot,
            })
        });
        let apply = |text: &str| -> String {
            match (&custom_tag, tag) {
                (Some(t), _) => tag_lines(std::slice::from_ref(t), text),
                (None, true) => tag_lines(&result.args, text),
                (None, false) => text.to_string(),
            }
        };
        if line_buffer {
            // Lines already streamed via the executor callback.
            return;
        }
        emit(&apply(&result.stdout), &apply(&result.stderr));
    });

    if let Some(dag) = dag {
        let report = builder.run_dag(&dag)?;
        for id in &report.failed_ids {
            report_to("", &format!("htpar: failed: {id}\n"));
        }
        if report.skipped_dep_failed > 0 {
            let n = report.skipped_dep_failed;
            report_to("", &format!("htpar: {n} task(s) skipped-dep-failed\n"));
        }
        return Ok(report.engine);
    }
    if spec.pipe {
        return builder.run_pipe(stdin, spec.block_size);
    }
    let inputs = read_inputs(&spec.sources, spec.colsep.as_deref(), stdin)?;
    builder.inputs(inputs).run()
}

/// `--dag --dry-run`: one line per task in a valid topological order, in
/// the grammar `DagSpec::parse` reads back.
fn print_dag_plan(dag: &Dag, emit: impl Fn(&str, &str)) {
    let mut rs = ReadySet::new(dag);
    let mut order = rs.take_ready();
    let mut comp = Completion::default();
    let mut at = 0;
    while at < order.len() {
        let seq = order[at];
        at += 1;
        rs.complete(seq, true, &mut comp);
        order.extend_from_slice(&comp.newly_ready);
    }
    for seq in order {
        let node = dag.node((seq - 1) as usize);
        let after: Vec<&str> = node
            .deps
            .iter()
            .map(|&d| dag.node(d as usize).id.as_str())
            .collect();
        let mut line = format!("{}: {}", node.id, node.command);
        if !after.is_empty() {
            line = format!("{line} # after: {}", after.join(","));
        }
        emit(&format!("{line}\n"), "");
    }
}

/// Run on `exec`, behind a seeded chaos layer when `--fault-rate` asks.
fn with_chaos<E: Executor + 'static>(
    builder: Parallel,
    exec: E,
    chaos: Option<f64>,
    seed: u64,
) -> Parallel {
    match chaos {
        Some(rate) => builder.executor(ChaosExecutor::seeded_per_seq(exec, rate, seed)),
        None => builder.executor(exec),
    }
}

/// `HTPAR_TELEMETRY_JSONL=PATH` attaches a bus + [`JsonlWriter`] so any
/// run, classic or subcommand, leaves a machine-readable event trajectory
/// (same schema as `fig3_launch_rate --jsonl`; see DESIGN.md §10). Unset,
/// the engine runs unobserved and the emit path costs nothing.
pub fn telemetry_from_env() -> Option<Arc<EventBus>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use std::sync::{Arc, Mutex};

    fn run(tokens: &[&str], stdin: &str) -> (RunReport, Vec<String>) {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let spec = parse_args(&argv).unwrap();
        let emitted = Arc::new(Mutex::new(Vec::new()));
        let e2 = Arc::clone(&emitted);
        let stdin_owned = std::io::Cursor::new(stdin.as_bytes().to_vec());
        let report = execute(spec, stdin_owned, move |out, _err| {
            e2.lock().unwrap().push(out.to_string());
        })
        .unwrap();
        let out = emitted.lock().unwrap().clone();
        (report, out)
    }

    #[test]
    fn source_args_run_real_commands() {
        let (report, out) = run(&["-j2", "-k", "echo", "hi-{}", ":::", "a", "b"], "");
        assert!(report.all_succeeded());
        assert_eq!(out, vec!["hi-a\n", "hi-b\n"]);
    }

    #[test]
    fn stdin_lines_feed_jobs() {
        let (report, out) = run(&["-k", "echo", "got-{}"], "x\ny\n");
        assert_eq!(report.jobs_total, 2);
        assert_eq!(out, vec!["got-x\n", "got-y\n"]);
    }

    #[test]
    fn colsep_splits_stdin_columns() {
        let (report, out) = run(&["-k", "--colsep", ",", "echo", "{2}-{1}"], "a,1\nb,2\n");
        assert!(report.all_succeeded());
        assert_eq!(out, vec!["1-a\n", "2-b\n"]);
    }

    #[test]
    fn tag_prefixes_output() {
        let (_, out) = run(&["-k", "--tag", "echo", "v"], "x\n");
        assert_eq!(out, vec!["x\tv x\n"]);
    }

    #[test]
    fn line_buffer_streams_everything_once() {
        let (report, out) = run(
            &["--line-buffer", "printf 'x-%s\\n' {}", ":::", "1", "2", "3"],
            "",
        );
        assert!(report.all_succeeded());
        let mut lines: Vec<&str> = out
            .iter()
            .map(|s| s.trim_end())
            .filter(|s| !s.is_empty())
            .collect();
        lines.sort();
        assert_eq!(lines, vec!["x-1", "x-2", "x-3"]);
    }

    #[test]
    fn pipe_line_buffer_streams_lines_as_they_land() {
        // Three one-line blocks on three slots: every job's first line
        // must be out before any job's second, as with plain
        // `--line-buffer` (`line_buffer_interleaves_concurrent_jobs`).
        let (report, out) = run(
            &[
                "--pipe",
                "--block",
                "1",
                "-j",
                "3",
                "--line-buffer",
                "echo a; sleep 0.3; echo b",
            ],
            "1\n2\n3\n",
        );
        assert!(report.all_succeeded());
        assert_eq!(report.jobs_total, 3);
        let lines: Vec<&str> = out.iter().flat_map(|chunk| chunk.lines()).collect();
        assert_eq!(lines, ["a", "a", "a", "b", "b", "b"], "{out:?}");
    }

    #[test]
    fn line_buffer_runs_report_launch_events() {
        let recorder = htpar_telemetry::Recorder::shared();
        let bus = EventBus::shared();
        bus.attach(Arc::clone(&recorder) as _);
        let argv: Vec<String> = ["--line-buffer", "-k", "/bin/echo {}", ":::", "x", "y"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let report = execute_observed(
            parse_args(&argv).unwrap(),
            std::io::Cursor::new(Vec::new()),
            |_: &str, _: &str| {},
            Some(bus),
        )
        .unwrap();
        assert!(report.all_succeeded());
        let kinds = recorder.kinds();
        let launches = kinds.iter().filter(|k| **k == "shell_bypass").count();
        assert_eq!(launches, 2, "events: {kinds:?}");
    }

    #[test]
    fn sshlogin_through_fake_ssh_shim() {
        let dir = std::env::temp_dir().join(format!("htpar-clissh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let shim = dir.join("fake-ssh");
        std::fs::write(
            &shim,
            // Joins the remote words like OpenSSH: `-o BatchMode=yes
            // <host> --`, then the command line in "$*".
            "#!/bin/sh\nhost=$3\nshift 4\nout=$(sh -c \"$*\")\necho \"$host=$out\"\n",
        )
        .unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&shim, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        let (report, out) = run(
            &[
                "-k",
                "-S",
                "1/alpha,1/beta",
                "--ssh-cmd",
                shim.to_str().unwrap(),
                "echo",
                "r{}",
                ":::",
                "1",
                "2",
                "3",
                "4",
            ],
            "",
        );
        assert!(report.all_succeeded());
        assert_eq!(out.len(), 4);
        assert!(out[0].ends_with("=r1\n"), "{out:?}");
        let hosts: std::collections::HashSet<&str> =
            out.iter().map(|l| l.split('=').next().unwrap()).collect();
        assert_eq!(hosts.len(), 2, "both hosts used: {out:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tagstring_renders_custom_tags() {
        let (_, out) = run(
            &[
                "-k",
                "--tagstring",
                "{#}|{}",
                "echo",
                "x",
                "#",
                "{}",
                ":::",
                "a",
                "b",
            ],
            "",
        );
        assert_eq!(out, vec!["1|a\tx\n", "2|b\tx\n"]);
    }

    #[test]
    fn pipe_mode_counts_lines() {
        let stdin: String = (0..100).map(|i| format!("{i}\n")).collect();
        let (report, out) = run(&["--pipe", "--block", "64", "-k", "wc", "-l"], &stdin);
        assert!(report.jobs_total > 1);
        let total: u64 = out.iter().map(|o| o.trim().parse::<u64>().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn exit_codes_follow_gnu_convention() {
        let (report, _) = run(&["-k", "true", "{}", ":::", "1", "2"], "");
        assert_eq!(exit_code(report.failed), 0);
        let (report, _) = run(&["-k", "false", "#", "{}", ":::", "1", "2", "3"], "");
        assert_eq!(exit_code(report.failed), 3);
    }

    #[test]
    fn exit_code_caps_at_101() {
        assert_eq!(exit_code(100), 100);
        assert_eq!(exit_code(101), 101);
        assert_eq!(exit_code(500), 101);
    }

    #[test]
    fn arg_file_source() {
        let dir = std::env::temp_dir().join(format!("htpar-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let list = dir.join("list.txt");
        std::fs::write(&list, "one\ntwo\n").unwrap();
        let (report, out) = run(&["-k", "-a", list.to_str().unwrap(), "echo", "f:{}"], "");
        assert_eq!(report.jobs_total, 2);
        assert_eq!(out, vec!["f:one\n", "f:two\n"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dry_run_prints_commands() {
        let (report, out) = run(&["--dry-run", "-k", "gzip", "{}", ":::", "f1"], "");
        assert!(report.all_succeeded());
        assert_eq!(out, vec!["gzip f1\n"]);
    }

    #[test]
    fn fault_rate_one_fails_every_job_with_exit_199() {
        use htpar_telemetry::{Event, Recorder};
        let argv: Vec<String> = "--fault-rate 1.0 -k true {} ::: 1 2 3"
            .split(' ')
            .map(String::from)
            .collect();
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let report = execute_observed(
            parse_args(&argv).unwrap(),
            std::io::empty(),
            |_, _| {},
            Some(bus),
        )
        .unwrap();
        assert_eq!(report.failed, 3);
        let exits: Vec<i32> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Failed { exit, .. } => Some(*exit),
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![199; 3], "all injected");
    }

    #[test]
    fn fault_rate_zero_is_a_no_op() {
        let (report, _) = run(
            &["--fault-rate", "0.0", "-k", "echo", "{}", ":::", "1", "2"],
            "",
        );
        assert!(report.all_succeeded());
    }

    #[test]
    fn seeded_faults_recover_via_joblog_resume_failed() {
        let dir = std::env::temp_dir().join(format!("htpar-cli-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("joblog.tsv");
        let _ = std::fs::remove_file(&log);
        let log_s = log.to_str().unwrap();

        // Run 1: the same seed+rate must fail the same seqs every time.
        let args = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = vec![
                "--fault-rate".into(),
                "0.5".into(),
                "--fault-seed".into(),
                "7".into(),
                "--joblog".into(),
                log_s.into(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v.extend(
                [
                    "-k", "true", "{}", ":::", "1", "2", "3", "4", "5", "6", "7", "8",
                ]
                .iter()
                .map(|s| s.to_string()),
            );
            v
        };
        let run_argv = |argv: Vec<String>| -> RunReport {
            let spec = parse_args(&argv).unwrap();
            execute(spec, std::io::Cursor::new(Vec::new()), |_, _| {}).unwrap()
        };
        let first = run_argv(args(&[]));
        let again = run_argv(args(&[]));
        // Determinism across whole runs (ignoring the joblog side effect).
        assert_eq!(first.failed, again.failed);
        assert!(
            first.failed > 0 && first.failed < 8,
            "rate 0.5 mixes outcomes"
        );

        // Run 2 with --resume-failed and injection off: only the failed
        // seqs re-run, and everything ends up succeeded.
        let mut argv = args(&["--resume-failed"]);
        // Drop the chaos knobs (first four tokens) for the repair run.
        argv.drain(0..4);
        let repair = run_argv(argv);
        assert_eq!(repair.skipped, 8 - first.failed);
        assert_eq!(repair.succeeded, first.failed);
        assert_eq!(repair.failed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `--resume` over a joblog holding seqs 1-3 plus `tail`, a row for
    /// seq 4 whose newline never landed. Seq 4 must run once with
    /// seq 5, the run must succeed, and the log must end with exactly
    /// one row per seq.
    fn resume_over_torn_row(tag: &str, tail: &str) {
        use htpar_core::joblog;
        let dir = std::env::temp_dir().join(format!("htpar-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("joblog.tsv");
        let _ = std::fs::remove_file(&log);
        let log_s = log.to_str().unwrap();
        let printed = Arc::new(Mutex::new(Vec::new()));
        let run_argv = |extra: &[&str], seqs: &[&str]| -> Result<RunReport> {
            let mut argv = vec!["--joblog", log_s, "-k"];
            argv.extend(extra);
            argv.extend(["echo", "{}", ":::"]);
            argv.extend(seqs);
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let printed = Arc::clone(&printed);
            execute(
                parse_args(&argv).unwrap(),
                std::io::empty(),
                move |out, _| {
                    if !out.is_empty() {
                        printed.lock().unwrap().push(out.to_string());
                    }
                },
            )
        };
        run_argv(&[], &["1", "2", "3"]).unwrap();
        printed.lock().unwrap().clear();
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        std::io::Write::write_all(&mut f, tail.as_bytes()).unwrap();
        drop(f);

        let report = run_argv(&["--resume"], &["1", "2", "3", "4", "5"]).expect("resume runs");
        assert_eq!(exit_code(report.failed), 0);
        assert_eq!(report.skipped, 3);
        assert_eq!(*printed.lock().unwrap(), vec!["4\n", "5\n"]);
        let mut seqs: Vec<u64> = joblog::read_log(&log)
            .unwrap()
            .iter()
            .map(|e| e.seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "one row per seq");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reruns_a_row_torn_before_its_command_column() {
        resume_over_torn_row("torn-short", "4\tlocalhost\t17");
    }

    #[test]
    fn resume_reruns_a_torn_row_that_still_parses() {
        resume_over_torn_row(
            "torn-parses",
            "4\tlocalhost\t17.000\t0.001\t0\t2\t0\t0\techo",
        );
    }

    #[test]
    fn linked_sources_via_cli() {
        let (report, out) = run(
            &["-k", "echo", "{1}={2}", ":::", "a", "b", ":::+", "1", "2"],
            "",
        );
        assert_eq!(report.jobs_total, 2);
        assert_eq!(out, vec!["a=1\n", "b=2\n"]);
    }
}
