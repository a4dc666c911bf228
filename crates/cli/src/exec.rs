//! Mapping a parsed [`CliSpec`] onto the engine and GNU-compatible exit
//! codes.

use std::io::BufRead;

use std::sync::Arc;

use htpar_core::input::InputSource;
use htpar_core::output::tag_lines;
use htpar_core::prelude::*;
use htpar_core::progress::Progress;
use htpar_core::template::{ExpandContext, Template};
use htpar_telemetry::EventBus;

use crate::args::{CliSpec, SourceSpec};

/// GNU Parallel's exit-code convention: 0 when everything succeeded,
/// 1–100 = number of failed jobs, 101 when more than 100 failed.
pub fn exit_code(report: &RunReport) -> i32 {
    match report.failed {
        0 => 0,
        n if n <= 100 => n as i32,
        _ => 101,
    }
}

/// Execute a spec. `stdin` supplies input lines (or `--pipe` bytes) when
/// no `:::`/`-a` sources were given; `emit` receives each finished job's
/// (stdout, stderr) pair, already tagged if `--tag` is on, in the right
/// order.
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
    let emit_line = emit.clone();
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
    // `--fault-rate`: wrap whichever executor the spec selects in a
    // seeded chaos layer. Draws are keyed per (seq, attempt), so a
    // given seed fails the same seqs regardless of worker interleaving
    // — which is what makes `--joblog` + `--resume-failed` campaigns
    // reproducible.
    let chaos = spec.fault_rate.filter(|rate| *rate > 0.0);
    let fault_seed = spec.fault_seed;
    let line_buffer = spec.line_buffer && spec.sshlogins.is_empty() && !spec.pipe;
    if line_buffer {
        // Stream lines straight through `emit2`; the per-job grouped
        // emission below is suppressed (stderr keeps flowing grouped).
        use htpar_core::executor::{ProcessExecutor, StreamKind};
        let e = Arc::new(emit_line.clone());
        let exec_base = if use_shell {
            ProcessExecutor::shell()
        } else {
            ProcessExecutor::no_shell()
        };
        let lb = exec_base.line_buffered(move |ev| match ev.kind {
            StreamKind::Stdout => e(&format!("{}\n", ev.line), ""),
            StreamKind::Stderr => e("", &format!("{}\n", ev.line)),
        });
        builder = match chaos {
            Some(rate) => builder.executor(htpar_core::chaos::ChaosExecutor::seeded_per_seq(
                lb, rate, fault_seed,
            )),
            None => builder.executor(lb),
        };
    }
    if !spec.sshlogins.is_empty() {
        let specs: Vec<&str> = spec.sshlogins.iter().map(String::as_str).collect();
        let multi = htpar_core::sshexec::multi_host_from_specs(&specs, 1, &spec.ssh_cmd)?;
        // Size the slot pool to the hosts unless -j was explicit... the
        // pool itself caps per-host concurrency either way.
        builder = builder.jobs(multi.pool().total_slots());
        builder = match chaos {
            Some(rate) => builder.executor(htpar_core::chaos::ChaosExecutor::seeded_per_seq(
                multi, rate, fault_seed,
            )),
            None => builder.executor(multi),
        };
    }
    if chaos.is_some() && !line_buffer && spec.sshlogins.is_empty() {
        // No other branch picked an executor: wrap the default process
        // executor the builder would otherwise construct.
        use htpar_core::executor::ProcessExecutor;
        let base = if use_shell {
            ProcessExecutor::shell()
        } else {
            ProcessExecutor::no_shell()
        };
        // Keep launch-path telemetry flowing even under chaos wrapping.
        let base = match &bus {
            Some(b) => base.observed(Arc::clone(b)),
            None => base,
        };
        builder = builder.executor(htpar_core::chaos::ChaosExecutor::seeded_per_seq(
            base,
            chaos.unwrap_or_default(),
            fault_seed,
        ));
    }
    if let Some(repl) = &spec.replacement {
        builder = builder.replacement(repl.clone());
    }
    if let Some(seed) = spec.shuffle {
        builder = builder.shuffle(seed);
    }
    let progress2 = progress.clone();
    let line_buffer_for_results = line_buffer;
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

    if spec.pipe {
        return builder.run_pipe(stdin, spec.block_size);
    }

    if spec.sources.is_empty() {
        // Arguments come from stdin.
        match &spec.colsep {
            Some(sep) => {
                for source in InputSource::columns_from_lines(stdin, sep)? {
                    builder = push(builder, source);
                }
            }
            None => {
                builder = builder.input_lines(stdin);
            }
        }
        return builder.run();
    }

    for source in &spec.sources {
        match source {
            SourceSpec::Values(values) => {
                builder = builder.args(values.clone());
            }
            SourceSpec::LinkedValues(values) => {
                builder = builder.args_linked(values.clone());
            }
            SourceSpec::File(path) => {
                let file = std::fs::File::open(path)?;
                let reader = std::io::BufReader::new(file);
                match &spec.colsep {
                    Some(sep) => {
                        for source in InputSource::columns_from_lines(reader, sep)? {
                            builder = push(builder, source);
                        }
                    }
                    None => builder = builder.input_lines(reader),
                }
            }
        }
    }
    builder.run()
}

fn push(builder: Parallel, source: InputSource) -> Parallel {
    use htpar_core::input::LinkMode;
    match source.mode {
        LinkMode::Product => builder.args(source.values),
        LinkMode::Linked => builder.args_linked(source.values),
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
        assert_eq!(exit_code(&report), 0);
        let (report, _) = run(&["-k", "false", "#", "{}", ":::", "1", "2", "3"], "");
        assert_eq!(exit_code(&report), 3);
    }

    #[test]
    fn exit_code_caps_at_101() {
        use htpar_core::runner::RunReport;
        let report = RunReport {
            results: vec![],
            jobs_total: 500,
            succeeded: 0,
            failed: 500,
            skipped: 0,
            wall: std::time::Duration::ZERO,
            launch_rate: 0.0,
            halted: None,
        };
        assert_eq!(exit_code(&report), 101);
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
        let (report, _) = run(
            &[
                "--fault-rate",
                "1.0",
                "-k",
                "true",
                "{}",
                ":::",
                "1",
                "2",
                "3",
            ],
            "",
        );
        assert_eq!(report.failed, 3);
        assert!(
            report.results.iter().all(|r| r.status.exitval() == 199),
            "all injected"
        );
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
        let run_argv = |extra: &[&str], seqs: &[&str]| -> Result<RunReport> {
            let mut argv = vec!["--joblog", log_s, "-k"];
            argv.extend(extra);
            argv.extend(["echo", "{}", ":::"]);
            argv.extend(seqs);
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            execute(parse_args(&argv).unwrap(), std::io::empty(), |_, _| {})
        };
        run_argv(&[], &["1", "2", "3"]).unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        std::io::Write::write_all(&mut f, tail.as_bytes()).unwrap();
        drop(f);

        let report = run_argv(&["--resume"], &["1", "2", "3", "4", "5"]).expect("resume runs");
        assert_eq!(exit_code(&report), 0);
        assert_eq!(report.skipped, 3);
        let ran: Vec<u64> = report
            .results
            .iter()
            .filter(|r| r.status.is_success())
            .map(|r| r.seq)
            .collect();
        assert_eq!(ran, vec![4, 5]);
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
