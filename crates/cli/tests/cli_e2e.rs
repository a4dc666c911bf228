//! End-to-end tests of the `htpar` binary as a subprocess: the full
//! user-facing path including argument parsing, stdin plumbing, grouped
//! output, and exit codes.

use std::io::Write;
use std::process::{Command, Stdio};

fn htpar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_htpar"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = htpar()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn htpar");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn source_args_echo() {
    let (out, _, code) = run_with_stdin(&["-j2", "-k", "echo", "v-{}", ":::", "a", "b"], "");
    assert_eq!(out, "v-a\nv-b\n");
    assert_eq!(code, 0);
}

#[test]
fn stdin_drives_jobs() {
    let (out, _, code) = run_with_stdin(&["-k", "echo", "line:{}"], "1\n2\n3\n");
    assert_eq!(out, "line:1\nline:2\nline:3\n");
    assert_eq!(code, 0);
}

#[test]
fn replacement_strings_work_through_the_shell() {
    let (out, _, _) = run_with_stdin(
        &["-k", "echo", "{/.}", "in", "{//}", ":::", "/data/x.txt"],
        "",
    );
    assert_eq!(out, "x in /data\n");
}

#[test]
fn exit_code_counts_failures() {
    let (_, _, code) = run_with_stdin(&["sh -c 'exit 1' #", ":::", "1", "2"], "");
    assert_eq!(code, 2);
    let (_, _, code) = run_with_stdin(&["true", "{}", ":::", "1", "2"], "");
    assert_eq!(code, 0);
}

#[test]
fn bad_usage_exits_255() {
    let (_, err, code) = run_with_stdin(&["--frobnicate"], "");
    assert_eq!(code, 255);
    assert!(err.contains("unknown option"));
    let (_, err, code) = run_with_stdin(&[], "");
    assert_eq!(code, 255);
    assert!(err.contains("no command"));
}

#[test]
fn help_and_version() {
    let (out, _, code) = run_with_stdin(&["--help"], "");
    assert!(out.contains("usage: htpar"));
    assert_eq!(code, 0);
    let (out, _, code) = run_with_stdin(&["--version"], "");
    assert!(out.starts_with("htpar "));
    assert_eq!(code, 0);
}

#[test]
fn pipe_mode_end_to_end() {
    let stdin: String = (0..40).map(|i| format!("{i}\n")).collect();
    let (out, _, code) = run_with_stdin(&["--pipe", "--block", "32", "-k", "wc", "-l"], &stdin);
    assert_eq!(code, 0);
    let total: u64 = out
        .split_whitespace()
        .map(|n| n.parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, 40);
}

#[test]
fn tag_marks_output_lines() {
    let (out, _, _) = run_with_stdin(&["-k", "--tag", "echo", "hi", "#", "{}", ":::", "a"], "");
    assert_eq!(out, "a\thi\n");
}

#[test]
fn progress_goes_to_stderr() {
    let (_, err, _) = run_with_stdin(&["--progress", "-k", "true", "{}", ":::", "1", "2"], "");
    assert!(err.contains("done"), "{err}");
}

#[test]
fn stderr_of_jobs_reaches_stderr() {
    let (out, err, code) =
        run_with_stdin(&["-k", "echo oops >&2; echo ok #", "{}", ":::", "1"], "");
    assert_eq!(out, "ok\n");
    assert!(err.contains("oops"));
    assert_eq!(code, 0);
}

/// Golden-format check of `--progress` output: one line per completed
/// job, each matching the documented render
/// `"{done} done ({ok} ok, {failed} failed, {skipped} skipped), {rate} jobs/s"`.
#[test]
fn progress_lines_match_golden_format() {
    let (_, err, code) = run_with_stdin(
        &[
            "--progress",
            "-j1",
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
    assert_eq!(code, 0);
    let lines: Vec<&str> = err.lines().filter(|l| l.contains(" done (")).collect();
    assert_eq!(lines.len(), 3, "one progress line per completed job: {err}");
    for (i, line) in lines.iter().enumerate() {
        let want = format!("{} done ({} ok, 0 failed, 0 skipped), ", i + 1, i + 1);
        assert!(
            line.starts_with(&want),
            "line {i} diverged from golden prefix: {line}"
        );
        let rate = line[want.len()..]
            .strip_suffix(" jobs/s")
            .unwrap_or_else(|| panic!("missing rate suffix: {line}"));
        assert!(rate.parse::<f64>().is_ok(), "non-numeric rate in: {line}");
    }
}

/// Golden-structure check of the joblog file: GNU-compatible header, one
/// TSV row per job with numeric time columns and the expanded command.
#[test]
fn joblog_file_matches_golden_structure() {
    let dir = std::env::temp_dir().join(format!("htpar-joblog-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("golden.joblog");
    let _ = std::fs::remove_file(&log);

    let (_, _, code) = run_with_stdin(
        &[
            "-j1",
            "-k",
            "--joblog",
            log.to_str().unwrap(),
            "true",
            "{}",
            ":::",
            "a",
            "b",
        ],
        "",
    );
    assert_eq!(code, 0);

    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand"
    );
    assert_eq!(lines.len(), 3, "header + one row per job: {text}");
    for (i, row) in lines[1..].iter().enumerate() {
        let cols: Vec<&str> = row.split('\t').collect();
        assert_eq!(cols.len(), 9, "nine TSV columns: {row}");
        assert_eq!(cols[0], (i + 1).to_string(), "seq column");
        assert!(cols[2].parse::<f64>().is_ok(), "numeric Starttime: {row}");
        assert!(cols[3].parse::<f64>().is_ok(), "numeric JobRuntime: {row}");
        assert_eq!(cols[6], "0", "Exitval of a successful job");
        assert_eq!(cols[7], "0", "Signal of a successful job");
        assert_eq!(
            cols[8],
            format!("true {}", ["a", "b"][i]),
            "expanded command"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill a run mid-flight after the first job is logged, then `--resume`:
/// only the job missing from the joblog may execute.
#[test]
fn kill_and_resume_runs_only_unlogged_jobs() {
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("htpar-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("kill.joblog");
    let _ = std::fs::remove_file(&log);

    // Job 1 (`sleep 0`) finishes and is logged; job 2 (`sleep 600`)
    // hangs, so the kill lands while the run is genuinely mid-flight.
    let mut child = htpar()
        .args([
            "-j1",
            "--joblog",
            log.to_str().unwrap(),
            "sleep",
            "{}",
            ":::",
            "0",
            "600",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn htpar");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let logged = std::fs::read_to_string(&log)
            .map(|s| s.lines().any(|l| l.starts_with("1\t")))
            .unwrap_or(false);
        if logged {
            break;
        }
        assert!(Instant::now() < deadline, "seq 1 was never logged");
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().unwrap();
    child.wait().unwrap();

    let (out, _, code) = run_with_stdin(
        &[
            "-k",
            "--joblog",
            log.to_str().unwrap(),
            "--resume",
            "echo",
            "ran-{}",
            ":::",
            "0",
            "600",
        ],
        "",
    );
    assert_eq!(code, 0);
    assert_eq!(out, "ran-600\n", "only the unlogged job may run");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Resume observed through the telemetry `Recorder`: skipped jobs emit
/// only `Queued`, the one genuinely executed job a full lifecycle.
#[test]
fn recorder_distinguishes_skipped_from_executed_on_resume() {
    use std::sync::Arc;

    use htpar_cli::exec::execute_observed;
    use htpar_cli::parse_args;
    use htpar_telemetry::{EventBus, Recorder};

    let dir = std::env::temp_dir().join(format!("htpar-recorder-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("recorder.joblog");
    let _ = std::fs::remove_file(&log);
    let spec = |tokens: &[&str]| {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        parse_args(&argv).unwrap()
    };
    let emit = |_: &str, _: &str| {};

    // Seed the joblog with jobs 1 and 2 complete.
    let report = htpar_cli::execute(
        spec(&[
            "--joblog",
            log.to_str().unwrap(),
            "true",
            "{}",
            ":::",
            "a",
            "b",
        ]),
        std::io::empty(),
        emit,
    )
    .unwrap();
    assert_eq!(report.succeeded, 2);

    // Resume with a third arg: 1 and 2 skip, 3 executes.
    let bus = EventBus::shared();
    let rec = Recorder::shared();
    bus.attach(rec.clone());
    let report = execute_observed(
        spec(&[
            "-k",
            "--joblog",
            log.to_str().unwrap(),
            "--resume",
            "true",
            "{}",
            ":::",
            "a",
            "b",
            "c",
        ]),
        std::io::empty(),
        emit,
        Some(Arc::clone(&bus)),
    )
    .unwrap();
    assert_eq!(report.skipped, 2);
    assert_eq!(report.succeeded, 1);

    let kinds = |seq: u64| -> Vec<&'static str> {
        rec.lifecycle_of(seq).iter().map(|e| e.kind()).collect()
    };
    assert_eq!(kinds(1), vec!["queued"], "skipped job emits only Queued");
    assert_eq!(kinds(2), vec!["queued"], "skipped job emits only Queued");
    // `true c` renders metachar-free but `true` is a shell builtin, so
    // the launch path reports the sh -c fallback between spawn and
    // completion.
    assert_eq!(
        kinds(3),
        vec![
            "queued",
            "slot_acquired",
            "spawned",
            "sh_fallback",
            "completed"
        ],
        "executed job emits the full lifecycle"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn joblog_resume_via_cli() {
    let dir = std::env::temp_dir().join(format!("htpar-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("cli.joblog");
    let _ = std::fs::remove_file(&log);

    let (_, _, code) = run_with_stdin(
        &[
            "-k",
            "--joblog",
            log.to_str().unwrap(),
            "true",
            "{}",
            ":::",
            "a",
            "b",
        ],
        "",
    );
    assert_eq!(code, 0);
    // Resume run: everything skips, output empty, still success.
    let (out, _, code) = run_with_stdin(
        &[
            "-k",
            "--joblog",
            log.to_str().unwrap(),
            "--resume",
            "echo",
            "ran-{}",
            ":::",
            "a",
            "b",
        ],
        "",
    );
    assert_eq!(code, 0);
    assert_eq!(out, "", "all jobs skipped on resume");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `-k` with `--halt soon,fail=1`: seq 1 fails slowly while the other
/// slot runs the later seqs, and seqs 2-4 (the rest of seq 1's chunk)
/// never run. Every job that ran still prints, in seq order: one line
/// per exit-0 joblog row.
#[test]
fn keep_order_output_survives_a_halt() {
    let dir = std::env::temp_dir().join(format!("htpar-keep-order-halt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("halt.joblog");
    let _ = std::fs::remove_file(&log);
    let seqs: Vec<String> = (1..=64).map(|i| i.to_string()).collect();
    let mut args = vec![
        "-j2",
        "-k",
        "--halt",
        "soon,fail=1",
        "--joblog",
        log.to_str().unwrap(),
        "if [ {} = 1 ]; then sleep 0.3; exit 1; fi; echo out{}",
        ":::",
    ];
    args.extend(seqs.iter().map(String::as_str));
    let (out, _, code) = run_with_stdin(&args, "");
    assert_eq!(code, 1, "one failed job");

    let mut ok: Vec<u64> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .skip(1)
        .map(|row| row.split('\t').collect::<Vec<_>>())
        .filter(|cols| cols[6] == "0")
        .map(|cols| cols[0].parse().unwrap())
        .collect();
    ok.sort_unstable();
    assert!(ok.len() > 1, "the other slot ran later seqs: {ok:?}");
    let printed: Vec<u64> = out
        .lines()
        .map(|line| line.strip_prefix("out").unwrap().parse().unwrap())
        .collect();
    assert_eq!(printed, ok, "stdout:\n{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}
