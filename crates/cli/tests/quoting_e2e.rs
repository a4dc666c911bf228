//! Replacement values run literally: every executor quotes them the way
//! GNU Parallel does, so no byte of a value reaches a shell as syntax.
//! One injection corpus runs through the library's in-process engine
//! (on both launch paths), through `htpar drive` agents and through a
//! stand-in `ssh` that joins its words like OpenSSH; each must print
//! the values verbatim and create no file.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use htpar_core::prelude::*;

fn htpar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_htpar"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htpar-quoting-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Values that would run commands, expand or split if they reached a
/// shell unquoted. The payloads touch `marker`, an absolute path, so an
/// injection shows wherever the shell runs.
fn corpus(marker: &Path) -> Vec<String> {
    let m = marker.display();
    vec![
        format!("x;touch {m}"),
        format!("$(touch {m})"),
        format!("`touch {m}`"),
        format!("a && touch {m} || b"),
        format!("| touch {m}"),
        format!("> {m}"),
        "it's".into(),
        "'".into(),
        "''".into(),
        r#"say "hi""#.into(),
        r#"mixed '"' and "'""#.into(),
        "*".into(),
        "?*.[ch]".into(),
        "~".into(),
        "~root/x".into(),
        "# not a comment".into(),
        "a\nb".into(),
        String::new(),
        "-n".into(),
        "--help".into(),
        "$HOME".into(),
        "a  b\tc".into(),
        r"back\slash!".into(),
        "{a,b}".into(),
        "café λ".into(),
    ]
}

/// `printf '%s\n' v` for every value, in order.
fn expected_lines(values: &[String]) -> String {
    values.iter().map(|v| format!("{v}\n")).collect()
}

fn write_ssh_shim(dir: &Path) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let shim = dir.join("fake-ssh");
    // `-o BatchMode=yes <host> --`, then the remote words, which OpenSSH
    // joins with spaces for the login shell.
    std::fs::write(&shim, "#!/bin/sh\nshift 4\nexec sh -c \"$*\"\n").unwrap();
    std::fs::set_permissions(&shim, std::fs::Permissions::from_mode(0o755)).unwrap();
    shim
}

fn run(dir: &Path, args: &[&str]) -> (String, String, i32) {
    let out = htpar()
        .current_dir(dir)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn htpar");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn corpus_runs_literally_through_parallel() {
    let dir = temp_dir("parallel");
    let marker = dir.join("PWNED");
    let values = corpus(&marker);
    // `printf` is a shell builtin, so the first template runs through
    // `sh -c`; the absolute path takes the shell bypass.
    for template in ["printf '%s\\n' {}", "/usr/bin/printf '%s\\n' {}"] {
        let report = Parallel::new(template)
            .jobs(2)
            .keep_order(true)
            .args(values.clone())
            .run()
            .unwrap();
        assert!(report.all_succeeded(), "{template}: {:?}", report.results);
        let out: String = report.results.iter().map(|r| r.stdout.as_str()).collect();
        assert_eq!(out, expected_lines(&values), "{template}");
    }
    assert!(!marker.exists(), "a value ran as a command");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corpus_runs_literally_on_drive_agents() {
    let dir = temp_dir("drive");
    let marker = dir.join("PWNED");
    let values = corpus(&marker);
    // `drive` does not print task output: each task writes its value to
    // a file named after its seq.
    let template = format!("printf %s {{}} > {}/out.{{#}}", dir.display());
    let mut args = vec!["drive", "--local-cluster", "2", template.as_str(), ":::"];
    args.extend(values.iter().map(String::as_str));
    let (_, stderr, code) = run(&dir, &args);
    assert_eq!(code, 0, "drive failed:\n{stderr}");
    for (i, v) in values.iter().enumerate() {
        let got = std::fs::read_to_string(dir.join(format!("out.{}", i + 1))).unwrap();
        assert_eq!(&got, v, "seq {}", i + 1);
    }
    assert!(!marker.exists(), "a value ran as a command");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corpus_runs_literally_through_joining_ssh() {
    let dir = temp_dir("ssh");
    let marker = dir.join("PWNED");
    let values = corpus(&marker);
    let shim = write_ssh_shim(&dir);
    let mut args = vec![
        "-k",
        "-S",
        "2/h",
        "--ssh-cmd",
        shim.to_str().unwrap(),
        "printf",
        "'%s\\n'",
        "{}",
        ":::",
    ];
    args.extend(values.iter().map(String::as_str));
    let (out, stderr, code) = run(&dir, &args);
    assert_eq!(code, 0, "stderr:\n{stderr}");
    assert_eq!(out, expected_lines(&values));
    assert!(!marker.exists(), "a value ran as a command");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_values_print_verbatim_and_create_nothing() {
    let dir = temp_dir("echo");
    let (out, _, code) = run(
        &dir,
        &[
            "-j1",
            "-k",
            "echo",
            "{}",
            ":::",
            "it's",
            "x;touch PWNED",
            "$HOME",
        ],
    );
    assert_eq!(code, 0);
    assert_eq!(out, "it's\nx;touch PWNED\n$HOME\n");
    assert!(!dir.join("PWNED").exists(), "a value ran as a command");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dry_run_shows_the_quoted_command() {
    let dir = temp_dir("dry");
    for (args, want) in [
        (
            &["--dry-run", "wc -l", ":::", "my file.txt"][..],
            "wc -l 'my file.txt'\n",
        ),
        (
            &["-X", "--dry-run", "echo", ":::", "a b", "c;d"][..],
            "echo 'a b' 'c;d'\n",
        ),
        (
            &["-m", "--dry-run", "echo", "{}", "end", ":::", "a b", "c;d"][..],
            "echo 'a b' 'c;d' end\n",
        ),
        // A template that is exactly `{}` runs its value as the command.
        (
            &["--dry-run", "{}", ":::", "echo a; echo b"][..],
            "echo a; echo b\n",
        ),
    ] {
        let (out, stderr, code) = run(&dir, args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
        assert_eq!(out, want, "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_shell_batches_keep_each_value_one_argument() {
    let dir = temp_dir("noshell");
    for mode in ["-X", "-m"] {
        let (out, stderr, code) = run(
            &dir,
            &[
                "-j1",
                "--no-shell",
                mode,
                "printf",
                "[%s]\\n",
                ":::",
                "a b",
                "c",
            ],
        );
        assert_eq!(code, 0, "{mode}: {stderr}");
        assert_eq!(out, "[a b]\n[c]\n", "{mode}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tagstring_values_stay_unquoted() {
    let dir = temp_dir("tag");
    let (out, _, code) = run(&dir, &["--tagstring", "<{}>", "echo", "x", ":::", "a b"]);
    assert_eq!(code, 0);
    assert_eq!(out, "<a b>\tx a b\n");
    std::fs::remove_dir_all(&dir).unwrap();
}
