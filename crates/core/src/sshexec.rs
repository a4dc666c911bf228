//! SSH transport for remote hosts: the executor behind `--sshlogin`.
//!
//! [`SshExecutor`] wraps a job's shell command in an `ssh` invocation
//! (`ssh [user@]host -- "sh -c <quoted command>"`) and runs it through a
//! local [`ProcessExecutor`]. OpenSSH joins its remote words with spaces
//! and hands the line to the login shell, so the rendered command (its
//! values already quoted by [`crate::template`]) travels as one remote
//! word, quoted once more with [`shell_quote`], as GNU Parallel does:
//! the login shell removes that layer and `sh -c` interprets the
//! command exactly once, like a local run. Combined with
//! [`crate::remote::MultiHostExecutor`] this gives the full GNU
//! `--sshlogin` data path; tests substitute a fake `ssh` that joins its
//! words the way OpenSSH does, since real remote hosts are out of reach
//! in an offline environment.

use crate::executor::{ExecContext, Executor, ProcessExecutor, TaskOutput};
use crate::job::CommandLine;
use crate::remote::Sshlogin;
use crate::template::shell_quote;

/// Executes each command on a remote host via `ssh`.
pub struct SshExecutor {
    login: Sshlogin,
    /// The ssh binary to invoke (overridable for tests and for wrappers
    /// like `ssh -o ControlMaster=auto`).
    ssh_program: String,
    inner: ProcessExecutor,
}

impl SshExecutor {
    /// Wrap `login` with the system `ssh`.
    pub fn new(login: Sshlogin) -> SshExecutor {
        SshExecutor {
            login,
            ssh_program: "ssh".to_string(),
            inner: ProcessExecutor::no_shell(),
        }
    }

    /// Use a different ssh program (tests point this at a shim).
    pub fn with_program<S: Into<String>>(mut self, program: S) -> SshExecutor {
        self.ssh_program = program.into();
        self
    }

    /// The remote login this executor targets.
    pub fn login(&self) -> &Sshlogin {
        &self.login
    }

    /// Build the ssh argv for a rendered command. Exposed for tests:
    /// quoting bugs here are security bugs.
    pub fn build_argv(&self, rendered: &str) -> Vec<String> {
        vec![
            self.ssh_program.clone(),
            // BatchMode: never prompt; a hung prompt would wedge a slot.
            "-o".to_string(),
            "BatchMode=yes".to_string(),
            self.login.login_string(),
            "--".to_string(),
            // One remote word: ssh would join separate words with spaces
            // and the login shell would split them again.
            format!("sh -c {}", shell_quote(rendered)),
        ]
    }
}

impl Executor for SshExecutor {
    fn execute(&self, cmd: &CommandLine, ctx: &ExecContext) -> TaskOutput {
        let argv = self.build_argv(cmd.rendered());
        let wrapped = CommandLine::new(
            cmd.seq,
            cmd.slot,
            cmd.args.clone(),
            argv.join(" "),
            argv,
            cmd.env.clone(),
        );
        let wrapped = match &cmd.stdin {
            Some(block) => wrapped.with_stdin(block.clone()),
            None => wrapped,
        };
        self.inner.execute(&wrapped, ctx)
    }
}

/// Build a [`crate::remote::MultiHostExecutor`] from sshlogin specs:
/// `localhost`/`:` runs directly, everything else goes through
/// [`SshExecutor`] (with `ssh_program`, for tests).
pub fn multi_host_from_specs(
    specs: &[&str],
    default_slots: usize,
    ssh_program: &str,
) -> crate::error::Result<crate::remote::MultiHostExecutor> {
    use std::sync::Arc;
    let mut hosts: Vec<(Sshlogin, Arc<dyn Executor>)> = Vec::new();
    for spec in specs {
        let login = Sshlogin::parse(spec)?;
        let exec: Arc<dyn Executor> = if login.host == "localhost" && login.user.is_none() {
            Arc::new(ProcessExecutor::shell())
        } else {
            Arc::new(SshExecutor::new(login.clone()).with_program(ssh_program))
        };
        hosts.push((login, exec));
    }
    crate::remote::MultiHostExecutor::new(hosts, default_slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecContext;

    fn cmdline(rendered: &str) -> CommandLine {
        CommandLine::new(1, 1, vec![], rendered.to_string(), vec![], vec![])
    }

    /// A stand-in `ssh` in `dir`: it receives `-o BatchMode=yes <host>
    /// --` and the remote words, joins those words with spaces the way
    /// OpenSSH does, and runs `body` with `$host` and the joined
    /// command line in `"$*"` (what the login shell would run).
    fn joining_shim(dir: &std::path::Path, body: &str) -> std::path::PathBuf {
        use std::os::unix::fs::PermissionsExt;
        std::fs::create_dir_all(dir).unwrap();
        let shim = dir.join("fake-ssh");
        std::fs::write(&shim, format!("#!/bin/sh\nhost=$3\nshift 4\n{body}\n")).unwrap();
        std::fs::set_permissions(&shim, std::fs::Permissions::from_mode(0o755)).unwrap();
        shim
    }

    #[test]
    fn argv_shape_and_quoting() {
        let exec = SshExecutor::new(Sshlogin::parse("alice@n01").unwrap());
        let argv = exec.build_argv("echo 'a b' > /tmp/x; wc -l");
        assert_eq!(argv[0], "ssh");
        assert_eq!(argv[1..3], ["-o".to_string(), "BatchMode=yes".to_string()]);
        assert_eq!(argv[3], "alice@n01");
        assert_eq!(argv[4], "--");
        // The remote command is ONE word, quoted once more for the
        // login shell that OpenSSH hands it to.
        assert_eq!(argv[5], r#"sh -c 'echo '"'"'a b'"'"' > /tmp/x; wc -l'"#);
        assert_eq!(argv.len(), 6);
        // The login shell's unquoting gives back the rendered command.
        let out = std::process::Command::new("sh")
            .args(["-c", &format!("printf %s {}", &argv[5]["sh -c ".len()..])])
            .output()
            .unwrap();
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "echo 'a b' > /tmp/x; wc -l"
        );
    }

    #[test]
    fn fake_ssh_round_trip() {
        // A shim that prints the "host" and runs the command locally —
        // what a real ssh would do, minus the network.
        let dir = std::env::temp_dir().join(format!("htpar-ssh-{}", std::process::id()));
        let shim = joining_shim(&dir, "echo \"via:$host\"\nexec sh -c \"$*\"");
        let exec = SshExecutor::new(Sshlogin::parse("2/worker07").unwrap())
            .with_program(shim.display().to_string());
        let out = exec.execute(
            &cmdline("echo remote-says-$((6*7))"),
            &ExecContext::default(),
        );
        assert_eq!(out.status, crate::job::JobStatus::Success, "{}", out.stderr);
        assert_eq!(out.stdout, "via:worker07\nremote-says-42\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fake_ssh_cluster_through_the_engine() {
        use crate::prelude::*;
        let dir = std::env::temp_dir().join(format!("htpar-sshc-{}", std::process::id()));
        let shim = joining_shim(&dir, "out=$(sh -c \"$*\")\necho \"$host:$out\"");
        let multi =
            multi_host_from_specs(&["2/nodeA", "2/nodeB"], 1, &shim.display().to_string()).unwrap();
        let report = Parallel::new("echo job-{}")
            .jobs(4)
            .keep_order(true)
            .executor(multi)
            .args((0..8).map(|i| i.to_string()))
            .run()
            .unwrap();
        assert!(report.all_succeeded());
        let hosts: std::collections::HashSet<&str> = report
            .results
            .iter()
            .map(|r| r.stdout.split(':').next().unwrap())
            .collect();
        assert_eq!(
            hosts,
            ["nodeA", "nodeB"].into_iter().collect(),
            "both remote hosts served jobs"
        );
        assert!(report.results[3].stdout.ends_with("job-3\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remote_commands_keep_every_word_and_run_values_literally() {
        // Through a shim that joins words like OpenSSH, the whole
        // command runs remotely and a hostile value stays one word.
        use crate::prelude::*;
        let dir = std::env::temp_dir().join(format!("htpar-sshq-{}", std::process::id()));
        let body = format!("cd '{}' && exec sh -c \"$*\"", dir.display());
        let shim = joining_shim(&dir, &body);
        let multi = multi_host_from_specs(&["2/h"], 1, &shim.display().to_string()).unwrap();
        let report = Parallel::new("echo hello {}")
            .jobs(2)
            .keep_order(true)
            .executor(multi)
            .args(["world", "w;touch PWNED"])
            .run()
            .unwrap();
        assert!(report.all_succeeded(), "{:?}", report.results);
        let out: Vec<&str> = report.results.iter().map(|r| r.stdout.as_str()).collect();
        assert_eq!(out, ["hello world\n", "hello w;touch PWNED\n"]);
        assert!(!dir.join("PWNED").exists(), "a value ran as a command");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn localhost_spec_runs_directly() {
        let multi = multi_host_from_specs(&[":"], 2, "ssh").unwrap();
        use crate::prelude::*;
        let report = Parallel::new("echo here-{}")
            .jobs(2)
            .keep_order(true)
            .executor(multi)
            .args(["x"])
            .run()
            .unwrap();
        assert_eq!(report.results[0].stdout, "here-x\n");
    }

    #[test]
    fn unreachable_host_fails_gracefully() {
        // Real ssh to a bogus host: BatchMode means no prompt, just a
        // nonzero exit. Tolerate ssh being absent (ExecError) too.
        let exec = SshExecutor::new(Sshlogin::parse("no.such.host.invalid").unwrap());
        let out = exec.execute(
            &cmdline("echo hi"),
            &ExecContext {
                timeout: Some(std::time::Duration::from_secs(5)),
            },
        );
        assert!(
            out.status.is_failure(),
            "unexpected success: {:?}",
            out.status
        );
    }
}
