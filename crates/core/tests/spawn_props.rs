//! Differential property tests for the launch fast path
//! (`htpar_core::spawn`): the shell-bypass analyzer must be *safe*
//! (anything that could mean something to `sh` falls back to `sh -c`)
//! and *transparent* (commands it does bypass behave byte-for-byte
//! like the portable `sh -c` + reader-thread path).

use htpar_core::executor::{ExecContext, Executor, ProcessExecutor};
use htpar_core::job::CommandLine;
use htpar_core::spawn::bypass_argv;
use htpar_core::template::shell_quote;
use proptest::prelude::*;

/// Every byte `sh` could interpret: quoting, expansion, substitution,
/// globbing, redirection, control operators, comments, whitespace
/// beyond the plain separators.
const METACHARS: &[char] = &[
    '\'', '"', '`', '$', '\\', '*', '?', '[', ']', '(', ')', '{', '}', '<', '>', '|', '&', ';',
    '!', '~', '#', '^', '\n', '\r',
];

fn cmdline(rendered: &str) -> CommandLine {
    CommandLine::new(1, 1, vec![], rendered.to_string(), vec![], vec![])
}

fn run_both(
    rendered: &str,
) -> (
    htpar_core::executor::TaskOutput,
    htpar_core::executor::TaskOutput,
) {
    let fast = ProcessExecutor::shell().execute(&cmdline(rendered), &ExecContext::default());
    let legacy = ProcessExecutor::shell()
        .legacy()
        .execute(&cmdline(rendered), &ExecContext::default());
    (fast, legacy)
}

proptest! {
    /// Any rendered command containing an unquoted shell metacharacter
    /// anywhere must refuse the bypass — no exceptions, no
    /// position-dependence.
    #[test]
    fn metacharacters_always_force_sh(
        prefix in "[a-zA-Z0-9_./:@%+,= -]{0,12}",
        midx in 0usize..METACHARS.len(),
        suffix in "[a-zA-Z0-9_./:@%+,= -]{0,12}",
    ) {
        let meta = METACHARS[midx];
        let rendered = format!("{prefix}{meta}{suffix}");
        prop_assert!(
            bypass_argv(&rendered).is_none(),
            "{rendered:?} contains {meta:?} but was bypassed"
        );
    }

    /// The analyzer's verdict is a pure word-split: when it does accept
    /// a command, the argv is exactly the whitespace-separated words.
    #[test]
    fn bypassed_argv_is_the_word_split(
        words in proptest::collection::vec("[a-z0-9_./:@%+,=-]{1,8}", 1..5),
    ) {
        let rendered = words.join(" ");
        if let Some(argv) = bypass_argv(&rendered) {
            prop_assert_eq!(argv, words);
        }
    }

    /// Differential transparency: metachar-free commands produce
    /// byte-identical stdout/stderr/exit through the posix_spawn
    /// bypass and through the portable `sh -c` path.
    #[test]
    fn bypass_and_sh_agree_on_echo(
        args in proptest::collection::vec("[a-z0-9_./:@%+,=-]{1,10}", 0..4),
    ) {
        let rendered = format!("/bin/echo {}", args.join(" "));
        prop_assert!(
            bypass_argv(&rendered).is_some(),
            "{rendered:?} is metachar-free and must bypass"
        );
        let (fast, legacy) = run_both(&rendered);
        prop_assert_eq!(&fast.status, &legacy.status, "{}", rendered);
        prop_assert_eq!(&fast.stdout, &legacy.stdout, "{}", rendered);
        prop_assert_eq!(&fast.stderr, &legacy.stderr, "{}", rendered);
    }
}

proptest! {
    /// Quoted values are transparent too: `/bin/echo` over values full
    /// of metacharacters, each written by `shell_quote`, bypasses the
    /// shell and prints byte-identical output to the `sh -c` path.
    #[test]
    fn quoted_values_bypass_and_agree_with_sh(
        values in proptest::collection::vec(r#"[a-z '"$;*?~#`\\(){}<>|&!\n\t=é-]{0,10}"#, 1..4),
    ) {
        let quoted: Vec<String> = values.iter().map(|v| shell_quote(v).into_owned()).collect();
        let rendered = format!("/bin/echo {}", quoted.join(" "));
        let mut argv = vec!["/bin/echo".to_string()];
        argv.extend(values.iter().cloned());
        prop_assert_eq!(bypass_argv(&rendered), Some(argv), "{}", rendered);
        let (fast, legacy) = run_both(&rendered);
        prop_assert_eq!(&fast.status, &legacy.status, "{}", rendered);
        prop_assert_eq!(&fast.stdout, &legacy.stdout, "{}", rendered);
        prop_assert_eq!(&fast.stderr, &legacy.stderr, "{}", rendered);
    }
}

/// Exit codes and signal deaths report identically through both paths
/// (fixed cases; process spawns are too slow for wide generation).
#[test]
fn exit_codes_agree_across_paths() {
    for rendered in ["/bin/true", "/bin/false", "/usr/bin/env x=1 /bin/true"] {
        let (fast, legacy) = run_both(rendered);
        assert_eq!(fast.status, legacy.status, "{rendered}");
        assert_eq!(fast.stdout, legacy.stdout, "{rendered}");
        assert_eq!(fast.stderr, legacy.stderr, "{rendered}");
    }
}

/// The fallback direction of the differential: commands *with*
/// metacharacters still run correctly (via `sh -c`) on the fast path,
/// matching the legacy path's output exactly.
#[test]
fn fallback_commands_agree_across_paths() {
    for rendered in [
        "echo a b;  echo c >&2",
        "printf '%s-%s' one two",
        "VAR=x; echo $VAR${VAR}",
        "echo *",
        "true && echo both || echo neither",
    ] {
        let (fast, legacy) = run_both(rendered);
        assert_eq!(fast.status, legacy.status, "{rendered}");
        assert_eq!(fast.stdout, legacy.stdout, "{rendered}");
        assert_eq!(fast.stderr, legacy.stderr, "{rendered}");
    }
}
