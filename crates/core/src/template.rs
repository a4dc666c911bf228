//! GNU Parallel replacement strings.
//!
//! Supported placeholders (semantics match `man parallel`):
//!
//! | Token    | Meaning                                                  |
//! |----------|----------------------------------------------------------|
//! | `{}`     | the input line / argument                                |
//! | `{.}`    | argument with its extension removed                      |
//! | `{/}`    | basename of the argument                                 |
//! | `{//}`   | dirname of the argument                                  |
//! | `{/.}`   | basename with extension removed                          |
//! | `{#}`    | 1-based job sequence number                              |
//! | `{%}`    | 1-based job slot number (paper §IV-D binds GPUs to this) |
//! | `{n}`    | n-th positional argument (from linked/multiple sources)  |
//! | `{n.}` `{n/}` `{n//}` `{n/.}` | positional + path operation         |
//!
//! Unknown `{...}` sequences are kept literally, as GNU Parallel does.
//! A template with no replacement string at all behaves like `xargs`: the
//! engine appends the argument(s) at the end (see
//! [`Template::has_placeholder`]).
//!
//! # Quoting
//!
//! [`Template::expand`] renders the command `sh -c` runs, so it
//! shell-quotes every value it inserts, after the value's path
//! operation and including xargs-appended arguments, by GNU Parallel's
//! rule ([`shell_quote`]): `echo {}` over `it's` renders
//! `echo 'it'"'"'s'`, and the shell sees the value as one literal word.
//! `{#}`, `{%}` and the template's own text are never quoted. Two forms
//! insert values raw: a template that is exactly `{}`, whose value *is*
//! the command (GNU's command-less mode, and how DAG runs and the pilot
//! pass pre-rendered commands through the engine), and
//! [`Template::expand_raw`] (`--tagstring`). [`Template::expand_argv`]
//! (`--no-shell`) needs no quoting: each value is already one argv word.
//! The shell-bypass analyzer ([`crate::spawn::bypass_argv`]) reads
//! exactly the quotes [`shell_quote`] writes, so quoting never forces a
//! launch through `sh -c`.

use std::borrow::Cow;
use std::fmt::Write;

use crate::error::{Error, Result};

/// Bytes GNU Parallel leaves bare: `[-_.+A-Za-z0-9/]`. A lookup table
/// rather than a chain of comparisons, because the check runs on every
/// value of every task.
static BARE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.' | b'+' | b'/');
        b += 1;
    }
    table
};

/// Whether `v` can reach the shell unquoted: non-empty, every byte bare.
fn is_bare(v: &str) -> bool {
    !v.is_empty() && v.bytes().fold(true, |bare, b| bare & BARE[b as usize])
}

/// Shell-quote one value by GNU Parallel's rule: a value whose bytes
/// all lie in `[-_.+A-Za-z0-9/]` stays bare, the empty value becomes
/// `''`, and anything else is single-quoted, with each run of `'`
/// written as `"…"` between the single-quoted spans (`it's` →
/// `'it'"'"'s'`, `'x` → `"'"'x'`). `sh` reads the result back as
/// exactly `v`, whatever bytes it holds.
pub fn shell_quote(v: &str) -> Cow<'_, str> {
    if is_bare(v) {
        return Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 2);
    push_quoted(&mut out, v);
    Cow::Owned(out)
}

/// Append [`shell_quote`]`(v)` to `out` without an intermediate string.
fn push_quoted(out: &mut String, v: &str) {
    if is_bare(v) {
        out.push_str(v);
        return;
    }
    if v.is_empty() {
        out.push_str("''");
        return;
    }
    // Alternate maximal runs: `'` runs inside `"…"`, the rest inside
    // `'…'`. `'` is ASCII, so every cut is a char boundary.
    let bytes = v.as_bytes();
    let mut start = 0;
    while start < bytes.len() {
        let quote = bytes[start] == b'\'';
        let end = bytes[start..]
            .iter()
            .position(|&b| (b == b'\'') != quote)
            .map_or(bytes.len(), |n| start + n);
        let wrap = if quote { '"' } else { '\'' };
        out.push(wrap);
        out.push_str(&v[start..end]);
        out.push(wrap);
        start = end;
    }
}

/// Append a value, shell-quoted when `quote` is set.
pub(crate) fn push_value(out: &mut String, v: &str, quote: bool) {
    if quote {
        push_quoted(out, v);
    } else {
        out.push_str(v);
    }
}

/// Path-style post-processing applied to an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOp {
    /// `{}` — no transformation.
    None,
    /// `{.}` — strip the last extension of the basename.
    NoExt,
    /// `{/}` — basename.
    Base,
    /// `{//}` — dirname (`.` when there is no directory component).
    Dir,
    /// `{/.}` — basename without extension.
    BaseNoExt,
}

impl PathOp {
    /// Apply the operation to an argument string. Every result is a
    /// slice of `arg` or a constant, so expansion allocates nothing here.
    pub fn apply(self, arg: &str) -> &str {
        match self {
            PathOp::None => arg,
            PathOp::NoExt => strip_ext(arg),
            PathOp::Base => basename(arg),
            PathOp::Dir => dirname(arg),
            PathOp::BaseNoExt => strip_ext(basename(arg)),
        }
    }

    fn parse(s: &str) -> Option<PathOp> {
        match s {
            "" => Some(PathOp::None),
            "." => Some(PathOp::NoExt),
            "/" => Some(PathOp::Base),
            "//" => Some(PathOp::Dir),
            "/." => Some(PathOp::BaseNoExt),
            _ => None,
        }
    }
}

/// Everything after the final `/`.
fn basename(arg: &str) -> &str {
    match arg.rfind('/') {
        Some(i) => &arg[i + 1..],
        None => arg,
    }
}

/// Everything before the final `/`; `.` if there is no `/`; `/` for root.
fn dirname(arg: &str) -> &str {
    match arg.rfind('/') {
        Some(0) => "/",
        Some(i) => &arg[..i],
        None => ".",
    }
}

/// Remove the last `.ext` of the *basename*; dotfiles (`.bashrc`) and
/// extension-less names are untouched. The directory part is preserved.
fn strip_ext(arg: &str) -> &str {
    let base_start = arg.rfind('/').map_or(0, |i| i + 1);
    let base = &arg[base_start..];
    match base.rfind('.') {
        Some(i) if i > 0 => &arg[..base_start + i],
        _ => arg,
    }
}

/// One parsed token of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Literal text, emitted verbatim.
    Literal(String),
    /// The whole current argument (all positional args joined by space when
    /// more than one input source is in play and no positional is given).
    Arg(PathOp),
    /// A 1-based positional argument.
    Positional(usize, PathOp),
    /// `{#}` — job sequence number.
    Seq,
    /// `{%}` — slot number.
    Slot,
}

/// Per-job values available to placeholder expansion.
#[derive(Debug, Clone)]
pub struct ExpandContext<'a> {
    /// Positional arguments for this job (one per input source).
    pub args: &'a [String],
    /// 1-based job sequence number.
    pub seq: u64,
    /// 1-based slot number.
    pub slot: usize,
}

/// A parsed command template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    tokens: Vec<Token>,
    has_placeholder: bool,
    /// False only for the pass-through template `{}` (see the module
    /// docs on quoting).
    quotes_values: bool,
    source: String,
}

impl Template {
    /// Parse a template string. Never fails on unknown `{...}` — those stay
    /// literal — but is a `Result` for forward compatibility and for
    /// [`Template::parse_with_replacement`] which can fail.
    pub fn parse(s: &str) -> Result<Template> {
        let mut tokens = Vec::new();
        let mut literal = String::new();
        let mut has_placeholder = false;
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'{' {
                if let Some(close) = s[i..].find('}') {
                    let inner = &s[i + 1..i + close];
                    if let Some(tok) = parse_spec(inner) {
                        if !literal.is_empty() {
                            tokens.push(Token::Literal(std::mem::take(&mut literal)));
                        }
                        tokens.push(tok);
                        has_placeholder = true;
                        i += close + 1;
                        continue;
                    }
                }
            }
            let ch = s[i..].chars().next().expect("in-bounds char");
            literal.push(ch);
            i += ch.len_utf8();
        }
        if !literal.is_empty() {
            tokens.push(Token::Literal(literal));
        }
        let quotes_values = tokens != [Token::Arg(PathOp::None)];
        Ok(Template {
            tokens,
            has_placeholder,
            quotes_values,
            source: s.to_string(),
        })
    }

    /// Parse with a custom replacement string standing in for `{}` (GNU's
    /// `-I repl`). Occurrences of `repl` become the whole-argument
    /// placeholder; standard `{...}` tokens keep working.
    pub fn parse_with_replacement(s: &str, repl: &str) -> Result<Template> {
        if repl.is_empty() {
            return Err(Error::Template(
                "replacement string must be non-empty".into(),
            ));
        }
        // Substitute the custom token with `{}` then parse normally. A repl
        // that itself contains `{}` would be ambiguous; reject it.
        if repl.contains('{') || repl.contains('}') {
            return Err(Error::Template(
                "replacement string may not contain braces".into(),
            ));
        }
        Template::parse(&s.replace(repl, "{}"))
    }

    /// Whether any replacement string occurs. When false, the engine
    /// appends arguments at the end of the command (xargs behaviour).
    pub fn has_placeholder(&self) -> bool {
        self.has_placeholder
    }

    /// The original template text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed token stream.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Whether [`Template::expand`] shell-quotes values: every template
    /// but the pass-through `{}`.
    pub(crate) fn quotes_values(&self) -> bool {
        self.quotes_values
    }

    /// Expand to the command line `sh -c` runs: each value shell-quoted
    /// (see the module docs), unless the template is exactly `{}`.
    pub fn expand(&self, ctx: &ExpandContext<'_>) -> String {
        self.render(ctx, self.quotes_values)
    }

    /// Expand with every value inserted verbatim, for text that no
    /// shell reads (`--tagstring`).
    pub fn expand_raw(&self, ctx: &ExpandContext<'_>) -> String {
        self.render(ctx, false)
    }

    fn render(&self, ctx: &ExpandContext<'_>, quote: bool) -> String {
        // Room for every value twice (`{}` beside a path op) plus quotes
        // and numbers, so the common template never regrows.
        let values: usize = ctx.args.iter().map(String::len).sum();
        let mut out = String::with_capacity(self.source.len() + 2 * values + 16);
        for tok in &self.tokens {
            expand_token(tok, ctx, quote, &mut out);
        }
        if !self.has_placeholder {
            for arg in ctx.args {
                out.push(' ');
                push_value(&mut out, arg, quote);
            }
        }
        out
    }

    /// Expand word-wise: the template is split on whitespace and each word
    /// expanded separately, producing an argv. Used by the no-shell
    /// execution path, where `{}` must stay a single argument even when the
    /// input contains spaces.
    pub fn expand_argv(&self, ctx: &ExpandContext<'_>) -> Vec<String> {
        let mut argv: Vec<String> = Vec::new();
        let mut word = String::new();
        let mut word_has_token = false;
        let flush = |word: &mut String, word_has_token: &mut bool, argv: &mut Vec<String>| {
            if !word.is_empty() || *word_has_token {
                argv.push(std::mem::take(word));
            }
            *word_has_token = false;
        };
        for tok in &self.tokens {
            match tok {
                Token::Literal(text) => {
                    let mut parts = text.split(' ').peekable();
                    while let Some(part) = parts.next() {
                        word.push_str(part);
                        if parts.peek().is_some() {
                            flush(&mut word, &mut word_has_token, &mut argv);
                        }
                    }
                }
                other => {
                    expand_token(other, ctx, false, &mut word);
                    word_has_token = true;
                }
            }
        }
        flush(&mut word, &mut word_has_token, &mut argv);
        if !self.has_placeholder {
            argv.extend(ctx.args.iter().cloned());
        }
        argv.retain(|w| !w.is_empty());
        argv
    }
}

fn expand_token(tok: &Token, ctx: &ExpandContext<'_>, quote: bool, out: &mut String) {
    match tok {
        Token::Literal(text) => out.push_str(text),
        Token::Arg(op) => {
            // With multiple input sources and a bare `{}`, GNU inserts all
            // of them space-separated, each quoted on its own.
            let mut first = true;
            for arg in ctx.args {
                if !first {
                    out.push(' ');
                }
                push_value(out, op.apply(arg), quote);
                first = false;
            }
        }
        Token::Positional(n, op) => {
            if let Some(arg) = ctx.args.get(n - 1) {
                push_value(out, op.apply(arg), quote);
            }
        }
        Token::Seq => {
            let _ = write!(out, "{}", ctx.seq);
        }
        Token::Slot => {
            let _ = write!(out, "{}", ctx.slot);
        }
    }
}

/// Parse the inside of a `{...}`. `None` means "not a placeholder, keep
/// literal".
fn parse_spec(inner: &str) -> Option<Token> {
    match inner {
        "#" => return Some(Token::Seq),
        "%" => return Some(Token::Slot),
        _ => {}
    }
    let digits_end = inner
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(inner.len(), |(i, _)| i);
    let (digits, rest) = inner.split_at(digits_end);
    let op = PathOp::parse(rest)?;
    if digits.is_empty() {
        Some(Token::Arg(op))
    } else {
        let n: usize = digits.parse().ok()?;
        if n == 0 {
            return None; // {0} is not a valid positional
        }
        Some(Token::Positional(n, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(args: &'a [String]) -> ExpandContext<'a> {
        ExpandContext {
            args,
            seq: 7,
            slot: 3,
        }
    }

    fn one(s: &str) -> Vec<String> {
        vec![s.to_string()]
    }

    fn expand(tpl: &str, arg: &str) -> String {
        let args = one(arg);
        Template::parse(tpl).unwrap().expand(&ctx(&args))
    }

    #[test]
    fn whole_argument() {
        // A value with a space stays one shell word.
        assert_eq!(expand("echo {}", "a b"), "echo 'a b'");
    }

    #[test]
    fn shell_quote_follows_gnu_parallel() {
        for (value, quoted) in [
            ("plain-_.+/Az09", "plain-_.+/Az09"),
            ("", "''"),
            ("a b", "'a b'"),
            ("it's", r#"'it'"'"'s'"#),
            ("'x", r#""'"'x'"#),
            ("x'", r#"'x'"'""#),
            ("'", r#""'""#),
            ("a''b", r#"'a'"''"'b'"#),
            ("$HOME", "'$HOME'"),
            ("x;touch PWNED", "'x;touch PWNED'"),
            ("λ", "'λ'"),
            ("k=v", "'k=v'"),
        ] {
            assert_eq!(shell_quote(value), quoted, "{value:?}");
        }
    }

    #[test]
    fn values_are_quoted_after_path_ops_and_when_appended() {
        assert_eq!(expand("cat {/}", "d/my file.txt"), "cat 'my file.txt'");
        assert_eq!(expand("mv {} {.}", "a b.c"), "mv 'a b.c' 'a b'");
        assert_eq!(expand("wc -l", "my file.txt"), "wc -l 'my file.txt'");
        assert_eq!(expand("echo {#}-{%} {}", "x;y"), "echo 7-3 'x;y'");
        let args = vec!["a b".to_string(), "c".to_string()];
        assert_eq!(
            Template::parse("go {} {2}").unwrap().expand(&ctx(&args)),
            "go 'a b' c c"
        );
    }

    #[test]
    fn bare_braces_pass_the_value_through_as_the_command() {
        assert_eq!(expand("{}", "echo a; echo b"), "echo a; echo b");
        assert_eq!(expand(" {}", "a b"), " 'a b'");
        assert_eq!(expand("{.}", "a b.c"), "'a b'");
        let t = Template::parse_with_replacement("CMD", "CMD").unwrap();
        assert_eq!(t.expand(&ctx(&one("echo hi"))), "echo hi");
    }

    #[test]
    fn expand_raw_inserts_values_verbatim() {
        let args = one("a b;c");
        let t = Template::parse("<{}> {#}").unwrap();
        assert_eq!(t.expand_raw(&ctx(&args)), "<a b;c> 7");
    }

    #[test]
    fn path_operations() {
        assert_eq!(expand("{.}", "dir/file.txt"), "dir/file");
        assert_eq!(expand("{/}", "dir/file.txt"), "file.txt");
        assert_eq!(expand("{//}", "dir/file.txt"), "dir");
        assert_eq!(expand("{/.}", "dir/file.txt"), "file");
    }

    #[test]
    fn extension_edge_cases() {
        assert_eq!(expand("{.}", "a.b.c"), "a.b");
        assert_eq!(expand("{.}", "noext"), "noext");
        assert_eq!(expand("{.}", ".bashrc"), ".bashrc");
        assert_eq!(expand("{.}", "dir.d/noext"), "dir.d/noext");
        assert_eq!(expand("{/.}", "/x/.hidden"), ".hidden");
    }

    #[test]
    fn dirname_edge_cases() {
        assert_eq!(expand("{//}", "file"), ".");
        assert_eq!(expand("{//}", "/file"), "/");
        assert_eq!(expand("{//}", "a/b/c"), "a/b");
    }

    #[test]
    fn seq_and_slot() {
        assert_eq!(expand("{#}:{%}", "x"), "7:3");
    }

    #[test]
    fn gpu_isolation_idiom() {
        // Paper §IV-D: HIP_VISIBLE_DEVICES bound to slot-1.
        let args = one("run.inp.json");
        let t = Template::parse("HIP_VISIBLE_DEVICES={%} celer-sim {}").unwrap();
        assert_eq!(
            t.expand(&ctx(&args)),
            "HIP_VISIBLE_DEVICES=3 celer-sim run.inp.json"
        );
    }

    #[test]
    fn positionals() {
        let args = vec!["1".to_string(), "two/file.log".to_string()];
        let t = Template::parse("m={1} f={2/.}").unwrap();
        assert_eq!(t.expand(&ctx(&args)), "m=1 f=file");
    }

    #[test]
    fn bare_braces_with_multiple_sources_join_all() {
        let args = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            Template::parse("go {}").unwrap().expand(&ctx(&args)),
            "go a b"
        );
    }

    #[test]
    fn missing_positional_expands_empty() {
        let args = one("only");
        assert_eq!(Template::parse("x{5}y").unwrap().expand(&ctx(&args)), "xy");
    }

    #[test]
    fn unknown_braces_stay_literal() {
        assert_eq!(expand("awk '{print $1}' {}", "f"), "awk '{print $1}' f");
        assert_eq!(expand("a {unknown} b {}", "f"), "a {unknown} b f");
        assert_eq!(expand("{0}", "f"), "{0} f"); // {0} invalid => literal, xargs-append
    }

    #[test]
    fn unclosed_brace_is_literal() {
        assert_eq!(expand("echo { and {}", "x"), "echo { and x");
    }

    #[test]
    fn no_placeholder_appends_args() {
        assert_eq!(expand("echo hello", "x"), "echo hello x");
        let args = vec!["a".to_string(), "b".to_string()];
        assert_eq!(
            Template::parse("wc -l").unwrap().expand(&ctx(&args)),
            "wc -l a b"
        );
    }

    #[test]
    fn has_placeholder_flag() {
        assert!(Template::parse("echo {}").unwrap().has_placeholder());
        assert!(Template::parse("{#}").unwrap().has_placeholder());
        assert!(!Template::parse("echo hi").unwrap().has_placeholder());
        assert!(!Template::parse("awk '{print}'").unwrap().has_placeholder());
    }

    #[test]
    fn custom_replacement_string() {
        let t = Template::parse_with_replacement("mv FILE FILE.bak", "FILE").unwrap();
        let args = one("data.txt");
        assert_eq!(t.expand(&ctx(&args)), "mv data.txt data.txt.bak");
    }

    #[test]
    fn custom_replacement_rejects_braces_and_empty() {
        assert!(Template::parse_with_replacement("x", "").is_err());
        assert!(Template::parse_with_replacement("x", "{y}").is_err());
    }

    #[test]
    fn expand_argv_keeps_arg_as_single_word() {
        let args = one("with space");
        let t = Template::parse("cp {} /dst/{/}").unwrap();
        assert_eq!(
            t.expand_argv(&ctx(&args)),
            vec!["cp", "with space", "/dst/with space"]
        );
    }

    #[test]
    fn expand_argv_appends_when_no_placeholder() {
        let args = vec!["a a".to_string()];
        let t = Template::parse("echo hi").unwrap();
        assert_eq!(t.expand_argv(&ctx(&args)), vec!["echo", "hi", "a a"]);
    }

    #[test]
    fn expand_argv_joins_adjacent_literal_and_token() {
        let args = one("v");
        let t = Template::parse("X={} out/{}.txt").unwrap();
        assert_eq!(t.expand_argv(&ctx(&args)), vec!["X=v", "out/v.txt"]);
    }

    #[test]
    fn unicode_literals_survive() {
        // Template text is never quoted; a non-ASCII value is.
        assert_eq!(expand("écho «{}»", "λ"), "écho «'λ'»");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary non-NUL text: every other ASCII byte, extra quotes
        /// and whitespace, and two- to four-byte characters.
        fn any_value() -> impl Strategy<Value = String> {
            proptest::collection::vec(0u32..200, 0..16).prop_map(|codes| {
                codes
                    .into_iter()
                    .map(|c| match c {
                        0..=127 => char::from_u32(c.max(1)).expect("ASCII"),
                        128..=159 => ['\'', '\'', '"', ' ', '\t', '\n', '\\', '$'][c as usize % 8],
                        160..=179 => char::from_u32(c + 0x50).expect("Latin script"),
                        _ => ['λ', '€', '😀', '\u{fffd}'][c as usize % 4],
                    })
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn parse_never_panics(s in ".{0,200}") {
                let _ = Template::parse(&s);
            }

            #[test]
            fn quoted_values_read_back_exactly(v in any_value()) {
                // `sh` reads the quoted value back as the value...
                let q = shell_quote(&v);
                let out = std::process::Command::new("sh")
                    .args(["-c", &format!("printf %s {q}")])
                    .output()
                    .expect("run sh");
                prop_assert_eq!(String::from_utf8_lossy(&out.stdout), v.as_str(), "{}", q);
                // ...and so does the shell-bypass analyzer.
                let argv = crate::spawn::bypass_argv(&format!("/bin/x {q}"));
                prop_assert_eq!(argv, Some(vec!["/bin/x".to_string(), v.clone()]), "{}", q);
            }

            #[test]
            fn literal_templates_round_trip(s in "[^{}]{0,100}", arg in "[a-z/.]{0,20}") {
                // A template with no braces expands to itself + appended arg.
                let t = Template::parse(&s).unwrap();
                let args = vec![arg.clone()];
                let c = ExpandContext { args: &args, seq: 1, slot: 1 };
                let expanded = t.expand(&c);
                // The empty value is appended as `''`.
                prop_assert_eq!(expanded, format!("{} {}", s, shell_quote(&arg)));
            }

            #[test]
            fn braces_expand_to_arg(arg in "[a-zA-Z0-9_./-]{1,40}") {
                let args = vec![arg.clone()];
                let c = ExpandContext { args: &args, seq: 1, slot: 1 };
                let out = Template::parse("pre {} post").unwrap().expand(&c);
                prop_assert_eq!(out, format!("pre {} post", arg));
            }

            #[test]
            fn base_dir_recompose(arg in "[a-z]{1,5}(/[a-z.]{1,8}){0,4}") {
                // dirname + "/" + basename reproduces the path (when it has a dir).
                let args = vec![arg.clone()];
                let c = ExpandContext { args: &args, seq: 1, slot: 1 };
                let dir = Template::parse("{//}").unwrap().expand(&c);
                let base = Template::parse("{/}").unwrap().expand(&c);
                let recomposed = if dir == "." { base.clone() } else { format!("{dir}/{base}") };
                prop_assert_eq!(recomposed, arg);
            }

            #[test]
            fn absolute_paths_recompose(arg in "/([a-z.]{1,8}/){0,3}[a-z.]{0,8}") {
                // Root-anchored paths: `{//}` is "/" exactly when the only
                // slash is the leading one, and recomposition is exact.
                // The basename may be empty, which `expand` would quote,
                // so this checks the path ops themselves.
                let dir = PathOp::Dir.apply(&arg);
                let base = PathOp::Base.apply(&arg);
                prop_assert!(!base.contains('/'), "basename never keeps a slash");
                let recomposed = if dir == "/" { format!("/{base}") } else { format!("{dir}/{base}") };
                prop_assert_eq!(recomposed, arg);
            }

            #[test]
            fn ext_strip_invariants(arg in "(/)?([a-zA-Z0-9_.]{1,6}/){0,3}[a-zA-Z0-9_.]{1,6}") {
                // `{.}` either leaves the argument alone or removes exactly
                // one trailing `.ext` from a non-empty basename, where the
                // removed extension contains no further dot or slash.
                let args = vec![arg.clone()];
                let c = ExpandContext { args: &args, seq: 1, slot: 1 };
                let stripped = Template::parse("{.}").unwrap().expand(&c);
                if stripped != arg {
                    prop_assert!(arg.starts_with(&stripped));
                    let ext = &arg[stripped.len()..];
                    prop_assert!(ext.starts_with('.'), "removed piece is .ext, got {ext:?}");
                    prop_assert!(!ext[1..].contains('.') && !ext.contains('/'));
                    prop_assert!(!stripped.ends_with('/'), "dotfiles are never emptied");
                }
            }

            #[test]
            fn base_noext_is_strip_after_base(arg in "(/)?([a-zA-Z0-9_.]{1,6}/){0,3}[a-zA-Z0-9_.]{0,6}") {
                // The fused `{/.}` equals `{.}` applied to the `{/}`
                // result. The basename may be empty, which `expand` would
                // quote, so this checks the path ops themselves.
                let fused = PathOp::BaseNoExt.apply(&arg);
                let staged = PathOp::NoExt.apply(PathOp::Base.apply(&arg));
                prop_assert_eq!(fused, staged);
            }

            #[test]
            fn seq_and_slot_expand_numerically(seq in 1u64..1_000_000u64, slot in 1usize..512usize) {
                let args = vec!["x".to_string()];
                let c = ExpandContext { args: &args, seq, slot };
                let out = Template::parse("{#}:{%}:{}").unwrap().expand(&c);
                prop_assert_eq!(out, format!("{seq}:{slot}:x"));
            }

            #[test]
            fn positional_path_ops_match_whole_arg_ops(
                a in "[a-z]{1,4}(/[a-z.]{1,6}){0,3}",
                b in "[a-z]{1,4}(/[a-z.]{1,6}){0,3}",
            ) {
                // `{1//}`/`{2/}` apply the same path op to the selected
                // positional that `{//}`/`{/}` apply to a one-arg job.
                let args = vec![a.clone(), b.clone()];
                let c = ExpandContext { args: &args, seq: 1, slot: 1 };
                let out = Template::parse("{1//} {2/}").unwrap().expand(&c);
                let only_a = vec![a.clone()];
                let ca = ExpandContext { args: &only_a, seq: 1, slot: 1 };
                let dir_a = Template::parse("{//}").unwrap().expand(&ca);
                let only_b = vec![b.clone()];
                let cb = ExpandContext { args: &only_b, seq: 1, slot: 1 };
                let base_b = Template::parse("{/}").unwrap().expand(&cb);
                prop_assert_eq!(out, format!("{dir_a} {base_b}"));
            }
        }
    }
}
