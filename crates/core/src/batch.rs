//! Argument batching: `-m`/`--xargs` and `-X`/`--context-replace`.
//!
//! Paper §IV-E builds its 256-way data mover on exactly this:
//!
//! ```text
//! find ... | parallel -j32 -X rsync -R -Ha {} /lustre/proj/
//! ```
//!
//! `-X` packs as many file names as fit into each rsync invocation by
//! repeating the *word* containing `{}` once per argument.

use crate::template::{push_value, shell_quote, PathOp, Template, Token};

/// Greedily split `args` into batches subject to a character budget and an
/// optional per-batch argument cap.
///
/// `base_len` is the length of the command with zero arguments;
/// `per_arg_overhead` is the constant extra cost per inserted argument
/// (separator plus repeated context for `-X`). Each argument costs its
/// shell-quoted length, which is what the rendered command carries.
///
/// Every batch contains at least one argument even if that argument alone
/// blows the budget — matching xargs/parallel, which never drop input.
pub fn plan_batches(
    args: &[String],
    max_args: Option<usize>,
    max_chars: usize,
    base_len: usize,
    per_arg_overhead: usize,
) -> Vec<std::ops::Range<usize>> {
    let mut batches = Vec::new();
    let mut start = 0;
    while start < args.len() {
        let mut end = start;
        let mut used = base_len;
        while end < args.len() {
            let cost = shell_quote(&args[end]).len() + per_arg_overhead;
            let fits = used + cost <= max_chars || end == start;
            let under_cap = max_args.is_none_or(|cap| end - start < cap);
            if fits && under_cap {
                used += cost;
                end += 1;
            } else {
                break;
            }
        }
        batches.push(start..end);
        start = end;
    }
    batches
}

/// Expand a template in `-m` (xargs) mode: the batch's arguments are
/// inserted at each `{}` site, each shell-quoted on its own and
/// space-separated.
pub fn expand_xargs(template: &Template, batch: &[String], seq: u64, slot: usize) -> String {
    let quote = template.quotes_values();
    let mut out = String::new();
    push_tokens(&mut out, template.tokens(), batch, seq, slot, quote);
    if !template.has_placeholder() {
        // xargs behaviour: append the whole batch.
        for arg in batch {
            out.push(' ');
            push_value(&mut out, arg, quote);
        }
    }
    out
}

/// Expand a template in `-X` (context replace) mode: any *word* containing
/// a replacement string is repeated once per argument; words without
/// replacement strings appear once. Each argument is shell-quoted.
///
/// `echo pre-{}-post` over `[a, b]` → `echo pre-a-post pre-b-post`.
pub fn expand_context_replace(
    template: &Template,
    batch: &[String],
    seq: u64,
    slot: usize,
) -> String {
    let quote = template.quotes_values();
    let mut out = String::new();
    for word in split_words(template) {
        if has_site(&word) {
            for arg in batch {
                push_word(&mut out, &word, std::slice::from_ref(arg), seq, slot, quote);
            }
        } else {
            push_word(&mut out, &word, batch, seq, slot, quote);
        }
    }
    if !template.has_placeholder() {
        // xargs behaviour: append the whole batch.
        for arg in batch {
            if !out.is_empty() {
                out.push(' ');
            }
            push_value(&mut out, arg, quote);
        }
    }
    out
}

/// The `--no-shell` argv of a batch, built word by word like
/// [`Template::expand_argv`]: every value is exactly one argv word,
/// joined to the literal text around its site. With `context_replace`
/// (`-X`) a word holding a site repeats once per value; otherwise
/// (`-m`) the site's values split the word at their boundaries.
pub fn batch_argv(
    template: &Template,
    batch: &[String],
    seq: u64,
    slot: usize,
    context_replace: bool,
) -> Vec<String> {
    let mut argv = Vec::new();
    for word in split_words(template) {
        if context_replace && has_site(&word) {
            for arg in batch {
                push_argv_words(&mut argv, &word, std::slice::from_ref(arg), seq, slot);
            }
        } else {
            push_argv_words(&mut argv, &word, batch, seq, slot);
        }
    }
    if !template.has_placeholder() {
        argv.extend(batch.iter().cloned());
    }
    argv.retain(|w| !w.is_empty());
    argv
}

/// Whether a word holds a replacement site.
fn has_site(word: &[Token]) -> bool {
    word.iter()
        .any(|t| matches!(t, Token::Arg(_) | Token::Positional(..)))
}

/// The values a replacement site takes from a batch, with its path op.
/// A batch has one input source, so `{}` and `{1}` both stand for all
/// of `args`; any other positional has no value. `None`: not a site.
fn site_values<'a>(tok: &Token, args: &'a [String]) -> Option<(PathOp, &'a [String])> {
    match *tok {
        Token::Arg(op) | Token::Positional(1, op) => Some((op, args)),
        Token::Positional(_, op) => Some((op, &[])),
        _ => None,
    }
}

/// Append `tokens` rendered for `args`: literal text verbatim, each
/// value at a site through its path op and `quote`, space-separated.
fn push_tokens(
    out: &mut String,
    tokens: &[Token],
    args: &[String],
    seq: u64,
    slot: usize,
    quote: bool,
) {
    for tok in tokens {
        match site_values(tok, args) {
            Some((op, values)) => {
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    push_value(out, op.apply(v), quote);
                }
            }
            None => push_fixed(out, tok, seq, slot),
        }
    }
}

/// Append one space-separated word; a word that renders empty adds
/// nothing, not even its separator.
fn push_word(
    out: &mut String,
    word: &[Token],
    args: &[String],
    seq: u64,
    slot: usize,
    quote: bool,
) {
    let mark = out.len();
    if mark > 0 {
        out.push(' ');
    }
    let body = out.len();
    push_tokens(out, word, args, seq, slot, quote);
    if out.len() == body {
        out.truncate(mark);
    }
}

/// Append one template word as raw argv words: the boundary between
/// two values at a site starts a new word.
fn push_argv_words(argv: &mut Vec<String>, word: &[Token], args: &[String], seq: u64, slot: usize) {
    let mut cur = String::new();
    for tok in word {
        match site_values(tok, args) {
            Some((op, values)) => {
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        argv.push(std::mem::take(&mut cur));
                    }
                    cur.push_str(op.apply(v));
                }
            }
            None => push_fixed(&mut cur, tok, seq, slot),
        }
    }
    argv.push(cur);
}

/// Literal text and the per-job numbers: never quoted.
fn push_fixed(out: &mut String, tok: &Token, seq: u64, slot: usize) {
    match tok {
        Token::Literal(text) => out.push_str(text),
        Token::Seq => out.push_str(&seq.to_string()),
        Token::Slot => out.push_str(&slot.to_string()),
        Token::Arg(_) | Token::Positional(..) => {}
    }
}

/// Split a template's token stream into whitespace-delimited words.
fn split_words(template: &Template) -> Vec<Vec<Token>> {
    let mut words: Vec<Vec<Token>> = Vec::new();
    let mut current: Vec<Token> = Vec::new();
    for tok in template.tokens() {
        match tok {
            Token::Literal(text) => {
                let mut parts = text.split(' ').peekable();
                while let Some(part) = parts.next() {
                    if !part.is_empty() {
                        current.push(Token::Literal(part.to_string()));
                    }
                    if parts.peek().is_some() && !current.is_empty() {
                        words.push(std::mem::take(&mut current));
                    }
                }
            }
            other => current.push(other.clone()),
        }
    }
    if !current.is_empty() {
        words.push(current);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn batches_respect_char_budget() {
        let args = strs(&["aaaa", "bbbb", "cccc", "dddd"]);
        // base 10 + (4+1) per arg, budget 21 → 2 args per batch.
        let b = plan_batches(&args, None, 21, 10, 1);
        assert_eq!(b, vec![0..2, 2..4]);
    }

    #[test]
    fn batches_respect_max_args() {
        let args = strs(&["a", "b", "c", "d", "e"]);
        let b = plan_batches(&args, Some(2), usize::MAX, 0, 0);
        assert_eq!(b, vec![0..2, 2..4, 4..5]);
    }

    #[test]
    fn oversized_single_arg_still_ships() {
        let args = strs(&["this-is-way-too-long"]);
        let b = plan_batches(&args, None, 5, 0, 0);
        assert_eq!(b, vec![0..1]);
    }

    #[test]
    fn empty_args_no_batches() {
        assert!(plan_batches(&[], None, 100, 0, 0).is_empty());
    }

    #[test]
    fn batches_cover_everything_exactly_once() {
        let args: Vec<String> = (0..100).map(|i| format!("arg{i}")).collect();
        let b = plan_batches(&args, Some(7), 64, 10, 1);
        let mut covered = Vec::new();
        for r in &b {
            covered.extend(r.clone());
        }
        assert_eq!(covered, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn xargs_mode_inserts_all_args_at_site() {
        let t = Template::parse("echo {}").unwrap();
        let out = expand_xargs(&t, &strs(&["a", "b", "c"]), 1, 1);
        assert_eq!(out, "echo a b c");
    }

    #[test]
    fn context_replace_repeats_containing_word() {
        let t = Template::parse("echo pre-{}-post").unwrap();
        let out = expand_context_replace(&t, &strs(&["a", "b"]), 1, 1);
        assert_eq!(out, "echo pre-a-post pre-b-post");
    }

    #[test]
    fn context_replace_rsync_idiom() {
        // parallel -X rsync -R -Ha {} /lustre/proj/
        let t = Template::parse("rsync -R -Ha {} /lustre/proj/").unwrap();
        let out = expand_context_replace(&t, &strs(&["/a/1", "/a/2", "/b/3"]), 1, 1);
        assert_eq!(out, "rsync -R -Ha /a/1 /a/2 /b/3 /lustre/proj/");
    }

    #[test]
    fn context_replace_with_path_ops() {
        let t = Template::parse("convert {} thumbs/{/.}.png").unwrap();
        let out = expand_context_replace(&t, &strs(&["img/x.jpg", "img/y.jpg"]), 1, 1);
        assert_eq!(out, "convert img/x.jpg img/y.jpg thumbs/x.png thumbs/y.png");
    }

    #[test]
    fn context_replace_seq_slot_expand_once_per_word() {
        let t = Template::parse("run --slot {%} {}").unwrap();
        let out = expand_context_replace(&t, &strs(&["a", "b"]), 9, 4);
        assert_eq!(out, "run --slot 4 a b");
    }

    #[test]
    fn context_replace_without_placeholder_appends() {
        let t = Template::parse("echo fixed").unwrap();
        let out = expand_context_replace(&t, &strs(&["a", "b"]), 1, 1);
        assert_eq!(out, "echo fixed a b");
    }

    #[test]
    fn single_arg_batch_equals_plain_expand() {
        let t = Template::parse("cp {} {}.bak").unwrap();
        let out = expand_context_replace(&t, &strs(&["f"]), 1, 1);
        assert_eq!(out, "cp f f.bak");
    }

    #[test]
    fn batches_quote_each_argument_on_its_own() {
        let args = strs(&["a b", "c;d", ""]);
        for tpl in ["echo {}", "echo"] {
            let t = Template::parse(tpl).unwrap();
            assert_eq!(expand_xargs(&t, &args, 1, 1), "echo 'a b' 'c;d' ''");
            assert_eq!(
                expand_context_replace(&t, &args, 1, 1),
                "echo 'a b' 'c;d' ''"
            );
        }
        let t = Template::parse("cp {} dst/{/.}.bak").unwrap();
        let args = strs(&["in/x y.txt", "in/z.txt"]);
        assert_eq!(
            expand_context_replace(&t, &args, 1, 1),
            "cp 'in/x y.txt' in/z.txt dst/'x y'.bak dst/z.bak"
        );
        assert_eq!(
            expand_xargs(&t, &args, 1, 1),
            "cp 'in/x y.txt' in/z.txt dst/'x y' z.bak"
        );
    }

    #[test]
    fn one_source_makes_positional_one_the_whole_batch() {
        let t = Template::parse("echo {1} {2}").unwrap();
        assert_eq!(
            expand_xargs(&t, &strs(&["a", "b c"]), 1, 1),
            "echo a 'b c' "
        );
    }

    #[test]
    fn batch_argv_makes_each_value_one_word() {
        let args = strs(&["a b", "c"]);
        let printf = Template::parse("printf [%s]\\n").unwrap();
        for context_replace in [false, true] {
            assert_eq!(
                batch_argv(&printf, &args, 1, 1, context_replace),
                ["printf", "[%s]\\n", "a b", "c"]
            );
        }
        let t = Template::parse("cp pre{}post {#} /dst/").unwrap();
        assert_eq!(
            batch_argv(&t, &args, 4, 1, true),
            ["cp", "prea bpost", "precpost", "4", "/dst/"]
        );
        assert_eq!(
            batch_argv(&t, &args, 4, 1, false),
            ["cp", "prea b", "cpost", "4", "/dst/"]
        );
    }

    #[test]
    fn the_budget_counts_quoted_lengths() {
        // `'a b'` costs 5, not 3: base 5 + 2 × (5 + 1) = 17 > 16.
        let args = strs(&["a b", "c d"]);
        assert_eq!(plan_batches(&args, None, 16, 5, 1), vec![0..1, 1..2]);
        assert_eq!(plan_batches(&args, None, 17, 5, 1), vec![0..2]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn plan_batches_partitions_input(
                n in 0usize..200,
                cap in 1usize..20,
                budget in 1usize..200,
            ) {
                let args: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
                let batches = plan_batches(&args, Some(cap), budget, 5, 1);
                let mut covered = Vec::new();
                for r in &batches {
                    prop_assert!(!r.is_empty(), "no empty batches");
                    prop_assert!(r.len() <= cap);
                    covered.extend(r.clone());
                }
                prop_assert_eq!(covered, (0..n).collect::<Vec<_>>());
            }

            /// The documented `-X`/`-m` contract: split any input under
            /// any line-length limit, and (a) concatenating the batches
            /// reproduces the input in order, (b) every rendered command
            /// stays within the limit — except the unavoidable case of a
            /// single argument that alone exceeds it, which still ships
            /// (xargs/parallel never drop input).
            #[test]
            fn xargs_batches_concatenate_back_and_respect_limit(
                args in proptest::collection::vec("[a-zA-Z0-9._/-]{1,12}", 0..60),
                max_chars in 10usize..120,
            ) {
                let t = Template::parse("echo {}").unwrap();
                let base = "echo ".len();
                let batches = plan_batches(&args, None, max_chars, base, 1);
                let mut rebuilt: Vec<String> = Vec::new();
                for (i, r) in batches.iter().enumerate() {
                    let batch = &args[r.clone()];
                    let out = expand_xargs(&t, batch, i as u64 + 1, 1);
                    prop_assert!(out.starts_with("echo "));
                    prop_assert_eq!(&out[base..], batch.join(" "));
                    if batch.len() > 1 {
                        prop_assert!(
                            out.len() <= max_chars,
                            "batch {} rendered to {} chars, limit {}",
                            i, out.len(), max_chars
                        );
                    }
                    rebuilt.extend(batch.iter().cloned());
                }
                prop_assert_eq!(rebuilt, args);
            }

            #[test]
            fn context_replace_mentions_every_arg(
                args in proptest::collection::vec("[a-z0-9]{1,8}", 1..10)
            ) {
                let t = Template::parse("cmd {}").unwrap();
                let out = expand_context_replace(&t, &args, 1, 1);
                for a in &args {
                    prop_assert!(out.contains(a.as_str()));
                }
            }
        }
    }
}
