//! # htpar-cli — the `htpar` command-line tool
//!
//! A GNU Parallel-compatible front end over `htpar-core`:
//!
//! ```text
//! htpar -j8 -k 'gzip -9 {}' ::: *.log
//! find . -type f | htpar -j32 -X 'rsync -R -Ha {} /dst/'
//! htpar --pipe --block 1M 'wc -l' < bigfile
//! htpar -j36 --joblog run.log --resume-failed 'python3 arch.py {1} {2}' \
//!       ::: 1 2 3 4 5 6 7 8 9 10 11 12 ::: 0 1 2
//! ```
//!
//! [`args`] holds the one argument reader every command line goes
//! through, the classic `:::` tail and its input expansion, and parses
//! `htpar`'s own line into a [`args::CliSpec`]; [`exec`] maps the spec
//! onto [`htpar_core::Parallel`], streams output, and computes the
//! GNU-compatible exit code; [`netcmd`] holds the subcommands.

pub mod args;
pub mod exec;
pub mod netcmd;

pub use args::{parse_args, CliSpec};
pub use exec::{execute, exit_code};
