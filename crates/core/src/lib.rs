//! # htpar-core — a GNU Parallel-equivalent engine in Rust
//!
//! The paper's thesis is architectural: a *slot pool with O(1) dispatch
//! and no central scheduler* executes high-throughput workflows with
//! overhead orders of magnitude below DAG-driven workflow managers. This
//! crate is that architecture as a library:
//!
//! - **Replacement-string templating** ([`template`]): `{}`, `{.}`, `{/}`,
//!   `{//}`, `{/.}`, `{#}` (job sequence), `{%}` (slot), positional
//!   `{n}`/`{n.}`/…, custom replacement strings.
//! - **Input sources** ([`input`]): argument lists with `:::`-style
//!   cartesian products and `:::+`-style linking, line readers.
//! - **Slot-based scheduling** ([`runner`]): `-j N` slots, each a worker
//!   that pulls its next input the moment it frees up, per-job
//!   environment.
//! - **Output discipline** ([`output`]): grouped per-job output,
//!   `--keep-order`, `--tag`.
//! - **Job logs and resume** ([`joblog`]): `--joblog`, `--resume`,
//!   `--resume-failed`.
//! - **Failure policy** ([`halt`], retries in [`options`]): `--retries`,
//!   `--halt now,fail=1`-style policies.
//! - **Streaming queues** ([`queue`]): `tail -n+0 -f q | parallel`
//!   fetch-process pipelines (paper §IV-A).
//! - **Batching** ([`batch`]): `-X`-style context replace under a command
//!   line length budget (paper §IV-E pairs this with rsync).
//! - **Semaphore mode** ([`semaphore`]): `sem`-style cross-run limiting.
//! - **Pluggable executors** ([`executor`]): real OS processes, in-process
//!   closures; the cluster simulator in `htpar-cluster` plugs in the same
//!   scheduling engine.
//!
//! ## Quickstart
//!
//! ```
//! use htpar_core::prelude::*;
//!
//! // echo {}.out ::: a b c  -- with 2 slots, keeping input order
//! let report = Parallel::new("echo {}.out")
//!     .jobs(2)
//!     .keep_order(true)
//!     .args(["a", "b", "c"])
//!     .executor(FnExecutor::new(|cmd: &CommandLine| {
//!         Ok(TaskOutput::stdout(format!("ran: {}\n", cmd.rendered())))
//!     }))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.jobs_total, 3);
//! assert!(report.all_succeeded());
//! ```

pub mod batch;
pub mod chaos;
pub mod dag;
pub mod dispatch;
pub mod error;
pub mod executor;
pub mod gate;
pub mod halt;
pub mod input;
pub mod job;
pub mod joblog;
pub mod options;
pub mod output;
pub mod parallel;
pub mod pipe;
pub mod progress;
pub mod queue;
pub mod reactor;
pub mod remote;
pub mod runner;
pub mod sched;
pub mod semaphore;
pub mod spawn;
pub mod sshexec;
pub mod stats;
pub mod template;

// The engine's one input is a channel of job batches
// (`runner::Engine::run_batched` takes a `crossbeam_channel::Receiver`,
// and `dispatch::send_chunks` a `Sender`), so downstream crates get the
// exact same version from here.
pub use crossbeam_channel;

/// The commonly-used surface of the crate.
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use crate::executor::{Executor, FnExecutor, ProcessExecutor, TaskOutput};
    pub use crate::halt::HaltPolicy;
    pub use crate::input::InputSource;
    pub use crate::job::{CommandLine, JobResult, JobStatus};
    pub use crate::options::Options;
    pub use crate::parallel::{Parallel, RunReport};
    pub use crate::progress::Progress;
    pub use crate::queue::FollowQueue;
    pub use crate::remote::{MultiHostExecutor, Sshlogin};
    pub use crate::template::Template;
}

pub use prelude::*;
