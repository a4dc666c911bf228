//! `htpar-net` — real-process distributed execution.
//!
//! The paper's deployment shape (Listing 1) is a *driver* that shards an
//! input list across nodes, each node running GNU Parallel locally. The
//! rest of this repo reproduces that shape in simulation; this crate
//! builds it for real: a [`driver`] process dispatches work over sockets
//! to [`agent`] processes that each run the `htpar-core` engine, with
//! the PR 3 recovery machinery (heartbeat leases, joblog diffing,
//! re-sharding onto survivors) applied to live processes instead of
//! simulated nodes.
//!
//! Layers:
//! - [`frame`] — the length-prefixed binary protocol (versioned
//!   handshake, `Shard`, `DoneBatch`, `Heartbeat`, `Drain`,
//!   `AgentExit`).
//! - [`conn`] — one connection type over TCP or Unix sockets.
//! - [`nbio`] — non-blocking framed connections: buffered reads into
//!   the incremental decoder, bounded vectored-write queues, and the
//!   `MockConn` fault-injection shim. Every socket here runs on
//!   `htpar_core::reactor`, the hand-rolled epoll loop whose timer heap
//!   fires heartbeats, leases and drain deadlines.
//! - [`lease`] — the heartbeat failure detector behind the fleet's
//!   lease sweep.
//! - [`agent`] — the node-side loop: accept one driver, run the engine.
//! - [`fleet`] — the agent connections `drive` and `serve` share: dial
//!   and handshake, bounded write queues, completion decoding, lease
//!   sweep, and the deadline-bounded drain, all on one reactor.
//! - [`driver`] — shard, dispatch, aggregate the joblog, recover: the
//!   one-shot placement policy over a [`fleet`].
//! - [`local`] — localhost mini-clusters of agent subprocesses.
//! - [`serve`] — the pilot service: sessions and a pluggable
//!   multi-tenant scheduler over a persistent [`fleet`].
//! - [`journal`] — the pilot's write-ahead journal (`--state-dir`):
//!   admission-fsynced session records that survive a pilot SIGKILL.
//! - [`client`] — the blocking session client (`htpar submit`, load
//!   generators, tests).
//!
//! The differential suite (`tests/differential.rs`) holds a fault-free
//! drive to the joblog of an in-process `htpar_core` run of the same
//! workload.

pub mod agent;
pub mod client;
pub mod conn;
pub mod driver;
pub mod fleet;
pub mod frame;
pub mod journal;
pub mod lease;
pub mod local;
pub mod nbio;
pub mod outlog;
pub mod serve;

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::frame::FrameError;

/// The net I/O core: the epoll reactor is the only one. Nothing reads
/// this type; it stays until the benchmark stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetCore {
    /// Single-threaded epoll reactor.
    #[default]
    Reactor,
}

/// Former env var selecting the net core. Nothing reads it; it stays
/// until the benchmark stops clearing it.
pub const ENV_NET_CORE: &str = "HTPAR_NET_CORE";

/// Errors from the driver/agent state machines.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (dial, bind, read, write).
    Io(io::Error),
    /// The peer sent bytes that do not decode as protocol frames.
    Frame(FrameError),
    /// The peer sent a well-formed frame that violates the protocol
    /// (wrong handshake, version mismatch, frame before handshake).
    Protocol(String),
    /// Every agent died; `remaining` seqs could not be placed anywhere.
    AllAgentsLost { remaining: u64 },
    /// An error bubbled up from the embedded `htpar-core` engine.
    Core(htpar_core::error::Error),
    /// The pilot journal at `path` was written by an older pilot, whose
    /// records held rendered commands instead of arguments.
    OlderJournal { path: PathBuf },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame(e) => write!(f, "protocol framing error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::AllAgentsLost { remaining } => {
                write!(f, "all agents lost with {remaining} tasks unfinished")
            }
            NetError::Core(e) => write!(f, "engine error: {e}"),
            NetError::OlderJournal { path } => write!(
                f,
                "journal {} was written by an older pilot and cannot be replayed; \
                 finish its sessions with that pilot, or move the file away",
                path.display()
            ),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        NetError::Frame(e)
    }
}

impl From<htpar_core::error::Error> for NetError {
    fn from(e: htpar_core::error::Error) -> NetError {
        NetError::Core(e)
    }
}

pub type Result<T> = std::result::Result<T, NetError>;
