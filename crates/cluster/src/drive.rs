//! The Listing-1 driver's policy: the paper splits lines over nodes by
//! `NR % NNODE` and, with `--joblog`/`--resume`, a dead node's unlogged
//! lines over the survivors. [`DrivePolicy`] takes those decisions for
//! the live driver (`htpar_net::driver`) and the fault simulator
//! ([`crate::faults`]) alike, so the simulator's exactly-once runs check
//! the code `htpar drive` runs. It does no I/O and reads no clock: the
//! caller's [`Agents`] say which agents are alive and move the tasks.
//! Recording is exactly-once and execution at-least-once, the contract
//! of GNU Parallel's `--resume`; [`verify_exactly_once`] checks it over
//! a joblog.

use std::collections::HashSet;

use htpar_core::dag::{Completion, Dag, ReadySet};
use htpar_core::joblog::LogEntry;

use crate::slurm::driver_shard;

/// Who holds a task, in 4 bytes (an enum with a `u32` payload takes 8,
/// and the table holds one per task): the index of the agent it is
/// placed on and not yet recorded, or one of two reserved values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owner(u32);

impl Owner {
    /// On no agent: not yet released (graphs), placed, or re-placed.
    const UNPLACED: Owner = Owner(u32::MAX);
    /// Has a joblog row: resumed, completed, or condemned.
    const RECORDED: Owner = Owner(u32::MAX - 1);

    /// Whether the task is placed on an agent and not yet recorded.
    fn on_agent(self) -> bool {
        self.0 < Owner::RECORDED.0
    }
}

/// One drive's placement, recovery and exactly-once record: an owner
/// per task and, per agent, the seqs placed on it in placement order.
/// For a graph it also completes the [`ReadySet`], so released work only
/// ever holds ready tasks.
#[derive(Debug)]
pub struct DrivePolicy {
    /// By seq − 1.
    owner: Vec<Owner>,
    /// Per agent, the seqs placed on it in placement order (recorded ones
    /// included); `None` once the agent is lost.
    placed: Vec<Option<Vec<u64>>>,
    /// Graph drives: withholds each task until its dependencies succeed.
    ready: Option<ReadySet>,
    completion: Completion,
    unrecorded: u64,
}

impl DrivePolicy {
    /// A drive of `total` tasks over `agents` agents, of which the seqs
    /// in `resumed` are already recorded. With a `dag` of `total` nodes,
    /// a task is released only once its dependencies succeeded. Returns
    /// the policy and the seqs to place first.
    pub fn new(
        total: u64,
        agents: usize,
        dag: Option<&Dag>,
        resumed: &HashSet<u64>,
    ) -> (DrivePolicy, Vec<u64>) {
        let mut owner = vec![Owner::UNPLACED; total as usize];
        for &seq in resumed.iter().filter(|&&seq| (1..=total).contains(&seq)) {
            owner[seq as usize - 1] = Owner::RECORDED;
        }
        let mut ready = dag.map(|dag| {
            assert_eq!(dag.len() as u64, total, "the graph must cover every task");
            ReadySet::resumed(dag, resumed)
        });
        let first = match ready.as_mut() {
            Some(ready) => ready.take_ready(),
            None => (1..=total)
                .filter(|&seq| owner[seq as usize - 1] == Owner::UNPLACED)
                .collect(),
        };
        let policy = DrivePolicy {
            unrecorded: owner.iter().filter(|&&o| o == Owner::UNPLACED).count() as u64,
            owner,
            placed: vec![Some(Vec::new()); agents],
            ready,
            completion: Completion::default(),
        };
        (policy, first)
    }

    /// Split `seqs` over the agents alive now with the awk `NR % nnodes`
    /// split and hand each target its shard. A target lost taking its
    /// shard is declared lost ([`DrivePolicy::lose`]), which places its
    /// unrecorded seqs on the agents left, so a later target lost that way
    /// is skipped: its shard went with them. Every seq must be unplaced
    /// (fresh, released, or taken from a lost agent): the policy panics
    /// rather than hold a task on two agents.
    pub fn place(&mut self, seqs: &[u64], agents: &mut impl Agents) -> Result<(), NoAgentAlive> {
        self.place_from(None, seqs, agents)
    }

    /// Declare `agent` lost and place its unrecorded seqs on the agents
    /// alive now, in placement order. Costs O(the agent's placements); a
    /// second call does nothing.
    pub fn lose(&mut self, agent: usize, agents: &mut impl Agents) -> Result<(), NoAgentAlive> {
        let Some(mut lost) = self.placed[agent].take() else {
            return Ok(());
        };
        lost.retain(|&seq| self.owner[seq as usize - 1] == Owner(agent as u32));
        for &seq in &lost {
            self.owner[seq as usize - 1] = Owner::UNPLACED;
        }
        agents.lost(agent, &lost);
        self.place_from(Some(agent), &lost, agents)
    }

    fn place_from(
        &mut self,
        from: Option<usize>,
        seqs: &[u64],
        agents: &mut impl Agents,
    ) -> Result<(), NoAgentAlive> {
        if seqs.is_empty() {
            return Ok(());
        }
        let survivors: Vec<usize> = (0..self.placed.len())
            .filter(|&agent| agents.is_alive(agent))
            .collect();
        if survivors.is_empty() {
            return Err(NoAgentAlive {
                remaining: self.unrecorded,
            });
        }
        // Each target's shard, as a span of its placed list.
        let mut spans = Vec::with_capacity(survivors.len());
        let shards = driver_shard(seqs, survivors.len() as u32);
        for (mut shard, &agent) in shards.into_iter().zip(&survivors) {
            let placed = self.placed[agent]
                .as_mut()
                .expect("an alive agent is not lost");
            for &seq in &shard {
                let owner = &mut self.owner[seq as usize - 1];
                assert_eq!(*owner, Owner::UNPLACED, "seq {seq} is already placed");
                *owner = Owner(agent as u32);
            }
            spans.push(placed.len()..placed.len() + shard.len());
            placed.append(&mut shard);
        }
        for (span, &agent) in spans.into_iter().zip(&survivors) {
            // A loss nested in this loop took the target's shard back
            // and placed it on the agents left.
            let Some(placed) = &self.placed[agent] else {
                continue;
            };
            if !span.is_empty() && !agents.hand_over(agent, &placed[span], from) {
                self.lose(agent, agents)?;
            }
        }
        Ok(())
    }

    /// Record `seq`'s completion. `None` when the seq is on no agent:
    /// recorded already (a re-placed task that finished twice), never
    /// placed, or not one of this drive's tasks. For a graph, the
    /// completion names the tasks it released (unplaced, to place) and
    /// the ones it condemned (recorded here, to log as skipped in this
    /// order, which puts dependencies first).
    pub fn record(&mut self, seq: u64, ok: bool) -> Option<&Completion> {
        let owner = seq
            .checked_sub(1)
            .and_then(|i| self.owner.get_mut(i as usize))?;
        if !owner.on_agent() {
            return None;
        }
        *owner = Owner::RECORDED;
        self.unrecorded -= 1;
        if let Some(ready) = &mut self.ready {
            ready.complete(seq, ok, &mut self.completion);
            for &seq in &self.completion.newly_skipped {
                self.owner[seq as usize - 1] = Owner::RECORDED;
                self.unrecorded -= 1;
            }
        }
        Some(&self.completion)
    }

    /// Tasks not yet recorded; the drive is done at zero.
    pub fn unrecorded(&self) -> u64 {
        self.unrecorded
    }

    /// The seqs placed on `agent`, in placement order, recorded ones
    /// included; empty once the agent is lost.
    pub fn placed(&self, agent: usize) -> &[u64] {
        self.placed[agent].as_deref().unwrap_or(&[])
    }
}

/// The caller's side of a placement: which agents can take work, and the
/// hand-over of one shard. `htpar drive` writes the shard to the agent's
/// socket; the fault simulator queues it on a simulated node.
pub trait Agents {
    /// Whether `agent` can take work now.
    fn is_alive(&self, agent: usize) -> bool;

    /// Hand `shard` to `agent`; `from` names the lost agent whose seqs
    /// these are, `None` for fresh or released ones. Returns `false` when
    /// the agent was lost taking it.
    fn hand_over(&mut self, agent: usize, shard: &[u64], from: Option<usize>) -> bool;

    /// The policy declared `agent` lost holding `seqs`, its unrecorded
    /// seqs in placement order. It places them next, on the agents
    /// alive once this returns, so `agent` must not be among them.
    fn lost(&mut self, _agent: usize, _seqs: &[u64]) {}
}

/// A placement found no agent alive to take its seqs, with `remaining`
/// tasks unrecorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoAgentAlive {
    pub remaining: u64,
}

/// The exactly-once contract over a joblog: one row per seq, covering
/// `1..=total`.
pub fn verify_exactly_once(entries: &[LogEntry], total: u64) -> Result<(), String> {
    verify_seqs(entries.iter().map(|entry| entry.seq), total)
}

/// [`verify_exactly_once`] over the seqs of a joblog's rows.
pub fn verify_seqs(seqs: impl IntoIterator<Item = u64>, total: u64) -> Result<(), String> {
    let mut seen = vec![false; total as usize];
    for seq in seqs {
        // Seq 0 wraps out of range.
        match seen.get_mut((seq as usize).wrapping_sub(1)) {
            None => return Err(format!("seq {seq} out of range")),
            Some(true) => return Err(format!("seq {seq} recorded twice")),
            Some(seen) => *seen = true,
        }
    }
    match seen.iter().position(|&seen| !seen) {
        Some(i) => Err(format!("seq {} missing from joblog", i + 1)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_owner_table_takes_four_bytes_per_task() {
        assert_eq!(std::mem::size_of::<Owner>(), 4);
        assert!(Owner(0).on_agent() && Owner(Owner::RECORDED.0 - 1).on_agent());
        assert!(!Owner::RECORDED.on_agent() && !Owner::UNPLACED.on_agent());
    }
}
