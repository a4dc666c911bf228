//! Seeded schedules against the Listing-1 driver's policy
//! (`htpar_cluster::drive::DrivePolicy`), the code `htpar drive` and the
//! fault simulator both place, record and re-place tasks through.
//!
//! Each schedule drives the policy the way `htpar_net::driver` does, over
//! 1–16 model agents and up to 2,000 tasks, flat lists and random graphs
//! (edges point backwards, as in `dag_props`), some resumed from an
//! earlier joblog. It mixes placements, ok and failed completions in any
//! order, agent losses (also between two targets of one placement, the
//! nested re-placement `fleet_e2e` drives with real sockets) and late
//! completions from lost agents, which arrive after their work was
//! placed again. Every schedule must hold:
//!
//! - every seq is recorded exactly once, and no resumed seq at all;
//! - nothing is placed on an agent after its loss;
//! - every unrecorded seq of a lost agent lands on a survivor;
//! - a graph task is placed only after its dependencies succeeded, and
//!   records come dependencies first.
//!
//! 10,000 schedules in release (CI runs it there); a debug build runs
//! the first 1,000.

use std::collections::HashSet;

use htpar_cluster::DrivePolicy;
use htpar_core::dag::{Dag, DagSpec};
use htpar_simkit::{stream_rng, SimRng};
use rand::Rng;

/// A random acyclic graph: node `i` depends on up to three of the 64
/// nodes before it.
fn random_dag(rng: &mut SimRng, n: usize) -> Dag {
    let mut spec = DagSpec::new();
    for i in 0..n {
        let mut deps: Vec<usize> = (0..rng.gen_range(0..=3usize))
            .filter(|_| i > 0)
            .map(|_| rng.gen_range(i.saturating_sub(64)..i))
            .collect();
        deps.sort_unstable();
        deps.dedup();
        let deps = deps.iter().map(|d| format!("t{d}")).collect();
        spec.task(format!("t{i}"), format!("cmd {i}"), deps)
            .unwrap();
    }
    spec.build().unwrap()
}

/// The driver around the policy, with model agents for sockets: each
/// agent's queue holds the seqs sent to it that it has not finished.
struct Drive<'a> {
    policy: DrivePolicy,
    dag: Option<&'a Dag>,
    rng: SimRng,
    alive: Vec<bool>,
    queue: Vec<Vec<u64>>,
    /// Completions that lost agents made and that arrive late.
    late: Vec<u64>,
    fail_rate: f64,
    loss_rate: f64,
    /// The oracle: per agent the seqs placed on it, and per seq its
    /// holder, its records, and whether it succeeded.
    placed_on: Vec<Vec<u64>>,
    holder: Vec<Option<usize>>,
    records: Vec<u32>,
    succeeded: Vec<bool>,
    /// Seqs in record order, condemned ones included.
    order: Vec<u64>,
}

impl Drive<'_> {
    /// `htpar_net::driver::Drive::place`: split over the alive agents,
    /// then send each target its shard; a target may be lost after
    /// taking it, and any agent between two targets.
    fn place(&mut self, seqs: &[u64]) {
        if seqs.is_empty() {
            return;
        }
        let survivors: Vec<usize> = (0..self.alive.len()).filter(|&i| self.alive[i]).collect();
        let shards = self.policy.place(seqs, &survivors);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), seqs.len());
        for (shard, &target) in shards.iter().zip(&survivors) {
            for &seq in shard {
                self.check_ready(seq);
                self.holder[seq as usize - 1] = Some(target);
            }
            self.placed_on[target].extend_from_slice(shard);
        }
        for (shard, &target) in shards.iter().zip(&survivors) {
            // A loss nested in this loop took the target's shard back
            // and placed it on who is left.
            if shard.is_empty() || !self.alive[target] {
                continue;
            }
            self.queue[target].extend_from_slice(shard);
            if self.rng.gen_bool(self.loss_rate) {
                let victim = if self.rng.gen_bool(0.5) {
                    target
                } else {
                    self.rng.gen_range(0..self.alive.len())
                };
                self.lose(victim);
            }
        }
    }

    /// A graph task goes out only once every dependency succeeded.
    fn check_ready(&self, seq: u64) {
        if let Some(dag) = self.dag {
            for &d in &dag.node(seq as usize - 1).deps {
                assert!(
                    self.succeeded[d as usize],
                    "seq {seq} placed before dep {}",
                    d + 1
                );
            }
        }
    }

    /// `htpar_net::driver::Drive::handle_loss`, keeping one agent alive.
    fn lose(&mut self, agent: usize) {
        let alive = self.alive.iter().filter(|&&a| a).count();
        if !self.alive[agent] || alive == 1 {
            return;
        }
        self.alive[agent] = false;
        // Some of what it held had run, and those results come late.
        for seq in std::mem::take(&mut self.queue[agent]) {
            if self.rng.gen_bool(0.3) {
                self.late.push(seq);
            }
        }
        let want: Vec<u64> = std::mem::take(&mut self.placed_on[agent])
            .into_iter()
            .filter(|&seq| {
                self.records[seq as usize - 1] == 0 && self.holder[seq as usize - 1] == Some(agent)
            })
            .collect();
        let lost = self.policy.take_lost(agent);
        assert_eq!(
            lost, want,
            "agent {agent}'s unrecorded seqs, in placement order"
        );
        assert!(self.policy.placed(agent).is_empty());
        self.place(&lost);
        for &seq in &lost {
            if self.records[seq as usize - 1] == 0 {
                let holder = self.holder[seq as usize - 1].expect("placed");
                assert!(
                    self.alive[holder],
                    "seq {seq} of lost agent {agent} is on lost agent {holder}"
                );
            }
        }
    }

    /// One completion, as the driver's dispatch loop takes it.
    fn complete(&mut self, seq: u64) {
        let ok = !self.rng.gen_bool(self.fail_rate);
        let Some(comp) = self.policy.record(seq, ok) else {
            assert!(
                self.records[seq as usize - 1] > 0,
                "seq {seq} refused unrecorded"
            );
            return;
        };
        let (skipped, release) = (comp.newly_skipped.clone(), comp.newly_ready.clone());
        self.records[seq as usize - 1] += 1;
        self.succeeded[seq as usize - 1] = ok;
        self.order.push(seq);
        for seq in skipped {
            self.records[seq as usize - 1] += 1;
            self.order.push(seq);
        }
        self.place(&release);
    }

    /// Run the schedule until every task is recorded.
    fn run(&mut self, first: &[u64]) {
        self.place(first);
        while self.policy.unrecorded() > 0 {
            let roll: f64 = self.rng.gen();
            if roll < 0.05 && !self.late.is_empty() {
                let at = self.rng.gen_range(0..self.late.len());
                let seq = self.late.swap_remove(at);
                self.complete(seq);
                continue;
            }
            if roll < 0.05 + self.loss_rate {
                let agent = self.rng.gen_range(0..self.alive.len());
                self.lose(agent);
                continue;
            }
            let agents = self.alive.len();
            let start = self.rng.gen_range(0..agents);
            let Some(agent) = (0..agents)
                .map(|k| (start + k) % agents)
                .find(|&a| self.alive[a] && !self.queue[a].is_empty())
            else {
                assert!(
                    !self.late.is_empty(),
                    "{} seqs unrecorded and none held",
                    self.policy.unrecorded()
                );
                continue;
            };
            // Any of its tasks may finish first.
            let at = self.rng.gen_range(0..self.queue[agent].len());
            let seq = self.queue[agent].swap_remove(at);
            self.complete(seq);
        }
    }
}

fn run_schedule(seed: u64) {
    let mut rng = stream_rng(seed, 0);
    let agents = rng.gen_range(1..=16usize);
    let total = if rng.gen_bool(0.5) {
        rng.gen_range(1..=64u64)
    } else {
        rng.gen_range(1..=2_000u64)
    };
    let dag = rng
        .gen_bool(0.5)
        .then(|| random_dag(&mut rng, total as usize));
    let resumed: HashSet<u64> = if rng.gen_bool(0.2) {
        (1..=total).filter(|_| rng.gen_bool(0.3)).collect()
    } else {
        HashSet::new()
    };
    let fail_rate = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
    let loss_rate = [0.0, 0.002, 0.02][rng.gen_range(0..3usize)];

    let (policy, first) = DrivePolicy::new(total, agents, dag.as_ref(), &resumed);
    let n = total as usize;
    let mut drive = Drive {
        policy,
        dag: dag.as_ref(),
        rng,
        alive: vec![true; agents],
        queue: vec![Vec::new(); agents],
        late: Vec::new(),
        fail_rate,
        loss_rate,
        placed_on: vec![Vec::new(); agents],
        holder: vec![None; n],
        records: vec![0; n],
        succeeded: (1..=total).map(|seq| resumed.contains(&seq)).collect(),
        order: Vec::new(),
    };
    drive.run(&first);

    for seq in 1..=total {
        let want = u32::from(!resumed.contains(&seq));
        assert_eq!(
            drive.records[seq as usize - 1],
            want,
            "seed {seed}: records of seq {seq}"
        );
    }
    if let Some(dag) = &dag {
        let mut at = vec![0usize; n];
        for (pos, &seq) in drive.order.iter().enumerate() {
            at[seq as usize - 1] = pos + 1;
        }
        for (i, node) in dag.nodes().iter().enumerate() {
            for &d in &node.deps {
                let d = d as usize;
                let first = resumed.contains(&(d as u64 + 1)) || at[d] < at[i];
                assert!(
                    first || resumed.contains(&(i as u64 + 1)),
                    "seed {seed}: seq {} recorded before its dep {}",
                    i + 1,
                    d + 1
                );
            }
        }
    }
}

#[test]
fn seeded_schedules_hold_the_drive_invariants() {
    let schedules = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    for seed in 0..schedules {
        run_schedule(seed);
    }
}
