//! Seeded schedules against the Listing-1 driver's policy
//! (`htpar_cluster::drive::DrivePolicy`), the code `htpar drive` and the
//! fault simulator both place, record and re-place tasks through.
//!
//! Each schedule runs the policy's own placement loop over 1–16 model
//! agents and up to 2,000 tasks, flat lists and random graphs (edges
//! point backwards, as in `dag_props`), some resumed from an earlier
//! joblog. It mixes placements, ok and failed completions in any order,
//! agent losses (also of a target taking its shard, which nests a
//! re-placement inside a placement, as `fleet_e2e` drives with real
//! sockets) and late completions from lost agents, which arrive after
//! their work was placed again. Every schedule must hold:
//!
//! - every seq is recorded exactly once, and no resumed seq at all;
//! - nothing is handed to an agent after its loss, and no recorded seq
//!   is handed out again;
//! - a lost agent gives back exactly its unrecorded seqs, and each of
//!   them lands on a survivor;
//! - a graph task is placed only after its dependencies succeeded, and
//!   records come dependencies first.
//!
//! 10,000 schedules in release (CI runs it there); a debug build runs
//! the first 1,000.

use std::collections::HashSet;

use htpar_cluster::drive::{Agents, DrivePolicy};
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

/// Model agents behind the policy's [`Agents`]: each agent's queue holds
/// the seqs handed to it that it has not finished.
struct Model<'a> {
    dag: Option<&'a Dag>,
    rng: SimRng,
    alive: Vec<bool>,
    queue: Vec<Vec<u64>>,
    /// Completions that lost agents made and that arrive late.
    late: Vec<u64>,
    loss_rate: f64,
    /// The oracle: per seq the agent it was last handed to, its records,
    /// and whether it succeeded; and the seqs lost agents gave back,
    /// each of which must be recorded or on a survivor once the
    /// policy's call returns.
    holder: Vec<Option<usize>>,
    records: Vec<u32>,
    succeeded: Vec<bool>,
    given_back: Vec<u64>,
    /// Seqs in record order, condemned ones included.
    order: Vec<u64>,
}

impl Model<'_> {
    /// Lose `agent`, keeping one agent alive. Some of what it held had
    /// run, and those results come late.
    fn kill(&mut self, agent: usize) -> bool {
        let alive = self.alive.iter().filter(|&&a| a).count();
        if !self.alive[agent] || alive == 1 {
            return false;
        }
        self.alive[agent] = false;
        for seq in std::mem::take(&mut self.queue[agent]) {
            if self.rng.gen_bool(0.3) {
                self.late.push(seq);
            }
        }
        true
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

    /// Every seq a lost agent gave back is recorded or on a survivor.
    fn check_given_back(&mut self) {
        for seq in self.given_back.drain(..) {
            if self.records[seq as usize - 1] == 0 {
                let holder = self.holder[seq as usize - 1].expect("handed out");
                assert!(self.alive[holder], "seq {seq} is on lost agent {holder}");
            }
        }
    }
}

impl Agents for Model<'_> {
    fn is_alive(&self, agent: usize) -> bool {
        self.alive[agent]
    }

    fn hand_over(&mut self, agent: usize, shard: &[u64], from: Option<usize>) -> bool {
        assert!(self.alive[agent], "a shard handed to lost agent {agent}");
        assert!(from.is_none_or(|from| !self.alive[from]));
        for &seq in shard {
            self.check_ready(seq);
            assert_eq!(
                self.records[seq as usize - 1],
                0,
                "seq {seq} handed out again"
            );
            self.holder[seq as usize - 1] = Some(agent);
        }
        self.queue[agent].extend_from_slice(shard);
        // The agent may be lost taking it.
        !(self.rng.gen_bool(self.loss_rate) && self.kill(agent))
    }

    fn lost(&mut self, agent: usize, seqs: &[u64]) {
        assert!(!self.alive[agent]);
        // Its unrecorded seqs: each once, none recorded, none on a
        // survivor (a seq never handed out yet is on none), and every
        // seq handed to it that is still unrecorded.
        let mut gave: Vec<u64> = seqs.to_vec();
        gave.sort_unstable();
        gave.dedup();
        assert_eq!(
            gave.len(),
            seqs.len(),
            "agent {agent} gave a seq back twice"
        );
        for &seq in seqs {
            assert_eq!(
                self.records[seq as usize - 1],
                0,
                "agent {agent} gave back recorded seq {seq}"
            );
            let holder = self.holder[seq as usize - 1];
            assert!(
                holder.is_none_or(|h| !self.alive[h]),
                "seq {seq} is on agent {holder:?}"
            );
        }
        for seq in 1..=self.records.len() as u64 {
            let i = seq as usize - 1;
            if self.records[i] == 0 && self.holder[i] == Some(agent) {
                assert!(
                    gave.binary_search(&seq).is_ok(),
                    "agent {agent} kept seq {seq}"
                );
            }
        }
        self.given_back.extend_from_slice(seqs);
    }
}

/// The driver's dispatch loop around the policy.
struct Drive<'a> {
    policy: DrivePolicy,
    model: Model<'a>,
    fail_rate: f64,
}

impl Drive<'_> {
    fn place(&mut self, seqs: &[u64]) {
        self.policy
            .place(seqs, &mut self.model)
            .expect("an agent is alive");
        self.model.check_given_back();
    }

    /// An agent lost outside any placement (a lease expiry, a hangup).
    fn lose(&mut self, agent: usize) {
        if !self.model.kill(agent) {
            return;
        }
        self.policy
            .lose(agent, &mut self.model)
            .expect("an agent is alive");
        assert!(self.policy.placed(agent).is_empty());
        self.model.check_given_back();
    }

    /// One completion, as the driver's dispatch loop takes it.
    fn complete(&mut self, seq: u64) {
        let ok = !self.model.rng.gen_bool(self.fail_rate);
        let model = &mut self.model;
        let Some(comp) = self.policy.record(seq, ok) else {
            assert!(
                model.records[seq as usize - 1] > 0,
                "seq {seq} refused unrecorded"
            );
            return;
        };
        let (skipped, release) = (comp.newly_skipped.clone(), comp.newly_ready.clone());
        model.records[seq as usize - 1] += 1;
        model.succeeded[seq as usize - 1] = ok;
        model.order.push(seq);
        for seq in skipped {
            model.records[seq as usize - 1] += 1;
            model.order.push(seq);
        }
        self.place(&release);
    }

    /// Run the schedule until every task is recorded.
    fn run(&mut self, first: &[u64]) {
        self.place(first);
        while self.policy.unrecorded() > 0 {
            let roll: f64 = self.model.rng.gen();
            if roll < 0.05 && !self.model.late.is_empty() {
                let at = self.model.rng.gen_range(0..self.model.late.len());
                let seq = self.model.late.swap_remove(at);
                self.complete(seq);
                continue;
            }
            let agents = self.model.alive.len();
            if roll < 0.05 + self.model.loss_rate {
                let agent = self.model.rng.gen_range(0..agents);
                self.lose(agent);
                continue;
            }
            let start = self.model.rng.gen_range(0..agents);
            let Some(agent) = (0..agents)
                .map(|k| (start + k) % agents)
                .find(|&a| self.model.alive[a] && !self.model.queue[a].is_empty())
            else {
                assert!(
                    !self.model.late.is_empty(),
                    "{} seqs unrecorded and none held",
                    self.policy.unrecorded()
                );
                continue;
            };
            // Any of its tasks may finish first.
            let at = self.model.rng.gen_range(0..self.model.queue[agent].len());
            let seq = self.model.queue[agent].swap_remove(at);
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
        model: Model {
            dag: dag.as_ref(),
            rng,
            alive: vec![true; agents],
            queue: vec![Vec::new(); agents],
            late: Vec::new(),
            loss_rate,
            holder: vec![None; n],
            records: vec![0; n],
            succeeded: (1..=total).map(|seq| resumed.contains(&seq)).collect(),
            given_back: Vec::new(),
            order: Vec::new(),
        },
        fail_rate,
    };
    drive.run(&first);
    let model = drive.model;

    for seq in 1..=total {
        let want = u32::from(!resumed.contains(&seq));
        assert_eq!(
            model.records[seq as usize - 1],
            want,
            "seed {seed}: records of seq {seq}"
        );
    }
    if let Some(dag) = &dag {
        let mut at = vec![0usize; n];
        for (pos, &seq) in model.order.iter().enumerate() {
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
