//! Property tests for the pilot-service grant schedulers
//! (`htpar_core::sched`), run in isolation from any I/O over a model of
//! the pilot's per-tenant queues.
//!
//! Each test drives a scheduler with a pseudo-random op stream decoded
//! from proptest-generated words and checks the invariants the pilot
//! relies on:
//!
//! - grants: a grant takes 1 to `budget` tasks of a tenant that holds
//!   them, and `grant` returns `None` only when every queue is empty,
//!   including after purges the policy was never told about;
//! - a grant reads the queues of backlogged tenants only, so idle
//!   tenants cost it nothing;
//! - FIFO: the grant stream replays the global arrival order exactly,
//!   with requeued work at its head;
//! - fair share: no backlogged tenant waits more than one ring rotation
//!   (starvation bound), long-run shares converge to the weights, and a
//!   tenant left alone is served in full rather than by its deficit;
//! - priority: every grant goes to the highest backlogged level, also
//!   after a backlogged tenant's priority changes, and same-level peers
//!   round-robin (bounded wait within a level).

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};

use htpar_core::sched::{FairShare, Fifo, Grant, Priority, Queues, SchedPolicy, Scheduler};
use proptest::prelude::*;

/// The pilot's queues: each tenant's queued tasks by arrival stamp,
/// oldest first, and how many of its granted tasks are still out on
/// agents. Admissions stamp upwards from `next` and requeues downwards
/// from `head`, so requeued work is older than all admitted work, as in
/// the pilot.
struct Queued {
    queues: Vec<VecDeque<u64>>,
    out: Vec<u64>,
    next: u64,
    head: u64,
}

impl Queues for Queued {
    fn depth(&self, tenant: usize) -> u64 {
        self.queues[tenant].len() as u64
    }

    fn stamp(&self, tenant: usize, i: u64) -> u64 {
        self.queues[tenant][i as usize]
    }
}

impl Queued {
    fn new(tenants: usize) -> Queued {
        Queued {
            queues: vec![VecDeque::new(); tenants],
            out: vec![0; tenants],
            next: 1 << 32,
            head: 1 << 32,
        }
    }

    /// Admit `n` tasks at the tail of the tenant's queue.
    fn push(&mut self, s: &mut dyn Scheduler, tenant: usize, n: u64) {
        if self.queues[tenant].is_empty() {
            s.backlogged(tenant);
        }
        self.queues[tenant].extend(self.next..self.next + n);
        self.next += n;
    }

    /// Bring back up to `n` of the tenant's granted tasks (their agent
    /// was lost) at the head of its queue.
    fn requeue(&mut self, s: &mut dyn Scheduler, tenant: usize, n: u64) {
        for _ in 0..n.min(self.out[tenant]) {
            if self.queues[tenant].is_empty() {
                s.backlogged(tenant);
            }
            self.out[tenant] -= 1;
            self.head -= 1;
            self.queues[tenant].push_front(self.head);
        }
    }

    /// Remove up to `n` queued tasks from `at` onwards (a closed
    /// session's), without telling the policy.
    fn purge(&mut self, tenant: usize, at: usize, n: u64) {
        let q = &mut self.queues[tenant];
        let at = at % (q.len() + 1);
        let end = (at + n as usize).min(q.len());
        q.drain(at..end);
    }

    /// Take a grant's tasks off the head of its tenant's queue.
    fn take(&mut self, g: Grant) {
        self.queues[g.tenant].drain(..g.n as usize);
        self.out[g.tenant] += g.n;
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// What a FIFO grant of `budget` must be: the oldest queued task's
    /// tenant, and that tenant's tasks older than every other tenant's.
    fn oldest_run(&self, budget: u64) -> Option<Grant> {
        let mut all: Vec<(u64, usize)> = (0..self.queues.len())
            .flat_map(|t| self.queues[t].iter().map(move |&stamp| (stamp, t)))
            .collect();
        all.sort_unstable();
        let tenant = all.first()?.1;
        let run = all.iter().take_while(|&&(_, t)| t == tenant).count() as u64;
        Some(Grant {
            tenant,
            n: run.min(budget),
        })
    }
}

/// Queue depths alone, for backlogs too deep to hold stamps: fair share
/// and priority read no stamps.
struct Depths(Vec<u64>);

impl Queues for Depths {
    fn depth(&self, tenant: usize) -> u64 {
        self.0[tenant]
    }

    fn stamp(&self, _tenant: usize, _i: u64) -> u64 {
        unreachable!("fair share and priority read no stamps")
    }
}

impl Depths {
    /// One grant of `budget`, its tasks taken.
    fn grant(&mut self, s: &mut dyn Scheduler, budget: u64) -> Option<Grant> {
        let g = s.grant(self, budget)?;
        self.0[g.tenant] -= g.n;
        Some(g)
    }
}

/// A view that records whose queues a grant read.
struct Counting<'a>(&'a Queued, RefCell<BTreeSet<usize>>);

impl Queues for Counting<'_> {
    fn depth(&self, tenant: usize) -> u64 {
        self.1.borrow_mut().insert(tenant);
        self.0.depth(tenant)
    }

    fn stamp(&self, tenant: usize, i: u64) -> u64 {
        self.1.borrow_mut().insert(tenant);
        self.0.stamp(tenant, i)
    }
}

/// Decoded op over the queues (grants are driven by each property so it
/// can assert around them).
#[derive(Debug, Clone, Copy)]
enum Op {
    Enqueue { tenant: usize, n: u64 },
    Requeue { tenant: usize, n: u64 },
    Purge { tenant: usize, at: usize, n: u64 },
    Grant { budget: u64 },
}

/// Decode one generated word into an op over `tenants` tenants.
fn decode_op(word: u64, tenants: usize) -> Op {
    let tenant = ((word >> 8) as usize) % tenants;
    let n = ((word >> 32) % 50) + 1;
    match word % 6 {
        0 | 1 => Op::Enqueue { tenant, n },
        2 => Op::Requeue { tenant, n },
        3 => Op::Purge {
            tenant,
            at: (word >> 16) as usize % 64,
            n,
        },
        _ => Op::Grant {
            budget: (word >> 16) % 32 + 1,
        },
    }
}

/// Apply a non-grant op to the queues; returns the budget of a grant op.
fn apply(q: &mut Queued, s: &mut dyn Scheduler, op: Op) -> Option<u64> {
    match op {
        Op::Enqueue { tenant, n } => q.push(s, tenant, n),
        Op::Requeue { tenant, n } => q.requeue(s, tenant, n),
        Op::Purge { tenant, at, n } => q.purge(tenant, at, n),
        Op::Grant { budget } => return Some(budget),
    }
    None
}

/// Run an op stream against a scheduler over the queue model, checking
/// every grant against the queues it was made from.
fn check_grants(s: &mut dyn Scheduler, ops: &[u64], tenants: usize) -> Result<(), String> {
    let mut q = Queued::new(tenants);
    for t in 0..tenants {
        s.set_tenant(t, (t as u32 % 5) + 1, t as u32 % 3);
    }
    for &word in ops {
        let Some(budget) = apply(&mut q, s, decode_op(word, tenants)) else {
            continue;
        };
        match s.grant(&q, budget) {
            Some(g) => {
                if g.n == 0 || g.n > budget {
                    return Err(format!("grant budget {budget} gave n={}", g.n));
                }
                if g.n > q.depth(g.tenant) {
                    return Err(format!(
                        "granted {} from tenant {} holding {}",
                        g.n,
                        g.tenant,
                        q.depth(g.tenant)
                    ));
                }
                q.take(g);
            }
            None if !q.is_empty() => return Err("grant returned None with backlog present".into()),
            None => {}
        }
    }
    Ok(())
}

proptest! {
    /// All three policies grant only queued work, within the budget,
    /// and find every backlog, under arbitrary interleavings of
    /// admissions, requeues, purges and grants.
    #[test]
    fn accounting_matches_reference_model(
        ops in proptest::collection::vec(any::<u64>(), 50..400),
        tenants in 1usize..7,
    ) {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Fair, SchedPolicy::Priority] {
            if let Err(e) = check_grants(&mut *policy.build(), &ops, tenants) {
                prop_assert!(false, "{policy:?}: {e}");
            }
        }
    }

    /// A grant reads the queues of tenants with work only: tenants the
    /// pilot has registered but that never queued anything are not read.
    #[test]
    fn a_grant_reads_only_backlogged_queues(
        ops in proptest::collection::vec(any::<u64>(), 50..300),
        busy in 1usize..5,
        idle in 1usize..40,
    ) {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Fair, SchedPolicy::Priority] {
            let s = &mut *policy.build();
            let mut q = Queued::new(busy + idle);
            for t in 0..busy + idle {
                s.set_tenant(t, 1, t as u32 % 3);
            }
            let mut seen = BTreeSet::new();
            for &word in &ops {
                let op = decode_op(word, busy);
                if let Op::Enqueue { tenant, .. } = op {
                    seen.insert(tenant);
                }
                let Some(budget) = apply(&mut q, s, op) else {
                    continue;
                };
                let view = Counting(&q, RefCell::default());
                let g = s.grant(&view, budget);
                let read = view.1.into_inner();
                prop_assert!(
                    read.is_subset(&seen),
                    "{policy:?} read {read:?}; only {seen:?} ever queued work"
                );
                if let Some(g) = g {
                    q.take(g);
                }
            }
        }
    }

    /// FIFO grants replay the exact global arrival order, requeued work
    /// first: each grant is the oldest queued task's tenant and every
    /// task of it older than all other tenants' queued work, up to the
    /// budget, also after purges the policy was never told about.
    /// Expanding the grant stream gives the arrival stream.
    #[test]
    fn fifo_grant_stream_replays_arrivals(
        ops in proptest::collection::vec(any::<u64>(), 1..200),
        tenants in 1usize..6,
    ) {
        let s = &mut Fifo::new();
        let mut q = Queued::new(tenants);
        for t in 0..tenants {
            s.set_tenant(t, 1, 0);
        }
        for &word in &ops {
            if let Some(budget) = apply(&mut q, s, decode_op(word, tenants)) {
                let want = q.oldest_run(budget);
                let got = s.grant(&q, budget);
                prop_assert_eq!(got, want);
                if let Some(g) = got {
                    q.take(g);
                }
            }
        }
        while let Some(want) = q.oldest_run(7) {
            let got = s.grant(&q, 7);
            prop_assert_eq!(got, Some(want));
            q.take(want);
        }
        prop_assert_eq!(s.grant(&q, 7), None);
    }

    /// Fair share never starves: while every tenant stays backlogged,
    /// each is served at least once in any window of `tenants`
    /// consecutive grants (one ring rotation).
    #[test]
    fn fair_share_starvation_bound(
        weights in proptest::collection::vec(1u32..9, 2..7),
        budgets in proptest::collection::vec(1u64..64, 1..20),
        rounds in 20usize..200,
    ) {
        let tenants = weights.len();
        let s = &mut FairShare::new();
        let mut q = Depths(vec![1 << 40; tenants]); // effectively infinite
        for (t, &w) in weights.iter().enumerate() {
            s.set_tenant(t, w, 0);
            s.backlogged(t);
        }
        let mut since_served = vec![0usize; tenants];
        for i in 0..rounds {
            let g = q.grant(s, budgets[i % budgets.len()]).expect("backlogged");
            for (t, waited) in since_served.iter_mut().enumerate() {
                if t == g.tenant {
                    *waited = 0;
                } else {
                    *waited += 1;
                    prop_assert!(
                        *waited < tenants,
                        "tenant {t} (weight {}) starved for {waited} grants with {tenants} active",
                        weights[t]
                    );
                }
            }
        }
    }

    /// With everyone permanently backlogged and a budget at least the
    /// largest quantum, long-run grant shares converge to the weights.
    #[test]
    fn fair_share_converges_to_weights(
        weights in proptest::collection::vec(1u32..9, 2..6),
    ) {
        let tenants = weights.len();
        let s = &mut FairShare::new();
        let mut q = Depths(vec![1 << 40; tenants]);
        for (t, &w) in weights.iter().enumerate() {
            s.set_tenant(t, w, 0);
            s.backlogged(t);
        }
        let mut served = vec![0u64; tenants];
        // Enough rotations that per-rotation rounding noise washes out.
        for _ in 0..tenants * 2_000 {
            let g = q.grant(s, 64).expect("backlogged");
            served[g.tenant] += g.n;
        }
        let total: u64 = served.iter().sum();
        let weight_sum: u32 = weights.iter().sum();
        for (t, &w) in weights.iter().enumerate() {
            let share = served[t] as f64 / total as f64;
            let want = f64::from(w) / f64::from(weight_sum);
            prop_assert!(
                (share - want).abs() / want < 0.10,
                "tenant {t}: share {share:.4} vs weight share {want:.4} (weights {weights:?})"
            );
        }
    }

    /// Once a grant drains one of two backlogged fair-share tenants,
    /// the other has no competitor: its next grant is the whole budget
    /// or its whole queue, not its deficit.
    #[test]
    fn fair_share_serves_a_lone_tenant_in_full(
        weights in proptest::collection::vec(1u32..9, 2),
        depths in proptest::collection::vec(1u64..200, 2),
        budget in 1u64..64,
    ) {
        let s = &mut FairShare::new();
        let mut q = Depths(depths);
        for (t, &w) in weights.iter().enumerate() {
            s.set_tenant(t, w, 0);
            s.backlogged(t);
        }
        loop {
            let before = q.0.clone();
            let g = q.grant(s, budget).expect("backlogged");
            if q.0[g.tenant] == 0 {
                let other = 1 - g.tenant;
                prop_assert_eq!(before[other], q.0[other]);
                let next = q.grant(s, budget).expect("the other is backlogged");
                prop_assert_eq!(next, Grant { tenant: other, n: before[other].min(budget) });
                break;
            }
        }
    }

    /// Strict priority: every grant goes to a tenant whose priority is
    /// the maximum among currently-backlogged tenants, including right
    /// after high-priority work arrives mid-stream (preemption at grant
    /// granularity) and after a backlogged tenant's priority changes
    /// (the pilot re-sends it with every `Submit`).
    #[test]
    fn priority_grants_track_highest_backlogged_level(
        prios in proptest::collection::vec(0u32..5, 2..7),
        ops in proptest::collection::vec(any::<u64>(), 30..250),
    ) {
        let mut prios = prios;
        let tenants = prios.len();
        let s = &mut Priority::new();
        let mut q = Queued::new(tenants);
        for (t, &p) in prios.iter().enumerate() {
            s.set_tenant(t, 1, p);
        }
        for &word in &ops {
            let op = decode_op(word, tenants);
            if let Op::Enqueue { tenant, .. } = op {
                if word & (1 << 20) != 0 {
                    prios[tenant] = (word >> 24) as u32 % 5;
                }
                s.set_tenant(tenant, 1, prios[tenant]);
            }
            let Some(budget) = apply(&mut q, s, op) else {
                continue;
            };
            let top = (0..tenants)
                .filter(|&t| q.depth(t) > 0)
                .map(|t| prios[t])
                .max();
            if let Some(g) = s.grant(&q, budget) {
                prop_assert_eq!(
                    Some(prios[g.tenant]),
                    top,
                    "granted tenant {} (prio {}) while level {:?} backlogged",
                    g.tenant,
                    prios[g.tenant],
                    top
                );
                q.take(g);
            } else {
                prop_assert!(top.is_none());
            }
        }
    }

    /// Within one priority level, peers round-robin: with all peers of
    /// the top level permanently backlogged, each is served within one
    /// rotation of that level's ring.
    #[test]
    fn priority_round_robins_within_a_level(
        peers in 2usize..6,
        rounds in 10usize..100,
        budgets in proptest::collection::vec(1u64..32, 1..10),
    ) {
        let s = &mut Priority::new();
        let mut q = Depths(vec![1 << 40; peers]);
        for t in 0..peers {
            s.set_tenant(t, 1, 3);
            s.backlogged(t);
        }
        // A lower-priority bystander that must never be served.
        q.0.push(1_000);
        s.set_tenant(peers, 1, 0);
        s.backlogged(peers);
        let mut since_served = vec![0usize; peers];
        for i in 0..rounds {
            let g = q.grant(s, budgets[i % budgets.len()]).expect("backlogged");
            prop_assert!(g.tenant < peers, "low-priority tenant served past backlogged level");
            for (t, waited) in since_served.iter_mut().enumerate() {
                if t == g.tenant {
                    *waited = 0;
                } else {
                    *waited += 1;
                    prop_assert!(*waited < peers, "peer {t} starved within its level");
                }
            }
        }
    }
}
