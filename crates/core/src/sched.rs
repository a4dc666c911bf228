//! Multi-tenant grant schedulers for the pilot service.
//!
//! The pilot (`htpar serve`, DESIGN.md §13) multiplexes many tenants
//! onto one shared agent slot pool. Its per-tenant task queues are the
//! only record of queued work, and a scheduler is a policy over them:
//! it hears when a tenant's queue goes from empty to non-empty
//! ([`Scheduler::backlogged`]) and, asked for a grant, reads the queues
//! of the tenants it holds as backlogged through a [`Queues`] view and
//! answers `(tenant, count)`: take that many tasks from the head of that
//! tenant's queue. A tenant that sits idle costs a grant nothing. The
//! policies do no I/O and read no clocks, so the property suite
//! (`tests/scheduler_props.rs`) can drive them over a model of the
//! pilot's queues through millions of grants.
//!
//! Three policies ship:
//! - [`Fifo`] — one global arrival order across tenants, read from the
//!   arrival stamps of the queued tasks.
//! - [`FairShare`] — weighted deficit round robin: each visit credits a
//!   tenant `weight × quantum` and serves up to its accumulated
//!   deficit, so long-run grant shares converge to the weight vector
//!   while every backlogged tenant is served within one ring rotation.
//! - [`Priority`] — strict priority with round robin inside a level: a
//!   grant always goes to a backlogged tenant of the highest backlogged
//!   priority.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Dense tenant index assigned by the caller (the pilot maps tenant
/// names to indices in first-seen order).
pub type TenantId = usize;

/// One scheduling decision: serve `n` queued units of `tenant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    pub tenant: TenantId,
    pub n: u64,
}

/// The caller's per-tenant queues, as a grant reads them.
pub trait Queues {
    /// Tasks queued for `tenant`.
    fn depth(&self, tenant: TenantId) -> u64;

    /// Arrival stamp of `tenant`'s queued task `i`, counting from the
    /// head. Stamps are unique, rise from head to tail, and order
    /// arrivals across tenants.
    fn stamp(&self, tenant: TenantId, i: u64) -> u64;
}

/// A grant policy over the caller's per-tenant queues.
pub trait Scheduler: Send {
    /// Register a tenant or update its weight/priority. Must be called
    /// before the tenant's first [`Scheduler::backlogged`].
    fn set_tenant(&mut self, tenant: TenantId, weight: u32, priority: u32);

    /// The tenant's queue went from empty to non-empty.
    fn backlogged(&mut self, tenant: TenantId);

    /// Grant up to `budget` tasks from the head of one backlogged
    /// tenant's queue, or `None` when every queue is empty (or the
    /// budget is zero). The caller takes exactly `n` tasks off that
    /// queue before the next grant.
    fn grant(&mut self, queues: &dyn Queues, budget: u64) -> Option<Grant>;
}

/// Policy selector, as used by `htpar serve --scheduler`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    Fifo,
    #[default]
    Fair,
    Priority,
}

impl SchedPolicy {
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s {
            "fifo" => Some(SchedPolicy::Fifo),
            "fair" => Some(SchedPolicy::Fair),
            "priority" => Some(SchedPolicy::Priority),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Fair => "fair",
            SchedPolicy::Priority => "priority",
        }
    }

    /// Build a scheduler implementing this policy.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedPolicy::Fifo => Box::new(Fifo::new()),
            SchedPolicy::Fair => Box::new(FairShare::new()),
            SchedPolicy::Priority => Box::new(Priority::new()),
        }
    }
}

// ------------------------------------------------------------------ FIFO

/// Global arrival order: a grant serves the tenant holding the oldest
/// queued task, as many of its tasks as are older than every other
/// tenant's head, so grants replay the arrival order exactly.
#[derive(Default)]
pub struct Fifo {
    backlogged: BTreeSet<TenantId>,
}

impl Fifo {
    pub fn new() -> Fifo {
        Fifo::default()
    }
}

impl Scheduler for Fifo {
    fn set_tenant(&mut self, _tenant: TenantId, _weight: u32, _priority: u32) {}

    fn backlogged(&mut self, tenant: TenantId) {
        self.backlogged.insert(tenant);
    }

    fn grant(&mut self, queues: &dyn Queues, budget: u64) -> Option<Grant> {
        if budget == 0 {
            return None;
        }
        // Tenants a purge emptied since they joined.
        self.backlogged.retain(|&t| queues.depth(t) > 0);
        let heads = self.backlogged.iter().map(|&t| (queues.stamp(t, 0), t));
        let (_, tenant) = heads.clone().min()?;
        let next = heads
            .filter(|&(_, t)| t != tenant)
            .map(|(stamp, _)| stamp)
            .min()
            .unwrap_or(u64::MAX);
        let depth = queues.depth(tenant);
        let most = depth.min(budget);
        let n = (1..most)
            .find(|&i| queues.stamp(tenant, i) > next)
            .unwrap_or(most);
        if n == depth {
            self.backlogged.remove(&tenant);
        }
        Some(Grant { tenant, n })
    }
}

// ------------------------------------------------- Weighted fair share

/// Deficit round robin. Each backlogged tenant sits once in a ring; a
/// grant visits the ring head, credits it `weight × QUANTUM` deficit,
/// and serves `min(deficit, queued, budget)`. Because one visit always
/// serves at least one unit, no backlogged tenant waits more than one
/// full rotation; because credit is proportional to weight, long-run
/// shares converge to the weight vector.
#[derive(Default)]
pub struct FairShare {
    tenants: Vec<FairTenant>,
    ring: VecDeque<TenantId>,
}

#[derive(Clone, Default)]
struct FairTenant {
    weight: u32,
    deficit: u64,
    in_ring: bool,
}

/// Units of deficit credited per unit of weight per ring visit. 1 keeps
/// grants fine-grained (a weight-4 tenant gets 4-task grants), which is
/// what lets the fairness gate measure shares over short windows.
const FAIR_QUANTUM: u64 = 1;

impl FairShare {
    pub fn new() -> FairShare {
        FairShare::default()
    }
}

impl Scheduler for FairShare {
    fn set_tenant(&mut self, tenant: TenantId, weight: u32, _priority: u32) {
        if self.tenants.len() <= tenant {
            self.tenants.resize(tenant + 1, FairTenant::default());
        }
        self.tenants[tenant].weight = weight.max(1);
    }

    fn backlogged(&mut self, tenant: TenantId) {
        let t = &mut self.tenants[tenant];
        if !t.in_ring {
            t.in_ring = true;
            self.ring.push_back(tenant);
        }
    }

    fn grant(&mut self, queues: &dyn Queues, budget: u64) -> Option<Grant> {
        if budget == 0 {
            return None;
        }
        while let Some(tenant) = self.ring.pop_front() {
            let depth = queues.depth(tenant);
            let t = &mut self.tenants[tenant];
            if depth == 0 {
                // Emptied by a purge since it joined.
                t.in_ring = false;
                t.deficit = 0;
                continue;
            }
            t.deficit += t.weight as u64 * FAIR_QUANTUM;
            let n = if self.ring.is_empty() {
                // No competitors: deficit pacing only fragments grants,
                // so serve the whole budget.
                depth.min(budget)
            } else {
                t.deficit.min(depth).min(budget)
            };
            t.deficit = t.deficit.saturating_sub(n);
            if n < depth {
                self.ring.push_back(tenant);
            } else {
                t.in_ring = false;
                t.deficit = 0;
            }
            return Some(Grant { tenant, n });
        }
        None
    }
}

// ------------------------------------------------------ Strict priority

/// Strict priority with round robin inside a level: a grant always goes
/// to a backlogged tenant of the numerically highest backlogged
/// priority; ties rotate so same-priority peers share.
#[derive(Default)]
pub struct Priority {
    tenants: Vec<PrioTenant>,
    /// Ring of backlogged tenants per priority level; none is empty.
    levels: BTreeMap<u32, VecDeque<TenantId>>,
}

#[derive(Clone, Default)]
struct PrioTenant {
    priority: u32,
    in_ring: bool,
}

impl Priority {
    pub fn new() -> Priority {
        Priority::default()
    }
}

impl Scheduler for Priority {
    fn set_tenant(&mut self, tenant: TenantId, _weight: u32, priority: u32) {
        if self.tenants.len() <= tenant {
            self.tenants.resize(tenant + 1, PrioTenant::default());
        }
        let t = &mut self.tenants[tenant];
        let old = std::mem::replace(&mut t.priority, priority);
        if t.in_ring && old != priority {
            // Move to the new level's ring.
            let ring = self.levels.get_mut(&old).expect("a ringed tenant's level");
            ring.retain(|&id| id != tenant);
            if ring.is_empty() {
                self.levels.remove(&old);
            }
            self.levels.entry(priority).or_default().push_back(tenant);
        }
    }

    fn backlogged(&mut self, tenant: TenantId) {
        let t = &mut self.tenants[tenant];
        if !t.in_ring {
            t.in_ring = true;
            self.levels.entry(t.priority).or_default().push_back(tenant);
        }
    }

    fn grant(&mut self, queues: &dyn Queues, budget: u64) -> Option<Grant> {
        if budget == 0 {
            return None;
        }
        // Highest backlogged level wins; tenants a purge emptied leave
        // their ring as they surface.
        while let Some(mut level) = self.levels.last_entry() {
            let ring = level.get_mut();
            let tenant = ring.pop_front().expect("rings are never empty");
            let depth = queues.depth(tenant);
            let n = depth.min(budget);
            if n < depth {
                ring.push_back(tenant);
            } else {
                self.tenants[tenant].in_ring = false;
                if ring.is_empty() {
                    level.remove();
                }
            }
            if n > 0 {
                return Some(Grant { tenant, n });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pilot's queues: each tenant's queued arrival stamps, oldest
    /// first. Admissions count up from `next`; requeues count down from
    /// `head`, below every admission.
    struct Model {
        queues: Vec<VecDeque<u64>>,
        next: u64,
        head: u64,
    }

    impl Queues for Model {
        fn depth(&self, tenant: TenantId) -> u64 {
            self.queues[tenant].len() as u64
        }

        fn stamp(&self, tenant: TenantId, i: u64) -> u64 {
            self.queues[tenant][i as usize]
        }
    }

    impl Model {
        fn new(s: &mut dyn Scheduler, weights_prios: &[(u32, u32)]) -> Model {
            for (t, &(weight, priority)) in weights_prios.iter().enumerate() {
                s.set_tenant(t, weight, priority);
            }
            Model {
                queues: vec![VecDeque::new(); weights_prios.len()],
                next: 1 << 32,
                head: 1 << 32,
            }
        }

        fn push(&mut self, s: &mut dyn Scheduler, tenant: TenantId, n: u64) {
            if self.queues[tenant].is_empty() {
                s.backlogged(tenant);
            }
            self.queues[tenant].extend(self.next..self.next + n);
            self.next += n;
        }

        fn push_front(&mut self, s: &mut dyn Scheduler, tenant: TenantId, n: u64) {
            for _ in 0..n {
                if self.queues[tenant].is_empty() {
                    s.backlogged(tenant);
                }
                self.head -= 1;
                self.queues[tenant].push_front(self.head);
            }
        }

        /// Ask for a grant and take its tasks.
        fn grant(&mut self, s: &mut dyn Scheduler, budget: u64) -> Option<Grant> {
            let g = s.grant(self, budget)?;
            self.queues[g.tenant].drain(..g.n as usize);
            Some(g)
        }

        fn drain(&mut self, s: &mut dyn Scheduler, budget: u64) -> Vec<Grant> {
            std::iter::from_fn(|| self.grant(s, budget)).collect()
        }
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [SchedPolicy::Fifo, SchedPolicy::Fair, SchedPolicy::Priority] {
            assert_eq!(SchedPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(SchedPolicy::parse("rr"), None);
    }

    #[test]
    fn fifo_replays_arrival_order() {
        let s = &mut Fifo::new();
        let mut q = Model::new(s, &[(1, 0); 3]);
        q.push(s, 0, 5);
        q.push(s, 1, 3);
        q.push(s, 0, 2); // tenant 1 arrived in between
        assert_eq!(
            q.drain(s, 100),
            vec![
                Grant { tenant: 0, n: 5 },
                Grant { tenant: 1, n: 3 },
                Grant { tenant: 0, n: 2 },
            ]
        );
    }

    #[test]
    fn fifo_budget_splits_segments() {
        let s = &mut Fifo::new();
        let mut q = Model::new(s, &[(1, 0)]);
        q.push(s, 0, 10);
        assert_eq!(q.grant(s, 4), Some(Grant { tenant: 0, n: 4 }));
        assert_eq!(q.grant(s, 4), Some(Grant { tenant: 0, n: 4 }));
        assert_eq!(q.grant(s, 4), Some(Grant { tenant: 0, n: 2 }));
        assert_eq!(q.grant(s, 4), None);
    }

    #[test]
    fn fifo_requeue_goes_to_the_head_and_remove_purges() {
        let s = &mut Fifo::new();
        let mut q = Model::new(s, &[(1, 0); 2]);
        q.push(s, 0, 4);
        q.push(s, 1, 4);
        assert_eq!(q.grant(s, 4), Some(Grant { tenant: 0, n: 4 }));
        // Tenant 0's work comes back (agent died): it runs ahead of
        // tenant 1's older backlog.
        q.push_front(s, 0, 4);
        assert_eq!(q.grant(s, 10), Some(Grant { tenant: 0, n: 4 }));
        q.push_front(s, 0, 2);
        q.queues[1].clear(); // tenant 1's session closed
        assert_eq!(q.drain(s, 10), vec![Grant { tenant: 0, n: 2 }]);
    }

    #[test]
    fn fair_share_serves_in_weight_proportion() {
        let s = &mut FairShare::new();
        let mut q = Model::new(s, &[(1, 0), (2, 0), (4, 0)]);
        for t in 0..3 {
            q.push(s, t, 100_000);
        }
        let mut served = [0u64; 3];
        for _ in 0..7_000 {
            let g = q.grant(s, 64).expect("backlogged");
            served[g.tenant] += g.n;
        }
        let total: u64 = served.iter().sum();
        for (t, &w) in [1u64, 2, 4].iter().enumerate() {
            let share = served[t] as f64 / total as f64;
            let want = w as f64 / 7.0;
            assert!(
                (share - want).abs() < 0.02,
                "tenant {t}: share {share:.3} want {want:.3}"
            );
        }
    }

    #[test]
    fn fair_share_visits_every_backlogged_tenant_each_rotation() {
        let s = &mut FairShare::new();
        let mut q = Model::new(s, &[(1, 0), (2, 0), (3, 0), (1, 0)]);
        for t in 0..4 {
            q.push(s, t, 1_000);
        }
        // Any window of 4 grants must touch all 4 tenants.
        let mut grants = Vec::new();
        for _ in 0..40 {
            grants.push(q.grant(s, 1_000).unwrap().tenant);
        }
        for window in grants.chunks(4) {
            let mut seen: Vec<_> = window.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 4, "rotation skipped a tenant: {window:?}");
        }
    }

    #[test]
    fn fair_share_empty_tenant_rejoins_cleanly() {
        let s = &mut FairShare::new();
        let mut q = Model::new(s, &[(1, 0); 2]);
        q.push(s, 0, 2);
        assert_eq!(q.grant(s, 10).unwrap().tenant, 0);
        assert_eq!(q.grant(s, 10), None, "drained");
        q.push(s, 1, 1);
        q.push(s, 0, 1);
        let mut tenants: Vec<_> = q.drain(s, 10).iter().map(|g| g.tenant).collect();
        tenants.sort_unstable();
        assert_eq!(tenants, vec![0, 1]);
    }

    #[test]
    fn priority_always_serves_the_highest_backlogged_level() {
        let s = &mut Priority::new();
        let mut q = Model::new(s, &[(1, 0), (1, 5), (1, 5)]);
        q.push(s, 0, 10);
        q.push(s, 1, 4);
        q.push(s, 2, 4);
        let mut high = Vec::new();
        loop {
            let g = q.grant(s, 2).unwrap();
            if g.tenant == 0 {
                // Low priority only runs once both high tenants drain.
                assert_eq!(q.depth(1) + q.depth(2), 0);
                break;
            }
            high.push(g.tenant);
        }
        // Same-priority peers alternate (round robin), not starve.
        assert_eq!(high, vec![1, 2, 1, 2]);
    }

    #[test]
    fn priority_preempts_at_grant_granularity() {
        let s = &mut Priority::new();
        let mut q = Model::new(s, &[(1, 0), (1, 9)]);
        q.push(s, 0, 100);
        assert_eq!(q.grant(s, 10).unwrap().tenant, 0);
        // High-priority arrival preempts the next grant immediately.
        q.push(s, 1, 3);
        assert_eq!(q.grant(s, 10).unwrap(), Grant { tenant: 1, n: 3 });
        assert_eq!(q.grant(s, 10).unwrap().tenant, 0);
    }

    #[test]
    fn priority_change_moves_between_levels() {
        let s = &mut Priority::new();
        let mut q = Model::new(s, &[(1, 0), (1, 1)]);
        q.push(s, 0, 5);
        q.push(s, 1, 5);
        assert_eq!(q.grant(s, 1).unwrap().tenant, 1);
        s.set_tenant(0, 1, 7);
        assert_eq!(q.grant(s, 1).unwrap().tenant, 0);
        assert_eq!(q.depth(0), 4);
    }

    #[test]
    fn remove_then_grant_never_underflows() {
        for policy in [SchedPolicy::Fifo, SchedPolicy::Fair, SchedPolicy::Priority] {
            let s = &mut *policy.build();
            let mut q = Model::new(s, &[(2, 1)]);
            q.push(s, 0, 8);
            q.queues[0].clear();
            assert_eq!(q.grant(s, 16), None, "{policy:?}");
            q.push(s, 0, 3);
            assert_eq!(
                q.grant(s, 16),
                Some(Grant { tenant: 0, n: 3 }),
                "{policy:?}"
            );
            assert_eq!(q.grant(s, 16), None, "{policy:?}");
        }
    }
}
