//! The simulation engine: a world state, a clock, an event queue, and a
//! deterministic RNG.

use std::sync::Arc;

use htpar_telemetry::{Event, EventBus};

use crate::event::{EventKey, EventQueue};
use crate::handler::InlineHandler;
use crate::rng::{stream_rng, SimRng};
use crate::time::SimTime;

/// Handle to a scheduled event; pass to [`Simulation::cancel`].
pub type EventId = EventKey;

/// Handlers are stored inline in the event slot when their captures fit
/// (see [`crate::handler`]) — no per-event heap allocation on the hot
/// path.
type Handler<W> = InlineHandler<W>;

/// A discrete-event simulation over a world state `W`.
///
/// Handlers are `FnOnce(&mut Simulation<W>)` closures; they may freely
/// read and mutate the world, schedule further events, cancel events, and
/// draw randomness. The engine guarantees:
///
/// - events fire in nondecreasing time order;
/// - events scheduled for the same instant fire in scheduling order;
/// - the clock never goes backwards (scheduling in the past fires "now");
/// - two runs with the same seed and same scheduling sequence are
///   identical.
pub struct Simulation<W> {
    now: SimTime,
    queue: EventQueue<Handler<W>>,
    world: W,
    rng: SimRng,
    fired: u64,
    bus: Option<Arc<EventBus>>,
}

impl<W> Simulation<W> {
    /// A simulation seeded with a fixed default seed. Prefer
    /// [`Simulation::with_seed`] in experiments so the seed is explicit.
    pub fn new(world: W) -> Self {
        Simulation::with_seed(world, 0x5EED)
    }

    /// A simulation with an explicit RNG seed.
    pub fn with_seed(world: W, seed: u64) -> Self {
        Simulation::with_capacity(world, seed, 0)
    }

    /// A simulation whose event queue has room for `events` concurrently
    /// pending events up front. Large models (the 9,408-node weak-scaling
    /// run keeps >1M watchdogs and completions in flight) should size
    /// this to avoid rehoming the event slab mid-run.
    pub fn with_capacity(world: W, seed: u64, events: usize) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(events),
            world,
            rng: stream_rng(seed, 0),
            fired: 0,
            bus: None,
        }
    }

    /// Attach a telemetry bus: each fired event emits
    /// [`Event::SimEventFired`] (sim-time + running count) and each
    /// successful [`Simulation::cancel`] emits
    /// [`Event::SimEventCancelled`]. Telemetry is observation only — it
    /// never perturbs the RNG stream or event order, so instrumented and
    /// uninstrumented runs of the same seed stay identical.
    pub fn set_telemetry(&mut self, bus: Arc<EventBus>) {
        self.bus = Some(bus);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events that have fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world state.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The simulation's RNG. All model randomness must come from here (or
    /// from streams derived via [`stream_rng`]) for determinism.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedule `handler` at absolute time `at`. Scheduling in the past is
    /// clamped to "now" — the handler fires at the current time, after any
    /// already-queued handlers for that time.
    pub fn schedule_at<F>(&mut self, at: SimTime, handler: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        let at = at.max(self.now);
        self.queue.push(at, InlineHandler::new(handler))
    }

    /// Schedule `handler` at `now + delay`.
    pub fn schedule_in<F>(&mut self, delay: SimTime, handler: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        let at = self.now + delay;
        self.queue.push(at, InlineHandler::new(handler))
    }

    /// Schedule a batch of same-shaped events (absolute times, clamped to
    /// now like [`Simulation::schedule_at`]), reserving queue capacity
    /// once up front. Returns the ids in input order — the hot producers
    /// (per-node start/crash/completion loops) keep them for later
    /// [`Simulation::cancel_many`].
    pub fn schedule_batch<F, I>(&mut self, events: I) -> Vec<EventId>
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
        I: IntoIterator<Item = (SimTime, F)>,
    {
        let events = events.into_iter();
        self.queue.reserve(events.size_hint().0);
        events
            .map(|(at, handler)| {
                let at = at.max(self.now);
                self.queue.push(at, InlineHandler::new(handler))
            })
            .collect()
    }

    /// Cancel a pending event. Returns `true` if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let cancelled = self.queue.cancel(id);
        if cancelled {
            if let Some(bus) = &self.bus {
                bus.emit(Event::SimEventCancelled {
                    sim_time: self.now.as_secs_f64(),
                    count: 1,
                });
            }
        }
        cancelled
    }

    /// Cancel a batch of pending events (e.g. everything in flight on a
    /// crashed node). Returns how many had not yet fired. Telemetry is
    /// batched: one aggregate [`Event::SimEventCancelled`] carrying the
    /// whole count, not one bus publish per event.
    pub fn cancel_many<I>(&mut self, ids: I) -> usize
    where
        I: IntoIterator<Item = EventId>,
    {
        let count = ids.into_iter().filter(|&id| self.queue.cancel(id)).count();
        if count > 0 {
            if let Some(bus) = &self.bus {
                bus.emit(Event::SimEventCancelled {
                    sim_time: self.now.as_secs_f64(),
                    count: count as u64,
                });
            }
        }
        count
    }

    /// Schedule `handler` every `period`, starting one period from now,
    /// until it returns `false`. Useful for monitors and samplers.
    pub fn schedule_every<F>(&mut self, period: SimTime, handler: F)
    where
        F: FnMut(&mut Simulation<W>) -> bool + 'static,
    {
        fn tick<W, F>(sim: &mut Simulation<W>, period: SimTime, mut handler: F)
        where
            F: FnMut(&mut Simulation<W>) -> bool + 'static,
        {
            if handler(sim) {
                sim.schedule_in(period, move |sim| tick(sim, period, handler));
            }
        }
        self.schedule_in(period, move |sim| tick(sim, period, handler));
    }

    /// Time of the next pending event.
    pub fn peek_next(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Fire the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, handler)) => {
                debug_assert!(at >= self.now, "event queue must be time-ordered");
                self.now = at;
                self.fired += 1;
                if let Some(bus) = &self.bus {
                    bus.emit(Event::SimEventFired {
                        sim_time: at.as_secs_f64(),
                        count: self.fired,
                    });
                }
                handler.invoke(self);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is empty or the next event is strictly after
    /// `horizon`. The clock is left at the last fired event (or advanced to
    /// `horizon` if nothing fired at or before it).
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(next) = self.peek_next() {
            if next > horizon {
                break;
            }
            self.step();
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Consume the simulation and return the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_order_and_advances_clock() {
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_at(SimTime::from_secs(2), |s| s.world_mut().push(2));
        sim.schedule_at(SimTime::from_secs(1), |s| s.world_mut().push(1));
        sim.schedule_at(SimTime::from_secs(3), |s| s.world_mut().push(3));
        sim.run();
        assert_eq!(sim.world(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Simulation::new(0u32);
        fn tick(sim: &mut Simulation<u32>) {
            *sim.world_mut() += 1;
            if *sim.world() < 5 {
                sim.schedule_in(SimTime::from_secs(1), tick);
            }
        }
        sim.schedule_at(SimTime::ZERO, tick);
        sim.run();
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(4));
    }

    #[test]
    fn scheduling_in_the_past_fires_now() {
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_at(SimTime::from_secs(10), |s| {
            s.schedule_at(SimTime::from_secs(1), |s2| {
                let now = s2.now();
                s2.world_mut().push(now);
            });
        });
        sim.run();
        assert_eq!(sim.world(), &vec![SimTime::from_secs(10)]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(0u32);
        for i in 1..=10 {
            sim.schedule_at(SimTime::from_secs(i), |s| *s.world_mut() += 1);
        }
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.events_pending(), 6);
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn run_until_advances_clock_through_idle_time() {
        let mut sim: Simulation<()> = Simulation::new(());
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulation::new(0u32);
        let id = sim.schedule_at(SimTime::from_secs(1), |s| *s.world_mut() += 1);
        sim.schedule_at(SimTime::from_secs(2), |s| *s.world_mut() += 10);
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn cancel_many_counts_only_pending() {
        let mut sim = Simulation::new(0u32);
        let a = sim.schedule_at(SimTime::from_secs(1), |s| *s.world_mut() += 1);
        let b = sim.schedule_at(SimTime::from_secs(2), |s| *s.world_mut() += 10);
        let c = sim.schedule_at(SimTime::from_secs(3), |s| *s.world_mut() += 100);
        assert!(sim.step()); // fire `a`
        assert_eq!(sim.cancel_many([a, b, c]), 2, "a already fired");
        sim.run();
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn schedule_every_repeats_until_false() {
        let mut sim = Simulation::new(Vec::new());
        sim.schedule_every(SimTime::from_secs(10), |s| {
            let now = s.now();
            s.world_mut().push(now.as_secs_f64());
            s.world().len() < 4
        });
        sim.run();
        assert_eq!(sim.world(), &vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn telemetry_reports_fired_and_cancelled_milestones() {
        use htpar_telemetry::Recorder;
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let mut sim = Simulation::new(0u32);
        sim.set_telemetry(bus);
        sim.schedule_at(SimTime::from_secs(1), |s| *s.world_mut() += 1);
        let id = sim.schedule_at(SimTime::from_secs(2), |s| *s.world_mut() += 10);
        sim.schedule_at(SimTime::from_secs(3), |s| *s.world_mut() += 100);
        assert!(sim.cancel(id));
        sim.run();
        assert_eq!(*sim.world(), 101);
        let mut fired = Vec::new();
        let mut cancelled = 0;
        for e in rec.events() {
            match e {
                Event::SimEventFired { sim_time, count } => fired.push((sim_time, count)),
                Event::SimEventCancelled { count, .. } => cancelled += count,
                _ => panic!("unexpected event kind {}", e.kind()),
            }
        }
        assert_eq!(fired, vec![(1.0, 1), (3.0, 2)]);
        assert_eq!(cancelled, 1);
        // Cancelling an already-fired event emits nothing further.
        assert!(!sim.cancel(id));
        assert_eq!(rec.count_matching(|e| e.kind() == "sim_event_cancelled"), 1);
    }

    #[test]
    fn cancel_many_emits_one_aggregate_telemetry_event() {
        use htpar_telemetry::Recorder;
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let mut sim = Simulation::new(0u32);
        sim.set_telemetry(bus);
        let mut ids = Vec::new();
        for i in 0..128u64 {
            ids.push(sim.schedule_at(SimTime::from_secs(i + 1), |s| *s.world_mut() += 1));
        }
        assert_eq!(sim.cancel_many(ids), 128);
        let counts: Vec<u64> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SimEventCancelled { count, .. } => Some(*count),
                _ => None,
            })
            .collect();
        assert_eq!(counts, vec![128], "one aggregate publish, not 128");
        // A batch that cancels nothing publishes nothing.
        assert_eq!(sim.cancel_many(Vec::new()), 0);
        assert_eq!(rec.count_matching(|e| e.kind() == "sim_event_cancelled"), 1);
    }

    #[test]
    fn mass_cancel_updates_pending_count_and_peek_immediately() {
        // The cancel_many-then-peek latency cliff: the old heap left a
        // tombstone per cancelled event for one giant drain at the next
        // peek/pop. The slab frees slots directly, so pending-count and
        // next-event time are exact right after the mass cancel.
        let mut sim = Simulation::new(0u32);
        let mut ids = Vec::new();
        for i in 0..10_000u64 {
            ids.push(sim.schedule_at(SimTime::from_micros(100 + i), |s| *s.world_mut() += 1));
        }
        let far = SimTime::from_secs(600);
        sim.schedule_at(far, |s| *s.world_mut() += 1);
        assert_eq!(sim.cancel_many(ids), 10_000);
        assert_eq!(sim.events_pending(), 1);
        assert_eq!(sim.peek_next(), Some(far));
        sim.run();
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.now(), far);
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        let mut sim = Simulation::new(Vec::new());
        let ids = sim.schedule_batch((0..10u64).map(|i| {
            let at = SimTime::from_secs(10 - i); // reversed times
            (at, move |s: &mut Simulation<Vec<u64>>| {
                s.world_mut().push(i)
            })
        }));
        assert_eq!(ids.len(), 10);
        // Cancel one mid-batch via its returned id.
        assert!(sim.cancel(ids[3]));
        sim.run();
        // Times were 10-i, so firing order is reversed input order, minus
        // the cancelled i=3.
        let want: Vec<u64> = (0..10).rev().filter(|&i| i != 3).collect();
        assert_eq!(sim.world(), &want);
    }

    #[test]
    fn same_seed_same_trace() {
        fn trace(seed: u64) -> Vec<u64> {
            use rand::Rng;
            let mut sim = Simulation::with_seed(Vec::new(), seed);
            for _ in 0..100 {
                let dt = SimTime::from_micros(1);
                sim.schedule_in(dt, |s| {
                    let v = s.rng().gen::<u64>();
                    s.world_mut().push(v);
                });
            }
            sim.run();
            sim.into_world()
        }
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }
}
