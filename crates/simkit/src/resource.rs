//! Capacity-limited resources with FIFO wait queues.
//!
//! A [`Tokens`] models anything that admits `capacity` concurrent users:
//! CPU slots on a node, rsync streams on a DTN, metadata-server service
//! slots on Lustre. Continuations are scheduled "at now" when granted,
//! which keeps grant order deterministic and avoids reentrant borrows.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::Simulation;

type Cont<W> = Box<dyn FnOnce(&mut Simulation<W>)>;

/// A counting resource shared between simulation handlers.
///
/// Stored behind `Rc<RefCell<..>>` so event closures can capture it;
/// simulations are single-threaded, so `Rc` is the right tool.
pub struct Tokens<W> {
    capacity: u64,
    available: u64,
    waiters: VecDeque<(u64, Cont<W>)>,
    peak_in_use: u64,
}

impl<W: 'static> Tokens<W> {
    /// A resource with the given capacity, fully available.
    pub fn new(capacity: u64) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Tokens {
            capacity,
            available: capacity,
            waiters: VecDeque::new(),
            peak_in_use: 0,
        }))
    }

    /// Units currently free.
    pub fn available(&self) -> u64 {
        self.available
    }

    /// Units currently held.
    pub fn in_use(&self) -> u64 {
        self.capacity - self.available
    }

    /// High-water mark of concurrently held units.
    pub fn peak_in_use(&self) -> u64 {
        self.peak_in_use
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Acquire `n` units, running `cont` (at the current simulation time)
    /// once they are granted. Requests larger than the total capacity are
    /// clamped to it — they acquire the whole resource rather than
    /// deadlocking forever.
    pub fn acquire<F>(this: &Rc<RefCell<Self>>, sim: &mut Simulation<W>, n: u64, cont: F)
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        let n = n.min(this.borrow().capacity).max(1);
        let mut me = this.borrow_mut();
        if me.waiters.is_empty() && me.available >= n {
            me.available -= n;
            me.peak_in_use = me.peak_in_use.max(me.capacity - me.available);
            drop(me);
            sim.schedule_in(crate::time::SimTime::ZERO, cont);
        } else {
            me.waiters.push_back((n, Box::new(cont)));
        }
    }

    /// Return `n` units and wake as many FIFO waiters as now fit.
    pub fn release(this: &Rc<RefCell<Self>>, sim: &mut Simulation<W>, n: u64) {
        let mut ready: Vec<Cont<W>> = Vec::new();
        {
            let mut me = this.borrow_mut();
            me.available = (me.available + n).min(me.capacity);
            while let Some((want, _)) = me.waiters.front() {
                if *want <= me.available {
                    let (want, cont) = me.waiters.pop_front().expect("front exists");
                    me.available -= want;
                    me.peak_in_use = me.peak_in_use.max(me.capacity - me.available);
                    ready.push(cont);
                } else {
                    break;
                }
            }
        }
        for cont in ready {
            sim.schedule_in(crate::time::SimTime::ZERO, cont);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[derive(Default)]
    struct World {
        running: u64,
        max_running: u64,
        done: Vec<usize>,
    }

    #[test]
    fn caps_concurrency_and_preserves_fifo_order() {
        let mut sim = Simulation::new(World::default());
        let slots = Tokens::new(3);
        for i in 0..10usize {
            let slots2 = Rc::clone(&slots);
            Tokens::acquire(&slots, &mut sim, 1, move |sim| {
                sim.world_mut().running += 1;
                let r = sim.world().running;
                sim.world_mut().max_running = sim.world().max_running.max(r);
                let slots3 = Rc::clone(&slots2);
                sim.schedule_in(SimTime::from_secs(5), move |sim| {
                    sim.world_mut().running -= 1;
                    sim.world_mut().done.push(i);
                    Tokens::release(&slots3, sim, 1);
                });
            });
        }
        sim.run();
        assert_eq!(sim.world().max_running, 3);
        assert_eq!(sim.world().done.len(), 10);
        // Equal service times + FIFO grants => completion order = submit order.
        assert_eq!(sim.world().done, (0..10).collect::<Vec<_>>());
        // 10 jobs, 3 at a time, 5 s each => ceil(10/3)*5 = 20 s.
        assert_eq!(sim.now(), SimTime::from_secs(20));
    }

    #[test]
    fn oversized_request_clamps_to_capacity() {
        let mut sim: Simulation<World> = Simulation::new(World::default());
        let slots = Tokens::new(2);
        let slots2 = Rc::clone(&slots);
        Tokens::acquire(&slots, &mut sim, 100, move |sim| {
            sim.world_mut().done.push(0);
            Tokens::release(&slots2, sim, 100);
        });
        sim.run();
        assert_eq!(sim.world().done, vec![0]);
        assert_eq!(slots.borrow().available(), 2);
    }

    #[test]
    fn release_never_exceeds_capacity() {
        let mut sim: Simulation<World> = Simulation::new(World::default());
        let slots: Rc<RefCell<Tokens<World>>> = Tokens::new(4);
        Tokens::release(&slots, &mut sim, 10);
        sim.run();
        assert_eq!(slots.borrow().available(), 4);
    }

    #[test]
    fn large_request_blocks_later_small_ones_fifo() {
        // A 2-unit request at the head of the queue must not be starved by
        // later 1-unit requests (no "sneak past the head" unfairness).
        let mut sim = Simulation::new(World::default());
        let slots = Tokens::new(2);
        let s1 = Rc::clone(&slots);
        Tokens::acquire(&slots, &mut sim, 2, move |sim| {
            sim.world_mut().done.push(1);
            let s = Rc::clone(&s1);
            sim.schedule_in(SimTime::from_secs(1), move |sim| {
                Tokens::release(&s, sim, 2)
            });
        });
        let s2 = Rc::clone(&slots);
        Tokens::acquire(&slots, &mut sim, 2, move |sim| {
            sim.world_mut().done.push(2);
            let s = Rc::clone(&s2);
            sim.schedule_in(SimTime::from_secs(1), move |sim| {
                Tokens::release(&s, sim, 2)
            });
        });
        let s3 = Rc::clone(&slots);
        Tokens::acquire(&slots, &mut sim, 1, move |sim| {
            sim.world_mut().done.push(3);
            let s = Rc::clone(&s3);
            sim.schedule_in(SimTime::from_secs(1), move |sim| {
                Tokens::release(&s, sim, 1)
            });
        });
        sim.run();
        assert_eq!(sim.world().done, vec![1, 2, 3]);
    }

    #[test]
    fn peak_in_use_tracks_high_water_mark() {
        let mut sim: Simulation<World> = Simulation::new(World::default());
        let slots = Tokens::new(8);
        for _ in 0..5 {
            let s = Rc::clone(&slots);
            Tokens::acquire(&slots, &mut sim, 1, move |sim| {
                let s2 = Rc::clone(&s);
                sim.schedule_in(SimTime::from_secs(1), move |sim| {
                    Tokens::release(&s2, sim, 1)
                });
            });
        }
        sim.run();
        assert_eq!(slots.borrow().peak_in_use(), 5);
        assert_eq!(slots.borrow().in_use(), 0);
    }
}
