//! The event bus: fan-out from emitters to attached sinks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::event::Event;

/// A telemetry consumer. Sinks are responsible for their own interior
/// mutability; `record` may be called concurrently from worker threads.
pub trait Sink: Send + Sync {
    /// `at` is the offset from bus creation (monotonic).
    fn record(&self, at: Duration, event: &Event);

    /// Write out anything `record` buffered. A long-running emitter
    /// calls it ([`EventBus::flush`]) where it flushes its own logs, so
    /// a killed process loses only the events since.
    fn flush(&self) {}
}

/// Lock-cheap multi-producer event bus.
///
/// `emit` on a bus with no sinks is a single relaxed atomic load; with
/// sinks it takes one uncontended `RwLock` read to walk the sink list.
/// Sinks are attached once during setup and shared via `Arc`, so tests
/// keep a handle to their [`crate::Recorder`] while the engine owns the
/// bus.
pub struct EventBus {
    origin: Instant,
    sinks: RwLock<Vec<Arc<dyn Sink>>>,
    sink_count: AtomicUsize,
}

impl EventBus {
    pub fn new() -> EventBus {
        EventBus {
            origin: Instant::now(),
            sinks: RwLock::new(Vec::new()),
            sink_count: AtomicUsize::new(0),
        }
    }

    /// A shared bus, ready to be handed to engine + sinks.
    pub fn shared() -> Arc<EventBus> {
        Arc::new(EventBus::new())
    }

    /// Attach a sink; it will observe every event emitted afterwards.
    pub fn attach(&self, sink: Arc<dyn Sink>) {
        let mut sinks = self.sinks.write().expect("sink list poisoned");
        sinks.push(sink);
        self.sink_count.store(sinks.len(), Ordering::Release);
    }

    /// True if at least one sink is attached (emitters can use this to
    /// skip building expensive payloads).
    pub fn is_active(&self) -> bool {
        self.sink_count.load(Ordering::Relaxed) > 0
    }

    /// Offset of "now" from bus creation.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Broadcast an event to all sinks. No-op (one atomic load) when no
    /// sink is attached.
    pub fn emit(&self, event: Event) {
        if self.sink_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let at = self.origin.elapsed();
        let sinks = self.sinks.read().expect("sink list poisoned");
        for sink in sinks.iter() {
            sink.record(at, &event);
        }
    }

    /// Flush every attached sink (see [`Sink::flush`]).
    pub fn flush(&self) {
        if self.sink_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        for sink in self.sinks.read().expect("sink list poisoned").iter() {
            sink.flush();
        }
    }

    /// Snapshot the current sink list for a hot emitter (see [`SinkSet`]).
    pub fn sink_set(&self) -> SinkSet {
        let sinks = self.sinks.read().expect("sink list poisoned");
        SinkSet {
            origin: self.origin,
            sinks: sinks.clone().into(),
        }
    }
}

/// A point-in-time snapshot of a bus's sink list, for emitters with a
/// hot path: fan-out walks a private slice with no lock at all, and the
/// emitter can supply its own stamps via [`SinkSet::emit_at`] to reuse a
/// clock read it already paid for. Stamps share the bus's origin, so
/// events emitted through a snapshot and through [`EventBus::emit`]
/// land on one timeline. Sinks attached after the snapshot was taken
/// are not seen — take the snapshot after setup (the engine does, at
/// the top of each run).
#[derive(Clone)]
pub struct SinkSet {
    origin: Instant,
    sinks: Arc<[Arc<dyn Sink>]>,
}

impl SinkSet {
    /// True when the snapshot holds no sinks (emits are then no-ops).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Bus-relative stamp for "now" (same origin as [`EventBus::now`]).
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Bus-relative stamp for an instant the caller already holds.
    pub fn stamp(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Broadcast, stamping with a fresh clock read.
    pub fn emit(&self, event: Event) {
        self.emit_at(self.origin.elapsed(), event);
    }

    /// Broadcast with a caller-supplied stamp.
    pub fn emit_at(&self, at: Duration, event: Event) {
        for sink in self.sinks.iter() {
            sink.record(at, &event);
        }
    }
}

impl std::fmt::Debug for SinkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkSet")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.sink_count.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::Recorder;

    #[test]
    fn no_sink_emit_is_noop() {
        let bus = EventBus::new();
        assert!(!bus.is_active());
        bus.emit(Event::Queued { seq: 1 }); // must not panic or block
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let bus = EventBus::shared();
        let a = Recorder::shared();
        let b = Recorder::shared();
        bus.attach(a.clone());
        bus.attach(b.clone());
        assert!(bus.is_active());
        bus.emit(Event::Queued { seq: 7 });
        bus.emit(Event::QueueDepth { depth: 1 });
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(a.events()[0], Event::Queued { seq: 7 });
    }

    #[test]
    fn concurrent_emit_preserves_all_events() {
        let bus = EventBus::shared();
        let rec = Recorder::shared();
        bus.attach(rec.clone());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let bus = bus.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        bus.emit(Event::Queued { seq: t * 1000 + i });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.len(), 800);
        // Per-thread emission order is preserved in the capture.
        let events = rec.events();
        for t in 0..8u64 {
            let seqs: Vec<u64> = events
                .iter()
                .filter_map(|e| e.seq())
                .filter(|s| s / 1000 == t)
                .collect();
            assert_eq!(seqs, (0..100).map(|i| t * 1000 + i).collect::<Vec<_>>());
        }
    }
}
