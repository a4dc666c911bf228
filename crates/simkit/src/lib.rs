//! # htpar-simkit — deterministic discrete-event simulation engine
//!
//! The extreme-scale experiments in the paper ran on machines we do not
//! have (Frontier, Perlmutter, a Slurm DTN cluster). Every substrate model
//! in this workspace — cluster, storage, containers, transfer, WMS — is a
//! discrete-event simulation built on this crate.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** A simulation seeded with the same seed produces the
//!    same event trace, bit for bit. All randomness flows through seeded
//!    [`rand_chacha::ChaCha8Rng`] streams (see [`rng`]); event ties at equal
//!    timestamps break on a monotone sequence number.
//! 2. **Scale.** Fig. 1 of the paper simulates 9,408 nodes × 128 tasks =
//!    1.152 M task completions; the event queue is a hierarchical
//!    calendar (timing-wheel) queue over a generational slab — O(1)
//!    schedule and cancel, no per-event heap allocation for small
//!    handler captures — which sustains millions of events per second in
//!    release builds (guarded by the `sim` regression gate). The
//!    original binary-heap queue survives as [`reference::HeapQueue`],
//!    the reference model the calendar queue is differentially tested
//!    against.
//! 3. **Ergonomics.** A simulation is a world type `W` plus closures; no
//!    trait dance is needed for simple models.
//!
//! ```
//! use htpar_simkit::{Simulation, SimTime};
//!
//! let mut sim = Simulation::new(0u64); // world = a counter
//! for i in 0..10 {
//!     sim.schedule_in(SimTime::from_secs_f64(i as f64), move |sim| {
//!         *sim.world_mut() += 1;
//!     });
//! }
//! sim.run();
//! assert_eq!(*sim.world(), 10);
//! assert_eq!(sim.now(), SimTime::from_secs_f64(9.0));
//! ```

pub mod dist;
pub mod engine;
pub mod event;
mod handler;
pub mod reference;
pub mod resource;
pub mod rng;
mod slab;
pub mod stats;
pub mod time;
mod wheel;

pub use dist::Dist;
pub use engine::{EventId, Simulation};
pub use event::{EventKey, EventQueue};
pub use resource::Tokens;
pub use rng::{stream_rng, SimRng};
pub use stats::{Histogram, OnlineStats, Summary};
pub use time::SimTime;
