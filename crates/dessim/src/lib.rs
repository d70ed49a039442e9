//! `mpiq-dessim` — a deterministic, component-based discrete-event
//! simulation kernel.
//!
//! This crate is the substrate the rest of `mpiq` runs on. It stands in for
//! the Enkidu framework the paper built its system simulation on: a small
//! discrete-event kernel where *components* exchange *events* over *links*
//! with fixed latencies, all driven by one executive, [`Simulation`], with
//! picosecond-resolution virtual time.
//!
//! There is one executive, one event queue and one event loop. A
//! [`Simulation`] keeps every pending event in one binary heap ordered
//! by `(time, seq)`, where `seq` is a global emission counter: events at
//! equal times run in the order they were emitted (see [`scheduler`]
//! and [`shard`]).
//! Every handler runs on the calling thread.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same inputs produce identical event
//!    orders. Ties in time are broken by the global emission counter,
//!    never by allocation order or hash iteration.
//! 2. **Composability.** Components know nothing about each other's types;
//!    they communicate through dynamically typed [`Payload`]s routed over
//!    explicitly wired links.
//! 3. **Observability.** A global [`stats::Stats`] registry lets any
//!    component publish counters that experiment harnesses read back.
//!
//! # Quick example
//!
//! ```
//! use mpiq_dessim::prelude::*;
//!
//! struct Echo;
//! impl Component for Echo {
//!     fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
//!         let n: u64 = *ev.payload.downcast::<u64>().unwrap();
//!         if n < 3 {
//!             ctx.emit(OutPort(0), Payload::new(n + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_component("a", Echo);
//! let b = sim.add_component("b", Echo);
//! // a.out0 -> b.in0 and back, each hop 10 ns.
//! sim.connect(a, OutPort(0), b, InPort(0), Time::from_ns(10));
//! sim.connect(b, OutPort(0), a, InPort(0), Time::from_ns(10));
//! sim.post(a, InPort(0), Payload::new(0u64), Time::ZERO);
//! sim.run();
//! assert_eq!(sim.now(), Time::from_ns(30));
//! ```

pub mod clock;
pub mod component;
pub mod event;
pub mod export;
pub mod fault;
pub mod metrics;
pub mod rng;
pub mod scheduler;
pub mod shard;
pub mod stats;
pub mod time;
pub mod trace;
pub mod watchdog;

pub use clock::Clock;
pub use component::{Component, ComponentId, Ctx};
pub use event::{Event, InPort, OutPort, Payload};
pub use export::chrome_trace;
pub use fault::{FaultConfig, FaultEvent, FaultPlan, FaultSchedule, FlipTarget, WireFault};
pub use metrics::{Histogram, Metrics};
pub use rng::SimRng;
pub use scheduler::Simulation;
pub use stats::Stats;
pub use time::Time;
pub use trace::{
    AlpuCmdKind, ComponentFaultKind, DmaDir, QueueKind, QueueOpKind, SearchSource, TraceEvent,
    TraceRecord, TraceRing,
};
pub use watchdog::{Diagnosis, Health, StallKind};

/// Convenient glob import for simulation authors.
pub mod prelude {
    pub use crate::clock::Clock;
    pub use crate::component::{Component, ComponentId, Ctx};
    pub use crate::event::{Event, InPort, OutPort, Payload};
    pub use crate::rng::SimRng;
    pub use crate::scheduler::Simulation;
    pub use crate::time::Time;
}
