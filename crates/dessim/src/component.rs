//! The component model: simulation actors and their execution context.

use crate::event::{InPort, OutPort, Payload};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::{TraceEvent, TraceRing};

/// Identifies a component within one [`Simulation`](crate::Simulation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

/// A simulation actor.
///
/// Components own their state and react to events. All interaction with the
/// outside world goes through the [`Ctx`] passed to each call; a component
/// can never touch another component directly, which is what makes the
/// kernel deterministic and borrow-check-friendly.
///
/// Every handler runs on the thread that drives the
/// [`Simulation`](crate::Simulation), so components need not be `Send`:
/// state a harness shares with a component can be an `Rc<RefCell<..>>`.
pub trait Component: 'static {
    /// Handle one delivered event. May emit events on output ports, post
    /// self-wakeups, mutate stats, and draw random numbers via `ctx`.
    fn on_event(&mut self, ev: crate::event::Event, ctx: &mut Ctx<'_>);

    /// Called once when the simulation starts (before any event). Default:
    /// nothing.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Expose the component for downcasting (harness inspection between
    /// runs). Override with `Some(self)` to opt in.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable variant of [`Component::as_any`].
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Write counters kept outside the registry into `stats`. Called by
    /// [`Simulation::stats`](crate::Simulation::stats) on every component,
    /// in registration order, on a copy of the registry handlers wrote —
    /// so a component on a hot path can keep typed counters and pay for
    /// key formatting once per read instead of once per event. Default:
    /// nothing.
    fn publish(&self, _stats: &mut Stats) {}

    /// The metrics twin of [`Component::publish`]: write histograms and
    /// counters kept outside the registry into `metrics`. Called by
    /// [`Simulation::metrics`](crate::Simulation::metrics) on every
    /// component, in registration order. Writes are no-ops unless
    /// metrics were enabled. Default: nothing.
    fn publish_metrics(&self, _metrics: &mut Metrics) {}

    /// Self-report for the stall watchdog (see [`crate::watchdog`]):
    /// whether the component still holds unfinished obligations, plus
    /// gauges (queue depths, outstanding credits) and notes (dead peers).
    /// Default `None` = the component doesn't participate in diagnosis.
    fn health(&self) -> Option<crate::watchdog::Health> {
        None
    }
}

/// A pending emission recorded by a `Ctx` during one handler invocation.
pub(crate) enum Emission {
    /// Route via the wiring table: (src, out port) -> (dst, in port, latency).
    Output {
        port: OutPort,
        payload: Payload,
        extra_delay: Time,
    },
    /// Direct send to a known component, bypassing wiring.
    Direct {
        dst: ComponentId,
        port: InPort,
        payload: Payload,
        delay: Time,
    },
}

/// Execution context handed to a component while it runs.
///
/// Emissions are buffered and committed to the event queue after the
/// handler returns, in emission order: each takes the next value of the
/// simulation's emission counter, which breaks ties between events at
/// equal times (see [`crate::scheduler`]).
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) me: ComponentId,
    pub(crate) emissions: Vec<Emission>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) stats: &'a mut Stats,
    pub(crate) trace: &'a mut TraceRing,
    pub(crate) metrics: &'a mut Metrics,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component currently executing.
    pub fn me(&self) -> ComponentId {
        self.me
    }

    /// Emit on an output port; delivery time is `now + link latency`.
    pub fn emit(&mut self, port: OutPort, payload: Payload) {
        self.emit_after(port, payload, Time::ZERO);
    }

    /// Emit on an output port with an additional delay on top of the link
    /// latency (e.g. serialization time).
    pub fn emit_after(&mut self, port: OutPort, payload: Payload, extra_delay: Time) {
        self.emissions.push(Emission::Output {
            port,
            payload,
            extra_delay,
        });
    }

    /// Send directly to a component, bypassing the wiring table. Useful for
    /// replies where the requester's id traveled inside the payload.
    pub fn send_to(&mut self, dst: ComponentId, port: InPort, payload: Payload, delay: Time) {
        self.emissions.push(Emission::Direct {
            dst,
            port,
            payload,
            delay,
        });
    }

    /// Schedule a wake-up event to myself after `delay`.
    pub fn wake_me(&mut self, port: InPort, payload: Payload, delay: Time) {
        self.send_to(self.me, port, payload, delay);
    }

    /// The simulation-wide deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The global statistics registry.
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Append to the simulation trace ring (no-op unless tracing was
    /// enabled via [`Simulation::enable_tracing`](crate::Simulation::enable_tracing)).
    /// Accepts a typed [`TraceEvent`] or anything string-like (recorded as
    /// a [`TraceEvent::Note`]).
    pub fn trace(&mut self, what: impl Into<TraceEvent>) {
        if self.trace.enabled() {
            let (now, me) = (self.now, self.me);
            self.trace.push(now, me, what);
        }
    }

    /// Append a trace record with an explicit timestamp instead of `now`.
    /// Components that model asynchronous hardware (DMA engines, ALPU
    /// exchanges) know when an activity *started* even though they report
    /// it at completion; duration events must carry the start time so the
    /// exporter lays them out correctly.
    pub fn trace_at(&mut self, start: Time, what: impl Into<TraceEvent>) {
        if self.trace.enabled() {
            let me = self.me;
            self.trace.push(start, me, what);
        }
    }

    /// Is tracing active? Lets components skip assembling telemetry that
    /// [`Ctx::trace`] would discard anyway.
    pub fn trace_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// The global metrics registry (histograms + counters). Writes are
    /// no-ops unless metrics were enabled via
    /// [`Simulation::enable_metrics`](crate::Simulation::enable_metrics).
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
}
