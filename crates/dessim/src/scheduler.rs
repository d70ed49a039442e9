//! The simulation executive: the one type that owns components,
//! wiring, virtual time, the event queue, and the run loop.
//!
//! Every pending event of a [`Simulation`] sits in its one shard's
//! binary heap, ordered by the key `(time, seq)`: the delivery time,
//! then a global emission counter (see [`crate::shard`]). So events at
//! equal times run in the order they were emitted, across every
//! component in the simulation. The run loop pops the smallest key,
//! advances `now` to its time and hands the event to its component, on
//! the calling thread.

use crate::component::{Component, ComponentId, Ctx, Emission};
use crate::event::{InPort, OutPort, Payload};
use crate::metrics::Metrics;
use crate::shard::Shard;
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::TraceRing;

/// A wired link: (src component, out port) -> (dst component, in port, latency).
#[derive(Clone, Copy)]
struct Link {
    dst: ComponentId,
    port: InPort,
    latency: Time,
}

/// The simulation executive. Build it — register components, wire
/// links, post initial events — then `run`.
pub struct Simulation {
    components: Vec<Box<dyn Component>>,
    /// Component id -> registered name.
    names: Vec<String>,
    /// Outgoing links indexed `[component][out port]` — a flat lookup on
    /// the per-emission hot path (out-port numbers are small and dense).
    wiring: Vec<Vec<Option<Link>>>,
    queue: Shard,
    now: Time,
    trace: TraceRing,
    /// Set by [`Simulation::enable_metrics`].
    metrics_enabled: bool,
    events_processed: u64,
    /// Emission buffer handed to each handler's [`Ctx`] and taken back
    /// after the commit, so dispatch reuses one allocation.
    emissions: Vec<Emission>,
    started: bool,
}

impl Simulation {
    /// Create an empty simulation. The argument is unused: nothing in a
    /// simulation draws from a simulation-wide random stream (each
    /// component that needs one seeds its own [`SimRng`](crate::SimRng)).
    pub fn new(_seed: u64) -> Simulation {
        Simulation {
            components: Vec::new(),
            names: Vec::new(),
            wiring: Vec::new(),
            queue: Shard::default(),
            now: Time::ZERO,
            trace: TraceRing::disabled(),
            metrics_enabled: false,
            events_processed: 0,
            emissions: Vec::new(),
            started: false,
        }
    }

    /// Register a component; the returned id addresses it in wiring and
    /// direct sends. Ids are dense and follow registration order.
    pub fn add_component<C: Component>(&mut self, name: &str, c: C) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(Box::new(c));
        self.names.push(name.to_string());
        self.wiring.push(Vec::new());
        id
    }

    /// Wire `src.out_port` to `dst.in_port` with the given link latency.
    /// Re-connecting an already wired output port replaces the link.
    pub fn connect(
        &mut self,
        src: ComponentId,
        out_port: OutPort,
        dst: ComponentId,
        in_port: InPort,
        latency: Time,
    ) {
        assert!(
            (dst.0 as usize) < self.components.len(),
            "connect: unknown destination component"
        );
        let ports = self
            .wiring
            .get_mut(src.0 as usize)
            .expect("connect: unknown source component");
        let slot = out_port.0 as usize;
        if ports.len() <= slot {
            ports.resize(slot + 1, None);
        }
        ports[slot] = Some(Link {
            dst,
            port: in_port,
            latency,
        });
    }

    /// Schedule an event `delay` after the current time.
    pub fn post(&mut self, dst: ComponentId, port: InPort, payload: Payload, delay: Time) {
        self.queue.push(self.now + delay, dst, port, payload);
    }

    /// Current virtual time: the time of the last delivered event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Registered name of a component.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of registered components (ids are `0..count`).
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Keep the last `capacity` [`Ctx::trace`](crate::Ctx::trace)
    /// records.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceRing::with_capacity(capacity);
    }

    /// Turn on the metrics registry: [`Simulation::metrics`] accepts
    /// what components publish, and handlers see
    /// [`Ctx::metrics_enabled`](crate::Ctx::metrics_enabled). Off by
    /// default so unmetered runs stay byte-identical.
    pub fn enable_metrics(&mut self) {
        self.metrics_enabled = true;
    }

    /// The statistics registry, read from the components now: every
    /// component's [`Component::publish`] in registration order, into a
    /// fresh registry. Owned: assembled on demand, and reading it
    /// changes nothing in the run. The publishes are logged, one segment
    /// per component, and applied in one ordering pass at the end (see
    /// [`crate::stats`]).
    pub fn stats(&self) -> Stats {
        let mut out = Stats::new();
        for c in &self.components {
            out.segment();
            c.publish(&mut out);
        }
        out.fold();
        out
    }

    /// The metrics registry, read from the components now: every
    /// component's [`Component::publish_metrics`] in registration order,
    /// into a fresh registry (disabled, so empty, unless
    /// [`Simulation::enable_metrics`] was called). Owned: assembled on
    /// demand.
    pub fn metrics(&self) -> Metrics {
        let mut out = Metrics::disabled();
        if self.metrics_enabled {
            out.enable();
        }
        for c in &self.components {
            c.publish_metrics(&mut out);
        }
        out
    }

    /// The retained trace records, stable-sorted by timestamp (records
    /// with equal timestamps keep the order they were written in).
    pub fn trace(&self) -> TraceRing {
        let mut ring = self.trace.clone();
        ring.sort_by_time();
        ring
    }

    /// Trace records currently retained.
    pub fn trace_record_count(&self) -> usize {
        self.trace.records().count()
    }

    /// Trace records evicted so far.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Render the trace with component names resolved.
    pub fn render_trace(&self) -> String {
        let names = &self.names;
        self.trace().render(|id| names[id.0 as usize].clone())
    }

    /// Downcast a component to its concrete type, if it opted in via
    /// [`Component::as_any`]. For harness inspection between runs.
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        self.components[id.0 as usize].as_any()?.downcast_ref()
    }

    /// Mutable [`Simulation::component`], for finishing a component's
    /// setup once the ids it needs exist.
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        self.components[id.0 as usize].as_any_mut()?.downcast_mut()
    }

    /// Is the pending-event set empty? A simulation that is idle *and*
    /// has components reporting unfinished obligations
    /// ([`Component::health`]) has quiesced into a deadlock: nothing
    /// will ever run again.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Collect [`Component::health`] reports from every component that
    /// provides one, in registration order, with names resolved.
    pub fn health_reports(&self) -> Vec<(String, crate::watchdog::Health)> {
        self.components
            .iter()
            .zip(&self.names)
            .filter_map(|(c, name)| c.health().map(|h| (name.clone(), h)))
            .collect()
    }

    /// Assemble a typed stall report from the current state (see
    /// [`crate::watchdog`]). The caller decides the
    /// [`StallKind`](crate::watchdog::StallKind) — it knows whether the
    /// run quiesced or overran its deadline.
    pub fn diagnose(&self, kind: crate::watchdog::StallKind) -> crate::watchdog::Diagnosis {
        crate::watchdog::Diagnosis {
            kind,
            at: self.now(),
            events_processed: self.events_processed(),
            components: self.health_reports(),
        }
    }

    /// Run until no event remains. Returns the number of events
    /// processed by this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }

    /// Run events with `time <= horizon` in `(time, seq)` order; time
    /// advances to the last delivered event (not to the horizon itself
    /// if the queue runs dry). Returns the number of events delivered by
    /// this call.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        self.start_components();
        let before = self.events_processed;
        while let Some(ev) = self.queue.pop_until(horizon) {
            debug_assert!(ev.time >= self.now, "time must be monotone");
            self.now = ev.time;
            self.events_processed += 1;
            self.invoke(ev.dst, |c, ctx| c.on_event(ev, ctx));
        }
        self.events_processed - before
    }

    /// Run every component's `on_start` hook once, in id order.
    fn start_components(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.components.len() {
            self.invoke(ComponentId(id as u32), |c, ctx| c.on_start(ctx));
        }
    }

    /// Run one handler of component `me`, then commit its emissions in
    /// the order it made them.
    fn invoke(&mut self, me: ComponentId, handler: impl FnOnce(&mut dyn Component, &mut Ctx<'_>)) {
        let mut ctx = Ctx {
            now: self.now,
            me,
            emissions: std::mem::take(&mut self.emissions),
            trace: &mut self.trace,
            metrics_enabled: self.metrics_enabled,
        };
        handler(self.components[me.0 as usize].as_mut(), &mut ctx);
        let mut emissions = ctx.emissions;
        for e in emissions.drain(..) {
            match e {
                Emission::Output {
                    port,
                    payload,
                    extra_delay,
                } => {
                    let link = self.wiring[me.0 as usize]
                        .get(port.0 as usize)
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| {
                            panic!(
                                "component `{}` emitted on unwired output port {:?}",
                                self.names[me.0 as usize], port
                            )
                        });
                    let time = self.now + link.latency + extra_delay;
                    self.queue.push(time, link.dst, link.port, payload);
                }
                Emission::Direct {
                    dst,
                    port,
                    payload,
                    delay,
                } => self.queue.push(self.now + delay, dst, port, payload),
            }
        }
        self.emissions = emissions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Ctx;
    use crate::event::Event;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Counts events and forwards `n-1` copies of itself.
    struct Counter {
        seen: Vec<(Time, u64)>,
    }
    impl Component for Counter {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let n = *ev.payload.downcast::<u64>().unwrap();
            self.seen.push((ctx.now(), n));
            if n > 0 {
                ctx.wake_me(InPort(0), Payload::new(n - 1), Time::from_ns(5));
            }
        }
    }

    #[test]
    fn self_wakeups_advance_time() {
        let mut sim = Simulation::new(1);
        let c = sim.add_component("ctr", Counter { seen: vec![] });
        sim.post(c, InPort(0), Payload::new(3u64), Time::from_ns(2));
        sim.run();
        assert_eq!(sim.now(), Time::from_ns(2 + 3 * 5));
        assert_eq!(sim.events_processed(), 4);
    }

    /// Deliveries as `(time, tag, payload)`, shared by every recorder.
    type Log = Rc<RefCell<Vec<(Time, u32, u64)>>>;

    /// Logs every delivery; forwards a decrementing counter over its one
    /// output port when wired.
    struct Recorder {
        log: Log,
        tag: u32,
    }
    impl Component for Recorder {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let n = ev.payload.downcast::<u64>().map_or(0, |n| *n);
            self.log.borrow_mut().push((ctx.now(), self.tag, n));
            if n > 0 {
                ctx.emit(OutPort(0), Payload::new(n - 1));
            }
        }
    }

    fn recorder(sim: &mut Simulation, log: &Log, tag: u32) -> ComponentId {
        let log = log.clone();
        sim.add_component(&format!("r{tag}"), Recorder { log, tag })
    }

    fn tags(log: &Log) -> Vec<u32> {
        log.borrow().iter().map(|&(_, tag, _)| tag).collect()
    }

    #[test]
    fn ties_break_in_post_order() {
        let log = Log::default();
        let mut sim = Simulation::new(1);
        let a = recorder(&mut sim, &log, 1);
        let b = recorder(&mut sim, &log, 2);
        // Post b first, then a, at the same timestamp: delivery order must
        // match post order regardless of component ids.
        sim.post(b, InPort(0), Payload::empty(), Time::from_ns(10));
        sim.post(a, InPort(0), Payload::empty(), Time::from_ns(10));
        sim.run();
        assert_eq!(tags(&log), vec![2, 1]);
    }

    #[test]
    fn ties_break_in_emission_order_not_link_latency() {
        /// Forwards its own tag to the sink.
        struct Stamp(u64);
        impl Component for Stamp {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.emit(OutPort(0), Payload::new(self.0));
            }
        }
        // `fast` (40 ns link) and `slow` (50 ns link) both reach the sink
        // at t = 60 ns. The earlier emission is delivered first, whatever
        // the component ids or link latencies.
        let sink_order = |fast_at: u64, slow_at: u64| -> Vec<u64> {
            let log = Log::default();
            let mut sim = Simulation::new(1);
            let sink = recorder(&mut sim, &log, 0);
            let fast = sim.add_component("fast", Stamp(1));
            let slow = sim.add_component("slow", Stamp(2));
            sim.connect(fast, OutPort(0), sink, InPort(0), Time::from_ns(40));
            sim.connect(slow, OutPort(0), sink, InPort(0), Time::from_ns(50));
            // The sink recorder forwards its countdown; loop it back far
            // past the horizon.
            sim.connect(sink, OutPort(0), sink, InPort(1), Time::from_us(1));
            sim.post(fast, InPort(0), Payload::empty(), Time::from_ns(fast_at));
            sim.post(slow, InPort(0), Payload::empty(), Time::from_ns(slow_at));
            sim.run_until(Time::from_ns(60));
            let log = log.borrow();
            assert!(log.iter().all(|&(t, _, _)| t == Time::from_ns(60)));
            log.iter().map(|&(_, _, n)| n).collect()
        };
        // `slow` emits at 10 ns, `fast` at 20 ns: slow's frame first,
        // although `fast` was posted first and has the lower id.
        assert_eq!(sink_order(20, 10), vec![2, 1]);
    }

    #[test]
    fn wiring_routes_with_latency() {
        struct Fwd;
        impl Component for Fwd {
            fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                let n = *ev.payload.downcast::<u64>().unwrap();
                if n > 0 {
                    ctx.emit(OutPort(0), Payload::new(n - 1));
                }
            }
        }
        let mut sim = Simulation::new(0);
        let a = sim.add_component("a", Fwd);
        let b = sim.add_component("b", Fwd);
        sim.connect(a, OutPort(0), b, InPort(0), Time::from_ns(100));
        sim.connect(b, OutPort(0), a, InPort(0), Time::from_ns(100));
        sim.post(a, InPort(0), Payload::new(4u64), Time::ZERO);
        sim.run();
        // 4 hops of 100 ns each.
        assert_eq!(sim.now(), Time::from_ns(400));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(0);
        let c = sim.add_component("ctr", Counter { seen: vec![] });
        sim.post(c, InPort(0), Payload::new(100u64), Time::ZERO);
        let n = sim.run_until(Time::from_ns(12));
        // events at t=0,5,10 are <= 12ns; t=15 is not.
        assert_eq!(n, 3);
        assert_eq!(sim.now(), Time::from_ns(10));
        // Remaining events still run afterwards.
        sim.run();
        assert_eq!(sim.events_processed(), 101);
    }

    #[test]
    fn on_start_runs_once_before_events() {
        struct Starter {
            started: u32,
            events: u64,
        }
        impl Component for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started += 1;
                ctx.wake_me(InPort(0), Payload::empty(), Time::NS);
            }
            fn on_event(&mut self, _ev: Event, _ctx: &mut Ctx<'_>) {
                self.events += 1;
            }
            fn publish(&self, stats: &mut Stats) {
                stats.add("starter.started", self.started as u64);
                stats.add("starter.events", self.events);
            }
        }
        let mut sim = Simulation::new(0);
        let _ = sim.add_component(
            "s",
            Starter {
                started: 0,
                events: 0,
            },
        );
        sim.run();
        assert_eq!(sim.stats().get("starter.events"), 1);
        sim.run(); // idempotent: start hooks don't fire again
        assert_eq!(sim.stats().get("starter.started"), 1);
        assert_eq!(sim.stats().get("starter.events"), 1);
    }

    /// Keeps a typed event count and writes it only when a registry is
    /// read: as `pub.{tag}.seen` and onto the `shared` counter every
    /// publisher adds to; `shared` also goes into the metrics registry.
    struct Publisher {
        tag: u64,
        seen: u64,
    }
    impl Component for Publisher {
        fn on_event(&mut self, _ev: Event, _ctx: &mut Ctx<'_>) {
            self.seen += 1;
        }
        fn publish(&self, stats: &mut Stats) {
            stats.add(&format!("pub.{}.seen", self.tag), self.seen);
            stats.add("shared", self.seen);
        }
        fn publish_metrics(&self, metrics: &mut Metrics) {
            metrics.add("shared", self.seen);
        }
    }

    /// Components that publish one additive key sum into it, in the
    /// stats and the metrics registry alike, and each read assembles a
    /// fresh registry.
    #[test]
    fn publishes_merge_across_components() {
        let mut sim = Simulation::new(0);
        sim.enable_metrics();
        let a = sim.add_component("a", Publisher { tag: 1, seen: 0 });
        let b = sim.add_component("b", Publisher { tag: 2, seen: 0 });
        for t in 0..3 {
            sim.post(a, InPort(0), Payload::empty(), Time::from_ns(t));
        }
        sim.post(b, InPort(0), Payload::empty(), Time::from_ns(1));
        sim.run();
        let stats = sim.stats();
        assert_eq!(stats.get("pub.1.seen"), 3);
        assert_eq!(stats.get("pub.2.seen"), 1);
        assert_eq!(stats.get("shared"), 3 + 1);
        assert_eq!(sim.metrics().counter("shared"), 3 + 1);
        // Reading twice publishes into a fresh registry each time.
        assert_eq!(sim.stats().to_json(), stats.to_json());
        assert_eq!(sim.metrics().counter("shared"), 3 + 1);
    }

    #[test]
    fn components_that_never_publish_leave_no_keys() {
        let mut sim = Simulation::new(0);
        sim.enable_metrics();
        let c = sim.add_component("ctr", Counter { seen: vec![] });
        sim.add_component("idle", Publisher { tag: 3, seen: 0 });
        sim.post(c, InPort(0), Payload::new(2u64), Time::ZERO);
        sim.run();
        // Counter uses the default no-op hook; the idle publisher saw no
        // event, so every counter it adds is zero and leaves no key.
        assert_eq!(sim.stats().to_json(), "{}");
        assert_eq!(sim.metrics().counters().count(), 0);
    }

    #[test]
    fn tracing_records_component_activity() {
        struct Chatty;
        impl Component for Chatty {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.trace("handled an event");
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("chatty", Chatty);
        sim.enable_tracing(8);
        sim.post(c, InPort(0), Payload::empty(), Time::from_ns(3));
        sim.run();
        let rendered = sim.render_trace();
        assert!(rendered.contains("chatty"));
        assert!(rendered.contains("handled an event"));
        assert!(rendered.contains("3ns"));
    }

    #[test]
    fn tracing_disabled_by_default() {
        struct Chatty;
        impl Component for Chatty {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.trace("never retained");
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("chatty", Chatty);
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        sim.run();
        assert_eq!(sim.trace().records().count(), 0);
    }

    #[test]
    #[should_panic(expected = "unwired output port")]
    fn unwired_emit_panics_with_component_name() {
        struct Bad;
        impl Component for Bad {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.emit(OutPort(7), Payload::empty());
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("bad", Bad);
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        sim.run();
    }
}
