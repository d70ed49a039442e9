//! The event scheduler / simulation executive.

use crate::component::{Component, ComponentId, Ctx, Emission};
use crate::event::{Event, InPort, OutPort, Payload};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::TraceRing;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled event in the heap. Ordered by (time, seq): the sequence
/// number breaks ties deterministically in insertion order. Shared with
/// the partitioned executor ([`crate::shard`]), which keeps one such heap
/// per shard.
pub(crate) struct Scheduled {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) dst: ComponentId,
    pub(crate) port: InPort,
    pub(crate) payload: Payload,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A wired link: (src component, out port) -> (dst component, in port, latency).
#[derive(Clone, Copy)]
pub(crate) struct Link {
    pub(crate) dst: ComponentId,
    pub(crate) port: InPort,
    pub(crate) latency: Time,
}

/// The simulation executive: owns components, wiring, the event heap,
/// virtual time, the RNG, and the statistics registry.
pub struct Simulation {
    components: Vec<Box<dyn Component>>,
    names: Vec<String>,
    /// Outgoing links, indexed `[component][out_port]` — a flat lookup on
    /// the per-emission hot path (out-port numbers are small and dense).
    wiring: Vec<Vec<Option<Link>>>,
    heap: BinaryHeap<Reverse<Scheduled>>,
    now: Time,
    seq: u64,
    rng: SimRng,
    stats: Stats,
    trace: TraceRing,
    metrics: Metrics,
    started: bool,
    events_processed: u64,
}

impl Simulation {
    /// Create an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            components: Vec::new(),
            names: Vec::new(),
            wiring: Vec::new(),
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            rng: SimRng::new(seed),
            stats: Stats::new(),
            trace: TraceRing::disabled(),
            metrics: Metrics::disabled(),
            started: false,
            events_processed: 0,
        }
    }

    /// Register a component; the returned id addresses it in wiring and
    /// direct sends.
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

    /// Schedule an event for delivery `delay` after the current time.
    pub fn post(&mut self, dst: ComponentId, port: InPort, payload: Payload, delay: Time) {
        let time = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            seq,
            dst,
            port,
            payload,
        }));
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable view of the statistics registry.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable view of the statistics registry (e.g. for resetting between
    /// measurement phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Registered name of a component.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of registered components (ids are `0..count`).
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Keep the last `capacity` [`Ctx::trace`] records for debugging.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = TraceRing::with_capacity(capacity);
    }

    /// The trace ring (render with
    /// [`TraceRing::render`](crate::trace::TraceRing::render)).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Render the retained trace with component names resolved. Takes
    /// `&mut self` because rendering consumes the dropped-records notice
    /// (see [`TraceRing::render`]).
    pub fn render_trace(&mut self) -> String {
        let names = &self.names;
        self.trace.render(|id| names[id.0 as usize].clone())
    }

    /// Turn on the metrics registry; [`Ctx::metrics`] writes are recorded
    /// from here on. Off by default so unmetered runs stay byte-identical.
    pub fn enable_metrics(&mut self) {
        self.metrics.enable();
    }

    /// Immutable view of the metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable view of the metrics registry (e.g. for resetting between
    /// measurement phases).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Downcast a component to its concrete type, if it opted in via
    /// [`Component::as_any`]. For harness inspection between runs.
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        self.components[id.0 as usize].as_any()?.downcast_ref()
    }

    /// Mutable variant of [`Simulation::component`].
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        self.components[id.0 as usize].as_any_mut()?.downcast_mut()
    }

    /// Is the pending-event set empty? A simulation that is idle *and*
    /// has components reporting unfinished obligations
    /// ([`Component::health`]) has quiesced into a deadlock: nothing
    /// will ever run again.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Collect [`Component::health`] reports from every component that
    /// provides one, in registration order, with names resolved.
    pub fn health_reports(&self) -> Vec<(String, crate::watchdog::Health)> {
        self.components
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.health().map(|h| (self.names[i].clone(), h)))
            .collect()
    }

    /// Assemble a typed stall report from the current state (see
    /// [`crate::watchdog`]). The caller decides the [`StallKind`] — it
    /// knows whether the run quiesced or overran its deadline.
    pub fn diagnose(&self, kind: crate::watchdog::StallKind) -> crate::watchdog::Diagnosis {
        crate::watchdog::Diagnosis {
            kind,
            at: self.now,
            events_processed: self.events_processed,
            components: self.health_reports(),
        }
    }

    /// Run until the heap is empty or a component requested a stop.
    /// Returns the number of events processed by this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }

    /// Run events with `time <= horizon`; time advances to the last
    /// delivered event (not to the horizon itself if the heap runs dry).
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        self.start_components();
        let mut delivered = 0u64;
        let mut stop = false;
        while !stop {
            // Peek first, so overshoot events past the horizon stay in
            // place instead of being popped and re-pushed.
            if let Some(Reverse(ev)) = self.heap.peek() {
                if ev.time > horizon {
                    break;
                }
            }
            let Some(Reverse(ev)) = self.heap.pop() else {
                break;
            };
            debug_assert!(ev.time <= horizon, "the peek bounds the popped event");
            debug_assert!(
                ev.time >= self.now,
                "time must be monotone: event for {:?} port {:?} at t={} < now={}",
                ev.dst,
                ev.port,
                ev.time,
                self.now
            );
            self.now = ev.time;
            self.dispatch(ev, &mut stop);
            delivered += 1;
        }
        self.events_processed += delivered;
        delivered
    }

    /// Run exactly one event if one is pending. Returns `false` if idle.
    pub fn step(&mut self) -> bool {
        self.start_components();
        let Some(Reverse(ev)) = self.heap.pop() else {
            return false;
        };
        self.now = ev.time;
        let mut stop = false;
        self.dispatch(ev, &mut stop);
        self.events_processed += 1;
        true
    }

    fn start_components(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.components.len() {
            let id = ComponentId(i as u32);
            let mut stop = false;
            let mut ctx = Ctx {
                now: self.now,
                me: id,
                emissions: Vec::new(),
                rng: &mut self.rng,
                stats: &mut self.stats,
                stop_requested: &mut stop,
                trace: &mut self.trace,
                metrics: &mut self.metrics,
            };
            self.components[i].on_start(&mut ctx);
            let emissions = ctx.emissions;
            self.commit(id, emissions);
        }
    }

    fn dispatch(&mut self, ev: Scheduled, stop: &mut bool) {
        let id = ev.dst;
        let idx = id.0 as usize;
        assert!(
            idx < self.components.len(),
            "event at t={} on port {:?} addressed to unknown component {:?} \
             ({} registered)",
            ev.time,
            ev.port,
            id,
            self.components.len()
        );
        let mut ctx = Ctx {
            now: self.now,
            me: id,
            emissions: Vec::new(),
            rng: &mut self.rng,
            stats: &mut self.stats,
            stop_requested: stop,
            trace: &mut self.trace,
            metrics: &mut self.metrics,
        };
        let event = Event {
            time: ev.time,
            dst: id,
            port: ev.port,
            payload: ev.payload,
        };
        self.components[idx].on_event(event, &mut ctx);
        let emissions = ctx.emissions;
        self.commit(id, emissions);
    }

    fn commit(&mut self, src: ComponentId, emissions: Vec<Emission>) {
        for e in emissions {
            match e {
                Emission::Output {
                    port,
                    payload,
                    extra_delay,
                } => {
                    let link = self.wiring[src.0 as usize]
                        .get(port.0 as usize)
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| {
                            panic!(
                                "component `{}` emitted on unwired output port {:?}",
                                self.names[src.0 as usize], port
                            )
                        });
                    self.post(link.dst, link.port, payload, link.latency + extra_delay);
                }
                Emission::Direct {
                    dst,
                    port,
                    payload,
                    delay,
                } => self.post(dst, port, payload, delay),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    struct Recorder {
        log: std::sync::Arc<std::sync::Mutex<Vec<(Time, u32)>>>,
        tag: u32,
    }
    impl Component for Recorder {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let _ = ev;
            self.log.lock().unwrap().push((ctx.now(), self.tag));
        }
    }

    #[test]
    fn ties_break_in_post_order() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulation::new(1);
        let a = sim.add_component(
            "a",
            Recorder {
                log: log.clone(),
                tag: 1,
            },
        );
        let b = sim.add_component(
            "b",
            Recorder {
                log: log.clone(),
                tag: 2,
            },
        );
        // Post b first, then a, at the same timestamp: delivery order must
        // match post order regardless of component ids.
        sim.post(b, InPort(0), Payload::empty(), Time::from_ns(10));
        sim.post(a, InPort(0), Payload::empty(), Time::from_ns(10));
        sim.run();
        let got: Vec<u32> = log.lock().unwrap().iter().map(|&(_, t)| t).collect();
        assert_eq!(got, vec![2, 1]);
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
    fn stop_request_halts_run() {
        struct Stopper {
            after: u64,
        }
        impl Component for Stopper {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                if self.after == 0 {
                    ctx.stop();
                } else {
                    self.after -= 1;
                    ctx.wake_me(InPort(0), Payload::empty(), Time::NS);
                }
            }
        }
        let mut sim = Simulation::new(0);
        let c = sim.add_component("s", Stopper { after: 5 });
        sim.post(c, InPort(0), Payload::empty(), Time::ZERO);
        let n = sim.run();
        assert_eq!(n, 6);
    }

    #[test]
    fn on_start_runs_once_before_events() {
        struct Starter {
            started: u32,
        }
        impl Component for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started += 1;
                ctx.wake_me(InPort(0), Payload::empty(), Time::NS);
            }
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.stats().add("starter.events", 1);
            }
        }
        let mut sim = Simulation::new(0);
        let _ = sim.add_component("s", Starter { started: 0 });
        sim.run();
        assert_eq!(sim.stats().get("starter.events"), 1);
        sim.run(); // idempotent: start hooks don't fire again
        assert_eq!(sim.stats().get("starter.events"), 1);
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
