//! The simulation executive: the one type that owns components,
//! wiring, virtual time, and the run loop.
//!
//! A [`Simulation`] places its components into shards (see
//! [`crate::shard`]) and runs them through the windowed executor in
//! [`crate::exec`]. [`Simulation::new`] builds one shard — the
//! sequential case, where every event runs in `(time, seq)` order off
//! one heap. [`Simulation::with_shards`] plus
//! [`Simulation::add_component_in`] partition the graph for the
//! partitioned case. Every shard runs on the calling thread.

use crate::component::{Component, ComponentId};
use crate::event::{InPort, OutPort, Payload};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::shard::{exchange_trays, Link, Shard, ShardId, Topology};
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::TraceRing;

/// The simulation executive. Build it — register components, wire
/// links, post initial events — then `run`.
pub struct Simulation {
    pub(crate) topo: Topology,
    pub(crate) shards: Vec<Shard>,
    started: bool,
}

impl Simulation {
    /// Create an empty one-shard simulation with a deterministic RNG
    /// seed.
    pub fn new(seed: u64) -> Simulation {
        Simulation::with_shards(seed, 1)
    }

    /// Create a simulation partitioned into `nshards` shards. Each shard
    /// gets an independent RNG stream forked deterministically from
    /// `seed` (in shard-id order), so draws inside one shard never
    /// depend on activity in another.
    pub fn with_shards(seed: u64, nshards: usize) -> Simulation {
        assert!(nshards > 0, "a simulation needs at least one shard");
        let mut master = SimRng::new(seed);
        let shards = (0..nshards)
            .map(|id| Shard::new(id as u32, master.fork(), nshards))
            .collect();
        Simulation {
            topo: Topology::default(),
            shards,
            started: false,
        }
    }

    /// Register a component into shard 0; the returned id addresses it
    /// in wiring and direct sends.
    pub fn add_component<C: Component>(&mut self, name: &str, c: C) -> ComponentId {
        self.add_component_in(ShardId(0), name, c)
    }

    /// Register a component into `shard`; the returned id is global
    /// (usable in wiring and direct sends regardless of shard).
    pub fn add_component_in<C: Component>(
        &mut self,
        shard: ShardId,
        name: &str,
        c: C,
    ) -> ComponentId {
        let s = shard.0 as usize;
        assert!(s < self.shards.len(), "unknown shard {shard:?}");
        let global = ComponentId(self.topo.names.len() as u32);
        let local = self.shards[s].components.len() as u32;
        self.shards[s].components.push(Box::new(c));
        self.topo.names.push(name.to_string());
        self.topo.owner.push((shard.0, local));
        self.topo.wiring.push(Vec::new());
        global
    }

    /// Wire `src.out_port` to `dst.in_port` with the given link latency.
    /// Re-connecting an already wired output port replaces the link.
    ///
    /// A link between components in *different* shards is a cross-shard
    /// edge: it must have positive latency (zero-latency edges admit no
    /// lookahead), and its latency bounds how far the window planner
    /// lets the destination shard run ahead of the source.
    pub fn connect(
        &mut self,
        src: ComponentId,
        out_port: OutPort,
        dst: ComponentId,
        in_port: InPort,
        latency: Time,
    ) {
        assert!(
            (dst.0 as usize) < self.topo.owner.len(),
            "connect: unknown destination component"
        );
        let (src_shard, _) = *self
            .topo
            .owner
            .get(src.0 as usize)
            .expect("connect: unknown source component");
        let (dst_shard, _) = self.topo.owner[dst.0 as usize];
        if src_shard != dst_shard {
            assert!(
                latency > Time::ZERO,
                "cross-shard link `{}` -> `{}` must have positive latency: \
                 zero-latency edges admit no conservative lookahead",
                self.topo.names[src.0 as usize],
                self.topo.names[dst.0 as usize],
            );
            let pair = self
                .topo
                .edges
                .entry((src_shard, dst_shard))
                .or_insert(Time::MAX);
            *pair = (*pair).min(latency);
        }
        let ports = &mut self.topo.wiring[src.0 as usize];
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

    /// Schedule an event `delay` after the owning shard's current time.
    pub fn post(&mut self, dst: ComponentId, port: InPort, payload: Payload, delay: Time) {
        let (shard, _) = self.topo.owner[dst.0 as usize];
        let sh = &mut self.shards[shard as usize];
        let time = sh.now + delay;
        sh.push_local(time, dst, port, payload);
    }

    /// Current virtual time: the latest shard-local time (shards with no
    /// work lag behind the frontier; this reports the frontier).
    pub fn now(&self) -> Time {
        self.shards.iter().map(|s| s.now).max().unwrap_or(Time::ZERO)
    }

    /// Total events delivered so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Registered name of a component.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.topo.names[id.0 as usize]
    }

    /// Number of registered components (ids are `0..count`).
    pub fn component_count(&self) -> usize {
        self.topo.names.len()
    }

    /// Keep the last `capacity` [`Ctx::trace`](crate::Ctx::trace)
    /// records *per shard*.
    pub fn enable_tracing(&mut self, capacity: usize) {
        for s in &mut self.shards {
            s.trace = TraceRing::with_capacity(capacity);
        }
    }

    /// Turn on the metrics registry; [`Ctx::metrics`](crate::Ctx::metrics)
    /// writes are recorded from here on. Off by default so unmetered runs
    /// stay byte-identical.
    pub fn enable_metrics(&mut self) {
        for s in &mut self.shards {
            s.metrics.enable();
        }
    }

    /// The statistics registry: every shard's counters merged (see
    /// [`Stats::merge_from`]) in shard-id order, then every component's
    /// [`Component::publish`] in shard and index order. Owned: assembled
    /// on demand.
    pub fn stats(&self) -> Stats {
        let mut out = Stats::new();
        for s in &self.shards {
            out.merge_from(&s.stats);
        }
        for s in &self.shards {
            for c in &s.components {
                c.publish(&mut out);
            }
        }
        out
    }

    /// The metrics registry, merged across shards in shard-id order.
    pub fn metrics(&self) -> Metrics {
        let mut out = Metrics::disabled();
        for s in &self.shards {
            out.merge_from(&s.metrics);
        }
        out
    }

    /// The trace, merged across shards into canonical (time, shard,
    /// intra-shard) order (see [`TraceRing::merged`]).
    pub fn trace(&self) -> TraceRing {
        TraceRing::merged(self.shards.iter().map(|s| s.trace.clone()).collect())
    }

    /// Trace records currently retained across all shards.
    pub fn trace_record_count(&self) -> usize {
        self.shards.iter().map(|s| s.trace.records().count()).sum()
    }

    /// Trace records evicted across all shards.
    pub fn trace_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.trace.dropped()).sum()
    }

    /// Render the merged trace with component names resolved.
    pub fn render_trace(&self) -> String {
        let names = &self.topo.names;
        self.trace().render(|id| names[id.0 as usize].clone())
    }

    /// Downcast a component to its concrete type, if it opted in via
    /// [`Component::as_any`]. For harness inspection between runs.
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let (shard, local) = self.topo.owner[id.0 as usize];
        self.shards[shard as usize].components[local as usize]
            .as_any()?
            .downcast_ref()
    }

    /// Is the pending-event set empty? A simulation that is idle *and*
    /// has components reporting unfinished obligations
    /// ([`Component::health`]) has quiesced into a deadlock: nothing
    /// will ever run again.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(Shard::is_idle)
    }

    /// Collect [`Component::health`] reports from every component that
    /// provides one, in registration order, with names resolved.
    pub fn health_reports(&self) -> Vec<(String, crate::watchdog::Health)> {
        (0..self.topo.names.len())
            .filter_map(|i| {
                let (shard, local) = self.topo.owner[i];
                self.shards[shard as usize].components[local as usize]
                    .health()
                    .map(|h| (self.topo.names[i].clone(), h))
            })
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

    /// Run events with `time <= horizon`; time advances to the last
    /// delivered event (not to the horizon itself if the heaps run dry).
    /// Returns the number of events delivered by this call.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        let before = self.events_processed();
        self.start_components();
        crate::exec::run_windows(self, horizon);
        self.events_processed() - before
    }

    /// Run every component's `on_start` hook once, in global-id order,
    /// and exchange any cross-shard emissions they made.
    fn start_components(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for global in 0..self.topo.owner.len() {
            let (shard, local) = self.topo.owner[global];
            let Self { topo, shards, .. } = self;
            shards[shard as usize].start_component(topo, local, ComponentId(global as u32));
        }
        exchange_trays(&mut self.shards);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Ctx;
    use crate::event::Event;

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

    /// Keeps a typed event count and writes it only when the registry is
    /// read: `pub.{tag}.seen` once anything was seen, plus a share of
    /// the additive `shared` counter handlers also bump, and the
    /// last-writer-wins `last` gauge.
    struct Publisher {
        tag: u64,
        seen: u64,
    }
    impl Component for Publisher {
        fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
            self.seen += 1;
            ctx.stats().add("shared", 1);
        }
        fn publish(&self, stats: &mut Stats) {
            if self.seen > 0 {
                stats.set(&format!("pub.{}.seen", self.tag), self.seen);
                stats.add("shared", 10);
            }
            stats.set("last", self.tag);
        }
    }

    #[test]
    fn publish_merges_with_shard_counters() {
        let mut sim = Simulation::with_shards(0, 2);
        let a = sim.add_component_in(ShardId(0), "a", Publisher { tag: 1, seen: 0 });
        let b = sim.add_component_in(ShardId(1), "b", Publisher { tag: 2, seen: 0 });
        for t in 0..3 {
            sim.post(a, InPort(0), Payload::empty(), Time::from_ns(t));
        }
        sim.post(b, InPort(0), Payload::empty(), Time::from_ns(1));
        sim.run();
        let stats = sim.stats();
        assert_eq!(stats.get("pub.1.seen"), 3);
        assert_eq!(stats.get("pub.2.seen"), 1);
        // 4 handler increments (merged from both shards) + 2 publishes.
        assert_eq!(stats.get("shared"), 4 + 20);
        // Reading twice publishes into a fresh registry each time.
        assert_eq!(sim.stats().to_json(), stats.to_json());
    }

    #[test]
    fn publish_runs_in_shard_then_index_order() {
        // Global ids run against shard order: the component added first
        // lives in the last shard, so it publishes last.
        let mut sim = Simulation::with_shards(0, 3);
        sim.add_component_in(ShardId(2), "late", Publisher { tag: 7, seen: 0 });
        sim.add_component_in(ShardId(0), "x", Publisher { tag: 8, seen: 0 });
        sim.add_component_in(ShardId(1), "y", Publisher { tag: 9, seen: 0 });
        sim.add_component_in(ShardId(1), "z", Publisher { tag: 5, seen: 0 });
        sim.run();
        assert_eq!(sim.stats().get("last"), 7);
        let mut sim = Simulation::with_shards(0, 2);
        sim.add_component_in(ShardId(1), "y", Publisher { tag: 9, seen: 0 });
        sim.add_component_in(ShardId(1), "z", Publisher { tag: 5, seen: 0 });
        sim.add_component_in(ShardId(0), "x", Publisher { tag: 8, seen: 0 });
        sim.run();
        assert_eq!(sim.stats().get("last"), 5, "index order within a shard");
    }

    #[test]
    fn components_that_never_publish_leave_no_keys() {
        let mut sim = Simulation::new(0);
        let c = sim.add_component("ctr", Counter { seen: vec![] });
        sim.add_component("idle", Publisher { tag: 3, seen: 0 });
        sim.post(c, InPort(0), Payload::new(2u64), Time::ZERO);
        sim.run();
        // Counter uses the default no-op hook; the idle publisher saw no
        // event, so it writes only its unconditional gauge.
        assert_eq!(sim.stats().to_json(), r#"{"last":3}"#);
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
