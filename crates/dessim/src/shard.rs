//! Sharded simulation state for conservative parallel execution.
//!
//! A [`ShardedSim`] partitions its components into *shards*: islands of
//! the component graph whose only inter-island edges are positive-latency
//! wired links (in the MPI cluster: one host+NIC island per node, with
//! the fabric links as the only cross-shard edges). Each shard owns a
//! private event heap, RNG stream, statistics, trace ring, and metrics
//! registry, so shards can execute concurrently with no shared mutable
//! state.
//!
//! Execution advances in *windows* planned at every barrier. Under the
//! default [`WindowPolicy::PerEdge`] each shard gets its own bound from
//! the per-edge safe-time table (see [`crate::window`]): the minimum
//! over its incident cross-shard edges of the peer's safe time plus
//! that edge's latency. Under [`WindowPolicy::Global`] — the original
//! algorithm, kept as a baseline — let `L` be the **lookahead** (the
//! minimum latency over all cross-shard links); if the earliest pending
//! event anywhere sits at time `t`, every shard shares the window
//! `[_, t + L)`. Either way shards execute their in-window events
//! freely and in parallel (no null messages, no rollback), then meet at
//! a barrier where buffered cross-shard events are exchanged and the
//! next windows are planned.
//!
//! The barrier itself is O(edges), not O(events): each source shard
//! keeps one *tray* per destination, trays record their minimum event
//! time as they fill, and the exchange just pointer-swaps each full
//! tray with the destination's empty mailbox buffer for that edge (the
//! emptied buffer returns to the sender — a per-edge free list, so
//! steady-state exchange allocates nothing). Arrived events are then
//! *batch-drained* inside the destination shard's next window: one
//! canonical-order sequence assignment, one sort, one bulk heap append,
//! executed in parallel across shards instead of serially at the
//! barrier. Direct (unwired) cross-shard sends are only safe along
//! pairs that also have a registered link; the barrier asserts every
//! arrival lands at or past its destination's window floor.
//!
//! **Determinism by construction.** The window schedule depends only on
//! heap contents; per-shard execution order depends only on each shard's
//! private `(time, seq)` heap; and the barrier exchange assigns arrival
//! sequence numbers in the canonical order above. None of these depend
//! on how many OS threads carry the shards, so every statistic, trace
//! record, and metric is bit-identical across worker-thread counts —
//! enforced by `tests/parallel_determinism.rs` at the workspace root.
//!
//! The windowed executor itself lives in [`crate::exec`].

use crate::component::{Component, ComponentId, Ctx, Emission};
use crate::event::{Event, InPort, OutPort, Payload};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::scheduler::{Link, Scheduled};
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::TraceRing;
use crate::window::WindowPolicy;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Identifies a shard within a [`ShardedSim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ShardId(pub u32);

/// The immutable, thread-shared part of a sharded simulation: component
/// names, the shard each component lives in, the wiring table, and the
/// lookahead derived from it.
pub(crate) struct Topology {
    /// Global component id -> registered name.
    names: Vec<String>,
    /// Global component id -> (owning shard, index within the shard).
    owner: Vec<(u32, u32)>,
    /// Outgoing links indexed `[global component][out port]`.
    wiring: Vec<Vec<Option<Link>>>,
    /// Minimum latency over all cross-shard links; [`Time::MAX`] when no
    /// cross-shard link exists (single shard, or disconnected islands).
    lookahead: Time,
    /// Minimum link latency per ordered cross-shard pair
    /// `(src_shard, dst_shard)` — the shard graph the per-edge
    /// safe-time table relaxes over. `BTreeMap` keeps iteration
    /// deterministic.
    edges: BTreeMap<(u32, u32), Time>,
}

impl Topology {
    /// The cross-shard pair graph (ordered pairs, minimum latency each).
    pub(crate) fn edges(&self) -> impl Iterator<Item = ((u32, u32), Time)> + '_ {
        self.edges.iter().map(|(&k, &v)| (k, v))
    }
}

/// A cross-shard event buffered in a tray until the next barrier.
struct CrossEvent {
    time: Time,
    dst: ComponentId,
    port: InPort,
    payload: Payload,
}

/// One direction of one cross-shard edge's event buffer. The minimum
/// event time is tracked on push so the barrier can check the lookahead
/// invariant per *edge* instead of per *event*, and the buffer itself
/// ping-pongs between the sender's tray slot and the receiver's mailbox
/// slot — the per-edge free list that keeps steady-state exchange
/// allocation-free.
#[derive(Default)]
struct Tray {
    events: Vec<CrossEvent>,
    min_time: Option<Time>,
}

impl Tray {
    fn push(&mut self, ev: CrossEvent) {
        self.min_time = Some(match self.min_time {
            Some(m) => m.min(ev.time),
            None => ev.time,
        });
        self.events.push(ev);
    }

    fn reset(&mut self) {
        self.events.clear();
        self.min_time = None;
    }
}

/// One shard: a private slice of the component graph plus everything it
/// needs to execute events without touching other shards.
pub(crate) struct Shard {
    id: u32,
    components: Vec<Box<dyn Component>>,
    heap: BinaryHeap<Reverse<Scheduled>>,
    now: Time,
    seq: u64,
    rng: SimRng,
    stats: Stats,
    trace: TraceRing,
    metrics: Metrics,
    pub(crate) stop: bool,
    events_processed: u64,
    /// Outbound cross-shard events, one tray per destination shard,
    /// appended in emission order during a window and swapped into the
    /// destinations' mailboxes at the barrier.
    trays: Vec<Tray>,
    /// Inbound cross-shard events, one buffer per source shard, filled
    /// by the barrier swap and batch-drained at the start of this
    /// shard's next window.
    mailbox: Vec<Tray>,
    /// Minimum event time across all mailbox buffers ([`Time::MAX`]
    /// when they are empty) — lets `next_time` stay O(1).
    mailbox_min: Time,
    /// End of the last window this shard executed: no future arrival
    /// may land below it (asserted per edge at every barrier).
    pub(crate) floor: Time,
}

impl Shard {
    fn new(id: u32, rng: SimRng, nshards: usize) -> Shard {
        Shard {
            id,
            components: Vec::new(),
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            rng,
            stats: Stats::new(),
            trace: TraceRing::disabled(),
            metrics: Metrics::disabled(),
            stop: false,
            events_processed: 0,
            trays: (0..nshards).map(|_| Tray::default()).collect(),
            mailbox: (0..nshards).map(|_| Tray::default()).collect(),
            mailbox_min: Time::MAX,
            floor: Time::ZERO,
        }
    }

    /// Earliest pending event, counting undrained mailbox arrivals.
    pub(crate) fn next_time(&self) -> Option<Time> {
        let local = self.heap.peek().map(|Reverse(ev)| ev.time);
        match (local, self.mailbox_min) {
            (_, Time::MAX) => local,
            (Some(l), m) => Some(l.min(m)),
            (None, m) => Some(m),
        }
    }

    /// Move every mailbox arrival into the local heap: assign arrival
    /// sequence numbers in canonical order (source shard id, then
    /// emission order — identical at every thread count), then one sort
    /// and one bulk heap append. Runs inside the shard's own window, in
    /// parallel with other shards, instead of serially at the barrier.
    fn drain_mailbox(&mut self) {
        if self.mailbox_min == Time::MAX {
            return;
        }
        let mut seq = self.seq;
        let mut batch: Vec<Reverse<Scheduled>> = Vec::new();
        for tray in &mut self.mailbox {
            for ev in tray.events.drain(..) {
                batch.push(Reverse(Scheduled {
                    time: ev.time,
                    seq,
                    dst: ev.dst,
                    port: ev.port,
                    payload: ev.payload,
                }));
                seq += 1;
            }
            tray.min_time = None;
        }
        self.seq = seq;
        self.mailbox_min = Time::MAX;
        // Ascending (time, seq) order is a valid layout for the
        // min-heap, so `from` + `append` is a linear-time bulk insert.
        batch.sort_unstable_by_key(|Reverse(a)| (a.time, a.seq));
        let mut incoming = BinaryHeap::from(batch);
        self.heap.append(&mut incoming);
    }

    fn push_local(&mut self, time: Time, dst: ComponentId, port: InPort, payload: Payload) {
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

    /// Execute every pending event with `time < window_end`. Safe to run
    /// concurrently with other shards inside the same window: nothing
    /// here touches shared mutable state (cross-shard emissions go to
    /// local trays, and the mailbox drained here was filled at the
    /// previous barrier).
    pub(crate) fn run_window(&mut self, topo: &Topology, window_end: Time) -> u64 {
        // Nothing runnable this round: leave the shard untouched. The
        // floor stays put (this shard guarantees nothing beyond what it
        // has actually executed) and mailbox arrivals — all at or past
        // the bound — wait for a window that can run them. The decision
        // depends only on simulation state, never on thread count.
        match self.next_time() {
            Some(next) if next < window_end => {}
            _ => return 0,
        }
        debug_assert!(
            window_end >= self.floor,
            "window bounds must be monotone per shard: end={} < floor={}",
            window_end,
            self.floor
        );
        self.drain_mailbox();
        self.floor = self.floor.max(window_end);
        let mut delivered = 0u64;
        loop {
            match self.heap.peek() {
                Some(Reverse(head)) if head.time < window_end => {}
                _ => break,
            }
            let Reverse(ev) = self.heap.pop().expect("peeked above");
            debug_assert!(
                ev.time >= self.now,
                "time must be monotone within a shard: t={} < now={}",
                ev.time,
                self.now
            );
            self.now = ev.time;
            self.dispatch(topo, ev);
            delivered += 1;
        }
        self.events_processed += delivered;
        delivered
    }

    fn dispatch(&mut self, topo: &Topology, ev: Scheduled) {
        let (shard, local) = topo.owner[ev.dst.0 as usize];
        debug_assert_eq!(shard, self.id, "event routed to the wrong shard");
        let mut ctx = Ctx {
            now: self.now,
            me: ev.dst,
            emissions: Vec::new(),
            rng: &mut self.rng,
            stats: &mut self.stats,
            stop_requested: &mut self.stop,
            trace: &mut self.trace,
            metrics: &mut self.metrics,
        };
        let event = Event {
            time: ev.time,
            dst: ev.dst,
            port: ev.port,
            payload: ev.payload,
        };
        self.components[local as usize].on_event(event, &mut ctx);
        let emissions = ctx.emissions;
        self.commit(topo, ev.dst, emissions);
    }

    fn start_component(&mut self, topo: &Topology, local: u32, global: ComponentId) {
        let mut ctx = Ctx {
            now: self.now,
            me: global,
            emissions: Vec::new(),
            rng: &mut self.rng,
            stats: &mut self.stats,
            stop_requested: &mut self.stop,
            trace: &mut self.trace,
            metrics: &mut self.metrics,
        };
        self.components[local as usize].on_start(&mut ctx);
        let emissions = ctx.emissions;
        self.commit(topo, global, emissions);
    }

    fn commit(&mut self, topo: &Topology, src: ComponentId, emissions: Vec<Emission>) {
        for e in emissions {
            match e {
                Emission::Output {
                    port,
                    payload,
                    extra_delay,
                } => {
                    let link = topo.wiring[src.0 as usize]
                        .get(port.0 as usize)
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| {
                            panic!(
                                "component `{}` emitted on unwired output port {:?}",
                                topo.names[src.0 as usize], port
                            )
                        });
                    let time = self.now + link.latency + extra_delay;
                    self.route(topo, time, link.dst, link.port, payload);
                }
                Emission::Direct {
                    dst,
                    port,
                    payload,
                    delay,
                } => {
                    let time = self.now + delay;
                    self.route(topo, time, dst, port, payload);
                }
            }
        }
    }

    fn route(&mut self, topo: &Topology, time: Time, dst: ComponentId, port: InPort, payload: Payload) {
        let (dst_shard, _) = topo.owner[dst.0 as usize];
        if dst_shard == self.id {
            self.push_local(time, dst, port, payload);
        } else {
            self.trays[dst_shard as usize].push(CrossEvent {
                time,
                dst,
                port,
                payload,
            });
        }
    }
}

/// A partitioned simulation: the sharded counterpart of
/// [`Simulation`](crate::Simulation), executed by the windowed loop in
/// [`crate::exec`].
///
/// Build it like a `Simulation` — register components (into explicit
/// shards), wire links, post initial events — then `run`. The number of
/// worker threads ([`ShardedSim::set_threads`]) affects wall-clock time
/// only; all observable output is bit-identical across thread counts.
pub struct ShardedSim {
    pub(crate) topo: Topology,
    pub(crate) shards: Vec<Shard>,
    threads: usize,
    started: bool,
    /// How window bounds are planned at each barrier (the per-shard
    /// floors live on the shards themselves).
    window_policy: WindowPolicy,
}

impl ShardedSim {
    /// Create a simulation partitioned into `nshards` shards. Each shard
    /// gets an independent RNG stream forked deterministically from
    /// `seed` (in shard-id order), so draws inside one shard never
    /// depend on activity in another.
    pub fn new(seed: u64, nshards: usize) -> ShardedSim {
        assert!(nshards > 0, "a sharded simulation needs at least one shard");
        let mut master = SimRng::new(seed);
        let shards = (0..nshards)
            .map(|id| Shard::new(id as u32, master.fork(), nshards))
            .collect();
        ShardedSim {
            topo: Topology {
                names: Vec::new(),
                owner: Vec::new(),
                wiring: Vec::new(),
                lookahead: Time::MAX,
                edges: BTreeMap::new(),
            },
            shards,
            threads: 1,
            started: false,
            window_policy: WindowPolicy::default(),
        }
    }

    /// How the executor plans window bounds (default:
    /// [`WindowPolicy::PerEdge`]). A pure performance knob *within* a
    /// policy: for a fixed policy, results are bit-identical at every
    /// thread count. Across policies the window schedule differs, which
    /// may legally reorder same-timestamp ties.
    pub fn window_policy(&self) -> WindowPolicy {
        self.window_policy
    }

    /// Select the window-planning policy for subsequent runs.
    pub fn set_window_policy(&mut self, policy: WindowPolicy) {
        self.window_policy = policy;
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads the next `run` will use (1 = inline on the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Select how many worker threads execute windows (`0` and `1` both
    /// mean one, on the calling thread). Thread count is a pure
    /// performance knob: results are identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Register a component into `shard`; the returned id is global
    /// (usable in wiring and direct sends regardless of shard).
    pub fn add_component<C: Component>(&mut self, shard: ShardId, name: &str, c: C) -> ComponentId {
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
    ///
    /// A link between components in *different* shards is a cross-shard
    /// edge: it must have positive latency (zero-latency edges admit no
    /// lookahead), and the minimum such latency becomes the global
    /// window width.
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
        let (src_shard, _) = self.topo.owner[src.0 as usize];
        let (dst_shard, _) = self.topo.owner[dst.0 as usize];
        if src_shard != dst_shard {
            assert!(
                latency > Time::ZERO,
                "cross-shard link `{}` -> `{}` must have positive latency: \
                 zero-latency edges admit no conservative lookahead",
                self.topo.names[src.0 as usize],
                self.topo.names[dst.0 as usize],
            );
            self.topo.lookahead = self.topo.lookahead.min(latency);
            let pair = self
                .topo
                .edges
                .entry((src_shard, dst_shard))
                .or_insert(Time::MAX);
            *pair = (*pair).min(latency);
        }
        let ports = self
            .topo
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

    /// The conservative lookahead: minimum cross-shard link latency, or
    /// [`Time::MAX`] when no cross-shard link exists (windows then span
    /// the whole run).
    pub fn lookahead(&self) -> Time {
        self.topo.lookahead
    }

    /// Schedule an event `delay` after the owning shard's current time.
    pub fn post(&mut self, dst: ComponentId, port: InPort, payload: Payload, delay: Time) {
        let (shard, _) = self.topo.owner[dst.0 as usize];
        let sh = &mut self.shards[shard as usize];
        let time = sh.now + delay;
        sh.push_local(time, dst, port, payload);
    }

    /// Latest shard-local time (shards with no work lag behind the
    /// frontier; this reports the frontier).
    pub fn now(&self) -> Time {
        self.shards.iter().map(|s| s.now).max().unwrap_or(Time::ZERO)
    }

    /// Total events delivered across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Registered name of a component.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.topo.names[id.0 as usize]
    }

    /// Number of registered components (global ids are `0..count`).
    pub fn component_count(&self) -> usize {
        self.topo.names.len()
    }

    /// Keep the last `capacity` trace records *per shard*.
    pub fn enable_tracing(&mut self, capacity: usize) {
        for s in &mut self.shards {
            s.trace = TraceRing::with_capacity(capacity);
        }
    }

    /// Turn on every shard's metrics registry.
    pub fn enable_metrics(&mut self) {
        for s in &mut self.shards {
            s.metrics.enable();
        }
    }

    /// All shards' statistics merged into one registry (see
    /// [`Stats::merge_from`]), in shard-id order.
    pub fn stats_merged(&self) -> Stats {
        let mut out = Stats::new();
        for s in &self.shards {
            out.merge_from(&s.stats);
        }
        out
    }

    /// All shards' metrics merged into one registry, in shard-id order.
    pub fn metrics_merged(&self) -> Metrics {
        let mut out = Metrics::disabled();
        for s in &self.shards {
            out.merge_from(&s.metrics);
        }
        out
    }

    /// All shards' trace rings merged into canonical (time, shard,
    /// intra-shard) order.
    pub fn trace_merged(&self) -> TraceRing {
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
        let mut merged = self.trace_merged();
        merged.render(|id| names[id.0 as usize].clone())
    }

    /// Downcast a component to its concrete type, if it opted in via
    /// [`Component::as_any`].
    pub fn component<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let (shard, local) = self.topo.owner[id.0 as usize];
        self.shards[shard as usize].components[local as usize]
            .as_any()?
            .downcast_ref()
    }

    /// Mutable variant of [`ShardedSim::component`].
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        let (shard, local) = self.topo.owner[id.0 as usize];
        self.shards[shard as usize].components[local as usize]
            .as_any_mut()?
            .downcast_mut()
    }

    /// Are all shard heaps and mailboxes empty?
    pub fn is_idle(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.heap.is_empty() && s.mailbox_min == Time::MAX)
    }

    /// Collect [`Component::health`] reports in global-id order.
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

    /// Assemble a typed stall report (see [`crate::watchdog`]).
    pub fn diagnose(&self, kind: crate::watchdog::StallKind) -> crate::watchdog::Diagnosis {
        crate::watchdog::Diagnosis {
            kind,
            at: self.now(),
            events_processed: self.events_processed(),
            components: self.health_reports(),
        }
    }

    /// Did any component request a stop during the last run?
    pub fn stop_requested(&self) -> bool {
        self.shards.iter().any(|s| s.stop)
    }

    /// Run until every heap is empty or a component requested a stop
    /// (honored at the next window barrier). Returns events delivered.
    pub fn run(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }

    /// Run events with `time <= horizon` under the configured executor
    /// ([`ShardedSim::set_threads`]). Returns events delivered by this
    /// call.
    pub fn run_until(&mut self, horizon: Time) -> u64 {
        let before = self.events_processed();
        self.start_components();
        crate::exec::run_windows(self, horizon, self.threads);
        self.events_processed() - before
    }

    /// Run every component's `on_start` hook once, in global-id order,
    /// and exchange any cross-shard emissions they made. Serial: start
    /// hooks run before time begins and are not worth parallelizing.
    pub(crate) fn start_components(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for global in 0..self.topo.owner.len() {
            let (shard, local) = self.topo.owner[global];
            let Self { topo, shards, .. } = self;
            shards[shard as usize].start_component(topo, local, ComponentId(global as u32));
        }
        let mut refs: Vec<&mut Shard> = self.shards.iter_mut().collect();
        exchange_trays(&mut refs);
    }

    /// Plan the next global window: `[_, window_end)` where `window_end`
    /// caps at `min(earliest event + lookahead, horizon + 1)`. `None`
    /// when no event at or below the horizon remains, or when the
    /// earliest event sits at the top of the representable range (see
    /// below) and no finite window can be formed past it.
    pub(crate) fn plan_window(shards_next: Option<Time>, lookahead: Time, horizon: Time) -> Option<Time> {
        let next = shards_next?;
        if next > horizon {
            return None;
        }
        // The window bound is exclusive and u64::MAX doubles as the
        // worker pool's shutdown sentinel, so no window may end past
        // u64::MAX - 1 (a simulated time of u64::MAX - 1 ps is over 500
        // years). Events at or above that bound are unreachable: report
        // "no window" instead of planning one that makes no progress.
        if next.0 >= u64::MAX - 1 {
            return None;
        }
        // No cross-shard edges means unbounded lookahead: one window
        // spans everything up to the horizon. Explicit fast path — the
        // saturating add below would land on the same cap, but only by
        // accident of saturation.
        if lookahead == Time::MAX {
            let end = horizon.0.saturating_add(1).min(u64::MAX - 1);
            debug_assert!(end > next.0, "window must make progress");
            return Some(Time(end));
        }
        let end = next
            .0
            .saturating_add(lookahead.0)
            .min(horizon.0.saturating_add(1))
            .min(u64::MAX - 1);
        debug_assert!(end > next.0, "window must make progress");
        Some(Time(end))
    }
}

/// Exchange all buffered cross-shard events at a barrier by swapping
/// each non-empty tray with the destination's (empty) mailbox buffer
/// for that edge — O(1) per edge, no per-event work on the driver
/// thread. Destinations batch-drain their mailboxes inside their next
/// window in canonical order (destination shard, then source shard,
/// then emission order), so arrival sequence numbers — and therefore
/// same-timestamp tie-breaks — are identical at every thread count.
///
/// Each destination's `floor` is the end of the window it just
/// executed: every arrival must be at or past it, otherwise that shard
/// already simulated beyond the event's delivery time and the lookahead
/// invariant is broken (e.g. a too-short direct send across shards, or
/// one over a pair with no registered link). The check costs one
/// comparison per edge thanks to the tray-tracked minimum. It runs on
/// the driver thread on purpose: a panic inside a pooled worker would
/// park the other workers at the window barrier instead of surfacing.
pub(crate) fn exchange_trays(shards: &mut [&mut Shard]) {
    let n = shards.len();
    for dst in 0..n {
        for src in 0..n {
            if src == dst || shards[src].trays[dst].events.is_empty() {
                continue;
            }
            let floor = shards[dst].floor;
            let tray = std::mem::take(&mut shards[src].trays[dst]);
            let min = tray.min_time.expect("non-empty tray tracks its minimum");
            assert!(
                min >= floor,
                "cross-shard event into `{}` at t={} violates the lookahead \
                 window (floor {}): a cross-shard delay shorter than the \
                 registered minimum link latency was used",
                shards[dst].id,
                min,
                floor
            );
            shards[dst].mailbox_min = shards[dst].mailbox_min.min(min);
            if shards[dst].mailbox[src].events.is_empty() {
                // Swap: the full tray becomes the mailbox buffer, and
                // the emptied buffer returns to the sender for the next
                // window — the common, allocation-free path.
                let mut spare = std::mem::replace(&mut shards[dst].mailbox[src], tray);
                spare.reset();
                shards[src].trays[dst] = spare;
            } else {
                // The destination skipped its last window (no runnable
                // work below its bound), so arrivals accumulate: append
                // behind the earlier ones to preserve round order.
                let mut tray = tray;
                let slot = &mut shards[dst].mailbox[src];
                slot.min_time = match slot.min_time {
                    Some(m) => Some(m.min(min)),
                    None => Some(min),
                };
                slot.events.append(&mut tray.events);
                tray.reset();
                shards[src].trays[dst] = tray;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Deliveries as `(time, tag, counter)`, shared by every forwarder.
    type RingLog = Arc<Mutex<Vec<(Time, u32, u64)>>>;

    /// Forwards a decrementing counter over its one output port.
    struct Fwd {
        log: RingLog,
        tag: u32,
    }
    impl Component for Fwd {
        fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let n = *ev.payload.downcast::<u64>().unwrap();
            self.log.lock().unwrap().push((ctx.now(), self.tag, n));
            ctx.stats().incr(&format!("fwd{}.events", self.tag));
            if n > 0 {
                ctx.emit(OutPort(0), Payload::new(n - 1));
            }
        }
    }

    /// A ring of `shards` components, one per shard, each forwarding to
    /// the next with `latency`.
    fn build_ring(nshards: usize, latency: Time, threads: usize) -> (ShardedSim, RingLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = ShardedSim::new(7, nshards);
        sim.set_threads(threads);
        let ids: Vec<ComponentId> = (0..nshards)
            .map(|s| {
                sim.add_component(
                    ShardId(s as u32),
                    &format!("fwd{s}"),
                    Fwd {
                        log: log.clone(),
                        tag: s as u32,
                    },
                )
            })
            .collect();
        for s in 0..nshards {
            sim.connect(ids[s], OutPort(0), ids[(s + 1) % nshards], InPort(0), latency);
        }
        (sim, log)
    }

    #[test]
    fn ring_routes_across_shards_with_latency() {
        let (mut sim, log) = build_ring(4, Time::from_ns(50), 1);
        sim.post(ComponentId(0), InPort(0), Payload::new(8u64), Time::ZERO);
        let n = sim.run();
        assert_eq!(n, 9);
        // 8 hops of 50 ns each after the t=0 start.
        assert_eq!(sim.now(), Time::from_ns(400));
        assert_eq!(log.lock().unwrap().len(), 9);
        assert_eq!(sim.lookahead(), Time::from_ns(50));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let (mut sim, log) = build_ring(5, Time::from_ns(30), threads);
            for s in 0..5u32 {
                sim.post(
                    ComponentId(s),
                    InPort(0),
                    Payload::new(20u64 + s as u64),
                    Time::from_ns(s as u64),
                );
            }
            sim.run();
            let events = log.lock().unwrap().clone();
            (sim.stats_merged().to_json(), sim.events_processed(), events)
        };
        let base = run(1);
        for t in [2, 4, 8] {
            let got = run(t);
            assert_eq!(got.0, base.0, "stats diverged at {t} threads");
            assert_eq!(got.1, base.1, "event count diverged at {t} threads");
            // The shared log's *append order* is thread-dependent (that's
            // wall-clock interleaving, not simulation state); its sorted
            // contents must match exactly.
            let mut a = base.2.clone();
            let mut b = got.2.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "delivered events diverged at {t} threads");
        }
    }

    #[test]
    fn single_shard_runs_whole_horizon_in_one_window() {
        let mut sim = ShardedSim::new(1, 1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_component(ShardId(0), "a", Fwd { log: log.clone(), tag: 0 });
        sim.connect(a, OutPort(0), a, InPort(0), Time::from_ns(5));
        sim.post(a, InPort(0), Payload::new(3u64), Time::ZERO);
        assert_eq!(sim.lookahead(), Time::MAX);
        sim.run();
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now(), Time::from_ns(15));
    }

    #[test]
    fn run_until_respects_horizon_and_resumes() {
        let (mut sim, _log) = build_ring(2, Time::from_ns(10), 2);
        sim.post(ComponentId(0), InPort(0), Payload::new(10u64), Time::ZERO);
        let first = sim.run_until(Time::from_ns(45));
        // Events at t = 0,10,20,30,40.
        assert_eq!(first, 5);
        assert_eq!(sim.now(), Time::from_ns(40));
        let rest = sim.run();
        assert_eq!(first + rest, 11);
    }

    #[test]
    #[should_panic(expected = "positive latency")]
    fn zero_latency_cross_shard_link_is_rejected() {
        let mut sim = ShardedSim::new(0, 2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_component(ShardId(0), "a", Fwd { log: log.clone(), tag: 0 });
        let b = sim.add_component(ShardId(1), "b", Fwd { log, tag: 1 });
        sim.connect(a, OutPort(0), b, InPort(0), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn short_direct_cross_send_is_caught_at_the_barrier() {
        // A component that direct-sends across shards with a delay
        // shorter than the registered lookahead: the barrier assert
        // must name the violation rather than silently reordering.
        struct Cheater {
            peer: ComponentId,
        }
        impl Component for Cheater {
            fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.send_to(self.peer, InPort(0), Payload::empty(), Time::from_ns(1));
                ctx.wake_me(InPort(1), Payload::empty(), Time::from_ns(500));
            }
        }
        struct Sink;
        impl Component for Sink {
            fn on_event(&mut self, _ev: Event, _ctx: &mut Ctx<'_>) {}
        }
        let mut sim = ShardedSim::new(0, 2);
        let b = sim.add_component(ShardId(1), "b", Sink);
        let a = sim.add_component(ShardId(0), "a", Cheater { peer: b });
        // Register legitimate 100 ns cross edges both ways, so each
        // shard's adaptive bound is finite (100 ns past the peer).
        sim.connect(a, OutPort(0), b, InPort(0), Time::from_ns(100));
        sim.connect(b, OutPort(0), a, InPort(0), Time::from_ns(100));
        // Seed activity on BOTH shards so b's first window runs to
        // t=100 ns — past the cheater's 1 ns delivery.
        sim.post(b, InPort(0), Payload::empty(), Time::ZERO);
        sim.post(a, InPort(0), Payload::empty(), Time::ZERO);
        sim.run();
    }

    #[test]
    fn adaptive_default_and_global_agree_on_semantic_order() {
        // Same ring workload under both window policies: the delivered
        // event sequence (sorted by time) and event count must agree —
        // window planning is a performance knob, not a semantics knob.
        let run = |policy: WindowPolicy| {
            let (mut sim, log) = build_ring(4, Time::from_ns(50), 2);
            sim.set_window_policy(policy);
            sim.post(ComponentId(0), InPort(0), Payload::new(12u64), Time::ZERO);
            sim.run();
            let mut events = log.lock().unwrap().clone();
            events.sort();
            (events, sim.events_processed(), sim.now())
        };
        assert_eq!(
            ShardedSim::new(0, 1).window_policy(),
            WindowPolicy::PerEdge,
            "adaptive lookahead is the default"
        );
        assert_eq!(run(WindowPolicy::PerEdge), run(WindowPolicy::Global));
    }

    #[test]
    fn heterogeneous_ring_results_identical_across_threads_and_policies() {
        // One 10 ns edge in a ring of 1 us edges — the shape adaptive
        // lookahead exists for. Every (policy, threads) combination must
        // deliver the same semantic event sequence.
        let run = |policy: WindowPolicy, threads: usize| {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut sim = ShardedSim::new(3, 4);
            sim.set_window_policy(policy);
            sim.set_threads(threads);
            let ids: Vec<ComponentId> = (0..4)
                .map(|s| {
                    sim.add_component(
                        ShardId(s as u32),
                        &format!("fwd{s}"),
                        Fwd { log: log.clone(), tag: s as u32 },
                    )
                })
                .collect();
            for s in 0..4usize {
                let lat = if s == 0 { Time::from_ns(10) } else { Time::from_us(1) };
                sim.connect(ids[s], OutPort(0), ids[(s + 1) % 4], InPort(0), lat);
            }
            sim.post(ids[0], InPort(0), Payload::new(16u64), Time::ZERO);
            sim.post(ids[2], InPort(0), Payload::new(9u64), Time::from_ns(4));
            sim.run();
            let mut events = log.lock().unwrap().clone();
            events.sort();
            (events, sim.events_processed(), sim.stats_merged().to_json())
        };
        let base = run(WindowPolicy::PerEdge, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(WindowPolicy::PerEdge, threads), base, "diverged at {threads} threads");
        }
        let global = run(WindowPolicy::Global, 1);
        assert_eq!(global.0, base.0, "policies disagree on delivered events");
        assert_eq!(global.1, base.1, "policies disagree on event count");
    }

    // ----- plan_window edge cases (the `saturating_add` satellite) -----

    #[test]
    fn plan_window_no_cross_edges_takes_the_fast_path() {
        // Infinite lookahead (no cross-shard edges): one window to the
        // horizon, not a saturation accident.
        assert_eq!(
            ShardedSim::plan_window(Some(Time(5)), Time::MAX, Time::from_ns(80)),
            Some(Time(Time::from_ns(80).0 + 1))
        );
        // Infinite lookahead AND infinite horizon: the cap just below
        // the pool's shutdown sentinel.
        assert_eq!(
            ShardedSim::plan_window(Some(Time(5)), Time::MAX, Time::MAX),
            Some(Time(u64::MAX - 1))
        );
    }

    #[test]
    fn plan_window_rejects_events_at_the_top_of_the_range() {
        // A pending event at or above u64::MAX - 1 admits no window that
        // makes progress; plan_window must say "no window", not cap
        // silently at the horizon.
        assert_eq!(ShardedSim::plan_window(Some(Time(u64::MAX)), Time::MAX, Time::MAX), None);
        assert_eq!(
            ShardedSim::plan_window(Some(Time(u64::MAX - 1)), Time::from_ns(10), Time::MAX),
            None
        );
        // One below the cutoff still plans.
        assert_eq!(
            ShardedSim::plan_window(Some(Time(u64::MAX - 2)), Time::from_ns(10), Time::MAX),
            Some(Time(u64::MAX - 1))
        );
    }

    #[test]
    fn plan_window_basics_still_hold() {
        // Ordinary case: next + lookahead, capped by horizon + 1.
        assert_eq!(
            ShardedSim::plan_window(Some(Time(100)), Time(30), Time(1000)),
            Some(Time(130))
        );
        assert_eq!(
            ShardedSim::plan_window(Some(Time(990)), Time(30), Time(1000)),
            Some(Time(1001))
        );
        // Past the horizon, or no events at all: no window.
        assert_eq!(ShardedSim::plan_window(Some(Time(1001)), Time(30), Time(1000)), None);
        assert_eq!(ShardedSim::plan_window(None, Time(30), Time(1000)), None);
    }

    #[test]
    fn per_shard_rngs_are_deterministic_and_independent() {
        let draws = |nshards: usize| -> Vec<u64> {
            struct Draw {
                out: Arc<Mutex<Vec<u64>>>,
            }
            impl Component for Draw {
                fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                    let v = ctx.rng().next_u64();
                    self.out.lock().unwrap().push(v);
                }
            }
            let out = Arc::new(Mutex::new(Vec::new()));
            let mut sim = ShardedSim::new(42, nshards);
            for s in 0..nshards {
                let c = sim.add_component(
                    ShardId(s as u32),
                    &format!("d{s}"),
                    Draw { out: out.clone() },
                );
                sim.post(c, InPort(0), Payload::empty(), Time::from_ns(s as u64));
            }
            sim.run();
            let mut v = out.lock().unwrap().clone();
            v.sort_unstable();
            v
        };
        // Same shard count -> same draws; the first shard's draw is also
        // stable when more shards exist (streams are forked per shard).
        assert_eq!(draws(3), draws(3));
        assert_eq!(draws(1).len(), 1);
    }

    #[test]
    fn stats_merge_in_shard_order_and_sum() {
        let (mut sim, _log) = build_ring(3, Time::from_ns(10), 2);
        sim.post(ComponentId(0), InPort(0), Payload::new(6u64), Time::ZERO);
        sim.run();
        let stats = sim.stats_merged();
        let total: u64 = (0..3).map(|t| stats.get(&format!("fwd{t}.events"))).sum();
        assert_eq!(total, 7);
    }
}
