//! Shards: the event heaps and the dispatch loop behind
//! [`Simulation`](crate::Simulation).
//!
//! A simulation partitions its components into *shards*: islands of the
//! component graph whose only inter-island edges are positive-latency
//! wired links (in the MPI cluster: one host+NIC island per node, with
//! the fabric links as the only cross-shard edges). Each shard owns a
//! private `(time, seq)` event heap, RNG stream, statistics, trace ring,
//! and metrics registry, so shards can execute concurrently with no
//! shared mutable state. A one-shard simulation is the sequential case:
//! with no cross-shard edges its first window spans the whole horizon,
//! and every event runs in `(time, seq)` order off one heap.
//!
//! Execution advances in *windows* planned at every barrier: each shard
//! gets its own bound from the per-edge safe-time table (see
//! [`crate::window`]) — the minimum over its incident cross-shard edges
//! of the peer's safe time plus that edge's latency. Shards execute
//! their in-window events freely and in parallel (no null messages, no
//! rollback), then meet at a barrier where buffered cross-shard events
//! are exchanged and the next windows are planned.
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
use crate::event::{Event, InPort, Payload};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::Time;
use crate::trace::TraceRing;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Identifies a shard within a [`Simulation`](crate::Simulation).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ShardId(pub u32);

/// One scheduled event in a shard's heap. Ordered by (time, seq): the
/// sequence number breaks ties deterministically in insertion order.
struct Scheduled {
    time: Time,
    seq: u64,
    dst: ComponentId,
    port: InPort,
    payload: Payload,
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

/// The immutable, thread-shared part of a simulation: component names,
/// the shard each component lives in, and the wiring table.
#[derive(Default)]
pub(crate) struct Topology {
    /// Global component id -> registered name.
    pub(crate) names: Vec<String>,
    /// Global component id -> (owning shard, index within the shard).
    pub(crate) owner: Vec<(u32, u32)>,
    /// Outgoing links indexed `[global component][out port]` — a flat
    /// lookup on the per-emission hot path (out-port numbers are small
    /// and dense).
    pub(crate) wiring: Vec<Vec<Option<Link>>>,
    /// Minimum link latency per ordered cross-shard pair
    /// `(src_shard, dst_shard)` — the shard graph the per-edge
    /// safe-time table relaxes over. `BTreeMap` keeps iteration
    /// deterministic.
    pub(crate) edges: BTreeMap<(u32, u32), Time>,
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
    pub(crate) components: Vec<Box<dyn Component>>,
    heap: BinaryHeap<Reverse<Scheduled>>,
    pub(crate) now: Time,
    seq: u64,
    rng: SimRng,
    pub(crate) stats: Stats,
    pub(crate) trace: TraceRing,
    pub(crate) metrics: Metrics,
    pub(crate) events_processed: u64,
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
    floor: Time,
}

impl Shard {
    pub(crate) fn new(id: u32, rng: SimRng, nshards: usize) -> Shard {
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

    /// Are the heap and the mailboxes empty?
    pub(crate) fn is_idle(&self) -> bool {
        self.heap.is_empty() && self.mailbox_min == Time::MAX
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

    pub(crate) fn push_local(&mut self, time: Time, dst: ComponentId, port: InPort, payload: Payload) {
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

    pub(crate) fn start_component(&mut self, topo: &Topology, local: u32, global: ComponentId) {
        let mut ctx = Ctx {
            now: self.now,
            me: global,
            emissions: Vec::new(),
            rng: &mut self.rng,
            stats: &mut self.stats,
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
    use crate::event::OutPort;
    use crate::Simulation;
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

    /// A ring of `n` forwarders, forwarder `i` feeding `i + 1` over the
    /// link `latency(i)`, placed round-robin over `nshards` shards (one
    /// shard = the sequential reference schedule).
    fn build_ring_with(
        n: usize,
        nshards: usize,
        latency: impl Fn(usize) -> Time,
        threads: usize,
    ) -> (Simulation, RingLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::with_shards(7, nshards);
        sim.set_threads(threads);
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| {
                sim.add_component_in(
                    ShardId((i % nshards) as u32),
                    &format!("fwd{i}"),
                    Fwd {
                        log: log.clone(),
                        tag: i as u32,
                    },
                )
            })
            .collect();
        for i in 0..n {
            sim.connect(ids[i], OutPort(0), ids[(i + 1) % n], InPort(0), latency(i));
        }
        (sim, log)
    }

    /// A ring of `nshards` forwarders, one per shard, each forwarding to
    /// the next with `latency`.
    fn build_ring(nshards: usize, latency: Time, threads: usize) -> (Simulation, RingLog) {
        build_ring_with(nshards, nshards, |_| latency, threads)
    }

    fn sorted(log: &RingLog) -> Vec<(Time, u32, u64)> {
        let mut events = log.lock().unwrap().clone();
        events.sort();
        events
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
        // Every ring link crosses shards, so each one is a planner edge.
        let edges: Vec<_> = sim.topo.edges().collect();
        assert_eq!(
            edges,
            [(0, 1), (1, 2), (2, 3), (3, 0)].map(|pair| (pair, Time::from_ns(50)))
        );
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
            (sim.stats().to_json(), sim.events_processed(), events)
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
        let mut sim = Simulation::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_component("a", Fwd { log: log.clone(), tag: 0 });
        sim.connect(a, OutPort(0), a, InPort(0), Time::from_ns(5));
        sim.post(a, InPort(0), Payload::new(3u64), Time::ZERO);
        // No cross-shard edge: the planner leaves the shard unbounded.
        assert_eq!(sim.topo.edges().count(), 0);
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
    fn plan_window_no_cross_edges_takes_the_fast_path() {
        // No cross-shard edge means infinite lookahead: the shard runs to
        // the horizon in one window, under a finite horizon and under an
        // infinite one (capped just below the pool's shutdown sentinel).
        let (mut sim, log) = build_ring(1, Time::from_ns(10), 1);
        assert_eq!(sim.topo.edges().count(), 0);
        sim.post(ComponentId(0), InPort(0), Payload::new(0u64), Time(5));
        assert_eq!(sim.run_until(Time::from_ns(80)), 1);
        // `post` delays are relative to the shard's clock, now at 5 ps.
        sim.post(ComponentId(0), InPort(0), Payload::new(0u64), Time::from_ns(90));
        assert_eq!(sim.run_until(Time::MAX), 1);
        let second = Time(Time::from_ns(90).0 + 5);
        assert_eq!(sorted(&log), vec![(Time(5), 0, 0), (second, 0, 0)]);
        assert!(sim.is_idle());
    }

    #[test]
    fn plan_window_rejects_events_at_the_top_of_the_range() {
        // Window bounds are exclusive and stay below u64::MAX (the worker
        // pool's shutdown sentinel), so an event at u64::MAX - 1 can never
        // run: `run` must return without delivering it instead of
        // spinning on windows that make no progress. One below the cutoff
        // still runs.
        for nshards in [1usize, 2] {
            let (mut sim, log) = build_ring(nshards, Time::from_ns(10), 1);
            let last = ComponentId(nshards as u32 - 1);
            sim.post(last, InPort(0), Payload::new(0u64), Time(u64::MAX - 1));
            assert_eq!(sim.run(), 0, "{nshards} shard(s)");
            assert!(!sim.is_idle(), "the unreachable event stays pending");
            assert!(log.lock().unwrap().is_empty());
            sim.post(ComponentId(0), InPort(0), Payload::new(0u64), Time(u64::MAX - 2));
            assert_eq!(sim.run_until(Time::MAX), 1, "{nshards} shard(s)");
            assert_eq!(sorted(&log), vec![(Time(u64::MAX - 2), 0, 0)]);
        }
    }

    #[test]
    #[should_panic(expected = "positive latency")]
    fn zero_latency_cross_shard_link_is_rejected() {
        let mut sim = Simulation::with_shards(0, 2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let a = sim.add_component_in(ShardId(0), "a", Fwd { log: log.clone(), tag: 0 });
        let b = sim.add_component_in(ShardId(1), "b", Fwd { log, tag: 1 });
        sim.connect(a, OutPort(0), b, InPort(0), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn short_direct_cross_send_is_caught_at_the_barrier() {
        // A component that direct-sends across shards with a delay
        // shorter than the registered link latency: the barrier assert
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
        let mut sim = Simulation::with_shards(0, 2);
        let b = sim.add_component_in(ShardId(1), "b", Sink);
        let a = sim.add_component_in(ShardId(0), "a", Cheater { peer: b });
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
    fn sharded_ring_matches_one_shard_reference() {
        // The same ring with every forwarder in one shard is the
        // sequential schedule. Sharding it over 4 shards at 2 threads
        // must deliver the same (time, payload) events: window planning
        // is a performance knob, not a semantics knob.
        let run = |nshards: usize| {
            let (mut sim, log) = build_ring_with(4, nshards, |_| Time::from_ns(50), 2);
            sim.post(ComponentId(0), InPort(0), Payload::new(12u64), Time::ZERO);
            sim.run();
            (sorted(&log), sim.events_processed(), sim.now())
        };
        let reference = run(1);
        assert_eq!(run(4), reference);
        // Closed form: 12 hops of 50 ns after the t=0 start.
        assert_eq!(reference.1, 13);
        assert_eq!(reference.2, Time::from_ns(600));
    }

    #[test]
    fn heterogeneous_ring_results_identical_across_threads_and_shard_layouts() {
        // One 10 ns edge in a ring of 1 us edges — the shape adaptive
        // lookahead exists for. Every thread count must deliver the same
        // events, and the same semantic event set as the one-shard
        // (sequential) layout.
        let run = |nshards: usize, threads: usize| {
            let latency = |i: usize| if i == 0 { Time::from_ns(10) } else { Time::from_us(1) };
            let (mut sim, log) = build_ring_with(4, nshards, latency, threads);
            sim.post(ComponentId(0), InPort(0), Payload::new(16u64), Time::ZERO);
            sim.post(ComponentId(2), InPort(0), Payload::new(9u64), Time::from_ns(4));
            sim.run();
            (sorted(&log), sim.events_processed(), sim.stats().to_json(), sim.now())
        };
        let base = run(4, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(4, threads), base, "diverged at {threads} threads");
        }
        let sequential = run(1, 1);
        assert_eq!(sequential.0, base.0, "shard layouts disagree on delivered events");
        assert_eq!(sequential.1, base.1, "shard layouts disagree on event count");
        // Closed form: a ring lap is 10 ns + 3 us. The 16-hop chain is
        // four laps from t=0; the 9-hop chain from node 2 at t=4 ns
        // finishes earlier (two laps plus one 1 us hop, at 7024 ns).
        assert_eq!(base.1, 17 + 10);
        assert_eq!(base.3, Time::from_ns(4 * 3010));
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
            let mut sim = Simulation::with_shards(42, nshards);
            for s in 0..nshards {
                let c = sim.add_component_in(
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
        let stats = sim.stats();
        let total: u64 = (0..3).map(|t| stats.get(&format!("fwd{t}.events"))).sum();
        assert_eq!(total, 7);
    }
}
