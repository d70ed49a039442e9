//! Properties of the adaptive per-edge lookahead planner under random
//! topologies and schedules.
//!
//! The engine enforces its safety invariant internally: the tray
//! exchange at every barrier asserts that no cross-shard event arrives
//! below the destination shard's execution floor — i.e. no shard ever
//! executed past the bound its incident edges allow. These tests drive
//! that assert with randomized component graphs (random shard
//! placement, random positive edge latencies, random fan-out cascades):
//! a planner that ever over-advances a shard panics with a "lookahead"
//! violation instead of silently reordering events.
//!
//! On top of not-panicking, the observable results are pinned:
//!
//! * determinism — running the same graph twice gives byte-identical
//!   delivery logs;
//! * layout independence — the set of (time, payload) deliveries at
//!   every node, and the event count, match the same graph built with
//!   every node in one shard, which is the sequential schedule (order
//!   within a timestamp may differ between layouts, so the comparison
//!   sorts).

use mpiq_dessim::{
    Component, Ctx, Event, InPort, OutPort, Payload, ShardId, SimRng, Simulation, Time,
};
use proptest::prelude::*;

/// Logs every delivery and forwards the cascade to all out-links until
/// the hop budget runs out.
struct Relay {
    fanout: u16,
    log: Vec<(Time, u64)>,
}

impl Component for Relay {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let hops = *ev.payload.downcast::<u64>().unwrap();
        self.log.push((ctx.now(), hops));
        if hops > 0 {
            for p in 0..self.fanout {
                ctx.emit(OutPort(p), Payload::new(hops - 1));
            }
        }
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A randomly generated cascade topology, reproducible from one seed.
struct Topo {
    nshards: usize,
    /// Per node: home shard.
    shard_of: Vec<usize>,
    /// Directed links `(src, dst, latency)`; `src`'s ports are assigned
    /// in list order.
    links: Vec<(usize, usize, Time)>,
    /// Per node: initial injection time.
    start: Vec<Time>,
}

impl Topo {
    fn random(seed: u64) -> Topo {
        let mut rng = SimRng::new(seed);
        let nshards = 2 + rng.gen_range(3) as usize; // 2..=4
        let nodes = 4 + rng.gen_range(5) as usize; // 4..=8
        let shard_of: Vec<usize> =
            (0..nodes).map(|_| rng.gen_range(nshards as u64) as usize).collect();
        let mut links = Vec::new();
        for src in 0..nodes {
            let fanout = rng.gen_range(3); // 0..=2 out-links
            for _ in 0..fanout {
                let dst = rng.gen_range(nodes as u64) as usize;
                // Latencies span 10 ns .. ~2 us: some edges are two
                // orders of magnitude shorter than others, so per-edge
                // bounds genuinely differ across shard pairs. Ragged
                // values keep most timestamps distinct.
                let lat = Time::from_ps(10_000 + rng.gen_range(2_000_000) * 13);
                links.push((src, dst, lat));
            }
        }
        let start = (0..nodes).map(|n| Time::from_ns(1 + 7 * n as u64)).collect();
        Topo { nshards, shard_of, links, start }
    }

    /// Build, run, and collect every node's delivery log plus the
    /// event count. `sharded: false` puts every node in one shard.
    fn run(&self, sharded: bool) -> (Vec<Vec<(Time, u64)>>, u64) {
        let mut sim = Simulation::with_shards(5, if sharded { self.nshards } else { 1 });
        let fanout_of = |n: usize| self.links.iter().filter(|(s, _, _)| *s == n).count() as u16;
        let ids: Vec<_> = (0..self.shard_of.len())
            .map(|n| {
                let shard = if sharded { self.shard_of[n] as u32 } else { 0 };
                sim.add_component_in(
                    ShardId(shard),
                    &format!("relay{n}"),
                    Relay { fanout: fanout_of(n), log: Vec::new() },
                )
            })
            .collect();
        let mut next_port = vec![0u16; ids.len()];
        for &(src, dst, lat) in &self.links {
            sim.connect(ids[src], OutPort(next_port[src]), ids[dst], InPort(0), lat);
            next_port[src] += 1;
        }
        for (n, &id) in ids.iter().enumerate() {
            sim.post(id, InPort(0), Payload::new(3u64), self.start[n]);
        }
        sim.run();
        let logs = ids
            .iter()
            .map(|&id| sim.component::<Relay>(id).expect("relay present").log.clone())
            .collect();
        (logs, sim.events_processed())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random cascades: the adaptive planner must (a) never trip the
    /// lookahead-safety assert, (b) repeat byte-for-byte, and
    /// (c) deliver the same (time, payload) multiset per node, and the
    /// same event count, as the one-shard sequential schedule.
    #[test]
    fn adaptive_planner_respects_per_edge_bounds(seed in any::<u64>()) {
        let topo = Topo::random(seed);
        let (reference, events) = topo.run(true);

        // Cascades with no links still inject one event per node.
        let total: usize = reference.iter().map(Vec::len).sum();
        prop_assert!(total >= topo.shard_of.len());

        let again = topo.run(true).0;
        prop_assert_eq!(
            &again, &reference,
            "adaptive logs diverged between runs (seed {})", seed
        );

        let (mut sequential, sequential_events) = topo.run(false);
        let mut sorted_ref = reference.clone();
        for log in sequential.iter_mut().chain(sorted_ref.iter_mut()) {
            log.sort_unstable();
        }
        prop_assert_eq!(
            sequential, sorted_ref,
            "sharded and one-shard layouts delivered different event sets (seed {})", seed
        );
        prop_assert_eq!(
            sequential_events, events,
            "sharded and one-shard layouts ran different event counts (seed {})", seed
        );
    }
}
