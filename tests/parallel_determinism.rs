//! The sharded engine's determinism contract, enforced end to end:
//! running any workload at any worker-thread count must produce
//! byte-identical statistics (and traces, when armed). A parallel
//! simulator whose results depend on the OS scheduler is not a
//! simulator; these tests make that a hard regression gate.

use mpiq::dessim::{
    Component, Ctx, Event, FaultConfig, InPort, OutPort, Payload, ShardId,
    ShardedSim, SimRng, Time,
};
use mpiq::net::WireProfile;
use mpiq_bench::{
    preposted_latency_cfg, run_soak, traced_preposted, traced_unexpected, unexpected_latency_cfg,
    NicVariant, PrepostedPoint, Scenario, SoakConfig, UnexpectedPoint,
};
use proptest::prelude::*;

/// `0` and `1` both run inline on the calling thread; both must match.
const THREADS: [usize; 4] = [0, 1, 2, 4];

/// Fig. 5 points are bit-identical across thread counts: the full
/// measured result (latency, traversal and cache counters) must match
/// the one-thread run exactly, for several sweep points.
#[test]
fn fig5_points_identical_across_threads() {
    for v in NicVariant::ALL {
        for queue_len in [0usize, 60, 250] {
            let p = PrepostedPoint {
                queue_len,
                fraction: 1.0,
                msg_size: 64,
            };
            let base = preposted_latency_cfg(v.config(), p, THREADS[0]);
            for &t in &THREADS[1..] {
                let got = preposted_latency_cfg(v.config(), p, t);
                assert_eq!(
                    (got.latency, got.sw_traversed, got.rx_l1_misses),
                    (base.latency, base.sw_traversed, base.rx_l1_misses),
                    "{} q={queue_len}: diverged at {t} threads",
                    v.label()
                );
            }
        }
    }
}

/// Same for Fig. 6 (unexpected-queue benchmark).
#[test]
fn fig6_points_identical_across_threads() {
    for v in NicVariant::ALL {
        for queue_len in [0usize, 80, 200] {
            let p = UnexpectedPoint {
                queue_len,
                msg_size: 64,
            };
            let base = unexpected_latency_cfg(v.config(), p, THREADS[0]);
            for &t in &THREADS[1..] {
                let got = unexpected_latency_cfg(v.config(), p, t);
                assert_eq!(
                    (got.latency, got.sw_traversed),
                    (base.latency, base.sw_traversed),
                    "{} q={queue_len}: diverged at {t} threads",
                    v.label()
                );
            }
        }
    }
}

/// The incast soak — the densest cross-shard traffic in the repo, with
/// flow control, retransmits, and fault injection armed — must dump
/// byte-identical statistics at every thread count for every seed.
#[test]
fn soak_incast_stats_byte_identical_across_threads_and_seeds() {
    for seed in [1u64, 2, 3, 4] {
        for faults in [None, "seed=9,drop=0.02,corrupt=0.01".parse::<FaultConfig>().ok()] {
            let run = |threads: usize| {
                let mut cfg = SoakConfig::new(Scenario::Incast, seed);
                cfg.senders = 8;
                cfg.msgs = 4;
                cfg.faults = faults;
                cfg.parallelism = threads;
                run_soak(&cfg).expect("soak must drain")
            };
            let base = run(THREADS[0]);
            for &t in &THREADS[1..] {
                let got = run(t);
                assert_eq!(
                    got.stats_json, base.stats_json,
                    "seed {seed} faults={} : stats diverged at {t} threads",
                    faults.is_some()
                );
                assert_eq!(got.events, base.events, "seed {seed}: event count diverged");
                assert_eq!(got.runtime, base.runtime, "seed {seed}: virtual time diverged");
            }
        }
    }
}

/// A heterogeneous wire profile — one 10 ns edge among 1 µs edges — is
/// the worst case for window planning: the adaptive planner gives every
/// shard pair its own lookahead, so the short edge must not perturb
/// scheduling anywhere else, and the tiny windows it forces on its two
/// endpoints must still exchange cross-shard events safely. The full
/// incast soak over that profile must dump byte-identical statistics at
/// 0, 1, 2, 4, and 8 worker threads.
#[test]
fn hetero_latency_soak_byte_identical_across_threads() {
    let run = |threads: usize| {
        let mut cfg = SoakConfig::new(Scenario::Incast, 3);
        cfg.senders = 8;
        cfg.msgs = 4;
        cfg.net.wire_latency = Time::from_us(1);
        cfg.net.profile = WireProfile::ShortPair {
            a: 1,
            b: 2,
            short: Time::from_ns(10),
        };
        cfg.parallelism = threads;
        run_soak(&cfg).expect("soak must drain")
    };
    let base = run(1);
    for t in [0usize, 2, 4, 8] {
        let got = run(t);
        assert_eq!(got.stats_json, base.stats_json, "hetero stats diverged at {t} threads");
        assert_eq!(got.events, base.events, "hetero event count diverged at {t} threads");
        assert_eq!(got.runtime, base.runtime, "hetero virtual time diverged at {t} threads");
    }
}

/// With tracing armed, the rendered Chrome trace and the metrics dump
/// are byte-identical too — observability must not perturb or leak
/// thread-count dependence.
#[test]
fn armed_traces_byte_identical_across_threads() {
    let p5 = PrepostedPoint {
        queue_len: 40,
        fraction: 1.0,
        msg_size: 64,
    };
    let base = traced_preposted(NicVariant::Alpu128.config(), p5, 1 << 16, THREADS[0]);
    for &t in &THREADS[1..] {
        let got = traced_preposted(NicVariant::Alpu128.config(), p5, 1 << 16, t);
        assert_eq!(got.chrome_json, base.chrome_json, "fig5 trace diverged at {t} threads");
        assert_eq!(got.metrics_text, base.metrics_text, "fig5 metrics diverged at {t} threads");
        assert_eq!(got.records, base.records);
        assert_eq!(got.dropped, base.dropped);
    }

    let p6 = UnexpectedPoint {
        queue_len: 40,
        msg_size: 64,
    };
    let base = traced_unexpected(NicVariant::Alpu128.config(), p6, 1 << 16, THREADS[0]);
    for &t in &THREADS[1..] {
        let got = traced_unexpected(NicVariant::Alpu128.config(), p6, 1 << 16, t);
        assert_eq!(got.chrome_json, base.chrome_json, "fig6 trace diverged at {t} threads");
        assert_eq!(got.metrics_text, base.metrics_text, "fig6 metrics diverged at {t} threads");
    }
}

// ---------------------------------------------------------------------------
// Property: shard assignment is a pure execution detail.
//
// A set of sender components stream timestamped messages to one sink
// over wired links. Links have identical latency whether they stay
// inside a shard or cross between shards, so the *delivery schedule* is
// fixed by the workload alone. The property: the sink observes the same
// (time, payload) sequence — events in delivery order at every barrier —
// no matter how components are scattered across shards and no matter
// how many worker threads run them.
// ---------------------------------------------------------------------------

/// Emits `(sender_id << 32) | n` every `period`, `count` times.
struct Sender {
    count: u64,
    period: Time,
    id: u64,
}

impl Component for Sender {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let n = *ev.payload.downcast::<u64>().unwrap();
        ctx.emit(OutPort(0), Payload::new((self.id << 32) | n));
        if n + 1 < self.count {
            ctx.send_to(ctx.me(), InPort(0), Payload::new(n + 1), self.period);
        }
    }
}

/// Records every delivery as (time, payload) in arrival order.
#[derive(Default)]
struct Sink {
    log: Vec<(Time, u64)>,
}

impl Component for Sink {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let n = *ev.payload.downcast::<u64>().unwrap();
        self.log.push((ctx.now(), n));
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Run `senders` streams into one sink under the given shard assignment
/// and thread count; return the sink's arrival log.
fn run_assignment(
    nshards: usize,
    assignment: &[usize],
    sink_shard: usize,
    threads: usize,
) -> Vec<(Time, u64)> {
    let mut sim = ShardedSim::new(11, nshards);
    sim.set_threads(threads);
    let sink = sim.add_component(ShardId(sink_shard as u32), "sink", Sink::default());
    for (s, &shard) in assignment.iter().enumerate() {
        let id = sim.add_component(
            ShardId(shard as u32),
            &format!("sender{s}"),
            Sender {
                count: 6,
                // Distinct periods give every delivery a distinct
                // timestamp, so arrival order is semantically forced.
                period: Time::from_ns(101 + 13 * s as u64),
                id: s as u64 + 1,
            },
        );
        sim.connect(id, OutPort(0), sink, InPort(0), Time::from_ns(50 + s as u64));
        sim.post(id, InPort(0), Payload::new(0u64), Time::from_ns(s as u64));
    }
    sim.run();
    let sink = sim.component::<Sink>(sink).expect("sink present");
    sink.log.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_shard_assignments_preserve_event_order(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let nshards = 2 + rng.gen_range(3) as usize; // 2..=4
        let senders = 3 + rng.gen_range(4) as usize; // 3..=6
        let sink_shard = rng.gen_range(nshards as u64) as usize;

        // Reference: everything co-located on the sink's shard, one thread.
        let reference = run_assignment(
            nshards,
            &vec![sink_shard; senders],
            sink_shard,
            1,
        );
        // Deliveries all have distinct timestamps and arrive in time order.
        prop_assert_eq!(reference.len(), senders * 6);
        for w in reference.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "arrivals must be strictly time-ordered: {:?}", w);
        }

        // Any random scattering across shards, at any thread count,
        // observes the identical arrival sequence.
        for _ in 0..3 {
            let assignment: Vec<usize> =
                (0..senders).map(|_| rng.gen_range(nshards as u64) as usize).collect();
            for threads in [1usize, 2, 4] {
                let got = run_assignment(nshards, &assignment, sink_shard, threads);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "assignment {:?} at {} threads reordered events",
                    assignment,
                    threads
                );
            }
        }
    }
}

/// The engine used above really is the partitioned one: a sanity pin so
/// the property test cannot silently degrade to single-shard runs.
#[test]
fn assignment_harness_exercises_cross_shard_links() {
    let log = run_assignment(3, &[1, 2, 0], 0, 2);
    assert_eq!(log.len(), 18);
}
