//! Repeatability guarantees, enforced end to end: identical inputs
//! produce bit-identical simulations — statistics, traces and metrics —
//! across configurations, shard layouts and parallel sweep execution. A
//! simulator whose results drift from run to run is not a simulator;
//! these tests make that a hard regression gate.

use mpiq::dessim::{
    Component, Ctx, Event, FaultConfig, InPort, OutPort, Payload, ShardId, SimRng, Simulation,
    Time,
};
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::net::WireProfile;
use mpiq::nic::NicConfig;
use mpiq_bench::{
    preposted_latency, preposted_latency_cfg, run_parallel, run_soak, traced_preposted,
    traced_unexpected, unexpected_latency_cfg, NicVariant, PrepostedPoint, Scenario, SoakConfig,
    UnexpectedPoint,
};
use proptest::prelude::*;

fn workload(nic: NicConfig) -> Vec<(u32, Time)> {
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.barrier();
    for i in 0..20u16 {
        b0.isend(1, i, (i as u32) * 100);
    }
    b0.recv(Some(1), Some(99), 0);
    b0.mark(0);
    let p0 = b0.build(marks.clone());

    let mut b1 = Script::builder();
    for i in (0..20u16).rev() {
        b1.irecv(Some(0), Some(i), 2000);
    }
    b1.barrier();
    b1.sleep(Time::from_us(50));
    b1.send(0, 99, 0);
    b1.mark(1);
    let p1 = b1.build(marks.clone());

    let mut c = Cluster::new(
        ClusterConfig::new(nic),
        vec![
            Box::new(p0) as Box<dyn AppProgram>,
            Box::new(p1) as Box<dyn AppProgram>,
        ],
    );
    c.run();
    let mut m = marks.borrow().clone();
    m.sort();
    m
}

#[test]
fn identical_runs_are_bit_identical() {
    for nic in [NicConfig::baseline(), NicConfig::with_alpus(128)] {
        assert_eq!(workload(nic), workload(nic));
    }
}

#[test]
fn parallel_sweep_equals_serial_sweep() {
    let points: Vec<PrepostedPoint> = (0..8)
        .map(|i| PrepostedPoint {
            queue_len: i * 30,
            fraction: 0.5,
            msg_size: 64,
        })
        .collect();
    let serial = run_parallel(points.clone(), 1, |&p| {
        preposted_latency(NicVariant::Alpu128, p).latency
    });
    let parallel = run_parallel(points, 8, |&p| {
        preposted_latency(NicVariant::Alpu128, p).latency
    });
    assert_eq!(serial, parallel);
}

#[test]
fn timing_differs_but_results_match_across_configs() {
    let base = workload(NicConfig::baseline());
    let alpu = workload(NicConfig::with_alpus(256));
    assert_eq!(base.len(), alpu.len());
    // Same marks present; times legitimately differ.
    let ids = |v: &[(u32, Time)]| v.iter().map(|&(i, _)| i).collect::<Vec<_>>();
    assert_eq!(ids(&base), ids(&alpu));
}

/// Fig. 5 points repeat exactly: the full measured result (latency,
/// traversal and cache counters) of a second run must match the first,
/// for several sweep points.
#[test]
fn fig5_points_repeat_exactly() {
    for v in NicVariant::ALL {
        for queue_len in [0usize, 60, 250] {
            let p = PrepostedPoint {
                queue_len,
                fraction: 1.0,
                msg_size: 64,
            };
            let base = preposted_latency_cfg(v.config(), p);
            let again = preposted_latency_cfg(v.config(), p);
            assert_eq!(
                (again.latency, again.sw_traversed, again.rx_l1_misses),
                (base.latency, base.sw_traversed, base.rx_l1_misses),
                "{} q={queue_len}: diverged between runs",
                v.label()
            );
        }
    }
}

/// Same for Fig. 6 (unexpected-queue benchmark).
#[test]
fn fig6_points_repeat_exactly() {
    for v in NicVariant::ALL {
        for queue_len in [0usize, 80, 200] {
            let p = UnexpectedPoint {
                queue_len,
                msg_size: 64,
            };
            let base = unexpected_latency_cfg(v.config(), p);
            let again = unexpected_latency_cfg(v.config(), p);
            assert_eq!(
                (again.latency, again.sw_traversed),
                (base.latency, base.sw_traversed),
                "{} q={queue_len}: diverged between runs",
                v.label()
            );
        }
    }
}

/// The incast soak — the densest cross-shard traffic in the repo, with
/// flow control, retransmits, and fault injection armed — must dump
/// byte-identical statistics on a second run, for every seed.
#[test]
fn soak_incast_stats_repeat_byte_for_byte_across_seeds() {
    for seed in [1u64, 2, 3, 4] {
        for faults in [None, "seed=9,drop=0.02,corrupt=0.01".parse::<FaultConfig>().ok()] {
            let run = || {
                let mut cfg = SoakConfig::new(Scenario::Incast, seed);
                cfg.senders = 8;
                cfg.msgs = 4;
                cfg.faults = faults;
                run_soak(&cfg).expect("soak must drain")
            };
            let (base, again) = (run(), run());
            assert_eq!(
                again.stats_json, base.stats_json,
                "seed {seed} faults={} : stats diverged between runs",
                faults.is_some()
            );
            assert_eq!(again.events, base.events, "seed {seed}: event count diverged");
            assert_eq!(again.runtime, base.runtime, "seed {seed}: virtual time diverged");
        }
    }
}

/// A heterogeneous wire profile — one 10 ns edge among 1 µs edges — is
/// the worst case for window planning: the adaptive planner gives every
/// shard pair its own lookahead, so the short edge must not perturb
/// scheduling anywhere else, and the tiny windows it forces on its two
/// endpoints must still exchange cross-shard events safely. The full
/// incast soak over that profile must dump byte-identical statistics on
/// a second run.
#[test]
fn hetero_latency_soak_repeats_byte_for_byte() {
    let run = || {
        let mut cfg = SoakConfig::new(Scenario::Incast, 3);
        cfg.senders = 8;
        cfg.msgs = 4;
        cfg.net.wire_latency = Time::from_us(1);
        cfg.net.profile = WireProfile::ShortPair {
            a: 1,
            b: 2,
            short: Time::from_ns(10),
        };
        run_soak(&cfg).expect("soak must drain")
    };
    let (base, again) = (run(), run());
    assert_eq!(again.stats_json, base.stats_json, "hetero stats diverged between runs");
    assert_eq!(again.events, base.events, "hetero event count diverged between runs");
    assert_eq!(again.runtime, base.runtime, "hetero virtual time diverged between runs");
}

/// With tracing armed, the rendered Chrome trace and the metrics dump
/// repeat byte for byte too — observability must not perturb the run
/// or leak anything outside the simulation.
#[test]
fn armed_traces_repeat_byte_for_byte() {
    let p5 = PrepostedPoint {
        queue_len: 40,
        fraction: 1.0,
        msg_size: 64,
    };
    let base = traced_preposted(NicVariant::Alpu128.config(), p5, 1 << 16);
    let again = traced_preposted(NicVariant::Alpu128.config(), p5, 1 << 16);
    assert_eq!(again.chrome_json, base.chrome_json, "fig5 trace diverged between runs");
    assert_eq!(again.metrics_text, base.metrics_text, "fig5 metrics diverged between runs");
    assert_eq!(again.records, base.records);
    assert_eq!(again.dropped, base.dropped);

    let p6 = UnexpectedPoint {
        queue_len: 40,
        msg_size: 64,
    };
    let base = traced_unexpected(NicVariant::Alpu128.config(), p6, 1 << 16);
    let again = traced_unexpected(NicVariant::Alpu128.config(), p6, 1 << 16);
    assert_eq!(again.chrome_json, base.chrome_json, "fig6 trace diverged between runs");
    assert_eq!(again.metrics_text, base.metrics_text, "fig6 metrics diverged between runs");
}

// ---------------------------------------------------------------------------
// Property: shard assignment is a pure execution detail.
//
// A set of sender components stream timestamped messages to one sink
// over wired links. Links have identical latency whether they stay
// inside a shard or cross between shards, so the *delivery schedule* is
// fixed by the workload alone. The property: the sink observes the same
// (time, payload) sequence — events in delivery order at every barrier —
// no matter how components are scattered across shards.
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

/// Run `senders` streams into one sink under the given shard
/// assignment; return the sink's arrival log.
fn run_assignment(nshards: usize, assignment: &[usize], sink_shard: usize) -> Vec<(Time, u64)> {
    let mut sim = Simulation::with_shards(11, nshards);
    let sink = sim.add_component_in(ShardId(sink_shard as u32), "sink", Sink::default());
    for (s, &shard) in assignment.iter().enumerate() {
        let id = sim.add_component_in(
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

        // Reference: everything co-located on the sink's shard.
        let reference = run_assignment(nshards, &vec![sink_shard; senders], sink_shard);
        // Deliveries all have distinct timestamps and arrive in time order.
        prop_assert_eq!(reference.len(), senders * 6);
        for w in reference.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "arrivals must be strictly time-ordered: {:?}", w);
        }

        // Any random scattering across shards observes the identical
        // arrival sequence.
        for _ in 0..3 {
            let assignment: Vec<usize> =
                (0..senders).map(|_| rng.gen_range(nshards as u64) as usize).collect();
            let got = run_assignment(nshards, &assignment, sink_shard);
            prop_assert_eq!(&got, &reference, "assignment {:?} reordered events", assignment);
        }
    }
}

/// The engine used above really is the partitioned one: a sanity pin so
/// the property test cannot silently degrade to single-shard runs.
#[test]
fn assignment_harness_exercises_cross_shard_links() {
    let log = run_assignment(3, &[1, 2, 0], 0);
    assert_eq!(log.len(), 18);
}
