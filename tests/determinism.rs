//! Repeatability guarantees, enforced end to end: identical inputs
//! produce bit-identical simulations — statistics, traces and metrics —
//! across configurations and parallel sweep execution, and same-time
//! ties resolve in the engine's documented `(time, seq)` order. A
//! simulator whose results drift from run to run is not a simulator;
//! these tests make that a hard regression gate.

use mpiq::dessim::{
    Component, Ctx, Event, FaultConfig, InPort, OutPort, Payload, SimRng, Simulation, Time,
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
use std::cell::Cell;
use std::rc::Rc;

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
        preposted_latency(NicVariant::Alpu128, p).unwrap().latency
    });
    let parallel = run_parallel(points, 8, |&p| {
        preposted_latency(NicVariant::Alpu128, p).unwrap().latency
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
            let base = preposted_latency_cfg(v.config(), p).unwrap();
            let again = preposted_latency_cfg(v.config(), p).unwrap();
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
            let base = unexpected_latency_cfg(v.config(), p).unwrap();
            let again = unexpected_latency_cfg(v.config(), p).unwrap();
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
        for faults in [
            None,
            "seed=9,drop=0.02,corrupt=0.01".parse::<FaultConfig>().ok(),
        ] {
            let run = || {
                let mut cfg = SoakConfig::new(Scenario::Incast, seed);
                cfg.senders = 8;
                cfg.msgs = 4;
                cfg.faults = faults;
                run_soak(&cfg).expect("soak must drain")
            };
            let (base, again) = (run(), run());
            assert_eq!(
                again.stats_json,
                base.stats_json,
                "seed {seed} faults={} : stats diverged between runs",
                faults.is_some()
            );
            assert_eq!(
                again.events, base.events,
                "seed {seed}: event count diverged"
            );
            assert_eq!(
                again.runtime, base.runtime,
                "seed {seed}: virtual time diverged"
            );
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
    assert_eq!(
        again.stats_json, base.stats_json,
        "hetero stats diverged between runs"
    );
    assert_eq!(
        again.events, base.events,
        "hetero event count diverged between runs"
    );
    assert_eq!(
        again.runtime, base.runtime,
        "hetero virtual time diverged between runs"
    );
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
    let base = traced_preposted(NicVariant::Alpu128.config(), p5, 1 << 16).unwrap();
    let again = traced_preposted(NicVariant::Alpu128.config(), p5, 1 << 16).unwrap();
    assert_eq!(
        again.chrome_json, base.chrome_json,
        "fig5 trace diverged between runs"
    );
    assert_eq!(
        again.metrics_text, base.metrics_text,
        "fig5 metrics diverged between runs"
    );
    assert_eq!(again.records, base.records);
    assert_eq!(again.dropped, base.dropped);

    let p6 = UnexpectedPoint {
        queue_len: 40,
        msg_size: 64,
    };
    let base = traced_unexpected(NicVariant::Alpu128.config(), p6, 1 << 16).unwrap();
    let again = traced_unexpected(NicVariant::Alpu128.config(), p6, 1 << 16).unwrap();
    assert_eq!(
        again.chrome_json, base.chrome_json,
        "fig6 trace diverged between runs"
    );
    assert_eq!(
        again.metrics_text, base.metrics_text,
        "fig6 metrics diverged between runs"
    );
}

// ---------------------------------------------------------------------------
// Property: same-time ties resolve in emission order.
//
// The engine orders pending events by `(time, seq)`, where `seq` is a
// global emission counter. Several senders stream to one sink over
// links whose latencies, start times and periods come from small sets,
// so many deliveries land on the sink at equal timestamps. Each sender
// stamps every frame from a counter shared by all senders at the moment
// it emits, which is the emission order. The property: the sink sees
// every frame exactly once, at its analytic arrival time, in exactly
// `(arrival time, emission stamp)` order.
// ---------------------------------------------------------------------------

/// One frame: (sender id, frame index, emission stamp).
type Frame = (u64, u64, u64);

/// Emits `count` frames to the sink, one every `period`, stamping each
/// from the shared emission counter.
struct Sender {
    id: u64,
    count: u64,
    period: Time,
    stamps: Rc<Cell<u64>>,
}

impl Component for Sender {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let k = *ev.payload.downcast::<u64>().unwrap();
        let stamp = self.stamps.get();
        self.stamps.set(stamp + 1);
        ctx.emit(OutPort(0), Payload::new((self.id, k, stamp)));
        if k + 1 < self.count {
            ctx.wake_me(InPort(0), Payload::new(k + 1), self.period);
        }
    }
}

/// Records every delivery in arrival order.
#[derive(Default)]
struct Sink {
    log: Vec<(Time, Frame)>,
}

impl Component for Sink {
    fn on_event(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let frame = *ev.payload.downcast::<Frame>().unwrap();
        self.log.push((ctx.now(), frame));
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// One sender's shape: (start, period, link latency, frame count).
type Stream = (Time, Time, Time, u64);

/// Run the streams into one sink; return the sink's arrival log.
fn run_streams(streams: &[Stream]) -> Vec<(Time, Frame)> {
    let stamps = Rc::new(Cell::new(0));
    let mut sim = Simulation::new(11);
    let sink = sim.add_component("sink", Sink::default());
    for (s, &(start, period, latency, count)) in streams.iter().enumerate() {
        let sender = Sender {
            id: s as u64,
            count,
            period,
            stamps: stamps.clone(),
        };
        let id = sim.add_component(&format!("sender{s}"), sender);
        sim.connect(id, OutPort(0), sink, InPort(0), latency);
        sim.post(id, InPort(0), Payload::new(0u64), start);
    }
    sim.run();
    sim.component::<Sink>(sink)
        .expect("sink present")
        .log
        .clone()
}

/// Random streams drawn from small value sets, so arrivals tie often.
fn random_streams(rng: &mut SimRng) -> Vec<Stream> {
    let senders = 3 + rng.gen_range(4); // 3..=6
    (0..senders)
        .map(|_| {
            let start = Time::from_ns(10 * rng.gen_range(3));
            let period = Time::from_ns(20 * (1 + rng.gen_range(2)));
            let latency = Time::from_ns(30 + 20 * rng.gen_range(2));
            (start, period, latency, 4 + rng.gen_range(5))
        })
        .collect()
}

/// Deliveries that share their timestamp with the previous one.
fn ties(log: &[(Time, Frame)]) -> usize {
    log.windows(2).filter(|w| w[0].0 == w[1].0).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn equal_time_deliveries_follow_the_time_seq_key(seed in any::<u64>()) {
        let streams = random_streams(&mut SimRng::new(seed));
        let got = run_streams(&streams);

        // Every frame arrives exactly once, at start + k * period + latency.
        let mut expected: Vec<(Time, u64, u64)> = Vec::new();
        for (s, &(start, period, latency, count)) in streams.iter().enumerate() {
            for k in 0..count {
                expected.push((Time(start.0 + k * period.0 + latency.0), s as u64, k));
            }
        }
        expected.sort();
        let mut arrived: Vec<(Time, u64, u64)> =
            got.iter().map(|&(t, (id, k, _))| (t, id, k)).collect();
        arrived.sort();
        prop_assert_eq!(arrived, expected);

        // Delivery order is exactly the (time, emission stamp) key.
        let mut keyed = got.clone();
        keyed.sort_by_key(|&(t, (_, _, stamp))| (t, stamp));
        prop_assert_eq!(&got, &keyed, "streams {:?}", streams);

        // And a second run delivers the same sequence.
        prop_assert_eq!(run_streams(&streams), got);
    }
}

/// The harness above really produces ties, across senders and against
/// emission time: the two frames that land on the sink at t = 60 ns were
/// emitted at 10 ns (50 ns link) and at 20 ns (40 ns link), and the
/// earlier emission is delivered first although its sender has the
/// higher id.
#[test]
fn tie_order_harness_produces_equal_time_deliveries() {
    let ns = Time::from_ns;
    let log = run_streams(&[(ns(20), ns(40), ns(40), 3), (ns(10), ns(40), ns(50), 3)]);
    assert_eq!(log.len(), 6);
    assert_eq!(ties(&log), 3);
    let order: Vec<(Time, u64)> = log.iter().map(|&(t, (id, _, _))| (t, id)).collect();
    assert_eq!(
        order,
        [
            (ns(60), 1),
            (ns(60), 0),
            (ns(100), 1),
            (ns(100), 0),
            (ns(140), 1),
            (ns(140), 0)
        ]
    );
    // Random harness draws tie too: over a handful of seeds, most runs
    // have several equal-time deliveries.
    let tied = (0..8u64)
        .filter(|&seed| ties(&run_streams(&random_streams(&mut SimRng::new(seed)))) > 0)
        .count();
    assert!(tied >= 6, "only {tied} of 8 random harnesses produced ties");
}
