//! Byte-identical pin of the statistics and metrics registries.
//!
//! `Cluster::stats().to_json()` is what every determinism check, the
//! soak oracle and the benchmark's `sim_digest` hash. Each case below
//! runs one small cluster and renders its registry; the concatenation
//! must equal `golden/stats_registry.txt` byte for byte. Every case
//! runs with metrics on, and its `Cluster::metrics().render()` is
//! pinned the same way in `golden/metrics_registry.txt`. A registry
//! holds only non-zero counters, so a case shows the keys its run
//! drove: the traversal, cache and occupancy counters (baseline and
//! ALPU Fig. 5 points, a Fig. 6 point), the ALPU counters, the
//! link-layer counters with and without the reliability layer, the
//! overload (`flow.*`) counters, the component-fault counters through
//! a crash, a restart and an ALPU death, and the collective-offload
//! counters. Two baseline points sit past the
//! ~410-entry knee of the NIC's 512-line L1 (Fig. 5 at depth 600,
//! Fig. 6 at depth 500): their walks overflow the cache, so capacity
//! misses, LRU victims and dirty write-backs reach the L1 counters and
//! the simulated times. A fault storm on three ALPU NICs (a link flap
//! that outlasts the retry budget, an ALPU death, a crash and a
//! restart) makes every fault metric non-zero: `fault.nodes_crashed`,
//! `fault.nodes_restarted`, `fault.alpus_dead`, `fault.peers_failed`,
//! `fault.peers_revived`, `fault.links_dead` and
//! `fault.flap_transitions`.
//!
//! On a mismatch the rendered registry is written next to the test
//! binary's scratch space (`CARGO_TARGET_TMPDIR`) for diffing.

use mpiq::dessim::{FaultConfig, FaultSchedule, Stats, Time};
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::net::Topology;
use mpiq::nic::{CollOp, NicConfig};
use mpiq_bench::soak::{run_soak_on, soak_cluster};
use mpiq_bench::{Scenario, SoakConfig};

use std::sync::OnceLock;

const GOLDEN: &str = include_str!("golden/stats_registry.txt");
const METRICS_GOLDEN: &str = include_str!("golden/metrics_registry.txt");

/// A case's rendered registries: the stats JSON and the metrics dump.
struct Registries {
    stats: String,
    metrics: String,
}

fn boxed(s: Script) -> Box<dyn AppProgram> {
    Box::new(s)
}

/// Run to quiescence with metrics on.
fn run(mut cfg: ClusterConfig, programs: Vec<Box<dyn AppProgram>>) -> Registries {
    cfg.metrics = true;
    let mut c = Cluster::new(cfg, programs);
    c.run();
    Registries {
        stats: c.stats().to_json(),
        metrics: c.metrics().render(),
    }
}

/// A Fig. 5 point: both ranks pre-post `depth` non-matching receives
/// ahead of the matching one, then ping-pong once.
fn fig5_point(nic: NicConfig, depth: u16) -> Registries {
    let side = |peer: u32, send_tag: u16, recv_tag: u16, first: bool| {
        let mut b = Script::builder();
        for i in 0..depth {
            b.irecv(Some(peer as u16), Some(1_000 + i), 0);
        }
        let matching = b.irecv(Some(peer as u16), Some(recv_tag), 64);
        b.barrier();
        b.sleep(Time::from_us(400));
        if first {
            b.send(peer, send_tag, 64);
            b.wait(matching);
        } else {
            b.wait(matching);
            b.send(peer, send_tag, 64);
        }
        boxed(b.build(mark_log()))
    };
    run(
        ClusterConfig::new(nic),
        vec![side(1, 1, 2, true), side(0, 2, 1, false)],
    )
}

/// A Fig. 6 point: the sender parks `depth` unexpected messages on the
/// receiver, then the receiver searches that queue with a few receives.
fn fig6_point(nic: NicConfig, depth: u16) -> Registries {
    let mut b0 = Script::builder();
    let fillers: Vec<usize> = (0..depth).map(|i| b0.isend(1, 1_000 + i, 64)).collect();
    b0.wait_all(fillers);
    b0.barrier();
    b0.sleep(Time::from_us(500));
    for i in 0..4u16 {
        b0.send(1, 1 + i, 64);
        b0.recv(Some(1), Some(99), 0);
    }
    let mut b1 = Script::builder();
    b1.barrier();
    b1.sleep(Time::from_us(500));
    for i in 0..4u16 {
        b1.recv(Some(0), Some(1 + i), 64);
        b1.send(0, 99, 0);
    }
    run(
        ClusterConfig::new(nic),
        vec![boxed(b0.build(mark_log())), boxed(b1.build(mark_log()))],
    )
}

/// Wire corruption with the reliability layer off: mangled frames are
/// dropped at the NIC's CRC check and counted, never recovered. The
/// run ends at quiescence with the lost receives still pending.
fn crc_drops_without_link_layer() -> Registries {
    let mut nic = NicConfig::baseline();
    nic.faults = "seed=5,corrupt=0.3"
        .parse::<FaultConfig>()
        .expect("fault spec");
    assert!(!nic.reliability);
    let mut b0 = Script::builder();
    let sends: Vec<usize> = (0..16u16).map(|i| b0.isend(1, i, 64)).collect();
    b0.wait_all(sends);
    let mut b1 = Script::builder();
    for i in 0..16u16 {
        b1.irecv(Some(0), Some(i), 64);
    }
    run(
        ClusterConfig::new(nic),
        vec![boxed(b0.build(mark_log())), boxed(b1.build(mark_log()))],
    )
}

/// Offloaded barrier, bcast and allreduce on an 8-rank fat tree.
fn offloaded_collectives() -> Registries {
    let mut nic = NicConfig::baseline();
    nic.coll_offload = true;
    let programs = (0..8)
        .map(|_| {
            let mut b = Script::builder();
            b.coll(CollOp::Barrier, 0, 0, None);
            b.coll(CollOp::Bcast, 3, 256, None);
            b.coll(CollOp::Allreduce, 0, 64, None);
            b.coll(CollOp::Barrier, 0, 0, None);
            boxed(b.build(mark_log()))
        })
        .collect();
    let cfg = ClusterConfig::builder(nic)
        .topology(Topology::FatTree { down: 4, up: 2 })
        .build();
    run(cfg, programs)
}

/// A soak run (with its oracle) on a cluster built with metrics on.
fn soak(cfg: SoakConfig) -> Registries {
    let mut build = soak_cluster(&cfg);
    build.config.metrics = true;
    let mut c = build.build();
    let out = run_soak_on(&cfg, &mut c)
        .unwrap_or_else(|d| panic!("{} soak stalled:\n{d}", cfg.scenario.name()));
    Registries {
        stats: out.stats_json,
        metrics: c.metrics().render(),
    }
}

/// Incast under overload bounds, with wire drops and corruption that
/// the go-back-N layer recovers.
fn lossy_incast() -> Registries {
    let mut cfg = SoakConfig::new(Scenario::Incast, 3);
    cfg.senders = 4;
    cfg.msgs = 6;
    cfg.max_unexpected = 4;
    cfg.faults = Some("seed=3,drop=0.03,corrupt=0.03".parse().expect("fault spec"));
    soak(cfg)
}

/// The chaos storm on ALPU NICs: link flaps, an ALPU death on node 1,
/// and the last node crashing and restarting into a recovery program.
fn chaos_with_restart() -> Registries {
    let mut cfg = SoakConfig::new(Scenario::Chaos, 11);
    cfg.senders = 3;
    cfg.msgs = 6;
    cfg.alpu = true;
    cfg.node_mttr = Some(Time::from_us(400));
    soak(cfg)
}

/// Every component fault on three ALPU NICs. Ranks 0 and 1 exchange
/// once, then again into a flap of their edge that outlasts the
/// go-back-N retry budget, so the link dies and each declares the
/// other failed. NIC 1's ALPUs die at 15 us. Node 2 runs nothing; it
/// crashes at 20 us, is declared dead by the keepalive and restarts at
/// 320 us, when both survivors revive it.
fn fault_storm() -> Registries {
    let sched: FaultSchedule = "flap@10us:edge=0-1,down=30ms;alpu@15us:nic=1;\
                                crash@20us:node=2,mttr=300us"
        .parse()
        .expect("spec grammar");
    let mut programs: Vec<Box<dyn AppProgram>> = (0..2u32)
        .map(|me| {
            let peer = 1 - me;
            let mut b = Script::builder();
            let r0 = b.irecv(Some(peer as u16), Some(100), 512);
            b.isend(peer, 100, 512);
            b.wait(r0);
            b.sleep(Time::from_us(20));
            let mut pending = Vec::new();
            for i in 1..4u16 {
                pending.push(b.irecv(Some(peer as u16), Some(100 + i), 512));
                pending.push(b.isend(peer, 100 + i, 512));
            }
            b.wait_all(pending);
            boxed(b.build(mark_log()))
        })
        .collect();
    programs.push(boxed(Script::builder().build(mark_log())));
    let cfg = ClusterConfig::builder(NicConfig::with_alpus(128))
        .fault_schedule(sched)
        .build();
    run(cfg, programs)
}

/// A named registry dump.
type Case = (&'static str, fn() -> Registries);

/// The stats golden and the metrics golden, rendered once per test
/// binary.
fn render() -> &'static (String, String) {
    static RENDERED: OnceLock<(String, String)> = OnceLock::new();
    RENDERED.get_or_init(render_cases)
}

fn render_cases() -> (String, String) {
    let cases: [Case; 11] = [
        ("fig5_baseline_q40", || {
            fig5_point(NicConfig::baseline(), 40)
        }),
        ("fig5_alpu128_q100", || {
            fig5_point(NicConfig::with_alpus(128), 100)
        }),
        ("fig6_alpu128_q60", || {
            fig6_point(NicConfig::with_alpus(128), 60)
        }),
        ("fig6_baseline_q30", || {
            fig6_point(NicConfig::baseline(), 30)
        }),
        ("fig5_baseline_q600", || {
            fig5_point(NicConfig::baseline(), 600)
        }),
        ("fig6_baseline_q500", || {
            fig6_point(NicConfig::baseline(), 500)
        }),
        ("crc_drops_without_link_layer", crc_drops_without_link_layer),
        ("offloaded_collectives_fat_tree", offloaded_collectives),
        ("lossy_incast_overload", lossy_incast),
        ("chaos_alpu_crash_restart", chaos_with_restart),
        ("fault_storm_alpu_flap_crash_restart", fault_storm),
    ];
    let (mut stats, mut metrics) = (String::new(), String::new());
    for (name, case) in cases {
        let got = case();
        stats.push_str(name);
        stats.push(' ');
        stats.push_str(&got.stats);
        stats.push('\n');
        metrics.push_str(&format!("== {name}\n{}", got.metrics));
    }
    (stats, metrics)
}

/// Compare `got` with the golden file `name`; on a mismatch write `got`
/// to the scratch space and fail.
fn check(got: &str, golden: &str, name: &str) {
    if got != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, got).expect("write rendered registry");
        panic!(
            "registry drifted from tests/golden/{name}; rendered output written to {}",
            path.display()
        );
    }
}

#[test]
fn stats_registry_matches_golden() {
    check(&render().0, GOLDEN, "stats_registry.txt");
}

#[test]
fn metrics_registry_matches_golden() {
    check(&render().1, METRICS_GOLDEN, "metrics_registry.txt");
}

/// The `nic{n}.*` keys `stats` shows must be the counters NIC `n`
/// holds now: its firmware's, its L1's and its link layer's.
fn assert_live(stats: &Stats, c: &Cluster, n: u32, at: Time) {
    let nic = c.nic(n);
    let fw = nic.firmware().stats();
    let l1 = nic.core().mem().l1();
    let ls = nic
        .link()
        .expect("wire faults and fault schedules turn the link layer on")
        .stats();
    let live = [
        ("l1.misses", l1.misses()),
        ("l1.hits", l1.hits()),
        ("posted.traversed", fw.posted_entries_traversed),
        ("unexpected.traversed", fw.unexpected_entries_traversed),
        ("posted.alpu_hits", fw.posted_alpu_hits),
        ("unexpected.alpu_hits", fw.unexpected_alpu_hits),
        ("unexpected.arrivals", fw.unexpected_arrivals),
        ("insert_sessions", fw.insert_sessions),
        ("flow.unexpected_highwater", fw.unexpected_highwater),
        ("flow.eager_bytes_highwater", fw.eager_bytes_highwater),
        ("flow.truncated_admits", fw.truncated_admits),
        ("flow.admission_refused", fw.admission_refused),
        ("flow.credit_stalls", fw.credit_stalls),
        ("flow.sends_deferred", fw.sends_deferred),
        ("flow.credits_spent", fw.credits_spent),
        ("flow.grants_issued", fw.grants_issued),
        ("flow.grants_leaked", fw.grants_leaked),
        ("flow.cts_leaked", fw.cts_leaked),
        ("link.retransmits", ls.retransmits),
        ("link.acks_sent", ls.acks_sent),
        ("link.nacks_sent", ls.nacks_sent),
        ("link.crc_dropped", ls.crc_dropped),
        ("link.dup_discarded", ls.dup_discarded),
        ("link.gap_discarded", ls.gap_discarded),
        ("link.timer_fires", ls.timer_fires),
        ("link.links_dead", ls.links_dead),
        ("flow.credits_granted", ls.credits_granted),
        ("flow.credits_received", ls.credits_received),
        ("coll.offloaded", fw.coll_offloaded),
        ("coll.declined", fw.coll_declined),
        ("coll.steps_sent", fw.coll_steps_sent),
        ("coll.steps_recv", fw.coll_steps_recv),
        ("coll.rank_failed", fw.coll_rank_failed),
    ];
    for (key, v) in live {
        assert_eq!(
            stats.get(&format!("nic{n}.{key}")),
            v,
            "nic{n}.{key} at {at}"
        );
    }
}

/// Reads the registry between events, not only once a run is over: an
/// incast under overload bounds and wire faults, cut every 100 ns. At
/// many cuts a frame has just reached a busy NIC, whose link-layer and
/// header-copy counters then run ahead of its last work item. Every
/// read must show each NIC's live counters. Reading must not perturb
/// the run: the last read equals one made only at the end.
#[test]
fn stats_read_mid_run_show_live_counters() {
    const RANKS: u32 = 5;
    let cluster = || {
        let cfg = ClusterConfig::builder(NicConfig::baseline().with_flow_control(2, 4, 1 << 10))
            .faults("seed=3,drop=0.03,corrupt=0.03".parse().expect("fault spec"))
            .build();
        let mut b0 = Script::builder();
        b0.sleep(Time::from_us(2));
        for _ in 0..24 {
            b0.recv(None, Some(7), 64);
        }
        let mut programs = vec![boxed(b0.build(mark_log()))];
        for _ in 1..RANKS {
            let mut b = Script::builder();
            let sends: Vec<usize> = (0..6).map(|_| b.isend(0, 7, 64)).collect();
            b.wait_all(sends);
            programs.push(boxed(b.build(mark_log())));
        }
        Cluster::new(cfg, programs)
    };
    let mut whole = cluster();
    whole.run();
    let mut cut = cluster();
    let mut horizon = Time::ZERO;
    let mut reads = 0;
    while cut.run_watched(horizon).is_err() {
        assert!(horizon < Time::from_ms(10), "incast did not finish");
        let stats = cut.stats();
        for n in 0..RANKS {
            assert_live(&stats, &cut, n, horizon);
        }
        reads += 1;
        horizon += Time::from_ns(100);
    }
    assert!(reads > 100, "only {reads} reads before the run ended");
    assert_eq!(cut.stats().to_json(), whole.stats().to_json());
}

/// A restarted node remembers nothing, and its keys say so. Two
/// baseline ranks run one barrier, which each firmware declines
/// (`coll.declined` 1) and the hosts replay; node 1 then crashes at
/// 30 us and restarts at 130 us with nothing left to run. Reads cut
/// every microsecond show each NIC's live counters, the `coll.*` ones
/// among them, before the crash, while node 1 is down and after its
/// restart, when its new incarnation has run no collective.
#[test]
fn restarted_nic_publishes_only_its_new_incarnation() {
    let cluster = || {
        let sched: FaultSchedule = "crash@30us:node=1,mttr=100us"
            .parse()
            .expect("spec grammar");
        let cfg = ClusterConfig::builder(NicConfig::baseline())
            .fault_schedule(sched)
            .build();
        let programs = (0..2)
            .map(|_| {
                let mut b = Script::builder();
                b.coll(CollOp::Barrier, 0, 0, None);
                boxed(b.build(mark_log()))
            })
            .collect();
        Cluster::new(cfg, programs)
    };
    let mut whole = cluster();
    whole.run();
    let mut cut = cluster();
    let mut declined_before_crash = false;
    for us in 0..=200 {
        let horizon = Time::from_us(us);
        let _ = cut.run_watched(horizon);
        let stats = cut.stats();
        for n in 0..2 {
            assert_live(&stats, &cut, n, horizon);
        }
        declined_before_crash |= us < 30 && stats.get("nic1.coll.declined") == 1;
    }
    assert!(declined_before_crash, "node 1 never declined its barrier");
    let stats = cut.stats();
    assert_eq!(stats.to_json(), whole.stats().to_json());
    assert_eq!(stats.get("nic1.fault.crashed"), 1);
    assert!(
        stats.get("nic1.fault.incarnation") > 0,
        "node 1 never restarted"
    );
    assert_eq!(stats.get("nic0.coll.declined"), 1);
    let coll: Vec<(&str, u64)> = stats
        .iter()
        .filter(|(k, _)| k.starts_with("nic1.coll."))
        .collect();
    assert_eq!(
        coll,
        [],
        "node 1's collective counters outlived its restart"
    );
}
