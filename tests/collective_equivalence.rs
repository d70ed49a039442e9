//! The collective-equivalence oracle: NIC-offloaded collectives and the
//! host-driven fallback must be *observably the same algorithm*.
//!
//! Both paths execute the shared step plan (`mpiq_nic::coll::steps`), so:
//!
//! * every rank's final collective status is identical whether the NIC
//!   ran the plan or the host replayed it after a decline;
//! * a node crash mid-collective produces the *same* typed
//!   [`MpiError::RankFailed`] set on the same survivor ranks in both
//!   modes;
//! * on the switched fat-tree engine, statistics are byte-identical
//!   from run to run (the determinism contract extends to switches and
//!   the offload engine);
//! * offloading actually buys something: fewer host completions and a
//!   lower simulated latency than the host-driven tree on the same
//!   fat-tree — the paper-scale claim `bench/collectives` measures at
//!   512–1024 ranks, pinned here at a CI-sized 64.

use mpiq::dessim::{FaultSchedule, Time};
use mpiq::mpi::script::{mark_log, status_log, MarkLog, StatusLog};
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, MpiError, MpiStatus, Script};
use mpiq::net::Topology;
use mpiq::nic::{CollOp, NicConfig};

const FAT_TREE: Topology = Topology::FatTree { down: 4, up: 2 };

fn nic(offload: bool) -> NicConfig {
    let mut cfg = NicConfig::baseline();
    cfg.coll_offload = offload;
    cfg
}

/// Every rank runs the same collective sequence, recording each final
/// status under the op's index (and marks around the whole sequence).
fn workload(
    ranks: u32,
    ops: &[(CollOp, u32, u32)],
    sleep: Option<Time>,
    logs: &mut Vec<StatusLog>,
    marks: &mut Vec<MarkLog>,
) -> Vec<Box<dyn AppProgram>> {
    (0..ranks)
        .map(|_| {
            let log = status_log();
            let mark = mark_log();
            let mut b = Script::builder();
            if let Some(d) = sleep {
                b.sleep(d);
            }
            b.mark(0);
            for (i, &(op, root, len)) in ops.iter().enumerate() {
                b.coll(op, root, len, Some(i as u32));
            }
            b.mark(1);
            logs.push(log.clone());
            marks.push(mark.clone());
            Box::new(b.build(mark).with_status_log(log)) as Box<dyn AppProgram>
        })
        .collect()
}

struct RunOut {
    statuses: Vec<Vec<(u32, MpiStatus)>>,
    /// max(mark 1) - min(mark 0): wall time of the collective sequence.
    latency: Time,
    completions: usize,
    cluster: Cluster,
}

fn run(
    ranks: u32,
    offload: bool,
    topology: Topology,
    schedule: Option<&str>,
    ops: &[(CollOp, u32, u32)],
    sleep: Option<Time>,
) -> RunOut {
    let mut logs = Vec::new();
    let mut marks = Vec::new();
    let programs = workload(ranks, ops, sleep, &mut logs, &mut marks);
    let mut b = ClusterConfig::builder(nic(offload)).topology(topology);
    if let Some(spec) = schedule {
        b = b.fault_schedule(spec.parse::<FaultSchedule>().expect("spec grammar"));
    }
    let mut c = Cluster::new(b.build(), programs);
    c.run_watched(Time::from_ms(200))
        .unwrap_or_else(|d| panic!("offload={offload}: stalled: {d}"));
    let statuses: Vec<Vec<(u32, MpiStatus)>> = logs.iter().map(|l| l.borrow().clone()).collect();
    let t0 = marks
        .iter()
        .flat_map(|m| {
            m.borrow()
                .iter()
                .filter(|(id, _)| *id == 0)
                .map(|&(_, t)| t)
                .collect::<Vec<_>>()
        })
        .min();
    let t1 = marks
        .iter()
        .flat_map(|m| {
            m.borrow()
                .iter()
                .filter(|(id, _)| *id == 1)
                .map(|&(_, t)| t)
                .collect::<Vec<_>>()
        })
        .max();
    let latency = match (t0, t1) {
        (Some(a), Some(b)) => b - a,
        _ => Time::ZERO,
    };
    let completions = (0..ranks).map(|r| c.host(r).completions()).sum();
    RunOut {
        statuses,
        latency,
        completions,
        cluster: c,
    }
}

/// Fault-free equivalence across all three collectives on the fat tree:
/// per-rank final statuses are identical between the offloaded and
/// host-driven runs, and the stats counters prove which path actually
/// ran (every collective offloaded in one mode, declined in the other).
#[test]
fn offload_and_host_fallback_agree_on_fat_tree() {
    const RANKS: u32 = 16;
    let ops = [
        (CollOp::Barrier, 0, 0),
        (CollOp::Bcast, 3, 256),
        (CollOp::Allreduce, 0, 64),
    ];
    let off = run(RANKS, true, FAT_TREE, None, &ops, None);
    let host = run(RANKS, false, FAT_TREE, None, &ops, None);
    for r in 0..RANKS as usize {
        assert_eq!(
            off.statuses[r], host.statuses[r],
            "rank {r}: offloaded and host-driven statuses diverge"
        );
        for (id, st) in &off.statuses[r] {
            assert!(!st.rank_failed(), "rank {r} op {id}: unexpected failure");
            assert!(
                !st.cancelled,
                "rank {r} op {id}: final status leaked a decline"
            );
        }
    }
    for r in 0..RANKS {
        let s_off = off.cluster.nic(r).firmware().stats();
        let s_host = host.cluster.nic(r).firmware().stats();
        assert_eq!(s_off.coll_offloaded, ops.len() as u64, "rank {r}");
        assert_eq!(s_off.coll_declined, 0, "rank {r}");
        assert_eq!(s_host.coll_offloaded, 0, "rank {r}");
        assert_eq!(s_host.coll_declined, ops.len() as u64, "rank {r}");
    }
}

/// A node crash mid-barrier: survivors adjacent to the dead rank in the
/// binomial tree finish with the *same* typed `RankFailed` status in
/// both modes; everyone else finishes clean in both. The offload engine
/// must not hang (dead steps are skipped when the peer is declared) and
/// must not invent extra failures.
#[test]
fn crash_mid_collective_fails_identically_in_both_modes() {
    const RANKS: u32 = 8;
    const DEAD: u32 = 2;
    let ops = [(CollOp::Barrier, 0, 0)];
    let sched = "crash@20us:node=2";
    let off = run(
        RANKS,
        true,
        FAT_TREE,
        Some(sched),
        &ops,
        Some(Time::from_us(30)),
    );
    let host = run(
        RANKS,
        false,
        FAT_TREE,
        Some(sched),
        &ops,
        Some(Time::from_us(30)),
    );
    for r in (0..RANKS as usize).filter(|&r| r != DEAD as usize) {
        assert_eq!(
            off.statuses[r], host.statuses[r],
            "rank {r}: crash outcome diverges between modes"
        );
        let (_, st) = off.statuses[r][0];
        // Binomial tree rooted at 0, n=8: rank 0 is the dead rank's
        // parent, rank 3 its child — both must fail typed; the rest of
        // the tree completes around the hole.
        if r == 0 || r == 3 {
            assert_eq!(
                st.error,
                Some(MpiError::RankFailed { rank: DEAD as u16 }),
                "rank {r}: tree-adjacent rank must see the typed failure"
            );
        } else {
            assert!(st.error.is_none(), "rank {r}: must complete clean");
        }
    }
}

/// The determinism contract extends to the switched fabric and the
/// offload engine: the statistics of an offloaded fat-tree run are
/// byte-identical on a second run.
#[test]
fn offloaded_fat_tree_stats_repeat_byte_for_byte() {
    const RANKS: u32 = 16;
    let ops = [
        (CollOp::Barrier, 0, 0),
        (CollOp::Allreduce, 0, 128),
        (CollOp::Bcast, 5, 512),
    ];
    let base = run(RANKS, true, FAT_TREE, None, &ops, None);
    let again = run(RANKS, true, FAT_TREE, None, &ops, None);
    assert_eq!(
        again.statuses, base.statuses,
        "statuses diverged between runs"
    );
    assert_eq!(
        again.cluster.stats().to_json(),
        base.cluster.stats().to_json(),
        "stats diverged between runs"
    );
}

/// The acceptance claim at CI size: on the same 64-rank fat tree, the
/// NIC-offloaded barrier completes with *fewer host completions* and
/// *lower simulated latency* than the host-driven tree (each host sees
/// one completion per barrier instead of one per tree edge).
#[test]
fn offloaded_barrier_beats_host_driven_tree_at_64_ranks() {
    const RANKS: u32 = 64;
    const ITERS: usize = 4;
    let topo = Topology::FatTree { down: 8, up: 4 };
    let ops: Vec<(CollOp, u32, u32)> = (0..ITERS).map(|_| (CollOp::Barrier, 0, 0)).collect();
    let off = run(RANKS, true, topo, None, &ops, None);
    let host = run(RANKS, false, topo, None, &ops, None);
    assert!(
        off.completions < host.completions,
        "offload must shrink host completions: {} vs {}",
        off.completions,
        host.completions
    );
    assert!(
        off.latency < host.latency,
        "offload must lower simulated latency: {:?} vs {:?}",
        off.latency,
        host.latency
    );
}
