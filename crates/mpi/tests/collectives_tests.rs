//! Collective-operation tests: completion, causality, and config
//! equivalence of [`ScriptBuilder::coll`] on simulated clusters of various
//! sizes (including non-powers of two, which exercise the tree
//! algorithms' edge cases).

use mpiq_dessim::Time;
use mpiq_mpi::script::{mark_log, ScriptBuilder};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::{CollOp, NicConfig};

/// Build a cluster where each rank runs `f(builder, me, n)` between two
/// marks, then run it and return (per-rank start, per-rank end) times.
fn run_collective(
    nic: NicConfig,
    n: u32,
    f: impl Fn(&mut ScriptBuilder, u32, u32),
) -> (Vec<Time>, Vec<Time>) {
    let marks = mark_log();
    let programs: Vec<Box<dyn AppProgram>> = (0..n)
        .map(|me| {
            let mut b = Script::builder();
            b.barrier();
            b.mark(me);
            f(&mut b, me, n);
            b.mark(1000 + me);
            Box::new(b.build(marks.clone())) as Box<dyn AppProgram>
        })
        .collect();
    let mut c = Cluster::new(ClusterConfig::new(nic), programs);
    c.run();
    let m = marks.borrow();
    let at = |id: u32| m.iter().find(|&&(i, _)| i == id).expect("mark").1;
    (
        (0..n).map(at).collect(),
        (0..n).map(|r| at(1000 + r)).collect(),
    )
}

#[test]
fn bcast_reaches_every_rank_after_root_starts() {
    for n in [2u32, 3, 4, 7, 8] {
        let (starts, ends) = run_collective(NicConfig::baseline(), n, |b, _, n| {
            b.coll(CollOp::Bcast, 1 % n, 512, None);
        });
        let root_start = starts[(1 % n) as usize];
        for (r, &e) in ends.iter().enumerate() {
            assert!(
                e >= root_start,
                "n={n}: rank {r} finished bcast at {e}, before the root started at {root_start}"
            );
        }
    }
}

#[test]
fn allreduce_synchronizes_everyone() {
    for n in [3u32, 4, 6] {
        let (starts, ends) = run_collective(NicConfig::baseline(), n, |b, _, _| {
            b.coll(CollOp::Allreduce, 0, 128, None);
        });
        let max_start = *starts.iter().max().unwrap();
        for (r, &e) in ends.iter().enumerate() {
            assert!(
                e >= max_start,
                "n={n}: rank {r} left allreduce before everyone entered"
            );
        }
    }
}

/// Every NIC configuration, with the collective run by the host replay
/// and by the firmware's offload engine.
#[test]
fn collectives_complete_on_all_nic_configs() {
    for mut nic in [
        NicConfig::baseline(),
        NicConfig::with_alpus(128),
        NicConfig::with_hash(32),
    ] {
        for offload in [false, true] {
            nic.coll_offload = offload;
            run_collective(nic, 5, |b, _, _| {
                b.coll(CollOp::Bcast, 0, 2048, None);
                b.coll(CollOp::Allreduce, 0, 64, None);
            });
        }
    }
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    // Consecutive instances must not interfere even with zero settle
    // time.
    run_collective(NicConfig::baseline(), 4, |b, _, n| {
        for i in 10..20 {
            b.coll(CollOp::Bcast, i % n, 64, None);
        }
    });
}
