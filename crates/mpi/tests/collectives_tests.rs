//! Collective-operation tests: completion, causality, and config
//! equivalence on simulated clusters of various sizes (including
//! non-powers of two, which exercise the tree algorithms' edge cases).

use mpiq_dessim::Time;
use mpiq_mpi::collectives::{allreduce, alltoall, bcast, gather, reduce, scatter};
use mpiq_mpi::script::{mark_log, MarkLog};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq_nic::NicConfig;

/// Build a cluster where each rank runs `f(builder, me, n)` between two
/// marks, then run it and return (per-rank start, per-rank end) times.
fn run_collective(
    nic: NicConfig,
    n: u32,
    f: impl Fn(&mut mpiq_mpi::script::ScriptBuilder, u32, u32),
) -> (Vec<Time>, Vec<Time>, MarkLog) {
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
    let starts: Vec<Time> = (0..n)
        .map(|r| m.iter().find(|&&(id, _)| id == r).expect("start mark").1)
        .collect();
    let ends: Vec<Time> = (0..n)
        .map(|r| {
            m.iter()
                .find(|&&(id, _)| id == 1000 + r)
                .expect("end mark")
                .1
        })
        .collect();
    (starts, ends, marks.clone())
}

#[test]
fn bcast_reaches_every_rank_after_root_starts() {
    for n in [2u32, 3, 4, 7, 8] {
        let (starts, ends, _) = run_collective(NicConfig::baseline(), n, |b, me, n| {
            bcast(b, me, n, 1 % n, 512, 1)
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
fn reduce_root_finishes_after_all_leaves_start() {
    for n in [2u32, 3, 5, 8] {
        let root = n - 1;
        let (starts, ends, _) = run_collective(NicConfig::baseline(), n, move |b, me, n| {
            reduce(b, me, n, root, 256, 2)
        });
        let max_start = *starts.iter().max().unwrap();
        assert!(
            ends[root as usize] >= max_start,
            "n={n}: reduce root finished before some contributor started"
        );
    }
}

#[test]
fn allreduce_synchronizes_everyone() {
    for n in [3u32, 4, 6] {
        let (starts, ends, _) = run_collective(NicConfig::baseline(), n, |b, me, n| {
            allreduce(b, me, n, 128, 3)
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

#[test]
fn gather_and_scatter_complete() {
    for n in [2u32, 5, 8] {
        run_collective(NicConfig::baseline(), n, |b, me, n| {
            gather(b, me, n, 0, 512, 4);
            scatter(b, me, n, 0, 512, 5);
        });
    }
}

#[test]
fn alltoall_completes_and_stresses_queues() {
    let n = 6u32;
    let (_, _, _) = run_collective(NicConfig::baseline(), n, |b, me, n| {
        alltoall(b, me, n, 1024, 6)
    });
}

#[test]
fn collectives_complete_on_all_nic_configs() {
    for nic in [
        NicConfig::baseline(),
        NicConfig::with_alpus(128),
        NicConfig::with_hash(32),
    ] {
        run_collective(nic, 5, |b, me, n| {
            bcast(b, me, n, 0, 2048, 7);
            allreduce(b, me, n, 64, 8);
            alltoall(b, me, n, 256, 9);
        });
    }
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    // Distinct instances must not interfere even with zero settle time.
    run_collective(NicConfig::baseline(), 4, |b, me, n| {
        for inst in 10..20 {
            bcast(b, me, n, (inst as u32) % n, 64, inst);
        }
    });
}
