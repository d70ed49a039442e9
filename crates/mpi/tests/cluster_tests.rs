//! End-to-end tests of the MPI layer: scripts on simulated clusters.

use mpiq_dessim::Time;
use mpiq_mpi::script::mark_log;
use mpiq_mpi::{Cluster, ClusterConfig, ClusterError, Script};
use mpiq_nic::NicConfig;

fn cluster(nic: NicConfig, programs: Vec<Script>) -> Cluster {
    Cluster::new(
        ClusterConfig::new(nic),
        programs
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn mpiq_mpi::AppProgram>)
            .collect(),
    )
}

#[test]
fn two_rank_pingpong() {
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.mark(0);
    for i in 0..5 {
        b0.send(1, 100 + i, 0);
        b0.recv(Some(1), Some(200 + i), 0);
    }
    b0.mark(1);
    let p0 = b0.build(marks.clone());

    let mut b1 = Script::builder();
    for i in 0..5 {
        b1.recv(Some(0), Some(100 + i), 0);
        b1.send(0, 200 + i, 0);
    }
    let p1 = b1.build(mark_log());

    let mut c = cluster(NicConfig::baseline(), vec![p0, p1]);
    c.run();
    let m = marks.borrow();
    let rtt = (m[1].1 - m[0].1) / 5;
    assert!(
        rtt > Time::from_ns(500) && rtt < Time::from_us(5),
        "per-iteration RTT {rtt} out of range"
    );
}

#[test]
fn barrier_synchronizes_four_ranks() {
    // Each rank marks before and after a barrier; all "after" marks must
    // exceed every "before" mark.
    let logs: Vec<_> = (0..4).map(|_| mark_log()).collect();
    let programs: Vec<Script> = (0..4u32)
        .map(|r| {
            let mut b = Script::builder();
            // Stagger arrival at the barrier.
            if r == 3 {
                b.send(0, 999, 0);
            }
            if r == 0 {
                b.recv(Some(3), Some(999), 0);
            }
            b.mark(0);
            b.barrier();
            b.mark(1);
            b.build(logs[r as usize].clone())
        })
        .collect();
    let mut c = cluster(NicConfig::baseline(), programs);
    c.run();
    let befores: Vec<Time> = logs.iter().map(|l| l.borrow()[0].1).collect();
    let afters: Vec<Time> = logs.iter().map(|l| l.borrow()[1].1).collect();
    let max_before = *befores.iter().max().unwrap();
    for (r, &a) in afters.iter().enumerate() {
        assert!(
            a >= max_before,
            "rank {r} left the barrier at {a}, before rank arrival at {max_before}"
        );
    }
}

#[test]
fn waitall_overlaps_sends() {
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.mark(0);
    let slots: Vec<usize> = (0..8).map(|i| b0.isend(1, i as u16, 1024)).collect();
    b0.wait_all(slots);
    b0.mark(1);
    let p0 = b0.build(marks.clone());

    let mut b1 = Script::builder();
    for i in 0..8 {
        b1.recv(Some(0), Some(i), 1024);
    }
    let p1 = b1.build(mark_log());

    let mut c = cluster(NicConfig::baseline(), vec![p0, p1]);
    c.run();
    let m = marks.borrow();
    let total = m[1].1 - m[0].1;
    // 8 overlapped 1KB eager sends complete locally far faster than 8
    // full round trips.
    assert!(total < Time::from_us(8), "waitall took {total}");
}

#[test]
fn any_source_receives_from_multiple_senders() {
    let marks = mark_log();
    let mut b2 = Script::builder();
    for _ in 0..2 {
        b2.recv(None, Some(5), 64);
    }
    b2.mark(9);
    let p2 = b2.build(marks.clone());

    let mut b0 = Script::builder();
    b0.send(2, 5, 64);
    let mut b1 = Script::builder();
    b1.send(2, 5, 64);

    let mut c = cluster(
        NicConfig::baseline(),
        vec![b0.build(mark_log()), b1.build(mark_log()), p2],
    );
    c.run();
    assert_eq!(marks.borrow().len(), 1, "receiver consumed both messages");
}

#[test]
fn results_identical_across_nic_configs() {
    // A mixed workload; the mark times differ across configs but the
    // message flow must complete identically (no deadlock, same count).
    let run = |nic: NicConfig| -> usize {
        let marks = mark_log();
        let mut b0 = Script::builder();
        for i in 0..30 {
            b0.isend(1, 3000 + i, 128);
        }
        b0.barrier();
        b0.recv(Some(1), Some(1), 0);
        b0.mark(0);
        let p0 = b0.build(marks.clone());

        let mut b1 = Script::builder();
        b1.barrier();
        for i in 0..30 {
            b1.recv(Some(0), Some(3000 + i), 128);
        }
        b1.send(0, 1, 0);
        let p1 = b1.build(marks.clone());

        let mut c = cluster(nic, vec![p0, p1]);
        c.run();
        let n = marks.borrow().len();
        n
    };
    assert_eq!(run(NicConfig::baseline()), 1);
    assert_eq!(run(NicConfig::with_alpus(128)), 1);
    assert_eq!(run(NicConfig::with_alpus(256)), 1);
}

#[test]
fn rendezvous_and_eager_mix() {
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.send(1, 1, 64); // eager
    b0.send(1, 2, 16 * 1024); // rendezvous
    b0.send(1, 3, 0); // eager zero
    let p0 = b0.build(mark_log());

    let mut b1 = Script::builder();
    b1.recv(Some(0), Some(1), 64);
    b1.recv(Some(0), Some(2), 16 * 1024);
    b1.recv(Some(0), Some(3), 0);
    b1.mark(0);
    let p1 = b1.build(marks.clone());

    let mut c = cluster(NicConfig::baseline(), vec![p0, p1]);
    c.run();
    assert_eq!(marks.borrow().len(), 1);
}

#[test]
fn deterministic_repeat_runs() {
    let run_once = || {
        let marks = mark_log();
        let mut b0 = Script::builder();
        b0.send(1, 1, 256);
        b0.recv(Some(1), Some(2), 256);
        b0.mark(0);
        let p0 = b0.build(marks.clone());
        let mut b1 = Script::builder();
        b1.recv(Some(0), Some(1), 256);
        b1.send(0, 2, 256);
        let p1 = b1.build(mark_log());
        let mut c = cluster(NicConfig::with_alpus(128), vec![p0, p1]);
        c.run();
        let t = marks.borrow()[0].1;
        t
    };
    assert_eq!(run_once(), run_once(), "simulation must be deterministic");
}

/// `ranks` programs that each run one agreement, boxed for a cluster.
fn agreeing(ranks: u32) -> Vec<Box<dyn mpiq_mpi::AppProgram>> {
    (0..ranks)
        .map(|_| {
            let mut b = Script::builder();
            b.agree(None);
            Box::new(b.build(mark_log())) as Box<dyn mpiq_mpi::AppProgram>
        })
        .collect()
}

#[test]
fn agree_wider_than_the_mask_is_a_typed_build_error() {
    let cfg = ClusterConfig::new(NicConfig::baseline());
    match Cluster::try_new(cfg.clone(), agreeing(17)) {
        Err(e) => assert_eq!(
            e,
            ClusterError::WorldTooWide {
                rank: 0,
                ranks: 17,
                max: 16
            }
        ),
        Ok(_) => panic!("a 17-rank agreement must be rejected at build time"),
    }
    // A staged recovery program is checked too.
    let plain = (0..17)
        .map(|_| Box::new(Script::builder().build(mark_log())) as Box<dyn mpiq_mpi::AppProgram>)
        .collect();
    let mut recovery: Vec<_> = (0..17).map(|_| None).collect();
    recovery[5] = agreeing(1).pop();
    let err = Cluster::try_with_recovery(cfg.clone(), plain, recovery).err();
    assert!(matches!(
        err,
        Some(ClusterError::WorldTooWide { rank: 5, .. })
    ));
    // At the mask width the cluster builds and the agreement completes.
    let mut c = Cluster::try_new(cfg, agreeing(16)).expect("16 ranks fit the mask");
    c.run();
}
