//! Multi-process-per-node tests (the paper's footnote 1: supporting "a
//! limited number of processes" on one NIC). Co-located ranks share a
//! NIC and its ALPUs; the local process id folded into the match context
//! must keep their queues fully isolated.

use mpiq::mpi::script::{mark_log, status_log};
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, MpiStatus, Script};
use mpiq::nic::NicConfig;

fn two_per_node(mut nic: NicConfig) -> NicConfig {
    nic.ranks_per_node = 2;
    nic
}

#[test]
fn colocated_and_cross_node_pingpong() {
    for nic in [
        two_per_node(NicConfig::baseline()),
        two_per_node(NicConfig::with_alpus(128)),
    ] {
        // Ranks 0,1 on node 0; ranks 2,3 on node 1.
        let marks = mark_log();
        let mut b0 = Script::builder();
        b0.send(1, 10, 64); // co-located
        b0.recv(Some(1), Some(11), 64);
        b0.send(2, 12, 64); // cross-node
        b0.recv(Some(2), Some(13), 64);
        b0.mark(0);
        let mut b1 = Script::builder();
        b1.recv(Some(0), Some(10), 64);
        b1.send(0, 11, 64);
        let mut b2 = Script::builder();
        b2.recv(Some(0), Some(12), 64);
        b2.send(0, 13, 64);
        let b3 = Script::builder().build(mark_log());
        let programs: Vec<Box<dyn AppProgram>> = vec![
            Box::new(b0.build(marks.clone())),
            Box::new(b1.build(mark_log())),
            Box::new(b2.build(mark_log())),
            Box::new(b3),
        ];
        let mut c = Cluster::new(ClusterConfig::new(nic), programs);
        c.run();
        assert_eq!(marks.borrow().len(), 1);
        // Two nodes only: ranks 0 and 1 share the first NIC.
        assert!(std::ptr::eq(c.nic(0), c.nic(1)));
        assert!(std::ptr::eq(c.nic(2), c.nic(3)));
        assert!(!std::ptr::eq(c.nic(0), c.nic(2)));
    }
}

#[test]
fn colocated_processes_queues_are_isolated() {
    // Ranks 0 and 1 share a NIC and both post ANY_SOURCE receives with the
    // SAME tag. Rank 2 sends to rank 0; rank 3 sends to rank 1. Without
    // pid isolation the shared match list could cross-deliver.
    for nic in [
        two_per_node(NicConfig::baseline()),
        two_per_node(NicConfig::with_alpus(128)),
        two_per_node(NicConfig::with_hash(16)),
    ] {
        let logs: Vec<_> = (0..2).map(|_| status_log()).collect();
        let mut b0 = Script::builder();
        let r0 = b0.irecv(None, Some(5), 64);
        b0.wait(r0);
        b0.status(r0, 0);
        let mut b1 = Script::builder();
        let r1 = b1.irecv(None, Some(5), 64);
        b1.wait(r1);
        b1.status(r1, 0);
        let mut b2 = Script::builder();
        b2.send(0, 5, 64);
        let mut b3 = Script::builder();
        b3.send(1, 5, 64);
        let programs: Vec<Box<dyn AppProgram>> = vec![
            Box::new(b0.build(mark_log()).with_status_log(logs[0].clone())),
            Box::new(b1.build(mark_log()).with_status_log(logs[1].clone())),
            Box::new(b2.build(mark_log())),
            Box::new(b3.build(mark_log())),
        ];
        let mut c = Cluster::new(ClusterConfig::new(nic), programs);
        c.run();
        assert_eq!(
            logs[0].borrow()[0].1,
            MpiStatus {
                source: 2,
                tag: 5,
                len: 64,
                cancelled: false,
                overflow: false,
                error: None
            },
            "rank 0 must receive rank 2's message"
        );
        assert_eq!(
            logs[1].borrow()[0].1,
            MpiStatus {
                source: 3,
                tag: 5,
                len: 64,
                cancelled: false,
                overflow: false,
                error: None
            },
            "rank 1 must receive rank 3's message"
        );
    }
}

#[test]
fn shared_nic_serializes_but_completes_everything() {
    // 4 ranks on 1 node: all traffic is loopback through one NIC.
    let mut nic = NicConfig::with_alpus(128);
    nic.ranks_per_node = 4;
    let marks = mark_log();
    let programs: Vec<Box<dyn AppProgram>> = (0..4u32)
        .map(|me| {
            let mut b = Script::builder();
            let mut slots = Vec::new();
            for peer in 0..4u32 {
                if peer != me {
                    slots.push(b.irecv(Some(peer as u16), Some(me as u16), 128));
                    slots.push(b.isend(peer, peer as u16, 128));
                }
            }
            b.wait_all(slots);
            b.barrier();
            b.mark(me);
            Box::new(b.build(marks.clone())) as Box<dyn AppProgram>
        })
        .collect();
    let mut c = Cluster::new(ClusterConfig::new(nic), programs);
    c.run();
    assert_eq!(marks.borrow().len(), 4);
    mpiq::nic::firmware::check_invariants(c.nic(0).firmware());
}

#[test]
fn rendezvous_across_colocated_processes() {
    let nic = two_per_node(NicConfig::baseline());
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.send(1, 9, 32 * 1024); // co-located rendezvous
    b0.send(3, 9, 32 * 1024); // cross-node rendezvous to pid 1 of node 1
    b0.mark(0);
    let mut b1 = Script::builder();
    b1.recv(Some(0), Some(9), 32 * 1024);
    let b2 = Script::builder().build(mark_log());
    let mut b3 = Script::builder();
    b3.recv(Some(0), Some(9), 32 * 1024);
    b3.mark(1);
    let programs: Vec<Box<dyn AppProgram>> = vec![
        Box::new(b0.build(marks.clone())),
        Box::new(b1.build(mark_log())),
        Box::new(b2),
        Box::new(b3.build(marks.clone())),
    ];
    let mut c = Cluster::new(ClusterConfig::new(nic), programs);
    c.run();
    assert_eq!(marks.borrow().len(), 2);
}
