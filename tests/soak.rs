//! Soak test: sustained random traffic over every NIC configuration —
//! the long-haul stress that shakes out rare interleavings (insert-race
//! windows, FIFO pressure, rendezvous token reuse, multi-process
//! routing). Deterministic: failures reproduce from the seed.

use mpiq::dessim::SimRng;
use mpiq::mpi::script::{mark_log, status_log};
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::firmware::check_invariants;
use mpiq::nic::NicConfig;

/// Build a heavy random-but-race-free workload: `count` uniquely tagged
/// messages among `ranks` ranks, mixed sizes, mixed posting orders, some
/// cancels of never-matching receives sprinkled in.
fn soak_once(nic: NicConfig, ranks: u32, count: usize, seed: u64) -> u64 {
    let mut rng = SimRng::new(seed);
    #[derive(Clone, Copy)]
    struct Msg {
        src: u32,
        dst: u32,
        tag: u16,
        len: u32,
        wildcard: bool,
    }
    let msgs: Vec<Msg> = (0..count)
        .map(|i| {
            let src = rng.gen_range(ranks as u64) as u32;
            let dst = (src + 1 + rng.gen_range(ranks as u64 - 1) as u32) % ranks;
            Msg {
                src,
                dst,
                tag: 100 + i as u16,
                len: [0u32, 32, 512, 3000, 10_000][rng.gen_range(5) as usize],
                wildcard: rng.gen_bool(0.35),
            }
        })
        .collect();

    let logs: Vec<_> = (0..ranks).map(|_| status_log()).collect();
    let programs: Vec<Box<dyn AppProgram>> = (0..ranks)
        .map(|me| {
            let mut b = Script::builder();
            let mut my_recvs: Vec<&Msg> = msgs.iter().filter(|m| m.dst == me).collect();
            rng.shuffle(&mut my_recvs);
            let mut recv_slots = Vec::new();
            for m in &my_recvs {
                let src = (!m.wildcard).then_some(m.src as u16);
                recv_slots.push(b.irecv(src, Some(m.tag), m.len));
            }
            // Decoys: receives that never match, cancelled later — keeps
            // tombstone machinery under load on the ALPU configs.
            let decoys: Vec<usize> = (0..6)
                .map(|d| b.irecv(Some(0), Some(30_000 + d as u16 + me as u16 * 16), 0))
                .collect();
            b.barrier();
            let mut my_sends: Vec<&Msg> = msgs.iter().filter(|m| m.src == me).collect();
            rng.shuffle(&mut my_sends);
            let mut send_slots = Vec::new();
            for m in my_sends {
                send_slots.push(b.isend(m.dst, m.tag, m.len));
            }
            for (i, slot) in recv_slots.iter().enumerate() {
                b.wait(*slot);
                b.status(*slot, i as u32);
            }
            b.wait_all(send_slots);
            for d in decoys {
                b.cancel(d);
            }
            b.barrier();
            Box::new(
                b.build(mark_log())
                    .with_status_log(logs[me as usize].clone()),
            ) as Box<dyn AppProgram>
        })
        .collect();

    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster.run();
    for r in 0..ranks {
        check_invariants(cluster.nic(r).firmware());
    }
    let received: usize = logs.iter().map(|l| l.borrow().len()).sum();
    assert_eq!(
        received, count,
        "every message must be received exactly once"
    );
    // A cheap digest of all statuses for determinism checks.
    let mut digest = 0u64;
    for l in &logs {
        for &(id, st) in l.borrow().iter() {
            digest = digest
                .wrapping_mul(0x100000001b3)
                .wrapping_add((id as u64) << 32 | (st.tag as u64) << 16 | st.source as u64)
                .wrapping_add(st.len as u64);
        }
    }
    digest
}

#[test]
fn soak_all_configs() {
    for (i, nic) in [
        NicConfig::baseline(),
        NicConfig::with_alpus(128),
        NicConfig::with_alpus(256),
        NicConfig::with_hash(32),
    ]
    .into_iter()
    .enumerate()
    {
        soak_once(nic, 4, 160, 0xBEEF + i as u64);
    }
}

#[test]
fn soak_multiprocess() {
    let mut nic = NicConfig::with_alpus(128);
    nic.ranks_per_node = 2;
    soak_once(nic, 6, 140, 0xCAFE);
}

#[test]
fn soak_is_deterministic() {
    let a = soak_once(NicConfig::with_alpus(128), 3, 90, 7);
    let b = soak_once(NicConfig::with_alpus(128), 3, 90, 7);
    assert_eq!(a, b);
}

#[test]
fn soak_small_alpu_overflow() {
    // An 8-cell ALPU against ~100 messages: constant overflow into the
    // software tail, constant insert sessions.
    let nic = NicConfig::with_alpus(8);
    soak_once(nic, 3, 100, 0xD00D);
}
