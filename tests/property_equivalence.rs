//! Property test: random race-free workloads complete with *identical
//! application-visible results* on the baseline NIC, the hash-matching
//! NIC, and both ALPU NICs — only timing may differ.
//!
//! "Race-free" here means the matching outcome is semantically
//! determined: every message carries a globally unique tag, and receives
//! are either fully explicit or `MPI_ANY_SOURCE` with an explicit
//! (unique) tag, so no wildcard can legally match more than one message.
//! Under that restriction MPI mandates a single outcome, and all four
//! matching engines must produce it.

use mpiq::dessim::SimRng;
use mpiq::mpi::script::status_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, MpiStatus, Script};
use mpiq::nic::NicConfig;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Msg {
    src: u32,
    dst: u32,
    tag: u16,
    len: u32,
    any_source_recv: bool,
}

/// Generate a random race-free message set for `ranks` ranks.
fn workload(ranks: u32, seed: u64, count: usize) -> Vec<Msg> {
    let mut rng = SimRng::new(seed);
    (0..count)
        .map(|i| {
            let src = rng.gen_range(ranks as u64) as u32;
            let mut dst = rng.gen_range(ranks as u64) as u32;
            if dst == src {
                dst = (dst + 1) % ranks;
            }
            let len = [0u32, 64, 1500, 4096][rng.gen_range(4) as usize];
            Msg {
                src,
                dst,
                tag: 100 + i as u16, // globally unique
                len,
                any_source_recv: rng.gen_bool(0.3),
            }
        })
        .collect()
}

/// Run the workload on one NIC config; returns per-rank sorted receive
/// statuses.
fn run(nic: NicConfig, ranks: u32, msgs: &[Msg], shuffle_seed: u64) -> Vec<Vec<(u32, MpiStatus)>> {
    let mut rng = SimRng::new(shuffle_seed);
    let logs: Vec<_> = (0..ranks).map(|_| status_log()).collect();
    let programs: Vec<Box<dyn AppProgram>> = (0..ranks)
        .map(|me| {
            let mut b = Script::builder();
            // Recvs posted in a per-rank random order (posting order is
            // semantically irrelevant for race-free workloads).
            let mut my_recvs: Vec<&Msg> = msgs.iter().filter(|m| m.dst == me).collect();
            rng.shuffle(&mut my_recvs);
            let mut recv_ops = Vec::new();
            for m in &my_recvs {
                let src = (!m.any_source_recv).then_some(m.src as u16);
                recv_ops.push((b.irecv(src, Some(m.tag), m.len), m.tag));
            }
            // Sends likewise, half before and half after a barrier so some
            // land unexpected and some pre-posted.
            let mut my_sends: Vec<&Msg> = msgs.iter().filter(|m| m.src == me).collect();
            rng.shuffle(&mut my_sends);
            let cut = my_sends.len() / 2;
            let mut send_slots = Vec::new();
            for m in &my_sends[..cut] {
                send_slots.push(b.isend(m.dst, m.tag, m.len));
            }
            b.barrier();
            for m in &my_sends[cut..] {
                send_slots.push(b.isend(m.dst, m.tag, m.len));
            }
            for (slot, tag) in &recv_ops {
                b.wait(*slot);
                b.status(*slot, *tag as u32);
            }
            b.wait_all(send_slots);
            Box::new(
                b.build(mpiq::mpi::script::mark_log())
                    .with_status_log(logs[me as usize].clone()),
            ) as Box<dyn AppProgram>
        })
        .collect();

    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster.run();
    logs.iter()
        .map(|l| {
            let mut v = l.borrow().clone();
            v.sort_by_key(|&(id, _)| id);
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_matching_engines_agree(seed in any::<u64>(), count in 4usize..24) {
        let ranks = 3u32;
        let msgs = workload(ranks, seed, count);
        let base = run(NicConfig::baseline(), ranks, &msgs, seed ^ 1);
        // Every receive completed with the right source/tag/len.
        let total: usize = base.iter().map(Vec::len).sum();
        prop_assert_eq!(total, msgs.len());
        for m in &msgs {
            let got = base[m.dst as usize]
                .iter()
                .find(|&&(id, _)| id == m.tag as u32)
                .map(|&(_, st)| st);
            prop_assert_eq!(
                got,
                Some(MpiStatus { source: m.src as u16, tag: m.tag, len: m.len, cancelled: false, overflow: false, error: None }),
                "message {:?} misdelivered", m
            );
        }
        // And every other engine agrees exactly.
        for nic in [
            NicConfig::with_alpus(128),
            NicConfig::with_alpus(256),
            NicConfig::with_hash(32),
        ] {
            let other = run(nic, ranks, &msgs, seed ^ 1);
            prop_assert_eq!(&base, &other);
        }
    }
}
