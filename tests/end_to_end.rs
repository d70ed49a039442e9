//! Cross-crate integration tests through the `mpiq` facade: the full
//! stack (DES kernel → memory → core → ALPU → NIC → network → MPI) on
//! paper-shaped workloads.

use mpiq::dessim::Time;
use mpiq::mpi::script::mark_log;
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::firmware::check_invariants;
use mpiq::nic::NicConfig;

fn boxed(s: Script) -> Box<dyn AppProgram> {
    Box::new(s)
}

/// The §IV-C race regression: a receive posted (and immediately swept
/// into an ALPU insert session) while its matching message is in flight
/// must still complete. This deadlocked an earlier firmware revision
/// whenever the unexpected queue was past ALPU capacity.
#[test]
fn insert_session_race_regression() {
    for cells in [128usize, 256] {
        let u = cells + 72; // force a non-empty tail
        let marks = mark_log();

        let mut b0 = Script::builder();
        let mut fillers = Vec::new();
        for i in 0..u {
            fillers.push(b0.isend(1, 1000 + i as u16, 64));
        }
        b0.wait_all(fillers);
        b0.barrier();
        b0.sleep(Time::from_us(500));
        for i in 0..6u16 {
            b0.send(1, 7 + i * 32, 64);
            b0.recv(Some(1), Some(8), 0);
        }
        let p0 = b0.build(mark_log());

        let mut b1 = Script::builder();
        b1.barrier();
        b1.sleep(Time::from_us(500));
        for i in 0..6u16 {
            b1.recv(Some(0), Some(7 + i * 32), 64);
            b1.send(0, 8, 0);
        }
        b1.mark(0);
        let p1 = b1.build(marks.clone());

        let mut c = Cluster::new(
            ClusterConfig::new(NicConfig::with_alpus(cells)),
            vec![boxed(p0), boxed(p1)],
        );
        c.run(); // panics on deadlock
        assert_eq!(marks.borrow().len(), 1, "receiver finished ({cells} cells)");
        check_invariants(c.nic(0).firmware());
        check_invariants(c.nic(1).firmware());
    }
}

/// Ordering stress: interleaved wildcard and exact receives against
/// bursts of identical messages must match in exact MPI order on every
/// NIC configuration.
#[test]
fn wildcard_ordering_identical_across_configs() {
    let run = |nic: NicConfig| -> Vec<(u32, u16)> {
        let marks = mark_log();
        let mut b0 = Script::builder();
        b0.barrier();
        // 12 messages with the same tag, 4 with another.
        for _ in 0..12 {
            b0.isend(1, 5, 32);
        }
        for _ in 0..4 {
            b0.isend(1, 9, 32);
        }
        b0.barrier();
        let p0 = b0.build(mark_log());

        let mut b1 = Script::builder();
        // Interleave exact, ANY_SOURCE, and ANY_TAG receives, posted
        // before the burst.
        let mut slots = Vec::new();
        for i in 0..16 {
            let slot = match i % 4 {
                0 => b1.irecv(Some(0), Some(5), 32),
                1 => b1.irecv(None, Some(5), 32),
                2 => b1.irecv(Some(0), None, 32),
                _ => b1.irecv(None, Some(9), 32),
            };
            slots.push(slot);
        }
        b1.barrier();
        b1.barrier();
        b1.wait_all(slots);
        b1.mark(0);
        let p1 = b1.build(marks.clone());

        let mut c = Cluster::new(ClusterConfig::new(nic), vec![boxed(p0), boxed(p1)]);
        c.run();
        assert_eq!(marks.borrow().len(), 1);
        // Return something deterministic about the final state.
        let fw = c.nic(1).firmware();
        vec![(fw.posted_len() as u32, 0), (fw.unexpected_len() as u32, 1)]
    };
    let base = run(NicConfig::baseline());
    assert_eq!(base, run(NicConfig::with_alpus(128)));
    assert_eq!(base, run(NicConfig::with_alpus(256)));
    // Everything drained: ANY_TAG receives soak up the leftovers.
    assert_eq!(base[0].0, 0, "posted queue drained");
    assert_eq!(base[1].0, 0, "unexpected queue drained");
}

/// All three NIC variants complete a 4-rank all-to-all-ish exchange and
/// the ALPU shadow invariants hold afterwards.
#[test]
fn four_rank_exchange_all_configs() {
    for nic in [
        NicConfig::baseline(),
        NicConfig::with_alpus(128),
        NicConfig::with_alpus(256),
    ] {
        let n = 4u32;
        let marks = mark_log();
        let programs: Vec<Box<dyn AppProgram>> = (0..n)
            .map(|me| {
                let mut b = Script::builder();
                let mut recvs = Vec::new();
                for peer in 0..n {
                    if peer != me {
                        recvs.push(b.irecv(Some(peer as u16), Some(me as u16), 512));
                    }
                }
                b.barrier();
                for peer in 0..n {
                    if peer != me {
                        b.isend(peer, peer as u16, 512);
                    }
                }
                b.wait_all(recvs);
                b.barrier();
                b.mark(me);
                boxed(b.build(marks.clone()))
            })
            .collect();
        let mut c = Cluster::new(ClusterConfig::new(nic), programs);
        c.run();
        assert_eq!(marks.borrow().len(), 4);
        for r in 0..n {
            check_invariants(c.nic(r).firmware());
            assert_eq!(c.nic(r).firmware().posted_len(), 0);
            assert_eq!(c.nic(r).firmware().unexpected_len(), 0);
        }
    }
}

/// The headline quantitative claims, asserted end to end through the
/// facade (coarser twins of the figure harness tests).
#[test]
fn headline_claims_hold() {
    use mpiq_bench::{preposted_latency, NicVariant, PrepostedPoint};
    let lat = |v, q| {
        preposted_latency(
            v,
            PrepostedPoint {
                queue_len: q,
                fraction: 1.0,
                msg_size: 0,
            },
        )
        .latency
    };
    // ~15 ns/entry in cache.
    let slope = (lat(NicVariant::Baseline, 200) - lat(NicVariant::Baseline, 0)).ps() as f64 / 200e3;
    assert!((10.0..25.0).contains(&slope), "slope {slope} ns/entry");
    // Break-even near 5 entries: ALPU no worse than baseline from 6 up.
    assert!(lat(NicVariant::Alpu128, 6) <= lat(NicVariant::Baseline, 6));
    // Zero-length penalty under 150 ns.
    let penalty = lat(NicVariant::Alpu128, 0).saturating_sub(lat(NicVariant::Baseline, 0));
    assert!(penalty < Time::from_ns(150), "penalty {penalty}");
}

/// `check_invariants` is exact at the end of any run, including one that
/// stops with an insert session still queued in a unit's command FIFO.
/// The Fig. 5 ping-pong (both ranks pre-post the queue) whose queue
/// exactly fills the unit ends that way: the last INSERT and the
/// STOP INSERT are pushed but the unit's clock was never synced past
/// them.
#[test]
fn invariants_hold_at_end_of_fig5_run_with_queued_inserts() {
    for (cells, queue_len) in [(128usize, 127usize), (128, 128), (128, 129), (256, 256)] {
        for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let depth = (queue_len as f64 * fraction).floor() as usize;
            // Rank `me` pre-posts the queue; rank 0 pings with tag 7 and
            // rank 1 answers with tag 8.
            let program = |me: u16| {
                let mut b = Script::builder();
                let mut matching = 0;
                for i in 0..=queue_len {
                    let tag = if i == depth {
                        8 - me
                    } else {
                        10_000 + i as u16
                    };
                    let h = b.irecv(Some(1 - me), Some(tag), 0);
                    if i == depth {
                        matching = h;
                    }
                }
                b.barrier();
                b.sleep(Time::from_us(400));
                if me == 0 {
                    b.send(1, 7, 0);
                }
                b.wait(matching);
                if me == 1 {
                    b.send(0, 8, 0);
                }
                boxed(b.build(mark_log()))
            };
            let mut c = Cluster::new(
                ClusterConfig::new(NicConfig::with_alpus(cells)),
                vec![program(0), program(1)],
            );
            c.run();
            for r in 0..2 {
                check_invariants(c.nic(r).firmware());
            }
        }
    }
}
