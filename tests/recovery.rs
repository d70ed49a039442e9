//! Recovery, end to end: restart/rejoin with incarnation epochs,
//! fault-tolerant agreement, and communicator shrink.
//!
//! `fault_domains.rs` proves failures are *detected* (typed errors
//! instead of hangs). This suite proves the cluster *recovers*:
//!
//! * **restart/rejoin** — a crashed node comes back under a new
//!   incarnation epoch, survivors fence its stale link state (the
//!   reincarnation guard), and retried sends/recvs plus a fresh
//!   offload-path collective all complete across the rebooted rank;
//! * **agreement** — ULFM-shaped `agree` produces one identical
//!   failed-set mask on every survivor even when the rank dies
//!   mid-agreement, and the NIC-offloaded run is equivalent to the
//!   host fallback;
//! * **shrink** — survivors rebuild a dense rank mapping locally from
//!   the agreed mask, and barrier/bcast/allreduce over the shrunk
//!   communicator complete on both the hub and the switched fat tree;
//! * **determinism** — the whole recovery pipeline is bit-identical
//!   from run to run, and the recovery machinery is free when
//!   unarmed (`Cluster::new` ≡ `Cluster::with_recovery` with no
//!   recovery programs, byte for byte);
//! * **detector tuning** — the same outage is fatal under a strict
//!   failure detector and survivable under a lenient one
//!   (`ClusterConfig::builder(..).failure_detector(..)`), pinning the
//!   false-positive regression;
//! * **offloaded collectives under flaps** — a mid-plan link flap
//!   resyncs (short) or goes sticky-dead with typed failures (long),
//!   identically on the offload and host-fallback paths.

use mpiq::dessim::{FaultSchedule, Time};
use mpiq::mpi::script::{mark_log, status_log, StatusLog};
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, MpiStatus, Script};
use mpiq::net::Topology;
use mpiq::nic::{CollOp, NicConfig};

const FAT_TREE: Topology = Topology::FatTree { down: 4, up: 2 };

fn nic(offload: bool) -> NicConfig {
    let mut cfg = NicConfig::baseline();
    cfg.coll_offload = offload;
    cfg
}

fn statuses_of(log: &StatusLog) -> Vec<(u32, MpiStatus)> {
    log.borrow().clone()
}

fn find(statuses: &[(u32, MpiStatus)], id: u32) -> MpiStatus {
    statuses
        .iter()
        .find(|(i, _)| *i == id)
        .unwrap_or_else(|| panic!("status {id} not recorded: {statuses:?}"))
        .1
}

// ---------------------------------------------------------------------
// Restart / rejoin
// ---------------------------------------------------------------------

/// The full rejoin story on 3 ranks: rank 2 crashes at 40us and
/// restarts at 200us under incarnation epoch 1. Survivors see it
/// declared dead (keepalive at 140us), keep retrying with backoff, and
/// succeed once the scheduled `PeerRestart` fences the old epoch and
/// revives the peer. The rebooted rank runs a staged recovery program —
/// new sends, new recvs, and an offload-path allreduce aligned to the
/// survivors' instance counters — and everything completes.
///
/// Epoch fencing is asserted through the `fault.epoch_fences` counters
/// (the frame-level ghost-drop behavior is pinned by the
/// `reincarnation_fence_resyncs_window_and_drops_ghosts` regression in
/// `mpiq-nic::reliability`).
#[test]
fn restarted_node_rejoins_and_completes_new_work() {
    const RANKS: u32 = 3;
    const DEAD: u32 = 2;
    let sched: FaultSchedule = "crash@40us:node=2,mttr=160us"
        .parse()
        .expect("spec grammar");

    let mut logs = Vec::new();
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    let mut recovery: Vec<Option<Box<dyn AppProgram>>> = Vec::new();
    for me in 0..RANKS {
        let log = status_log();
        let mut b = Script::builder();
        // Everyone joins a pre-crash collective (consumes instance 0)
        // and an all-to-all exchange, all finished well before 40us.
        b.coll_barrier();
        let mut pending = Vec::new();
        let mut recvs = Vec::new();
        for peer in (0..RANKS).filter(|&p| p != me) {
            let r = b.irecv(Some(peer as u16), Some(100 + peer as u16), 256);
            recvs.push((r, peer));
            pending.push(r);
            pending.push(b.isend(peer, 100 + me as u16, 256));
        }
        b.wait_all(pending);
        for (r, peer) in recvs {
            b.status(r, me * 100 + peer);
        }
        if me != DEAD {
            // Sleep past the 140us dead-declaration so the first retry
            // attempt fails *typed* (an eager send to a silently-down
            // node completes fire-and-forget and would mask the loss).
            b.sleep(Time::from_us(150));
            b.retry_send(DEAD, 200 + me as u16, 256, 8, Time::from_us(30), Some(20));
            b.retry_recv(DEAD as u16, 300, 256, 8, Time::from_us(30), Some(21));
            // Fresh post-rejoin collective, instance 1.
            b.coll(CollOp::Allreduce, 0, 64, Some(22));
        }
        programs.push(Box::new(b.build(mark_log()).with_status_log(log.clone())));
        logs.push(log);

        if me == DEAD {
            // Staged recovery: greet both survivors, collect their
            // retried sends, then join their allreduce. The instance
            // base aligns this script's collective slots with the
            // survivors' (they already consumed instance 0 pre-crash).
            let rlog = status_log();
            let mut rb = Script::builder();
            for peer in (0..RANKS).filter(|&p| p != DEAD) {
                rb.isend(peer, 300, 256);
            }
            let mut rr = Vec::new();
            for peer in (0..RANKS).filter(|&p| p != DEAD) {
                let r = rb.irecv(Some(peer as u16), Some(200 + peer as u16), 256);
                rb.wait(r);
                rr.push((r, peer));
            }
            for (r, peer) in rr {
                rb.status(r, 10 + peer);
            }
            rb.coll(CollOp::Allreduce, 0, 64, Some(22));
            logs.push(rlog.clone());
            recovery.push(Some(Box::new(
                rb.build(mark_log())
                    .with_status_log(rlog)
                    .with_instance_base(1, 0),
            )));
        } else {
            recovery.push(None);
        }
    }

    let cfg = ClusterConfig::builder(nic(true))
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::with_recovery(cfg, programs, recovery);
    c.run_watched(Time::from_ms(50))
        .unwrap_or_else(|d| panic!("rejoin run stalled: {d}"));

    // Survivors: pre-crash exchange clean, retries concluded in
    // success, post-rejoin allreduce clean (no typed failure — the
    // rebooted rank participated).
    for me in (0..RANKS).filter(|&r| r != DEAD) {
        let st = statuses_of(&logs[me as usize]);
        for peer in (0..RANKS).filter(|&p| p != me) {
            let s = find(&st, me * 100 + peer);
            assert_eq!(s.error, None, "rank {me}: pre-crash recv from {peer}");
            assert_eq!(s.len, 256);
        }
        for id in [20, 21] {
            let s = find(&st, id);
            assert_eq!(
                s.error, None,
                "rank {me}: retry op {id} must end in success"
            );
            assert!(!s.cancelled);
        }
        let s = find(&st, 22);
        assert_eq!(
            s.error, None,
            "rank {me}: post-rejoin allreduce failed: {s:?}"
        );
    }
    // The rebooted rank's recovery program got both retried sends.
    let rst = statuses_of(&logs[RANKS as usize]);
    for peer in (0..RANKS).filter(|&p| p != DEAD) {
        let s = find(&rst, 10 + peer);
        assert_eq!(s.error, None, "recovered rank: recv from {peer}");
        assert_eq!(s.len, 256);
    }
    assert_eq!(find(&rst, 22).error, None, "recovered rank: allreduce");

    let stats = c.stats();
    for p in ["nic0", "nic1"] {
        assert!(
            stats.get(&format!("{p}.fault.peers_failed")) >= 1,
            "{p} never declared the crashed peer dead"
        );
        assert!(
            stats.get(&format!("{p}.fault.peers_revived")) >= 1,
            "{p} never revived the restarted peer"
        );
        assert!(
            stats.get(&format!("{p}.fault.epoch_fences")) >= 1,
            "{p} never fenced the old incarnation's link state"
        );
    }
    assert_eq!(
        stats.get("nic2.fault.incarnation"),
        1,
        "the restarted NIC must run under epoch 1"
    );
    assert_eq!(stats.get("nic2.fault.crashed"), 1);
}

// ---------------------------------------------------------------------
// Agreement
// ---------------------------------------------------------------------

/// Run the agree workload (rank 3 dies mid-agreement) and return every
/// survivor's recorded agree status.
fn agree_run(offload: bool) -> Vec<MpiStatus> {
    const RANKS: u32 = 4;
    let sched: FaultSchedule = "crash@20us:node=3".parse().expect("spec grammar");
    let mut logs = Vec::new();
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..RANKS {
        let log = status_log();
        let mut b = Script::builder();
        // Survivors enter agreement at 10us; rank 3 is still asleep when
        // the crash lands at 20us, so the survivors are provably parked
        // mid-protocol (sweep 1 cannot pass without rank 3's frames).
        b.sleep(if me == 3 {
            Time::from_us(30)
        } else {
            Time::from_us(10)
        });
        b.agree(Some(0));
        programs.push(Box::new(b.build(mark_log()).with_status_log(log.clone())));
        logs.push(log);
    }
    let cfg = ClusterConfig::builder(nic(offload))
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::new(cfg, programs);
    c.run_watched(Time::from_ms(50))
        .unwrap_or_else(|d| panic!("agree run (offload={offload}) stalled: {d}"));
    if offload {
        assert!(
            c.nic(0).firmware().stats().coll_offloaded > 0,
            "offload run never offloaded an agreement sweep"
        );
    }
    (0..3).map(|r| find(&statuses_of(&logs[r]), 0)).collect()
}

/// A crash in the middle of an agreement still yields *one* failed-set:
/// every survivor's agreed mask is identical (exactly {rank 3}), with
/// no typed error — failures are agreement's output, not a fault. And
/// the NIC-offloaded run returns byte-identical statuses to the host
/// fallback.
#[test]
fn agree_is_consistent_under_mid_agreement_crash_and_offload_equivalent() {
    let off = agree_run(true);
    let host = agree_run(false);
    for (r, s) in off.iter().enumerate() {
        assert_eq!(s.len, 1 << 3, "rank {r}: agreed mask must be exactly {{3}}");
        assert_eq!(s.error, None, "rank {r}: agreement itself must not fail");
        assert!(!s.cancelled);
    }
    assert!(
        off.windows(2).all(|w| w[0].len == w[1].len),
        "survivors disagree on the failed set: {off:?}"
    );
    assert_eq!(off, host, "offloaded agreement differs from host fallback");
}

// ---------------------------------------------------------------------
// Shrink
// ---------------------------------------------------------------------

/// Build the agree→shrink→collectives-over-survivors workload.
fn shrink_programs(ranks: u32, logs: &mut Vec<StatusLog>) -> Vec<Box<dyn AppProgram>> {
    (0..ranks)
        .map(|me| {
            let log = status_log();
            let mut b = Script::builder();
            // The doomed last rank (crash at 20us) sleeps through the
            // survivors' entry into agreement — see `agree_run`.
            b.sleep(if me == ranks - 1 {
                Time::from_us(30)
            } else {
                Time::from_us(10)
            });
            b.agree(Some(0));
            b.shrink(Some(1));
            b.shrunk_coll(CollOp::Barrier, 0, 0, Some(2));
            b.shrunk_coll(CollOp::Bcast, 0, 128, Some(3));
            b.shrunk_coll(CollOp::Allreduce, 0, 64, Some(4));
            logs.push(log.clone());
            Box::new(b.build(mark_log()).with_status_log(log)) as Box<dyn AppProgram>
        })
        .collect()
}

/// After agree + shrink, barrier/bcast/allreduce over the surviving
/// ranks complete cleanly on the hub crossbar *and* on the switched
/// fat tree. The shrink itself reports the dense mapping: survivor
/// count 3, new ranks 0..3 in world-rank order.
#[test]
fn post_shrink_collectives_complete_on_hub_and_fat_tree() {
    const RANKS: u32 = 4;
    const DEAD: u32 = 3;
    for topology in [Topology::Hub, FAT_TREE] {
        let sched: FaultSchedule = "crash@20us:node=3".parse().expect("spec grammar");
        let mut logs = Vec::new();
        let programs = shrink_programs(RANKS, &mut logs);
        let cfg = ClusterConfig::builder(nic(false))
            .fault_schedule(sched)
            .topology(topology)
            .build();
        let mut c = Cluster::new(cfg, programs);
        c.run_watched(Time::from_ms(100))
            .unwrap_or_else(|d| panic!("{topology:?}: stalled: {d}"));
        for me in (0..RANKS).filter(|&r| r != DEAD) {
            let st = statuses_of(&logs[me as usize]);
            let shrink = find(&st, 1);
            assert_eq!(shrink.len, 3, "{topology:?} rank {me}: survivor count");
            assert_eq!(
                shrink.source, me as u16,
                "{topology:?} rank {me}: dense new rank (world order)"
            );
            assert!(
                !shrink.cancelled,
                "{topology:?} rank {me}: survivor shrunk out"
            );
            for id in [2, 3, 4] {
                let s = find(&st, id);
                assert_eq!(
                    s.error, None,
                    "{topology:?} rank {me}: post-shrink collective {id} failed: {s:?}"
                );
                assert!(!s.cancelled);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// The whole recovery pipeline — crash, keepalive detection, agree,
/// shrink, post-shrink collectives, and a scheduled restart of the dead
/// node afterwards — produces byte-identical statistics and statuses on
/// a second run.
#[test]
fn recovery_pipeline_repeats_bit_for_bit() {
    let run = || {
        let sched: FaultSchedule = "crash@20us:node=3,mttr=300us"
            .parse()
            .expect("spec grammar");
        let mut logs = Vec::new();
        let programs = shrink_programs(4, &mut logs);
        let recovery = programs.iter().map(|_| None).collect();
        let cfg = ClusterConfig::builder(nic(true))
            .fault_schedule(sched)
            .build();
        let mut c = Cluster::with_recovery(cfg, programs, recovery);
        c.run_watched(Time::from_ms(50))
            .unwrap_or_else(|d| panic!("stalled: {d}"));
        (
            c.stats().to_json(),
            logs.iter().map(statuses_of).collect::<Vec<_>>(),
        )
    };
    let (base_stats, base_statuses) = run();
    let (stats, statuses) = run();
    assert_eq!(stats, base_stats, "stats diverged between runs");
    assert_eq!(statuses, base_statuses, "statuses diverged between runs");
}

/// Unarmed, the recovery machinery is free: a fault-free workload built
/// through `Cluster::with_recovery` (all slots `None`) is byte-identical
/// to the same workload through `Cluster::new` — the guarantee that
/// keeps the fig5/fig6 goldens (which use `Cluster::new` with no
/// schedule) untouched by this subsystem.
#[test]
fn unarmed_recovery_machinery_is_byte_identical_to_plain_cluster() {
    let build_programs = || -> Vec<Box<dyn AppProgram>> {
        (0..4u32)
            .map(|me| {
                let mut b = Script::builder();
                b.coll_barrier();
                let r = b.irecv(Some(((me + 3) % 4) as u16), Some(7), 512);
                b.isend((me + 1) % 4, 7, 512);
                b.wait(r);
                b.coll(CollOp::Allreduce, 0, 64, None);
                Box::new(b.build(mark_log())) as Box<dyn AppProgram>
            })
            .collect()
    };
    let cfg = || ClusterConfig::builder(nic(true)).seed(5).build();

    let mut plain = Cluster::new(cfg(), build_programs());
    plain.run();
    let mut staged =
        Cluster::with_recovery(cfg(), build_programs(), (0..4).map(|_| None).collect());
    staged.run();
    assert_eq!(
        plain.stats().to_json(),
        staged.stats().to_json(),
        "recovery plumbing changed a fault-free run"
    );
}

// ---------------------------------------------------------------------
// Failure-detector tuning (satellite: configurable thresholds)
// ---------------------------------------------------------------------

/// Two-rank traffic across a 150us link outage, under a configurable
/// failure detector. Returns `(cluster, rank-0 recv statuses)`.
fn detector_run(keepalive: Time, retry_budget: u32) -> (Cluster, Vec<(u32, MpiStatus)>) {
    let sched: FaultSchedule = "flap@10us:edge=0-1,down=150us"
        .parse()
        .expect("spec grammar");
    let mut logs = Vec::new();
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..2u32 {
        let peer = 1 - me;
        let log = status_log();
        let mut b = Script::builder();
        let r0 = b.irecv(Some(peer as u16), Some(100), 512);
        b.isend(peer, 100, 512);
        b.wait(r0);
        b.sleep(Time::from_us(20));
        let mut pending = Vec::new();
        let mut recvs = vec![(r0, 0u16)];
        for i in 1..4u16 {
            let r = b.irecv(Some(peer as u16), Some(100 + i), 512);
            recvs.push((r, i));
            pending.push(r);
            pending.push(b.isend(peer, 100 + i, 512));
        }
        b.wait_all(pending);
        for (r, i) in recvs {
            b.status(r, i as u32);
        }
        programs.push(Box::new(b.build(mark_log()).with_status_log(log.clone())));
        logs.push(log);
    }
    let cfg = ClusterConfig::builder(NicConfig::baseline())
        .fault_schedule(sched)
        .failure_detector(keepalive, retry_budget)
        .build();
    let mut c = Cluster::new(cfg, programs);
    c.run_watched(Time::from_ms(100))
        .unwrap_or_else(|d| panic!("detector run stalled: {d}"));
    let statuses = statuses_of(&logs[0]);
    (c, statuses)
}

/// The false-positive regression: the *same* 150us outage that a
/// strict detector (4-retransmit budget, exhausted in ~75us) escalates
/// to a dead link and typed failures is ridden out by a lenient
/// detector (64-retransmit budget) — the slow-but-alive peer is never
/// declared dead and every message is delivered after the link heals.
#[test]
fn lenient_detector_tolerates_outage_a_strict_one_calls_fatal() {
    let (strict, strict_st) = detector_run(Time::from_us(100), 4);
    let stats = strict.stats();
    assert!(
        stats.sum_prefix("nic0.link.links_dead") > 0,
        "strict detector never tripped: the regression pair is vacuous"
    );
    assert!(
        strict_st.iter().any(|(_, s)| s.rank_failed()),
        "strict detector produced no typed failure: {strict_st:?}"
    );

    let (lenient, lenient_st) = detector_run(Time::from_us(500), 64);
    let stats = lenient.stats();
    assert!(
        stats.sum_prefix("net.sched.edge_drops") > 0,
        "the flap never bit: test is vacuous"
    );
    for p in ["nic0", "nic1"] {
        assert_eq!(
            stats.sum_prefix(&format!("{p}.link.links_dead")),
            0,
            "{p}: lenient detector falsely declared the link dead"
        );
        assert_eq!(
            stats.sum_prefix(&format!("{p}.fault.peers_failed")),
            0,
            "{p}: lenient detector falsely declared the peer dead"
        );
    }
    for (i, s) in &lenient_st {
        assert_eq!(s.error, None, "recv {i} must succeed after resync");
        assert_eq!(s.len, 512);
    }
}

// ---------------------------------------------------------------------
// Offloaded collectives under link flaps (satellite)
// ---------------------------------------------------------------------

/// Offloaded collective sequence with a flap on edge 0-1 starting at
/// 10us. Ranks 0 and 1 first exchange one point-to-point message across
/// the flapped edge: link death is discovered by the *transmitter*
/// (retry-budget exhaustion), and a collective plan parks each endpoint
/// in a recv before it ever transmits on the edge — in-flight
/// application traffic is what lets both sides convict the link, which
/// is exactly the realistic failure story. Returns each rank's recorded
/// statuses.
fn flap_coll_run(offload: bool, down_for: &str) -> (Cluster, Vec<Vec<(u32, MpiStatus)>>) {
    const RANKS: u32 = 4;
    let sched: FaultSchedule = format!("flap@10us:edge=0-1,down={down_for}")
        .parse()
        .expect("spec grammar");
    let mut logs = Vec::new();
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..RANKS {
        let log = status_log();
        let mut b = Script::builder();
        b.sleep(Time::from_us(15));
        if me < 2 {
            let peer = 1 - me;
            let r = b.irecv(Some(peer as u16), Some(900 + peer as u16), 256);
            b.isend(peer, 900 + me as u16, 256);
            b.wait(r);
            b.status(r, 10);
        }
        b.coll(CollOp::Barrier, 0, 0, Some(0));
        b.coll(CollOp::Allreduce, 0, 64, Some(1));
        programs.push(Box::new(b.build(mark_log()).with_status_log(log.clone())));
        logs.push(log);
    }
    let cfg = ClusterConfig::builder(nic(offload))
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::new(cfg, programs);
    c.run_watched(Time::from_ms(100))
        .unwrap_or_else(|d| panic!("flap-coll (offload={offload}, {down_for}): stalled: {d}"));
    let statuses = logs.iter().map(statuses_of).collect();
    (c, statuses)
}

/// A flap shorter than the retry budget, landing mid-plan: the
/// offloaded collective rides it out through go-back-N resync — every
/// rank's statuses are clean, no link dies, and the host-fallback run
/// returns identical statuses.
#[test]
fn offloaded_collective_rides_out_short_flap() {
    let (c, off) = flap_coll_run(true, "60us");
    let stats = c.stats();
    assert!(
        c.nic(0).firmware().stats().coll_offloaded > 0,
        "nothing was offloaded: test is vacuous"
    );
    assert_eq!(stats.sum_prefix("nic0.link.links_dead"), 0);
    for (r, st) in off.iter().enumerate() {
        for id in [0, 1] {
            let s = find(st, id);
            assert_eq!(s.error, None, "rank {r}: collective {id} under short flap");
        }
    }
    let (_, host) = flap_coll_run(false, "60us");
    assert_eq!(off, host, "short-flap offload differs from host fallback");
}

/// A flap longer than the retry budget: the 0-1 link goes sticky-dead
/// mid-plan; ranks 0 and 1 finish their collectives with typed
/// `RankFailed` while ranks 2 and 3 (whose tree edges avoid the dead
/// link) stay clean — and the offload path reports exactly what the
/// host fallback reports.
#[test]
fn offloaded_collective_goes_typed_on_sticky_dead_link() {
    let (c, off) = flap_coll_run(true, "3ms");
    let stats = c.stats();
    assert!(
        stats.sum_prefix("nic0.link.links_dead") > 0,
        "the long flap never exhausted the budget: test is vacuous"
    );
    for r in [0usize, 1] {
        assert!(
            off[r].iter().any(|(_, s)| s.rank_failed()),
            "rank {r} sits on the dead link but saw no typed failure: {:?}",
            off[r]
        );
    }
    for r in [2usize, 3] {
        for id in [0, 1] {
            let s = find(&off[r], id);
            assert_eq!(s.error, None, "rank {r}: tree path avoids the dead link");
        }
    }
    let (_, host) = flap_coll_run(false, "3ms");
    assert_eq!(off, host, "sticky-dead offload differs from host fallback");
}
