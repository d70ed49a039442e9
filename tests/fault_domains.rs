//! Component-level fault domains, end to end.
//!
//! Where `fault_oracle.rs` stresses *message-level* faults (drops,
//! duplicates, corruption — transparently repaired by go-back-N) and
//! `overload.rs` stresses *resource-level* exhaustion, this suite covers
//! the third tier: *component-level* failures that are *not* repairable
//! and must surface as typed errors instead of hangs:
//!
//! * **crash-stop nodes** — a scheduled [`FaultEvent::NodeCrash`] kills a
//!   host and its NIC mid-collective; survivors get typed
//!   [`MpiError::RankFailed`] completions within the keepalive window and
//!   finish around the hole;
//! * **flapping links** — an outage shorter than the 16-retry budget is
//!   absorbed by resync (no spurious dead link), a longer one goes
//!   sticky-dead with typed failures (the satellite-1 regression pair);
//! * **partitions** — a stalled run under an active partition is
//!   diagnosed as [`StallKind::Partitioned`] with the exact groups, not
//!   misreported as a leak deadlock;
//! * **ALPU death** — the offload unit dies permanently and the firmware
//!   pins the software-fallback path, never re-engaging;
//! * **zero cost unarmed** — an empty schedule is byte-identical to
//!   never mentioning fault domains at all.

use mpiq::dessim::watchdog::StallKind;
use mpiq::dessim::{FaultEvent, FaultSchedule, Time};
use mpiq::mpi::script::{mark_log, status_log, StatusLog};
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, MpiError, Script};
use mpiq::nic::NicConfig;

/// Survivor workload for the crash tests: sleep past the crash instant,
/// run a barrier (the collective the dead rank should have joined), then
/// pinned-source point-to-point with every peer, recording the status of
/// each recv. Status record id = `me * 100 + src`.
fn crash_workload(ranks: u32, logs: &mut Vec<StatusLog>) -> Vec<Box<dyn AppProgram>> {
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..ranks {
        let log = status_log();
        let mut b = Script::builder();
        b.sleep(Time::from_us(30));
        b.barrier();
        let mut pending = Vec::new();
        let mut recvs = Vec::new();
        for peer in (0..ranks).filter(|&p| p != me) {
            let r = b.irecv(Some(peer as u16), Some(500 + peer as u16), 512);
            recvs.push((r, peer));
            pending.push(r);
            pending.push(b.isend(peer, 500 + me as u16, 512));
        }
        b.wait_all(pending);
        for (r, peer) in recvs {
            b.status(r, me * 100 + peer);
        }
        b.mark(me);
        programs.push(Box::new(b.build(mark_log()).with_status_log(log.clone())));
        logs.push(log);
    }
    programs
}

/// A node crash in the middle of a barrier: the run must finish — no
/// hang, no panic — with typed `RankFailed` statuses on
/// every survivor's receive from the dead rank, inside the watchdog
/// deadline.
#[test]
fn crash_mid_collective_surfaces_typed_rank_failure() {
    const RANKS: u32 = 4;
    const DEAD: u32 = 2;
    let sched: FaultSchedule = "crash@20us:node=2".parse().expect("spec grammar");
    let mut logs = Vec::new();
    let programs = crash_workload(RANKS, &mut logs);
    let cfg = ClusterConfig::builder(NicConfig::baseline())
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::new(cfg, programs);
    c.run_watched(Time::from_ms(50))
        .unwrap_or_else(|d| panic!("stalled: {d}"));
    for me in (0..RANKS).filter(|&r| r != DEAD) {
        let log = logs[me as usize].borrow();
        let (_, st) = log
            .iter()
            .find(|(id, _)| *id == me * 100 + DEAD)
            .expect("recv-from-dead status recorded");
        assert_eq!(
            st.error,
            Some(MpiError::RankFailed { rank: DEAD as u16 }),
            "rank {me}: recv from crashed rank {DEAD} must fail typed"
        );
        assert!(st.rank_failed());
        // Survivor-to-survivor traffic is untouched.
        for peer in (0..RANKS).filter(|&p| p != me && p != DEAD) {
            let (_, st) = log
                .iter()
                .find(|(id, _)| *id == me * 100 + peer)
                .expect("survivor recv status recorded");
            assert_eq!(st.error, None, "rank {me}: recv from live rank {peer}");
            assert_eq!(st.len, 512);
        }
    }
    let stats = c.stats();
    assert!(
        stats.sum_prefix("nic0.fault.peers_failed") > 0,
        "nic0 never declared the crashed peer dead"
    );
    assert_eq!(
        stats.sum_prefix(&format!("nic{DEAD}.fault.crashed")),
        1,
        "the crashed NIC must count its own crash-stop"
    );
}

/// Bidirectional two-node traffic spanning a link outage. `down_for`
/// decides the story: shorter than the retry budget ⇒ resync and
/// deliver; longer ⇒ sticky dead link with typed failures. Returns
/// `(cluster, statuses_of_rank0_recv)`.
fn flap_run(down_for: Time) -> (Cluster, Vec<(u32, mpiq::mpi::MpiStatus)>) {
    let mut sched = FaultSchedule::new();
    sched.push(
        Time::from_us(10),
        FaultEvent::LinkFlap {
            a: 0,
            b: 1,
            down_for,
        },
    );
    let mut logs = Vec::new();
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..2u32 {
        let peer = 1 - me;
        let log = status_log();
        let mut b = Script::builder();
        // Exchange 0 before the outage establishes the sequenced link.
        let r0 = b.irecv(Some(peer as u16), Some(100), 512);
        b.isend(peer, 100, 512);
        b.wait(r0);
        // Sleep into the outage (edge down from 10us), then issue the
        // rest mid-outage: their frames are refused at the wire and sit
        // in the go-back-N window until the edge heals — or the budget
        // runs out.
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
        b.mark(me);
        programs.push(Box::new(b.build(mark_log()).with_status_log(log.clone())));
        logs.push(log);
    }
    let cfg = ClusterConfig::builder(NicConfig::baseline())
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::new(cfg, programs);
    c.run_watched(Time::from_ms(100))
        .unwrap_or_else(|d| panic!("flap run stalled: {d}"));
    let statuses = logs[0].borrow().clone();
    (c, statuses)
}

/// Satellite-1 regression, edge A: an outage well inside the 16-retry
/// budget (~1ms of backoff) must be ridden out by retransmission — every
/// message delivered, zero dead links, zero failed peers.
#[test]
fn short_flap_resyncs_without_rank_failure() {
    let (c, statuses) = flap_run(Time::from_us(120));
    let stats = c.stats();
    assert!(
        stats.sum_prefix("net.sched.edge_drops") > 0,
        "the flap never bit: test is vacuous"
    );
    assert!(
        stats.sum_prefix("nic0.link.retransmits") > 0,
        "outage absorbed without a single retransmit?"
    );
    for prefix in ["nic0", "nic1"] {
        assert_eq!(
            stats.sum_prefix(&format!("{prefix}.link.links_dead")),
            0,
            "{prefix}: a sub-budget flap must not kill the link"
        );
        assert_eq!(stats.sum_prefix(&format!("{prefix}.fault.peers_failed")), 0);
    }
    for (i, st) in &statuses {
        assert_eq!(st.error, None, "recv {i} must succeed after resync");
        assert_eq!(st.len, 512);
    }
}

/// Satellite-1 regression, edge B: an outage longer than the full retry
/// budget exhausts it; the link goes sticky-dead, and — with a schedule
/// armed — escalates to a typed peer failure on both sides instead of a
/// hang.
#[test]
fn long_flap_goes_sticky_dead_with_typed_failure() {
    let (c, statuses) = flap_run(Time::from_ms(30));
    let stats = c.stats();
    assert!(
        stats.sum_prefix("nic0.link.links_dead") > 0,
        "budget exhaustion must be counted as a dead link"
    );
    assert!(
        stats.sum_prefix("nic0.fault.peers_failed") > 0,
        "dead link must escalate to a typed peer failure"
    );
    assert!(
        statuses
            .iter()
            .any(|(_, st)| st.error == Some(MpiError::RankFailed { rank: 1 })),
        "rank 0 got no typed failure for its doomed receives: {statuses:?}"
    );
}

/// A run stalled by an active partition is diagnosed as
/// [`StallKind::Partitioned`] carrying the exact connectivity groups —
/// not as a generic deadline blowout, and not as a leak deadlock.
#[test]
fn partition_stall_is_diagnosed_with_groups() {
    let sched: FaultSchedule = "partition@10us:groups=0.1|2.3,heal=500ms"
        .parse()
        .expect("spec grammar");
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..4u32 {
        // Cross-partition ring: every rank needs a message from the far
        // side, so nobody can finish while the fabric is split.
        let peer = (me + 2) % 4;
        let mut b = Script::builder();
        b.sleep(Time::from_us(20));
        let r = b.irecv(Some(peer as u16), Some(7), 512);
        b.isend(peer, 7, 512);
        b.wait(r);
        b.mark(me);
        programs.push(Box::new(b.build(mark_log())));
    }
    let cfg = ClusterConfig::builder(NicConfig::baseline())
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::new(cfg, programs);
    let diagnosis = c
        .run_watched(Time::from_us(500))
        .expect_err("a split fabric cannot let the ring complete");
    match &diagnosis.kind {
        StallKind::Partitioned { groups } => {
            assert_eq!(groups, &vec![vec![0, 1], vec![2, 3]]);
        }
        other => panic!("expected a partition diagnosis, got {other}"),
    }
}

/// Scheduled ALPU death pins the software-fallback path permanently: the
/// unit is quarantined, counted, and never re-engages, while delivery
/// still completes exactly once.
#[test]
fn alpu_death_pins_software_fallback() {
    let sched: FaultSchedule = "alpu@40us:nic=1".parse().expect("spec grammar");
    let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
    for me in 0..2u32 {
        let peer = 1 - me;
        let mut b = Script::builder();
        for phase in 0..2u16 {
            let mut pending = Vec::new();
            for i in 0..8u16 {
                pending.push(b.irecv(Some(peer as u16), Some(phase * 100 + i), 512));
                pending.push(b.isend(peer, phase * 100 + i, 512));
            }
            b.wait_all(pending);
            // Phase 2 lands well after the death at 40us, so the pinned
            // fallback path carries real traffic.
            b.sleep(Time::from_us(100));
        }
        b.mark(me);
        programs.push(Box::new(b.build(mark_log())));
    }
    let cfg = ClusterConfig::builder(NicConfig::with_alpus(128))
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::new(cfg, programs);
    c.run_watched(Time::from_ms(50))
        .unwrap_or_else(|d| panic!("stalled: {d}"));
    let fw = c.nic(1).firmware();
    assert!(fw.stats().alpus_killed > 0, "the death never landed");
    assert_eq!(
        fw.stats().alpu_reengagements,
        0,
        "a dead ALPU must never re-engage"
    );
    assert!(
        fw.posted_quarantined() && !fw.posted_engaged(),
        "the dead unit must stay quarantined (software matching only)"
    );
    let healthy = c.nic(0).firmware();
    assert_eq!(
        healthy.stats().alpus_killed,
        0,
        "the other NIC is untouched"
    );
    assert!(!healthy.posted_quarantined(), "the other NIC is untouched");
}

/// Component-failure telemetry rides the existing observability flag:
/// armed, the crash / flap / peer-death transitions show up both as
/// `fault.*` metrics and as `ph:"i"` instants in the Chrome trace;
/// unarmed, nothing is recorded at all.
#[test]
fn fault_telemetry_is_gated_by_observability() {
    let run = |observed: bool| {
        let sched: FaultSchedule = "flap@10us:edge=0-1,down=60us;crash@20us:node=2"
            .parse()
            .expect("spec grammar");
        let mut logs = Vec::new();
        let programs = crash_workload(4, &mut logs);
        let mut builder = ClusterConfig::builder(NicConfig::baseline()).fault_schedule(sched);
        if observed {
            builder = builder.observability(1 << 16);
        }
        let mut c = Cluster::new(builder.build(), programs);
        c.run_watched(Time::from_ms(50))
            .unwrap_or_else(|d| panic!("stalled: {d}"));
        c
    };

    let observed = run(true);
    let metrics = observed.metrics().render();
    for key in [
        "fault.nodes_crashed",
        "fault.flap_transitions",
        "fault.peers_failed",
    ] {
        assert!(metrics.contains(key), "metrics missing {key}:\n{metrics}");
    }
    let trace = observed.chrome_trace();
    assert!(
        trace.contains("\"ph\":\"i\""),
        "no instant events in the trace"
    );
    for name in ["node-crash", "link-down", "link-up", "peer-dead"] {
        assert!(trace.contains(name), "trace missing a {name} instant");
    }

    let unobserved = run(false);
    assert_eq!(
        unobserved.trace_record_count(),
        0,
        "telemetry leaked past the flag"
    );
    assert!(!unobserved.metrics().render().contains("fault."));
}

/// An empty schedule must be exactly "never heard of fault domains":
/// same final time, byte-identical statistics dump, and no `fault.*`
/// keys anywhere.
#[test]
fn empty_schedule_is_zero_cost() {
    let build = |armed: bool| {
        let mut programs: Vec<Box<dyn AppProgram>> = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = Script::builder();
            let r = b.irecv(Some(peer as u16), Some(3), 1024);
            b.isend(peer, 3, 1024);
            b.wait(r);
            b.mark(me);
            programs.push(Box::new(b.build(mark_log())));
        }
        let mut builder = ClusterConfig::builder(NicConfig::baseline());
        if armed {
            builder = builder.fault_schedule(FaultSchedule::new());
        }
        let mut c = Cluster::new(builder.build(), programs);
        c.run();
        c
    };
    let plain = build(false);
    let armed = build(true);
    assert_eq!(plain.now(), armed.now());
    assert_eq!(
        plain.stats().to_json(),
        armed.stats().to_json(),
        "an empty fault schedule perturbed the simulation"
    );
    assert_eq!(armed.stats().sum_prefix("nic0.fault."), 0);
    assert_eq!(armed.stats().sum_prefix("net.sched."), 0);
}
