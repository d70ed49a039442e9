//! Overload robustness: the acceptance scenarios from the flow-control
//! work. Bounded NIC resources must degrade by protocol (refusal,
//! truncation, rendezvous fallback) — never by panic, loss, or silent
//! hang — and when a protocol bug *does* wedge the cluster, the watchdog
//! must convert the hang into a typed diagnosis naming the stuck parts.

use mpiq::dessim::watchdog::StallKind;
use mpiq::dessim::Time;
use mpiq::mpi::script::{mark_log, status_log};
use mpiq::mpi::{AppProgram, Cluster, ClusterConfig, Script};
use mpiq::nic::NicConfig;
use mpiq_bench::{run_soak, Scenario, SoakConfig};

/// The headline acceptance test: a 64-sender all-to-one incast with tight
/// bounds completes under the watchdog, the unexpected queue never
/// exceeds its configured bound, every message is delivered, and a
/// same-seed re-run produces a bit-identical statistics dump.
#[test]
fn incast_64_to_1_bounded_lossless_deterministic() {
    let mut cfg = SoakConfig::new(Scenario::Incast, 42);
    cfg.senders = 64;
    cfg.msgs = 4;
    cfg.deadline = Time::from_ms(2_000);
    let out = run_soak(&cfg).unwrap_or_else(|d| panic!("64->1 incast stalled:\n{d}"));
    // run_soak's oracle already checked queue drain + shadow invariants;
    // re-assert the headline numbers here so a regression reads clearly.
    assert!(
        out.unexpected_highwater <= cfg.max_unexpected as u64,
        "high-water {} > bound {}",
        out.unexpected_highwater,
        cfg.max_unexpected
    );
    assert_eq!(out.delivered, 64 * 4, "zero loss: every message delivered");
    assert!(
        out.admission_refused > 0,
        "64 senders against a 32-entry bound must refuse at the wire"
    );
    let again = run_soak(&cfg).expect("same-seed re-run");
    assert_eq!(out.stats_json, again.stats_json, "same-seed runs diverged");
}

/// Credit exhaustion staging on the sender: with the per-peer allowance
/// far below the burst, senders must demote eager traffic to rendezvous
/// and the run must still drain losslessly.
#[test]
fn credit_starvation_falls_back_to_rendezvous() {
    let mut cfg = SoakConfig::new(Scenario::CreditStarve, 9);
    cfg.eager_credits = 2;
    cfg.msgs = 10;
    let out = run_soak(&cfg).unwrap_or_else(|d| panic!("credit starve stalled:\n{d}"));
    assert!(out.credit_stalls > 0, "credits never ran dry: {out:?}");
    assert!(out.grants_issued > 0, "receiver never returned credits");
}

/// Eager staging-pool exhaustion surfaces as an `overflow` receive
/// status (MPI_ERR_TRUNCATE-like), not as loss or a hang: the envelope
/// still matches, the payload bytes are gone.
#[test]
fn eager_pool_exhaustion_surfaces_overflow_status() {
    // 600-byte pool vs four 512-byte unexpected eagers: the first stages,
    // the rest are admitted header-only.
    let nic = NicConfig::baseline().with_flow_control(0, 0, 600);
    let log = status_log();

    let mut b0 = Script::builder();
    b0.barrier();
    b0.sleep(Time::from_us(50)); // let the burst arrive unexpected
    let slots: Vec<usize> = (0..4)
        .map(|i| b0.irecv(Some(1), Some(i as u16), 512))
        .collect();
    for (i, s) in slots.iter().enumerate() {
        b0.wait(*s);
        b0.status(*s, i as u32);
    }
    let receiver = b0.build(mark_log()).with_status_log(log.clone());

    let mut b1 = Script::builder();
    b1.barrier();
    let sends: Vec<usize> = (0..4).map(|i| b1.isend(0, i as u16, 512)).collect();
    b1.wait_all(sends);
    let sender = b1.build(mark_log());

    let programs: Vec<Box<dyn AppProgram>> = vec![Box::new(receiver), Box::new(sender)];
    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    cluster
        .run_watched(Time::from_ms(100))
        .unwrap_or_else(|d| panic!("overflow run stalled:\n{d}"));

    let statuses = log.borrow();
    assert_eq!(statuses.len(), 4, "all four receives completed");
    let overflowed = statuses.iter().filter(|(_, st)| st.overflow).count();
    let intact = statuses.iter().filter(|(_, st)| !st.overflow).count();
    assert!(
        overflowed >= 1,
        "pool exhaustion must mark at least one overflow"
    );
    assert!(
        intact >= 1,
        "the first eager fits the pool and stays intact"
    );
    for (_, st) in statuses.iter().filter(|(_, st)| st.overflow) {
        assert_eq!(st.len, 0, "a truncated eager delivers zero payload bytes");
    }
    assert!(
        cluster.stats().get("nic0.flow.truncated_admits") >= 1,
        "truncation must be counted"
    );
}

/// A leaked credit grant / clear-to-send (the `leak=P` fault class) is a
/// loss the link layer cannot recover — the cluster goes quiet with
/// obligations outstanding. The watchdog must turn that silence into a
/// quiescent-deadlock diagnosis naming the stuck components.
#[test]
fn leaked_grants_deadlock_is_diagnosed() {
    let nic = NicConfig::baseline()
        .with_flow_control(2, 0, 0)
        .with_faults("seed=5,leak=1.0".parse().unwrap());

    let mut b0 = Script::builder();
    b0.barrier();
    let slots: Vec<usize> = (0..6)
        .map(|i| b0.irecv(Some(1), Some(i as u16), 512))
        .collect();
    b0.wait_all(slots);
    let receiver = b0.build(mark_log());

    let mut b1 = Script::builder();
    b1.barrier();
    let sends: Vec<usize> = (0..6).map(|i| b1.isend(0, i as u16, 512)).collect();
    b1.wait_all(sends);
    let sender = b1.build(mark_log());

    let programs: Vec<Box<dyn AppProgram>> = vec![Box::new(receiver), Box::new(sender)];
    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    let diag = cluster
        .run_watched(Time::from_ms(500))
        .expect_err("every grant and CTS leaked: the run cannot finish");
    assert_eq!(
        diag.kind,
        StallKind::QuiescentDeadlock,
        "diagnosis:\n{diag}"
    );
    let stuck = diag.stuck();
    assert!(
        !stuck.is_empty(),
        "somebody must report unfinished obligations"
    );
    assert!(
        stuck
            .iter()
            .any(|n| n.starts_with("host") || n.starts_with("nic")),
        "the stuck list names cluster components: {stuck:?}"
    );
    // The sender's demoted (rendezvous) send is parked forever — that
    // gauge is the tell for a leaked CTS.
    let rendered = diag.to_string();
    assert!(
        rendered.contains("sends_parked"),
        "diagnosis carries queue-depth gauges:\n{rendered}"
    );
}

/// A peer that stops acknowledging entirely exhausts the sender's retry
/// budget; the link is declared dead and the watchdog diagnosis names
/// the dead peer instead of leaving a silent hang.
#[test]
fn dead_link_diagnosis_names_the_peer() {
    let nic = NicConfig::baseline().with_faults("seed=2,drop=1.0".parse().unwrap());

    let mut b0 = Script::builder();
    let r = b0.irecv(Some(1), Some(7), 256);
    b0.wait(r);
    let receiver = b0.build(mark_log());

    let mut b1 = Script::builder();
    let s = b1.isend(0, 7, 256);
    b1.wait(s);
    let sender = b1.build(mark_log());

    let programs: Vec<Box<dyn AppProgram>> = vec![Box::new(receiver), Box::new(sender)];
    let mut cluster = Cluster::new(ClusterConfig::new(nic), programs);
    let diag = cluster
        .run_watched(Time::from_ms(5_000))
        .expect_err("a fully lossy wire cannot deliver anything");
    let dead_notes = diag.notes_containing("DEAD");
    assert!(
        !dead_notes.is_empty(),
        "diagnosis must call out the dead link:\n{diag}"
    );
    assert!(
        dead_notes.iter().any(|n| n.contains("node 0")),
        "the sender's dead peer is node 0: {dead_notes:?}"
    );
}
