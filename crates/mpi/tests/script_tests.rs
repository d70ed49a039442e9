//! Script-interpreter tests: sleep semantics, status recording, slot
//! reuse, barrier instance isolation, WaitAll resumption.

use mpiq_dessim::{FaultSchedule, Time};
use mpiq_mpi::script::{mark_log, status_log};
use mpiq_mpi::{AppProgram, Cluster, ClusterConfig, MpiStatus, Script};
use mpiq_nic::NicConfig;

fn two_rank(p0: Script, p1: Script) -> Cluster {
    Cluster::new(
        ClusterConfig::new(NicConfig::baseline()),
        vec![Box::new(p0) as Box<dyn AppProgram>, Box::new(p1)],
    )
}

#[test]
fn sleep_pauses_for_at_least_the_duration() {
    let marks = mark_log();
    let mut b0 = Script::builder();
    b0.mark(0);
    b0.sleep(Time::from_us(123));
    b0.mark(1);
    let p0 = b0.build(marks.clone());
    let p1 = Script::builder().build(mark_log());
    two_rank(p0, p1).run();
    let m = marks.borrow();
    assert!(m[1].1 - m[0].1 >= Time::from_us(123));
}

#[test]
fn sleep_is_not_cut_short_by_completions() {
    // A completion arriving mid-sleep steps the program (spurious wake);
    // the sleep must still hold until its deadline.
    let marks = mark_log();
    let mut b0 = Script::builder();
    let r = b0.irecv(Some(1), Some(1), 0);
    b0.mark(0);
    b0.sleep(Time::from_us(500));
    b0.mark(1);
    b0.wait(r);
    let p0 = b0.build(marks.clone());
    let mut b1 = Script::builder();
    b1.send(0, 1, 0); // arrives ~1 us in, far before the sleep ends
    let p1 = b1.build(mark_log());
    two_rank(p0, p1).run();
    let m = marks.borrow();
    assert!(
        m[1].1 - m[0].1 >= Time::from_us(500),
        "completion must not cut the sleep short: slept {}",
        m[1].1 - m[0].1
    );
}

#[test]
fn status_records_resolved_wildcards() {
    let statuses = status_log();
    let mut b0 = Script::builder();
    let r = b0.irecv(None, None, 64); // ANY/ANY
    b0.wait(r);
    b0.status(r, 42);
    let p0 = b0.build(mark_log()).with_status_log(statuses.clone());
    let mut b1 = Script::builder();
    b1.send(0, 77, 64);
    let p1 = b1.build(mark_log());
    two_rank(p0, p1).run();
    assert_eq!(
        statuses.borrow()[0],
        (
            42,
            MpiStatus {
                source: 1,
                tag: 77,
                len: 64,
                cancelled: false,
                overflow: false,
                error: None
            }
        )
    );
}

#[test]
fn consecutive_barriers_use_distinct_instances() {
    // Rank 0 races ahead to barrier i+1 while rank 1 is still leaving
    // barrier i; instance-tagged rounds must not cross-match.
    let marks = mark_log();
    let programs: Vec<Box<dyn AppProgram>> = (0..2)
        .map(|r| {
            let mut b = Script::builder();
            for i in 0..20 {
                b.barrier();
                if r == 0 {
                    b.mark(i);
                }
            }
            Box::new(b.build(marks.clone())) as Box<dyn AppProgram>
        })
        .collect();
    let mut c = Cluster::new(ClusterConfig::new(NicConfig::baseline()), programs);
    c.run();
    let m = marks.borrow();
    assert_eq!(m.len(), 20);
    for w in m.windows(2) {
        assert!(w[0].1 < w[1].1, "barriers must serialize");
    }
}

#[test]
fn interleaved_slots_resolve_independently() {
    let statuses = status_log();
    let mut b0 = Script::builder();
    let a = b0.irecv(Some(1), Some(1), 16);
    let b = b0.irecv(Some(1), Some(2), 32);
    let c = b0.irecv(Some(1), Some(3), 48);
    // Wait out of posting order.
    b0.wait(c);
    b0.status(c, 3);
    b0.wait(a);
    b0.status(a, 1);
    b0.wait(b);
    b0.status(b, 2);
    let p0 = b0.build(mark_log()).with_status_log(statuses.clone());
    let mut b1 = Script::builder();
    b1.send(0, 1, 16);
    b1.send(0, 2, 32);
    b1.send(0, 3, 48);
    let p1 = b1.build(mark_log());
    two_rank(p0, p1).run();
    let got = statuses.borrow().clone();
    assert_eq!(got.len(), 3);
    assert_eq!(got[0].0, 3);
    assert_eq!(got[0].1.len, 48);
    assert_eq!(got[1].0, 1);
    assert_eq!(got[2].0, 2);
}

#[test]
fn empty_script_finishes_immediately() {
    let p0 = Script::builder().build(mark_log());
    let p1 = Script::builder().build(mark_log());
    let mut c = two_rank(p0, p1);
    c.run();
    assert_eq!(c.now(), Time::ZERO);
}

#[test]
fn back_to_back_wait_alls_each_wait_for_their_own_slots() {
    // The first WaitAll spans four slots, the second only two: a resume
    // index left over from the first would skip the second entirely.
    let marks = mark_log();
    let statuses = status_log();
    let mut b0 = Script::builder();
    let first: Vec<usize> = (0..4).map(|t| b0.irecv(Some(1), Some(t), 8)).collect();
    // Complete out of posting order so the first WaitAll resumes mid-list.
    b0.wait_all(first.into_iter().rev().collect());
    b0.mark(0);
    let second: Vec<usize> = (10..12).map(|t| b0.irecv(Some(1), Some(t), 8)).collect();
    b0.wait_all(second.clone());
    b0.mark(1);
    for (i, s) in second.into_iter().enumerate() {
        b0.status(s, i as u32);
    }
    let p0 = b0.build(marks.clone()).with_status_log(statuses.clone());
    let mut b1 = Script::builder();
    for t in 0..4 {
        b1.send(0, t, 8);
        b1.sleep(Time::from_us(5));
    }
    b1.sleep(Time::from_us(100));
    for t in 10..12 {
        b1.send(0, t, 8);
    }
    let p1 = b1.build(mark_log());
    let mut c = two_rank(p0, p1);
    c.run();
    assert!(c.all_done());
    let m = marks.borrow();
    assert!(
        m[1].1 - m[0].1 >= Time::from_us(100),
        "second WaitAll returned before its sends: {:?}",
        *m
    );
    let st = statuses.borrow();
    assert_eq!(st.len(), 2);
    assert!(st.iter().all(|(_, s)| s.len == 8 && s.error.is_none()));
}

#[test]
fn wait_all_interrupted_by_a_restart_starts_over_in_the_recovery_program() {
    // Rank 1 is half-way through a four-slot WaitAll (two of its
    // receives completed) when it crashes at 40 us; it restarts at
    // 200 us into a recovery program whose own WaitAll must wait for
    // both of its slots from the first.
    let sched: FaultSchedule = "crash@40us:node=1,mttr=160us"
        .parse()
        .expect("spec grammar");
    let marks = mark_log();
    let statuses = status_log();

    let mut b0 = Script::builder();
    b0.send(1, 0, 8);
    b0.send(1, 1, 8);
    b0.sleep(Time::from_us(300));
    for t in [10, 11] {
        b0.retry_send(1, t, 8, 8, Time::from_us(30), None);
    }
    let mut b1 = Script::builder();
    let slots: Vec<usize> = (0..4).map(|t| b1.irecv(Some(0), Some(t), 8)).collect();
    b1.wait_all(slots);

    let mut rb = Script::builder();
    let r10 = rb.irecv(Some(0), Some(10), 8);
    let r11 = rb.irecv(Some(0), Some(11), 8);
    rb.wait_all(vec![r11, r10]);
    rb.mark(1);
    rb.status(r10, 10);
    rb.status(r11, 11);
    let recovery = rb.build(marks.clone()).with_status_log(statuses.clone());

    let cfg = ClusterConfig::builder(NicConfig::baseline())
        .fault_schedule(sched)
        .build();
    let mut c = Cluster::with_recovery(
        cfg,
        vec![
            Box::new(b0.build(mark_log())),
            Box::new(b1.build(mark_log())),
        ],
        vec![None, Some(Box::new(recovery))],
    );
    c.run_watched(Time::from_ms(50))
        .unwrap_or_else(|d| panic!("restart run stalled: {d}"));
    let m = marks.borrow();
    assert_eq!(m.len(), 1);
    assert!(
        m[0].1 >= Time::from_us(300),
        "recovery WaitAll returned early at {}",
        m[0].1
    );
    let st = statuses.borrow();
    assert_eq!(
        st.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![10, 11]
    );
    assert!(st.iter().all(|(_, s)| s.len == 8 && s.error.is_none()));
}
