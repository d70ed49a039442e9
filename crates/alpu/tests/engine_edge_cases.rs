//! ALPU engine edge cases beyond the main unit suite: reset semantics
//! mid-session, command discarding, pipeline utilization accounting, and
//! capacity-boundary behavior.

use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe, Response, State};

fn unit(cells: usize, block: usize) -> Alpu {
    Alpu::new(AlpuConfig::new(cells, block, AlpuKind::PostedReceive))
}

fn recv(tag: u16, cookie: u32) -> Entry {
    Entry::mpi_recv(1, Some(0), Some(tag), cookie)
}

fn hdr(tag: u16) -> Probe {
    Probe::exact(MatchWord::mpi(1, 0, tag))
}

#[test]
fn reset_during_insert_mode_clears_and_returns_to_match() {
    let mut a = unit(16, 4);
    a.push_command(Command::StartInsert).unwrap();
    a.push_command(Command::Insert(recv(1, 1))).unwrap();
    a.push_command(Command::Reset).unwrap();
    a.advance(20);
    assert_eq!(a.state(), State::Match);
    assert_eq!(a.occupied(), 0);
    // Unit still functions after the mid-session reset.
    a.push_command(Command::StartInsert).unwrap();
    a.push_command(Command::Insert(recv(2, 2))).unwrap();
    a.push_command(Command::StopInsert).unwrap();
    a.run_to_idle(10_000);
    a.pop_response(); // StartAck (first session's ack may also be queued)
    while a.pop_response().is_some() {}
    a.push_header(hdr(2)).unwrap();
    a.advance(20);
    assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 2 }));
}

#[test]
fn reset_reports_held_failure() {
    // A probe held during insert mode must still produce its response if
    // a RESET wipes the entries it was waiting on.
    let mut a = unit(16, 4);
    a.push_command(Command::StartInsert).unwrap();
    a.advance(4);
    assert!(matches!(a.pop_response(), Some(Response::StartAck { .. })));
    a.push_header(hdr(9)).unwrap();
    a.advance(40);
    assert_eq!(a.pop_response(), None, "failure held in insert mode");
    a.push_command(Command::Reset).unwrap();
    a.advance(20);
    assert_eq!(
        a.pop_response(),
        Some(Response::MatchFailure),
        "every probe still gets exactly one response"
    );
}

#[test]
fn stop_insert_without_start_is_discarded() {
    let mut a = unit(16, 4);
    a.push_command(Command::StopInsert).unwrap();
    a.advance(10);
    assert_eq!(a.state(), State::Match);
    assert_eq!(a.pop_response(), None);
}

#[test]
fn start_insert_twice_acks_once() {
    let mut a = unit(16, 4);
    a.push_command(Command::StartInsert).unwrap();
    a.push_command(Command::StartInsert).unwrap(); // discarded in Insert state
    a.push_command(Command::StopInsert).unwrap();
    a.run_to_idle(10_000);
    assert!(matches!(a.pop_response(), Some(Response::StartAck { .. })));
    assert_eq!(a.pop_response(), None, "second START INSERT is discarded");
}

#[test]
fn fill_to_capacity_then_matches_drain_in_order() {
    let n = 32;
    let mut a = unit(n, 8);
    a.push_command(Command::StartInsert).unwrap();
    a.advance(4);
    a.pop_response();
    for i in 0..n as u32 {
        a.push_command(Command::Insert(recv(7, i))).unwrap();
        a.advance(2);
    }
    a.push_command(Command::StopInsert).unwrap();
    a.run_to_idle(100_000);
    assert_eq!(a.free(), 0);
    // Drain: identical probes must pop cookies in insertion order.
    for want in 0..n as u32 {
        a.push_header(hdr(7)).unwrap();
        a.run_to_idle(10_000);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: want }));
    }
    assert_eq!(a.occupied(), 0);
}

#[test]
fn busy_cycles_match_pipeline_occupancy() {
    // 10 matches on a 6-cycle pipeline: exactly 60 busy cycles (no
    // overlap, §V-D) plus nothing else.
    let mut a = unit(16, 4);
    for _ in 0..10 {
        a.push_header(hdr(1)).unwrap();
    }
    a.run_to_idle(10_000);
    let s = a.stats();
    assert_eq!(s.matches_attempted, 10);
    assert_eq!(s.busy_cycles, 60);
}

#[test]
fn interleaved_sessions_and_probes_converge() {
    // Stress: alternate small insert sessions with bursts of probes; the
    // unit must end idle and balanced (every probe answered).
    let mut a = unit(64, 8);
    let mut inserted = 0u32;
    let mut responses = 0usize;
    for round in 0..12u32 {
        a.push_command(Command::StartInsert).unwrap();
        a.advance(8);
        for i in 0..4 {
            a.push_command(Command::Insert(recv((round * 4 + i) as u16, inserted)))
                .unwrap();
            inserted += 1;
            a.advance(2);
        }
        a.push_command(Command::StopInsert).unwrap();
        for i in 0..3 {
            a.push_header(hdr((round * 4 + i) as u16)).unwrap();
        }
        a.run_to_idle(100_000);
        while a.pop_response().is_some() {
            responses += 1;
        }
    }
    // 12 StartAcks + 36 probes.
    assert_eq!(responses, 12 + 36);
    assert!(a.idle());
    // 48 inserted, 36 matched (each probe hits a distinct tag).
    assert_eq!(a.occupied(), 12);
}

#[test]
fn single_cell_unit_works() {
    let mut a = unit(1, 1);
    a.push_command(Command::StartInsert).unwrap();
    a.push_command(Command::Insert(recv(1, 42))).unwrap();
    a.push_command(Command::StopInsert).unwrap();
    a.run_to_idle(10_000);
    assert_eq!(a.free(), 0);
    a.push_header(hdr(1)).unwrap();
    a.run_to_idle(10_000);
    a.pop_response(); // StartAck
    assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 42 }));
}

#[test]
fn probe_quiescent_tracks_outstanding_work() {
    let mut a = unit(16, 4);
    assert!(a.probe_quiescent());
    a.push_header(hdr(1)).unwrap();
    assert!(!a.probe_quiescent(), "queued header");
    a.advance(3);
    assert!(!a.probe_quiescent(), "match in pipeline");
    a.advance(10);
    assert!(!a.probe_quiescent(), "unread response");
    a.pop_response();
    assert!(a.probe_quiescent());
}
