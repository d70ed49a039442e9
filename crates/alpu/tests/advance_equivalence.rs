//! The two-speed core's contract: `Alpu::advance(n)` must be
//! *bit-identical* to calling `tick()` n times — same responses, same
//! entries in the same cells, same idle verdict, same statistics
//! (including cycle and busy-cycle counts) — across arbitrary
//! interleavings of headers, insert sessions (with held-probe retries),
//! resets, response draining, and advances short enough to land
//! mid-compaction or mid-operation, on the shipped 128- and 256-cell
//! geometries as well as small ones, for both unit kinds.

use mpiq_alpu::engine::AlpuStats;
use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe, Response};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Step {
    /// An incoming header (tag field selects among a small match space).
    Header(u16),
    /// Processor opens an insert session.
    StartInsert,
    /// Processor inserts an entry.
    Insert(u16),
    /// Processor closes the session (triggers the held-probe final retry).
    StopInsert,
    /// Processor clears the unit.
    Reset,
    /// Processor drains one response (releases result-FIFO backpressure).
    Pop,
    /// Let `n` cycles elapse — small values land mid-op / mid-compaction,
    /// large ones exercise the fast-forward paths.
    Advance(u16),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u16..6).prop_map(Step::Header),
        2 => Just(Step::StartInsert),
        4 => (0u16..6).prop_map(Step::Insert),
        2 => Just(Step::StopInsert),
        1 => Just(Step::Reset),
        3 => Just(Step::Pop),
        6 => (0u16..96).prop_map(Step::Advance),
    ]
}

/// Compare every externally observable piece of state, plus the full
/// statistics block (so elided cycles must be accounted identically).
fn assert_same(fast: &Alpu, slow: &Alpu, step: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.state(),
        slow.state(),
        "state diverged at step {}",
        step
    );
    prop_assert_eq!(
        fast.occupied(),
        slow.occupied(),
        "occupancy diverged at step {}",
        step
    );
    prop_assert_eq!(fast.free(), slow.free(), "free diverged at step {}", step);
    prop_assert_eq!(
        fast.responses_pending(),
        slow.responses_pending(),
        "response queue diverged at step {}",
        step
    );
    prop_assert_eq!(
        fast.headers_pending(),
        slow.headers_pending(),
        "header queue diverged at step {}",
        step
    );
    prop_assert_eq!(
        fast.commands_pending(),
        slow.commands_pending(),
        "command queue diverged at step {}",
        step
    );
    prop_assert_eq!(
        fast.stats(),
        slow.stats(),
        "stats diverged at step {}",
        step
    );
    prop_assert_eq!(fast.idle(), slow.idle(), "idle diverged at step {}", step);
    prop_assert_eq!(
        fast.array().entries_oldest_first(),
        slow.array().entries_oldest_first(),
        "cell contents diverged at step {}",
        step
    );
    for i in 0..fast.array().capacity() {
        prop_assert_eq!(
            fast.array().cell(i),
            slow.array().cell(i),
            "cell {} diverged at step {}",
            i,
            step
        );
    }
    Ok(())
}

fn run(
    kind: AlpuKind,
    total: usize,
    block: usize,
    result_depth: usize,
    script: Vec<Step>,
) -> Result<(), TestCaseError> {
    let mut cfg = AlpuConfig::new(total, block, kind);
    // A shallow result FIFO makes flow-control freezes reachable.
    cfg.result_fifo_depth = result_depth;
    let mut fast = Alpu::new(cfg);
    let mut slow = fast.clone();
    let mut cookie = 0u32;

    for (i, s) in script.into_iter().enumerate() {
        match s {
            Step::Header(t) => {
                let p = match kind {
                    AlpuKind::PostedReceive => Probe::exact(MatchWord::mpi(1, 0, t)),
                    AlpuKind::Unexpected => Probe::recv(1, None, Some(t)),
                };
                prop_assert_eq!(fast.push_header(p), slow.push_header(p));
            }
            Step::StartInsert => {
                prop_assert_eq!(
                    fast.push_command(Command::StartInsert),
                    slow.push_command(Command::StartInsert)
                );
            }
            Step::Insert(t) => {
                let e = match kind {
                    AlpuKind::PostedReceive => Entry::mpi_recv(1, Some(0), Some(t), cookie),
                    AlpuKind::Unexpected => Entry::mpi_header(1, t % 2, t, cookie),
                };
                cookie += 1;
                prop_assert_eq!(
                    fast.push_command(Command::Insert(e)),
                    slow.push_command(Command::Insert(e))
                );
            }
            Step::StopInsert => {
                prop_assert_eq!(
                    fast.push_command(Command::StopInsert),
                    slow.push_command(Command::StopInsert)
                );
            }
            Step::Reset => {
                prop_assert_eq!(
                    fast.push_command(Command::Reset),
                    slow.push_command(Command::Reset)
                );
            }
            Step::Pop => {
                prop_assert_eq!(fast.pop_response(), slow.pop_response());
            }
            Step::Advance(n) => {
                fast.advance(n as u64);
                for _ in 0..n {
                    slow.tick();
                }
            }
        }
        assert_same(&fast, &slow, i)?;
    }

    // Long tail: fast-forward a large quiescent-ish stretch both ways.
    fast.advance(10_000);
    for _ in 0..10_000 {
        slow.tick();
    }
    assert_same(&fast, &slow, usize::MAX)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn advance_equals_ticks(script in prop::collection::vec(step(), 1..60)) {
        run(AlpuKind::PostedReceive, 16, 4, 4096, script)?;
    }

    /// Shallow result FIFO: backpressure freezes are common, so the
    /// frozen fast-forward path must stay tick-identical.
    #[test]
    fn advance_equals_ticks_under_backpressure(script in prop::collection::vec(step(), 1..60)) {
        run(AlpuKind::PostedReceive, 16, 4, 2, script)?;
    }

    /// Single-block geometry (deepest per-block mux tree).
    #[test]
    fn advance_equals_ticks_single_block(script in prop::collection::vec(step(), 1..50)) {
        run(AlpuKind::PostedReceive, 8, 8, 4096, script)?;
    }

    /// Two-cell blocks: compaction crosses many block boundaries, keeping
    /// holes in flight longer.
    #[test]
    fn advance_equals_ticks_tiny_blocks(script in prop::collection::vec(step(), 1..50)) {
        run(AlpuKind::PostedReceive, 16, 2, 3, script)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shipped posted-receive geometry: 128 cells in blocks of 16.
    /// Holes travel up to 127 cells, so advances stop mid-migration.
    #[test]
    fn advance_equals_ticks_128_cells(script in prop::collection::vec(step(), 1..120)) {
        run(AlpuKind::PostedReceive, 128, 16, 4096, script)?;
    }

    /// 256 cells in blocks of 8, with a shallow result FIFO.
    #[test]
    fn advance_equals_ticks_256_cells(script in prop::collection::vec(step(), 1..120)) {
        run(AlpuKind::PostedReceive, 256, 8, 3, script)?;
    }

    /// The unexpected-message variant: headers stored, receives probing.
    #[test]
    fn advance_equals_ticks_unexpected(script in prop::collection::vec(step(), 1..120)) {
        run(AlpuKind::Unexpected, 128, 16, 4096, script)?;
    }
}

/// A 256-cell posted-receive unit, half full, with its insert session
/// drained.
fn prefilled_alpu() -> Alpu {
    let mut alpu = Alpu::new(AlpuConfig::new(256, 8, AlpuKind::PostedReceive));
    alpu.push_command(Command::StartInsert).unwrap();
    alpu.advance(64);
    assert!(alpu.pop_response().is_some(), "StartAck");
    for tag in 0..128u16 {
        alpu.push_command(Command::Insert(Entry::mpi_recv(
            1,
            Some(0),
            Some(tag),
            tag as u32,
        )))
        .unwrap();
        alpu.advance(8);
    }
    alpu.push_command(Command::StopInsert).unwrap();
    alpu.advance(4096);
    alpu
}

/// Sparse header arrivals separated by quiescent gaps of `gap` cycles.
/// Every probe misses, so occupancy stays put. Returns the responses and
/// the final statistics.
fn sync_gap(gap: u64) -> (Vec<Response>, AlpuStats) {
    let mut alpu = prefilled_alpu();
    let mut responses = Vec::new();
    for i in 0..64u16 {
        let tag = 200 + i % 32;
        alpu.push_header(Probe::exact(MatchWord::mpi(1, 0, tag)))
            .unwrap();
        alpu.advance(gap);
        while let Some(r) = alpu.pop_response() {
            responses.push(r);
        }
    }
    (responses, alpu.stats())
}

/// Gaps of 2^40 cycles (over half an hour of simulated time at 500 MHz)
/// cost O(1) each: per-cycle stepping could never finish this test. The
/// elided cycles are all counted, and the answers match a short-gap run.
#[test]
fn long_sync_gaps_are_elided_and_counted() {
    const LONG: u64 = 1 << 40;
    const SHORT: u64 = 500;
    let (want, short) = sync_gap(SHORT);
    let (got, long) = sync_gap(LONG);
    assert_eq!(got, want);
    assert_eq!(got.len(), 64);
    assert!(got.iter().all(|r| *r == Response::MatchFailure));
    assert_eq!(long.cycles, short.cycles + 64 * (LONG - SHORT));
    assert_eq!(
        AlpuStats {
            cycles: short.cycles,
            ..long
        },
        short
    );
}
