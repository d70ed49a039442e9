//! Property tests on the cell array itself: under arbitrary interleavings
//! of inserts, compaction cycles, and match-deletes, the physical shift
//! chain must behave exactly like an ordered list — no lost entries, no
//! duplicates, no reordering — and compaction must converge. Every cell
//! must also hold what a dense per-cycle stepper puts there, whether the
//! array steps one cycle at a time or jumps many in closed form.
//!
//! A second op mix follows the NIC's rhythm (one INSERT every other
//! cycle, §III-C) and adds the two ways an entry can come to wait on the
//! one above it: an insert under a just-filled cell 1, and a delete
//! between two in-flight entries.

use mpiq_alpu::cell::cell_matches;
use mpiq_alpu::{AlpuKind, Cell, CellArray, Entry, MatchWord, Probe};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum ArrayOp {
    /// Try to insert (skipped when cell 0 is occupied, like hardware flow
    /// control would).
    Insert { tag_field: u16 },
    /// Run `n` compaction cycles one at a time.
    Compact { n: u8 },
    /// Run `n` compaction cycles in one closed-form jump.
    Jump { n: u16 },
    /// Probe-and-delete.
    MatchDelete { tag_field: u16 },
    /// Insert, then two compaction cycles (the engine's INSERT interval),
    /// stepped or as one jump.
    Paced { tag_field: u16, jump: bool },
    /// Insert, then one compaction cycle: the next insert lands under a
    /// just-filled cell 1.
    Burst { tag_field: u16 },
    /// Delete an in-flight entry at its cell, preferring one with
    /// in-flight entries above and below it (`sel` picks among them).
    DeleteInFlight { sel: u8 },
}

fn op() -> impl Strategy<Value = ArrayOp> {
    prop_oneof![
        4 => (0u16..6).prop_map(|tag_field| ArrayOp::Insert { tag_field }),
        3 => (0u8..8).prop_map(|n| ArrayOp::Compact { n }),
        2 => (0u16..24).prop_map(|n| ArrayOp::Jump { n }),
        1 => (0u16..600).prop_map(|n| ArrayOp::Jump { n }),
        3 => (0u16..6).prop_map(|tag_field| ArrayOp::MatchDelete { tag_field }),
    ]
}

/// The NIC's insert rhythm, bursts, deletes between in-flight entries,
/// and jumps long enough to drain the array.
fn rhythm_op() -> impl Strategy<Value = ArrayOp> {
    prop_oneof![
        8 => (0u16..6, 0u8..2).prop_map(|(tag_field, j)| ArrayOp::Paced { tag_field, jump: j == 1 }),
        2 => (0u16..6).prop_map(|tag_field| ArrayOp::Burst { tag_field }),
        3 => (0u8..=255).prop_map(|sel| ArrayOp::DeleteInFlight { sel }),
        2 => (0u16..6).prop_map(|tag_field| ArrayOp::MatchDelete { tag_field }),
        2 => (0u8..8).prop_map(|n| ArrayOp::Compact { n }),
        1 => (0u16..400).prop_map(|n| ArrayOp::Jump { n }),
    ]
}

/// The reference shift chain: one `Cell` per physical cell, stepped one
/// clock at a time by the §III-B rule. Every entry whose upper neighbour
/// is empty moves up one cell, all decided on the pre-cycle state.
struct Dense {
    cells: Vec<Cell>,
}

impl Dense {
    fn new(total: usize) -> Dense {
        Dense {
            cells: vec![None; total],
        }
    }

    fn insert(&mut self, e: Entry) -> bool {
        if self.cells[0].is_some() {
            return false;
        }
        self.cells[0] = Some(e);
        true
    }

    fn compact_step(&mut self) -> bool {
        let pre = self.cells.clone();
        let mut moved = false;
        for i in 1..pre.len() {
            if pre[i].is_none() && pre[i - 1].is_some() {
                self.cells[i] = pre[i - 1];
                self.cells[i - 1] = None;
                moved = true;
            }
        }
        moved
    }

    fn delete_shift(&mut self, loc: usize) {
        assert!(self.cells[loc].is_some());
        for i in (1..=loc).rev() {
            self.cells[i] = self.cells[i - 1];
        }
        self.cells[0] = None;
    }

    fn is_compact(&self) -> bool {
        !(1..self.cells.len()).any(|i| self.cells[i].is_none() && self.cells[i - 1].is_some())
    }

    /// The occupied cells below the packed top run, highest first.
    fn in_flight(&self) -> Vec<usize> {
        let run = self.cells.iter().rev().take_while(|c| c.is_some()).count();
        let top = self.cells.len() - run;
        (0..top)
            .rev()
            .filter(|&i| self.cells[i].is_some())
            .collect()
    }
}

/// How often a case started a jam (an in-flight entry waiting on the one
/// above it) in each of the two ways.
#[derive(Default)]
struct JamStarts {
    /// Inserts into cell 0 while an in-flight entry sat in cell 1.
    under_cell_1: usize,
    /// Deletes of an in-flight entry with in-flight entries above and
    /// below it.
    between_in_flight: usize,
}

fn run(
    kind: AlpuKind,
    total: usize,
    block: usize,
    ops: Vec<ArrayOp>,
) -> Result<JamStarts, TestCaseError> {
    let mut starts = JamStarts::default();
    let mut arr = CellArray::new(total, block, kind);
    let mut dense = Dense::new(total);
    // Reference: ordered list, oldest first.
    let mut model: Vec<Entry> = Vec::new();
    let mut cookie = 0u32;
    let entry = |tag_field: u16, cookie: u32| match kind {
        AlpuKind::PostedReceive => Entry::mpi_recv(1, Some(0), Some(tag_field), cookie),
        AlpuKind::Unexpected => Entry::mpi_header(1, 0, tag_field, cookie),
    };
    let probe = |tag_field: u16| match kind {
        AlpuKind::PostedReceive => Probe::exact(MatchWord::mpi(1, 0, tag_field)),
        AlpuKind::Unexpected => Probe::recv(1, None, Some(tag_field)),
    };

    for op in ops {
        let mut insert = |tag_field: u16| -> Result<(), TestCaseError> {
            let e = entry(tag_field, cookie);
            let under_cell_1 = dense.in_flight().last() == Some(&1);
            let inserted = arr.insert(e);
            prop_assert_eq!(inserted, dense.insert(e), "insert verdicts diverge");
            if inserted {
                model.push(e);
                cookie += 1;
                starts.under_cell_1 += usize::from(under_cell_1);
            }
            Ok(())
        };
        match op {
            ArrayOp::Insert { tag_field } => insert(tag_field)?,
            ArrayOp::Paced { tag_field, jump } => {
                insert(tag_field)?;
                if jump {
                    arr.compact_cycles(2);
                    dense.compact_step();
                    dense.compact_step();
                } else {
                    for _ in 0..2 {
                        prop_assert_eq!(arr.compact_step(), dense.compact_step());
                    }
                }
            }
            ArrayOp::Burst { tag_field } => {
                insert(tag_field)?;
                prop_assert_eq!(arr.compact_step(), dense.compact_step());
            }
            ArrayOp::Compact { n } => {
                for _ in 0..n {
                    prop_assert_eq!(arr.compact_step(), dense.compact_step());
                }
            }
            ArrayOp::Jump { n } => {
                arr.compact_cycles(u64::from(n));
                for _ in 0..n {
                    dense.compact_step();
                }
            }
            ArrayOp::DeleteInFlight { sel } => {
                let flying = dense.in_flight();
                let between: Vec<usize> = flying
                    .get(1..flying.len().saturating_sub(1))
                    .unwrap_or_default()
                    .to_vec();
                let pool = if between.is_empty() {
                    &flying
                } else {
                    &between
                };
                if !pool.is_empty() {
                    let loc = pool[usize::from(sel) % pool.len()];
                    starts.between_in_flight += usize::from(!between.is_empty());
                    let cookie = dense.cells[loc].expect("in-flight cell").tag;
                    arr.delete_shift(loc);
                    dense.delete_shift(loc);
                    let i = model.iter().position(|e| e.tag == cookie);
                    model.remove(i.expect("model holds every stored entry"));
                }
            }
            ArrayOp::MatchDelete { tag_field } => {
                let p = probe(tag_field);
                let hw = arr.match_probe(p);
                let sw = model.iter().position(|e| cell_matches(kind, e, p));
                prop_assert_eq!(
                    hw.map(|(_, t)| t),
                    sw.map(|i| model[i].tag),
                    "winners diverge"
                );
                if let Some((loc, _)) = hw {
                    arr.delete_shift(loc);
                    dense.delete_shift(loc);
                    model.remove(sw.expect("sw matched"));
                }
            }
        }
        // Invariants after every op.
        prop_assert_eq!(arr.occupied(), model.len(), "occupancy diverged");
        let entries = arr.entries_oldest_first();
        prop_assert_eq!(entries.as_slice(), model.as_slice(), "order diverged");
        prop_assert_eq!(arr.is_compact(), dense.is_compact(), "compactness diverged");
        for i in 0..total {
            prop_assert_eq!(arr.cell(i), dense.cells[i], "cell {} diverged", i);
        }
    }

    // Compaction converges and is idempotent at the fixed point.
    let mut guard = 0;
    while arr.compact_step() {
        guard += 1;
        prop_assert!(guard <= total * total, "compaction did not converge");
    }
    prop_assert!(arr.is_compact());
    prop_assert!(!arr.compact_step(), "fixed point must be stable");
    let entries = arr.entries_oldest_first();
    prop_assert_eq!(entries.as_slice(), model.as_slice());
    Ok(starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shift_chain_behaves_like_ordered_list(ops in prop::collection::vec(op(), 1..80)) {
        run(AlpuKind::PostedReceive, 16, 4, ops)?;
    }

    #[test]
    fn single_block_geometry(ops in prop::collection::vec(op(), 1..60)) {
        run(AlpuKind::PostedReceive, 8, 8, ops)?;
    }

    #[test]
    fn two_cell_blocks(ops in prop::collection::vec(op(), 1..60)) {
        run(AlpuKind::PostedReceive, 16, 2, ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shipped posted-receive geometry: 128 cells in blocks of 16.
    #[test]
    fn shipped_128_cell_geometry(ops in prop::collection::vec(op(), 1..160)) {
        run(AlpuKind::PostedReceive, 128, 16, ops)?;
    }

    /// 256 cells in blocks of 8.
    #[test]
    fn shipped_256_cell_geometry(ops in prop::collection::vec(op(), 1..160)) {
        run(AlpuKind::PostedReceive, 256, 8, ops)?;
    }

    /// The unexpected-message variant on 128 cells.
    #[test]
    fn unexpected_variant(ops in prop::collection::vec(op(), 1..160)) {
        run(AlpuKind::Unexpected, 128, 16, ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The NIC's insert rhythm on the shipped 128-cell geometry.
    #[test]
    fn rhythm_128_cell_geometry(ops in prop::collection::vec(rhythm_op(), 1..200)) {
        run(AlpuKind::PostedReceive, 128, 16, ops)?;
    }

    /// The NIC's insert rhythm on 256 cells in blocks of 16.
    #[test]
    fn rhythm_256_cell_geometry(ops in prop::collection::vec(rhythm_op(), 1..200)) {
        run(AlpuKind::PostedReceive, 256, 16, ops)?;
    }
}

/// The rhythm mix reaches both ways a jam starts, so the cell checks
/// above cover them.
#[test]
fn rhythm_cases_start_jams_both_ways() {
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;
    let ops = prop::collection::vec(rhythm_op(), 1..200);
    let mut total = JamStarts::default();
    for seed in 0..16 {
        let case = ops.new_value(&mut TestRng::from_seed(seed));
        let starts = run(AlpuKind::PostedReceive, 128, 16, case).expect("case passes");
        total.under_cell_1 += starts.under_cell_1;
        total.between_in_flight += starts.between_in_flight;
    }
    assert!(total.under_cell_1 > 0, "no insert under a filled cell 1");
    assert!(
        total.between_in_flight > 0,
        "no delete between in-flight entries"
    );
}
