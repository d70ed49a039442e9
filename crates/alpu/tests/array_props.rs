//! Property tests on the cell array itself: under arbitrary interleavings
//! of inserts, compaction cycles, and match-deletes, the physical shift
//! chain must behave exactly like an ordered list — no lost entries, no
//! duplicates, no reordering — and compaction must converge. Every cell
//! must also hold what a dense per-cycle stepper puts there, whether the
//! array steps one cycle at a time or jumps many in closed form.

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
}

fn run(kind: AlpuKind, total: usize, block: usize, ops: Vec<ArrayOp>) -> Result<(), TestCaseError> {
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
        match op {
            ArrayOp::Insert { tag_field } => {
                let e = entry(tag_field, cookie);
                let inserted = arr.insert(e);
                prop_assert_eq!(inserted, dense.insert(e), "insert verdicts diverge");
                if inserted {
                    model.push(e);
                    cookie += 1;
                }
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
    Ok(())
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
