//! Cell blocks and the chained cell array (§III-B, Fig. 2c).
//!
//! Physical picture: cells form one long shift chain. New entries are
//! inserted at cell 0 (the paper's "left") and data progresses toward
//! higher indices (the paper's "right"); the highest-index matching cell is
//! therefore the *oldest* posted entry and wins prioritization, which is
//! exactly MPI's first-match rule.
//!
//! The chain is partitioned into power-of-two blocks for **priority
//! muxing**: each block selects its local winner through a binary tree of
//! 2-to-1 muxes (modeled literally in [`priority_select`]), then the same
//! tree shape runs across block winners. The tree depth sets the pipeline
//! latency (see [`crate::timing`]).
//!
//! Compaction does not depend on blocks. Holes left by unevenly timed
//! inserts migrate one cell per cycle: every entry whose upper neighbour
//! is empty moves up one cell, all decided on the pre-cycle state. The
//! §III-B "space available" condition for a transfer is just that its
//! destination cell is empty, within a block or across a boundary.
//! Deletion is different: the match location is broadcast to all blocks
//! and every cell at or below it shifts up in a single cycle, so deletes
//! never create holes.
//!
//! [`CellArray`] therefore keeps no per-cell state. It holds the packed
//! run of entries at the top of the chain plus the few entries still in
//! flight below it, and computes where compaction puts them after any
//! number of cycles in closed form ([`CellArray::compact_cycles`]). While
//! no in-flight entry sits directly under another, every one of them
//! moves up a cell per cycle, so a span costs O(1) plus O(1) per entry
//! that settles; only a span that starts with such a jam takes a pass
//! over the in-flight entries.

use crate::cell::{cell_matches, Cell};
use crate::engine::AlpuKind;
use crate::match_types::{Entry, MatchWord, Probe, Tag, MATCH_WIDTH};
use std::collections::VecDeque;

/// A binary 2-to-1 priority-mux tree over `matched` flags, returning the
/// highest matching index and its tag — the hardware structure of
/// Fig. 2(c), where "the highest order cell (furthest to the right) is the
/// highest priority" and the match bits get encoded, level by level, into
/// the match location.
///
/// `matched.len()` must be a power of two (hardware pads blocks).
pub fn priority_select(matched: &[bool], tags: &[Tag]) -> Option<(usize, Tag)> {
    assert_eq!(matched.len(), tags.len());
    assert!(matched.len().is_power_of_two(), "mux tree needs 2^N inputs");
    // Each tree node carries (any_match, encoded_location, tag).
    let mut level: Vec<(bool, usize, Tag)> = matched
        .iter()
        .zip(tags)
        .map(|(&m, &t)| (m, 0usize, t))
        .collect();
    let mut bit = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        for pair in level.chunks_exact(2) {
            let (lo, hi) = (pair[0], pair[1]);
            // The higher-order input wins; its presence is encoded into
            // this level's bit of the match location.
            let sel_hi = hi.0;
            let m = lo.0 || hi.0;
            let (loc, tag) = if sel_hi {
                (hi.1 | (1 << bit), hi.2)
            } else {
                (lo.1, lo.2)
            };
            next.push((m, loc, tag));
        }
        level = next;
        bit += 1;
    }
    let (m, loc, tag) = level[0];
    m.then_some((loc, tag))
}

/// The chained cell array of one ALPU: `total` cells in blocks of
/// `block_size`.
///
/// The cells are held as the packed top run (cells `top()..capacity`,
/// oldest entry in the highest cell) plus the in-flight entries below it,
/// each with its cell. Cell `top() - 1` is always empty, so an in-flight
/// entry never touches the run. Only in-flight entries move, and each
/// one's cell is kept as an offset from one array-wide compaction clock:
/// advancing the clock moves them all. Compaction is O(1) per span while
/// the array flows free, plus O(1) per entry that settles; inserts and
/// deletes of run entries are O(1) in the in-flight entries.
#[derive(Clone, Debug)]
pub struct CellArray {
    total: usize,
    block_size: usize,
    kind: AlpuKind,
    /// The packed top run, oldest first: `run[j]` sits in cell
    /// `total - 1 - j`.
    run: Vec<Entry>,
    /// In-flight entries, oldest (highest cell) first, each with its cell
    /// less `clock` (wrapping); see [`CellArray::at`].
    in_flight: VecDeque<(Entry, usize)>,
    /// The compaction clock. Adding to it moves every in-flight entry up.
    clock: usize,
    /// Whether some in-flight entry may sit directly under another and
    /// wait on it. When false, none does, and every in-flight entry moves
    /// up one cell per cycle until it settles. Only an insert under an
    /// entry in cell 1 sets it; a delete merges two gaps into one no
    /// narrower than either, and a span of compaction clears it once the
    /// pass finds no jam left.
    jammed: bool,
    /// Scratch for [`CellArray::compact_cycles`]: the candidates of its
    /// sliding-window minimum. Empty between calls.
    window: Vec<(usize, usize)>,
}

impl CellArray {
    /// Build an empty array. `total` and `block_size` must be powers of
    /// two with `block_size <= total`.
    pub fn new(total: usize, block_size: usize, kind: AlpuKind) -> CellArray {
        assert!(total.is_power_of_two(), "total cells must be a power of 2");
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of 2 (§III-B)"
        );
        assert!(block_size <= total, "block larger than array");
        CellArray {
            total,
            block_size,
            kind,
            run: Vec::new(),
            in_flight: VecDeque::new(),
            clock: 0,
            jammed: false,
            window: Vec::new(),
        }
    }

    /// Total number of cells.
    pub fn capacity(&self) -> usize {
        self.total
    }

    /// Cells per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks in the chain.
    pub fn num_blocks(&self) -> usize {
        self.total / self.block_size
    }

    /// Number of valid entries.
    pub fn occupied(&self) -> usize {
        self.run.len() + self.in_flight.len()
    }

    /// Number of free cells.
    pub fn free(&self) -> usize {
        self.capacity() - self.occupied()
    }

    /// Kind (posted-receive or unexpected variant).
    pub fn kind(&self) -> AlpuKind {
        self.kind
    }

    /// The lowest cell of the packed top run (`capacity()` when empty).
    fn top(&self) -> usize {
        self.total - self.run.len()
    }

    /// The cell of an in-flight entry stored with offset `off`.
    fn at(&self, off: usize) -> usize {
        off.wrapping_add(self.clock)
    }

    /// Combinational match: returns `(cell index, tag)` of the oldest
    /// (highest-index) matching valid cell.
    ///
    /// The hardware computes this through per-block priority-mux trees
    /// followed by an inter-block tree — modeled literally in
    /// [`CellArray::match_probe_mux`]. Because each tree level always
    /// selects its higher-order input, the composed trees reduce to
    /// "highest matching index wins", which this hot path computes with
    /// a single allocation-free scan of the entries, oldest first. The
    /// two paths are asserted identical in debug builds and in the unit
    /// tests.
    pub fn match_probe(&self, probe: Probe) -> Option<(usize, Tag)> {
        let top_cell = self.total - 1;
        let result = self
            .run
            .iter()
            .enumerate()
            .map(|(j, e)| (top_cell - j, e))
            .chain(self.in_flight.iter().map(|(e, off)| (self.at(*off), e)))
            .find(|(_, e)| cell_matches(self.kind, e, probe))
            .map(|(c, e)| (c, e.tag));
        debug_assert_eq!(
            result,
            self.match_probe_mux(probe),
            "scan shortcut diverged from the mux-tree model"
        );
        result
    }

    /// The hardware-literal match path: per-block priority trees, then
    /// the inter-block tree (Fig. 2c). Allocates per level; used as the
    /// reference model for [`CellArray::match_probe`].
    pub fn match_probe_mux(&self, probe: Probe) -> Option<(usize, Tag)> {
        let bs = self.block_size;
        let nblocks = self.num_blocks();
        let cells: Vec<Cell> = (0..self.total).map(|i| self.cell(i)).collect();
        // Per-block winners.
        let mut block_match = vec![false; nblocks];
        let mut block_loc = vec![0usize; nblocks];
        let mut block_tag = vec![0 as Tag; nblocks];
        for (b, block) in cells.chunks_exact(bs).enumerate() {
            let matched: Vec<bool> = block
                .iter()
                .map(|c| c.is_some_and(|e| cell_matches(self.kind, &e, probe)))
                .collect();
            let tags: Vec<Tag> = block.iter().map(|c| c.map_or(0, |e| e.tag)).collect();
            if let Some((loc, tag)) = priority_select(&matched, &tags) {
                block_match[b] = true;
                block_loc[b] = loc;
                block_tag[b] = tag;
            }
        }
        // Inter-block tree (block counts are powers of two by construction).
        let (winner_block, tag) = priority_select(&block_match, &block_tag)?;
        Some((winner_block * bs + block_loc[winner_block], tag))
    }

    /// Single-cycle delete-with-shift: the match location is broadcast to
    /// all blocks; cells at and below `loc` shift up one position, and
    /// cell 0 becomes empty. Order among survivors is preserved and no
    /// hole is created.
    pub fn delete_shift(&mut self, loc: usize) {
        assert!(loc < self.total);
        if loc >= self.top() {
            // Every in-flight entry sits below the run, so all shift.
            self.run.remove(self.total - 1 - loc);
            self.clock = self.clock.wrapping_add(1);
        } else {
            let k = self
                .in_flight
                .partition_point(|&(_, off)| self.at(off) > loc);
            assert!(
                self.in_flight
                    .get(k)
                    .is_some_and(|&(_, off)| self.at(off) == loc),
                "deleting an invalid cell"
            );
            self.in_flight.remove(k);
            for (_, off) in self.in_flight.range_mut(k..) {
                *off = off.wrapping_add(1);
            }
        }
        debug_assert!(self.well_formed());
    }

    /// Insert a new entry at cell 0. Fails if cell 0 is still occupied
    /// (compaction hasn't caught up) — the engine's flow control prevents
    /// this in normal operation by honoring the advertised free count.
    pub fn insert(&mut self, e: Entry) -> bool {
        if self.cell0_occupied() {
            return false;
        }
        if self.top() == 1 {
            // Cell 1 is the run's bottom: the new entry joins the run.
            self.run.push(e);
        } else {
            // Under an entry in cell 1, the new one waits a cycle for it.
            self.jammed |= self.lowest_cell() == Some(1);
            self.in_flight.push_back((e, self.clock.wrapping_neg()));
        }
        debug_assert!(self.well_formed());
        true
    }

    /// The cell of the lowest in-flight entry.
    fn lowest_cell(&self) -> Option<usize> {
        self.in_flight.back().map(|&(_, off)| self.at(off))
    }

    fn cell0_occupied(&self) -> bool {
        match self.lowest_cell() {
            Some(c) => c == 0,
            None => self.top() == 0,
        }
    }

    /// One clock of hole compaction: every entry whose upper neighbour is
    /// empty moves up one cell (the §III-B "space available" condition).
    /// Returns whether any data moved.
    pub fn compact_step(&mut self) -> bool {
        // The highest in-flight entry always has an empty cell above it.
        let moved = !self.in_flight.is_empty();
        self.compact_cycles(1);
        moved
    }

    /// `n` clocks of hole compaction, bit-identical to `n` calls of
    /// [`CellArray::compact_step`].
    ///
    /// Number the in-flight entries `k = 0, 1, ...` down from the top run,
    /// and let `pos_k(t)` be entry `k`'s cell `t` cycles from now, with
    /// `pos_{-1} = top()` the fixed bottom of the run. Moves are decided
    /// on the pre-cycle state, so
    /// `pos_k(t) = min(pos_k(t-1) + 1, pos_{k-1}(t-1) - 1)`. Unrolling
    /// that down the list gives
    /// `pos_k(n) = min(top() - 1 - k, n + min(pos_j(0) + 2j) - 2k)` over
    /// `j` in `k-n ..= k`: entry `k` runs free, or trails entry `j` by one
    /// cell per entry between them plus one cycle of start-up delay each.
    /// Entries that reach `top() - 1 - k` have settled; they are a prefix
    /// of the list and join the run.
    ///
    /// When no entry sits directly under another, the gaps between them
    /// are at least two cells, so each entry's own term is its window
    /// minimum: every entry runs free, `pos_k(n) = pos_k(0) + n` until it
    /// settles, and the span is one step of the clock. Otherwise the inner
    /// minimum slides down the list with a window of `n + 1`, and one pass
    /// with a monotone queue computes every position.
    pub fn compact_cycles(&mut self, n: u64) {
        if n == 0 || self.in_flight.is_empty() {
            return;
        }
        // Every entry settles within `2 * total` cycles (see
        // `settle_cycles`), so longer spans are the same span.
        let n = n.min(2 * self.total as u64) as usize;
        if self.jammed {
            self.compact_jammed(n);
        } else {
            self.clock = self.clock.wrapping_add(n);
        }
        // Settled entries join the run, nearest first. A free-running
        // entry whose clock cell passed its final cell stopped there.
        while let Some(&(e, off)) = self.in_flight.front() {
            if self.at(off) < self.top() - 1 {
                break;
            }
            self.in_flight.pop_front();
            self.run.push(e);
        }
        self.jammed = self.jammed && self.has_jam();
        debug_assert!(self.well_formed());
    }

    /// The sliding-window pass of [`CellArray::compact_cycles`] over a
    /// span of `n` cycles that starts with a jam.
    fn compact_jammed(&mut self, n: usize) {
        let top = self.top();
        let clock = self.clock;
        // Candidates `(j, pos_j(0) + 2j)` for the window minimum, from
        // `head` on: indices and values both increase.
        let window = &mut self.window;
        let mut head = 0;
        for (k, (_, off)) in self.in_flight.iter_mut().enumerate() {
            let q = off.wrapping_add(clock) + 2 * k;
            while window.len() > head && window.last().is_some_and(|&(_, v)| v >= q) {
                window.pop();
            }
            window.push((k, q));
            if window[head].0 + n < k {
                head += 1;
            }
            let cell = (top - 1 - k).min(n + window[head].1 - 2 * k);
            *off = cell.wrapping_sub(clock);
        }
        window.clear();
    }

    /// The cycle, counted from now, at which each in-flight entry joins
    /// the top run, nearest the run first. Entry `k` must travel to cell
    /// `top() - 1 - k`, and it can only enter that cell the cycle after
    /// entry `k - 1` settled, so
    /// `s_k = max(s_{k-1} + 1, top() - 1 - k - pos_k)` with `s_{-1} = 0`.
    /// Each entry travels at most `total` cells and waits at most one
    /// cycle per entry above it, so every `s_k` is below `2 * total`.
    fn settle_cycles(&self) -> impl Iterator<Item = u64> + '_ {
        let top = self.top();
        self.in_flight
            .iter()
            .enumerate()
            .scan(0u64, move |s, (k, &(_, off))| {
                *s = (*s + 1).max((top - 1 - k - self.at(off)) as u64);
                Some(*s)
            })
    }

    /// Cycles of compaction until the array is compact: when the last
    /// in-flight entry settles (0 if none is in flight). Free of jams,
    /// each entry settles a cycle or more after the one above it, so the
    /// last one's own distance is the answer.
    pub(crate) fn cycles_to_compact(&self) -> u64 {
        match self.lowest_cell() {
            Some(c) if !self.jammed => (self.top() - self.in_flight.len() - c) as u64,
            _ => self.settle_cycles().last().unwrap_or(0),
        }
    }

    /// Cycles of compaction until cell 0 is free for an insert: 0 if it
    /// is free now, `None` if the array is full. An occupied cell 0 heads
    /// a jam of `L` entries in cells `0..L`; the jam dissolves from the
    /// top, one entry per cycle, so cell 0 frees after `L` cycles.
    pub(crate) fn cycles_until_insertable(&self) -> Option<u64> {
        if self.top() == 0 {
            return None;
        }
        let jam = self
            .in_flight
            .iter()
            .rev()
            .enumerate()
            .take_while(|&(i, &(_, off))| self.at(off) == i)
            .count();
        Some(jam as u64)
    }

    /// True when no hole separates occupied cells (all data packed at the
    /// top of the chain): nothing is in flight.
    pub fn is_compact(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Clear all valid bits (RESET).
    pub fn reset(&mut self) {
        self.run.clear();
        self.in_flight.clear();
        self.jammed = false;
    }

    /// Fault injection: flip one bit of a stored match word. `sel` picks
    /// among the occupied cells (reduced modulo occupancy, oldest first)
    /// and `bit` picks the bit (reduced modulo the match width). Only the
    /// match *value* is disturbed — validity bits are untouched, so the
    /// occupancy and compactness invariants still hold; what breaks is the
    /// match outcome, which is exactly what a parity check over the cell
    /// state exists to catch. Returns `false` on an empty array (nothing
    /// to corrupt).
    pub fn flip_word_bit(&mut self, sel: u64, bit: u32) -> bool {
        let len = self.occupied();
        if len == 0 {
            return false;
        }
        let nth = (sel % len as u64) as usize;
        let e = match self.run.get_mut(nth) {
            Some(e) => e,
            None => &mut self.in_flight[nth - self.run.len()].0,
        };
        e.word = MatchWord(e.word.0 ^ (1u64 << (bit % MATCH_WIDTH)));
        true
    }

    /// Entries in priority order (oldest first) — for equivalence checks
    /// against [`crate::golden::GoldenList`].
    pub fn entries_oldest_first(&self) -> Vec<Entry> {
        self.run
            .iter()
            .copied()
            .chain(self.in_flight.iter().map(|&(e, _)| e))
            .collect()
    }

    /// The content of cell `i` (diagnostics, examples).
    pub fn cell(&self, i: usize) -> Cell {
        assert!(i < self.total, "cell {i} out of range");
        if i >= self.top() {
            return Some(self.run[self.total - 1 - i]);
        }
        let k = self.in_flight.partition_point(|&(_, off)| self.at(off) > i);
        self.in_flight
            .get(k)
            .filter(|&&(_, off)| self.at(off) == i)
            .map(|&(e, _)| e)
    }

    /// Whether some in-flight entry sits directly under another.
    fn has_jam(&self) -> bool {
        let cells = self.in_flight.iter().map(|&(_, off)| self.at(off));
        cells
            .clone()
            .zip(cells.skip(1))
            .any(|(above, c)| above == c + 1)
    }

    /// In-flight cells strictly descend and stay below the empty cell
    /// under the run, and an array not marked jammed has no jam.
    fn well_formed(&self) -> bool {
        let mut above = self.top().saturating_sub(1);
        self.in_flight.iter().all(|&(_, off)| {
            let c = self.at(off);
            let ok = c < above;
            above = c;
            ok
        }) && (self.jammed || !self.has_jam())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_types::MatchWord;

    fn arr(total: usize, block: usize) -> CellArray {
        CellArray::new(total, block, AlpuKind::PostedReceive)
    }

    fn recv(tagv: u16, cookie: Tag) -> Entry {
        Entry::mpi_recv(1, Some(0), Some(tagv), cookie)
    }

    fn probe(tagv: u16) -> Probe {
        Probe::exact(MatchWord::mpi(1, 0, tagv))
    }

    /// Fill the array compactly with `n` entries, oldest = cookie 0.
    fn fill(a: &mut CellArray, n: usize) {
        for i in 0..n {
            assert!(a.insert(recv(i as u16, i as Tag)));
            while a.compact_step() {}
        }
    }

    #[test]
    fn priority_select_matches_linear_scan() {
        // Exhaustive over all 2^6 match patterns of a 6-cell... sizes must
        // be powers of two; use 8 cells and all 256 patterns.
        for pat in 0u32..256 {
            let matched: Vec<bool> = (0..8).map(|i| pat & (1 << i) != 0).collect();
            let tags: Vec<Tag> = (0..8).map(|i| 100 + i as Tag).collect();
            let want = (0..8).rev().find(|&i| matched[i]).map(|i| (i, tags[i]));
            assert_eq!(priority_select(&matched, &tags), want, "pattern {pat:08b}");
        }
    }

    #[test]
    fn oldest_entry_wins_across_blocks() {
        let mut a = arr(16, 4);
        fill(&mut a, 10);
        // Every entry has a distinct tag value; probe for two of them.
        assert_eq!(a.match_probe(probe(0)).map(|(_, t)| t), Some(0));
        assert_eq!(a.match_probe(probe(7)).map(|(_, t)| t), Some(7));
        assert_eq!(a.match_probe(probe(12)), None);
    }

    #[test]
    fn duplicate_matches_resolve_to_oldest() {
        let mut a = arr(16, 4);
        // Three identical receives, cookies 0,1,2 in post order.
        for c in 0..3 {
            assert!(a.insert(recv(5, c)));
            while a.compact_step() {}
        }
        let (loc, tag) = a.match_probe(probe(5)).unwrap();
        assert_eq!(tag, 0, "oldest must win");
        a.delete_shift(loc);
        assert_eq!(a.match_probe(probe(5)).map(|(_, t)| t), Some(1));
    }

    #[test]
    fn delete_shift_preserves_order_and_creates_no_hole() {
        let mut a = arr(16, 4);
        fill(&mut a, 8);
        let (loc, _) = a.match_probe(probe(3)).unwrap();
        a.delete_shift(loc);
        assert!(a.is_compact());
        let tags: Vec<Tag> = a.entries_oldest_first().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn insert_requires_cell_zero_free() {
        let mut a = arr(4, 2);
        assert!(a.insert(recv(0, 0)));
        // No compaction step yet: cell 0 still occupied.
        assert!(!a.insert(recv(1, 1)));
        a.compact_step();
        assert!(a.insert(recv(1, 1)));
    }

    #[test]
    fn hole_migrates_one_cell_per_cycle_within_block() {
        let mut a = arr(8, 8);
        // Occupy cells 7, 6, 5, then delete the middle one (cookie 1, in
        // cell 6) by match and delete.
        fill(&mut a, 3);
        let (loc, _) = a.match_probe(probe(1)).unwrap();
        assert_eq!(loc, 6);
        a.delete_shift(loc); // survivors shift; still compact
        assert!(a.is_compact());
        // Now insert without compaction catching up: hole between data.
        assert!(a.insert(recv(9, 9)));
        // cells: [9, _, _, _, _, _, 2, 0] — entry 9 at bottom, others top.
        assert_eq!(a.cell(6).map(|e| e.tag), Some(2));
        assert_eq!(a.cell(7).map(|e| e.tag), Some(0));
        let mut steps = 0;
        while !a.is_compact() {
            assert!(a.compact_step());
            steps += 1;
            assert!(steps < 16, "compaction did not converge");
        }
        // Entry 9 had to travel from cell 0 to cell 5: 5 steps.
        assert_eq!(steps, 5);
        let tags: Vec<Tag> = a.entries_oldest_first().iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![0, 2, 9]);
    }

    #[test]
    fn compaction_crosses_block_boundary_via_lowest_cell() {
        let mut a = arr(8, 4); // blocks: cells 0-3, 4-7
        fill(&mut a, 2); // cells 7, 6 occupied
        a.insert(recv(1, 1));
        // Entry must migrate from cell 0 (block 0) into block 1.
        let mut steps = 0;
        while !a.is_compact() {
            a.compact_step();
            steps += 1;
            assert!(steps < 16);
        }
        assert_eq!(a.entries_oldest_first().len(), 3);
        // It traveled 0 -> 5 (5 steps), crossing the boundary at cell 4.
        assert_eq!(steps, 5);
    }

    /// Step `a` one cycle at a time until compact, and return the cycle
    /// each in-flight entry reached its final cell, nearest the run first.
    fn stepped_settle_cycles(mut a: CellArray) -> Vec<u64> {
        let top = a.top();
        let inflight: Vec<Entry> = a.in_flight.iter().map(|&(e, _)| e).collect();
        let mut settled = vec![None; inflight.len()];
        for t in 1..=4 * a.capacity() as u64 {
            a.compact_step();
            for (k, e) in inflight.iter().enumerate() {
                if settled[k].is_none() && a.cell(top - 1 - k) == Some(*e) {
                    settled[k] = Some(t);
                }
            }
        }
        assert!(a.is_compact());
        settled.into_iter().map(|s| s.expect("settled")).collect()
    }

    #[test]
    fn settle_cycles_follow_the_recurrence_for_an_adjacent_pair() {
        let mut a = arr(16, 4);
        fill(&mut a, 3); // the run: cells 15, 14, 13
        assert!(a.insert(recv(3, 3)));
        a.compact_step();
        assert!(a.insert(recv(4, 4)));
        // Cells 1 and 0: the lower entry waits one cycle for the upper.
        assert_eq!(a.cell(1).map(|e| e.tag), Some(3));
        assert_eq!(a.cell(0).map(|e| e.tag), Some(4));
        let want = stepped_settle_cycles(a.clone());
        // The upper travels 1 -> 12 in 11 cycles; the lower settles the
        // cycle after it, having travelled 0 -> 11 with one stall.
        assert_eq!(want, vec![11, 12]);
        assert_eq!(a.settle_cycles().collect::<Vec<_>>(), want);
        assert_eq!(a.cycles_to_compact(), 12);
    }

    #[test]
    fn settle_cycles_follow_the_recurrence_for_a_train() {
        // Inserts every 2 cycles, the engine's insert interval, into an
        // array whose run grows underneath a jam.
        for run in [0, 5, 9] {
            let mut a = arr(16, 4);
            fill(&mut a, run);
            for t in 0..6 {
                if !a.insert(recv(10 + t, 10 + t as Tag)) {
                    break;
                }
                a.compact_step();
                a.compact_step();
            }
            let want = stepped_settle_cycles(a.clone());
            assert_eq!(a.settle_cycles().collect::<Vec<_>>(), want, "run {run}");
            assert_eq!(a.cycles_to_compact(), want.last().copied().unwrap_or(0));
        }
    }

    #[test]
    fn cell_zero_frees_after_the_jam_under_it_dissolves() {
        let mut a = arr(16, 4);
        assert_eq!(a.cycles_until_insertable(), Some(0));
        assert!(a.insert(recv(0, 0)));
        for _ in 0..5 {
            a.compact_step();
        }
        assert!(a.insert(recv(1, 1)));
        a.compact_step();
        assert!(a.insert(recv(2, 2)));
        // Deleting the entry in cell 6 shifts the pair in cells 1, 0 up;
        // a third insert completes a jam in cells 2, 1, 0.
        a.delete_shift(6);
        assert_eq!(a.cycles_until_insertable(), Some(0));
        assert!(a.insert(recv(3, 3)));
        assert_eq!(a.cycles_until_insertable(), Some(3));
        for _ in 0..2 {
            a.compact_step();
            assert!(a.cell(0).is_some());
        }
        a.compact_step();
        assert!(a.cell(0).is_none());

        let mut full = arr(4, 4);
        fill(&mut full, 3);
        assert_eq!(full.cycles_until_insertable(), Some(0));
        assert!(full.insert(recv(3, 3)));
        assert_eq!(full.cycles_until_insertable(), None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = arr(8, 4);
        fill(&mut a, 5);
        a.reset();
        assert_eq!(a.occupied(), 0);
        assert!(a.is_compact());
        assert_eq!(a.match_probe(probe(0)), None);
    }

    #[test]
    fn wildcard_entries_match_any_source() {
        let mut a = CellArray::new(8, 4, AlpuKind::PostedReceive);
        a.insert(Entry::mpi_recv(2, None, Some(3), 42));
        while a.compact_step() {}
        let p = Probe::exact(MatchWord::mpi(2, 777, 3));
        assert_eq!(a.match_probe(p).map(|(_, t)| t), Some(42));
    }

    #[test]
    fn unexpected_array_reverse_lookup() {
        let mut a = CellArray::new(8, 4, AlpuKind::Unexpected);
        a.insert(Entry::mpi_header(2, 10, 3, 7));
        while a.compact_step() {}
        assert_eq!(
            a.match_probe(Probe::recv(2, None, Some(3))).map(|(_, t)| t),
            Some(7)
        );
        assert_eq!(a.match_probe(Probe::recv(2, Some(11), Some(3))), None);
    }

    #[test]
    #[should_panic(expected = "power of 2")]
    fn non_power_of_two_block_rejected() {
        CellArray::new(16, 3, AlpuKind::PostedReceive);
    }
}
