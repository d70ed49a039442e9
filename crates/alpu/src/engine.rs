//! The full ALPU: chained blocks + control state machine + FIFOs
//! (§III-C, Fig. 3; command set of Table I; responses of Table II).
//!
//! The engine is cycle-stepped: [`Alpu::tick`] advances one clock of the
//! unit's own clock domain. The controlling state machine has the three
//! states of Fig. 3 — **Match**, **Read Command**, **Insert** — with these
//! behaviors:
//!
//! * **Match**: headers from the header FIFO are matched one at a time
//!   (each occupying the full, non-overlapped pipeline). Successes delete
//!   the matched cell and report `MATCH SUCCESS`; failures report
//!   `MATCH FAILURE`. A pending command interrupts the flow after the
//!   current match completes.
//! * **Read Command**: only `RESET` and `START INSERT` are valid here;
//!   anything else is discarded. `START INSERT` replies
//!   `START ACKNOWLEDGE` with the number of free cells and enters Insert.
//! * **Insert**: `INSERT` commands are accepted every other cycle.
//!   Between inserts, matching continues — but a **failed** match is *held
//!   for retry* rather than reported (an in-flight insert might satisfy
//!   it), and it blocks the header stream to preserve ordering. A held
//!   probe is retried after each insert; `STOP INSERT` performs one final
//!   retry before any `MATCH FAILURE` may be reported. This is why "MATCH
//!   FAILURE cannot occur between a START ACKNOWLEDGE and a STOP INSERT"
//!   (§IV-A).
//!
//! Hole compaction runs concurrently on every cycle (see
//! [`crate::block::CellArray::compact_step`]).

use crate::block::CellArray;
use crate::match_types::{Entry, Probe, Tag};
use crate::timing::PipelineTiming;
use std::collections::VecDeque;

/// Which queue this ALPU accelerates; selects the cell variant
/// (Fig. 2a vs 2b).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AlpuKind {
    /// Posted-receive ALPU: masks stored per cell.
    #[default]
    PostedReceive,
    /// Unexpected-message ALPU: mask supplied with each probe.
    Unexpected,
}

/// Commands the processor can issue (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// Enter insert mode (answered by [`Response::StartAck`]).
    StartInsert,
    /// Insert a new entry (valid only in insert mode).
    Insert(Entry),
    /// Leave insert mode.
    StopInsert,
    /// Clear all entries.
    Reset,
}

/// Responses the ALPU produces (Table II).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Response {
    /// Insert mode entered; `free` entries may be safely inserted.
    StartAck {
        /// Number of free cells at the time insert mode was entered.
        free: u32,
    },
    /// A header matched; `tag` is the stored software cookie.
    MatchSuccess {
        /// The matched entry's tag.
        tag: Tag,
    },
    /// A header matched nothing (never emitted between
    /// `StartAck` and the completion of `STOP INSERT`).
    MatchFailure,
}

/// Error pushing into a full FIFO.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PushError;

/// The coarse state of the controlling state machine (Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum State {
    /// Accepting and matching headers.
    Match,
    /// Decoding a command.
    ReadCommand,
    /// Insert mode.
    Insert,
}

/// Static configuration of one ALPU instance.
#[derive(Clone, Copy, Debug)]
pub struct AlpuConfig {
    /// Total cells (power of two).
    pub total_cells: usize,
    /// Cells per block (power of two, ≤ total).
    pub block_size: usize,
    /// Posted-receive or unexpected variant.
    pub kind: AlpuKind,
    /// Header FIFO depth.
    pub header_fifo_depth: usize,
    /// Command FIFO depth.
    pub command_fifo_depth: usize,
    /// Result FIFO depth.
    pub result_fifo_depth: usize,
}

impl AlpuConfig {
    /// Default configuration. The FIFO depths are generous: the firmware
    /// drains one response per header, but arrival *bursts* can outrun
    /// the processor by hundreds of messages, and a real NIC would
    /// backpressure the Rx path into the network's flow control — a
    /// mechanism outside this model. Deep FIFOs stand in for that
    /// backpressure; unit tests exercise the flow-control behavior with
    /// explicitly small depths.
    pub fn new(total_cells: usize, block_size: usize, kind: AlpuKind) -> AlpuConfig {
        AlpuConfig {
            total_cells,
            block_size,
            kind,
            header_fifo_depth: 4096,
            command_fifo_depth: 16,
            result_fifo_depth: 4096,
        }
    }

    /// Derived pipeline timing.
    pub fn timing(&self) -> PipelineTiming {
        PipelineTiming::for_geometry(self.total_cells, self.block_size)
    }
}

/// The operation currently occupying the (non-overlapped) pipeline.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A match for `probe`. `final_retry` marks the post-STOP-INSERT
    /// retry whose failure must be reported.
    Match { probe: Probe, final_retry: bool },
    /// Decode one command from the command FIFO.
    DecodeCommand,
    /// Insert `entry` into cell 0.
    Insert { entry: Entry },
}

/// Counters for experiments and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlpuStats {
    /// Matches attempted (including held retries).
    pub matches_attempted: u64,
    /// Successful matches reported.
    pub match_successes: u64,
    /// Failures reported.
    pub match_failures: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Cycles spent with the pipeline busy.
    pub busy_cycles: u64,
    /// Total cycles ticked.
    pub cycles: u64,
    /// Result-FIFO occupancy highwater.
    pub result_fifo_highwater: usize,
    /// Cycles lost to injected pipeline stalls.
    pub stall_cycles: u64,
}

/// One Associative List Processing Unit.
#[derive(Clone, Debug)]
pub struct Alpu {
    cfg: AlpuConfig,
    timing: PipelineTiming,
    array: CellArray,
    state: State,
    op: Option<Op>,
    op_cycles_left: u64,
    /// Failed probe held for retry during insert mode. While present it is
    /// the head of the header stream: younger headers wait behind it.
    held: Option<Probe>,
    header_fifo: VecDeque<Probe>,
    cmd_fifo: VecDeque<Command>,
    result_fifo: VecDeque<Response>,
    stats: AlpuStats,
    /// Injected-fault state: remaining cycles of a transient pipeline
    /// stall. While nonzero, ticks advance the clock and nothing else —
    /// no compaction, no scheduling, no op progress.
    stall_cycles: u64,
    /// Sticky parity-error flag: set when fault injection corrupts a
    /// stored cell. Models the parity check over the cell state that the
    /// firmware reads to decide the unit can no longer be trusted. Cleared
    /// only by [`Alpu::hard_reset`].
    parity_error: bool,
}

impl Alpu {
    /// Build an idle, empty unit in the Match state.
    pub fn new(cfg: AlpuConfig) -> Alpu {
        Alpu {
            timing: cfg.timing(),
            array: CellArray::new(cfg.total_cells, cfg.block_size, cfg.kind),
            state: State::Match,
            op: None,
            op_cycles_left: 0,
            held: None,
            header_fifo: VecDeque::new(),
            cmd_fifo: VecDeque::new(),
            result_fifo: VecDeque::new(),
            stats: AlpuStats::default(),
            stall_cycles: 0,
            parity_error: false,
            cfg,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &AlpuConfig {
        &self.cfg
    }

    /// Current FSM state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Number of valid entries in the array.
    pub fn occupied(&self) -> usize {
        self.array.occupied()
    }

    /// Valid entries once every accepted command has drained: the array's
    /// occupancy plus the in-flight and queued INSERTs (a queued RESET
    /// starts the count over). A unit syncs lazily, so a run can end with
    /// an insert session still sitting in the command FIFO; this is the
    /// occupancy the firmware's shadow prefix already accounts for.
    pub fn occupied_when_drained(&self) -> usize {
        let in_flight = usize::from(matches!(self.op, Some(Op::Insert { .. })));
        self.cmd_fifo
            .iter()
            .fold(self.occupied() + in_flight, |n, c| match c {
                Command::Insert(_) => n + 1,
                Command::Reset => 0,
                Command::StartInsert | Command::StopInsert => n,
            })
    }

    /// Number of free cells.
    pub fn free(&self) -> usize {
        self.array.free()
    }

    /// Statistics so far.
    pub fn stats(&self) -> AlpuStats {
        self.stats
    }

    /// Direct (read-only) view of the cell array, for diagnostics.
    pub fn array(&self) -> &CellArray {
        &self.array
    }

    /// Enqueue an incoming header copy (hardware path from the Rx FIFO).
    pub fn push_header(&mut self, p: Probe) -> Result<(), PushError> {
        if self.header_fifo.len() >= self.cfg.header_fifo_depth {
            return Err(PushError);
        }
        self.header_fifo.push_back(p);
        Ok(())
    }

    /// Enqueue a command (processor path over the local bus).
    pub fn push_command(&mut self, c: Command) -> Result<(), PushError> {
        if self.cmd_fifo.len() >= self.cfg.command_fifo_depth {
            return Err(PushError);
        }
        self.cmd_fifo.push_back(c);
        Ok(())
    }

    /// Pop the oldest response, if any (processor path over the local bus).
    pub fn pop_response(&mut self) -> Option<Response> {
        self.result_fifo.pop_front()
    }

    /// Peek the response queue depth.
    pub fn responses_pending(&self) -> usize {
        self.result_fifo.len()
    }

    /// Headers waiting (including a held probe).
    pub fn headers_pending(&self) -> usize {
        self.header_fifo.len() + usize::from(self.held.is_some())
    }

    /// Commands waiting.
    pub fn commands_pending(&self) -> usize {
        self.cmd_fifo.len()
    }

    /// True when no probe activity is outstanding: no queued headers, no
    /// held probe, no unread responses, and no match in the pipeline.
    ///
    /// Firmware must only open an insert session against a
    /// probe-quiescent unit: a MATCH FAILURE computed *before* the
    /// session's inserts must be paired with the pre-insert tail, so the
    /// processor "must be handled correctly" (§IV-C) — the simplest
    /// correct handling is to drain all probe traffic first.
    pub fn probe_quiescent(&self) -> bool {
        self.header_fifo.is_empty()
            && self.held.is_none()
            && self.result_fifo.is_empty()
            && !matches!(self.op, Some(Op::Match { .. }))
    }

    /// Fault injection: freeze the control pipeline for `cycles` clocks.
    /// Stall cycles accumulate if injected while one is already pending.
    pub fn inject_stall(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    /// Fault injection: flip a bit of a stored match word (see
    /// [`CellArray::flip_word_bit`]) and latch the parity-error flag.
    /// Returns whether a cell was actually corrupted (no-op when empty).
    pub fn inject_bit_flip(&mut self, sel: u64, bit: u32) -> bool {
        let hit = self.array.flip_word_bit(sel, bit);
        if hit {
            self.parity_error = true;
        }
        hit
    }

    /// Sticky parity verdict over the cell state. Once set, match results
    /// are untrustworthy until a [`Alpu::hard_reset`].
    pub fn parity_error(&self) -> bool {
        self.parity_error
    }

    /// The reset pin: wipe the unit back to its power-on state — cell
    /// array, all three FIFOs, any in-flight or held operation, pending
    /// stall, and the parity flag. Unlike [`Command::Reset`] this does not
    /// travel through the command FIFO, so it works even when the FIFO is
    /// wedged. Cumulative stats survive (they are observation, not state).
    pub fn hard_reset(&mut self) {
        self.array.reset();
        self.header_fifo.clear();
        self.cmd_fifo.clear();
        self.result_fifo.clear();
        self.held = None;
        self.op = None;
        self.op_cycles_left = 0;
        self.stall_cycles = 0;
        self.parity_error = false;
        self.state = State::Match;
    }

    /// True when the unit has nothing to do: pipeline empty, no queued
    /// work, array fully compacted.
    pub fn idle(&self) -> bool {
        self.stall_cycles == 0
            && self.op.is_none()
            && self.held.is_none()
            && self.header_fifo.is_empty()
            && self.cmd_fifo.is_empty()
            && self.array.is_compact()
            && self.state == State::Match
    }

    /// Advance `n` cycles, bit-identically to calling [`Alpu::tick`] `n`
    /// times, but fast-forwarding analytically through stretches where
    /// per-cycle stepping cannot observe anything:
    ///
    /// * **Idle** (and externally *frozen* — result-FIFO backpressure or
    ///   insert mode with an empty command FIFO): nothing evolves, so the
    ///   remaining cycles are consumed in O(1).
    /// * **Op in flight over a compact array**: compaction is a no-op and
    ///   only the countdown decrements, so the pipeline jumps straight to
    ///   the op's completion cycle.
    ///
    /// Only while the array holds a migrating hole does this fall back to
    /// per-cycle stepping, because compaction moves data every clock.
    pub fn advance(&mut self, n: u64) {
        let mut left = n;
        while left > 0 {
            if self.stall_cycles > 0 {
                // An injected stall: each stalled tick only moves the
                // clock and the countdown, so the whole stretch collapses
                // into one jump.
                let jump = left.min(self.stall_cycles);
                self.stall_cycles -= jump;
                self.stats.cycles += jump;
                self.stats.stall_cycles += jump;
                left -= jump;
                continue;
            }
            if self.idle() {
                self.stats.cycles += left;
                return;
            }
            if !self.array.is_compact() {
                // A hole is migrating: compaction does real work each
                // clock, so this cycle must be stepped faithfully.
                self.tick();
                left -= 1;
                continue;
            }
            if self.op.is_some() {
                // Compact array: compact_step is a no-op and the only
                // per-cycle change is the countdown. Jump to completion.
                let jump = left.min(self.op_cycles_left);
                self.stats.cycles += jump;
                self.stats.busy_cycles += jump;
                self.op_cycles_left -= jump;
                left -= jump;
                if self.op_cycles_left == 0 {
                    let op = self.op.take().expect("counted down a live op");
                    self.complete(op);
                }
                continue;
            }
            if self.frozen() {
                // Nothing schedulable: the unit is stalled on external
                // flow control (result FIFO full, or insert mode waiting
                // on the processor). No internal transition can occur
                // until the environment acts, so the remaining cycles
                // only advance the clock.
                self.stats.cycles += left;
                return;
            }
            // Pipeline empty and something is eligible: one real tick
            // lets the scheduler start it.
            self.tick();
            left -= 1;
        }
    }

    /// True when, with the pipeline empty and the array compact, a tick
    /// would change nothing but the cycle counter: the scheduler (see
    /// [`Alpu::tick`]'s call to `schedule`) has no eligible work. This is
    /// exactly the per-state condition under which `schedule` starts no
    /// operation and performs no state transition.
    fn frozen(&self) -> bool {
        debug_assert!(self.op.is_none());
        let result_full = self.result_fifo.len() >= self.cfg.result_fifo_depth;
        match self.state {
            // Defensive: the ReadCommand arm of `schedule` flips back to
            // Match, which is a transition — never frozen.
            State::ReadCommand => false,
            State::Match => {
                self.cmd_fifo.is_empty() && (result_full || self.header_fifo.is_empty())
            }
            State::Insert => {
                self.cmd_fifo.is_empty()
                    && (result_full || (self.held.is_none() && self.header_fifo.is_empty()))
            }
        }
    }

    /// Run until idle (test/driver convenience); returns cycles consumed.
    pub fn run_to_idle(&mut self, max: u64) -> u64 {
        let mut n = 0;
        while !self.idle() && n < max {
            self.tick();
            n += 1;
        }
        assert!(self.idle(), "ALPU failed to go idle within {max} cycles");
        n
    }

    /// Advance exactly one clock cycle.
    pub fn tick(&mut self) {
        if self.stall_cycles > 0 {
            // Stalled: the clock advances, nothing else does.
            self.stall_cycles -= 1;
            self.stats.cycles += 1;
            self.stats.stall_cycles += 1;
            return;
        }
        self.stats.cycles += 1;
        // Compaction logic runs every cycle, concurrent with the pipeline.
        self.array.compact_step();

        // If the pipeline is free, choose the next operation; it consumes
        // this cycle as its first.
        if self.op.is_none() {
            self.schedule();
        }
        if self.op.is_some() {
            self.stats.busy_cycles += 1;
            self.op_cycles_left -= 1;
            if self.op_cycles_left == 0 {
                let op = self.op.take().expect("busy implies op");
                self.complete(op);
            }
        }
    }

    /// Pick the next operation according to the FSM state.
    fn schedule(&mut self) {
        match self.state {
            State::Match => {
                if !self.cmd_fifo.is_empty() {
                    self.state = State::ReadCommand;
                    self.start(Op::DecodeCommand, self.timing.command_cycles);
                } else if let Some(probe) = self.next_probe() {
                    self.start_match(probe, false);
                }
            }
            State::ReadCommand => {
                // Only reached if a decode was interrupted conceptually;
                // decode ops are started from Match, so nothing to do.
                self.state = State::Match;
            }
            State::Insert => {
                if let Some(&cmd) = self.cmd_fifo.front() {
                    match cmd {
                        Command::Insert(entry) => {
                            self.cmd_fifo.pop_front();
                            // Inserts are accepted every other cycle; the
                            // 2-cycle op models that initiation interval.
                            self.start(Op::Insert { entry }, self.timing.insert_interval);
                        }
                        Command::StopInsert => {
                            self.cmd_fifo.pop_front();
                            if let Some(probe) = self.held.take() {
                                // Final retry; a failure now is reportable.
                                self.start_match(probe, true);
                            }
                            self.state = State::Match;
                        }
                        Command::Reset => {
                            self.cmd_fifo.pop_front();
                            self.do_reset();
                        }
                        Command::StartInsert => {
                            // Already in insert mode; discard.
                            self.cmd_fifo.pop_front();
                        }
                    }
                } else if self.result_fifo.len() < self.cfg.result_fifo_depth {
                    // Between inserts, matching continues.
                    if let Some(probe) = self.held.take() {
                        self.start_match(probe, false);
                    } else if let Some(probe) = self.next_probe() {
                        self.start_match(probe, false);
                    }
                }
            }
        }
    }

    /// Take the next header to match, honoring result-FIFO flow control.
    fn next_probe(&mut self) -> Option<Probe> {
        if self.result_fifo.len() >= self.cfg.result_fifo_depth {
            return None; // stall: nowhere to put the result
        }
        self.header_fifo.pop_front()
    }

    fn start(&mut self, op: Op, cycles: u64) {
        debug_assert!(self.op.is_none());
        debug_assert!(cycles > 0);
        self.op = Some(op);
        self.op_cycles_left = cycles;
    }

    fn start_match(&mut self, probe: Probe, final_retry: bool) {
        self.stats.matches_attempted += 1;
        self.start(Op::Match { probe, final_retry }, self.timing.match_latency);
    }

    fn complete(&mut self, op: Op) {
        match op {
            Op::Match { probe, final_retry } => match self.array.match_probe(probe) {
                Some((loc, tag)) => {
                    self.array.delete_shift(loc);
                    self.stats.match_successes += 1;
                    self.push_result(Response::MatchSuccess { tag });
                }
                None => {
                    if self.state == State::Insert && !final_retry {
                        // Hold for retry: an in-flight insert may match it.
                        self.held = Some(probe);
                    } else {
                        self.stats.match_failures += 1;
                        self.push_result(Response::MatchFailure);
                    }
                }
            },
            Op::DecodeCommand => {
                let cmd = self.cmd_fifo.pop_front();
                self.state = State::Match;
                match cmd {
                    Some(Command::Reset) => self.do_reset(),
                    Some(Command::StartInsert) => {
                        self.push_result(Response::StartAck {
                            free: self.array.free() as u32,
                        });
                        self.state = State::Insert;
                    }
                    // "Other commands are discarded" (§III-C, footnote 3).
                    Some(Command::Insert(_)) | Some(Command::StopInsert) | None => {}
                }
            }
            Op::Insert { entry } => {
                if self.array.insert(entry) {
                    self.stats.inserts += 1;
                } else {
                    // Cell 0 not yet compacted away — retry next cycle.
                    // Flow control (the advertised free count) makes this
                    // transient.
                    self.start(Op::Insert { entry }, 1);
                }
            }
        }
    }

    fn do_reset(&mut self) {
        self.array.reset();
        if self.held.take().is_some() {
            // The entries a held probe was waiting for are gone; its
            // failure becomes reportable immediately.
            self.stats.match_failures += 1;
            self.push_result(Response::MatchFailure);
        }
        self.state = State::Match;
    }

    fn push_result(&mut self, r: Response) {
        self.result_fifo.push_back(r);
        self.stats.result_fifo_highwater =
            self.stats.result_fifo_highwater.max(self.result_fifo.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_types::MatchWord;

    fn small() -> Alpu {
        Alpu::new(AlpuConfig::new(16, 4, AlpuKind::PostedReceive))
    }

    fn recv(tagv: u16, cookie: Tag) -> Entry {
        Entry::mpi_recv(1, Some(0), Some(tagv), cookie)
    }

    fn hdr(tagv: u16) -> Probe {
        Probe::exact(MatchWord::mpi(1, 0, tagv))
    }

    /// Drive a full insert session: StartInsert, entries, StopInsert.
    fn load(a: &mut Alpu, entries: &[Entry]) {
        a.push_command(Command::StartInsert).unwrap();
        for &e in entries {
            a.push_command(Command::Insert(e)).unwrap();
        }
        a.push_command(Command::StopInsert).unwrap();
        a.run_to_idle(10_000);
        assert!(matches!(a.pop_response(), Some(Response::StartAck { .. })));
    }

    #[test]
    fn occupied_when_drained_counts_queued_and_in_flight_inserts() {
        let mut a = small();
        load(&mut a, &[recv(1, 1), recv(2, 2)]);
        a.push_command(Command::StartInsert).unwrap();
        a.push_command(Command::Insert(recv(3, 3))).unwrap();
        a.push_command(Command::Insert(recv(4, 4))).unwrap();
        a.push_command(Command::StopInsert).unwrap();
        // Step cycle by cycle: the count never moves while the session
        // drains, and ends equal to the array's occupancy.
        for _ in 0..10_000 {
            assert_eq!(a.occupied_when_drained(), 4);
            if a.idle() {
                break;
            }
            a.tick();
        }
        assert_eq!(a.occupied(), 4);
        // A queued RESET starts the count over.
        a.push_command(Command::Reset).unwrap();
        a.push_command(Command::StartInsert).unwrap();
        a.push_command(Command::Insert(recv(5, 5))).unwrap();
        assert_eq!(a.occupied_when_drained(), 1);
    }

    #[test]
    fn start_insert_acks_with_free_count() {
        let mut a = small();
        a.push_command(Command::StartInsert).unwrap();
        a.advance(2);
        assert!(matches!(
            a.pop_response(),
            Some(Response::StartAck { free: 16 })
        ));
        assert_eq!(a.state(), State::Insert);
    }

    #[test]
    fn match_on_empty_unit_fails() {
        let mut a = small();
        a.push_header(hdr(1)).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchFailure));
    }

    #[test]
    fn insert_then_match_succeeds_and_deletes() {
        let mut a = small();
        load(&mut a, &[recv(5, 1000)]);
        assert_eq!(a.occupied(), 1);
        a.push_header(hdr(5)).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 1000 }));
        assert_eq!(a.occupied(), 0);
        // Second identical header now fails.
        a.push_header(hdr(5)).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchFailure));
    }

    #[test]
    fn ordering_first_posted_wins() {
        let mut a = small();
        load(&mut a, &[recv(5, 1), recv(5, 2), recv(5, 3)]);
        for want in [1, 2, 3] {
            a.push_header(hdr(5)).unwrap();
            a.advance(20);
            assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: want }));
        }
    }

    #[test]
    fn match_latency_is_pipeline_cycles() {
        let mut a = small(); // 16 cells / 4-block = 4 blocks -> 6 cycles
        load(&mut a, &[recv(5, 1)]);
        a.push_header(hdr(5)).unwrap();
        // After 5 cycles: still in flight. After 6: done.
        a.advance(5);
        assert_eq!(a.pop_response(), None);
        a.advance(1);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 1 }));
    }

    #[test]
    fn back_to_back_matches_every_latency_cycles() {
        let mut a = small();
        load(&mut a, &[recv(1, 1), recv(2, 2), recv(3, 3)]);
        a.push_header(hdr(1)).unwrap();
        a.push_header(hdr(2)).unwrap();
        a.push_header(hdr(3)).unwrap();
        a.advance(18); // 3 matches x 6 cycles
        assert_eq!(a.responses_pending(), 3);
    }

    #[test]
    fn failure_held_during_insert_mode_until_stop() {
        let mut a = small();
        a.push_command(Command::StartInsert).unwrap();
        a.advance(4);
        assert!(matches!(a.pop_response(), Some(Response::StartAck { .. })));
        // A header that matches nothing arrives during insert mode.
        a.push_header(hdr(9)).unwrap();
        a.advance(40);
        assert_eq!(
            a.pop_response(),
            None,
            "MATCH FAILURE must not be reported during insert mode"
        );
        // Now insert the matching receive: the held probe retries and hits.
        a.push_command(Command::Insert(recv(9, 77))).unwrap();
        a.advance(40);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 77 }));
        a.push_command(Command::StopInsert).unwrap();
        a.advance(10);
        assert_eq!(a.state(), State::Match);
    }

    #[test]
    fn held_failure_reported_after_stop_insert() {
        let mut a = small();
        a.push_command(Command::StartInsert).unwrap();
        a.push_command(Command::Insert(recv(1, 1))).unwrap();
        a.advance(10);
        a.push_header(hdr(9)).unwrap(); // will not match
        a.advance(40);
        assert_eq!(a.pop_response(), Some(Response::StartAck { free: 16 }));
        assert_eq!(a.pop_response(), None, "failure held");
        a.push_command(Command::StopInsert).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchFailure));
    }

    #[test]
    fn held_probe_blocks_younger_headers() {
        // Ordering: header A (no match) held; header B (would match) must
        // not be processed before A's fate is settled; after an insert
        // satisfies A, B proceeds.
        let mut a = small();
        a.push_command(Command::StartInsert).unwrap();
        a.advance(4);
        a.pop_response(); // StartAck
        a.push_header(hdr(1)).unwrap(); // A: no match yet
        a.push_header(hdr(2)).unwrap(); // B
        a.advance(40);
        assert_eq!(a.pop_response(), None);
        // Insert receives for both; A must match first (tag 10), then B.
        a.push_command(Command::Insert(recv(1, 10))).unwrap();
        a.push_command(Command::Insert(recv(2, 20))).unwrap();
        a.push_command(Command::StopInsert).unwrap();
        a.advance(100);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 10 }));
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 20 }));
        assert_eq!(a.pop_response(), None);
    }

    #[test]
    fn insert_commands_discarded_outside_insert_mode() {
        let mut a = small();
        a.push_command(Command::Insert(recv(1, 1))).unwrap();
        a.push_command(Command::StopInsert).unwrap();
        a.advance(20);
        assert_eq!(a.occupied(), 0, "INSERT without START INSERT discarded");
        assert_eq!(a.pop_response(), None);
    }

    #[test]
    fn reset_clears_entries() {
        let mut a = small();
        load(&mut a, &[recv(1, 1), recv(2, 2)]);
        a.push_command(Command::Reset).unwrap();
        a.advance(10);
        assert_eq!(a.occupied(), 0);
        a.push_header(hdr(1)).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchFailure));
    }

    #[test]
    fn insert_rate_is_every_other_cycle() {
        let mut a = small();
        a.push_command(Command::StartInsert).unwrap();
        a.advance(2); // decode + ack
        for i in 0..8 {
            a.push_command(Command::Insert(recv(i, i as Tag))).unwrap();
        }
        // 8 inserts at 2 cycles each = 16 cycles (plus nothing else queued).
        a.advance(16);
        assert_eq!(a.occupied(), 8);
    }

    #[test]
    fn capacity_flow_control_free_count() {
        let mut a = Alpu::new(AlpuConfig::new(4, 4, AlpuKind::PostedReceive));
        load(&mut a, &[recv(1, 1), recv(2, 2), recv(3, 3)]);
        a.push_command(Command::StartInsert).unwrap();
        a.advance(4);
        assert_eq!(a.pop_response(), Some(Response::StartAck { free: 1 }));
        a.push_command(Command::Insert(recv(4, 4))).unwrap();
        a.push_command(Command::StopInsert).unwrap();
        a.advance(50);
        assert_eq!(a.occupied(), 4);
        assert_eq!(a.free(), 0);
    }

    #[test]
    fn result_fifo_flow_control_stalls_matching() {
        let mut cfg = AlpuConfig::new(16, 4, AlpuKind::PostedReceive);
        cfg.result_fifo_depth = 2;
        let mut a = Alpu::new(cfg);
        for _ in 0..4 {
            a.push_header(hdr(9)).unwrap();
        }
        a.advance(200);
        // Only 2 results fit; the other 2 headers wait.
        assert_eq!(a.responses_pending(), 2);
        assert_eq!(a.headers_pending(), 2);
        a.pop_response();
        a.pop_response();
        a.advance(200);
        assert_eq!(a.responses_pending(), 2);
    }

    #[test]
    fn header_fifo_overflow_reports_error() {
        let mut cfg = AlpuConfig::new(16, 4, AlpuKind::PostedReceive);
        cfg.header_fifo_depth = 2;
        let mut a = Alpu::new(cfg);
        a.push_header(hdr(1)).unwrap();
        a.push_header(hdr(2)).unwrap();
        assert_eq!(a.push_header(hdr(3)), Err(PushError));
    }

    #[test]
    fn unexpected_kind_end_to_end() {
        let mut a = Alpu::new(AlpuConfig::new(16, 4, AlpuKind::Unexpected));
        // Store arrived headers.
        a.push_command(Command::StartInsert).unwrap();
        a.push_command(Command::Insert(Entry::mpi_header(3, 7, 11, 500)))
            .unwrap();
        a.push_command(Command::StopInsert).unwrap();
        a.advance(50);
        a.pop_response(); // StartAck
                          // Probe with a wildcard-source receive.
        a.push_header(Probe::recv(3, None, Some(11))).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 500 }));
    }

    #[test]
    fn idle_fast_path_skips_cycles() {
        let mut a = small();
        a.advance(1_000_000);
        assert_eq!(a.stats().cycles, 1_000_000);
        assert_eq!(a.stats().busy_cycles, 0);
    }

    #[test]
    fn injected_stall_delays_match_completion() {
        let mut a = small();
        load(&mut a, &[recv(5, 1)]);
        a.inject_stall(10);
        a.push_header(hdr(5)).unwrap();
        // 10 stalled cycles + 6-cycle match: not done at 15, done at 16.
        a.advance(15);
        assert_eq!(a.pop_response(), None);
        a.advance(1);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 1 }));
        assert_eq!(a.stats().stall_cycles, 10);
    }

    #[test]
    fn stall_advance_matches_per_cycle_ticks() {
        let build = |a: &mut Alpu| {
            load(a, &[recv(1, 1), recv(2, 2)]);
            a.inject_stall(7);
            a.push_header(hdr(1)).unwrap();
            a.push_header(hdr(9)).unwrap();
            a.push_command(Command::StartInsert).unwrap();
        };
        let mut fast = small();
        let mut slow = small();
        build(&mut fast);
        build(&mut slow);
        fast.advance(100);
        for _ in 0..100 {
            slow.tick();
        }
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.state(), slow.state());
        assert_eq!(fast.responses_pending(), slow.responses_pending());
        assert_eq!(
            fast.array().entries_oldest_first(),
            slow.array().entries_oldest_first()
        );
    }

    #[test]
    fn bit_flip_latches_parity_and_breaks_matching() {
        let mut a = small();
        load(&mut a, &[recv(5, 1)]);
        assert!(!a.parity_error());
        assert!(a.inject_bit_flip(0, 3)); // flips a tag bit of the entry
        assert!(a.parity_error());
        a.push_header(hdr(5)).unwrap();
        a.advance(20);
        // The stored word no longer equals the header: a false miss.
        assert_eq!(a.pop_response(), Some(Response::MatchFailure));
    }

    #[test]
    fn bit_flip_on_empty_unit_is_a_no_op() {
        let mut a = small();
        assert!(!a.inject_bit_flip(7, 7));
        assert!(!a.parity_error());
    }

    #[test]
    fn hard_reset_restores_power_on_state() {
        let mut a = small();
        load(&mut a, &[recv(1, 1), recv(2, 2)]);
        a.inject_bit_flip(0, 0);
        a.inject_stall(1000);
        a.push_header(hdr(1)).unwrap();
        a.push_command(Command::StartInsert).unwrap();
        a.hard_reset();
        assert!(a.idle());
        assert!(!a.parity_error());
        assert_eq!(a.occupied(), 0);
        assert_eq!(a.headers_pending(), 0);
        assert_eq!(a.commands_pending(), 0);
        assert_eq!(a.responses_pending(), 0);
        assert_eq!(a.state(), State::Match);
        // The unit is usable again immediately.
        load(&mut a, &[recv(3, 3)]);
        a.push_header(hdr(3)).unwrap();
        a.advance(20);
        assert_eq!(a.pop_response(), Some(Response::MatchSuccess { tag: 3 }));
    }

    #[test]
    fn stats_track_operations() {
        let mut a = small();
        load(&mut a, &[recv(1, 1)]);
        a.push_header(hdr(1)).unwrap();
        a.push_header(hdr(2)).unwrap();
        a.advance(50);
        let s = a.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.match_successes, 1);
        assert_eq!(s.match_failures, 1);
        assert!(s.matches_attempted >= 2);
        assert!(s.busy_cycles > 0);
    }
}
