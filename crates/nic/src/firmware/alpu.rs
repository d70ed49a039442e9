//! One ALPU unit and its whole lifecycle under the §IV management rules.
//!
//! Both matching queues use the same unit design, so every rule is
//! written once here and applied to either queue: the engage threshold
//! (§VI-B), batched insert sessions and the probe/insert race (§IV-B/C),
//! §IV-D response retrieval, and the fault-recovery cycle (quarantine,
//! software fallback, re-engagement after a cooldown). The only
//! per-queue input is how a queue entry becomes an ALPU [`Entry`]: the
//! `entry_of` closure of [`AlpuPort::insert_session`].
//!
//! The port owns the unit's hardware state; the software queue it
//! shadows stays with the firmware, which passes it in where a rule
//! needs it.

use super::{cost, FwStats};
use crate::config::{AlpuSetup, NicConfig};
use crate::queues::{Key, NicQueue};
use mpiq_alpu::{
    Alpu, AlpuConfig, AlpuKind, Command, Entry, MaskWord, MatchWord, Probe, Response, Tag,
};
use mpiq_cpusim::Core;
use mpiq_dessim::trace::QueueKind;
use mpiq_dessim::{Clock, FaultPlan, Time};
use mpiq_net::NodeId;
use std::collections::VecDeque;

/// The unit stopped responding within the firmware's wait budget: its
/// command FIFO never drained, or a response never surfaced. The caller
/// must quarantine the unit instead of hanging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlpuWedged;

/// What the firmware learned from the §IV-D read of one probe's response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum HwRead {
    /// MATCH SUCCESS: the key of the matched queue entry.
    Hit(Key),
    /// MATCH FAILURE: search the not-yet-inserted tail in software.
    Miss,
    /// The status word carried the parity alarm: stored match bits were
    /// corrupted, so no response from this unit can be trusted.
    Poisoned,
    /// No response: the unit stalled past the wait budget, or a
    /// quarantine wiped it after this header was probed.
    Wedged,
}

/// An ALPU plus its clock-domain bookkeeping, response stashes, setup,
/// quarantine clock and lifecycle counters.
pub struct AlpuPort {
    alpu: Alpu,
    clock: Clock,
    synced_to: Time,
    /// StartAcks popped while looking for a match response.
    stash_start_ack: VecDeque<u32>,
    /// Match responses popped while looking for a StartAck.
    stash_match: VecDeque<Response>,
    /// Fault injector for this unit (bit flips on probe delivery, command
    /// stalls on command delivery). `None` = healthy hardware, no RNG
    /// draws at all.
    faults: Option<FaultPlan>,
    /// Capacity, engage threshold and insert batch size.
    setup: AlpuSetup,
    /// `Some(t)` = quarantined: offline until an update item at/after `t`
    /// re-engages it. While quarantined every header takes the software
    /// path.
    quarantined_until: Option<Time>,
    /// Probes delivered to the unit whose responses the firmware has not
    /// yet consumed. On a quarantine these become orphans.
    probes_in_flight: u64,
    /// Probed headers whose responses a quarantine wiped. Work items
    /// consume these (oldest first, matching the work FIFO) and fall back
    /// to software instead of popping. Only posted-unit probes outlive
    /// their work item, so the unexpected unit never has orphans.
    pub(super) orphans: u64,
    /// Live tombstones in the unit (see `RecvEntry::ghost`); the posted
    /// unit only.
    pub(super) ghosts: usize,
    /// Cycles spent spinning on a full command FIFO.
    overflow_spins: u64,
    /// Insert sessions that moved entries in.
    insert_sessions: u64,
    /// Quarantines (hard resets).
    resets: u64,
    /// Returns to service after a quarantine cooldown.
    reengagements: u64,
    /// Quarantines that found the parity alarm latched.
    parity_errors: u64,
}

impl AlpuPort {
    /// How many unit cycles the firmware will wait on the hardware before
    /// declaring it wedged ([`AlpuWedged`]). 4096 cycles ≈ 8.2 µs at
    /// 500 MHz: an order of magnitude above any legitimate wait in this
    /// model (worst observed: one insert batch draining, < 1 µs), and
    /// *below* the top of the injected stall range
    /// ([`mpiq_dessim::fault::STALL_MAX_CYCLES`] = 8192), so long stalls
    /// are detected rather than silently absorbed.
    const SPIN_BUDGET: u64 = 4096;

    /// Cooldown before a quarantined unit is trusted again. Long enough
    /// that a persistently stalled unit isn't thrashed in and out of
    /// service; short relative to any benchmark so degradation stays
    /// graceful, not permanent.
    const QUARANTINE_COOLDOWN: Time = Time::from_us(10);

    /// The unit shadowing `unit`'s queue on `node`. Each unit gets its own
    /// fault stream: site 0 is the fabric, so node n's posted unit is
    /// site 2n+1 and its unexpected unit 2n+2.
    pub(super) fn new(
        unit: QueueKind,
        setup: AlpuSetup,
        cfg: &NicConfig,
        node: NodeId,
    ) -> AlpuPort {
        let (kind, lane) = match unit {
            QueueKind::Posted => (AlpuKind::PostedReceive, 0),
            QueueKind::Unexpected => (AlpuKind::Unexpected, 1),
        };
        let faults = cfg
            .faults
            .alpu_active()
            .then(|| FaultPlan::new(cfg.faults, 1 + 2 * node as u64 + lane));
        AlpuPort {
            alpu: Alpu::new(AlpuConfig::new(setup.total_cells, setup.block_size, kind)),
            clock: Clock::from_mhz(cfg.alpu_mhz),
            synced_to: Time::ZERO,
            stash_start_ack: VecDeque::new(),
            stash_match: VecDeque::new(),
            faults,
            setup,
            quarantined_until: None,
            probes_in_flight: 0,
            orphans: 0,
            ghosts: 0,
            overflow_spins: 0,
            insert_sessions: 0,
            resets: 0,
            reengagements: 0,
            parity_errors: 0,
        }
    }

    /// Read-only access for assertions and diagnostics.
    pub fn alpu(&self) -> &Alpu {
        &self.alpu
    }

    /// Is the unit out of service (quarantined or retired)?
    pub(super) fn quarantined(&self) -> bool {
        self.quarantined_until.is_some()
    }

    /// Freeze the unit's pipeline for `cycles` from its last synced clock
    /// edge: a scripted stall outside the fault plan (test hook).
    pub fn inject_stall(&mut self, cycles: u64) {
        self.alpu.inject_stall(cycles);
    }

    /// Advance the unit's clock domain up to `now`.
    pub fn sync(&mut self, now: Time) {
        if now <= self.synced_to {
            return;
        }
        let cycles = self.clock.cycles_in(now - self.synced_to);
        self.alpu.advance(cycles);
        self.synced_to += self.clock.cycles(cycles);
    }

    /// Push a header probe (hardware copy path) at time `now`. The fault
    /// plan may flip a stored match bit first (a particle strike between
    /// probes); the unit's parity checker latches the error for the
    /// firmware to discover when it reads the response.
    pub fn push_probe(&mut self, probe: Probe, now: Time) -> Result<(), AlpuWedged> {
        self.sync(now);
        if let Some(plan) = &mut self.faults {
            if let Some(flip) = plan.roll_flip() {
                self.alpu.inject_bit_flip(flip.cell_sel, flip.bit);
            }
        }
        // The probe FIFO (`AlpuConfig::header_fifo_depth`) is deep
        // enough in practice; on overflow the hardware would backpressure
        // the copy path. Spin the unit forward until space frees —
        // bounded: a unit that can't drain its FIFO within
        // the budget drops the probe and is declared wedged. Ticks land
        // on the unit's own clock edges, so time advances from the last
        // synced cycle boundary — never from the (possibly mid-cycle)
        // `now`.
        let mut spins = 0u64;
        while self.alpu.push_header(probe).is_err() {
            if spins >= Self::SPIN_BUDGET {
                return Err(AlpuWedged);
            }
            spins += 1;
            self.tick();
        }
        self.probes_in_flight += 1;
        Ok(())
    }

    /// Advance the unit one cycle from its last synced clock edge.
    fn tick(&mut self) {
        self.alpu.tick();
        self.synced_to += self.clock.period();
    }

    /// Bounded pop of the next *match* response at/after `now`; returns
    /// the response and the time it was available. StartAcks encountered
    /// on the way are stashed. [`AlpuWedged`] once the spin budget is
    /// exhausted (e.g. the unit is sitting out an injected stall).
    fn pop_match_response(&mut self, now: Time) -> Result<(Response, Time), AlpuWedged> {
        if let Some(r) = self.stash_match.pop_front() {
            return Ok((r, now));
        }
        self.sync(now);
        let mut spins = 0u64;
        loop {
            match self.alpu.pop_response() {
                Some(Response::StartAck { free }) => self.stash_start_ack.push_back(free),
                // A response found without spinning was ready at `now`;
                // one found by spinning becomes visible at the clock edge.
                Some(r) => return Ok((r, self.synced_to.max(now))),
                None if spins >= Self::SPIN_BUDGET => return Err(AlpuWedged),
                None => {
                    spins += 1;
                    self.tick();
                }
            }
        }
    }

    /// Bounded pop of a StartAck at/after `now`. Match responses
    /// encountered on the way are stashed for their owners.
    fn pop_start_ack(&mut self, now: Time) -> Result<(u32, Time), AlpuWedged> {
        if let Some(free) = self.stash_start_ack.pop_front() {
            return Ok((free, now));
        }
        self.sync(now);
        let mut spins = 0u64;
        loop {
            match self.alpu.pop_response() {
                Some(Response::StartAck { free }) => return Ok((free, self.synced_to.max(now))),
                Some(r) => self.stash_match.push_back(r),
                None if spins >= Self::SPIN_BUDGET => return Err(AlpuWedged),
                None => {
                    spins += 1;
                    self.tick();
                }
            }
        }
    }

    /// Is the unit safe to open an insert session against? (§IV-C race:
    /// a failure computed before the inserts must not be paired with the
    /// post-insert tail.)
    pub(super) fn probe_quiescent(&mut self, now: Time) -> bool {
        self.sync(now);
        self.stash_match.is_empty() && self.alpu.probe_quiescent()
    }

    /// Push a command, spinning the unit forward if its FIFO is full —
    /// bounded and counted. Returns when the write landed: `now` if the
    /// FIFO had room, else the clock edge that freed a slot. The fault
    /// plan may stall the unit's command pipeline first. [`AlpuWedged`]
    /// surfaces a unit that never frees a slot within the budget.
    pub(super) fn push_command(&mut self, cmd: Command, now: Time) -> Result<Time, AlpuWedged> {
        self.sync(now);
        if let Some(plan) = &mut self.faults {
            if let Some(cycles) = plan.roll_stall() {
                self.alpu.inject_stall(cycles);
            }
        }
        let mut spins = 0u64;
        while self.alpu.push_command(cmd).is_err() {
            if spins >= Self::SPIN_BUDGET {
                self.overflow_spins += spins;
                return Err(AlpuWedged);
            }
            spins += 1;
            self.tick();
        }
        self.overflow_spins += spins;
        Ok(self.synced_to.max(now))
    }

    /// Is the unit worth probing for `queue`? Always, at the default
    /// `engage_threshold` of 0; with a nonzero threshold this is the §VI-B
    /// optimization ("not use the ALPU until the list is at least 5
    /// entries long"): headers bypass the unit while it holds nothing and
    /// the queue is short, eliminating the interaction penalty. Never
    /// while quarantined.
    pub(super) fn engaged<T>(&self, queue: &NicQueue<T>) -> bool {
        !self.quarantined()
            && (queue.alpu_prefix() > 0 || queue.len() >= self.setup.engage_threshold)
    }

    /// Would an insert session have work: in service, past the engage
    /// threshold, and a tail to move in?
    pub(super) fn session_due<T>(&self, queue: &NicQueue<T>) -> bool {
        !self.quarantined() && queue.len() >= self.setup.engage_threshold && queue.tail_len() > 0
    }

    /// Tombstones the hardware can never reclaim on its own (cancelled
    /// receives that nothing will match) eventually poison the unit:
    /// Table I has no DELETE command. Past a quarter of the capacity,
    /// firmware pays for a RESET + full rebuild.
    pub(super) fn purge_needed(&self) -> bool {
        self.ghosts > self.setup.total_cells / 4
    }

    /// Does the unit need an update item? To re-engage once its cooldown
    /// has expired, to purge tombstones, or for an insert session. §IV-B:
    /// "the software ... should attempt to conglomerate insertions" —
    /// while the NIC has other work pending (`idle == false`), wait for at
    /// least `insert_batch_min` stragglers; an idle NIC flushes any tail.
    pub(super) fn wants_update<T>(&self, queue: &NicQueue<T>, idle: bool, now: Time) -> bool {
        self.quarantined_until.is_some_and(|q| now >= q)
            || self.purge_needed()
            || (self.session_due(queue)
                && self.alpu.free() > 0
                && (idle || queue.tail_len() >= self.setup.insert_batch_min))
    }

    /// Take the unit out of service: RESET-pin wipe (pushing a command
    /// into a wedged FIFO is exactly what doesn't work), orphan the
    /// in-flight probes, forget the tombstones (they lived only in the
    /// hardware), and start the cooldown clock. The caller drops the
    /// queue's ALPU marks: the software queue is the source of truth, so
    /// matching continues degraded but correct.
    pub(super) fn quarantine(&mut self, now: Time) {
        if self.alpu.parity_error() {
            self.parity_errors += 1;
        }
        self.orphans += self.probes_in_flight;
        self.probes_in_flight = 0;
        self.alpu.hard_reset();
        self.stash_start_ack.clear();
        self.stash_match.clear();
        self.ghosts = 0;
        self.quarantined_until = Some(now + Self::QUARANTINE_COOLDOWN);
        self.resets += 1;
    }

    /// Scheduled permanent death: pin the (already started) quarantine so
    /// the unit is never re-engaged.
    pub(super) fn retire(&mut self) {
        self.quarantined_until = Some(Time::MAX);
    }

    /// Lift a quarantine whose cooldown has expired by `now`; returns
    /// whether it did. The RESET already emptied the unit, so the insert
    /// session that follows refills it and probes flow again.
    pub(super) fn reengage(&mut self, now: Time) -> bool {
        let due = self.quarantined_until.is_some_and(|q| now >= q);
        if due {
            self.quarantined_until = None;
            self.reengagements += 1;
        }
        due
    }

    /// §IV-D response retrieval for the oldest outstanding probe, starting
    /// at `now`: wait for the response the hardware computed for the
    /// header (one per header, in order), then "first retrieve the copy of
    /// the data provided to it and then retrieve the response" — four
    /// uncached local-bus reads (header copy, then status+tag). Returns
    /// the time after the reads. A [`HwRead::Wedged`] probe is answered
    /// by the caller's fallback, so it no longer counts as in flight.
    pub(super) fn read_response(&mut self, now: Time, core: &mut Core) -> (Time, HwRead) {
        let Ok((resp, t)) = self.pop_match_response(now) else {
            self.probes_in_flight -= 1;
            return (now, HwRead::Wedged);
        };
        self.probes_in_flight -= 1;
        let t = core
            .begin(t)
            .bus_read()
            .bus_read()
            .bus_read()
            .bus_read()
            .int(cost::RESPONSE_DECODE)
            .end();
        let read = match resp {
            _ if self.alpu.parity_error() => HwRead::Poisoned,
            Response::MatchSuccess { tag } => HwRead::Hit(tag as Key),
            Response::MatchFailure => HwRead::Miss,
            Response::StartAck { .. } => unreachable!("stashed by pop_match_response"),
        };
        (t, read)
    }

    /// §IV-C insert session: move up to the unit's free count of `queue`'s
    /// tail into the unit, batched between START INSERT and STOP INSERT.
    /// `entry_of` gives a queue entry's match and mask words. Returns the
    /// end time, the entries moved in, and whether a hardware interaction
    /// blew its wait budget — the session then aborts at once and the
    /// caller must quarantine the unit, which also unmarks the batch.
    pub(super) fn insert_session<T>(
        &mut self,
        queue: &mut NicQueue<T>,
        now: Time,
        core: &mut Core,
        entry_of: impl Fn(&T) -> (MatchWord, MaskWord),
    ) -> (Time, usize, bool) {
        let tail = queue.tail_len();
        let (end, wedged) = match self.session(queue, now, core, entry_of) {
            Ok(t) => (t, false),
            Err(t) => (t, true),
        };
        (end, tail - queue.tail_len(), wedged)
    }

    /// The session proper; `Err(t)`: the unit wedged under the
    /// interaction that started at `t`.
    fn session<T>(
        &mut self,
        queue: &mut NicQueue<T>,
        now: Time,
        core: &mut Core,
        entry_of: impl Fn(&T) -> (MatchWord, MaskWord),
    ) -> Result<Time, Time> {
        // §IV-C: never insert across an in-flight probe — a MATCH FAILURE
        // computed before these inserts must pair with the pre-insert
        // tail. Defer the session; the NIC re-schedules an update once the
        // pending probe work drains.
        if !self.probe_quiescent(now) {
            return Ok(core.begin(now).int(cost::SESSION_DEFER).end());
        }
        let mut t = core.begin(now).int(cost::ALPU_COMMAND).bus_write().end();
        t = self
            .push_command(Command::StartInsert, t)
            .map_err(|AlpuWedged| t)?;
        let (free, t_ack) = self.pop_start_ack(t).map_err(|AlpuWedged| t)?;
        t = core.begin(t_ack).bus_read().end();
        // Abort if a probe slipped in while we waited for the ack:
        // nothing has been inserted yet, so a just-computed failure still
        // pairs with the current tail. Retry the session later.
        let abort = !self.stash_match.is_empty()
            || self.alpu.responses_pending() > 0
            || self.alpu.headers_pending() > 0
            || free == 0;
        if !abort {
            self.insert_sessions += 1;
            let batch: Vec<(u64, Entry)> = queue
                .take_for_alpu(free as usize)
                .into_iter()
                .map(|(key, addr, e)| {
                    let (word, mask) = entry_of(e);
                    (
                        addr,
                        Entry {
                            word,
                            mask,
                            tag: key as Tag,
                        },
                    )
                })
                .collect();
            for (addr, entry) in batch {
                // Read the entry, then two posted bus writes per insert
                // (match+mask words, tag).
                t = core
                    .begin(t)
                    .load(addr)
                    .int(cost::INSERT_ENTRY)
                    .bus_write()
                    .bus_write()
                    .end();
                t = self
                    .push_command(Command::Insert(entry), t)
                    .map_err(|AlpuWedged| t)?;
            }
        }
        t = self
            .push_command(Command::StopInsert, t)
            .map_err(|AlpuWedged| t)?;
        Ok(core.begin(t).bus_write().end())
    }

    /// The shadowing invariant against the queue's ALPU-resident prefix:
    /// once the accepted commands drain, the unit holds exactly the
    /// prefix (a run can end mid-session, with inserts still queued). A
    /// quarantined unit is empty.
    pub(super) fn check_shadow(&self, prefix: usize) {
        assert_eq!(
            self.alpu.occupied_when_drained(),
            prefix,
            "unit vs shadow prefix"
        );
        if self.quarantined() {
            assert_eq!(self.alpu.occupied(), 0, "a quarantined unit is empty");
        }
    }

    /// Fold the unit's lifecycle counters into firmware statistics.
    pub(super) fn add_counters(&self, s: &mut FwStats) {
        s.alpu_overflow_spins += self.overflow_spins;
        s.insert_sessions += self.insert_sessions;
        s.alpu_resets += self.resets;
        s.alpu_reengagements += self.reengagements;
        s.alpu_parity_errors += self.parity_errors;
    }
}
