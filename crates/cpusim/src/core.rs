//! The scoreboard executor: a streaming cursor over one run of work.

use crate::config::CoreConfig;
use crate::trace::Uop;
use mpiq_dessim::Time;
use mpiq_memsim::{Access, MemSystem};
use std::collections::VecDeque;

/// Statistics from one [`Core::run`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Wall time the trace took.
    pub elapsed: Time,
}

/// A modeled processor core: configuration + its private memory system.
///
/// Work is charged one run at a time: [`Core::begin`] opens a [`Run`] at
/// a simulation time, the caller streams its ops into it, and
/// [`Run::end`] returns when the last of them finished. The model is a
/// greedy scoreboard:
///
/// * integer work is throughput-limited by effective issue width;
/// * *chained* loads (pointer chases) serialize program order on their
///   completion — this is what makes out-of-cache queue traversal cost the
///   full memory latency per entry;
/// * unchained loads and stores only occupy memory-port issue slots and
///   the in-flight window (out-of-order execution hides their latency);
/// * the in-flight window is capped at `ruu_size` memory operations — when
///   full, issue stalls until the oldest completes;
/// * uncached bus reads stall the core for the full bus round trip.
///
/// Each run starts with an empty pipeline: no pending chase, nothing in
/// flight. Cache and DRAM state persist across runs, so consecutive runs
/// see each other's warmth — exactly like firmware iterating its main loop.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    mem: MemSystem,
    /// Completion offsets of the open run's unchained loads, oldest
    /// first: the RUU window. Lives here so runs reuse its buffer;
    /// [`Core::begin`] empties it.
    in_flight: VecDeque<u64>,
}

impl Core {
    /// Build a core with a cold memory system.
    pub fn new(cfg: CoreConfig) -> Core {
        Core {
            mem: MemSystem::new(cfg.mem),
            in_flight: VecDeque::with_capacity(cfg.ruu_size as usize),
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The core's memory system (for statistics inspection).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Open a run at simulation time `now` with an empty pipeline.
    pub fn begin(&mut self, now: Time) -> Run<'_> {
        self.in_flight.clear();
        Run {
            core: self,
            now,
            t_issue: 0,
            chain_ready: 0,
        }
    }

    /// Execute `trace` as one run beginning at `now`.
    pub fn run(&mut self, trace: &[Uop], now: Time) -> RunStats {
        let run = trace.iter().fold(self.begin(now), |run, &op| match op {
            Uop::Int(n) => run.int(n),
            Uop::LoadChain(addr) => run.load_chain(addr),
        });
        RunStats {
            elapsed: run.end() - now,
        }
    }
}

/// One run of work on a [`Core`], fed op by op into its scoreboard:
/// `let end = core.begin(now).int(4).load_chain(entry).store(slot).end();`
#[must_use = "a run's cost is only known at `end`"]
pub struct Run<'c> {
    core: &'c mut Core,
    now: Time,
    /// Front-end program-order position, in ps after `now`.
    t_issue: u64,
    /// When the last serializing op (pointer chase, bus read) completes.
    chain_ready: u64,
}

impl Run<'_> {
    /// `n` integer/branch operations with no long-latency dependencies;
    /// throughput-limited by the core's effective integer width.
    pub fn int(mut self, n: u32) -> Self {
        let cycles = (n as u64).div_ceil(self.core.cfg.int_width() as u64);
        self.t_issue += cycles * self.period();
        self
    }

    /// An independent load: it occupies a memory port and the in-flight
    /// window, and out-of-order execution hides its latency.
    pub fn load(self, addr: u64) -> Self {
        self.read(addr, false)
    }

    /// A *pointer-chase* load: program order cannot issue past it until
    /// it completes (the next work needs the loaded value to even form an
    /// address).
    pub fn load_chain(self, addr: u64) -> Self {
        self.read(addr, true)
    }

    /// A store; retires through the write buffer, latency hidden.
    pub fn store(mut self, addr: u64) -> Self {
        let issue_at = self.window_slot(self.t_issue);
        let at = self.now + Time::from_ps(issue_at);
        self.core.mem.access(addr, Access::Write, at);
        self.t_issue = issue_at + self.mem_slot();
        self
    }

    /// A read over the NIC local bus (uncached, serializing): the core
    /// waits the full bus round trip for the data.
    pub fn bus_read(mut self) -> Self {
        let done = self.t_issue.max(self.chain_ready) + self.core.cfg.bus_latency.ps();
        self.chain_ready = done;
        self.t_issue = done;
        self
    }

    /// A posted write over the NIC local bus: one issue slot, the bus
    /// transaction completes asynchronously.
    pub fn bus_write(mut self) -> Self {
        self.t_issue += self.period();
        self
    }

    /// When the run began.
    pub fn start(&self) -> Time {
        self.now
    }

    /// Close the run: the absolute time its last op completed.
    pub fn end(self) -> Time {
        let drain = self.core.in_flight.iter().copied().max().unwrap_or(0);
        self.now + Time::from_ps(self.t_issue.max(self.chain_ready).max(drain))
    }

    fn read(mut self, addr: u64, chain: bool) -> Self {
        let issue_at = self.window_slot(self.t_issue.max(self.chain_ready));
        let at = self.now + Time::from_ps(issue_at);
        let done = issue_at + self.core.mem.access(addr, Access::Read, at).latency.ps();
        if chain {
            self.chain_ready = done;
        } else {
            self.core.in_flight.push_back(done);
        }
        self.t_issue = issue_at + self.mem_slot();
        self
    }

    /// Issue time of a memory op ready at `ready`: with the window full,
    /// not before its oldest op completes (which frees the slot).
    fn window_slot(&mut self, ready: u64) -> u64 {
        if self.core.in_flight.len() < self.core.cfg.ruu_size as usize {
            return ready;
        }
        let oldest = self.core.in_flight.pop_front().expect("window is full");
        ready.max(oldest)
    }

    fn period(&self) -> u64 {
        self.core.cfg.clock.period().ps()
    }

    fn mem_slot(&self) -> u64 {
        self.period().div_ceil(self.core.cfg.mem_ports as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn nic_core() -> Core {
        Core::new(CoreConfig::nic_ppc440())
    }

    /// The canonical per-entry queue-traversal work, as one run: one
    /// pointer-chase load of the entry line plus the compare/branch
    /// integer work. Returns the elapsed time.
    fn traverse(c: &mut Core, entries: u64, base: u64, stride: u64, now: Time) -> Time {
        let run = (0..entries).fold(c.begin(now), |run, i| {
            run.load_chain(base + i * stride).int(12)
        });
        run.end() - now
    }

    /// L1 misses `f` causes on `c`.
    fn l1_misses(c: &mut Core, f: impl FnOnce(&mut Core) -> Time) -> (Time, u64) {
        let before = c.mem().l1().misses();
        let elapsed = f(c);
        (elapsed, c.mem().l1().misses() - before)
    }

    #[test]
    fn int_throughput_is_width_limited() {
        let mut c = nic_core();
        // 24 int ops at width 2 = 12 cycles = 24 ns.
        let s = c.run(&TraceBuilder::new().int(24).build(), Time::ZERO);
        assert_eq!(s.elapsed, Time::from_ns(24));
        let now = Time::from_us(1);
        assert_eq!(c.begin(now).int(24).end(), now + Time::from_ns(24));
    }

    #[test]
    fn cached_traversal_is_about_15ns_per_entry() {
        let mut c = nic_core();
        // Warm the cache with the same 100 entries (64 B apart = fits L1).
        traverse(&mut c, 100, 0x1000, 64, Time::ZERO);
        let (elapsed, misses) =
            l1_misses(&mut c, |c| traverse(c, 100, 0x1000, 64, Time::from_us(10)));
        assert_eq!(misses, 0, "warm run must not miss");
        let per_entry = elapsed.ps() as f64 / 100.0 / 1000.0;
        assert!(
            (13.0..=17.0).contains(&per_entry),
            "cached traversal {per_entry} ns/entry, want ~15"
        );
    }

    #[test]
    fn uncached_traversal_is_about_64ns_per_entry() {
        let mut c = nic_core();
        // 1024 entries at one per 64B line = 64 KB: double the L1, so a
        // repeated sweep misses every line (LRU streaming pathology).
        traverse(&mut c, 1024, 0x10_0000, 64, Time::ZERO);
        let (elapsed, misses) = l1_misses(&mut c, |c| {
            traverse(c, 1024, 0x10_0000, 64, Time::from_ms(1))
        });
        assert!(misses > 1000, "expected streaming misses, got {misses}");
        let per_entry = elapsed.ps() as f64 / 1024.0 / 1000.0;
        assert!(
            (58.0..=70.0).contains(&per_entry),
            "uncached traversal {per_entry} ns/entry, want ~64"
        );
    }

    #[test]
    fn unchained_loads_overlap() {
        let mut c = nic_core();
        // 16 independent loads to distinct uncached lines: they pipeline,
        // so total time is far below 16 * 60 ns.
        let end = (0..16u64)
            .fold(c.begin(Time::ZERO), |run, i| run.load(0x20_0000 + i * 4096))
            .end();
        assert!(
            end < Time::from_ns(16 * 60 / 2),
            "independent misses failed to overlap: {end}"
        );
    }

    #[test]
    fn chained_loads_serialize() {
        let mut c = nic_core();
        let mut b = TraceBuilder::new();
        for i in 0..16u64 {
            b = b.load_chain(0x20_0000 + i * 4096);
        }
        let s = c.run(&b.build(), Time::ZERO);
        assert!(
            s.elapsed >= Time::from_ns(16 * 58),
            "chained misses must serialize: {}",
            s.elapsed
        );
    }

    #[test]
    fn ruu_cap_limits_overlap() {
        // With RUU 16, 64 independent missing loads can only have 16 in
        // flight; elapsed must exceed 4 batches of ~memory latency issued
        // back-to-back but be far under full serialization.
        let mut c = nic_core();
        let end = (0..64u64)
            .fold(c.begin(Time::ZERO), |run, i| run.load(0x40_0000 + i * 4096))
            .end();
        assert!(end > Time::from_ns(3 * 60));
        assert!(end < Time::from_ns(64 * 60));
    }

    #[test]
    fn each_run_starts_with_an_empty_window() {
        let mut c = nic_core();
        // Set 1: the misses below all land in set 0.
        let hot = 0x1040;
        let t = c.begin(Time::ZERO).load(hot).end();
        // 64 independent misses leave the 16-entry window full.
        let t = (0..64u64)
            .fold(c.begin(t), |run, i| run.load(0x40_0000 + i * 4096))
            .end();
        // A fresh run's hit must not wait on the last run's misses: it
        // costs exactly the L1 hit latency (2 cycles at 500 MHz).
        assert_eq!(c.begin(t).load(hot).end() - t, Time::from_ns(4));
    }

    #[test]
    fn bus_read_stalls_for_full_round_trip() {
        let mut c = nic_core();
        let end = c.begin(Time::ZERO).bus_read().bus_read().end();
        assert_eq!(end, Time::from_ns(40));
    }

    #[test]
    fn bus_write_is_posted() {
        let mut c = nic_core();
        let end = c
            .begin(Time::ZERO)
            .bus_write()
            .bus_write()
            .bus_write()
            .end();
        assert!(end <= Time::from_ns(6), "posted writes: {end}");
    }

    #[test]
    fn host_core_is_faster_than_nic_core() {
        let mut nic = nic_core();
        let mut host = Core::new(CoreConfig::host_opteron());
        traverse(&mut nic, 64, 0x1000, 64, Time::ZERO);
        traverse(&mut host, 64, 0x1000, 64, Time::ZERO);
        let sn = traverse(&mut nic, 64, 0x1000, 64, Time::from_us(50));
        let sh = traverse(&mut host, 64, 0x1000, 64, Time::from_us(50));
        assert!(sh.ps() * 3 < sn.ps(), "host {sh} vs nic {sn}");
    }

    #[test]
    fn stores_do_not_stall() {
        let mut c = nic_core();
        let end = (0..32u64)
            .fold(c.begin(Time::ZERO), |run, i| {
                run.store(0x50_0000 + i * 4096)
            })
            .end();
        // One mem slot each: 32 cycles = 64 ns (plus nothing else).
        assert_eq!(end, Time::from_ns(64));
    }
}
