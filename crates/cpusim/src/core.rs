//! The trace-to-time scoreboard executor.

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
    /// Uops executed.
    pub uops: u64,
    /// Loads that hit the L1.
    pub l1_load_hits: u64,
    /// Loads that missed the L1.
    pub l1_load_misses: u64,
}

/// A modeled processor core: configuration + its private memory system.
///
/// `run` executes a uop trace starting at a given simulation time and
/// returns how long it took. The model is a greedy scoreboard:
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
/// Cache and DRAM state persist across `run` calls, so consecutive traces
/// see each other's warmth — exactly like firmware iterating its main loop.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    mem: MemSystem,
}

impl Core {
    /// Build a core with a cold memory system.
    pub fn new(cfg: CoreConfig) -> Core {
        Core {
            mem: MemSystem::new(cfg.mem),
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

    /// Mutable access to the memory system (flushing between phases).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Execute `trace` beginning at simulation time `now`; returns timing
    /// and cache statistics for this run.
    pub fn run(&mut self, trace: &[Uop], now: Time) -> RunStats {
        let period = self.cfg.clock.period().ps();
        let int_width = self.cfg.int_width() as u64;
        let mem_slot = period.div_ceil(self.cfg.mem_ports as u64);
        let ruu = self.cfg.ruu_size as usize;

        // All times below are picosecond offsets from `now`.
        let mut t_issue: u64 = 0; // front-end program-order position
        let mut chain_ready: u64 = 0; // last pointer-chase load completion
        let mut in_flight: VecDeque<u64> = VecDeque::new();
        let mut stats = RunStats::default();

        for &op in trace {
            stats.uops += 1;
            match op {
                Uop::Int(n) => {
                    let cycles = (n as u64).div_ceil(int_width);
                    t_issue += cycles * period;
                }
                Uop::Load { addr, chain } => {
                    let mut issue_at = t_issue.max(chain_ready);
                    if in_flight.len() >= ruu {
                        let oldest = in_flight.pop_front().expect("nonempty");
                        issue_at = issue_at.max(oldest);
                    }
                    let out = self
                        .mem
                        .access(addr, Access::Read, now + Time::from_ps(issue_at));
                    if out.l1_hit {
                        stats.l1_load_hits += 1;
                    } else {
                        stats.l1_load_misses += 1;
                    }
                    let done = issue_at + out.latency.ps();
                    if chain {
                        chain_ready = done;
                    } else {
                        in_flight.push_back(done);
                    }
                    t_issue = issue_at + mem_slot;
                }
                Uop::Store { addr } => {
                    let mut issue_at = t_issue;
                    if in_flight.len() >= ruu {
                        let oldest = in_flight.pop_front().expect("nonempty");
                        issue_at = issue_at.max(oldest);
                    }
                    // Update cache/DRAM state; store latency is hidden by
                    // the write buffer.
                    self.mem
                        .access(addr, Access::Write, now + Time::from_ps(issue_at));
                    t_issue = issue_at + mem_slot;
                }
                Uop::BusRead => {
                    let issue_at = t_issue.max(chain_ready);
                    let done = issue_at + self.cfg.bus_latency.ps();
                    chain_ready = done;
                    t_issue = done;
                }
                Uop::BusWrite => {
                    // Posted: one issue slot; transaction drains async.
                    t_issue += period;
                }
                Uop::Delay(d) => {
                    t_issue = t_issue.max(chain_ready) + d.ps();
                }
            }
        }

        let drain = in_flight.into_iter().max().unwrap_or(0);
        let end = t_issue.max(chain_ready).max(drain);
        stats.elapsed = Time::from_ps(end);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn nic_core() -> Core {
        Core::new(CoreConfig::nic_ppc440())
    }

    /// The canonical per-entry queue-traversal work: one pointer-chase load
    /// of the entry line plus the compare/branch integer work.
    fn traversal_trace(entries: u64, base: u64, stride: u64) -> Vec<Uop> {
        let mut b = TraceBuilder::new();
        for i in 0..entries {
            b = b.load_chain(base + i * stride).int(12);
        }
        b.build()
    }

    #[test]
    fn int_throughput_is_width_limited() {
        let mut c = nic_core();
        // 24 int ops at width 2 = 12 cycles = 24 ns.
        let s = c.run(&TraceBuilder::new().int(24).build(), Time::ZERO);
        assert_eq!(s.elapsed, Time::from_ns(24));
    }

    #[test]
    fn cached_traversal_is_about_15ns_per_entry() {
        let mut c = nic_core();
        // Warm the cache with the same 100 entries (64 B apart = fits L1).
        let warm = traversal_trace(100, 0x1000, 64);
        c.run(&warm, Time::ZERO);
        let s = c.run(&warm, Time::from_us(10));
        assert_eq!(s.l1_load_misses, 0, "warm run must not miss");
        let per_entry = s.elapsed.ps() as f64 / 100.0 / 1000.0;
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
        let sweep = traversal_trace(1024, 0x10_0000, 64);
        c.run(&sweep, Time::ZERO);
        let s = c.run(&sweep, Time::from_ms(1));
        assert!(
            s.l1_load_misses > 1000,
            "expected streaming misses, got {}",
            s.l1_load_misses
        );
        let per_entry = s.elapsed.ps() as f64 / 1024.0 / 1000.0;
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
        let mut b = TraceBuilder::new();
        for i in 0..16u64 {
            b = b.load(0x20_0000 + i * 4096);
        }
        let s = c.run(&b.build(), Time::ZERO);
        assert!(
            s.elapsed < Time::from_ns(16 * 60 / 2),
            "independent misses failed to overlap: {}",
            s.elapsed
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
        let mut b = TraceBuilder::new();
        for i in 0..64u64 {
            b = b.load(0x40_0000 + i * 4096);
        }
        let s = c.run(&b.build(), Time::ZERO);
        assert!(s.elapsed > Time::from_ns(3 * 60));
        assert!(s.elapsed < Time::from_ns(64 * 60));
    }

    #[test]
    fn bus_read_stalls_for_full_round_trip() {
        let mut c = nic_core();
        let s = c.run(
            &TraceBuilder::new().bus_read().bus_read().build(),
            Time::ZERO,
        );
        assert_eq!(s.elapsed, Time::from_ns(40));
    }

    #[test]
    fn bus_write_is_posted() {
        let mut c = nic_core();
        let s = c.run(
            &TraceBuilder::new()
                .bus_write()
                .bus_write()
                .bus_write()
                .build(),
            Time::ZERO,
        );
        assert!(
            s.elapsed <= Time::from_ns(6),
            "posted writes: {}",
            s.elapsed
        );
    }

    #[test]
    fn delay_adds_fixed_stall() {
        let mut c = nic_core();
        let s = c.run(
            &TraceBuilder::new().delay(Time::from_ns(123)).build(),
            Time::ZERO,
        );
        assert_eq!(s.elapsed, Time::from_ns(123));
    }

    #[test]
    fn host_core_is_faster_than_nic_core() {
        let trace = traversal_trace(64, 0x1000, 64);
        let mut nic = nic_core();
        let mut host = Core::new(CoreConfig::host_opteron());
        nic.run(&trace, Time::ZERO);
        host.run(&trace, Time::ZERO);
        let sn = nic.run(&trace, Time::from_us(50));
        let sh = host.run(&trace, Time::from_us(50));
        assert!(
            sh.elapsed.ps() * 3 < sn.elapsed.ps(),
            "host {} vs nic {}",
            sh.elapsed,
            sn.elapsed
        );
    }

    #[test]
    fn stores_do_not_stall() {
        let mut c = nic_core();
        let mut b = TraceBuilder::new();
        for i in 0..32u64 {
            b = b.store(0x50_0000 + i * 4096);
        }
        let s = c.run(&b.build(), Time::ZERO);
        // One mem slot each: 32 cycles = 64 ns (plus nothing else).
        assert_eq!(s.elapsed, Time::from_ns(64));
    }
}
