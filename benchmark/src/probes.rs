//! Layer probes: each times one layer's public functions in isolation,
//! with inputs sized from the workloads (512 NICs and switches as in
//! collectives-512, 200- and 600-entry queue walks either side of the
//! modelled 32 KB L1 as in the sweeps, full 128/256-cell ALPUs). Each
//! probe repeats its measurement and reports the median.

use crate::sys::median;
use crate::trace::Tracer;
use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe};
use mpiq_cpusim::{Core, CoreConfig, TraceBuilder};
use mpiq_dessim::prelude::*;
use mpiq_memsim::{Access, MemSystem, MemSystemConfig};
use mpiq_net::Topology;
use mpiq_nic::{Nic, NicConfig};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`'s wall seconds divided by the units
/// of work it reports, scaled by `scale` (1e9 for ns, 1e3 for ms, ...).
fn per_unit(scale: f64, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let units = f();
            start.elapsed().as_secs_f64() * scale / units as f64
        })
        .collect();
    median(&samples)
}

/// Every probe, as `(metric name, value, unit)` in report order.
pub fn run_all(t: &mut Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = Vec::new();
    let mut probe = |t: &mut Tracer, name: &'static str, f: &mut dyn FnMut() -> f64| {
        let (v, _) = t.span(name, 0, |_| f());
        let unit = if name.ends_with("_ms") {
            "ms"
        } else if name.ends_with("_us") {
            "us"
        } else {
            "ns"
        };
        out.push((name, v, unit));
    };
    probe(t, "dessim.probe_ns_per_event", &mut || {
        per_unit(1e9, bounce)
    });
    probe(t, "net.plan_ms", &mut || {
        per_unit(1e3, || {
            black_box(Topology::Hub.plan(512));
            black_box(Topology::FatTree { down: 16, up: 8 }.plan(512));
            1
        })
    });
    probe(t, "nic.new_us", &mut || {
        per_unit(1e6, || {
            let nics: Vec<Nic> = (0..512)
                .map(|n| Nic::new(n, NicConfig::baseline()))
                .collect();
            black_box(nics).len() as u64
        })
    });
    probe(t, "alpu.probe_ns_128", &mut || alpu_probe_miss(128));
    probe(t, "alpu.probe_ns_256", &mut || alpu_probe_miss(256));
    probe(t, "alpu.insert_ns", &mut || {
        per_unit(1e9, || black_box(filled_alpu(256)).occupied() as u64)
    });
    probe(t, "alpu.idle_advance_ns", &mut || {
        let mut a = Alpu::new(AlpuConfig::new(256, 16, AlpuKind::PostedReceive));
        per_unit(1e9, || {
            for _ in 0..1000 {
                a.advance(black_box(50_000));
            }
            1000
        })
    });
    probe(t, "cpusim.walk_ns_per_entry_cached", &mut || list_walk(200));
    probe(t, "cpusim.walk_ns_per_entry_spilled", &mut || {
        list_walk(600)
    });
    probe(t, "memsim.access_ns_hit", &mut || mem_access(|_| 0x1000));
    probe(t, "memsim.access_ns_miss", &mut || {
        mem_access(|i| 0x10_0000 + (i * 80) % (1 << 20))
    });
    out
}

/// Two components bouncing one event between them; returns events run.
fn bounce() -> u64 {
    struct Bouncer {
        left: u64,
    }
    impl Component for Bouncer {
        fn on_event(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.emit(OutPort(0), Payload::new(()));
            }
        }
    }
    let mut sim = Simulation::new(0);
    let a = sim.add_component("a", Bouncer { left: 100_000 });
    let z = sim.add_component("z", Bouncer { left: 100_000 });
    sim.connect(a, OutPort(0), z, InPort(0), Time::from_ns(5));
    sim.connect(z, OutPort(0), a, InPort(0), Time::from_ns(5));
    sim.post(a, InPort(0), Payload::new(()), Time::ZERO);
    sim.run()
}

/// An ALPU filled to capacity in one insert session.
fn filled_alpu(cells: usize) -> Alpu {
    let mut a = Alpu::new(AlpuConfig::new(cells, 16, AlpuKind::PostedReceive));
    a.push_command(Command::StartInsert)
        .expect("empty command FIFO");
    a.advance(4);
    a.pop_response();
    for i in 0..cells as u32 {
        let e = Entry::mpi_recv(1, Some((i % 512) as u16), Some((i % 1024) as u16), i);
        a.push_command(Command::Insert(e))
            .expect("command FIFO drains every 2 cycles");
        a.advance(2);
    }
    a.push_command(Command::StopInsert)
        .expect("command FIFO has room");
    a.run_to_idle(100_000);
    a
}

/// Nanoseconds per probe that misses every cell of a full unit.
fn alpu_probe_miss(cells: usize) -> f64 {
    let mut a = filled_alpu(cells);
    let probe = Probe::exact(MatchWord::mpi(2, 0, 0));
    per_unit(1e9, || {
        for _ in 0..1000 {
            a.push_header(black_box(probe))
                .expect("header FIFO drained");
            a.run_to_idle(1_000);
            black_box(a.pop_response());
        }
        1000
    })
}

/// Nanoseconds per entry of a warm `entries`-long chained-load walk (80 B
/// per entry, as the firmware lays queue entries out).
fn list_walk(entries: u64) -> f64 {
    let mut tb = TraceBuilder::new();
    for i in 0..entries {
        tb = tb.load_chain(0x10_0000 + i * 80).int(12);
    }
    let trace = tb.build();
    let mut core = Core::new(CoreConfig::nic_ppc440());
    let mut now = core.run(&trace, Time::ZERO).elapsed;
    per_unit(1e9, || {
        for _ in 0..50 {
            now += core.run(black_box(&trace), now).elapsed;
        }
        50 * entries
    })
}

/// Nanoseconds per NIC memory access to `addr(i)`: one hot line, or
/// 80 B queue entries streamed over 1 MiB, which miss the L1 every time.
fn mem_access(addr: fn(u64) -> u64) -> f64 {
    let mut m = MemSystem::new(MemSystemConfig::nic());
    let mut i = 0u64;
    per_unit(1e9, || {
        for _ in 0..100_000 {
            black_box(m.access(addr(i), Access::Read, Time::from_ns(i)));
            i += 1;
        }
        100_000
    })
}
