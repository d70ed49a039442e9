//! Substrate microbenchmarks: the DES kernel, the cache model, and the
//! processor timing model. These are the hot inner loops of every
//! experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpiq_cpusim::{Core, CoreConfig, TraceBuilder};
use mpiq_dessim::prelude::*;
use mpiq_memsim::{Access, MemSystem, MemSystemConfig};
use std::hint::black_box;

fn bench_event_kernel(c: &mut Criterion) {
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

    let mut g = c.benchmark_group("dessim_events");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("two_component_bounce", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(0);
            let a = sim.add_component("a", Bouncer { left: n / 2 });
            let z = sim.add_component("z", Bouncer { left: n / 2 });
            sim.connect(a, OutPort(0), z, InPort(0), Time::from_ns(5));
            sim.connect(z, OutPort(0), a, InPort(0), Time::from_ns(5));
            sim.post(a, InPort(0), Payload::new(()), Time::ZERO);
            black_box(sim.run())
        });
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("memsim_access");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    for (label, stride) in [("hit_heavy", 0u64), ("miss_heavy", 4096)] {
        g.bench_with_input(BenchmarkId::new("nic_l1", label), &stride, |b, &stride| {
            b.iter_batched_ref(
                || MemSystem::new(MemSystemConfig::nic()),
                |m| {
                    let mut total = 0u64;
                    for i in 0..n {
                        let addr = if stride == 0 { 0x1000 } else { i * stride };
                        total += m.access(addr, Access::Read, Time::from_ns(i)).latency.ps();
                    }
                    black_box(total)
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_core_traversal(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpusim_traversal");
    let entries = 400u64;
    g.throughput(Throughput::Elements(entries));
    g.bench_function("list_walk_400", |b| {
        let mut tb = TraceBuilder::new();
        for i in 0..entries {
            tb = tb.load_chain(0x10_0000 + i * 80).int(12);
        }
        let trace = tb.build();
        b.iter_batched_ref(
            || Core::new(CoreConfig::nic_ppc440()),
            |core| black_box(core.run(&trace, Time::ZERO)),
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_kernel,
    bench_cache,
    bench_core_traversal
);
criterion_main!(benches);
