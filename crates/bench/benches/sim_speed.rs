//! Whole-stack simulator throughput: how long one experiment point takes
//! on the host. This is what bounds full Fig. 5 / Fig. 6 sweeps.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, MatchWord, Probe};
use mpiq_bench::{
    preposted_latency, unexpected_latency, NicVariant, PrepostedPoint, UnexpectedPoint,
};
use std::hint::black_box;

fn bench_preposted_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_preposted_point");
    g.sample_size(20);
    for (variant, q) in [
        (NicVariant::Baseline, 100usize),
        (NicVariant::Baseline, 400),
        (NicVariant::Alpu256, 400),
    ] {
        g.bench_with_input(
            BenchmarkId::new(variant.label(), q),
            &(variant, q),
            |b, &(v, q)| {
                b.iter(|| {
                    black_box(preposted_latency(
                        v,
                        PrepostedPoint {
                            queue_len: q,
                            fraction: 1.0,
                            msg_size: 0,
                        },
                    ))
                });
            },
        );
    }
    g.finish();
}

fn bench_unexpected_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_unexpected_point");
    g.sample_size(10);
    for (variant, u) in [(NicVariant::Baseline, 200usize), (NicVariant::Alpu128, 200)] {
        g.bench_with_input(
            BenchmarkId::new(variant.label(), u),
            &(variant, u),
            |b, &(v, u)| {
                b.iter(|| {
                    black_box(unexpected_latency(
                        v,
                        UnexpectedPoint {
                            queue_len: u,
                            msg_size: 64,
                        },
                    ))
                });
            },
        );
    }
    g.finish();
}

/// A half-full 256-cell posted-receive ALPU in steady state.
fn prefilled_alpu() -> Alpu {
    let mut alpu = Alpu::new(AlpuConfig::new(256, 8, AlpuKind::PostedReceive));
    alpu.push_command(Command::StartInsert).expect("fifo empty");
    alpu.advance(64);
    assert!(alpu.pop_response().is_some(), "StartAck");
    for tag in 0..128u16 {
        alpu.push_command(Command::Insert(Entry::mpi_recv(
            1,
            Some(0),
            Some(tag),
            tag as u32,
        )))
        .expect("command fifo drains between pushes");
        alpu.advance(8);
    }
    alpu.push_command(Command::StopInsert)
        .expect("fifo has room");
    alpu.advance(4096); // drain the session fully
    alpu
}

/// The sync-gap workload the two-speed core targets: sparse header
/// arrivals separated by quiescent stretches of `gap` ALPU cycles
/// (500 cycles = 1 us at 500 MHz). `advance` fast-forwards the gaps in
/// O(1); the `tick` variant is the per-cycle baseline it replaced.
fn bench_sync_gap(c: &mut Criterion) {
    const ARRIVALS: u64 = 64;
    let template = prefilled_alpu();
    let mut g = c.benchmark_group("sim_sync_gap");
    g.sample_size(20);
    g.throughput(Throughput::Elements(ARRIVALS));
    for gap in [500u64, 5_000, 50_000] {
        for (label, elide) in [("advance", true), ("tick", false)] {
            g.bench_with_input(
                BenchmarkId::new(label, gap),
                &(gap, elide),
                |b, &(gap, elide)| {
                    b.iter_batched(
                        || template.clone(),
                        |mut alpu| {
                            for i in 0..ARRIVALS {
                                // Tags above the resident range: every probe
                                // walks the full mux tree and misses, so
                                // occupancy stays at steady state.
                                let tag = 200 + (i % 32) as u16;
                                alpu.push_header(Probe::exact(MatchWord::mpi(1, 0, tag)))
                                    .expect("header fifo drained");
                                if elide {
                                    alpu.advance(gap);
                                } else {
                                    for _ in 0..gap {
                                        alpu.tick();
                                    }
                                }
                                while alpu.pop_response().is_some() {}
                            }
                            black_box(alpu.stats().cycles)
                        },
                        BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_preposted_point,
    bench_unexpected_point,
    bench_sync_gap
);
criterion_main!(benches);
