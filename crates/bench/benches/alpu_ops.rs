//! Microbenchmarks of the ALPU models themselves: how fast the cycle
//! model and the golden reference process matches and inserts. These
//! measure *simulator* performance (host wall-clock), which bounds how
//! large a parameter sweep the experiment harnesses can afford.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpiq_alpu::{Alpu, AlpuConfig, AlpuKind, Command, Entry, GoldenList, MatchWord, Probe};
use std::hint::black_box;

fn fill_engine(cells: usize, block: usize) -> Alpu {
    let mut a = Alpu::new(AlpuConfig::new(cells, block, AlpuKind::PostedReceive));
    a.push_command(Command::StartInsert).unwrap();
    a.advance(4);
    a.pop_response();
    for i in 0..cells as u32 {
        a.push_command(Command::Insert(Entry::mpi_recv(
            1,
            Some((i % 512) as u16),
            Some((i % 1024) as u16),
            i,
        )))
        .unwrap();
        a.advance(2);
    }
    a.push_command(Command::StopInsert).unwrap();
    a.run_to_idle(100_000);
    a
}

fn bench_engine_match(c: &mut Criterion) {
    let mut g = c.benchmark_group("alpu_engine_match");
    for (cells, block) in [(128usize, 16usize), (256, 16), (256, 32)] {
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(
            BenchmarkId::new("probe_miss", format!("{cells}c{block}b")),
            &(cells, block),
            |b, &(cells, block)| {
                let template = fill_engine(cells, block);
                // A probe that matches nothing exercises the full array
                // every time without mutating it.
                let probe = Probe::exact(MatchWord::mpi(2, 0, 0));
                b.iter_batched_ref(
                    || template.clone(),
                    |a| {
                        a.push_header(black_box(probe)).unwrap();
                        a.run_to_idle(1_000);
                        black_box(a.pop_response())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

fn bench_golden_match(c: &mut Criterion) {
    let mut g = c.benchmark_group("alpu_golden_match");
    for cells in [128usize, 256] {
        let mut golden = GoldenList::new(cells, AlpuKind::PostedReceive);
        for i in 0..cells as u32 {
            golden.insert(Entry::mpi_recv(
                1,
                Some((i % 512) as u16),
                Some((i % 1024) as u16),
                i,
            ));
        }
        let probe = Probe::exact(MatchWord::mpi(2, 0, 0));
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(
            BenchmarkId::new("probe_miss", cells),
            &golden,
            |b, golden| {
                b.iter(|| black_box(golden.peek(black_box(probe))));
            },
        );
    }
    g.finish();
}

fn bench_insert_session(c: &mut Criterion) {
    let mut g = c.benchmark_group("alpu_insert_session");
    for cells in [128usize, 256] {
        g.throughput(Throughput::Elements(cells as u64));
        g.bench_with_input(BenchmarkId::new("fill", cells), &cells, |b, &cells| {
            b.iter(|| black_box(fill_engine(cells, 16).occupied()));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_engine_match,
    bench_golden_match,
    bench_insert_session
);
criterion_main!(benches);
