//! `cargo bench` entry that regenerates every paper artifact in reduced
//! form and asserts the headline *shapes* (who wins, where crossovers
//! fall), then reports the key numbers through Criterion so regressions
//! in the modeled latencies show up as benchmark changes.
//!
//! Full-resolution regeneration lives in the binaries:
//! `fig5`, `fig6`, `table4`, `table5`, `breakeven`.

use criterion::{criterion_group, criterion_main, Criterion};
use mpiq_bench::{
    preposted_latency, unexpected_latency, NicVariant, PrepostedPoint, UnexpectedPoint,
};
use mpiq_fpga::{estimate, paper_table, Variant};

fn artifact_tables(_c: &mut Criterion) {
    // Tables IV & V: every configuration within tolerance of the paper.
    for variant in [Variant::PostedReceive, Variant::Unexpected] {
        for row in paper_table(variant) {
            let e = estimate(variant, row.total_cells, row.block_size);
            let lut_err = (e.luts as f64 - row.luts as f64).abs() / row.luts as f64;
            let ff_err = (e.ffs as f64 - row.ffs as f64).abs() / row.ffs as f64;
            assert!(lut_err < 0.01 && ff_err < 0.01, "table mismatch: {row:?}");
            assert_eq!(e.latency, row.latency);
        }
    }
    eprintln!("tables IV/V: all 12 configurations within 1% of published LUT/FF counts");
}

fn artifact_fig5_shape(_c: &mut Criterion) {
    let lat = |v: NicVariant, q: usize| {
        preposted_latency(
            v,
            PrepostedPoint {
                queue_len: q,
                fraction: 1.0,
                msg_size: 0,
            },
        )
        .latency
    };
    let b0 = lat(NicVariant::Baseline, 0);
    let b300 = lat(NicVariant::Baseline, 300);
    let a0 = lat(NicVariant::Alpu256, 0);
    let a250 = lat(NicVariant::Alpu256, 250); // within the 256-cell capacity
    let a300 = lat(NicVariant::Alpu256, 300); // past capacity: tail search
    assert!(b300 > b0, "baseline must grow with queue length");
    assert!(
        a250.saturating_sub(a0) < mpiq_dessim::Time::from_ns(200),
        "ALPU-256 must stay flat within its capacity"
    );
    assert!(a300 * 2 < b300, "ALPU must win decisively at depth 300");
    eprintln!(
        "fig5 shape: baseline {} -> {}, alpu256 {} -> {} -> {} (queue 0 -> 250 -> 300)",
        b0, b300, a0, a250, a300
    );
}

fn artifact_fig6_shape(_c: &mut Criterion) {
    let lat = |v: NicVariant, u: usize| {
        unexpected_latency(
            v,
            UnexpectedPoint {
                queue_len: u,
                msg_size: 64,
            },
        )
        .latency
    };
    let b20 = lat(NicVariant::Baseline, 20);
    let a20 = lat(NicVariant::Alpu128, 20);
    let b250 = lat(NicVariant::Baseline, 250);
    let a250 = lat(NicVariant::Alpu128, 250);
    // Short queues: no advantage (within the flight-time window).
    assert!(a20.saturating_sub(b20) < mpiq_dessim::Time::from_us(1));
    // Long queues: clear advantage.
    assert!(a250 + mpiq_dessim::Time::from_us(1) < b250);
    eprintln!(
        "fig6 shape: at 20 entries baseline {} vs alpu {}, at 250 entries {} vs {}",
        b20, a20, b250, a250
    );
}

criterion_group!(
    artifacts,
    artifact_tables,
    artifact_fig5_shape,
    artifact_fig6_shape
);
criterion_main!(artifacts);
