//! Regenerates Figure 5: message latency vs. posted-receive queue length
//! and fraction of the queue traversed, for the baseline NIC and the
//! 128-/256-entry ALPU NICs.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin fig5 -- [--config all|baseline|alpu128|alpu256]
//!     [--max-queue 500] [--step 25] [--fractions 0,0.25,0.5,0.75,1.0]
//!     [--sizes 0,1024,8192] [--plot] [--sweep-threads 0]
//!     [--out results/fig5.json]
//!     [--faults seed=N,drop=P[,dup=P,corrupt=P,flip=P,stall=P]]
//!     [--trace-out trace.json] [--metrics]
//! ```
//!
//! The flags assemble a [`RunSpec`] executed by [`mpiq_bench::exec`].
//!
//! `--trace-out PATH` re-runs one representative point (the deepest
//! queue, full traversal, smallest message) with structured tracing
//! enabled and writes a Chrome `chrome://tracing` JSON timeline to PATH.
//! `--metrics` dumps the latency histograms of that instrumented run to
//! stderr. Neither flag perturbs the CSV on stdout.

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{BenchSpec, RunResult, RunSpec};
use mpiq_bench::{report, NicVariant, PrepostedPoint};

fn main() {
    let (cli, spec) = RunSpec::parse("fig5", "Fig. 5: latency vs. posted-receive queue depth");
    let BenchSpec::Fig5 {
        configs: variants,
        max_queue,
        step,
        fractions,
        sizes,
    } = spec.bench.clone()
    else {
        unreachable!()
    };

    let points = variants.len() * sizes.len() * fractions.len() * (max_queue / step.max(1) + 1);
    eprintln!(
        "fig5: {} points across {} config(s), {} sweep thread(s)",
        points,
        variants.len(),
        if spec.sweep_threads == 0 {
            "auto".to_string()
        } else {
            spec.sweep_threads.to_string()
        },
    );

    report::run(&cli, &spec, |result| {
        present(&cli, result, &variants, max_queue, &sizes)
    });
}

/// The plot, trace and metrics outputs, none of which touch the CSV.
fn present(
    cli: &Cli,
    result: &RunResult,
    variants: &[NicVariant],
    max_queue: usize,
    sizes: &[u32],
) {
    if cli.has("plot") {
        let mut series = Vec::new();
        for (v, glyph) in variants.iter().zip(['B', 'a', 'A', 'x', 'y']) {
            series.push(mpiq_bench::ascii_plot::Series {
                label: v.label().to_string(),
                glyph,
                points: result
                    .rows
                    .iter()
                    .filter(|r| {
                        r.text("config") == Some(v.label())
                            && r.num("fraction") == Some(1.0)
                            && r.num("msg_size") == Some(sizes[0] as f64)
                    })
                    .map(|r| {
                        (
                            r.num("queue_len").unwrap_or(0.0),
                            r.num("latency_us").unwrap_or(0.0),
                        )
                    })
                    .collect(),
            });
        }
        eprintln!(
            "
Fig. 5 projection: latency vs posted-queue length (full traversal, {} B)
{}",
            sizes[0],
            mpiq_bench::ascii_plot::render(&series, 72, 20, "queue length", "latency (us)")
        );
    }

    // Prefer an ALPU variant so the timeline shows hardware events.
    let v = variants
        .iter()
        .copied()
        .find(|v| *v != NicVariant::Baseline)
        .unwrap_or(variants[0]);
    report::trace(cli, v.label(), || {
        let point = PrepostedPoint {
            queue_len: max_queue,
            fraction: 1.0,
            msg_size: sizes[0],
        };
        let mut cfg = v.config();
        if let Some(f) = cli.common.faults {
            cfg = cfg.with_faults(f);
        }
        mpiq_bench::traced_preposted(cfg, point, 1 << 20)
    });
}
