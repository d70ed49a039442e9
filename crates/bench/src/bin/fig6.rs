//! Regenerates Figure 6: message latency (including receive-posting time)
//! vs. unexpected-queue length for the three NIC configurations.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin fig6 -- [--max-queue 400] [--step 20]
//!     [--sizes 64,1024] [--plot] [--sweep-threads 0]
//!     [--out results/fig6.json]
//!     [--faults seed=N,drop=P[,dup=P,corrupt=P,flip=P,stall=P]]
//!     [--trace-out trace.json] [--metrics]
//! ```
//!
//! The flags assemble a [`RunSpec`] executed by [`mpiq_bench::exec`].
//!
//! `--trace-out PATH` runs one instrumented exchange (alpu128, deepest
//! queue) and writes a Chrome `chrome://tracing` timeline to PATH;
//! `--metrics` dumps its latency histograms to stderr. The CSV on
//! stdout is unaffected by either flag.

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{BenchSpec, RunResult, RunSpec};
use mpiq_bench::{report, NicVariant, UnexpectedPoint};

fn main() {
    let (cli, spec) = RunSpec::parse("fig6", "Fig. 6: latency vs. unexpected-queue depth");
    let BenchSpec::Fig6 {
        max_queue,
        step,
        sizes,
    } = spec.bench.clone()
    else {
        unreachable!()
    };

    let points = NicVariant::ALL.len() * sizes.len() * (max_queue / step.max(1) + 1);
    eprintln!("fig6: {points} points");

    report::run(&cli, &spec, |result| {
        present(&cli, result, max_queue, &sizes)
    });
}

/// The plot, trace and metrics outputs, none of which touch the CSV.
fn present(cli: &Cli, result: &RunResult, max_queue: usize, sizes: &[u32]) {
    if cli.has("plot") {
        let mut series = Vec::new();
        for (v, glyph) in NicVariant::ALL.iter().zip(['B', 'a', 'A']) {
            series.push(mpiq_bench::ascii_plot::Series {
                label: v.label().to_string(),
                glyph,
                points: result
                    .rows
                    .iter()
                    .filter(|r| {
                        r.text("config") == Some(v.label())
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
Fig. 6: latency vs unexpected-queue length ({} B messages)
{}",
            sizes[0],
            mpiq_bench::ascii_plot::render(
                &series,
                72,
                20,
                "unexpected queue length",
                "latency (us)"
            )
        );
    }

    let v = NicVariant::Alpu128;
    report::trace(cli, v.label(), || {
        let point = UnexpectedPoint {
            queue_len: max_queue,
            msg_size: sizes[0],
        };
        let mut cfg = v.config();
        if let Some(f) = cli.common.faults {
            cfg = cfg.with_faults(f);
        }
        mpiq_bench::traced_unexpected(cfg, point, 1 << 20)
    });
}
