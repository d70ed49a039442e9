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
use mpiq_bench::spec::{flags, BenchSpec, RunSpec};
use mpiq_bench::{exec, report, NicVariant, UnexpectedPoint};

fn main() {
    let cli = Cli::parse(
        "fig6",
        "Fig. 6: latency vs. unexpected-queue depth",
        flags("fig6"),
    );
    let spec = RunSpec::from_cli("fig6", &cli).unwrap_or_else(|e| {
        eprintln!("fig6: {e}");
        std::process::exit(2);
    });
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

    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("fig6: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");

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
                        r.text("config").as_deref() == Some(v.label())
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

    if cli.common.trace_out.is_some() || cli.common.metrics {
        let mut cfg = NicVariant::Alpu128.config();
        if let Some(f) = cli.common.faults {
            cfg = cfg.with_faults(f);
        }
        let run = mpiq_bench::traced_unexpected(
            cfg,
            UnexpectedPoint {
                queue_len: max_queue,
                msg_size: sizes[0],
            },
            1 << 20,
        );
        if run.dropped > 0 {
            eprintln!(
                "fig6: trace ring overflowed, {} records dropped",
                run.dropped
            );
        }
        if let Some(path) = &cli.common.trace_out {
            std::fs::write(path, &run.chrome_json).expect("write trace");
            eprintln!("fig6: wrote {} trace records to {path}", run.records);
        }
        if cli.common.metrics {
            eprintln!("{}", run.metrics_text);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
