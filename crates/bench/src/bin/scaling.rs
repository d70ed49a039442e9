//! Scaling bench: engine throughput (simulated events per wall-clock
//! second) on a ≥16-rank incast soak — and the repo's tracked perf
//! trajectory.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin scaling -- [--senders 16] [--msgs 64]
//!     [--size 512] [--scenarios incast,hetero]
//!     [--out BENCH_scaling.json] [--check BENCH_scaling.json] [--tolerance 25]
//! ```
//!
//! Two wire profiles:
//!
//! * `incast` — uniform 200 ns wires; this row tracks raw engine
//!   throughput.
//! * `hetero` — the same incast over 1 µs wires with one 10 ns edge
//!   (nodes 1↔2): a mix of short and long link latencies in one queue.
//!
//! Each scenario runs five times and its row reports the median wall
//! time; only `wall_ms` and `events_per_sec` vary from run to run. The
//! watchdog deadline grows with `--msgs` past the default 64.
//!
//! `--out PATH` writes the full document (code version stamp, config,
//! one row per run). The repo tracks `BENCH_scaling.json` at the root:
//! regenerate it with `--out BENCH_scaling.json` after perf-relevant
//! changes. `--check PATH` loads such a document and fails (exit 1)
//! when any current row's events/sec drops more than
//! `--tolerance` percent below the same scenario's row of the
//! baseline — CI runs both flags in one invocation.

use mpiq_bench::cli::Cli;
use mpiq_bench::exec;
use mpiq_bench::report::{self, Band};
use mpiq_bench::spec::{flags, BenchSpec, RunSpec};
use std::path::Path;

fn main() {
    let cli = Cli::parse(
        "scaling",
        "engine events/sec on the incast soak",
        flags("scaling"),
    );
    let spec = RunSpec::from_cli("scaling", &cli).unwrap_or_else(|e| {
        eprintln!("scaling: {e}");
        std::process::exit(2);
    });
    let BenchSpec::Scaling {
        senders,
        msgs,
        size,
        ..
    } = spec.bench.clone()
    else {
        unreachable!()
    };
    let seed = spec.seed.unwrap_or(1);

    eprintln!(
        "scaling: incast, {} ranks, {} msgs x {} B, seed {seed}",
        senders + 1,
        msgs,
        size
    );

    // `--out` writes the tracked record, not plain rows, so it is
    // handled here instead of in `emit`.
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("scaling: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, None).expect("stdout");

    if let Some(path) = &cli.common.out {
        let config = [
            ("senders", senders.to_string()),
            ("msgs", msgs.to_string()),
            ("size", size.to_string()),
            ("seed", seed.to_string()),
        ];
        report::write_record(Path::new(path), "scaling", &config, &result.rows)
            .expect("write json");
        eprintln!("scaling: wrote {path}");
    }
    report::gate(
        &cli,
        &result.rows,
        &["scenario"],
        &[("events_per_sec", Band::Floor)],
        25.0,
    );
    if !ok {
        std::process::exit(1);
    }
}
