//! Scaling bench: engine throughput (simulated events per wall-clock
//! second) on a ≥16-rank incast soak — and the repo's tracked perf
//! trajectory.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin scaling -- [--senders 16] [--msgs 64]
//!     [--size 512] [--scenarios incast,alpu,hetero]
//!     [--out BENCH_scaling.json] [--check BENCH_scaling.json] [--tolerance 25]
//! ```
//!
//! Three scenarios:
//!
//! * `incast` — uniform 200 ns wires; this row tracks raw engine
//!   throughput.
//! * `alpu` — the same incast on NICs with 128-entry ALPUs (the soak's
//!   `--alpu`); this row puts the ALPU cycle model in the measured
//!   throughput.
//! * `hetero` — the same incast over 1 µs wires with one 10 ns edge
//!   (nodes 1↔2): a mix of short and long link latencies in one queue.
//!
//! Each scenario runs five times and its row reports the median wall
//! time; only `wall_ms` and `events_per_sec` vary from run to run. The
//! watchdog deadline grows with `--msgs` past the default 64.
//!
//! `--out PATH` writes the run's record (code version stamp, the
//! command line, one row per scenario). The repo tracks
//! `BENCH_scaling.json` at the root: regenerate it with `--out
//! BENCH_scaling.json` after perf-relevant changes. `--check PATH`
//! loads such a record and fails (exit 1)
//! when any current row's events/sec drops more than
//! `--tolerance` percent below the same scenario's row of the
//! baseline — CI runs both flags in one invocation.

use mpiq_bench::report::{self, Band};
use mpiq_bench::spec::{BenchSpec, RunSpec};

fn main() {
    let (cli, spec) = RunSpec::parse("scaling", "engine events/sec on the incast soak");
    let BenchSpec::Scaling {
        senders,
        msgs,
        size,
        ..
    } = spec.bench
    else {
        unreachable!()
    };
    eprintln!(
        "scaling: incast, {} ranks, {msgs} msgs x {size} B, seed {}",
        senders + 1,
        spec.seed.unwrap_or(1)
    );
    report::run(&cli, &spec, |result| {
        report::gate(
            &cli,
            &result.rows,
            &["scenario"],
            &[("events_per_sec", Band::Floor)],
            25.0,
        )
    });
}
