//! Ablation: the §VI-B engagement heuristic.
//!
//! "It is entirely possible that the MPI library could be optimized to
//! not use the ALPU until the list is at least 5 entries long." This
//! harness implements exactly that knob (`AlpuSetup::engage_threshold`)
//! and sweeps it: with the threshold at 5, the zero-length penalty
//! disappears while the deep-queue win is retained.
//!
//! ```text
//! cargo run -p mpiq-bench --bin ablation_threshold
//! ```

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "ablation_threshold",
        "§VI-B engagement heuristic: ALPU engage threshold sweep",
    );
    report::run(&cli, &spec, |_| {});
}
