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

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "ablation_threshold",
        "§VI-B engagement heuristic: ALPU engage threshold sweep",
        flags("ablation_threshold"),
    );
    let spec = RunSpec::from_cli("ablation_threshold", &cli).unwrap_or_else(|e| {
        eprintln!("ablation_threshold: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("ablation_threshold: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
