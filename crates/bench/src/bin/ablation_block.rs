//! Ablation: ALPU block-size design space (§III-B / §V-D).
//!
//! Block size trades area and clock against pipeline depth: bigger blocks
//! mean fewer inter-block tree levels (6-cycle pipelines) but deeper
//! intra-block muxing (slower clock) and wider space-available scans
//! (more LUTs). This harness combines the FPGA estimator with the
//! pipeline model to report the *effective match service time* for every
//! geometry, on the FPGA and with the paper's conservative 5x ASIC
//! projection.
//!
//! ```text
//! cargo run -p mpiq-bench --bin ablation_block
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "ablation_block",
        "ALPU block-size design space: area, clock, and match service time",
        flags("ablation_block"),
    );
    let spec = RunSpec::from_cli("ablation_block", &cli).unwrap_or_else(|e| {
        eprintln!("ablation_block: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("ablation_block: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
