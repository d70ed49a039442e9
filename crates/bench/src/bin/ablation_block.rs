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

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "ablation_block",
        "ALPU block-size design space: area, clock, and match service time",
    );
    report::run(&cli, &spec, |_| {});
}
