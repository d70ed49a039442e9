//! Message-rate (gap) sweep: the §I motivation made measurable. Prints
//! receiver-side gap vs posted-queue depth for the three evaluation
//! configurations.
//!
//! ```text
//! cargo run -p mpiq-bench --bin gap -- [BURST]
//! ```

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "gap",
        "receiver-side gap vs posted-queue depth (positional: BURST size)",
    );
    report::run(&cli, &spec, |_| {});
}
