//! Message-rate (gap) sweep: the §I motivation made measurable. Prints
//! receiver-side gap vs posted-queue depth for the three evaluation
//! configurations.
//!
//! ```text
//! cargo run -p mpiq-bench --bin gap -- [BURST]
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "gap",
        "receiver-side gap vs posted-queue depth (positional: BURST size)",
        flags("gap"),
    );
    let spec = RunSpec::from_cli("gap", &cli).unwrap_or_else(|e| {
        eprintln!("gap: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("gap: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
