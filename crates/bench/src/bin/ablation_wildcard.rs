//! The §II wildcard-workaround study: `MPI_ANY_SOURCE` vs "post a receive
//! from every possible source and then cancel those receives that are
//! unused" — quantifying why the paper calls the workaround "an
//! inefficient use of processing and memory resources", and what cancels
//! do to DELETE-less ALPU hardware.
//!
//! ```text
//! cargo run -p mpiq-bench --bin ablation_wildcard
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "ablation_wildcard",
        "MPI_ANY_SOURCE vs the post-all-and-cancel workaround (§II)",
        flags("ablation_wildcard"),
    );
    let spec = RunSpec::from_cli("ablation_wildcard", &cli).unwrap_or_else(|e| {
        eprintln!("ablation_wildcard: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("ablation_wildcard: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
