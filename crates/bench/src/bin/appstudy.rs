//! Application queue-characterization study (the methodology of refs
//! [8, 9], which motivate the paper): queue depths and traversal work for
//! four application communication patterns, per NIC configuration.
//!
//! ```text
//! cargo run -p mpiq-bench --bin appstudy
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "appstudy",
        "queue depths and traversal work for four application patterns",
        flags("appstudy"),
    );
    let spec = RunSpec::from_cli("appstudy", &cli).unwrap_or_else(|e| {
        eprintln!("appstudy: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("appstudy: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
