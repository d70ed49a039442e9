//! Application queue-characterization study (the methodology of refs
//! [8, 9], which motivate the paper): queue depths and traversal work for
//! four application communication patterns, per NIC configuration.
//!
//! ```text
//! cargo run -p mpiq-bench --bin appstudy
//! ```

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "appstudy",
        "queue depths and traversal work for four application patterns",
    );
    report::run(&cli, &spec, |_| {});
}
