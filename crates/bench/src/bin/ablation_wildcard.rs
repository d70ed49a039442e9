//! The §II wildcard-workaround study: `MPI_ANY_SOURCE` vs "post a receive
//! from every possible source and then cancel those receives that are
//! unused" — quantifying why the paper calls the workaround "an
//! inefficient use of processing and memory resources", and what cancels
//! do to DELETE-less ALPU hardware.
//!
//! ```text
//! cargo run -p mpiq-bench --bin ablation_wildcard
//! ```

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "ablation_wildcard",
        "MPI_ANY_SOURCE vs the post-all-and-cancel workaround (§II)",
    );
    report::run(&cli, &spec, |_| {});
}
