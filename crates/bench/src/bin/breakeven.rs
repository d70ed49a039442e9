//! The §VI-B break-even ablation: at what posted-queue length does the
//! ALPU overhead pay for itself? The paper reports a break-even of about
//! 5 entries and an ~80 ns zero-length penalty, suggesting "the MPI
//! library could be optimized to not use the ALPU until the list is at
//! least 5 entries long".
//!
//! ```text
//! cargo run -p mpiq-bench --bin breakeven -- [MAX_QUEUE]
//! ```

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "breakeven",
        "§VI-B break-even: queue length where the ALPU pays for itself (positional: MAX_QUEUE)",
    );
    report::run(&cli, &spec, |_| {});
}
