//! The §VI-B break-even ablation: at what posted-queue length does the
//! ALPU overhead pay for itself? The paper reports a break-even of about
//! 5 entries and an ~80 ns zero-length penalty, suggesting "the MPI
//! library could be optimized to not use the ALPU until the list is at
//! least 5 entries long".
//!
//! ```text
//! cargo run -p mpiq-bench --bin breakeven -- [MAX_QUEUE]
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "breakeven",
        "§VI-B break-even: queue length where the ALPU pays for itself (positional: MAX_QUEUE)",
        flags("breakeven"),
    );
    let spec = RunSpec::from_cli("breakeven", &cli).unwrap_or_else(|e| {
        eprintln!("breakeven: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("breakeven: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
