//! Ablation: linear list vs hash-binned matching vs ALPU (§II).
//!
//! The paper rejects hash tables because insertion cost is "prohibitive
//! ... especially noticeable in the zero-length ping-pong latency test"
//! and because wildcards complicate everything. This harness quantifies
//! all three effects with a post-in-loop ping-pong:
//!
//! 1. exact-depth sweep — where hashing helps;
//! 2. zero-depth row — where hashing hurts (insert overhead in the loop);
//! 3. wildcard-depth sweep — where hashing collapses back to a scan and
//!    the ALPU does not.
//!
//! ```text
//! cargo run -p mpiq-bench --bin ablation_hash
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{exec, report};

fn main() {
    let cli = Cli::parse(
        "ablation_hash",
        "linear list vs hash-binned matching vs ALPU",
        flags("ablation_hash"),
    );
    let spec = RunSpec::from_cli("ablation_hash", &cli).unwrap_or_else(|e| {
        eprintln!("ablation_hash: {e}");
        std::process::exit(2);
    });
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("ablation_hash: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");
    if !ok {
        std::process::exit(1);
    }
}
