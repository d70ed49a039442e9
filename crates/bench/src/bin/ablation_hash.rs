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

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "ablation_hash",
        "linear list vs hash-binned matching vs ALPU",
    );
    report::run(&cli, &spec, |_| {});
}
