//! Ablation: next-line prefetching as the "fewer hardware resources"
//! alternative (§VII: "techniques to traverse queues quickly with fewer
//! hardware resources").
//!
//! A next-line prefetcher on the NIC's L1 looks like it should soften the
//! out-of-cache traversal cliff (the queue walk is nearly sequential in
//! memory) — and it does shave fixed cold-start costs — but at the cliff
//! it *loses*: prefetch traffic competes for the same DRAM banks the
//! demand pointer-chase is serialized on, and the extra lines pollute an
//! L1 already at capacity. It also cannot touch the in-cache 15 ns/entry
//! issue-bound cost. The measurement argues the paper's §VII question has
//! no easy cache-side answer; the ALPU's flat curve stands alone.
//!
//! ```text
//! cargo run -p mpiq-bench --bin ablation_prefetch
//! ```

use mpiq_bench::report;
use mpiq_bench::spec::RunSpec;

fn main() {
    let (cli, spec) = RunSpec::parse(
        "ablation_prefetch",
        "next-line prefetch vs the ALPU at the cache cliff (§VII)",
    );
    report::run(&cli, &spec, |_| {});
}
