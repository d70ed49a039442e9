//! Regenerates Table V: sizes and speeds of the unexpected-messages ALPU
//! prototypes, model estimates beside the published Xilinx results.

use mpiq_bench::cli::Cli;
use mpiq_bench::report;
use mpiq_fpga::{estimate, render_table, Variant};
use std::fmt::Write as _;

fn main() {
    let _cli = Cli::parse(
        "table5",
        "Table V: unexpected-messages ALPU sizes and speeds",
        &[],
    );
    let mut out = render_table(Variant::Unexpected);
    out.push_str("\nVariant comparison at 256 cells / block 16:\n");
    let p = estimate(Variant::PostedReceive, 256, 16);
    let u = estimate(Variant::Unexpected, 256, 16);
    writeln!(
        out,
        "  posted FFs {} vs unexpected FFs {} — the difference is per-cell mask storage \
         (42 mask bits x 256 cells = {})",
        p.ffs,
        u.ffs,
        42 * 256
    )
    .unwrap();
    report::print(&out);
}
