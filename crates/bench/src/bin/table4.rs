//! Regenerates Table IV: sizes and speeds of the posted-receives ALPU
//! prototypes, model estimates beside the published Xilinx results.

use mpiq_bench::cli::Cli;
use mpiq_bench::report;
use mpiq_fpga::{estimate, render_table, Variant};
use std::fmt::Write as _;

fn main() {
    let _cli = Cli::parse(
        "table4",
        "Table IV: posted-receives ALPU sizes and speeds",
        &[],
    );
    let mut out = render_table(Variant::PostedReceive);
    out.push_str("\nASIC projection (paper's conservative 5x FPGA->ASIC scaling, §VI-A):\n");
    for (cells, block) in [(256, 16), (128, 16)] {
        let e = estimate(Variant::PostedReceive, cells, block);
        writeln!(
            out,
            "  {cells} cells / block {block}: ~{:.0} MHz (Red Storm-class core logic is 500 MHz)",
            e.asic_mhz()
        )
        .unwrap();
    }
    report::print(&out);
}
