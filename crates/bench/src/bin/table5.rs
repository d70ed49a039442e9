//! Regenerates Table V: sizes and speeds of the unexpected-messages ALPU
//! prototypes, model estimates beside the published Xilinx results.

use mpiq_bench::cli::Cli;
use mpiq_fpga::{estimate, render_table, Variant};

fn main() {
    let _cli = Cli::parse(
        "table5",
        "Table V: unexpected-messages ALPU sizes and speeds",
        &[],
    );
    print!("{}", render_table(Variant::Unexpected));
    println!();
    println!("Variant comparison at 256 cells / block 16:");
    let p = estimate(Variant::PostedReceive, 256, 16);
    let u = estimate(Variant::Unexpected, 256, 16);
    println!(
        "  posted FFs {} vs unexpected FFs {} — the difference is per-cell mask storage \
         (42 mask bits x 256 cells = {})",
        p.ffs,
        u.ffs,
        42 * 256
    );
}
