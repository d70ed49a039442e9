//! Regenerates Table IV: sizes and speeds of the posted-receives ALPU
//! prototypes, model estimates beside the published Xilinx results.

use mpiq_bench::cli::Cli;
use mpiq_fpga::{estimate, render_table, Variant};

fn main() {
    let _cli = Cli::parse(
        "table4",
        "Table IV: posted-receives ALPU sizes and speeds",
        &[],
    );
    print!("{}", render_table(Variant::PostedReceive));
    println!();
    println!("ASIC projection (paper's conservative 5x FPGA->ASIC scaling, §VI-A):");
    for (cells, block) in [(256, 16), (128, 16)] {
        let e = estimate(Variant::PostedReceive, cells, block);
        println!(
            "  {cells} cells / block {block}: ~{:.0} MHz (Red Storm-class core logic is 500 MHz)",
            e.asic_mhz()
        );
    }
}
