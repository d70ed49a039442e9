//! The hierarchical resource/timing estimator.

use crate::primitives::*;
use crate::tables::Variant;
use mpiq_alpu::PipelineTiming;

/// Estimated synthesis results for one ALPU configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// Total cells.
    pub total_cells: usize,
    /// Cells per block.
    pub block_size: usize,
    /// 4-input lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// Virtex-II slices.
    pub slices: u64,
    /// Estimated clock, MHz.
    pub mhz: f64,
    /// Match pipeline latency, cycles.
    pub latency: u64,
}

impl ResourceEstimate {
    /// Projected ASIC clock using the paper's conservative 5× scaling.
    pub fn asic_mhz(&self) -> f64 {
        self.mhz * ASIC_SPEEDUP
    }
}

/// Estimate one configuration. `total_cells` and `block_size` must be
/// powers of two (the hardware constraint from §III-B).
pub fn estimate(variant: Variant, total_cells: usize, block_size: usize) -> ResourceEstimate {
    assert!(total_cells.is_power_of_two() && block_size.is_power_of_two());
    assert!(block_size <= total_cells);
    let cells = total_cells as f64;
    let blocks = (total_cells / block_size) as f64;
    let levels = (block_size as f64).log2();

    let (ff_cell, ff_block, ff_global, lut_block) = match variant {
        Variant::PostedReceive => (
            FF_PER_POSTED_CELL,
            FF_PER_BLOCK_POSTED,
            FF_GLOBAL_POSTED,
            LUT_PER_BLOCK_POSTED,
        ),
        Variant::Unexpected => (
            FF_PER_UNEXPECTED_CELL,
            FF_PER_BLOCK_UNEXPECTED,
            FF_GLOBAL_UNEXPECTED,
            LUT_PER_BLOCK_UNEXPECTED,
        ),
    };

    let ffs = cells * (ff_cell + FF_PER_CELL_PIPE)
        + blocks * (ff_block + FF_PER_BLOCK_TREE_LEVEL * levels)
        + ff_global;
    let luts = cells * (LUT_PER_CELL + LUT_PER_CELL_PER_BLOCKSIZE * block_size as f64)
        + blocks * lut_block;
    let slices = SLICE_PER_LUT * luts + SLICE_PER_FF * ffs;

    // Clock: the critical stage is either the fixed-delay stages (fanout,
    // compare, delete) or the intra-block priority tree, whose depth is
    // log2(block size). The inter-block tree is the stage that splits into
    // two cycles for deep configurations, so it never dominates the period.
    let tree_ns = TREE_BASE_NS + TREE_LEVEL_NS * levels;
    let period_ns = STAGE_FLOOR_NS.max(tree_ns);
    let mhz = 1000.0 / period_ns;

    let timing = PipelineTiming::for_geometry(total_cells, block_size);

    ResourceEstimate {
        total_cells,
        block_size,
        luts: luts.round() as u64,
        ffs: ffs.round() as u64,
        slices: slices.round() as u64,
        mhz,
        latency: timing.match_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::paper_table;

    fn pct(ours: u64, paper: u64) -> f64 {
        (ours as f64 - paper as f64).abs() / paper as f64 * 100.0
    }

    #[test]
    fn reproduces_table_iv_within_tolerance() {
        for row in paper_table(Variant::PostedReceive) {
            let e = estimate(Variant::PostedReceive, row.total_cells, row.block_size);
            assert!(
                pct(e.luts, row.luts) < 1.0,
                "LUTs {}/{} off for {row:?}",
                e.luts,
                row.luts
            );
            assert!(pct(e.ffs, row.ffs) < 1.0, "FFs off for {row:?}");
            assert!(pct(e.slices, row.slices) < 3.0, "slices off for {row:?}");
            assert!(
                (e.mhz - row.mhz).abs() / row.mhz < 0.02,
                "clock {} vs {} for {row:?}",
                e.mhz,
                row.mhz
            );
            assert_eq!(e.latency, row.latency, "latency for {row:?}");
        }
    }

    #[test]
    fn reproduces_table_v_within_tolerance() {
        for row in paper_table(Variant::Unexpected) {
            let e = estimate(Variant::Unexpected, row.total_cells, row.block_size);
            assert!(pct(e.luts, row.luts) < 1.0, "LUTs off for {row:?}");
            assert!(pct(e.ffs, row.ffs) < 1.0, "FFs off for {row:?}");
            assert!(pct(e.slices, row.slices) < 3.0, "slices off for {row:?}");
            assert!(
                (e.mhz - row.mhz).abs() / row.mhz < 0.02,
                "clock for {row:?}"
            );
            assert_eq!(e.latency, row.latency, "latency for {row:?}");
        }
    }

    #[test]
    fn structural_trends_hold() {
        // FF count decreases as block size grows (fewer per-block request
        // registers); LUT count increases (wider space-available scans).
        let p8 = estimate(Variant::PostedReceive, 256, 8);
        let p16 = estimate(Variant::PostedReceive, 256, 16);
        let p32 = estimate(Variant::PostedReceive, 256, 32);
        assert!(p8.ffs > p16.ffs && p16.ffs > p32.ffs);
        assert!(p8.luts < p16.luts && p16.luts < p32.luts);
        // The unexpected variant stores no masks: far fewer FFs, nearly
        // identical LUTs.
        let u8_ = estimate(Variant::Unexpected, 256, 8);
        let ff_saving = p8.ffs - u8_.ffs;
        let mask_bits = 256 * 42;
        assert!(
            (ff_saving as f64 / mask_bits as f64 - 1.0).abs() < 0.15,
            "FF saving {ff_saving} should be ~{mask_bits} (per-cell mask storage)"
        );
        assert!((u8_.luts as i64 - p8.luts as i64).unsigned_abs() < 200);
    }

    #[test]
    fn asic_projection_is_about_500mhz() {
        let e = estimate(Variant::PostedReceive, 256, 16);
        assert!(
            (450.0..650.0).contains(&e.asic_mhz()),
            "ASIC projection {} MHz",
            e.asic_mhz()
        );
    }

    #[test]
    fn halving_cells_roughly_halves_area() {
        let big = estimate(Variant::PostedReceive, 256, 16);
        let small = estimate(Variant::PostedReceive, 128, 16);
        let ratio = big.slices as f64 / small.slices as f64;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }
}
