//! Byte-identical regression pin for the paper figures.
//!
//! The overload machinery (admission bounds, eager credits, link-layer
//! refusal) must be zero-cost when unconfigured: the fig5/fig6 sweeps
//! with no flow control armed have to reproduce the committed golden
//! CSVs bit for bit. The goldens were captured with:
//!
//! ```text
//! fig5 --config alpu128 --max-queue 100 --step 50 --fractions 1 --sizes 0
//! fig6 --max-queue 100 --step 50 --sizes 64
//! ```
//!
//! The ALPU fault path (stall- and flip-driven quarantine, software
//! fallback, re-engagement) is pinned the same way: the `*_alpu_faults`
//! goldens are the exact stdout of
//!
//! ```text
//! fig5 --max-queue 100 --step 50 --sizes 0 --fractions 0.5,1 --faults seed=11,flip=0.05,stall=0.05
//! fig6 --max-queue 100 --step 50 --sizes 64 --faults seed=11,flip=0.05,stall=0.05
//! ```

use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, RunSpec};
use mpiq_bench::{
    exec, preposted_latency_cfg, unexpected_latency_cfg, NicVariant, PrepostedPoint,
    UnexpectedPoint,
};

#[test]
fn fig5_unconfigured_matches_golden() {
    let golden = include_str!("golden/fig5_flowless.csv");
    let mut out =
        String::from("config,queue_len,fraction,msg_size,latency_us,sw_traversed,rx_l1_misses\n");
    for q in [0usize, 50, 100] {
        let p = PrepostedPoint {
            queue_len: q,
            fraction: 1.0,
            msg_size: 0,
        };
        let r = preposted_latency_cfg(NicVariant::Alpu128.config(), p);
        out.push_str(&format!(
            "{},{},{},{},{:.4},{},{}\n",
            NicVariant::Alpu128.label(),
            p.queue_len,
            p.fraction,
            p.msg_size,
            r.latency.as_us_f64(),
            r.sw_traversed,
            r.rx_l1_misses
        ));
    }
    assert_eq!(
        out, golden,
        "fig5 drifted from the flow-control-free golden"
    );
}

#[test]
fn fig6_unconfigured_matches_golden() {
    let golden = include_str!("golden/fig6_flowless.csv");
    let mut out = String::from("config,queue_len,msg_size,latency_us,sw_traversed\n");
    for v in NicVariant::ALL {
        for q in [0usize, 50, 100] {
            let p = UnexpectedPoint {
                queue_len: q,
                msg_size: 64,
            };
            let r = unexpected_latency_cfg(v.config(), p);
            out.push_str(&format!(
                "{},{},{},{:.4},{}\n",
                v.label(),
                p.queue_len,
                p.msg_size,
                r.latency.as_us_f64(),
                r.sw_traversed
            ));
        }
    }
    assert_eq!(
        out, golden,
        "fig6 drifted from the flow-control-free golden"
    );
}

/// The stdout a bin prints for `args`: run its spec and render
/// the header and rows exactly as `report::emit` does.
fn bin_stdout(bench: &'static str, args: &[&str]) -> String {
    let cli = Cli::try_parse_from(
        bench,
        "test",
        flags(bench),
        args.iter().map(|s| s.to_string()),
    )
    .unwrap_or_else(|e| panic!("{bench}: args failed to parse: {e:?}"));
    let spec = RunSpec::from_cli(bench, &cli).unwrap_or_else(|e| panic!("{bench}: {e}"));
    let result = exec::execute(&spec).unwrap_or_else(|e| panic!("{bench}: {e}"));
    let mut out = format!("{}\n", result.header);
    for row in &result.rows {
        out.push_str(&row.csv);
        out.push('\n');
    }
    out
}

const ALPU_FAULTS: &[&str] = &["--faults", "seed=11,flip=0.05,stall=0.05"];

#[test]
fn fig5_alpu_faults_match_golden() {
    let sweep: &[&str] = &[
        "--max-queue",
        "100",
        "--step",
        "50",
        "--sizes",
        "0",
        "--fractions",
        "0.5,1",
    ];
    let out = bin_stdout("fig5", &[sweep, ALPU_FAULTS].concat());
    let golden = include_str!("golden/fig5_alpu_faults.csv");
    assert_eq!(out, golden, "fig5 drifted from the ALPU-fault golden");
}

#[test]
fn fig6_alpu_faults_match_golden() {
    let sweep: &[&str] = &["--max-queue", "100", "--step", "50", "--sizes", "64"];
    let out = bin_stdout("fig6", &[sweep, ALPU_FAULTS].concat());
    let golden = include_str!("golden/fig6_alpu_faults.csv");
    assert_eq!(out, golden, "fig6 drifted from the ALPU-fault golden");
}
