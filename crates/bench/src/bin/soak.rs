//! Overload soak driver.
//!
//! Usage:
//!     soak [--scenario incast|hot-receiver|credit-starve|chaos|all]
//!          [--seeds N | --seed S] [--senders N] [--msgs N] [--size B]
//!          [--credits N] [--max-unexpected N] [--eager-buffer B]
//!          [--alpu] [--faults seed=N,drop=P,...] [--deadline-ms T]
//!          [--mtbf-us T] [--mttr-us T] [--node-mttr-us T]
//!          [--check-determinism] [--out PATH] [--check PATH]
//!          [--curve | --chaos-curve | --recovery-curve]
//!
//! Runs each (scenario, seed) pair under the deadlock watchdog, prints
//! one CSV row per run, and exits nonzero with the watchdog's diagnosis
//! on a stall. `--curve`, `--chaos-curve` and `--recovery-curve` (first
//! given wins) instead sweep the incast fan-in, the chaos link-flap MTBF
//! or the crashed node's MTTR, print one CSV row per point and plot the
//! curve to stderr. Every mode is a [`RunSpec`] executed by
//! [`mpiq_bench::exec`], so `--out` writes the run's record in each.
//! `--check-determinism` repeats every run and demands a bit-identical
//! statistics dump; `--check` gates the rows against a tracked baseline.
//! Every mode rejects `--senders` below 2 with a one-line error and exit
//! status 1.

use mpiq_bench::ascii_plot::{render, Series};
use mpiq_bench::report::{self, Band};
use mpiq_bench::spec::{BenchSpec, ResultRow, RunSpec, SoakCurve};

fn main() {
    let (cli, spec) = RunSpec::parse(
        "soak",
        "overload soak scenarios under the deadlock watchdog",
    );
    let BenchSpec::Soak {
        senders,
        max_unexpected,
        curve,
        ..
    } = spec.bench
    else {
        unreachable!()
    };
    if let Err(e) = mpiq_bench::soak::check_senders(senders) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    // Simulated time is deterministic, so `runtime_ns` and, where
    // restarts ran, `recovery_ns` drifting either way is a finding.
    report::run(&cli, &spec, |result| {
        if let Some(curve) = curve {
            plot(curve, &result.rows, max_unexpected);
        }
        report::gate(
            &cli,
            &result.rows,
            &["scenario", "seed", "senders"],
            &[("runtime_ns", Band::Both), ("recovery_ns", Band::Both)],
            10.0,
        )
    });
}

/// Render a curve's rows as an ascii plot on stderr, with the one-line
/// reading of its shape.
fn plot(curve: SoakCurve, rows: &[ResultRow], max_unexpected: u32) {
    let points = |x: &str, y: &str| -> Vec<(f64, f64)> {
        let cell = |r: &ResultRow, key| r.num(key).unwrap_or(0.0);
        rows.iter().map(|r| (cell(r, x), cell(r, y))).collect()
    };
    // Scale a series to its maximum, so it shares the [0, 1] axis.
    let relative = |points: Vec<(f64, f64)>| {
        let max = points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max);
        (points.iter().map(|&(x, y)| (x, y / max)).collect(), max)
    };
    let series = |label: String, glyph, points| Series {
        label,
        glyph,
        points,
    };
    let (series, x_label, reading) = match curve {
        SoakCurve::Incast => (
            vec![
                series("runtime (us)".into(), '*', points("senders", "runtime_us")),
                series(
                    "admission refusals".into(),
                    'r',
                    points("senders", "admission_refused"),
                ),
                series(
                    format!("unexpected high-water (bound {max_unexpected})"),
                    'u',
                    points("senders", "unexpected_hw"),
                ),
            ],
            "senders (incast fan-in)",
            "incast degrades by protocol: load sheds into admission refusals and \
             retransmits while the unexpected queue stays at its bound",
        ),
        SoakCurve::Chaos => (
            vec![
                series(
                    "availability (fraction of ops ok)".into(),
                    'a',
                    points("mtbf_us", "availability"),
                ),
                series(
                    "goodput (fraction of storm-free)".into(),
                    'g',
                    relative(points("mtbf_us", "goodput_ops_per_ms")).0,
                ),
            ],
            "mean time between link flaps (us)",
            "both curves climb with MTBF: retransmit delay leaves the critical \
             path (goodput), and fewer storm-delayed operations are still in \
             flight when the scheduled crash lands (availability). Sub-budget \
             outages alone never cost a typed failure — go-back-N absorbs them.",
        ),
        SoakCurve::Recovery => {
            let (recovery, max) = relative(points("node_mttr_us", "recovery_us_p50"));
            (
                vec![
                    series(
                        "availability (fraction of ops ok)".into(),
                        'a',
                        points("node_mttr_us", "availability"),
                    ),
                    series(
                        format!("crash-to-recovered p50 (fraction of {max:.0} us)"),
                        'r',
                        recovery,
                    ),
                ],
                "node MTTR (us)",
                "recovery time tracks the MTTR almost linearly (the detector and the \
                 retry ladder add a near-constant tail); availability falls as the \
                 node stays down longer, because the survivors' reconnect retries \
                 keep paying typed failures until the rebirth",
            )
        }
    };
    eprintln!("{}", render(&series, 72, 20, x_label, ""));
    eprintln!("{reading}");
}
