//! Overload soak driver.
//!
//! Usage:
//!     soak [--scenario incast|hot-receiver|credit-starve|chaos|all]
//!          [--seeds N | --seed S] [--senders N] [--msgs N] [--size B]
//!          [--credits N] [--max-unexpected N] [--eager-buffer B]
//!          [--alpu] [--faults seed=N,drop=P,...] [--deadline-ms T]
//!          [--mtbf-us T] [--mttr-us T] [--check-determinism]
//!          [--out PATH] [--curve] [--chaos-curve] [--recovery-curve]
//!
//! Runs each (scenario, seed) pair under the deadlock watchdog, prints
//! one CSV row per run, and exits nonzero with the watchdog's diagnosis
//! on a stall. The flags assemble a [`RunSpec`] executed by
//! [`mpiq_bench::exec`]. `--check-determinism` repeats every run and
//! demands a bit-identical statistics dump. `--curve`, `--chaos-curve`
//! and `--recovery-curve` are exploratory sweeps outside the spec, as is
//! `--check` (the tracked-baseline gate). Every mode rejects `--senders`
//! below 2 with a one-line error and exit status 1.

use mpiq_bench::ascii_plot::{render, Series};
use mpiq_bench::cli::Cli;
use mpiq_bench::spec::{flags, BenchSpec, ResultRow, RunSpec};
use mpiq_bench::{exec, report, run_soak, Scenario, SoakConfig};
use mpiq_dessim::Time;
use std::io::Write as _;

/// Compare current rows against a tracked baseline (a previous `--out`
/// dump). Simulated time is deterministic, so `runtime_ns` — and
/// `recovery_ns` where restarts ran — drifting past the band in either
/// direction is a failure. Baseline rows without a matching
/// (scenario, seed) run are skipped; matching nothing is an error.
fn check_baseline(
    baseline: &str,
    rows: &[ResultRow],
    tolerance_pct: f64,
) -> Result<Vec<String>, String> {
    use mpiq_bench::jsonlint::{self, Json};
    let doc = jsonlint::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let base_rows = doc
        .as_array()
        .ok_or("baseline is not a JSON array of rows")?;
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for r in rows {
        let scenario = r.text("scenario").unwrap_or_default();
        let seed = r.num("seed").unwrap_or(-1.0) as u64;
        let senders = r.num("senders").unwrap_or(0.0) as u64;
        let Some(base) = base_rows.iter().find(|b| {
            b.get("scenario").and_then(Json::as_str) == Some(scenario.as_str())
                && b.get("seed").and_then(Json::as_u64) == Some(seed)
                && b.get("senders").and_then(Json::as_u64) == Some(senders)
        }) else {
            continue;
        };
        matched += 1;
        for field in ["runtime_ns", "recovery_ns"] {
            let current = r.num(field).unwrap_or(0.0) as u64;
            let Some(base_v) = base.get(field).and_then(Json::as_u64) else {
                continue;
            };
            if base_v == 0 && current == 0 {
                continue;
            }
            if base_v == 0 {
                failures.push(format!(
                    "{scenario} seed {seed}: {field} went {current} vs baseline 0"
                ));
                continue;
            }
            let drift = (current as f64 / base_v as f64 - 1.0) * 100.0;
            if drift.abs() > tolerance_pct {
                failures.push(format!(
                    "{scenario} seed {seed}: {field} {current} drifts {drift:+.1}% from baseline \
                     {base_v} (tolerance ±{tolerance_pct}%)"
                ));
            }
        }
    }
    if matched == 0 {
        return Err("no baseline row matches any current run — \
                    regenerate the baseline with --out"
            .to_string());
    }
    Ok(failures)
}

fn main() {
    let cli = Cli::parse(
        "soak",
        "overload soak scenarios under the deadlock watchdog",
        flags("soak"),
    );
    let spec = RunSpec::from_cli("soak", &cli).unwrap_or_else(|e| {
        eprintln!("soak: {e}");
        std::process::exit(2);
    });
    let BenchSpec::Soak {
        senders,
        msgs,
        size,
        credits,
        max_unexpected,
        eager_buffer,
        alpu,
        mttr_us,
        ..
    } = spec.bench.clone()
    else {
        unreachable!()
    };
    if let Err(e) = mpiq_bench::soak::check_senders(senders) {
        eprintln!("{e}");
        std::process::exit(1);
    }

    if cli.has("curve") {
        incast_curve(msgs, size, credits, max_unexpected, eager_buffer, alpu);
        return;
    }
    if cli.has("chaos-curve") {
        chaos_curve(senders, msgs, size, alpu, mttr_us);
        return;
    }
    if cli.has("recovery-curve") {
        recovery_curve(senders, msgs, size);
        return;
    }

    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, cli.common.out.as_deref().map(std::path::Path::new))
        .expect("write json");

    if let Some(path) = cli.get_str("check") {
        let tolerance: f64 = cli.get("tolerance", 10.0);
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        match check_baseline(&baseline, &result.rows, tolerance) {
            Ok(failures) if failures.is_empty() => {
                eprintln!("soak: all runs within ±{tolerance}% of {path}");
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("soak DRIFT: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("soak: baseline check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Sweep the incast fan-in and plot how backpressure absorbs the load:
/// runtime grows with senders while the unexpected high-water stays
/// pinned at the bound.
fn incast_curve(
    msgs: u32,
    size: u32,
    credits: u32,
    max_unexpected: u32,
    eager_buffer: u64,
    alpu: bool,
) {
    let fanin = [2u32, 4, 8, 16, 32, 64];
    let mut runtime = Vec::new();
    let mut refused = Vec::new();
    let mut hw = Vec::new();
    println!("senders,runtime_us,admission_refused,unexpected_hw,retransmits");
    for &n in &fanin {
        let mut cfg = SoakConfig::new(Scenario::Incast, 1);
        cfg.senders = n;
        cfg.msgs = msgs;
        cfg.msg_size = size;
        cfg.eager_credits = credits;
        cfg.max_unexpected = max_unexpected;
        cfg.eager_buffer_bytes = eager_buffer;
        cfg.alpu = alpu;
        cfg.deadline = Time::from_ms(2_000);
        let out = run_soak(&cfg).unwrap_or_else(|d| panic!("incast {n} stalled:\n{d}"));
        println!(
            "{n},{:.1},{},{},{}",
            out.runtime.as_ns_f64() / 1e3,
            out.admission_refused,
            out.unexpected_highwater,
            out.retransmits
        );
        runtime.push((n as f64, out.runtime.as_ns_f64() / 1e3));
        refused.push((n as f64, out.admission_refused as f64));
        hw.push((n as f64, out.unexpected_highwater as f64));
    }
    let plot = render(
        &[
            Series {
                label: "runtime (us)".into(),
                glyph: '*',
                points: runtime,
            },
            Series {
                label: "admission refusals".into(),
                glyph: 'r',
                points: refused,
            },
            Series {
                label: format!("unexpected high-water (bound {max_unexpected})"),
                glyph: 'u',
                points: hw,
            },
        ],
        72,
        20,
        "senders (incast fan-in)",
        "",
    );
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{plot}");
    let _ = writeln!(
        err,
        "incast degrades by protocol: load sheds into admission refusals and \
         retransmits while the unexpected queue stays at its bound"
    );
}

/// Sweep the crashed node's MTTR with restarts armed: how long the node
/// stays down governs both how many operations fail typed while it is
/// gone (availability) and the crash-to-recovered span. Four seeded
/// storms per point; `recovery_us` reports the p50 and max across the
/// seeds — time-to-recovery is dominated by the scheduled MTTR plus the
/// keepalive declaration and the retry backoff ladder, so the spread is
/// the storm's contribution.
fn recovery_curve(senders: u32, msgs: u32, size: u32) {
    let mttrs_us = [400u64, 600, 800, 1200, 1600, 2400];
    const CURVE_SEEDS: [u64; 4] = [1, 2, 3, 5];
    let mut availability = Vec::new();
    let mut recovery = Vec::new();
    println!(
        "node_mttr_us,availability,recovery_us_p50,recovery_us_max,ops_rank_failed,epoch_fences"
    );
    for &mttr in &mttrs_us {
        let mut avail_sum = 0.0f64;
        let (mut failed, mut fences) = (0u64, 0u64);
        let mut spans_us: Vec<f64> = Vec::new();
        for &seed in &CURVE_SEEDS {
            let mut cfg = SoakConfig::new(Scenario::Chaos, seed);
            cfg.senders = senders;
            cfg.msgs = msgs;
            cfg.msg_size = size;
            cfg.deadline = Time::from_ms(2_000);
            cfg.node_mttr = Some(Time::from_us(mttr));
            let out = run_soak(&cfg)
                .unwrap_or_else(|d| panic!("recovery mttr={mttr}us seed={seed} stalled:\n{d}"));
            avail_sum += out.availability(cfg.planned_ops());
            spans_us.push(out.recovery_ns as f64 / 1e3);
            failed += out.ops_rank_failed;
            fences += out.epoch_fences;
        }
        spans_us.sort_by(|a, b| a.total_cmp(b));
        let p50 = spans_us[spans_us.len() / 2];
        let max = spans_us[spans_us.len() - 1];
        let avail = avail_sum / CURVE_SEEDS.len() as f64;
        println!("{mttr},{avail:.4},{p50:.1},{max:.1},{failed},{fences}");
        availability.push((mttr as f64, avail));
        recovery.push((mttr as f64, p50));
    }
    // Normalise the recovery span so both series share the [0, 1] axis.
    let rmax = recovery.iter().map(|&(_, r)| r).fold(f64::MIN, f64::max);
    let recovery_rel: Vec<(f64, f64)> = recovery.iter().map(|&(m, r)| (m, r / rmax)).collect();
    let plot = render(
        &[
            Series {
                label: "availability (fraction of ops ok)".into(),
                glyph: 'a',
                points: availability,
            },
            Series {
                label: format!("crash-to-recovered p50 (fraction of {rmax:.0} us)"),
                glyph: 'r',
                points: recovery_rel,
            },
        ],
        72,
        20,
        "node MTTR (us)",
        "",
    );
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{plot}");
    let _ = writeln!(
        err,
        "recovery time tracks the MTTR almost linearly (the detector and the \
         retry ladder add a near-constant tail); availability falls as the \
         node stays down longer, because the survivors' reconnect retries \
         keep paying typed failures until the rebirth"
    );
}

/// Sweep the chaos scenario's link-flap MTBF: stormier fabrics (smaller
/// MTBF) cost retransmits and — once outages outlast the retry budget —
/// typed failures. Availability = fraction of planned operations that
/// completed without a `RankFailed`; goodput = successful operations per
/// simulated millisecond.
fn chaos_curve(senders: u32, msgs: u32, size: u32, alpu: bool, mttr_us: u64) {
    // One storm realisation is noise — a single flap landing on or off a
    // round's critical path swings the runtime — so every point averages
    // four seeded storms at the same MTBF.
    let mtbfs_us = [25u64, 50, 100, 200, 400, 800];
    const CURVE_SEEDS: [u64; 4] = [1, 2, 3, 5];
    let mut availability = Vec::new();
    let mut goodput = Vec::new();
    println!("mtbf_us,availability,goodput_ops_per_ms,ops_rank_failed,links_dead,retransmits");
    for &mtbf in &mtbfs_us {
        let (mut avail_sum, mut gput_sum) = (0.0f64, 0.0f64);
        let (mut failed, mut dead, mut retx) = (0u64, 0u64, 0u64);
        for &seed in &CURVE_SEEDS {
            let mut cfg = SoakConfig::new(Scenario::Chaos, seed);
            cfg.senders = senders;
            // Dense rounds (small inter-round gaps) so outage windows
            // actually overlap live traffic; 8 sparse rounds mostly miss
            // the storm and the curve degenerates to noise.
            cfg.msgs = msgs.max(48);
            cfg.msg_size = size;
            cfg.alpu = alpu;
            cfg.deadline = Time::from_ms(2_000);
            cfg.mtbf = Time::from_us(mtbf);
            cfg.mttr = Time::from_us(mttr_us);
            let out = run_soak(&cfg)
                .unwrap_or_else(|d| panic!("chaos mtbf={mtbf}us seed={seed} stalled:\n{d}"));
            let planned = cfg.planned_ops();
            avail_sum += out.availability(planned);
            let ok_ops = planned.saturating_sub(out.ops_rank_failed) as f64;
            gput_sum += ok_ops / (out.runtime.as_ns_f64() / 1e6);
            failed += out.ops_rank_failed;
            dead += out.links_dead;
            retx += out.retransmits;
        }
        let n = CURVE_SEEDS.len() as f64;
        let (avail, gput) = (avail_sum / n, gput_sum / n);
        println!("{mtbf},{avail:.4},{gput:.2},{failed},{dead},{retx}");
        availability.push((mtbf as f64, avail));
        goodput.push((mtbf as f64, gput));
    }
    // Normalise goodput so both series share the [0, 1] axis.
    let gmax = goodput.iter().map(|&(_, g)| g).fold(f64::MIN, f64::max);
    let goodput_rel: Vec<(f64, f64)> = goodput.iter().map(|&(m, g)| (m, g / gmax)).collect();
    let plot = render(
        &[
            Series {
                label: "availability (fraction of ops ok)".into(),
                glyph: 'a',
                points: availability,
            },
            Series {
                label: "goodput (fraction of storm-free)".into(),
                glyph: 'g',
                points: goodput_rel,
            },
        ],
        72,
        20,
        "mean time between link flaps (us)",
        "",
    );
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{plot}");
    let _ = writeln!(
        err,
        "both curves climb with MTBF: retransmit delay leaves the critical \
         path (goodput), and fewer storm-delayed operations are still in \
         flight when the scheduled crash lands (availability). Sub-budget \
         outages alone never cost a typed failure — go-back-N absorbs them."
    );
}
