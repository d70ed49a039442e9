//! `mpiq-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!     [--trace-out PATH] [--quick] [--repeat N]
//! ```
//!
//! A workload's run starts with checks: a fixed set of anchor points
//! measures the model against the paper's numbers, and one op is run on
//! the sharded engine at one and two workers, which must agree byte for
//! byte. Then comes a closed loop on one thread: the seeded op list (a
//! "pass") runs op after op, pass after pass, and no pass starts that
//! would end, judging by the last one, after `--seconds` (three passes
//! at least). Every op is checked, and every op's digest must repeat
//! exactly in every later pass.
//!
//! Output: one `workload metric value unit` line per metric, then one
//! JSON line per workload with `correct`, `attempted` and `failed` (ops
//! of the passes) and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1`, the per-layer ones, from a run
//! whose passes alternate traced and untraced. The exit code is 1 if any
//! op or check failed.

mod probes;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use sys::{median, quantile};
use trace::Tracer;
use workload::{anchors, run_op, Counts, Outcome, Variant, Workload};

/// Run length without `--seconds`: `run_seconds` in `BENCHMARK.json`,
/// which runners pass as `--seconds` (the smoke test keeps the two
/// equal).
const RUN_SECONDS: f64 = 30.0;
/// Passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: u64 = 3;
/// Ops per pass under `--quick`, which runs exactly two passes.
const QUICK_OPS: usize = 20;

/// The paper's reference numbers (Figs. 5 and 6).
const PAPER_NS_PER_ENTRY_CACHED: f64 = 15.0;
const PAPER_NS_PER_ENTRY_SPILLED: f64 = 64.0;
const PAPER_CROSSOVER_ENTRIES: f64 = 70.0;
/// The advantage at which the ALPU "begins to offer a clear and
/// significant advantage" on Fig. 6, in ns.
const CLEAR_ADVANTAGE_NS: f64 = 200.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    quick: bool,
    repeat: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: mpiq-benchmark [--workload posted-sweep|unexpected-sweep|incast|collectives-512|all] \
[--seed N] [--seconds S (default {RUN_SECONDS})] [--trace 0|1] [--trace-out PATH] [--quick] [--repeat N]"
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        trace_out: None,
        quick: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--quick" => args.quick = true,
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                args.repeat = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.trace_out.is_some() && (!args.trace || args.workloads.len() != 1) {
        return Err("--trace-out needs --trace 1 and a single --workload".to_string());
    }
    if args.repeat.is_some() && args.trace {
        return Err("--repeat measures untraced runs; drop --trace 1".to_string());
    }
    Ok(args)
}

/// Items attempted and failed, with each failure on stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("FAIL {what}: {e}");
        })
        .ok()
    }

    fn check(&mut self, what: &str, ok: bool, detail: String) {
        self.record(what, if ok { Ok(()) } else { Err(detail) });
    }
}

/// One workload's results.
struct Report {
    workload: Workload,
    /// The passes' ops.
    ops: Tally,
    /// Anchor ops, shape checks and the cross-engine check.
    checks: Tally,
    /// `(name, value, unit)`: the metrics `BENCHMARK.json` declares.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational `(name, value, unit)` lines printed before them.
    info: Vec<(String, String, &'static str)>,
}

impl Report {
    fn ok(&self) -> bool {
        self.ops.failed == 0 && self.checks.failed == 0
    }

    fn print(&self) {
        let w = self.workload.name();
        for (name, value, unit) in &self.info {
            println!("{w} {name} {value} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{w} {name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ok(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        );
    }
}

/// The simulated latency of an anchor op, in ns.
fn anchor_ns(op: workload::Op, t: &mut Tracer, tally: &mut Tally) -> Option<f64> {
    let what = format!("anchor {op:?}");
    tally
        .record(&what, run_op(&op, None, t, 0).0)
        .map(|o| o.sim_latency_us * 1e3)
}

/// Percentage error of `measured` against the paper's `reference`.
fn err_pct(measured: f64, reference: f64) -> f64 {
    (measured - reference).abs() / reference * 100.0
}

/// The seed-independent anchors: the model's error against the paper's
/// three reference numbers, and the paper's shape checks. Returns
/// `(cached, spilled, crossover)` errors in percent (NaN if an anchor
/// failed).
fn fidelity(t: &mut Tracer, tally: &mut Tally) -> (f64, f64, f64) {
    use Variant::*;
    let mut posted =
        |v: Variant, q: usize| anchor_ns(anchors::posted(v, q), t, tally).unwrap_or(f64::NAN);
    let base: Vec<f64> = [0, 200, 300, 425, 500]
        .iter()
        .map(|&q| posted(Baseline, q))
        .collect();
    let (b0, b200, b300, b425, b500) = (base[0], base[1], base[2], base[3], base[4]);
    let a128 = (posted(Alpu128, 0), posted(Alpu128, 100));
    let a256 = (
        posted(Alpu256, 0),
        posted(Alpu256, 200),
        posted(Alpu256, 300),
    );
    let cached = (b200 - b0) / 200.0;
    let spilled = (b500 - b425) / 75.0;

    let flat = |a: f64, b: f64| (a - b).abs() < 150.0;
    tally.check(
        "ALPU-128 flat 0..100",
        flat(a128.0, a128.1),
        format!("{a128:?} ns"),
    );
    tally.check(
        "ALPU-256 flat 0..200",
        flat(a256.0, a256.1),
        format!("{a256:?} ns"),
    );
    tally.check(
        "ALPU-256 beats baseline 2x at 300",
        b300 >= 2.0 * a256.2,
        format!("baseline {b300} ns vs ALPU-256 {} ns", a256.2),
    );
    tally.check(
        "baseline grows with depth",
        base.windows(2).all(|w| w[0] < w[1]),
        format!("{base:?} ns at depths 0/200/300/425/500"),
    );

    // Fig. 6: the first depth (interpolated on the step-10 grid) at which
    // ALPU-128 beats the baseline by a clear margin.
    let mut gaps = Vec::new();
    for q in anchors::crossover_depths() {
        let b = anchor_ns(anchors::unexpected(Baseline, q), t, tally).unwrap_or(f64::NAN);
        let a = anchor_ns(anchors::unexpected(Alpu128, q), t, tally).unwrap_or(f64::NAN);
        gaps.push((q as f64, b - a));
    }
    let crossover = gaps
        .iter()
        .position(|&(_, g)| g > CLEAR_ADVANTAGE_NS)
        .map(|i| match i {
            0 => gaps[0].0,
            _ => {
                let ((q0, g0), (q1, g1)) = (gaps[i - 1], gaps[i]);
                q0 + (CLEAR_ADVANTAGE_NS - g0) / (g1 - g0) * (q1 - q0)
            }
        });
    tally.check(
        "Fig. 6 crossover within 0..200",
        crossover.is_some(),
        format!("{gaps:?}"),
    );
    let crossover = crossover.unwrap_or(f64::NAN);
    (
        err_pct(cached, PAPER_NS_PER_ENTRY_CACHED),
        err_pct(spilled, PAPER_NS_PER_ENTRY_SPILLED),
        err_pct(crossover, PAPER_CROSSOVER_ENTRIES),
    )
}

/// Host measurements of one pass, for the traced run.
#[derive(Default)]
struct Pass {
    traced: bool,
    wall_s: f64,
    run_s: f64,
    events: u64,
    spans: std::ops::Range<usize>,
}

/// One op's host times, in seconds.
#[derive(Clone, Copy)]
struct OpTimes {
    wall_s: f64,
    /// CPU time of the thread that ran the op.
    cpu_s: f64,
    setup_s: f64,
    run_s: f64,
}

impl OpTimes {
    /// Before the first repetition, and for an op that failed in any
    /// pass: a failed op misses any time limit.
    const NEVER: OpTimes = OpTimes {
        wall_s: f64::INFINITY,
        cpu_s: f64::INFINITY,
        setup_s: f64::INFINITY,
        run_s: f64::INFINITY,
    };

    fn min(self, o: OpTimes) -> OpTimes {
        OpTimes {
            wall_s: self.wall_s.min(o.wall_s),
            cpu_s: self.cpu_s.min(o.cpu_s),
            setup_s: self.setup_s.min(o.setup_s),
            run_s: self.run_s.min(o.run_s),
        }
    }
}

fn run_workload(w: Workload, args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut checks = Tally::default();
    let mut t = Tracer::new(false);
    let (err_cached, err_spilled, err_crossover) = fidelity(&mut t, &mut checks);

    let mut ops = w.pass(args.seed);
    if args.quick {
        ops.truncate(QUICK_OPS);
    }

    // Determinism across worker counts, on the pass's first op.
    let (one, one_s) = run_op(&ops[0], Some(1), &mut t, 0);
    let (two, two_s) = run_op(&ops[0], Some(2), &mut t, 0);
    let same = match (&one, &two) {
        (Ok(a), Ok(b)) if a.stats_json == b.stats_json => Ok(()),
        (Ok(_), Ok(_)) => Err("stats differ between 1 and 2 workers".to_string()),
        (Err(e), _) | (_, Err(e)) => Err(e.clone()),
    };
    checks.record(&format!("{} op 0 at 1 vs 2 workers", w.name()), same);

    // Layer probes come before the passes too, so that the passes fill
    // what is left of `--seconds`.
    let probed = if args.trace {
        t.set_enabled(true);
        probes::run_all(&mut t)
    } else {
        Vec::new()
    };

    sys::reset_peak_rss()?;
    let mut passes: Vec<Pass> = Vec::new();
    // Each op's fastest repetition, and the reference kernel's.
    let mut best = vec![OpTimes::NEVER; ops.len()];
    let mut ref_kernel_s = f64::INFINITY;
    // Pass 0's outcome per op: the reference every later pass must repeat.
    let mut first: Vec<Option<(f64, u64, Counts)>> = Vec::new();
    for p in 0u64.. {
        ref_kernel_s = ref_kernel_s.min(sys::ref_kernel_s());
        let traced = args.trace && p % 2 == 0;
        t.set_enabled(traced);
        let spans_from = t.len();
        let (pass, wall_s) = t.span("bench.pass", p, |t| {
            let mut pass = Pass {
                traced,
                ..Pass::default()
            };
            for (i, op) in ops.iter().enumerate() {
                let id = p * ops.len() as u64 + i as u64 + 1;
                let cpu0 = sys::thread_cpu_seconds()?;
                let (r, secs) = run_op(op, None, t, id);
                let cpu_s = sys::thread_cpu_seconds()? - cpu0;
                let r = r.and_then(|o: Outcome| match first.get(i) {
                    Some(Some((_, digest, _))) if *digest != o.digest => Err(format!(
                        "pass {p} digest {:016x} != pass 0 digest {digest:016x}",
                        o.digest
                    )),
                    _ => Ok(o),
                });
                let o = tally.record(&format!("{} op {i} {op:?}", w.name()), r);
                match &o {
                    Some(o) => {
                        pass.run_s += o.stages.run_s;
                        pass.events += o.counts.events;
                        let times = OpTimes {
                            wall_s: secs,
                            cpu_s,
                            setup_s: o.stages.setup_s,
                            run_s: o.stages.run_s,
                        };
                        // Once failed, an op stays at NEVER.
                        if p == 0 || best[i].wall_s.is_finite() {
                            best[i] = best[i].min(times);
                        }
                    }
                    None => best[i] = OpTimes::NEVER,
                }
                if p == 0 {
                    first.push(o.map(|o| (o.sim_latency_us, o.digest, o.counts)));
                }
            }
            Ok::<Pass, String>(pass)
        });
        let mut pass = pass?;
        pass.wall_s = wall_s;
        pass.spans = spans_from..t.len();
        passes.push(pass);
        // Stop before a pass that would end past `--seconds`, taking this
        // pass's wall time as the next one's.
        let done = if args.quick {
            p >= 1
        } else {
            p + 1 >= MIN_PASSES && start.elapsed().as_secs_f64() + wall_s > args.seconds
        };
        if done {
            break;
        }
    }
    let peak_rss_mb = sys::peak_rss_mb()?;

    let ok_first: Vec<&(f64, u64, Counts)> = first.iter().flatten().collect();
    let mut digest = sys::Fnv::new();
    for (_, d, _) in &ok_first {
        digest.write_u64(*d);
    }
    let sim_lat: Vec<f64> = ok_first.iter().map(|(l, _, _)| *l).collect();
    let q = |xs: &[f64], p: f64| {
        if xs.is_empty() {
            f64::NAN
        } else {
            quantile(xs, p)
        }
    };
    let mut info = vec![
        ("ops".to_string(), tally.attempted.to_string(), "count"),
        ("pass_ops".to_string(), ops.len().to_string(), "count"),
        ("passes".to_string(), passes.len().to_string(), "count"),
        (
            "fail_rate".to_string(),
            (tally.failed as f64 / tally.attempted as f64).to_string(),
            "ratio",
        ),
        ("checks".to_string(), checks.attempted.to_string(), "count"),
        (
            "checks_failed".to_string(),
            checks.failed.to_string(),
            "count",
        ),
        (
            "sim_digest".to_string(),
            format!("{:016x}", digest.0),
            "fnv1a",
        ),
        (
            "ref_kernel_ms".to_string(),
            (ref_kernel_s * 1e3).to_string(),
            "ms",
        ),
    ];

    let metrics = if !args.trace {
        // Host times at the reference host speed: each op at its fastest
        // repetition, scaled by how much slower than its reference time
        // the reference kernel ran at its fastest in this run.
        let scale = sys::REF_KERNEL_S / ref_kernel_s;
        let sum = |f: fn(&OpTimes) -> f64| best.iter().map(f).sum::<f64>() * scale;
        let events: u64 = ok_first.iter().map(|(_, _, c)| c.events).sum();
        let point_ms: Vec<f64> = best.iter().map(|b| b.wall_s * scale * 1e3).collect();
        vec![
            ("wall_s", sum(|b| b.wall_s), "s"),
            ("cpu_s", sum(|b| b.cpu_s), "s"),
            ("setup_s", sum(|b| b.setup_s), "s"),
            ("sim_events_per_s", events as f64 / sum(|b| b.run_s), "1/s"),
            ("point_ms_p50", quantile(&point_ms, 0.5), "ms"),
            ("point_ms_p90", quantile(&point_ms, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("sim_latency_us_p50", q(&sim_lat, 0.5), "us"),
            ("sim_latency_us_p90", q(&sim_lat, 0.9), "us"),
            ("paper_err_cached_pct", err_cached, "%"),
            ("paper_err_spilled_pct", err_spilled, "%"),
            ("paper_err_crossover_pct", err_crossover, "%"),
        ]
    } else {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let untraced: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.wall_s)
            .collect();
        let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let self_times: Vec<BTreeMap<&str, f64>> = traced
            .iter()
            .map(|p| t.self_times(p.spans.clone()))
            .collect();
        let self_s = |name: &str| {
            median(
                &self_times
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let mut counts = Counts::default();
        for (_, _, c) in &ok_first {
            counts.add(c);
        }
        let run_s: f64 = traced.iter().map(|p| p.run_s).sum();
        let events: u64 = traced.iter().map(|p| p.events).sum();

        // Where a traced pass's wall time went, by span name (mean over
        // traced passes).
        let mut table: BTreeMap<&str, f64> = BTreeMap::new();
        for m in &self_times {
            for (name, s) in m {
                *table.entry(name).or_insert(0.0) += s / self_times.len() as f64;
            }
        }
        let mpi: f64 = table
            .iter()
            .filter(|(n, _)| n.starts_with("mpi."))
            .map(|(_, s)| s)
            .sum();
        for (name, s) in &table {
            info.push((format!("self_s.{name}"), s.to_string(), "s"));
        }
        let mean_wall = traced.iter().map(|p| p.wall_s).sum::<f64>() / traced.len() as f64;
        info.push((
            "trace_coverage_pct".to_string(),
            (mpi / mean_wall * 100.0).to_string(),
            "%",
        ));

        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut m = vec![
            ("mpi.script_build_s", self_s("mpi.script_build"), "s"),
            ("mpi.cluster_new_s", self_s("mpi.cluster_new"), "s"),
            ("mpi.cluster_run_s", self_s("mpi.cluster_run"), "s"),
            ("mpi.readout_s", self_s("mpi.readout"), "s"),
            ("mpi.cluster_drop_s", self_s("mpi.cluster_drop"), "s"),
            (
                "dessim.host_ns_per_event",
                run_s / events as f64 * 1e9,
                "ns",
            ),
            ("dessim.speedup_2t", one_s / two_s, "x"),
            (
                "trace_overhead_pct",
                (traced_wall / median(&untraced) - 1.0) * 100.0,
                "%",
            ),
        ];
        m.extend(probed);
        let c = &counts;
        m.extend([
            ("dessim.events", c.events as f64, "count"),
            ("net.messages", c.net_messages as f64, "count"),
            ("net.bytes", c.net_bytes as f64, "bytes"),
            ("nic.posted_traversed", c.posted_traversed as f64, "count"),
            (
                "nic.unexpected_traversed",
                c.unexpected_traversed as f64,
                "count",
            ),
            ("nic.posted_alpu_hits", c.posted_alpu_hits as f64, "count"),
            (
                "nic.unexpected_alpu_hits",
                c.unexpected_alpu_hits as f64,
                "count",
            ),
            ("nic.insert_sessions", c.insert_sessions as f64, "count"),
            ("nic.retransmits", c.retransmits as f64, "count"),
            (
                "nic.retransmit_ratio",
                ratio(c.retransmits, c.net_messages),
                "ratio",
            ),
            ("nic.admission_refused", c.admission_refused as f64, "count"),
            ("nic.credit_stalls", c.credit_stalls as f64, "count"),
            ("nic.coll_offloaded", c.coll_offloaded as f64, "count"),
            ("mpi.host_completions", c.host_completions as f64, "count"),
            (
                "memsim.l1_miss_ratio",
                ratio(c.l1_misses, c.l1_hits + c.l1_misses),
                "ratio",
            ),
            (
                "memsim.dram_row_miss_ratio",
                1.0 - ratio(c.dram_row_hits, c.dram_accesses),
                "ratio",
            ),
        ]);
        if let Some(path) = &args.trace_out {
            std::fs::write(path, t.chrome_json()).map_err(|e| format!("writing {path}: {e}"))?;
        }
        m
    };
    Ok(Report {
        workload: w,
        ops: tally,
        checks,
        metrics,
        info,
    })
}

/// `--repeat N`: N untraced sets, alternating the workload order between
/// sets; prints each metric's median and quartiles per workload.
fn repeat(args: &Args, n: usize) -> Result<bool, String> {
    let mut samples: BTreeMap<(usize, &'static str), (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut ok = true;
    for set in 0..n {
        let mut order = args.workloads.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let r = run_workload(w, args)?;
            r.print();
            ok &= r.ok();
            let wi = Workload::ALL
                .iter()
                .position(|&x| x == w)
                .expect("known workload");
            for &(name, v, unit) in &r.metrics {
                samples
                    .entry((wi, name))
                    .or_insert_with(|| (Vec::new(), unit))
                    .0
                    .push(v);
            }
        }
    }
    println!("workload metric median q1 q3 iqr_pct_of_median unit");
    for ((wi, name), (xs, unit)) in &samples {
        let (q1, med, q3) = (quantile(xs, 0.25), median(xs), quantile(xs, 0.75));
        let iqr = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs() * 100.0
        };
        println!(
            "{} {name} {med} {q1} {q3} {iqr:.2} {unit}",
            Workload::ALL[*wi].name()
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match args.repeat {
        Some(n) => repeat(&args, n),
        None => args.workloads.iter().try_fold(true, |ok, &w| {
            let r = run_workload(w, &args)?;
            r.print();
            Ok(ok && r.ok())
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
