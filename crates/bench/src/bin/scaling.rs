//! Scaling bench: wall-clock speedup of the sharded engine vs worker
//! threads, on a ≥16-rank incast soak — and the repo's tracked perf
//! trajectory.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin scaling -- [--senders 16] [--msgs 64]
//!     [--size 512] [--thread-counts 1,2,4] [--scenarios incast,hetero]
//!     [--out BENCH_scaling.json] [--check BENCH_scaling.json] [--tolerance 25]
//! ```
//!
//! Two wire profiles exercise the window planner:
//!
//! * `incast` — uniform 200 ns wires. Every cross-shard edge has the
//!   same lookahead; this row tracks raw engine throughput.
//! * `hetero` — the same incast over 1 µs wires with one 10 ns edge
//!   (nodes 1↔2). The per-edge planner constrains only the two shards
//!   touching the short edge.
//!
//! Each scenario runs at every `--thread-counts` entry and its
//! statistics dump is byte-compared against the scenario's first run —
//! the engine's determinism contract makes any divergence a hard error.
//! Speedup is relative to the first thread count of the same scenario;
//! only the wall clock may change.
//!
//! `--out PATH` writes the full document (code version stamp, config,
//! one row per run). The repo tracks `BENCH_scaling.json` at the root:
//! regenerate it with `--out BENCH_scaling.json` after perf-relevant
//! changes. `--check PATH` loads such a document and fails (exit 1)
//! when any current row's events/sec drops more than
//! `--tolerance` percent below the same (scenario, threads) row of the
//! baseline — CI runs both flags in one invocation.
//!
//! This bench measures *wall clock*, so its results are never memoized
//! (`BenchSpec::cacheable`): a `--server ADDR` submission re-runs on
//! the daemon every time, and `--check` always gates fresh timings.

use mpiq_bench::cli::Cli;
use mpiq_bench::jsonlint::{self, Json};
use mpiq_bench::report::{json_f64, json_str};
use mpiq_bench::service;
use mpiq_bench::spec::{flags, BenchSpec, ResultRow, RunSpec};

/// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
fn code_version() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Render the tracked document. Nested (header + rows), so the file
/// carries its own provenance; validated by `jsonlint` before writing.
fn render(rows: &[ResultRow], senders: u32, msgs: u32, size: u32, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scaling\",\n");
    out.push_str(&format!("  \"version\": {},\n", json_str(&code_version())));
    out.push_str(&format!(
        "  \"config\": {{\"senders\": {senders}, \"msgs\": {msgs}, \"size\": {size}, \"seed\": {seed}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"scenario\": {}, \"threads\": {}, \"wall_ms\": {}, \
             \"events\": {}, \"events_per_sec\": {}, \"speedup\": {}}}{comma}\n",
            json_str(&r.text("scenario").unwrap_or_default()),
            r.num("threads").unwrap_or(0.0) as u64,
            json_f64(r.num("wall_ms").unwrap_or(0.0)),
            r.num("events").unwrap_or(0.0) as u64,
            json_f64(r.num("events_per_sec").unwrap_or(0.0)),
            json_f64(r.num("speedup").unwrap_or(0.0)),
        ));
    }
    out.push_str("  ]\n}\n");
    jsonlint::validate(&out).expect("scaling emitted invalid JSON");
    out
}

/// Compare the current rows against a baseline document, matching rows
/// on (scenario, threads). Returns the failures (empty = pass). Baseline rows with no matching
/// current run (different thread list) are skipped; a baseline that
/// matches nothing at all is an error, because the gate would be
/// vacuous.
fn check_baseline(
    baseline: &str,
    rows: &[ResultRow],
    tolerance_pct: f64,
) -> Result<Vec<String>, String> {
    let doc = jsonlint::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let base_rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("baseline has no `rows` array")?;
    let base_version = doc.get("version").and_then(Json::as_str).unwrap_or("?");
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for r in rows {
        let scenario = r.text("scenario").unwrap_or_default();
        let threads = r.num("threads").unwrap_or(0.0) as u64;
        let events_per_sec = r.num("events_per_sec").unwrap_or(0.0);
        let Some(base) = base_rows.iter().find(|b| {
            b.get("scenario").and_then(Json::as_str) == Some(scenario.as_str())
                && b.get("threads").and_then(Json::as_u64) == Some(threads)
        }) else {
            continue;
        };
        let base_eps = base
            .get("events_per_sec")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                format!("baseline row ({scenario}, {threads} threads) has no events_per_sec")
            })?;
        matched += 1;
        let floor = base_eps * (1.0 - tolerance_pct / 100.0);
        if events_per_sec < floor {
            failures.push(format!(
                "{} @ {} threads: {:.0} events/s is {:.0}% below baseline {:.0} (version {}, tolerance {}%)",
                scenario,
                threads,
                events_per_sec,
                (1.0 - events_per_sec / base_eps) * 100.0,
                base_eps,
                base_version,
                tolerance_pct,
            ));
        }
    }
    if matched == 0 {
        return Err("no baseline row matches any current (scenario, threads) — \
                    regenerate the baseline with --out"
            .to_string());
    }
    Ok(failures)
}

fn main() {
    let cli = Cli::parse("scaling", "sharded-engine speedup vs worker threads", flags("scaling"));
    let spec = RunSpec::from_cli("scaling", &cli).unwrap_or_else(|e| {
        eprintln!("scaling: {e}");
        std::process::exit(2);
    });
    let BenchSpec::Scaling { senders, msgs, size, .. } = spec.bench.clone() else { unreachable!() };
    let tolerance: f64 = cli.get("tolerance", 25.0);
    let seed = spec.seed.unwrap_or(1);

    eprintln!(
        "scaling: incast, {} ranks, {} msgs x {} B, seed {seed}, host has {} core(s)",
        senders + 1,
        msgs,
        size,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // `--out` writes the tracked baseline document, not plain rows, so
    // it is handled here instead of in `emit`.
    let result = service::run_for_cli("scaling", cli.common.server.as_deref(), &spec)
        .unwrap_or_else(|e| {
            eprintln!("scaling: {e}");
            std::process::exit(1);
        });
    let ok = service::emit(&result, None).expect("stdout");

    if let Some(path) = &cli.common.out {
        let doc = render(&result.rows, senders, msgs, size, seed);
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(path, &doc).expect("write json");
        eprintln!("scaling: wrote {path}");
    }

    if let Some(path) = cli.get_str("check") {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("scaling: cannot read baseline {path}: {e}"));
        match check_baseline(&baseline, &result.rows, tolerance) {
            Ok(failures) if failures.is_empty() => {
                eprintln!("scaling: within {tolerance}% of baseline {path}");
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("scaling: REGRESSION: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("scaling: bad baseline {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
