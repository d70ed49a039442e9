//! Collectives bench: NIC-offloaded vs host-driven barrier/bcast/
//! allreduce on the hub crossbar and the switched fat-tree, 64 to 1024
//! ranks — the scaling curve behind EXPERIMENTS.md's offload section.
//!
//! ```text
//! cargo run --release -p mpiq-bench --bin collectives -- [--ranks 64,128]
//!     [--ops barrier,allreduce] [--topos hub,fattree] [--modes offload,host]
//!     [--len 64] [--iters 4]
//!     [--out BENCH_collectives.json] [--check BENCH_collectives.json]
//!     [--tolerance 10]
//! ```
//!
//! Every (ranks, op, topo, mode) cell runs the same script — `--iters`
//! back-to-back collectives per rank — and reports *simulated* metrics,
//! which are deterministic for a given seed and code version:
//!
//! * `sim_ns_per_op` — wall time of the collective sequence in simulated
//!   nanoseconds (latest final mark minus earliest initial mark),
//!   divided by `--iters`;
//! * `host_completions` — total completions delivered to host CPUs. The
//!   offload engine's whole point is that this collapses from one per
//!   tree edge to one per collective per rank;
//! * `events`, `wall_ms` — engine cost of the cell (not gated).
//!
//! The flags assemble a [`RunSpec`] executed by [`mpiq_bench::exec`].
//! The headline
//! acceptance claim (offload must finish with fewer host completions
//! and no more simulated time than host-driven on the same fabric) is
//! enforced inside the executor; violations come back as result
//! failures and exit 1.
//!
//! `--check PATH` compares every current cell against the tracked
//! baseline's matching cell and fails (exit 1) when `sim_ns_per_op`
//! drifts more than `--tolerance` percent in *either* direction — these
//! are simulated numbers, so both regressions and silent model changes
//! are findings.

use mpiq_bench::cli::Cli;
use mpiq_bench::exec;
use mpiq_bench::jsonlint::{self, Json};
use mpiq_bench::report::{self, json_f64, json_str};
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

/// Render the tracked document; validated by `jsonlint` before writing.
fn render(rows: &[ResultRow], len: u32, iters: u32, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"collectives\",\n");
    out.push_str(&format!("  \"version\": {},\n", json_str(&code_version())));
    out.push_str(&format!(
        "  \"config\": {{\"len\": {len}, \"iters\": {iters}, \"seed\": {seed}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"ranks\": {}, \"op\": {}, \"topo\": {}, \"mode\": {}, \
             \"sim_ns_per_op\": {}, \"host_completions\": {}, \"events\": {}, \
             \"wall_ms\": {}}}{comma}\n",
            r.num("ranks").unwrap_or(0.0) as u64,
            json_str(&r.text("op").unwrap_or_default()),
            json_str(&r.text("topo").unwrap_or_default()),
            json_str(&r.text("mode").unwrap_or_default()),
            json_f64(r.num("sim_ns_per_op").unwrap_or(0.0)),
            r.num("host_completions").unwrap_or(0.0) as u64,
            r.num("events").unwrap_or(0.0) as u64,
            json_f64(r.num("wall_ms").unwrap_or(0.0)),
        ));
    }
    out.push_str("  ]\n}\n");
    jsonlint::validate(&out).expect("collectives emitted invalid JSON");
    out
}

/// Compare current cells against the tracked baseline. `sim_ns_per_op`
/// is deterministic, so drift in either direction past the band is a
/// failure. Baseline rows with no matching current cell are skipped; a
/// baseline matching nothing is an error (the gate would be vacuous).
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
        let ranks = r.num("ranks").unwrap_or(0.0) as u64;
        let op = r.text("op").unwrap_or_default();
        let topo = r.text("topo").unwrap_or_default();
        let mode = r.text("mode").unwrap_or_default();
        let sim_ns_per_op = r.num("sim_ns_per_op").unwrap_or(0.0);
        let Some(base) = base_rows.iter().find(|b| {
            b.get("ranks").and_then(Json::as_u64) == Some(ranks)
                && b.get("op").and_then(Json::as_str) == Some(op.as_str())
                && b.get("topo").and_then(Json::as_str) == Some(topo.as_str())
                && b.get("mode").and_then(Json::as_str) == Some(mode.as_str())
        }) else {
            continue;
        };
        let base_ns = base
            .get("sim_ns_per_op")
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                format!("baseline row ({ranks} ranks, {op}, {topo}, {mode}) has no sim_ns_per_op")
            })?;
        matched += 1;
        let drift = (sim_ns_per_op / base_ns - 1.0) * 100.0;
        if drift.abs() > tolerance_pct {
            failures.push(format!(
                "{} ranks {} {} {}: {:.0} ns/op drifts {:+.1}% from baseline {:.0} \
                 (version {}, tolerance ±{}%)",
                ranks, op, topo, mode, sim_ns_per_op, drift, base_ns, base_version, tolerance_pct,
            ));
        }
    }
    if matched == 0 {
        return Err("no baseline row matches any current cell — \
                    regenerate the baseline with --out"
            .to_string());
    }
    Ok(failures)
}

fn main() {
    let cli = Cli::parse(
        "collectives",
        "NIC-offloaded vs host-driven collectives across fabrics and scales",
        flags("collectives"),
    );
    let spec = RunSpec::from_cli("collectives", &cli).unwrap_or_else(|e| {
        eprintln!("collectives: {e}");
        std::process::exit(2);
    });
    let BenchSpec::Collectives {
        ranks,
        ops,
        topos,
        modes,
        len,
        iters,
    } = spec.bench.clone()
    else {
        unreachable!()
    };
    let tolerance: f64 = cli.get("tolerance", 10.0);
    let seed = spec.seed.unwrap_or(1);

    eprintln!(
        "collectives: ranks {ranks:?}, ops {ops:?}, topos {topos:?}, modes {modes:?}, \
         {iters} iters, seed {seed}"
    );

    // `--out` writes the tracked baseline document, not plain rows, so
    // it is handled here instead of in `emit`.
    let result = exec::execute(&spec).unwrap_or_else(|e| {
        eprintln!("collectives: {e}");
        std::process::exit(1);
    });
    let ok = report::emit(&result, None).expect("stdout");

    if let Some(path) = &cli.common.out {
        let doc = render(&result.rows, len, iters, seed);
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create output directory");
            }
        }
        std::fs::write(path, &doc).expect("write json");
        eprintln!("collectives: wrote {path}");
    }

    if let Some(path) = cli.get_str("check") {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("collectives: cannot read baseline {path}: {e}"));
        match check_baseline(&baseline, &result.rows, tolerance) {
            Ok(failures) if failures.is_empty() => {
                eprintln!("collectives: within ±{tolerance}% of baseline {path}");
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("collectives: DRIFT: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("collectives: bad baseline {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
