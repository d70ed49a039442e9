//! Result emission: CSV to stdout, the run's record to `--out`, and the
//! `--check` gate against a tracked record. JSON is rendered by hand, so
//! the crate has no serialization dependency.

use crate::cli::Cli;
use crate::jsonlint::{self, Json};
use crate::spec::{ResultRow, RunResult, RunSpec, Value};
use crate::TracedRun;
use mpiq_dessim::watchdog::Diagnosis;
use std::io::{ErrorKind, Write as _};
use std::path::Path;
use std::process::exit;

/// Print `text` to stdout, the one way the bins print there. A closed
/// stdout (its reader went away, as `bin | head` does) is not an error:
/// the text is dropped, and the run still writes `--out`, runs its gate
/// and exits with its own status. Any other write error is one line on
/// stderr and exit 1.
pub fn print(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("cannot write stdout: {e}");
            exit(1);
        }
        _ => {}
    }
}

/// Render a string as a JSON string literal (quoted and escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float as a JSON number (JSON has no NaN/inf; map to null).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The checked-out commit, suffixed `-dirty` when a tracked code path
/// ([`is_code_path`]) differs from it, or `unknown` outside a checkout.
/// A changed record or document leaves the stamp clean, so re-recording
/// a tracked baseline twice in a row stamps the same version.
fn code_version() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let Some(commit) = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    let changed = git(&["diff", "--name-only", "HEAD"]).unwrap_or_default();
    if changed.lines().any(is_code_path) {
        format!("{commit}-dirty")
    } else {
        commit
    }
}

/// Is `path` (relative to the repository root) part of what builds the
/// program: the crates, the root package, the shims, the benchmark and
/// the root manifests?
fn is_code_path(path: &str) -> bool {
    ["crates/", "src/", "shims/", "benchmark/"]
        .iter()
        .any(|dir| path.starts_with(dir))
        || path
            .strip_prefix("Cargo.")
            .is_some_and(|rest| !rest.contains('/'))
}

/// The record `{bench, version, command, rows}` of a run: the code
/// version stamp, the command line that reproduces the run, and one
/// line per row. This is what `--out` writes and `--check` reads back
/// through [`check_baseline`].
pub fn record(bench: &str, command: &[String], rows: &[ResultRow]) -> String {
    let command: Vec<String> = command.iter().map(|arg| json_str(arg)).collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .0
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), v.json()))
                .collect();
            format!("    {{{}}}", cells.join(", "))
        })
        .collect();
    let doc = format!(
        "{{\n  \"bench\": {},\n  \"version\": {},\n  \"command\": [{}],\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_str(bench),
        json_str(&code_version()),
        command.join(", "),
        rows.join(",\n"),
    );
    jsonlint::validate(&doc).expect("a run's record is valid JSON");
    doc
}

/// Write `doc` into `path`, creating parent directories as needed. A
/// path that cannot be written is one line, `NAME: cannot write PATH:
/// ERROR`, and exit 1.
fn write(cli: &Cli, path: &str, doc: &str) {
    let file = Path::new(path);
    let dir = file.parent().map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = dir.and_then(|()| std::fs::write(file, doc)) {
        eprintln!("{}: cannot write {path}: {e}", cli.name());
        exit(1);
    }
}

/// The shared epilogue of the spec bins: execute `spec`, print the CSV
/// to stdout and the notes to stderr, write the run's [`record`] to
/// `--out` when the bin takes it, then hand the result to `present`
/// (plots, traces, the `--check` gate). An execution error, an
/// unwritable `--out` and acceptance failures exit 1.
pub fn run(cli: &Cli, spec: &RunSpec, present: impl FnOnce(&RunResult)) {
    let name = cli.name();
    let result = crate::exec::execute(spec).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        exit(1)
    });
    print(&result.csv());
    for note in &result.notes {
        eprintln!("{note}");
    }
    if let Some(path) = &cli.common.out {
        write(
            cli,
            path,
            &record(&result.bench, &cli.command(), &result.rows),
        );
        eprintln!("{name}: wrote {} rows to {path}", result.rows.len());
    }
    for f in &result.failures {
        eprintln!("FAIL: {f}");
    }
    present(&result);
    if !result.failures.is_empty() {
        exit(1);
    }
}

/// `--trace-out PATH` and `--metrics`: when either is given, run the
/// bin's one instrumented point (`traced`, on NIC `config`), write its
/// Chrome timeline to PATH and print its histograms to stderr. An
/// unwritable PATH, like an unwritable `--out`, and a traced point that
/// stalls are one line and exit 1.
pub fn trace(cli: &Cli, config: &str, traced: impl FnOnce() -> Result<TracedRun, Box<Diagnosis>>) {
    let (name, common) = (cli.name(), &cli.common);
    if common.trace_out.is_none() && !common.metrics {
        return;
    }
    let run = traced().unwrap_or_else(|d| {
        eprintln!("{name}: traced {config} point stalled: {}", d.headline());
        exit(1)
    });
    if run.dropped > 0 {
        eprintln!(
            "{name}: trace ring overflowed, {} records dropped",
            run.dropped
        );
    }
    if let Some(path) = &common.trace_out {
        write(cli, path, &run.chrome_json);
        eprintln!(
            "{name}: wrote {} trace records ({config} config) to {path}",
            run.records
        );
    }
    if common.metrics {
        eprintln!("{}", run.metrics_text);
    }
}

/// How a gated metric may move against its baseline value.
#[derive(Clone, Copy, Debug)]
pub enum Band {
    /// Either direction: a simulated, deterministic metric, where any
    /// drift past the tolerance is a finding. A 0 baseline passes only 0.
    Both,
    /// A floor: a measured rate, where only a drop past the tolerance
    /// fails.
    Floor,
}

/// Pair each current row with the baseline row whose `keys` fields are
/// equal, and check every `metrics` field of each pair against its band.
/// `baseline` is a run's [`record`]. Returns one line per out-of-band
/// metric (empty = pass). Unpaired rows on either side are skipped, but
/// a baseline that pairs no row, or a pair without a metric, is an
/// error: the gate would check nothing.
pub fn check_baseline(
    baseline: &str,
    rows: &[ResultRow],
    keys: &[&str],
    metrics: &[(&str, Band)],
    tolerance_pct: f64,
) -> Result<Vec<String>, String> {
    let doc = jsonlint::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let version = doc.get("version").and_then(Json::as_str).unwrap_or("?");
    let base_rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("baseline holds no array of rows")?;
    let mut failures = Vec::new();
    let mut paired = 0usize;
    for row in rows {
        let key: Vec<Option<Json>> = keys
            .iter()
            .map(|&k| row.get(k).map(Value::to_json))
            .collect();
        let Some(base) = base_rows
            .iter()
            .find(|b| keys.iter().zip(&key).all(|(&k, v)| b.get(k) == v.as_ref()))
        else {
            continue;
        };
        paired += 1;
        let label: Vec<String> = keys
            .iter()
            .map(|&k| format!("{k}={}", row.get(k).map_or("?".to_string(), Value::csv)))
            .collect();
        let label = label.join(" ");
        for &(field, band) in metrics {
            let (Some(now), Some(was)) = (row.num(field), base.get(field).and_then(Json::as_f64))
            else {
                return Err(format!(
                    "{label}: no {field} to compare (baseline version {version})"
                ));
            };
            let drift = match (was == 0.0, now == 0.0) {
                (true, true) => 0.0,
                (true, false) => f64::INFINITY,
                (false, _) => (now / was - 1.0) * 100.0,
            };
            let out = match band {
                Band::Both => drift.abs() > tolerance_pct,
                Band::Floor => drift < -tolerance_pct,
            };
            if out {
                failures.push(format!(
                    "{label}: {field} {now:.0} drifts {drift:+.1}% from baseline {was:.0} \
                     (version {version}, tolerance {tolerance_pct}%)"
                ));
            }
        }
    }
    if paired == 0 {
        return Err("no baseline row pairs with any current row; \
                    regenerate the baseline with --out"
            .to_string());
    }
    Ok(failures)
}

/// The `--check PATH` gate of a bin with a tracked baseline: when the
/// flag is given, run [`check_baseline`] on `rows` with `--tolerance`
/// (default `default_tolerance`), print the verdict to stderr, and exit
/// 1 on any drift or on a baseline that cannot be checked.
pub fn gate(
    cli: &Cli,
    rows: &[ResultRow],
    keys: &[&str],
    metrics: &[(&str, Band)],
    default_tolerance: f64,
) {
    let Some(path) = cli.get_str("check") else {
        return;
    };
    let tolerance: f64 = cli.get("tolerance", default_tolerance);
    let name = cli.name();
    let checked = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read it: {e}"))
        .and_then(|text| check_baseline(&text, rows, keys, metrics, tolerance));
    match checked {
        Ok(failures) if failures.is_empty() => {
            eprintln!("{name}: every paired row within {tolerance}% of {path}");
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("{name}: DRIFT: {f}");
            }
            exit(1);
        }
        Err(e) => {
            eprintln!("{name}: bad baseline {path}: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_code_paths_dirty_the_version() {
        for code in [
            "crates/bench/src/report.rs",
            "crates/dessim/Cargo.toml",
            "src/lib.rs",
            "shims/proptest/src/lib.rs",
            "benchmark/src/main.rs",
            "Cargo.toml",
            "Cargo.lock",
        ] {
            assert!(is_code_path(code), "{code}");
        }
        for other in [
            "BENCH_scaling.json",
            "ROADMAP.md",
            "CHANGES.md",
            "tests/golden/stats_registry.txt",
            ".github/workflows/ci.yml",
            "examples/quickstart.rs",
            "docs/Cargo.toml",
            "srcs/x.rs",
        ] {
            assert!(!is_code_path(other), "{other}");
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}\t"), "\"\\u0001\\t\"");
        assert_eq!(json_f64(1.5), "1.5");
    }

    /// JSON has no NaN/Infinity literals; every non-finite value must
    /// render as `null` so downstream parsers never see `inf` or `NaN`
    /// (which `format!("{v}")` would happily produce).
    #[test]
    fn json_f64_maps_every_non_finite_to_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(-f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        // Near-misses must stay numbers.
        assert_eq!(json_f64(f64::MAX), format!("{}", f64::MAX));
        assert_eq!(json_f64(-0.0), "-0");
        assert_eq!(json_f64(0.0), "0");
    }

    /// Non-finite reals land in a record as `null` fields, keeping the
    /// whole document machine-parseable; the gate reads them as absent.
    #[test]
    fn write_json_with_non_finite_values_stays_valid() {
        let rows: Vec<_> = [f64::INFINITY, 2.0, f64::NAN]
            .iter()
            .map(|&v| ResultRow(vec![("v", Value::Real(v, Some(1)))]))
            .collect();
        let text = record("t", &[], &rows);
        assert!(text.contains("{\"v\": null}"), "{text}");
        assert!(text.contains("{\"v\": 2}"), "{text}");
        assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
        assert_eq!(rows[0].num("v"), None);
        assert_eq!(rows[0].get("v").unwrap().to_json(), Json::Null);
    }

    /// Each cell is written once and read back the same from the CSV
    /// line, the record, and the typed lookups.
    #[test]
    fn json_roundtrip() {
        let rows = [
            ResultRow(vec![
                ("x", Value::Int(1)),
                ("name", Value::Text("a".into())),
            ]),
            ResultRow(vec![
                ("x", Value::Int(2)),
                ("name", Value::Text("b".into())),
            ]),
        ];
        let result = RunResult {
            rows: rows.to_vec(),
            ..RunResult::default()
        };
        assert_eq!(result.csv(), "x,name\n1,a\n2,b\n");
        let text = record("t", &["t".to_string()], &rows);
        let doc = jsonlint::parse(&text).unwrap();
        let back = doc.get("rows").and_then(Json::as_array).unwrap();
        for (row, json) in rows.iter().zip(back) {
            for (k, v) in &row.0 {
                assert_eq!(json.get(k), Some(&v.to_json()), "{text}");
            }
        }
        assert_eq!(rows[1].text("name"), Some("b"));
        assert_eq!(rows[1].num("x"), Some(2.0));
        assert_eq!(rows[1].num("name"), None);
    }

    fn cell(op: &str, ns: f64, eps: f64) -> ResultRow {
        ResultRow(vec![
            ("op", Value::Text(op.to_string())),
            ("sim_ns_per_op", Value::Real(ns, Some(0))),
            ("events_per_sec", Value::Real(eps, Some(0))),
        ])
    }

    /// A record is what `check_baseline` reads back: every cell's full
    /// value is written, the command is recorded, and the rows pair.
    #[test]
    fn tracked_record_reads_back_through_the_gate() {
        let rows = [cell("barrier", 4974.5, 2e6), cell("bcast", 100.0, 1e6)];
        let command = ["t", "--iters", "4"].map(String::from);
        let text = record("t", &command, &rows);
        assert!(
            text.contains("  \"command\": [\"t\", \"--iters\", \"4\"],\n"),
            "{text}"
        );
        assert!(
            text.contains("    {\"op\": \"barrier\", \"sim_ns_per_op\": 4974.5, \"events_per_sec\": 2000000},\n"),
            "{text}"
        );
        let checked = check_baseline(&text, &rows, &["op"], &[("sim_ns_per_op", Band::Both)], 0.0);
        assert_eq!(checked, Ok(vec![]));
    }

    /// The shared gate: in-band rows pass, drifted rows fail (both ways
    /// for `Both`, only downward for `Floor`), and a baseline the rows
    /// cannot be checked against is an error.
    #[test]
    fn gate_pairs_rows_and_checks_each_band() {
        let base = r#"{"version": "abc", "rows": [
            {"op": "barrier", "sim_ns_per_op": 1000, "events_per_sec": 100},
            {"op": "bcast", "sim_ns_per_op": 0, "events_per_sec": 100},
            {"op": "gather"}
        ]}"#;
        let check = |rows: &[ResultRow], band: Band| {
            let metric = match band {
                Band::Both => "sim_ns_per_op",
                Band::Floor => "events_per_sec",
            };
            check_baseline(base, rows, &["op"], &[(metric, band)], 10.0)
        };
        // In band, including a 0 baseline met by 0; unpaired rows skipped.
        let in_band = [
            cell("barrier", 1090.0, 91.0),
            cell("bcast", 0.0, 100.0),
            cell("reduce", 1.0, 1.0),
        ];
        assert_eq!(check(&in_band, Band::Both), Ok(vec![]));
        assert_eq!(check(&in_band, Band::Floor), Ok(vec![]));
        // Drifted: +50% fails `Both` but not `Floor`; a drop fails both.
        let up = [cell("barrier", 1500.0, 150.0)];
        let drift = check(&up, Band::Both).unwrap();
        assert_eq!(drift.len(), 1);
        assert!(
            drift[0].starts_with("op=barrier: sim_ns_per_op 1500 drifts +50.0%"),
            "{drift:?}"
        );
        assert!(drift[0].contains("version abc"), "{drift:?}");
        assert_eq!(check(&up, Band::Floor), Ok(vec![]));
        let down = [cell("barrier", 800.0, 80.0)];
        assert_eq!(check(&down, Band::Both).unwrap().len(), 1);
        assert_eq!(check(&down, Band::Floor).unwrap().len(), 1);
        // A 0 baseline passes only 0.
        assert_eq!(
            check(&[cell("bcast", 5.0, 100.0)], Band::Both)
                .unwrap()
                .len(),
            1
        );
        // A baseline that pairs nothing is an error.
        let err = check(&[cell("reduce", 1.0, 1.0)], Band::Both).unwrap_err();
        assert!(err.contains("no baseline row pairs"), "{err}");
        // So is a paired row without the metric.
        let err = check(&[cell("gather", 1.0, 1.0)], Band::Both).unwrap_err();
        assert!(err.contains("op=gather: no sim_ns_per_op"), "{err}");
        // And a document that is not a record.
        let rows_only = r#"[{"op": "barrier", "sim_ns_per_op": 1000}]"#;
        let checked = check_baseline(
            rows_only,
            &up,
            &["op"],
            &[("sim_ns_per_op", Band::Both)],
            10.0,
        );
        assert_eq!(checked, Err("baseline holds no array of rows".to_string()));
    }
}
