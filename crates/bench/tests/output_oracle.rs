//! Output oracle for the bench bins: what each prints and records.
//!
//! For a small run of fig5 (plain and faulted), fig6, gap, breakeven,
//! soak (incast, chaos and the three curves) and collectives, the
//! transcript holds the bin's CSV stdout byte for byte and its `--out`
//! rows as canonical `key = JSON value` pairs. The bins that take no
//! `--out` (appstudy and the five ablations) are pinned by their stdout
//! alone. The rows are read from the document's
//! `rows` member, or from the document itself when it is a bare array,
//! so the pin holds across `--out` file formats. Host-time columns
//! (`wall_ms`, `events_per_sec`) are masked as `*` in both. Re-bless a
//! reviewed change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mpiq-bench --test output_oracle
//! ```

use mpiq_bench::jsonlint::{self, Json};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// Columns measured on the host, not simulated: they vary run to run.
const HOST_TIME: &[&str] = &["wall_ms", "events_per_sec"];

const CASES: &[(&str, &str, &[&str])] = &[
    (
        "fig5",
        env!("CARGO_BIN_EXE_fig5"),
        &[
            "--config",
            "alpu128",
            "--max-queue",
            "50",
            "--step",
            "25",
            "--fractions",
            "0.5,1",
            "--sizes",
            "0",
        ],
    ),
    (
        "fig5",
        env!("CARGO_BIN_EXE_fig5"),
        &[
            "--max-queue",
            "50",
            "--step",
            "50",
            "--fractions",
            "1",
            "--sizes",
            "0",
            "--faults",
            "seed=11,flip=0.05,stall=0.05",
        ],
    ),
    (
        "fig6",
        env!("CARGO_BIN_EXE_fig6"),
        &["--max-queue", "40", "--step", "20", "--sizes", "64"],
    ),
    ("gap", env!("CARGO_BIN_EXE_gap"), &["4"]),
    ("breakeven", env!("CARGO_BIN_EXE_breakeven"), &["4"]),
    (
        "soak",
        env!("CARGO_BIN_EXE_soak"),
        &[
            "--scenario",
            "incast",
            "--seeds",
            "1",
            "--senders",
            "4",
            "--msgs",
            "4",
        ],
    ),
    (
        "soak",
        env!("CARGO_BIN_EXE_soak"),
        &[
            "--scenario",
            "chaos",
            "--seeds",
            "1",
            "--senders",
            "7",
            "--node-mttr-us",
            "600",
        ],
    ),
    (
        "collectives",
        env!("CARGO_BIN_EXE_collectives"),
        &["--ranks", "16", "--iters", "1"],
    ),
    ("soak", env!("CARGO_BIN_EXE_soak"), &["--curve"]),
    (
        "soak",
        env!("CARGO_BIN_EXE_soak"),
        &["--chaos-curve", "--senders", "7"],
    ),
    (
        "soak",
        env!("CARGO_BIN_EXE_soak"),
        &["--recovery-curve", "--senders", "7"],
    ),
];

/// Runs pinned by their stdout alone: these bins take no `--out`.
const STDOUT_ONLY: &[(&str, &str, &[&str])] = &[
    ("appstudy", env!("CARGO_BIN_EXE_appstudy"), &[]),
    ("ablation_block", env!("CARGO_BIN_EXE_ablation_block"), &[]),
    ("ablation_hash", env!("CARGO_BIN_EXE_ablation_hash"), &[]),
    (
        "ablation_prefetch",
        env!("CARGO_BIN_EXE_ablation_prefetch"),
        &[],
    ),
    (
        "ablation_threshold",
        env!("CARGO_BIN_EXE_ablation_threshold"),
        &[],
    ),
    (
        "ablation_wildcard",
        env!("CARGO_BIN_EXE_ablation_wildcard"),
        &[],
    ),
];

/// The CSV with every host-time column's cells replaced by `*`.
fn mask_csv(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return String::new();
    };
    let masked: Vec<usize> = header
        .split(',')
        .enumerate()
        .filter(|(_, name)| HOST_TIME.contains(name))
        .map(|(i, _)| i)
        .collect();
    let mut out = format!("{header}\n");
    for line in lines {
        let cells: Vec<&str> = line
            .split(',')
            .enumerate()
            .map(|(i, c)| if masked.contains(&i) { "*" } else { c })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// The rows of an `--out` document, one `key = value` line per field.
fn canonical_rows(doc: &str) -> String {
    let doc = jsonlint::parse(doc).expect("--out is valid JSON");
    let rows = doc
        .get("rows")
        .unwrap_or(&doc)
        .as_array()
        .expect("an array of rows");
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        writeln!(out, "row {i}").unwrap();
        let Json::Obj(fields) = row else {
            panic!("row {i} is not an object: {row:?}")
        };
        for (key, value) in fields {
            if HOST_TIME.contains(&key.as_str()) {
                writeln!(out, "  {key} = *").unwrap();
            } else {
                writeln!(out, "  {key} = {value:?}").unwrap();
            }
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/output_oracle.txt")
}

#[test]
fn bins_print_and_record_the_pinned_rows() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("output_oracle");
    let mut transcript = String::new();
    for (i, &(name, exe, args)) in CASES.iter().enumerate() {
        let out_path = dir.join(format!("{i}.json"));
        let _ = std::fs::remove_file(&out_path);
        let run = Command::new(exe)
            .args(args)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn bench bin");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{name} {args:?}: {stderr}");
        let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
        let doc = std::fs::read_to_string(&out_path).expect("--out written");
        writeln!(transcript, "== {name} {}", args.join(" ")).unwrap();
        writeln!(transcript, "-- stdout").unwrap();
        transcript.push_str(&mask_csv(&stdout));
        writeln!(transcript, "-- rows").unwrap();
        transcript.push_str(&canonical_rows(&doc));
    }
    std::fs::remove_dir_all(&dir).ok();
    for &(name, exe, args) in STDOUT_ONLY {
        let run = Command::new(exe)
            .args(args)
            .output()
            .expect("spawn bench bin");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{name} {args:?}: {stderr}");
        let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
        writeln!(transcript, "== {name} {}", args.join(" ")).unwrap();
        writeln!(transcript, "-- stdout").unwrap();
        transcript.push_str(&mask_csv(&stdout));
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &transcript).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create");
    for (n, (got, want)) in transcript.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "bench output differs at line {}; rerun with UPDATE_GOLDEN=1 and review the diff",
            n + 1
        );
    }
    assert_eq!(
        transcript.lines().count(),
        golden.lines().count(),
        "bench output changed length; rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
