//! Byte-identical regression pin for the paper figures, one test per
//! sweep.
//!
//! The overload machinery (admission bounds, eager credits, link-layer
//! refusal) must be zero-cost when unconfigured, and the ALPU fault path
//! (stall- and flip-driven quarantine, software fallback, re-engagement)
//! must not drift. Each test runs one figure bin and checks its stdout
//! against that command's `-- stdout` section of the output oracle's
//! transcript (`golden/output_oracle.txt`), so the figures have one
//! golden file, re-blessed with the rest of the oracle:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mpiq-bench --test output_oracle
//! ```

use std::process::Command;

const TRANSCRIPT: &str = include_str!("golden/output_oracle.txt");

const ALPU_FAULTS: &[&str] = &["--faults", "seed=11,flip=0.05,stall=0.05"];

/// The stdout the transcript pins for `name args`: the lines between
/// the case's `== ` header and its `-- rows` marker.
fn pinned_stdout(name: &str, args: &[&str]) -> String {
    let header = format!("== {name} {}", args.join(" "));
    let mut lines = TRANSCRIPT.lines().skip_while(|l| *l != header);
    assert!(
        lines.next().is_some(),
        "no `{header}` case in the output oracle"
    );
    assert_eq!(lines.next(), Some("-- stdout"), "`{header}` has no stdout");
    let mut out = String::new();
    for line in lines.take_while(|l| *l != "-- rows") {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Runs the bin and checks its stdout against the transcript.
fn assert_matches_golden(name: &str, exe: &str, args: &[&str]) {
    let run = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn bench bin");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{name} {args:?}: {stderr}");
    let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout,
        pinned_stdout(name, args),
        "{name} {args:?} drifted from its golden"
    );
}

#[test]
fn fig5_unconfigured_matches_golden() {
    assert_matches_golden(
        "fig5",
        env!("CARGO_BIN_EXE_fig5"),
        &[
            "--config",
            "alpu128",
            "--max-queue",
            "100",
            "--step",
            "50",
            "--fractions",
            "1",
            "--sizes",
            "0",
        ],
    );
}

#[test]
fn fig6_unconfigured_matches_golden() {
    assert_matches_golden(
        "fig6",
        env!("CARGO_BIN_EXE_fig6"),
        &["--max-queue", "100", "--step", "50", "--sizes", "64"],
    );
}

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
    assert_matches_golden(
        "fig5",
        env!("CARGO_BIN_EXE_fig5"),
        &[sweep, ALPU_FAULTS].concat(),
    );
}

#[test]
fn fig6_alpu_faults_match_golden() {
    let sweep: &[&str] = &["--max-queue", "100", "--step", "50", "--sizes", "64"];
    assert_matches_golden(
        "fig6",
        env!("CARGO_BIN_EXE_fig6"),
        &[sweep, ALPU_FAULTS].concat(),
    );
}
