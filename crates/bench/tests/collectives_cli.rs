//! The `collectives` binary's `--check` gate fails a cell whose
//! simulated time drifted past the band: exit status 1 and one DRIFT
//! line on stderr naming the cell.

use std::path::PathBuf;
use std::process::Command;

/// Run the `collectives` binary on 16 ranks, one collective per rank;
/// return its exit code and stderr.
fn collectives(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_collectives"))
        .args(["--ranks", "16", "--iters", "1"])
        .args(extra)
        .output()
        .expect("spawn collectives");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn drifted_baseline_fails_the_check_with_a_drift_line() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("collectives_cli");
    let base = dir.join("base.json");
    let (code, _) = collectives(&["--out", base.to_str().unwrap()]);
    assert_eq!(code, Some(0));

    // Scale the first cell's simulated time by 1.5 in the baseline.
    let text = std::fs::read_to_string(&base).unwrap();
    let key = "\"sim_ns_per_op\": ";
    let start = text.find(key).expect("a sim_ns_per_op field") + key.len();
    let len = text[start..].find(',').unwrap();
    let ns: f64 = text[start..start + len].parse().unwrap();
    let drifted = format!("{}{}{}", &text[..start], ns * 1.5, &text[start + len..]);
    let path = dir.join("drifted.json");
    std::fs::write(&path, drifted).unwrap();

    let (code, stderr) = collectives(&["--check", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    let drift: Vec<&str> = stderr.lines().filter(|l| l.contains("DRIFT")).collect();
    assert_eq!(drift.len(), 1, "{stderr}");
    assert!(
        drift[0].contains("ranks=16 op=barrier topo=hub mode=offload: sim_ns_per_op"),
        "{stderr}"
    );
    assert!(drift[0].contains("-33.3%"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
