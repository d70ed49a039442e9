//! Smoke test of the benchmark binary: `--quick` runs of every workload
//! print every metric `BENCHMARK.json` declares, fail nothing, and repeat
//! their simulated digest exactly.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::process::Command;

/// Names listed under `section` of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = start + text[start..].find(']').expect("section is an array");
    text[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// Run one quick pass pair of `workload`; returns stdout.
fn quick(workload: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mpiq-benchmark"))
        .args(["--workload", workload, "--seed", "1", "--quick"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The value printed on the `workload name value unit` line.
fn line_value<'a>(stdout: &'a str, workload: &str, name: &str) -> &'a str {
    let prefix = format!("{workload} {name} ");
    let line = stdout.lines().find(|l| l.starts_with(&prefix));
    let line = line.unwrap_or_else(|| panic!("{workload}: no `{name}` line in\n{stdout}"));
    line[prefix.len()..].split(' ').next().expect("value")
}

fn check_result_line(stdout: &str, workload: &str, section: &str) {
    let json = stdout.lines().last().expect("output");
    assert!(
        json.starts_with("{\"correct\": true, "),
        "{workload}: {json}"
    );
    assert!(json.contains("\"failed\": 0, "), "{workload}: {json}");
    for name in declared(section) {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {section} metric {name} missing from {json}"
        );
        let v: f64 = line_value(stdout, workload, &name)
            .parse()
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn quick_runs_report_every_declared_metric_and_repeat_exactly() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        let a = quick(w, &["--trace", "0"]);
        check_result_line(&a, w, "end_to_end");
        let b = quick(w, &["--trace", "0"]);
        assert_eq!(
            line_value(&a, w, "sim_digest"),
            line_value(&b, w, "sim_digest"),
            "{w}: simulated outputs differ between two runs"
        );

        let out = format!("{}/trace-{w}.json", env!("CARGO_TARGET_TMPDIR"));
        let traced = quick(w, &["--trace", "1", "--trace-out", &out]);
        check_result_line(&traced, w, "per_layer");
        let coverage: f64 = line_value(&traced, w, "trace_coverage_pct")
            .parse()
            .expect("number");
        assert!(
            coverage >= 95.0,
            "{w}: mpi.* spans cover only {coverage}% of traced wall time"
        );
        let chrome = std::fs::read_to_string(&out).expect("trace written");
        assert!(chrome.starts_with("{\"traceEvents\":[") && chrome.trim_end().ends_with('}'));
        assert_eq!(
            line_value(&a, w, "sim_digest"),
            line_value(&traced, w, "sim_digest")
        );
    }
}

#[test]
fn default_run_length_is_the_declared_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let at = text.find("\"run_seconds\":").expect("run_seconds declared") + 14;
    let declared: String = text[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_mpiq-benchmark"))
        .arg("--help")
        .output()
        .expect("runs");
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(
        usage.contains(&format!("--seconds S (default {declared})")),
        "run_seconds is {declared} but the usage says:\n{usage}"
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpiq-benchmark"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
