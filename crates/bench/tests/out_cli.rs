//! The bins' `--out` and common-flag surface: an `--out` or
//! `--trace-out` path that cannot be written is a one-line error and
//! exit 1, never a panic, a common flag a bin does not read is an
//! unknown flag (exit 2), an out-of-range value is a usage error (exit
//! 2), a sweep point that stalls is a one-line error (exit 1), and a
//! closed stdout is not an error.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Run a bench bin; return its exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("spawn bin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Run a bench bin whose stdout reader goes away at once, as `bin |
/// head` does once it has read enough; return its exit code and stderr.
fn run_closed_stdout(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bin");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for bin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A path under a regular file, which cannot hold a directory.
fn unwritable(case: &str) -> (PathBuf, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(case);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let path = file.join("out.json").to_str().unwrap().to_string();
    (dir, path)
}

/// Assert the run failed with exit 1 and ended on the one-line error.
fn assert_cannot_write(name: &str, path: &str, (code, stderr): (Option<i32>, String)) {
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with(&format!("{name}: cannot write {path}: ")),
        "{stderr}"
    );
}

#[test]
fn unwritable_out_is_a_one_line_error() {
    let (dir, path) = unwritable("out_cli");
    let run = run(env!("CARGO_BIN_EXE_breakeven"), &["2", "--out", &path]);
    assert_cannot_write("breakeven", &path, run);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_trace_out_is_a_one_line_error() {
    let (dir, path) = unwritable("out_cli_trace");
    let small = ["--max-queue", "0", "--step", "1", "--sizes", "0"];
    for (name, exe) in [
        ("fig5", env!("CARGO_BIN_EXE_fig5")),
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ] {
        let mut args = small.to_vec();
        if name == "fig5" {
            args.extend(["--config", "alpu128", "--fractions", "1"]);
        }
        args.extend(["--trace-out", &path]);
        assert_cannot_write(name, &path, run(exe, &args));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn common_flags_a_bin_does_not_read_are_unknown() {
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_collectives"), &["--seed", "1"][..]),
        (
            env!("CARGO_BIN_EXE_gap"),
            &["--faults", "seed=1,drop=0.1"][..],
        ),
        (env!("CARGO_BIN_EXE_soak"), &["--sweep-threads", "2"][..]),
        (env!("CARGO_BIN_EXE_appstudy"), &["--out", "rows.json"][..]),
        (env!("CARGO_BIN_EXE_table4"), &["--metrics"][..]),
    ] {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {}", args[0])),
            "{exe} {args:?}: {stderr}"
        );
    }
}

/// A traversal fraction outside [0, 1] is a usage error: exit 2 and one
/// line naming the flag, before anything runs.
#[test]
fn out_of_range_fractions_exit_2() {
    let (code, stderr) = run(env!("CARGO_BIN_EXE_fig5"), &["--fractions", "2,-1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "fig5: invalid value for --fractions: 2 is not in [0, 1]\n"
    );
}

/// A point whose ranks never finish, here because every frame is
/// dropped, is the watchdog's one-line diagnosis and exit 1, never a
/// panic (exit 101).
#[test]
fn stalled_point_is_a_one_line_error() {
    let args = [
        "--config",
        "baseline",
        "--max-queue",
        "2",
        "--step",
        "1",
        "--fractions",
        "1",
        "--sizes",
        "0",
        "--faults",
        "seed=1,drop=1.0",
    ];
    let (code, stderr) = run(env!("CARGO_BIN_EXE_fig5"), &args);
    assert_eq!(code, Some(1), "{stderr}");
    // The sweep's progress note, then the one error line.
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{stderr}");
    assert!(lines[0].starts_with("fig5: 3 points"), "{stderr}");
    assert!(
        lines[1].starts_with("fig5: (Baseline, PrepostedPoint { queue_len: 0,")
            && lines[1].contains(" stalled: quiescent deadlock at t="),
        "{stderr}"
    );
}

/// A bin whose stdout is closed prints nothing more: it exits as it
/// would have, its stderr is what it prints with stdout open (`table4`
/// prints none), and its `--out` record is still written whole.
#[test]
fn closed_stdout_is_not_an_error() {
    let (code, stderr) = run_closed_stdout(env!("CARGO_BIN_EXE_table4"), &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stderr, "");

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out_cli_closed_stdout");
    let path = dir.join("fig5.json").to_str().unwrap().to_string();
    let args = [
        "--config",
        "alpu128",
        "--max-queue",
        "0",
        "--step",
        "1",
        "--sizes",
        "0",
        "--fractions",
        "1",
        "--out",
        &path,
    ];
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    let (open_code, open_stderr) = run(fig5, &args);
    assert_eq!(open_code, Some(0), "{open_stderr}");
    std::fs::remove_file(&path).unwrap();
    let (code, stderr) = run_closed_stdout(fig5, &args);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stderr, open_stderr);
    let (code, lint) = run(env!("CARGO_BIN_EXE_jsonlint"), &[&path]);
    assert_eq!(code, Some(0), "{lint}");
    std::fs::remove_dir_all(&dir).ok();
}
