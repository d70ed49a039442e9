//! The bins' `--out` and common-flag surface: an `--out` or
//! `--trace-out` path that cannot be written is a one-line error and
//! exit 1, never a panic, and a common flag a bin does not read is an
//! unknown flag (exit 2).

use std::path::PathBuf;
use std::process::Command;

/// Run a bench bin; return its exit code and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("spawn bin");
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
