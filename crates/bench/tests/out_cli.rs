//! The bins' `--out` and common-flag surface: an `--out` path that
//! cannot be written is a one-line error and exit 1, never a panic, and
//! a common flag a bin does not read is an unknown flag (exit 2).

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

#[test]
fn unwritable_out_is_a_one_line_error() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out_cli");
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file cannot hold the record's parent directory.
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    let path = file.join("rows.json");
    let path = path.to_str().unwrap();
    let (code, stderr) = run(env!("CARGO_BIN_EXE_breakeven"), &["2", "--out", path]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with(&format!("breakeven: cannot write {path}: ")),
        "{stderr}"
    );
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
