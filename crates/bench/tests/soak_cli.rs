//! The `soak` binary rejects a fan-in it cannot run in every mode —
//! the spec run and the exploratory curves alike — with one line on
//! stderr and exit status 1, never a panic.

use std::process::Command;

/// Run the `soak` binary; return its exit code and stderr.
fn soak(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(args)
        .output()
        .expect("spawn soak");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn too_few_senders_is_a_one_line_error_in_every_mode() {
    for senders in ["0", "1"] {
        let spec_path = soak(&["--senders", senders]);
        assert_eq!(spec_path, (Some(1), "--senders must be >= 2\n".to_string()));
        for mode in ["--chaos-curve", "--recovery-curve", "--curve"] {
            assert_eq!(
                soak(&[mode, "--senders", senders]),
                spec_path,
                "{mode} --senders {senders}"
            );
        }
    }
}
