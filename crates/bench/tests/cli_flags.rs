//! `experiments` rejects an unknown flag, a flag without its value and an
//! unparsable number by printing usage and exiting 2, before any
//! experiment runs and without panicking.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn bad_flags_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &["--jobs", "abc"],
        &["--bogus"],
        &["--seeds", "-3", "fig17"],
        &["--quick", "fig17", "--jobs"],
        &["--out"],
    ];
    for args in cases {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn list_still_runs() {
    let out = experiments(&["list"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("available experiments"));
}
