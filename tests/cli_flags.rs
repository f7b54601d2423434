//! `ixtune` rejects a bad command line — unknown command, workload or
//! flag, a flag without its value, an unparsable number — by printing
//! usage and exiting 2, before any tuning starts and without panicking.

use std::process::{Command, Output};

fn ixtune(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ixtune"))
        .args(args)
        .output()
        .expect("spawn ixtune")
}

#[test]
fn bad_command_lines_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &["tune", "tpch", "--budget", "5k"],
        &["tune", "tpch", "--budgte", "50"],
        &["tune", "tpch", "--budget"],
        &["tune", "tpch", "--k", "-1"],
        &["tune", "tpch", "--seed", "1.5"],
        &["tune", "tpch", "--storage-gb", "lots"],
        &["tune", "tpch", "--algo", "simplex"],
        &["tune", "tpch", "50"],
        &["tune", "nosuch"],
        &["tune"],
        &["candidates", "tpch", "--limit", "x"],
        &["stats", "tpch", "--verbose"],
        &["compress", "--instances"],
        &["frobnicate"],
        &[],
    ];
    for args in cases {
        let out = ixtune(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work before failing");
    }
}

#[test]
fn well_formed_flags_still_run() {
    let out = ixtune(&["candidates", "tpch", "--limit", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("candidate indexes for TPC-H"));
}
