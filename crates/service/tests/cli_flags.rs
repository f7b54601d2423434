//! `ixtuned` rejects a bad command line — an unknown flag, a flag without
//! its value, an unparsable number, durability policy or fault spec — by
//! exiting 2 before it binds a port, without panicking. No environment
//! variable arms anything: a daemon started beside a malformed
//! `IXTUNE_FAULT_SPEC` serves as usual. `--max-session-threads N` is
//! parsed and ignored: a number starts the daemon, anything else exits 2.

use ixtune_service::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn ixtuned(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ixtuned"))
        .args(args)
        .output()
        .expect("spawn ixtuned")
}

#[test]
fn bad_flags_exit_2_without_panicking() {
    let cases: &[&[&str]] = &[
        &["--max-concurrent", "x"],
        &["--max-session-threads", "abc"],
        &["--durability", "sometimes"],
        &["--fault-spec", "whatif.error=bogus"],
        &["--bind"],
        &["--bogus"],
    ];
    for args in cases {
        let out = ixtuned(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started serving");
    }
}

/// Kills the daemon if a check fails before it shut down.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot `ixtuned` on a fresh data dir with `args` and the environment
/// `env`, ping it and shut it down: it must serve and then exit 0.
fn serves_then_exits_cleanly(tag: &str, args: &[&str], env: &[(&str, &str)]) {
    let dir = std::env::temp_dir().join(format!("ixtuned-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut daemon = Reap(
        Command::new(env!("CARGO_BIN_EXE_ixtuned"))
            .args(["--bind", "127.0.0.1:0", "--data-dir"])
            .arg(&dir)
            .args(args)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn ixtuned"),
    );
    let stdout = daemon.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("daemon prints its address before exiting")
        .expect("read daemon stdout");
    let addr = first
        .strip_prefix("ixtuned listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .trim()
        .to_string();
    std::thread::spawn(move || for _ in lines {});

    let client = Client::new(addr);
    client.ping().expect("daemon answers ping");
    client.shutdown().expect("shutdown request");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "{status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_fault_spec_variable_is_ignored() {
    serves_then_exits_cleanly("env", &[], &[("IXTUNE_FAULT_SPEC", "whatif.error=bogus")]);
}

/// Command lines written for the session-thread cap keep starting the
/// daemon; every session still runs on one worker thread.
#[test]
fn max_session_threads_is_accepted_and_ignored() {
    serves_then_exits_cleanly("threads", &["--max-session-threads", "4"], &[]);
}
