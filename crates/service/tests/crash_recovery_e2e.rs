//! Crash-recovery end-to-end tests: boot the **real** `ixtuned` binary,
//! hard-kill it with SIGKILL (no shutdown hooks, no Drop), restart it on
//! the same `--data-dir`, and check the durability contract from the
//! client's side of the wire:
//!
//! * completed results stay queryable bit-identically across the crash;
//! * the warm cost store reopens with every cost paid before the crash —
//!   the first identical session after restart is served entirely warm;
//! * a session suspended before the crash reappears resumable — its
//!   checkpoint restored from a compaction snapshot — and the resumed run
//!   is bit-identical to an uninterrupted control, with nothing but WAL
//!   and snapshot generations in the data dir;
//! * `--durability never` issues zero fsyncs yet still recovers after a
//!   process kill (the page cache survives SIGKILL; only a machine crash
//!   defeats it).

use ixtune_service::{
    AlgorithmSpec, Client, ResultPayload, SessionState, SubmitSpec, WorkloadSpec,
};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// A daemon subprocess bound to an ephemeral port. The `Drop` impl reaps
/// the child even when an assertion panics first, so a failing test can
/// never leak a daemon that outlives the harness (an orphan holding the
/// inherited stderr pipe open stalls CI log collection indefinitely).
struct DaemonProc {
    child: Child,
    addr: String,
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        // Both calls are no-ops (errors ignored / cached status) when
        // `kill()`/`shutdown()` already reaped the child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl DaemonProc {
    /// Boot on `data_dir`; `extra` flags follow the common ones.
    fn spawn(data_dir: &Path, durability: &str, extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ixtuned"))
            .args([
                "--bind",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().unwrap(),
                "--durability",
                durability,
                "--max-concurrent",
                "2",
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn ixtuned");
        // The daemon announces its bound address on the first stdout line.
        // The guard exists before the first read, so a daemon that dies
        // without printing is reaped by Drop when the expect panics.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut this = Self {
            child,
            addr: String::new(),
        };
        let mut lines = BufReader::new(stdout).lines();
        this.addr = loop {
            let line = lines
                .next()
                .expect("daemon prints its address before exiting")
                .expect("read daemon stdout");
            if let Some(addr) = line.strip_prefix("ixtuned listening on ") {
                break addr.trim().to_string();
            }
        };
        // Drain the rest of stdout so the daemon never blocks on a full
        // pipe; the thread dies with the child.
        std::thread::spawn(move || for _ in lines {});
        this
    }

    fn client(&self) -> Client {
        let client = Client::new(self.addr.clone());
        client.ping().expect("daemon answers ping");
        client
    }

    /// SIGKILL — the point of these tests: no flush, no Drop, no shutdown
    /// request reaches the daemon.
    fn kill(mut self) {
        self.child.kill().expect("deliver SIGKILL");
        self.child.wait().expect("reap killed daemon");
    }

    /// Graceful stop via the protocol (used for final cleanup only).
    fn shutdown(mut self, client: &Client) {
        client.shutdown().expect("shutdown request");
        self.child.wait().expect("daemon exits");
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ixtuned-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Assert the data dir holds nothing but WAL and snapshot generations:
/// no checkpoint files or directory, no leftover temp files.
fn assert_only_generations(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("list data dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        let generation = name
            .strip_prefix("wal-")
            .and_then(|g| g.strip_suffix(".log"))
            .or_else(|| {
                name.strip_prefix("snap-")
                    .and_then(|g| g.strip_suffix(".bin"))
            });
        assert!(
            generation.is_some_and(|g| g.parse::<u64>().is_ok()),
            "unexpected data dir entry {name:?}"
        );
    }
}

fn mcts_spec(budget: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(WorkloadSpec::Synth(11), AlgorithmSpec::Mcts, 3, budget);
    spec.seed = 42;
    spec
}

/// Wall clock and warm-store provenance are execution detail; everything
/// else must be bit-identical.
fn strip_wall_clock(mut payload: ResultPayload) -> ResultPayload {
    payload.telemetry.wall_clock_ms = 0.0;
    payload.telemetry.warm_hits = 0;
    payload.telemetry.warm_seeded = 0;
    payload
}

#[test]
fn sigkill_then_restart_replays_results_and_warm_capital() {
    let dir = scratch("warm");

    // Generation 1: run one session to completion, then die mid-air.
    let daemon = DaemonProc::spawn(&dir, "always", &[]);
    let client = daemon.client();
    let a = client.submit(mcts_spec(200)).expect("submit");
    let status = client.wait_terminal(a, WAIT).expect("session settles");
    assert_eq!(status.state, SessionState::Done);
    let before = client.result(a).expect("result before crash");
    assert_eq!(before.telemetry.warm_hits, 0, "cold store before crash");
    daemon.kill();

    // Generation 2: same data dir. The finished session and its result
    // must have survived, and the warm store reopens fully charged.
    let daemon = DaemonProc::spawn(&dir, "always", &[]);
    let client = daemon.client();
    let after = client.result(a).expect("result survives the crash");
    assert_eq!(after, before, "recovered result is bit-identical");

    let persist = client.persist_stats().expect("persist verb");
    assert!(
        persist.recovered_snapshot || persist.recovered_wal_records > 0,
        "restart actually replayed durable state: {persist:?}"
    );

    let b = client.submit(mcts_spec(200)).expect("submit after restart");
    assert!(b > a, "session ids continue across the crash");
    let status = client.wait_terminal(b, WAIT).expect("session settles");
    assert_eq!(status.state, SessionState::Done);
    let replayed = client.result(b).expect("result");
    assert!(replayed.telemetry.warm_seeded > 0, "store recovered");
    assert_eq!(
        replayed.telemetry.warm_hits, replayed.telemetry.what_if_calls,
        "every budgeted call served from the recovered warm store"
    );
    assert_eq!(
        strip_wall_clock(replayed),
        strip_wall_clock(before),
        "warm-served run is bit-identical to the pre-crash run"
    );

    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suspended_session_survives_sigkill_and_resumes_bit_identical() {
    let dir = scratch("suspend");

    // Generation 1: a control run to completion, and a twin that suspends
    // itself mid-search. Every settle compacts, so the suspension and its
    // checkpoint land in a snapshot. Crash while it sits suspended.
    let compact_every_settle = ["--wal-compact-bytes", "1"];
    let daemon = DaemonProc::spawn(&dir, "always", &compact_every_settle);
    let client = daemon.client();
    let control_id = client.submit(mcts_spec(160)).expect("submit control");
    let mut paused = mcts_spec(160);
    paused.pause_after_calls = Some(60);
    let paused_id = client.submit(paused).expect("submit paused");

    let control = {
        let status = client
            .wait_terminal(control_id, WAIT)
            .expect("control ends");
        assert_eq!(status.state, SessionState::Done);
        client.result(control_id).expect("control result")
    };
    client
        .wait_until(paused_id, WAIT, |s| s.state == SessionState::Suspended)
        .expect("twin reaches Suspended");
    // Compaction follows the settle: wait until the live WAL is empty, so
    // every record, the suspension included, is in the snapshot.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let persist = client.persist_stats().expect("persist verb");
        if persist.wal_bytes == 0 && persist.generation > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no compaction: {persist:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_only_generations(&dir);
    daemon.kill();

    // Generation 2: the suspended session reappears resumable and spends
    // the rest of its budget on exactly the calls the uninterrupted run
    // made — the DESIGN.md §6 guarantee now crossing a process crash.
    let daemon = DaemonProc::spawn(&dir, "always", &compact_every_settle);
    let client = daemon.client();
    let persist = client.persist_stats().expect("persist verb");
    assert!(persist.recovered_snapshot, "{persist:?}");
    assert_eq!(
        persist.recovered_wal_records, 0,
        "all of it from the snapshot"
    );
    let status = client.status(paused_id).expect("status after restart");
    assert_eq!(
        status.state,
        SessionState::Suspended,
        "replayed as suspended"
    );

    client.resume(paused_id).expect("resume across the crash");
    let status = client.wait_terminal(paused_id, WAIT).expect("resumed ends");
    assert_eq!(status.state, SessionState::Done);
    let resumed = client.result(paused_id).expect("resumed result");
    assert_eq!(
        strip_wall_clock(resumed),
        strip_wall_clock(control),
        "crash + resume must be bit-identical to the uninterrupted run"
    );

    daemon.shutdown(&client);
    assert_only_generations(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_never_skips_fsync_but_survives_process_kill() {
    let dir = scratch("never");

    let daemon = DaemonProc::spawn(&dir, "never", &[]);
    let client = daemon.client();
    let a = client.submit(mcts_spec(200)).expect("submit");
    client.wait_terminal(a, WAIT).expect("session settles");
    let before = client.result(a).expect("result");

    let persist = client.persist_stats().expect("persist verb");
    assert_eq!(persist.durability, "never");
    assert_eq!(persist.fsyncs_total, 0, "never policy issues no fsyncs");
    assert!(persist.records_total > 0, "records still written");
    daemon.kill();

    // SIGKILL only loses what the *process* buffered — the persist layer
    // write()s every record, so the page cache still has the full WAL.
    let daemon = DaemonProc::spawn(&dir, "never", &[]);
    let client = daemon.client();
    let after = client.result(a).expect("result survives without fsync");
    assert_eq!(after, before);
    let b = client.submit(mcts_spec(200)).expect("submit");
    client.wait_terminal(b, WAIT).expect("session settles");
    let replayed = client.result(b).expect("result");
    assert_eq!(
        replayed.telemetry.warm_hits, replayed.telemetry.what_if_calls,
        "warm capital recovered without fsync"
    );

    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
}
