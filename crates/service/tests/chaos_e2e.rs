//! Chaos end-to-end tests: boot the **real** `ixtuned` binary under a
//! seeded fault plan (`--fault-spec`) and check the hardening contract
//! from the client's side of the wire:
//!
//! * the daemon never hangs — every session reaches a settled state and
//!   every client error is a member of the closed error vocabulary
//!   (typed `ErrorCode` strings or clean transport errors);
//! * the injected fault schedule is a pure function of the seed: two
//!   daemons driven identically under the same spec inject bit-identical
//!   fault sequences (asserted via `ixtune_fault_injected_total`);
//! * a what-if source that starts failing degrades the session to a
//!   derivation-only salvage (`stop_reason: Degraded`) instead of losing
//!   the work;
//! * fsync faults are retried; after a SIGKILL the restarted daemon
//!   replays results bit-identically;
//! * faults that never touch the tuning path (wire chaos, latency
//!   spikes) leave `TuningResult` bit-identical to a fault-free run.

use ixtune_service::{
    AlgorithmSpec, Client, ResultPayload, SessionState, SubmitSpec, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

/// The three fixed seeds CI pins (the scheduled leg adds a rotating one).
const SEEDS: [u64; 3] = [42, 1337, 31415];

struct DaemonProc {
    child: Child,
    addr: String,
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl DaemonProc {
    /// Spawn the real binary; `fault_spec` arms the injection plane
    /// (empty = inert).
    fn spawn(data_dir: &Path, durability: &str, fault_spec: &str) -> Self {
        let mut args = vec![
            "--bind".to_string(),
            "127.0.0.1:0".to_string(),
            "--data-dir".to_string(),
            data_dir.to_str().unwrap().to_string(),
            "--durability".to_string(),
            durability.to_string(),
            "--max-concurrent".to_string(),
            "1".to_string(),
        ];
        if !fault_spec.is_empty() {
            args.push("--fault-spec".to_string());
            args.push(fault_spec.to_string());
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_ixtuned"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ixtuned");
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
        std::thread::spawn(move || for _ in lines {});
        this
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    fn kill(mut self) {
        self.child.kill().expect("deliver SIGKILL");
        self.child.wait().expect("reap killed daemon");
    }

    /// Under wire chaos the reply to a shutdown the daemon acted on can be
    /// dropped or cut, and every retry then finds the port closed; the
    /// daemon exiting cleanly (status 0, as it does after a shutdown it
    /// acted on) is the acknowledgement. A daemon that died any other way
    /// fails the test.
    fn shutdown(mut self, client: &Client) {
        let deadline = Instant::now() + WAIT;
        while let Err(e) = client.shutdown() {
            assert_clean_error(&e);
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                assert!(status.success(), "daemon died before shutdown: {status}");
                return;
            }
            assert!(Instant::now() < deadline, "shutdown never landed: {e}");
            std::thread::sleep(Duration::from_millis(20));
        }
        let status = self.child.wait().expect("daemon exits");
        assert!(
            status.success(),
            "daemon exits cleanly after shutdown: {status}"
        );
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ixtuned-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn greedy_spec(workload_seed: u64, budget: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(
        WorkloadSpec::Synth(workload_seed),
        AlgorithmSpec::VanillaGreedy,
        3,
        budget,
    );
    spec.seed = 7;
    spec
}

fn mcts_spec(budget: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(WorkloadSpec::Synth(11), AlgorithmSpec::Mcts, 3, budget);
    spec.seed = 42;
    spec
}

/// The closed vocabulary a chaos client may observe. Anything outside it
/// — a panic message, a partial JSON dump, a hang — fails the test.
fn assert_clean_error(e: &str) {
    const CODES: [&str; 10] = [
        "ShuttingDown",
        "QueueFull",
        "UnknownSession",
        "InvalidSpec",
        "NotResumable",
        "NotRunning",
        "NotSuspended",
        "AlreadyTerminal",
        "NoResult",
        "BadRequest",
    ];
    let clean = CODES.iter().any(|c| e.starts_with(c))
        || e.starts_with("connect:")
        || e.starts_with("send:")
        || e.starts_with("recv:")
        || e.starts_with("socket:")
        || e.starts_with("malformed message")
        || e == "daemon closed the connection";
    assert!(clean, "error outside the closed vocabulary: {e}");
}

/// Retry through injected wire faults. Every intermediate failure must
/// still be a clean, typed error.
fn retrying<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    let mut last = String::new();
    for _ in 0..50 {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) => {
                assert_clean_error(&e);
                last = e;
            }
        }
    }
    Err(last)
}

/// Poll a session to a settled terminal state, tolerating wire faults on
/// individual polls but never exceeding the deadline (hang detection).
fn wait_terminal_chaos(client: &Client, id: u64) -> SessionState {
    let deadline = Instant::now() + WAIT;
    loop {
        match client.status(id) {
            Ok(s) if s.state.terminal() => return s.state,
            Ok(_) => {}
            Err(e) => assert_clean_error(&e),
        }
        assert!(
            Instant::now() < deadline,
            "session {id} failed to settle under chaos (hang)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Parse `ixtune_fault_injected_total{site="…"} N` rows from the
/// Prometheus exposition.
fn injected_counters(metrics: &str) -> BTreeMap<String, u64> {
    metrics
        .lines()
        .filter(|l| l.starts_with("ixtune_fault_injected_total{"))
        .filter_map(|l| {
            let site = l.split("site=\"").nth(1)?.split('"').next()?.to_string();
            let value = l.rsplit(' ').next()?.parse::<f64>().ok()?;
            Some((site, value as u64))
        })
        .collect()
}

fn strip_wall_clock(mut payload: ResultPayload) -> ResultPayload {
    payload.telemetry.wall_clock_ms = 0.0;
    payload.telemetry.warm_hits = 0;
    payload.telemetry.warm_seeded = 0;
    payload
}

/// Drive one daemon under the given plan through a fixed, serial session
/// schedule and return the injected-fault counters it accumulated.
fn run_schedule(spec: &str, tag: &str) -> BTreeMap<String, u64> {
    let dir = scratch(tag);
    let daemon = DaemonProc::spawn(&dir, "always", spec);
    let client = daemon.client();
    retrying(|| client.ping()).expect("daemon answers ping");
    for workload_seed in [3u64, 5, 3, 9] {
        let id = retrying(|| client.submit(greedy_spec(workload_seed, 40))).expect("submit");
        let state = wait_terminal_chaos(&client, id);
        assert!(
            matches!(state, SessionState::Done | SessionState::Failed),
            "serial greedy session settled as {state:?}"
        );
    }
    let metrics = retrying(|| client.metrics()).expect("metrics under chaos");
    let counters = injected_counters(&metrics);
    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
    counters
}

/// Replaying the same seed injects the identical fault sequence: the
/// per-site counters — position-sensitive accumulations of every decision
/// — agree exactly between two daemons driven identically. A different
/// seed produces a different schedule (same sites, different counts).
#[test]
fn seeded_fault_schedule_replays_identically() {
    // CI's scheduled chaos leg explores a fresh date-derived seed on top
    // of the pinned ones; a failure reproduces locally from the same env.
    let mut seeds = SEEDS.to_vec();
    if let Ok(extra) = std::env::var("IXTUNE_CHAOS_SEED") {
        seeds.push(extra.parse().expect("IXTUNE_CHAOS_SEED must be a u64"));
    }
    for (i, seed) in seeds.iter().enumerate() {
        let spec = format!(
            "seed={seed};whatif.error=p0.02;whatif.latency=p0.1;persist.fsync=every5;worker.panic=every4"
        );
        let first = run_schedule(&spec, &format!("replay-a{i}"));
        let second = run_schedule(&spec, &format!("replay-b{i}"));
        assert_eq!(
            first, second,
            "seed {seed}: identical runs must inject identical fault sequences"
        );
        let total: u64 = first.values().sum();
        assert!(
            total > 0,
            "seed {seed}: the plan injected nothing: {first:?}"
        );
    }
}

/// A what-if source that fails on the session's first uncached call
/// triggers the degradation ladder: the session salvages a valid
/// configuration through derivation-only enumeration and reports
/// `stop_reason: Degraded` — never a hang, never a lost session.
#[test]
fn whatif_error_degrades_to_salvaged_result() {
    let dir = scratch("degrade");
    let daemon = DaemonProc::spawn(&dir, "batch", "seed=42;whatif.error=every1");
    let client = daemon.client();
    let id = client.submit(greedy_spec(3, 40)).expect("submit");
    let status = client.wait_terminal(id, WAIT).expect("session settles");
    assert_eq!(status.state, SessionState::Done, "salvage settles Done");
    let r = client.result(id).expect("salvaged result");
    assert_eq!(
        r.stop_reason.map(|s| format!("{s:?}")),
        Some("Degraded".to_string()),
        "stop reason names the ladder"
    );
    assert!(r.config.len() <= 3, "constraint respected: {:?}", r.config);
    assert!(r.calls_used <= 40, "budget respected: {}", r.calls_used);
    let metrics = client.metrics().expect("metrics");
    let counters = injected_counters(&metrics);
    assert!(
        counters.get("whatif.error").copied().unwrap_or(0) >= 1,
        "injection accounted: {counters:?}"
    );
    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire chaos and latency spikes never touch the enumeration path: the
/// tuning result under heavy wire faults is bit-identical to the result
/// of a fault-free daemon, with the same stop reason.
#[test]
fn wire_chaos_leaves_results_bit_identical() {
    let clean_dir = scratch("wire-clean");
    let daemon = DaemonProc::spawn(&clean_dir, "batch", "");
    let client = daemon.client();
    let id = client.submit(mcts_spec(120)).expect("submit clean");
    client
        .wait_terminal(id, WAIT)
        .expect("clean session settles");
    let clean = client.result(id).expect("clean result");
    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&clean_dir);

    let dir = scratch("wire-chaos");
    let spec =
        "seed=1337;wire.drop=every7;wire.truncate=every5;wire.garble=every3;whatif.latency=p0.2";
    let daemon = DaemonProc::spawn(&dir, "batch", spec);
    let client = daemon.client();
    retrying(|| client.ping()).expect("ping through chaos");
    let id = retrying(|| client.submit(mcts_spec(120))).expect("submit through chaos");
    let state = wait_terminal_chaos(&client, id);
    assert_eq!(state, SessionState::Done);
    let chaotic = retrying(|| client.result(id)).expect("result through chaos");

    assert_eq!(chaotic.stop_reason, clean.stop_reason, "same stop reason");
    assert_eq!(
        strip_wall_clock(chaotic),
        strip_wall_clock(clean),
        "wire chaos must never perturb the tuning result"
    );

    let metrics = retrying(|| client.metrics()).expect("metrics through chaos");
    let counters = injected_counters(&metrics);
    let wire_total = counters
        .iter()
        .filter(|(site, _)| site.starts_with("wire."))
        .map(|(_, n)| n)
        .sum::<u64>();
    assert!(wire_total > 0, "wire chaos actually fired: {counters:?}");

    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// fsync faults are retried (the record is already in the WAL when fsync
/// fails, and replay folds are idempotent), so a SIGKILL mid-chaos loses
/// nothing: the restarted, fault-free daemon replays the result
/// bit-identically.
#[test]
fn fsync_faults_recover_bit_identical_after_sigkill() {
    let dir = scratch("fsync");
    let daemon = DaemonProc::spawn(&dir, "always", "seed=42;persist.fsync=every3");
    let client = daemon.client();
    let id = client.submit(mcts_spec(120)).expect("submit");
    let status = client.wait_terminal(id, WAIT).expect("session settles");
    assert_eq!(status.state, SessionState::Done);
    let before = client.result(id).expect("result before crash");
    let metrics = client.metrics().expect("metrics");
    assert!(
        injected_counters(&metrics)
            .get("persist.fsync")
            .copied()
            .unwrap_or(0)
            >= 1,
        "fsync faults actually fired"
    );
    assert!(
        metrics.contains("ixtune_persist_degraded 0"),
        "every-3 faults retry through, never demote:\n{}",
        metrics
            .lines()
            .filter(|l| l.contains("degraded"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    daemon.kill();

    let daemon = DaemonProc::spawn(&dir, "always", "");
    let client = daemon.client();
    let after = client.result(id).expect("result survives the crash");
    assert_eq!(after, before, "recovered result is bit-identical");
    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected worker panic is contained: the session settles `Failed`
/// with a clean error, the worker thread survives, and the next session
/// on the same worker runs to completion.
#[test]
fn worker_panic_is_contained_and_worker_survives() {
    let dir = scratch("panic");
    // `after0` fires on the first session only... `every` counts forever,
    // so use after-then-count: first session panics, later ones run.
    let daemon = DaemonProc::spawn(&dir, "batch", "seed=7;worker.panic=every2");
    let client = daemon.client();

    // Session 0: the site's first decision (n=0) does not fire under
    // every2; session 1 (n=1) panics. Submit serially to keep ordering.
    let a = client.submit(greedy_spec(3, 40)).expect("submit a");
    assert_eq!(
        client.wait_terminal(a, WAIT).expect("a settles").state,
        SessionState::Done
    );
    let b = client.submit(greedy_spec(5, 40)).expect("submit b");
    let b_status = client.wait_terminal(b, WAIT).expect("b settles");
    assert_eq!(b_status.state, SessionState::Failed, "injected panic");
    assert!(
        b_status
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("injected"),
        "panic surfaced as a clean session error: {:?}",
        b_status.error
    );
    // The worker thread survived the unwind: a third session completes.
    let c = client.submit(greedy_spec(9, 40)).expect("submit c");
    assert_eq!(
        client.wait_terminal(c, WAIT).expect("c settles").state,
        SessionState::Done
    );
    daemon.shutdown(&client);
    let _ = std::fs::remove_dir_all(&dir);
}
