//! End-to-end smoke tests over the wire: boot `ixtuned` on an ephemeral
//! port, drive it with the blocking client, and check the headline
//! guarantees — cancellation returns best-so-far, suspend/resume is
//! bit-identical to an uninterrupted run, and admission control holds.

use ixtune_service::{
    AlgorithmSpec, Client, Daemon, ResultPayload, ServiceConfig, SessionState, SubmitSpec,
    WorkloadSpec,
};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn config(dir: &str) -> ServiceConfig {
    let data_dir = std::env::temp_dir().join(dir);
    // Durable state survives the process; wipe the directory so every run
    // starts from the cold-store behavior the tests assert.
    let _ = std::fs::remove_dir_all(&data_dir);
    ServiceConfig {
        max_concurrent: 2,
        queue_capacity: 8,
        data_dir,
        ..ServiceConfig::default()
    }
}

fn boot(dir: &str, tweak: impl FnOnce(&mut ServiceConfig)) -> (Daemon, Client) {
    let mut cfg = config(dir);
    tweak(&mut cfg);
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind ephemeral port");
    let client = Client::new(daemon.addr().to_string());
    client.ping().expect("daemon answers ping");
    (daemon, client)
}

fn mcts_spec(budget: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(WorkloadSpec::Synth(11), AlgorithmSpec::Mcts, 3, budget);
    spec.seed = 42;
    spec
}

/// Everything except execution detail: wall clock and warm-store
/// provenance counters may differ between an interrupted and an
/// uninterrupted run (an earlier session can seed the daemon store).
fn strip_wall_clock(mut payload: ResultPayload) -> ResultPayload {
    payload.telemetry.wall_clock_ms = 0.0;
    payload.telemetry.warm_hits = 0;
    payload.telemetry.warm_seeded = 0;
    payload
}

#[test]
fn cancel_mid_flight_returns_best_so_far() {
    let (daemon, client) = boot("ixtuned-e2e-cancel", |_| {});
    // A budget this size would run for a very long time; cancellation must
    // bring it back within one episode.
    let id = client.submit(mcts_spec(1_000_000)).expect("submit");

    // Wait until the session is actually spending budget, then cancel.
    client
        .wait_until(id, WAIT, |s| {
            s.state == SessionState::Running && s.telemetry.what_if_calls > 0
        })
        .expect("session starts running");
    client.cancel(id).expect("cancel running session");

    let status = client.wait_terminal(id, WAIT).expect("session settles");
    assert_eq!(status.state, SessionState::Cancelled);

    let result = client.result(id).expect("best-so-far result is kept");
    assert_eq!(
        result.stop_reason,
        Some(ixtune_core::stop::StopReason::Cancelled)
    );
    assert!(
        result.calls_used < 1_000_000,
        "stopped long before the budget: {}",
        result.calls_used
    );
    assert!(result.telemetry.wall_clock_ms > 0.0, "service stamps time");

    let sessions = client.list().expect("list");
    assert!(sessions.iter().any(|s| s.id == id));

    client.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn suspend_resume_matches_uninterrupted_run() {
    let (daemon, client) = boot("ixtuned-e2e-resume", |_| {});

    // Session B pauses itself deterministically mid-search; session C is
    // the identical request left alone.
    let mut paused = mcts_spec(160);
    paused.pause_after_calls = Some(60);
    let b = client.submit(paused).expect("submit paused session");
    let c = client
        .submit(mcts_spec(160))
        .expect("submit control session");

    let status = client
        .wait_until(b, WAIT, |s| s.state == SessionState::Suspended)
        .expect("session reaches Suspended");
    assert!(
        status.telemetry.what_if_calls >= 60,
        "suspended after the trigger: {:?}",
        status.telemetry
    );

    client.resume(b).expect("resume suspended session");
    let b_status = client.wait_terminal(b, WAIT).expect("resumed session ends");
    assert_eq!(b_status.state, SessionState::Done);
    let c_status = client.wait_terminal(c, WAIT).expect("control session ends");
    assert_eq!(c_status.state, SessionState::Done);

    let b_result = client.result(b).expect("resumed result");
    let c_result = client.result(c).expect("control result");
    assert_eq!(
        strip_wall_clock(b_result.clone()),
        strip_wall_clock(c_result),
        "suspend/resume must be bit-identical to the uninterrupted run"
    );
    // Both segments' time is accounted for.
    assert!(b_result.telemetry.wall_clock_ms > 0.0);
    client.shutdown().expect("shutdown");
    daemon.join();
    // The checkpoint rode in the WAL: the data dir holds nothing else.
    let data_dir = std::env::temp_dir().join("ixtuned-e2e-resume");
    let names: Vec<String> = std::fs::read_dir(&data_dir)
        .expect("list data dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(names, vec!["wal-0.log"], "no checkpoint files");
}

#[test]
fn admission_control_over_the_wire() {
    let (daemon, client) = boot("ixtuned-e2e-admission", |cfg| {
        cfg.max_concurrent = 1;
        cfg.queue_capacity = 2;
    });

    let a = client.submit(mcts_spec(1_000_000)).expect("first admitted");
    let b = client
        .submit(mcts_spec(1_000_000))
        .expect("second admitted");
    let err = client.submit(mcts_spec(10)).expect_err("third rejected");
    assert!(err.starts_with("QueueFull"), "typed error code: {err}");

    client.cancel(a).expect("cancel a");
    client.cancel(b).expect("cancel b");
    client.wait_terminal(a, WAIT).expect("a settles");
    client.wait_terminal(b, WAIT).expect("b settles");

    // Terminal sessions no longer count against the queue.
    let c = client.submit(mcts_spec(10)).expect("slot freed");
    let status = client.wait_terminal(c, WAIT).expect("c finishes");
    assert_eq!(status.state, SessionState::Done);

    client.shutdown().expect("shutdown");
    daemon.join();
}

/// Assert `text` is well-formed Prometheus text exposition: every line is
/// a `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample whose
/// value parses as a float. Returns the sum over samples of `series`.
fn parse_exposition(text: &str, series: &str) -> f64 {
    let mut sum = 0.0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line has no value: {line:?}"));
        let value: f64 = value_part
            .parse()
            .unwrap_or_else(|_| panic!("unparsable sample value: {line:?}"));
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        if name == series {
            sum += value;
        }
    }
    sum
}

#[test]
fn metrics_scrape_mid_run_and_trace_download() {
    let (daemon, client) = boot("ixtuned-e2e-metrics", |_| {});

    // A long session, scraped while it is still spending budget — the CI
    // service-e2e check: exposition parses, call counter is live.
    let id = client.submit(mcts_spec(1_000_000)).expect("submit");
    client
        .wait_until(id, WAIT, |s| {
            s.state == SessionState::Running && s.telemetry.what_if_calls > 0
        })
        .expect("session starts running");

    let text = client.metrics().expect("metrics verb");
    let calls = parse_exposition(&text, "ixtune_whatif_calls_total");
    assert!(calls > 0.0, "live what-if counter:\n{text}");
    assert!(
        parse_exposition(&text, "ixtune_sessions") >= 1.0,
        "session-state gauges present"
    );
    assert!(
        text.contains("ixtune_whatif_latency_seconds_bucket"),
        "latency histogram present"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("ixtune_cache_hits_total ")),
        "cache hit counter present:\n{text}"
    );

    client.cancel(id).expect("cancel");
    client.wait_terminal(id, WAIT).expect("session settles");

    // Counters survive the session; the scrape still parses afterwards.
    let after = client.metrics().expect("metrics after terminal");
    assert!(parse_exposition(&after, "ixtune_whatif_calls_total") >= calls);

    // Trace download: loadable Chrome-trace JSON (an array of events with
    // the fields a trace viewer needs) holding this session's phase spans.
    let trace = client.trace(id).expect("trace verb");
    let parsed = serde_json::value_from_str(&trace).expect("trace parses as JSON");
    let serde::Value::Arr(events) = parsed else {
        panic!("chrome trace must be a JSON array");
    };
    assert!(!events.is_empty(), "completed session recorded spans");
    for ev in &events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert_eq!(ph, "X", "every event is a complete span");
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("ts").is_some() && ev.get("pid").is_some());
        assert_eq!(ev.get("pid").and_then(|v| v.as_u64()), Some(id));
    }
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(
        names,
        ["priors", "episodes", "extraction"],
        "one span per MCTS phase"
    );

    // Unknown ids get the typed error.
    let err = client.trace(999_999).expect_err("unknown session");
    assert!(err.starts_with("UnknownSession"), "{err}");

    // The durable store is live and observable over the wire.
    let persist = client.persist_stats().expect("persist verb");
    assert_eq!(persist.durability, "batch", "default policy");
    assert!(persist.records_total > 0, "transitions were logged");
    assert!(!persist.recovered_snapshot, "fresh data dir: no snapshot");
    assert!(
        parse_exposition(&text, "ixtune_persist_records_total") > 0.0,
        "persist counters reach the exposition"
    );

    client.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn warm_store_collapses_second_identical_session_over_the_wire() {
    let (daemon, client) = boot("ixtuned-e2e-warm", |_| {});

    let run = || {
        let id = client.submit(mcts_spec(200)).expect("submit");
        let status = client.wait_terminal(id, WAIT).expect("session settles");
        assert_eq!(status.state, SessionState::Done);
        client.result(id).expect("result")
    };

    let a = run();
    assert_eq!(a.telemetry.warm_hits, 0, "cold store: no warm hits");

    let stats = client.store_stats().expect("store stats verb");
    assert!(stats.entries > 0, "first session populated the store");
    assert!(stats.bytes > 0 && stats.bytes <= stats.max_bytes);

    // The identical request again: every budgeted what-if call is now
    // answered from the warm store (a 100% reduction in simulated calls,
    // comfortably past the >=50% acceptance bar), and the result is
    // bit-identical to the cold run.
    let b = run();
    assert!(b.telemetry.warm_seeded > 0, "second session seeded");
    assert_eq!(
        b.telemetry.warm_hits, b.telemetry.what_if_calls,
        "every budgeted call warm-served"
    );
    assert!(
        b.telemetry.warm_hits * 2 >= b.telemetry.what_if_calls,
        ">=50% of simulated what-if calls eliminated"
    );
    assert_eq!(strip_wall_clock(a), strip_wall_clock(b.clone()));

    // Flush empties the store; a third run is cold again.
    let flushed = client.store_flush().expect("store flush verb");
    assert!(flushed > 0, "flush reports discarded entries");
    let stats = client.store_stats().expect("stats after flush");
    assert_eq!(stats.entries, 0);
    let c = run();
    assert_eq!(c.telemetry.warm_hits, 0, "flushed store serves nothing");
    assert_eq!(strip_wall_clock(b), strip_wall_clock(c));

    // The warm counters reach the daemon metrics exposition.
    let text = client.metrics().expect("metrics");
    assert!(parse_exposition(&text, "ixtune_warm_hits_total") > 0.0);
    assert!(parse_exposition(&text, "ixtune_warm_seeded_total") > 0.0);

    client.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn protocol_rejects_garbage_and_unknown_sessions() {
    use std::io::{BufRead, BufReader, Write};

    let (daemon, client) = boot("ixtuned-e2e-proto", |_| {});

    // Unknown session ids come back as structured errors carrying the
    // stable code name, not free-form text.
    let err = client.status(999).expect_err("no such session");
    assert!(err.starts_with("UnknownSession"), "{err}");

    // A malformed line gets an Error response, not a dropped connection.
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(b"{not json}\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("Error"), "got: {line}");

    client.shutdown().expect("shutdown");
    daemon.join();
}
