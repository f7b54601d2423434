//! CLI client for `ixtuned`.
//!
//! ```text
//! ixtunectl [--addr 127.0.0.1:7311] <command> [args]
//!
//! Commands:
//!   ping
//!   submit --workload W --algorithm A --k K --budget B
//!          [--storage BYTES] [--seed S]
//!          [--deadline-ms MS] [--pause-after N] [--cancel-after N]
//!          [--wait]
//!   status  <id>
//!   result  <id>
//!   cancel  <id>
//!   suspend <id>
//!   resume  <id>
//!   list
//!   top
//!   metrics
//!   trace   <id>     (`[]`: no spans of the session in this daemon's ring)
//!   store   stats|flush
//!   persist
//!   shutdown
//! ```

use ixtune_service::{AlgorithmSpec, Client, SubmitSpec, WorkloadSpec};
use std::process::exit;
use std::time::Duration;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7311".to_string();
    if args.len() >= 2 && args[0] == "--addr" {
        addr = args[1].clone();
        args.drain(..2);
    }
    let Some(cmd) = args.first().cloned() else {
        usage();
        exit(2);
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        usage();
        return;
    }
    let rest = &args[1..];
    let client = Client::new(addr);

    // Every daemon-side failure surfaces here as `Err` carrying the typed
    // `ErrorCode` string ("UnknownSession: no session 7"), and the process
    // exits nonzero — scripts can trust the exit status, not just stdout.
    if let Err(e) = run(&cmd, rest, &client) {
        eprintln!("error: {e}");
        if e.starts_with("unknown command") {
            usage();
            exit(2);
        }
        exit(1);
    }
}

/// Dispatch one verb against the daemon. Unit-testable: the binary's
/// stdout is plain progress text, all failures come back as `Err`.
fn run(cmd: &str, rest: &[String], client: &Client) -> Result<(), String> {
    match cmd {
        "ping" => client.ping().map(|()| println!("pong")),
        "submit" => submit(client, rest),
        "status" => client
            .status(id_arg(rest)?)
            .map(|s| println!("{}", serde_json::to_string(&s).unwrap())),
        "result" => client
            .result(id_arg(rest)?)
            .map(|r| println!("{}", serde_json::to_string(&r).unwrap())),
        "cancel" => client.cancel(id_arg(rest)?).map(|()| println!("cancelled")),
        "suspend" => client
            .suspend(id_arg(rest)?)
            .map(|()| println!("suspended")),
        "resume" => client.resume(id_arg(rest)?).map(|()| println!("resumed")),
        "list" => client.list().map(|sessions| {
            for s in sessions {
                println!("{}", serde_json::to_string(&s).unwrap());
            }
        }),
        "top" => top(client),
        "metrics" => client.metrics().map(|text| print!("{text}")),
        "trace" => client.trace(id_arg(rest)?).map(|json| println!("{json}")),
        "store" => store(client, rest),
        "persist" => client
            .persist_stats()
            .map(|s| println!("{}", serde_json::to_string(&s).unwrap())),
        "shutdown" => client.shutdown().map(|()| println!("shutdown requested")),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn submit(client: &Client, rest: &[String]) -> Result<(), String> {
    let mut workload: Option<String> = None;
    let mut algorithm: Option<String> = None;
    let mut k: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut storage: Option<u64> = None;
    let mut seed: u64 = 0;
    let mut deadline_ms: Option<u64> = None;
    let mut pause_after: Option<usize> = None;
    let mut cancel_after: Option<usize> = None;
    let mut wait = false;

    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--wait" {
            wait = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--algorithm" => algorithm = Some(value.clone()),
            "--k" => k = Some(num(value)?),
            "--budget" => budget = Some(num(value)?),
            "--storage" => storage = Some(num(value)?),
            "--seed" => seed = num(value)?,
            "--deadline-ms" => deadline_ms = Some(num(value)?),
            "--pause-after" => pause_after = Some(num(value)?),
            "--cancel-after" => cancel_after = Some(num(value)?),
            other => return Err(format!("unknown submit flag `{other}`")),
        }
    }

    let workload = workload.ok_or("submit requires --workload")?;
    let workload =
        WorkloadSpec::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let algorithm = algorithm.ok_or("submit requires --algorithm")?;
    let algorithm = AlgorithmSpec::parse(&algorithm)
        .ok_or_else(|| format!("unknown algorithm `{algorithm}`"))?;
    let mut spec = SubmitSpec::new(
        workload,
        algorithm,
        k.ok_or("submit requires --k")?,
        budget.ok_or("submit requires --budget")?,
    );
    spec.storage_bytes = storage;
    spec.seed = seed;
    spec.deadline_ms = deadline_ms;
    spec.pause_after_calls = pause_after;
    spec.cancel_after_calls = cancel_after;

    let id = client.submit(spec)?;
    println!("submitted session {id}");
    if wait {
        let status = client.wait_terminal(id, Duration::from_secs(3600))?;
        println!("{}", serde_json::to_string(&status).unwrap());
        // Propagate, don't swallow: a session that settled Failed has no
        // result, and `--wait` must exit nonzero with the typed code
        // (`NoResult: …`) rather than pretend the tuning succeeded.
        let result = client.result(id)?;
        println!("{}", serde_json::to_string(&result).unwrap());
    }
    Ok(())
}

/// One-shot operator view: a session table from `list` + `status`, and
/// the daemon-level counters pulled from the metrics exposition.
fn top(client: &Client) -> Result<(), String> {
    let sessions = client.list()?;
    println!(
        "{:>5}  {:<10} {:<14} {:<12} {:>10} {:>8} {:>10}",
        "ID", "STATE", "ALGORITHM", "WORKLOAD", "CALLS", "BEST%", "WALL_MS"
    );
    for s in &sessions {
        let status = client.status(s.id)?;
        println!(
            "{:>5}  {:<10} {:<14} {:<12} {:>10} {:>8.2} {:>10.1}",
            s.id,
            format!("{:?}", s.state),
            format!("{:?}", s.algorithm),
            s.workload,
            status.telemetry.what_if_calls,
            status.best_improvement * 100.0,
            status.wall_clock_ms,
        );
    }
    let metrics = client.metrics()?;
    let sum_series = |prefix: &str| -> u64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>() as u64
    };
    let total = sum_series("ixtune_whatif_calls_total");
    let warm_hits = sum_series("ixtune_warm_hits_total");
    let warm_seeded = sum_series("ixtune_warm_seeded_total");
    let store_bytes = sum_series("ixtune_warm_store_bytes");
    println!(
        "\n{} sessions · {total} what-if calls served · {warm_hits} warm hits · \
         {warm_seeded} warm-seeded · {store_bytes} store bytes",
        sessions.len()
    );
    Ok(())
}

/// `store stats` / `store flush`: inspect or empty the daemon's warm cost
/// store.
fn store(client: &Client, rest: &[String]) -> Result<(), String> {
    match rest.first().map(String::as_str) {
        Some("stats") => {
            let s = client.store_stats()?;
            println!("{}", serde_json::to_string(&s).unwrap());
            Ok(())
        }
        Some("flush") => {
            let n = client.store_flush()?;
            println!("flushed {n} entries");
            Ok(())
        }
        other => Err(format!("store requires `stats` or `flush`, got {other:?}")),
    }
}

fn id_arg(rest: &[String]) -> Result<u64, String> {
    let raw = rest.first().ok_or("expected a session id")?;
    raw.parse()
        .map_err(|_| format!("invalid session id `{raw}`"))
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("expected a number, got `{s}`"))
}

fn usage() {
    eprintln!(
        "ixtunectl [--addr ADDR] <ping|submit|status|result|cancel|suspend|resume|list|top|metrics|trace|store|persist|shutdown>\n\
         submit: --workload tpch|tpcds|job|reald|realm|synth:<seed> --algorithm mcts|greedy|twophase|autoadmin\n\
         \x20       --k K --budget B [--storage BYTES] [--seed S]\n\
         \x20       [--deadline-ms MS] [--pause-after N] [--cancel-after N] [--wait]\n\
         top:     one-shot session table + daemon counters\n\
         metrics: Prometheus text exposition of the daemon registry\n\
         trace:   <id> — Chrome-trace JSON for one session (load in a trace viewer);\n\
         \x20        `[]` means this daemon process holds none of its spans: its trace ring\n\
         \x20        evicted them, the session was recovered from the WAL after a restart,\n\
         \x20        or it has not run yet\n\
         store:   stats|flush — inspect or empty the warm cost store\n\
         persist: durable store statistics (WAL, generation, recovery)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_service::{Daemon, ServiceConfig};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn test_config(tag: &str) -> ServiceConfig {
        let data_dir = std::env::temp_dir().join(format!("ixtunectl-test-{tag}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        ServiceConfig {
            max_concurrent: 1,
            queue_capacity: 4,
            data_dir,
            ..ServiceConfig::default()
        }
    }

    /// Every verb against a live daemon: successes return `Ok`, and every
    /// daemon-side failure comes back as `Err` carrying the typed
    /// `ErrorCode` string — which `main` turns into a nonzero exit.
    #[test]
    fn each_verb_reports_daemon_errors_as_err() {
        let daemon = Daemon::start(test_config("verbs"), "127.0.0.1:0").unwrap();
        let client = Client::new(daemon.addr().to_string());

        assert!(run("ping", &[], &client).is_ok());
        assert!(run("list", &[], &client).is_ok());
        assert!(run("top", &[], &client).is_ok());
        assert!(run("metrics", &[], &client).is_ok());
        assert!(run("persist", &[], &client).is_ok());
        assert!(run("store", &strs(&["stats"]), &client).is_ok());
        assert!(run("store", &strs(&["flush"]), &client).is_ok());

        // A full happy-path submit --wait prints the result and is Ok.
        let submit_args = strs(&[
            "--workload",
            "synth:3",
            "--algorithm",
            "greedy",
            "--k",
            "3",
            "--budget",
            "30",
            "--wait",
        ]);
        assert!(run("submit", &submit_args, &client).is_ok());
        assert!(run("status", &strs(&["0"]), &client).is_ok());
        assert!(run("result", &strs(&["0"]), &client).is_ok());
        assert!(run("trace", &strs(&["0"]), &client).is_ok());

        // Daemon-side errors carry the ErrorCode name, never exit 0.
        for (cmd, id, code) in [
            ("status", "99", "UnknownSession"),
            ("result", "99", "UnknownSession"),
            ("cancel", "99", "UnknownSession"),
            ("suspend", "99", "UnknownSession"),
            ("resume", "99", "UnknownSession"),
            ("trace", "99", "UnknownSession"),
            ("cancel", "0", "AlreadyTerminal"),
            ("suspend", "0", "NotResumable"),
            ("resume", "0", "NotSuspended"),
        ] {
            let err = run(cmd, &strs(&[id]), &client).unwrap_err();
            assert!(
                err.starts_with(code),
                "`{cmd} {id}` should fail with {code}, got: {err}"
            );
        }

        // Client-side argument errors are Err too (no silent success).
        assert!(run("status", &[], &client).is_err());
        assert!(run("status", &strs(&["abc"]), &client).is_err());
        assert!(run("store", &strs(&["bogus"]), &client).is_err());
        assert!(run("bogus", &[], &client).is_err());

        assert!(run("shutdown", &[], &client).is_ok());
        daemon.join();
    }

    /// The `--wait` path must propagate a missing result: a session that
    /// settles `Failed` (here via an injected worker panic) makes
    /// `submit --wait` return `Err(NoResult: …)` instead of printing the
    /// terminal status and exiting 0.
    #[test]
    fn submit_wait_propagates_failed_sessions() {
        let mut cfg = test_config("wait-fail");
        cfg.fault_spec = "seed=1;worker.panic=every1".into();
        let daemon = Daemon::start(cfg, "127.0.0.1:0").unwrap();
        let client = Client::new(daemon.addr().to_string());

        let submit_args = strs(&[
            "--workload",
            "synth:3",
            "--algorithm",
            "greedy",
            "--k",
            "3",
            "--budget",
            "30",
            "--wait",
        ]);
        let err = run("submit", &submit_args, &client).unwrap_err();
        assert!(
            err.starts_with("NoResult"),
            "failed session must surface the typed code, got: {err}"
        );

        assert!(run("shutdown", &[], &client).is_ok());
        daemon.join();
    }
}
