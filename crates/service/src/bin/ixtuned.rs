//! The tuning daemon. Serves the line-delimited JSON protocol on a
//! localhost TCP port until a `Shutdown` request arrives.
//!
//! ```text
//! ixtuned [--bind 127.0.0.1:7311] [--max-concurrent N] \
//!         [--queue-capacity N] [--data-dir DIR] \
//!         [--durability always|batch|never] \
//!         [--wal-compact-bytes N] [--warm-store-bytes N] \
//!         [--prepared-capacity N] [--fault-spec SPEC]
//! ```
//!
//! Each session runs on one of `--max-concurrent` worker threads, start
//! to finish. `--max-session-threads N` is still accepted and ignored (a
//! value that is not a number still exits 2), so existing command lines
//! keep working.
//!
//! `--fault-spec` arms the deterministic fault-injection plane, e.g.
//! `seed=42;whatif.error=p0.05;wire.drop=every7` — see DESIGN.md §11.
//!
//! `--data-dir` is the daemon's durable root: restarting on the same
//! directory replays the write-ahead log, so suspended sessions reappear
//! resumable, completed results stay queryable, and the warm cost store
//! opens with every cost prior sessions paid for.

use ixtune_service::{Daemon, ServiceConfig};
use std::process::exit;

fn main() {
    let mut bind = "127.0.0.1:7311".to_string();
    let mut cfg = ServiceConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                exit(2);
            })
        };
        match flag.as_str() {
            "--bind" => bind = value("--bind"),
            "--max-concurrent" => cfg.max_concurrent = parse(&value("--max-concurrent")),
            "--queue-capacity" => cfg.queue_capacity = parse(&value("--queue-capacity")),
            // Accepted for older command lines; sessions are single-threaded.
            "--max-session-threads" => {
                parse(&value("--max-session-threads"));
            }
            "--data-dir" => cfg.data_dir = value("--data-dir").into(),
            "--durability" => {
                let v = value("--durability");
                cfg.durability = v.parse().unwrap_or_else(|e| {
                    eprintln!("--durability: {e}");
                    exit(2);
                })
            }
            "--wal-compact-bytes" => {
                cfg.wal_compact_bytes = parse(&value("--wal-compact-bytes")) as u64
            }
            "--warm-store-bytes" => {
                cfg.warm_store_bytes = parse(&value("--warm-store-bytes")) as u64
            }
            "--prepared-capacity" => cfg.prepared_capacity = parse(&value("--prepared-capacity")),
            "--fault-spec" => {
                let v = value("--fault-spec");
                if let Err(e) = ixtune_common::fault::FaultPlan::parse(&v) {
                    eprintln!("--fault-spec: {e}");
                    exit(2);
                }
                cfg.fault_spec = v;
            }
            "--help" | "-h" => {
                println!(
                    "ixtuned [--bind ADDR] [--max-concurrent N] [--queue-capacity N] \
                     [--data-dir DIR] [--durability always|batch|never] \
                     [--wal-compact-bytes N] [--warm-store-bytes N] \
                     [--prepared-capacity N] [--fault-spec SPEC]\n\
                     Each session runs on one worker thread; --max-session-threads N is \
                     accepted and ignored."
                );
                return;
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                exit(2);
            }
        }
    }

    match Daemon::start(cfg, &bind) {
        Ok(daemon) => {
            println!("ixtuned listening on {}", daemon.addr());
            daemon.join();
            println!("ixtuned stopped");
        }
        Err(e) => {
            eprintln!("failed to bind {bind}: {e}");
            exit(1);
        }
    }
}

fn parse(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got `{s}`");
        exit(2);
    })
}
