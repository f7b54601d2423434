//! The daemon serves each connection on its own handler thread. Handlers
//! whose connections have closed are joined as new connections arrive, so
//! a long stream of short connections keeps the daemon's mapped thread
//! stacks bounded instead of holding every exited handler until shutdown.
//!
//! Alone in its test binary: it counts this process's memory mappings,
//! which threads of concurrently running tests would disturb.

#![cfg(target_os = "linux")]

use ixtune_service::{Client, Daemon, ServiceConfig};

fn mapping_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn finished_connection_handlers_are_reaped() {
    let data_dir = std::env::temp_dir().join(format!("ixtuned-reap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ServiceConfig {
        data_dir: data_dir.clone(),
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("bind an ephemeral port");
    let client = Client::new(daemon.addr().to_string());
    client.ping().expect("first ping");
    let before = mapping_lines();
    // One connection per ping. Unreaped, each exited handler keeps its
    // stack and guard page mapped: about 4,000 lines for 2,000 pings.
    for _ in 0..2_000 {
        client.ping().expect("ping");
    }
    let grown = mapping_lines().saturating_sub(before);
    daemon.initiate_shutdown();
    daemon.join();
    let _ = std::fs::remove_dir_all(&data_dir);
    assert!(
        grown < 200,
        "2,000 closed connections grew /proc/self/maps by {grown} lines"
    );
}
