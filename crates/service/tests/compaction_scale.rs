//! Compaction at scale. 16,000 synth sessions run through one
//! `SessionManager` with the default `wal_compact_bytes`, so the state the
//! compactions write grows past one WAL frame's 64 MiB bound (about
//! 71 MB of snapshot by the 17th compaction). Compaction writes the warm
//! store's tables, so the store is bounded at 256 MiB here to keep every
//! table; at the default 64 MiB it evicts, and the snapshot stays near
//! 48 MB. A restart on the same data dir must still recover every session
//! and exactly the warm store the first daemon held at shutdown.
//!
//! The run takes about half a minute as a release build on two cores and
//! far longer in debug, so it is ignored by default:
//!
//! ```text
//! cargo test --release -p ixtune-service --test compaction_scale -- --ignored --nocapture
//! ```

use ixtune_service::{
    AlgorithmSpec, ServiceConfig, SessionManager, SessionState, SubmitSpec, WorkloadSpec,
};
use std::time::{Duration, Instant};

#[test]
#[ignore = "16,000 sessions: run with --release -- --ignored"]
fn every_session_survives_compaction_and_restart() {
    let n: u64 = 16_000;
    let data_dir =
        std::env::temp_dir().join(format!("ixtuned-compaction-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ServiceConfig {
        max_concurrent: 2,
        queue_capacity: n as usize,
        warm_store_bytes: 256 << 20,
        data_dir: data_dir.clone(),
        ..ServiceConfig::default()
    };
    let algorithms = [
        AlgorithmSpec::VanillaGreedy,
        AlgorithmSpec::TwoPhase,
        AlgorithmSpec::AutoAdmin,
    ];

    let started = Instant::now();
    let (compactions, store_at_shutdown) = {
        let mgr = SessionManager::start(cfg.clone());
        for i in 0..n {
            let spec = SubmitSpec::new(
                WorkloadSpec::Synth(1_000_000 + i),
                algorithms[i as usize % 3],
                3,
                300,
            );
            assert_eq!(mgr.submit(spec).expect("admitted"), i);
        }
        for i in 0..n {
            assert_eq!(
                mgr.wait_settled(i, Duration::from_secs(600)),
                Some(SessionState::Done),
                "session {i}"
            );
        }
        let stats = mgr.persist_stats();
        let store = mgr.store_stats();
        eprintln!(
            "{n} sessions in {:.1}s: generation {}, {} compactions, warm store {} entries",
            started.elapsed().as_secs_f64(),
            stats.generation,
            stats.compactions_total,
            store.entries
        );
        mgr.shutdown();
        (stats.compactions_total, store)
    };
    let snapshot_bytes: u64 = std::fs::read_dir(&data_dir)
        .expect("list data dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
        .map(|e| e.metadata().expect("stat").len())
        .sum();

    let mgr = SessionManager::start(cfg);
    let recovery = mgr.persist_stats().recovery;
    let sessions = mgr.list();
    let done = sessions
        .iter()
        .filter(|s| s.state == SessionState::Done)
        .count();
    let store = mgr.store_stats();
    let warm_entries = store.entries;
    eprintln!(
        "restart: {snapshot_bytes}-byte snapshot, {recovery:?}, {} sessions ({done} done), \
         warm store {warm_entries} entries",
        sessions.len()
    );
    mgr.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);

    assert!(
        snapshot_bytes > u64::from(ixtune_persist::wal::MAX_PAYLOAD),
        "the state outgrew one frame: {snapshot_bytes} bytes"
    );
    assert_eq!(recovery.snapshot_loaded, compactions > 0, "{recovery:?}");
    assert_eq!(recovery.snapshots_skipped, 0);
    assert_eq!(sessions.len() as u64, n, "every session recovered");
    assert_eq!(done as u64, n, "every recovered session is Done");
    assert!(warm_entries > 0, "the warm store comes back");
    assert_eq!(
        store_at_shutdown.evictions, 0,
        "the bound keeps every table"
    );
    assert_eq!(
        (warm_entries, store.bytes),
        (store_at_shutdown.entries, store_at_shutdown.bytes),
        "the restarted store holds exactly the store at shutdown"
    );
}
