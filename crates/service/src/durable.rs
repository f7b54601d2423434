//! Glue between the session manager and the `ixtune-persist` durability
//! layer.
//!
//! The persist crate is std-only and speaks primitives; this module owns
//! the translation in both directions — the cells a settle added to the
//! warm store, the store's tables at compaction, and session transitions
//! become [`Record`]s on the way down, a recovered [`PersistState`]'s warm
//! batches become warm-store absorptions on the way up.
//!
//! The store counts its own records, fsyncs and compactions
//! ([`DurableLog::stats`]); `ixtunectl persist` reports those counts, and
//! the manager's scrape renders the `ixtune_persist_*` series from them
//! and from [`DurableLog::degraded`]. This module registers only what no
//! owner keeps: failed operations (`ixtune_persist_io_errors_total`) and
//! the recovery-duration histogram. Durable operations record no trace
//! span: the trace ring is read one session scope at a time, and no
//! persist operation belongs to one session.
//!
//! Durability failures (disk full, permission lost) are surfaced as a
//! counter and stderr line but never take the daemon down: tuning keeps
//! its in-memory correctness, only restart recovery degrades.

use ixtune_common::fault::FaultPlan;
use ixtune_common::{IndexSet, QueryId};
use ixtune_core::warm::WarmStore;
use ixtune_obs::{Counter, MetricsRegistry};
use ixtune_persist::{
    CompactOutcome, Durability, Persist, PersistState, PersistStats, Record, WarmBatch, WarmEntry,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bucket bounds for the recovery-duration histogram, in milliseconds.
const RECOVERY_BOUNDS: [f64; 8] = [1.0, 5.0, 25.0, 100.0, 500.0, 2_500.0, 10_000.0, 60_000.0];

/// Attempts per durable operation before the degradation ladder engages.
const IO_ATTEMPTS: u32 = 3;

/// Deterministic exponential backoff with seeded jitter: attempt `a`
/// (1-based) sleeps `2^(a-1)` ms plus up to one extra millisecond derived
/// from the seed — reproducible under a fixed fault plan, and never
/// synchronized across daemons running with different seeds.
fn backoff(seed: u64, attempt: u32) -> Duration {
    let base_us = 1_000u64 << u64::from((attempt - 1).min(6));
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(attempt) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_micros(base_us + z % 1_000)
}

/// The manager's handle on the durable store: append + compact with
/// retries and error counting, opened once at daemon start.
pub struct DurableLog {
    persist: Persist,
    io_errors_total: Arc<Counter>,
    demoted: AtomicBool,
    backoff_seed: u64,
}

impl DurableLog {
    /// Open (or create) the store under `data_dir`, recover, and record
    /// the recovery duration. Returns the recovered state for the manager
    /// to import.
    pub fn open(
        data_dir: &Path,
        durability: Durability,
        registry: &Arc<MetricsRegistry>,
        faults: &FaultPlan,
    ) -> io::Result<(Self, PersistState)> {
        let (persist, state, info) = Persist::open(data_dir, durability)?;
        if faults.enabled() {
            let plan = faults.clone();
            persist.set_fault_hook(Arc::new(move |site| plan.fire(site)));
        }

        let io_errors_total = registry.counter(
            "ixtune_persist_io_errors_total",
            "Durability operations that failed (state kept in memory only)",
            &[],
        );
        registry
            .histogram(
                "ixtune_persist_recovery_duration_ms",
                "Wall-clock recovery duration at daemon start, in milliseconds",
                &[],
                &RECOVERY_BOUNDS,
            )
            .observe(info.duration_ms);

        Ok((
            Self {
                persist,
                io_errors_total,
                demoted: AtomicBool::new(false),
                backoff_seed: faults.seed(),
            },
            state,
        ))
    }

    /// Whether the degradation ladder has demoted durability to
    /// in-memory only.
    pub fn degraded(&self) -> bool {
        self.demoted.load(Ordering::SeqCst)
    }

    /// The degradation ladder's last rung: persistent IO failure stops
    /// the store from issuing fsyncs and the log from retrying. Tuning
    /// keeps its in-memory correctness; restart recovery is forfeited
    /// until an operator intervenes. Idempotent.
    fn demote(&self, err: &io::Error) {
        if self.demoted.swap(true, Ordering::SeqCst) {
            return;
        }
        self.persist.set_durability(Durability::Never);
        eprintln!("ixtuned: persistence degraded to in-memory only: {err}");
    }

    /// Append one record. Errors are counted, retried with deterministic
    /// backoff, and finally absorbed by the degradation ladder — never propagated. A record
    /// refused as too large for a frame is only counted. A retry after a
    /// failed *fsync* may re-append the record; replay folds are
    /// idempotent so duplicates are harmless.
    pub fn append(&self, rec: &Record) {
        let max = if self.degraded() { 1 } else { IO_ATTEMPTS };
        let mut attempt = 0u32;
        loop {
            match self.persist.append(rec) {
                Ok(_) => return,
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                    // A record too large for a frame: the store refused it
                    // before writing a byte. Not a disk fault, so neither
                    // retried nor demoted.
                    self.io_errors_total.inc();
                    eprintln!("ixtuned: WAL append refused: {e}");
                    return;
                }
                Err(e) => {
                    self.io_errors_total.inc();
                    attempt += 1;
                    if attempt >= max {
                        eprintln!("ixtuned: WAL append failed after {attempt} attempt(s): {e}");
                        self.demote(&e);
                        return;
                    }
                    std::thread::sleep(backoff(self.backoff_seed, attempt));
                }
            }
        }
    }

    /// Compact when the WAL has outgrown `threshold` bytes, writing the
    /// live sessions and `warm`'s tables. Called after a session settles —
    /// off every tuning hot path. An aborted compaction keeps the previous
    /// generation intact, so retrying is always safe.
    ///
    /// `warm` holds every logged cell it has not evicted or flushed: a
    /// settle absorbs before it logs, a flush empties it before logging.
    pub fn maybe_compact(&self, threshold: u64, warm: &WarmStore) -> Option<CompactOutcome> {
        if self.persist.stats().wal_bytes <= threshold {
            return None;
        }
        let max = if self.degraded() { 1 } else { IO_ATTEMPTS };
        let mut attempt = 0u32;
        loop {
            // Converted one table at a time: no second copy of the store.
            let tables = || {
                warm.export_tables().into_iter().map(|((key, fp), s)| {
                    warm_batch(&key, fp, s.num_queries(), s.universe(), s.iter_entries())
                })
            };
            match self.persist.compact(tables) {
                Ok(out) => return Some(out),
                Err(e) => {
                    self.io_errors_total.inc();
                    attempt += 1;
                    if attempt >= max {
                        eprintln!("ixtuned: compaction failed after {attempt} attempt(s): {e}");
                        self.demote(&e);
                        return None;
                    }
                    std::thread::sleep(backoff(self.backoff_seed, attempt));
                }
            }
        }
    }

    /// Flush any unsynced batch (clean shutdown).
    pub fn sync(&self) {
        if let Err(e) = self.persist.sync() {
            self.io_errors_total.inc();
            eprintln!("ixtuned: WAL sync failed: {e}");
        }
    }

    /// Point-in-time store statistics: `ixtunectl persist` and the
    /// scrape's `ixtune_persist_*` series both read them.
    pub fn stats(&self) -> PersistStats {
        self.persist.stats()
    }
}

/// The `WarmBatch` of `cells` for the warm table `(key, fingerprint)`.
/// Costs are captured as exact bit patterns; replay through
/// [`import_warm`] reconstructs values bit-identically.
pub fn warm_batch<'a>(
    key: &str,
    fingerprint: u64,
    num_queries: usize,
    universe: usize,
    cells: impl Iterator<Item = (QueryId, &'a IndexSet, f64)>,
) -> WarmBatch {
    WarmBatch {
        key: key.to_string(),
        fingerprint,
        num_queries: num_queries as u32,
        universe: universe as u32,
        entries: cells
            .map(|(q, config, cost)| WarmEntry {
                query: q.index() as u32,
                blocks: config.as_blocks().to_vec(),
                cost_bits: cost.to_bits(),
            })
            .collect(),
    }
}

/// Replay recovered warm batches into the live store, in log order: the
/// absorptions the store saw before the restart. Rows that fail
/// structural validation (foreign block counts, out-of-range queries) are
/// poisoned: each is dropped individually and counted, so a partially
/// valid batch still contributes. Returns `(imported, dropped)` entry
/// counts.
pub fn import_warm(state: &PersistState, store: &WarmStore) -> (usize, usize) {
    let mut imported = 0;
    let mut dropped = 0;
    for batch in state.warm() {
        let num_queries = batch.num_queries as usize;
        let universe = batch.universe as usize;
        let ledger: Vec<(QueryId, IndexSet, f64)> = batch
            .entries
            .iter()
            .filter_map(|e| {
                let row = ((e.query as usize) < num_queries)
                    .then(|| IndexSet::from_blocks(universe, e.blocks.clone()))
                    .flatten()
                    .map(|set| (QueryId::new(e.query), set, f64::from_bits(e.cost_bits)));
                if row.is_none() {
                    dropped += 1;
                }
                row
            })
            .collect();
        imported += store
            .absorb(&batch.key, batch.fingerprint, num_queries, universe, ledger)
            .len();
    }
    (imported, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ixtuned-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (DurableLog, PersistState, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let (log, state) =
            DurableLog::open(dir, Durability::Always, &registry, &FaultPlan::none()).unwrap();
        (log, state, registry)
    }

    /// A crash mid-append leaves a torn WAL tail; reopening must report
    /// it in the recovery stats the scrape renders as
    /// `ixtune_persist_torn_tails_total` (the manager's
    /// `scrape_reports_a_torn_tail_and_counts_appends` checks the series)
    /// while recovering the valid prefix.
    #[test]
    fn torn_tail_bumps_the_recovery_counter() {
        let dir = scratch("torn");
        {
            let (log, _, _) = open(&dir);
            log.append(&Record::SessionSubmitted {
                id: 0,
                spec_json: "{}".into(),
            });
            assert!(
                !log.stats().recovery.torn_tail,
                "clean open reports no tears"
            );
        }
        // Simulate a crash mid-frame: half a header after the good record.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal-0.log"))
            .unwrap();
        f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
        drop(f);

        let (log, state, _) = open(&dir);
        assert!(log.stats().recovery.torn_tail);
        assert_eq!(state.sessions().len(), 1, "valid prefix survives the tear");
        // The append path keeps working and counts the new record.
        log.append(&Record::SessionResumed { id: 0 });
        assert_eq!(log.stats().records_total, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Recovered warm tables re-absorb with costs bit-identical, and rows
    /// that fail structural validation are dropped individually rather than
    /// poisoning the table.
    #[test]
    fn import_warm_revalidates_rows_individually() {
        let mut state = PersistState::default();
        state.apply(Record::WarmBatch(WarmBatch {
            key: "synth:1|mcts".into(),
            fingerprint: 42,
            num_queries: 4,
            universe: 8,
            entries: vec![
                WarmEntry {
                    query: 0,
                    blocks: vec![0b101],
                    cost_bits: 1.5f64.to_bits(),
                },
                // Out-of-range query: dropped.
                WarmEntry {
                    query: 9,
                    blocks: vec![0b1],
                    cost_bits: 2.0f64.to_bits(),
                },
                // Wrong block count for universe=8: dropped.
                WarmEntry {
                    query: 1,
                    blocks: vec![1, 2, 3],
                    cost_bits: 3.0f64.to_bits(),
                },
            ],
        }));
        let store = WarmStore::new(1 << 20);
        assert_eq!(import_warm(&state, &store), (1, 2));
        let set = IndexSet::from_blocks(8, vec![0b101]).unwrap();
        let snap = store.checkout("synth:1|mcts", 42, 4, 8);
        let cost = snap.get(QueryId::new(0), &set).expect("imported row");
        assert_eq!(cost.to_bits(), 1.5f64.to_bits());
    }

    /// A record too large for a frame is refused and counted, without
    /// retries and without demoting a healthy disk (the manager's
    /// `scrape_counts_a_refused_record_as_an_io_error` checks the series).
    #[test]
    fn oversized_record_is_counted_not_demoted() {
        let dir = scratch("oversized");
        let (log, _, registry) = open(&dir);
        log.append(&Record::SessionFailed {
            id: 0,
            error: "x".repeat(ixtune_persist::wal::MAX_PAYLOAD as usize),
        });
        assert!(!log.degraded());
        assert_eq!(log.stats().durability, Durability::Always);
        assert_eq!(
            registry.counter_value("ixtune_persist_io_errors_total", &[]),
            Some(1)
        );
        assert_eq!(log.stats().records_total, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Under a fault plan that fails every append, the retry ladder runs
    /// out and demotes durability to in-memory only — once. The daemon
    /// keeps serving; `degraded()`, which the scrape renders as the
    /// `ixtune_persist_degraded` gauge, flips (the manager's
    /// `scrape_raises_the_degraded_gauge` checks the series).
    #[test]
    fn persistent_append_failure_engages_the_degradation_ladder() {
        let dir = scratch("ladder");
        let registry = Arc::new(MetricsRegistry::new());
        let plan = FaultPlan::parse("seed=7;persist.append=p1").unwrap();
        let (log, _) = DurableLog::open(&dir, Durability::Always, &registry, &plan).unwrap();
        assert!(!log.degraded());
        log.append(&Record::SessionSubmitted {
            id: 0,
            spec_json: "{}".into(),
        });
        assert!(log.degraded(), "three failed attempts demote the store");
        assert_eq!(log.stats().durability, Durability::Never);
        // Demoted stores stop retrying: exactly one more io error per call.
        let before = plan.injected(ixtune_persist::fault_site::APPEND);
        log.append(&Record::SessionResumed { id: 0 });
        assert_eq!(
            plan.injected(ixtune_persist::fault_site::APPEND),
            before + 1
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
