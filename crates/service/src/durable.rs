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
use ixtune_persist::{Durability, Persist, PersistState, PersistStats, Record, WarmBatch};
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
    pub fn maybe_compact(&self, threshold: u64, warm: &WarmStore) {
        if self.persist.stats().wal_bytes <= threshold {
            return;
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
                Ok(()) => return,
                Err(e) => {
                    self.io_errors_total.inc();
                    attempt += 1;
                    if attempt >= max {
                        eprintln!("ixtuned: compaction failed after {attempt} attempt(s): {e}");
                        self.demote(&e);
                        return;
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
    let mut batch = WarmBatch::new(key, fingerprint, num_queries as u32, universe as u32);
    for (q, config, cost) in cells {
        batch.push(q.index() as u32, config.as_blocks(), cost.to_bits());
    }
    batch
}

/// Replay recovered warm batches into the live store, in log order: the
/// absorptions the store saw before the restart. Cells reach the store
/// borrowed from the batches, through the merge `absorb` runs. Rows that
/// fail structural validation (out-of-range queries, block arrays that
/// are no configuration over the batch's universe) are poisoned: each is
/// dropped individually and counted, so a partially valid batch still
/// contributes. A table the store refuses (its empty rows alone exceed
/// the byte bound) has all its rows counted poisoned. Returns
/// `(imported, dropped)` entry counts.
pub fn import_warm(state: &PersistState, store: &WarmStore) -> (usize, usize) {
    let mut imported = 0;
    let mut dropped = 0;
    for batch in state.warm() {
        let num_queries = batch.num_queries as usize;
        let universe = batch.universe as usize;
        let mut invalid = 0;
        let cells = batch
            .cells()
            .filter(|&(q, blocks, _)| {
                let valid = (q as usize) < num_queries && IndexSet::blocks_fit(universe, blocks);
                invalid += usize::from(!valid);
                valid
            })
            .map(|(q, blocks, bits)| (QueryId::new(q), blocks, f64::from_bits(bits)));
        match store.absorb_blocks(&batch.key, batch.fingerprint, num_queries, universe, cells) {
            Some(added) => {
                imported += added;
                dropped += invalid;
            }
            None => dropped += batch.len(),
        }
    }
    (imported, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_common::IndexId;
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
        let mut batch = WarmBatch::new("synth:1|mcts", 42, 4, 8);
        batch.push(0, &[0b101], 1.5f64.to_bits());
        // Out-of-range query: dropped.
        batch.push(9, &[0b1], 2.0f64.to_bits());
        // Wrong block count for universe=8: dropped.
        batch.push(1, &[1, 2, 3], 3.0f64.to_bits());
        // A member at 8 of an 8-candidate universe: dropped.
        batch.push(2, &[1 << 8], 4.0f64.to_bits());
        let mut state = PersistState::default();
        state.apply(Record::WarmBatch(batch));
        let store = WarmStore::new(1 << 20);
        assert_eq!(import_warm(&state, &store), (1, 3));
        let set = IndexSet::from_blocks(8, vec![0b101]).unwrap();
        let snap = store.checkout("synth:1|mcts", 42, 4, 8);
        let cost = snap.get(QueryId::new(0), &set).expect("imported row");
        assert_eq!(cost.to_bits(), 1.5f64.to_bits());
    }

    /// Recovery's borrowed import builds the store that absorbing the same
    /// cells as owned ledgers, in log order, builds: equal cell by cell
    /// (cost bits) and in every `WarmStoreStats` field. The log holds
    /// configurations repeated over consecutive cells and across batches,
    /// duplicate cells, a flush, poisoned rows, a refused table and more
    /// tables than the byte bound keeps.
    #[test]
    fn recovered_store_equals_the_one_owned_ledgers_build() {
        const UNIVERSE: usize = 100;
        const BOUND: usize = 6_000;
        let set = |ids: [u32; 2]| IndexSet::from_ids(UNIVERSE, ids.map(IndexId::new));
        // Table `t` prices configuration {s, 7s + t mod 100} for four
        // queries in a row, at each step `s`.
        let table = |key: &str, t: u32, steps: std::ops::Range<u32>| {
            let mut batch = WarmBatch::new(key, u64::from(t), 8, UNIVERSE as u32);
            for s in steps {
                let config = set([s, (7 * s + t) % 100]);
                for q in s % 5..s % 5 + 4 {
                    batch.push(
                        q,
                        config.as_blocks(),
                        (f64::from(s * 8 + q) + 0.5).to_bits(),
                    );
                }
            }
            batch
        };
        let mut poisoned = table("a", 0, 30..32);
        poisoned.push(8, set([1, 2]).as_blocks(), 1.0f64.to_bits()); // query past the table
        poisoned.push(0, &[1], 1.0f64.to_bits()); // one block of two
        poisoned.push(1, &[0, 1 << 36], 1.0f64.to_bits()); // member 100 of 100
        let mut refused = WarmBatch::new("huge", 9, u32::MAX, UNIVERSE as u32);
        refused.push(0, set([1, 2]).as_blocks(), 1.0f64.to_bits());
        let replayed = [
            table("a", 0, 0..12),
            table("b", 1, 0..12),
            table("a", 0, 8..20),
            poisoned,
            refused,
            table("c", 2, 0..12),
            table("b", 1, 4..10),
        ];
        let dir = scratch("identity");
        {
            let (log, _, _) = open(&dir);
            log.append(&Record::WarmBatch(table("gone", 3, 0..4)));
            log.append(&Record::WarmFlush);
            for batch in &replayed {
                log.append(&Record::WarmBatch(batch.clone()));
            }
        }
        let (_log, state, _) = open(&dir);
        let recovered = WarmStore::new(BOUND);
        let (imported, dropped) = import_warm(&state, &recovered);

        let owned = WarmStore::new(BOUND);
        let mut added = 0;
        for b in &replayed {
            let (num_queries, universe) = (b.num_queries as usize, b.universe as usize);
            let ledger = b
                .cells()
                .filter(|&(q, _, _)| (q as usize) < num_queries)
                .filter_map(|(q, blocks, bits)| {
                    let config = IndexSet::from_blocks(universe, blocks.to_vec())?;
                    Some((QueryId::new(q), config, f64::from_bits(bits)))
                })
                .collect();
            added += owned
                .absorb(&b.key, b.fingerprint, num_queries, universe, ledger)
                .len();
        }
        assert_eq!((imported, dropped), (added, 3 + 1));
        let stats = recovered.stats();
        assert_eq!(stats, owned.stats());
        assert!(stats.evictions > 0 && stats.workloads > 0, "{stats:?}");
        let cells = |store: &WarmStore| {
            let mut cells = Vec::new();
            for ((key, fp), snap) in store.export_tables() {
                for (q, config, cost) in snap.iter_entries() {
                    cells.push((key.clone(), fp, q, config.clone(), cost.to_bits()));
                }
            }
            cells
        };
        assert_eq!(cells(&recovered), cells(&owned));
        // The merge both stores share, checked against the log itself:
        // every stored cell was logged with its cost, and every valid cell
        // of the last batch of each table the bound kept is stored.
        let logged: std::collections::HashMap<_, _> = replayed
            .iter()
            .flat_map(|b| {
                b.cells()
                    .map(move |(q, blocks, bits)| ((b.key.clone(), q, blocks.to_vec()), bits))
            })
            .collect();
        for (key, _, q, config, bits) in cells(&recovered) {
            let cell = (key, q.index() as u32, config.as_blocks().to_vec());
            assert_eq!(logged.get(&cell), Some(&bits), "{cell:?}");
        }
        let mut checked = 0;
        for ((key, fp), snap) in recovered.export_tables() {
            let last = replayed
                .iter()
                .rev()
                .find(|b| (b.key.as_str(), b.fingerprint) == (key.as_str(), fp))
                .expect("a kept table was logged");
            for (q, blocks, bits) in last.cells().filter(|&(q, _, _)| q < last.num_queries) {
                if let Some(config) = IndexSet::from_blocks(UNIVERSE, blocks.to_vec()) {
                    let cost = snap.get(QueryId::new(q), &config).map(f64::to_bits);
                    assert_eq!(cost, Some(bits), "{key} q{q} {config:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
        std::fs::remove_dir_all(dir).unwrap();
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
