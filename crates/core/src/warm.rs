//! Daemon-wide warm cost store: cross-session what-if reuse.
//!
//! The service shares *prepared workloads* across sessions, but until this
//! module every session paid for its own what-if calls from a cold
//! [`WhatIfCache`](crate::derived::WhatIfCache). The warm store closes that
//! gap: a workload-keyed map of `(query, config) → cost` entries that
//! sessions read at admission and write back into when they settle.
//!
//! Three pieces:
//!
//! * [`WarmSnapshot`] — an **immutable** per-workload bundle of known
//!   costs. Published whole behind an `Arc`, so the session's
//!   [`MeteredWhatIf`](crate::budget::MeteredWhatIf) reads it without
//!   taking a lock.
//! * [`WarmState`] — one session's view: the snapshot it was admitted
//!   with plus a write ledger of the simulated calls it paid for. The
//!   ledger is drained by the daemon when the session settles (completion,
//!   suspension, or failure — every checkpoint boundary ends a segment).
//! * [`WarmStore`] — the daemon-wide registry: epoch-published snapshots
//!   per `(workload key, content fingerprint)`, bounded in bytes with
//!   least-recently-touched eviction.
//!
//! # Determinism
//!
//! Warm entries sit *below* the budget meter: a warm-served answer is
//! still a budgeted call, still recorded in the session cache, layout
//! trace, and `what_if_calls` — only the simulated-optimizer invocation is
//! skipped. Costs are pure functions of `(query, config)`, so the value a
//! snapshot returns is bit-identical to the value the optimizer would have
//! computed, and a warm-seeded session's [`TuningResult`] differs from a
//! cold run only in the `warm_hits`/`warm_seeded` provenance counters
//! (proved by `crates/core/tests/warm_store_props.rs`).
//!
//! [`TuningResult`]: crate::tuner::TuningResult

use ixtune_common::{ConfigInterner, IdCostMap, IndexSet, QueryId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Immutable per-workload bundle of known `(query, config) → cost`
/// entries. Cheap to share (`Arc`), never mutated while shared: the store
/// merges into a published snapshot only when no session holds it.
///
/// Configurations are stored once in a snapshot-owned [`ConfigInterner`];
/// the per-query rows are open-addressed integer-keyed tables
/// ([`IdCostMap`]) rather than `HashMap<IndexSet, f64>`. A lookup pays one
/// FNV pass over the probed bitset to find its interned id, then one cheap
/// integer probe per row — and a configuration shared by many queries is
/// hashed against the snapshot once, not once per row.
#[derive(Clone, Debug, Default)]
pub struct WarmSnapshot {
    /// Distinct configurations any row keys on, interned to dense ids.
    configs: ConfigInterner,
    /// `rows[q]` maps interned configuration ids to the what-if cost for
    /// query `q`.
    rows: Vec<IdCostMap>,
    /// Candidate-universe size the entries were computed against.
    universe: usize,
    entries: usize,
}

impl WarmSnapshot {
    /// An empty snapshot for a workload with `num_queries` queries over a
    /// `universe`-candidate universe.
    pub fn empty(num_queries: usize, universe: usize) -> Self {
        Self {
            configs: ConfigInterner::new(),
            rows: (0..num_queries).map(|_| IdCostMap::new()).collect(),
            universe,
            entries: 0,
        }
    }

    /// Stored cost of `(q, config)`, if a prior session computed it.
    #[inline]
    pub fn get(&self, q: QueryId, config: &IndexSet) -> Option<f64> {
        let id = self.configs.get(config)?;
        self.rows.get(q.index())?.get(id)
    }

    pub fn num_queries(&self) -> usize {
        self.rows.len()
    }

    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Total stored entries across all queries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Distinct configurations interned by this snapshot.
    pub fn interned_configs(&self) -> usize {
        self.configs.len()
    }

    /// Estimated resident size: interned bitsets (stored once per distinct
    /// configuration) + per-entry table slots + per-row overhead. An
    /// estimate for eviction accounting, not an allocator measurement.
    pub fn bytes(&self) -> usize {
        self.configs.len() * config_bytes(self.universe)
            + self.entries * ENTRY_BYTES
            + self.rows.len() * ROW_OVERHEAD
    }

    /// Every stored `(query, config, cost)` cell, rows in query order,
    /// cells in table order. Compaction serializes snapshots through this;
    /// costs come back exactly as stored (no rounding), so a recovered
    /// snapshot answers bit-identically.
    pub fn iter_entries(&self) -> impl Iterator<Item = (QueryId, &IndexSet, f64)> + '_ {
        self.rows.iter().enumerate().flat_map(move |(q, row)| {
            row.iter()
                .map(move |(id, cost)| (QueryId::from(q), self.configs.resolve(id), cost))
        })
    }
}

/// Estimated bytes per interned configuration: the bitset's blocks plus
/// the interner's id-table slot (with load-factor headroom).
fn config_bytes(universe: usize) -> usize {
    universe.div_ceil(64) * 8 + 16
}

/// Estimated bytes per stored `(id, cost)` cell: one open-addressed slot
/// (`u32` key padded beside an `f64`) with load-factor headroom.
const ENTRY_BYTES: usize = 24;

const ROW_OVERHEAD: usize = 48;

/// One session's warm view: the snapshot it was admitted with plus the
/// ledger of simulated (non-warm) calls it paid for, to be absorbed back
/// into the [`WarmStore`] when the session settles.
#[derive(Debug)]
pub struct WarmState {
    snapshot: Arc<WarmSnapshot>,
    /// Simulated calls this session performed, pushed by its metered
    /// clients.
    /// The map-merge in [`WarmStore::absorb`] makes the resulting snapshot
    /// content independent of push order (costs are pure functions of the
    /// cell).
    ledger: Mutex<Vec<(QueryId, IndexSet, f64)>>,
}

impl WarmState {
    pub fn new(snapshot: Arc<WarmSnapshot>) -> Self {
        Self {
            snapshot,
            ledger: Mutex::new(Vec::new()),
        }
    }

    /// The snapshot this session reads from.
    pub fn snapshot(&self) -> &Arc<WarmSnapshot> {
        &self.snapshot
    }

    /// Look up a warm cost. Lock-free: the snapshot is immutable.
    #[inline]
    pub fn lookup(&self, q: QueryId, config: &IndexSet) -> Option<f64> {
        self.snapshot.get(q, config)
    }

    /// Entries this session was seeded with.
    pub fn seeded(&self) -> usize {
        self.snapshot.entries()
    }

    /// Record one simulated call for later write-back.
    pub fn record(&self, q: QueryId, config: IndexSet, cost: f64) {
        self.ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((q, config, cost));
    }

    /// Take the ledger (the session settled; the daemon absorbs it).
    /// Tolerates a poisoned lock so a panicked session still contributes
    /// the calls it completed.
    pub fn drain(&self) -> Vec<(QueryId, IndexSet, f64)> {
        std::mem::take(
            &mut *self
                .ledger
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Current ledger length (tests/diagnostics).
    pub fn ledger_len(&self) -> usize {
        self.ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

/// Aggregate store counters, surfaced by the daemon's `store stats` verb
/// (this struct is its wire form) and the `ixtune_warm_store_*` gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStoreStats {
    /// Distinct `(workload, fingerprint)` snapshots held.
    pub workloads: usize,
    /// Total `(query, config) → cost` entries across snapshots.
    pub entries: usize,
    /// Distinct interned configurations across snapshots.
    pub interned_configs: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// Publication epoch: bumped once per absorbed snapshot.
    pub epoch: u64,
    /// Snapshots evicted by the byte bound since daemon start.
    pub evictions: u64,
    /// Configured byte bound.
    pub max_bytes: usize,
}

struct StoreEntry {
    snapshot: Arc<WarmSnapshot>,
    /// Epoch of the last checkout or absorb — the LRU ordering key.
    last_touch: u64,
}

#[derive(Default)]
struct StoreInner {
    map: HashMap<(String, u64), StoreEntry>,
    epoch: u64,
    bytes: usize,
    evictions: u64,
}

/// The daemon-wide warm cost store. Keyed by `(WorkloadSpec::key(),
/// SimulatedOptimizer::content_fingerprint())` so two sessions share
/// entries only when schema, workload, *and* candidate universe are
/// identical — index ids and query ids then mean the same thing on both
/// sides.
///
/// Mutation (checkout touch, absorb, flush) takes one short mutex;
/// sessions only hold `Arc<WarmSnapshot>` clones, so the read hot path
/// never sees the lock.
pub struct WarmStore {
    max_bytes: usize,
    inner: Mutex<StoreInner>,
}

impl WarmStore {
    /// A store bounded at `max_bytes` (estimated resident size).
    pub fn new(max_bytes: usize) -> Self {
        Self {
            max_bytes,
            inner: Mutex::new(StoreInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The snapshot for `(key, fingerprint)`, or an empty one when no
    /// session has settled on this workload yet. Touches the LRU clock.
    pub fn checkout(
        &self,
        key: &str,
        fingerprint: u64,
        num_queries: usize,
        universe: usize,
    ) -> Arc<WarmSnapshot> {
        let mut inner = self.lock();
        inner.epoch += 1;
        let epoch = inner.epoch;
        match inner.map.get_mut(&(key.to_string(), fingerprint)) {
            Some(entry) => {
                entry.last_touch = epoch;
                Arc::clone(&entry.snapshot)
            }
            None => Arc::new(WarmSnapshot::empty(num_queries, universe)),
        }
    }

    /// Absorb one settled session's ledger into the workload's snapshot,
    /// then evict least-recently-touched snapshots while the byte bound is
    /// exceeded. Merges in place when no session holds the snapshot, and
    /// into a copy otherwise (readers keep their old `Arc`). Returns the
    /// cells it added, in ledger order: what a settle logs.
    ///
    /// Duplicate cells (several sessions paying for the same
    /// `(q, config)`) carry the same cost, costs being pure functions, so
    /// first-write-wins keeps content deterministic regardless of ledger
    /// order. A new table whose empty rows alone exceed the byte bound is
    /// refused, and nothing is added.
    pub fn absorb(
        &self,
        key: &str,
        fingerprint: u64,
        num_queries: usize,
        universe: usize,
        mut ledger: Vec<(QueryId, IndexSet, f64)>,
    ) -> Vec<(QueryId, IndexSet, f64)> {
        let mut added = Vec::with_capacity(ledger.len());
        let cells = ledger
            .iter()
            .map(|(q, config, cost)| (*q, config.as_blocks(), *cost));
        self.merge(key, fingerprint, num_queries, universe, cells, |a| {
            added.push(a)
        });
        let mut added = added.into_iter();
        ledger.retain(|_| added.next() == Some(true));
        ledger
    }

    /// [`absorb`](Self::absorb) for borrowed `(query, config blocks,
    /// cost)` cells, through the same merge: recovery replays the WAL's
    /// warm batches this way, with no allocation per cell. Blocks that are
    /// no configuration over the table's universe are skipped. Returns how
    /// many cells were added, or `None` when the table was refused
    /// because its empty rows alone exceed the byte bound.
    pub fn absorb_blocks<'c>(
        &self,
        key: &str,
        fingerprint: u64,
        num_queries: usize,
        universe: usize,
        cells: impl IntoIterator<Item = (QueryId, &'c [u64], f64)>,
    ) -> Option<usize> {
        let mut added = 0;
        self.merge(key, fingerprint, num_queries, universe, cells, |a| {
            added += usize::from(a)
        })
        .then_some(added)
    }

    /// The one merge loop behind both absorbs: `added` hears, per cell in
    /// order, whether the cell was new. A cell whose blocks repeat the
    /// previous cell's reuses its interned id without a probe. Returns
    /// `false`, touching nothing and consuming no cell, when the table is
    /// new and its empty rows alone exceed the byte bound: the eviction
    /// below would drop it, and every other table, at once, and a row
    /// count read from disk must not size an allocation.
    fn merge<'c>(
        &self,
        key: &str,
        fingerprint: u64,
        num_queries: usize,
        universe: usize,
        cells: impl IntoIterator<Item = (QueryId, &'c [u64], f64)>,
        mut added: impl FnMut(bool),
    ) -> bool {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let table = (key.to_string(), fingerprint);
        if !inner.map.contains_key(&table)
            && num_queries.saturating_mul(ROW_OVERHEAD) > self.max_bytes
        {
            return false;
        }
        let mut cells = cells.into_iter().peekable();
        if cells.peek().is_none() {
            return true;
        }
        inner.epoch += 1;
        let epoch = inner.epoch;
        let (entry, old_bytes) = match inner.map.entry(table) {
            Entry::Occupied(e) => {
                let bytes = e.get().snapshot.bytes();
                (e.into_mut(), bytes)
            }
            Entry::Vacant(e) => (
                e.insert(StoreEntry {
                    snapshot: Arc::new(WarmSnapshot::empty(num_queries, universe)),
                    last_touch: epoch,
                }),
                0,
            ),
        };
        entry.last_touch = epoch;
        let merged = Arc::make_mut(&mut entry.snapshot);
        let mut prev: Option<(&[u64], u32)> = None;
        for (q, blocks, cost) in cells {
            // `IdCostMap::insert` keeps the first write, so a duplicate
            // cell leaves the stored cost untouched and is not added.
            let new = q.index() < merged.rows.len() && {
                let id = match prev {
                    Some((seen, id)) if seen == blocks => Some(id),
                    _ => merged.configs.intern_blocks(merged.universe, blocks),
                };
                id.is_some_and(|id| {
                    prev = Some((blocks, id));
                    merged.rows[q.index()].insert(id, cost).is_none()
                })
            };
            merged.entries += usize::from(new);
            added(new);
        }
        inner.bytes = inner.bytes - old_bytes + merged.bytes();
        // LRU eviction: drop least-recently-touched snapshots until the
        // bound holds. The bound is strict — a single oversized workload
        // is dropped too (it can be re-learned), keeping the daemon's
        // memory ceiling honest.
        while inner.bytes > self.max_bytes && !inner.map.is_empty() {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a minimum");
            if let Some(entry) = inner.map.remove(&victim) {
                inner.bytes -= entry.snapshot.bytes();
                inner.evictions += 1;
            }
        }
        true
    }

    /// Current aggregate counters.
    pub fn stats(&self) -> WarmStoreStats {
        let inner = self.lock();
        WarmStoreStats {
            workloads: inner.map.len(),
            entries: inner.map.values().map(|e| e.snapshot.entries()).sum(),
            interned_configs: inner
                .map
                .values()
                .map(|e| e.snapshot.interned_configs())
                .sum(),
            bytes: inner.bytes,
            epoch: inner.epoch,
            evictions: inner.evictions,
            max_bytes: self.max_bytes,
        }
    }

    /// Drop every snapshot. Returns the number of entries discarded.
    /// Sessions already admitted keep their `Arc` clones and finish
    /// unaffected; new admissions start cold.
    pub fn flush(&self) -> usize {
        let mut inner = self.lock();
        let dropped = inner.map.values().map(|e| e.snapshot.entries()).sum();
        inner.map.clear();
        inner.bytes = 0;
        dropped
    }

    /// Configured byte bound.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Every live `(key, fingerprint) → snapshot` pair, sorted by key for
    /// deterministic serialization order. Compaction writes these as the
    /// snapshot's warm tables. The caller walks the `Arc` clones without
    /// holding the store lock; an absorb meanwhile merges into a copy.
    /// Importing the tables back is [`WarmStore::absorb`] — its first-write
    /// -wins merge makes re-import idempotent.
    pub fn export_tables(&self) -> Vec<((String, u64), Arc<WarmSnapshot>)> {
        let inner = self.lock();
        let mut tables: Vec<_> = inner
            .map
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(&e.snapshot)))
            .collect();
        tables.sort_by(|(a, _), (b, _)| a.cmp(b));
        tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_common::IndexId;

    fn cfg(n: usize, ids: &[u32]) -> IndexSet {
        IndexSet::from_ids(n, ids.iter().map(|&i| IndexId::new(i)))
    }

    #[test]
    fn checkout_of_unknown_workload_is_empty() {
        let store = WarmStore::new(1 << 20);
        let snap = store.checkout("tpch", 7, 3, 16);
        assert_eq!(snap.entries(), 0);
        assert_eq!(snap.num_queries(), 3);
        assert_eq!(store.stats().workloads, 0, "checkout does not create");
    }

    #[test]
    fn absorb_then_checkout_round_trips_entries() {
        let store = WarmStore::new(1 << 20);
        let c = cfg(16, &[1, 3]);
        let added = store.absorb(
            "tpch",
            7,
            3,
            16,
            vec![
                (QueryId::new(0), c.clone(), 42.5),
                (QueryId::new(2), c.clone(), 7.25),
            ],
        );
        assert_eq!(added.len(), 2);
        let snap = store.checkout("tpch", 7, 3, 16);
        assert_eq!(snap.get(QueryId::new(0), &c), Some(42.5));
        assert_eq!(snap.get(QueryId::new(2), &c), Some(7.25));
        assert_eq!(snap.get(QueryId::new(1), &c), None);
        // Different fingerprint → different snapshot.
        let other = store.checkout("tpch", 8, 3, 16);
        assert_eq!(other.entries(), 0);
    }

    #[test]
    fn duplicate_cells_count_once() {
        let store = WarmStore::new(1 << 20);
        let c = cfg(16, &[2]);
        let ledger = vec![
            (QueryId::new(0), c.clone(), 5.0),
            (QueryId::new(0), c.clone(), 5.0),
        ];
        assert_eq!(store.absorb("w", 1, 1, 16, ledger).len(), 1);
        assert!(store
            .absorb("w", 1, 1, 16, vec![(QueryId::new(0), c, 5.0)])
            .is_empty());
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn absorb_returns_the_cells_it_added_in_ledger_order() {
        let store = WarmStore::new(1 << 20);
        let (a, b, c) = (cfg(16, &[1]), cfg(16, &[2]), cfg(16, &[3]));
        let cell = |q: u32, set: &IndexSet, cost: f64| (QueryId::new(q), set.clone(), cost);
        let first = vec![
            cell(1, &b, 2.0),
            cell(0, &a, 1.0),
            cell(1, &b, 2.0),
            cell(5, &a, 9.0), // out of range: never stored
            cell(0, &c, 3.0),
        ];
        let added = store.absorb("w", 1, 2, 16, first);
        assert_eq!(
            added,
            vec![cell(1, &b, 2.0), cell(0, &a, 1.0), cell(0, &c, 3.0)]
        );
        // An overlapping ledger adds only what is new, still in order;
        // with no session holding the snapshot the merge is in place.
        let held = Arc::as_ptr(&store.checkout("w", 1, 2, 16));
        let again = store.absorb(
            "w",
            1,
            2,
            16,
            vec![
                cell(0, &c, 3.0),
                cell(1, &a, 4.0),
                cell(1, &b, 2.0),
                cell(0, &b, 5.0),
            ],
        );
        assert_eq!(again, vec![cell(1, &a, 4.0), cell(0, &b, 5.0)]);
        let snap = store.checkout("w", 1, 2, 16);
        assert_eq!(Arc::as_ptr(&snap), held, "merged in place");
        assert_eq!(snap.entries(), 5);
        assert_eq!(store.stats().bytes, snap.bytes());
    }

    #[test]
    fn published_snapshots_are_immutable_to_old_readers() {
        let store = WarmStore::new(1 << 20);
        let a = cfg(16, &[1]);
        let b = cfg(16, &[2]);
        store.absorb("w", 1, 1, 16, vec![(QueryId::new(0), a.clone(), 1.0)]);
        let old = store.checkout("w", 1, 1, 16);
        store.absorb("w", 1, 1, 16, vec![(QueryId::new(0), b.clone(), 2.0)]);
        // The old Arc never sees the later epoch's entries.
        assert_eq!(old.get(QueryId::new(0), &b), None);
        let new = store.checkout("w", 1, 1, 16);
        assert_eq!(new.get(QueryId::new(0), &a), Some(1.0));
        assert_eq!(new.get(QueryId::new(0), &b), Some(2.0));
    }

    #[test]
    fn lru_eviction_fires_on_the_byte_bound() {
        // Budget for roughly one snapshot: absorbing a second workload
        // evicts the least-recently-touched first.
        let one_entry = config_bytes(16) + ENTRY_BYTES + ROW_OVERHEAD;
        let store = WarmStore::new(one_entry + one_entry / 2);
        let c = cfg(16, &[1]);
        store.absorb("a", 1, 1, 16, vec![(QueryId::new(0), c.clone(), 1.0)]);
        assert_eq!(store.stats().workloads, 1);
        store.absorb("b", 2, 1, 16, vec![(QueryId::new(0), c.clone(), 2.0)]);
        let stats = store.stats();
        assert_eq!(stats.workloads, 1, "bound forces eviction");
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= store.max_bytes());
        // The surviving snapshot is the most recently absorbed.
        assert_eq!(store.checkout("b", 2, 1, 16).entries(), 1);
        assert_eq!(store.checkout("a", 1, 1, 16).entries(), 0);
    }

    #[test]
    fn checkout_touch_protects_hot_workloads() {
        let one = config_bytes(16) + ENTRY_BYTES + ROW_OVERHEAD;
        let store = WarmStore::new(2 * one + one / 2);
        let c = cfg(16, &[1]);
        store.absorb("a", 1, 1, 16, vec![(QueryId::new(0), c.clone(), 1.0)]);
        store.absorb("b", 2, 1, 16, vec![(QueryId::new(0), c.clone(), 2.0)]);
        // Touch `a` so `b` is now the least recently used…
        store.checkout("a", 1, 1, 16);
        store.absorb("c", 3, 1, 16, vec![(QueryId::new(0), c.clone(), 3.0)]);
        // …and gets evicted when `c` pushes the store over the bound.
        assert_eq!(store.checkout("a", 1, 1, 16).entries(), 1);
        assert_eq!(store.checkout("b", 2, 1, 16).entries(), 0);
    }

    /// A new table whose empty rows alone exceed the bound is refused
    /// before anything is allocated or evicted: a row count read from a
    /// WAL once sized a 171 GB allocation here.
    #[test]
    fn table_whose_rows_outgrow_the_bound_is_refused() {
        let store = WarmStore::new(1 << 20);
        let c = cfg(16, &[1]);
        store.absorb("a", 1, 2, 16, vec![(QueryId::new(0), c.clone(), 1.0)]);
        let before = store.stats();
        let huge = u32::MAX as usize;
        let ledger = vec![(QueryId::new(0), c.clone(), 2.0)];
        assert!(store.absorb("huge", 2, huge, 16, ledger).is_empty());
        let cells = [(QueryId::new(0), c.as_blocks(), 2.0)];
        assert_eq!(store.absorb_blocks("huge", 2, huge, 16, cells), None);
        assert_eq!(store.stats(), before, "nothing touched, nothing evicted");
        // The rows of a table that exists already were paid for.
        let cells = [(QueryId::new(1), c.as_blocks(), 3.0)];
        assert_eq!(store.absorb_blocks("a", 1, huge, 16, cells), Some(1));
    }

    #[test]
    fn flush_drops_everything() {
        let store = WarmStore::new(1 << 20);
        let c = cfg(16, &[1]);
        store.absorb("a", 1, 2, 16, vec![(QueryId::new(0), c.clone(), 1.0)]);
        store.absorb("b", 2, 2, 16, vec![(QueryId::new(1), c, 2.0)]);
        assert_eq!(store.flush(), 2);
        let stats = store.stats();
        assert_eq!(stats.workloads, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(store.checkout("a", 1, 2, 16).entries(), 0);
    }

    #[test]
    fn iter_entries_walks_every_cell_exactly() {
        let store = WarmStore::new(1 << 20);
        let a = cfg(16, &[1, 3]);
        let b = cfg(16, &[2]);
        store.absorb(
            "w",
            1,
            3,
            16,
            vec![
                (QueryId::new(0), a.clone(), 1.25),
                (
                    QueryId::new(2),
                    a.clone(),
                    f64::from_bits(0x7ff8_0000_0000_0001),
                ),
                (QueryId::new(2), b.clone(), -0.0),
            ],
        );
        let snap = store.checkout("w", 1, 3, 16);
        let mut cells: Vec<(usize, IndexSet, u64)> = snap
            .iter_entries()
            .map(|(q, c, cost)| (q.index(), c.clone(), cost.to_bits()))
            .collect();
        cells.sort_by_key(|x| (x.0, x.2));
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0], (0, a.clone(), 1.25f64.to_bits()));
        // Bit patterns survive exactly — including NaN payloads and -0.0.
        assert!(cells
            .iter()
            .any(|(q, c, bits)| *q == 2 && *c == a && *bits == 0x7ff8_0000_0000_0001));
        assert!(cells
            .iter()
            .any(|(q, c, bits)| *q == 2 && *c == b && *bits == (-0.0f64).to_bits()));
    }

    #[test]
    fn export_tables_roundtrips_through_absorb() {
        let store = WarmStore::new(1 << 20);
        let c = cfg(16, &[1]);
        store.absorb("b", 2, 1, 16, vec![(QueryId::new(0), c.clone(), 2.0)]);
        store.absorb("a", 1, 2, 16, vec![(QueryId::new(1), c.clone(), 1.0)]);
        let tables = store.export_tables();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].0 .0, "a", "sorted by key");

        // Re-import into a fresh store: identical content.
        let other = WarmStore::new(1 << 20);
        for ((key, fp), snap) in &tables {
            let ledger: Vec<_> = snap
                .iter_entries()
                .map(|(q, c, cost)| (q, c.clone(), cost))
                .collect();
            other.absorb(key, *fp, snap.num_queries(), snap.universe(), ledger);
        }
        assert_eq!(other.stats().entries, store.stats().entries);
        assert_eq!(
            other.checkout("a", 1, 2, 16).get(QueryId::new(1), &c),
            Some(1.0)
        );
        // Importing again is idempotent (first-write-wins dedup).
        for ((key, fp), snap) in &tables {
            let ledger: Vec<_> = snap
                .iter_entries()
                .map(|(q, c, cost)| (q, c.clone(), cost))
                .collect();
            assert!(other
                .absorb(key, *fp, snap.num_queries(), snap.universe(), ledger)
                .is_empty());
        }
    }

    #[test]
    fn warm_state_ledger_drains_once() {
        let state = WarmState::new(Arc::new(WarmSnapshot::empty(2, 16)));
        let c = cfg(16, &[4]);
        assert_eq!(state.lookup(QueryId::new(0), &c), None);
        state.record(QueryId::new(0), c.clone(), 9.0);
        state.record(QueryId::new(1), c, 8.0);
        assert_eq!(state.ledger_len(), 2);
        assert_eq!(state.drain().len(), 2);
        assert_eq!(state.drain().len(), 0, "drain empties the ledger");
    }
}
