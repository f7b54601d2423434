//! What-if cache and cost derivation (§3.1 of the paper).
//!
//! The cache stores every what-if result observed during a tuning session.
//! For configurations whose what-if cost is *not* known, the **derived
//! cost** (Eq. 1) is the upper bound
//! `d(q, C) = min_{S ⊆ C, c(q,S) known} c(q, S)`,
//! which under the monotonicity assumption never underestimates. Singleton
//! entries have a dense fast path (the restriction of Eq. 2 that the
//! paper's analysis in §3.1.2 builds on); larger entries are kept sorted by
//! ascending cost so the subset scan can stop at the first hit.
//!
//! Storage is one row per query. What-if results are appended through
//! `&mut self`, in the session's call order, which *defines* the cache
//! contents; derivation reads through `&self` and only bumps the
//! telemetry counter. A cache belongs to one session and lives on its
//! thread.

use ixtune_common::{ConfigInterner, IdCostMap, IndexId, IndexSet, QueryId};
use std::cell::Cell;

/// Per-session what-if cache with derivation.
#[derive(Clone, Debug)]
pub struct WhatIfCache {
    universe: usize,
    /// `c(q, ∅)` for every query — computed up front, not budgeted.
    empty: Vec<f64>,
    /// `Σ_q c(q, ∅)`, cached so `improvement()` does not re-sum per call.
    empty_total: f64,
    /// Dense singleton costs: `singleton[q][i] = c(q, {I_i})`, NaN if unknown.
    singleton: Vec<Vec<f64>>,
    /// Multi-index entries per query, sorted by ascending cost.
    multi: Vec<Vec<(IndexSet, f64)>>,
    /// Inverted postings: `postings[q][i]` = the interned ids (the keys of
    /// `exact[q]`) of row `q`'s multi entries that contain index `i`, in
    /// the row's `multi` order: ascending cost, an entry ahead of the
    /// equal-cost entries stored before it. So
    /// [`derived_with_extra`](Self::derived_with_extra) can scan only the
    /// entries that mention `extra` and still early-exit on cost. An
    /// insert touches only its members' lists. Rows are lazily sized: a
    /// row with no multi entries stays an empty `Vec` instead of holding
    /// `universe` empty postings lists — materializing `queries ×
    /// universe` headers up front dominates cache construction on large
    /// workloads.
    postings: Vec<Vec<Vec<u32>>>,
    /// Exact multi-entry lookup per query, keyed by the interned id of the
    /// configuration (see `interner`) — an integer open-addressed probe
    /// instead of hashing a block bitset per lookup. Singletons have their
    /// own dense row and never enter this table.
    exact: Vec<IdCostMap>,
    /// Largest multi-entry size stored per query: configurations bigger
    /// than this can skip the exact-map probe entirely, which avoids
    /// hashing wide bitsets in greedy inner loops.
    max_multi_size: Vec<usize>,
    /// Cache-level interner for multi-entry (len ≥ 2) configurations:
    /// stable insertion-ordered `IndexSet → u32` ids shared by every
    /// query's `exact` table. Interning happens on the write path
    /// (`&mut self`); reads only resolve ids (`&self`).
    interner: ConfigInterner,
    /// Candidates with a known singleton cost for *any* query — one side
    /// of the [`informed_candidates`](Self::informed_candidates) filter
    /// that lets frozen scans skip candidates no stored entry can price.
    singleton_any: IndexSet,
    /// Number of distinct (q, C) what-if results stored (excluding ∅).
    stored: usize,
    /// Telemetry: cost evaluations answered by derivation (Eq. 1/Eq. 2)
    /// rather than a stored what-if result. A `Cell` because derivation
    /// reads through `&self`.
    derivations: Cell<usize>,
}

impl WhatIfCache {
    /// Create a cache for `num_queries` queries over `universe` candidates,
    /// seeded with the empty-configuration costs.
    pub fn new(universe: usize, empty_costs: Vec<f64>) -> Self {
        let m = empty_costs.len();
        let empty_total = empty_costs.iter().sum();
        Self {
            universe,
            empty: empty_costs,
            empty_total,
            singleton: vec![vec![f64::NAN; universe]; m],
            multi: vec![Vec::new(); m],
            postings: vec![Vec::new(); m],
            exact: vec![IdCostMap::new(); m],
            max_multi_size: vec![0; m],
            interner: ConfigInterner::new(),
            singleton_any: IndexSet::empty(universe),
            stored: 0,
            derivations: Cell::new(0),
        }
    }

    /// Telemetry: how many cost evaluations were answered by derivation
    /// instead of a stored what-if result.
    pub fn derivations(&self) -> usize {
        self.derivations.get()
    }

    /// Bulk-count `n` derivations — the scan kernel accounts one batch
    /// per query instead of one add per probe.
    pub(crate) fn add_derivations(&self, n: usize) {
        self.derivations.set(self.derivations.get() + n);
    }

    pub fn universe(&self) -> usize {
        self.universe
    }

    pub fn num_queries(&self) -> usize {
        self.empty.len()
    }

    /// `c(q, ∅)`.
    pub fn empty_cost(&self, q: QueryId) -> f64 {
        self.empty[q.index()]
    }

    /// `cost(W, ∅)` (cached at construction).
    pub fn empty_workload_cost(&self) -> f64 {
        self.empty_total
    }

    /// Exact lookup: the what-if cost if one was recorded for `(q, config)`.
    pub fn get(&self, q: QueryId, config: &IndexSet) -> Option<f64> {
        if config.is_empty() {
            return Some(self.empty[q.index()]);
        }
        let qi = q.index();
        if config.len() == 1 {
            let id = config.iter().next().unwrap();
            let v = self.singleton[qi][id.index()];
            return if v.is_nan() { None } else { Some(v) };
        }
        // Nothing of this size (or larger) was ever stored: skip the probe
        // and its bitset hash — the hot case in greedy inner loops.
        if config.len() > self.max_multi_size[qi] {
            return None;
        }
        self.interner
            .get(config)
            .and_then(|id| self.exact[qi].get(id))
    }

    /// Record a what-if result. Returns `true` if it was new.
    pub fn put(&mut self, q: QueryId, config: &IndexSet, cost: f64) -> bool {
        if config.is_empty() || self.get(q, config).is_some() {
            return false;
        }
        self.insert_entry(q.index(), config, cost);
        true
    }

    /// Record a what-if result known to be absent — the miss path of
    /// `MeteredWhatIf::what_if`, which already probed [`get`](Self::get)
    /// and so can skip the duplicate check (and its bitset hash).
    pub fn put_new(&mut self, q: QueryId, config: &IndexSet, cost: f64) {
        debug_assert!(!config.is_empty(), "∅ is seeded at construction");
        debug_assert!(
            self.get(q, config).is_none(),
            "put_new on an already-cached entry"
        );
        self.insert_entry(q.index(), config, cost);
    }

    fn insert_entry(&mut self, qi: usize, config: &IndexSet, cost: f64) {
        if config.len() == 1 {
            let id = config.iter().next().unwrap();
            self.singleton[qi][id.index()] = cost;
            self.singleton_any.insert(id);
        } else {
            let key = self.interner.intern(config);
            self.exact[qi].insert(key, cost);
            let list = &mut self.multi[qi];
            let pos = list.partition_point(|(_, c)| *c < cost);
            list.insert(pos, (config.clone(), cost));
            self.max_multi_size[qi] = self.max_multi_size[qi].max(config.len());
            let postings = &mut self.postings[qi];
            // First multi entry for this row: materialize its postings
            // lists (rows start empty — see the field doc).
            if postings.is_empty() {
                postings.resize(self.universe, Vec::new());
            }
            // The new id joins its members' lists only, where `multi`'s
            // partition point put the entry: after every cheaper entry,
            // ahead of the equal-cost ones. No other list changes.
            let exact = &self.exact[qi];
            let cheaper = |e: &u32| exact.get(*e).is_some_and(|c| c < cost);
            for id in config.iter() {
                let slot = &mut postings[id.index()];
                slot.insert(slot.partition_point(cheaper), key);
            }
        }
        self.stored += 1;
    }

    /// Known singleton cost `c(q, {id})`, if evaluated.
    pub fn singleton_cost(&self, q: QueryId, id: IndexId) -> Option<f64> {
        let v = self.singleton[q.index()][id.index()];
        (!v.is_nan()).then_some(v)
    }

    /// Dense singleton row for `q` (`NaN` = unknown) — read side of the
    /// frozen-cache scan kernel.
    pub(crate) fn singleton_row(&self, q: QueryId) -> &[f64] {
        &self.singleton[q.index()]
    }

    /// Largest multi-entry size stored for `q`.
    pub(crate) fn max_multi_len(&self, q: QueryId) -> usize {
        self.max_multi_size[q.index()]
    }

    /// Interned id of a multi configuration, if any query ever stored it.
    /// Scan kernels resolve the id once per candidate and then probe every
    /// query's row by integer ([`exact_get_id`](Self::exact_get_id)),
    /// instead of hashing the bitset per `(query, candidate)` cell.
    pub(crate) fn interned_id(&self, config: &IndexSet) -> Option<u32> {
        self.interner.get(config)
    }

    /// Exact-map probe by interned id (see [`interned_id`](Self::interned_id)).
    #[inline]
    pub(crate) fn exact_get_id(&self, q: QueryId, id: u32) -> Option<f64> {
        self.exact[q.index()].get(id)
    }

    /// Number of distinct multi-entry configurations interned — surfaced
    /// as a daemon gauge next to the warm-store interner size.
    pub fn interned_configs(&self) -> usize {
        self.interner.len()
    }

    /// Candidates that some stored entry can *inform* in an extension scan
    /// of `config`: every `x` with a known singleton cost for any query,
    /// plus every `x` credited by a multi entry whose members outside
    /// `config` are exactly `{x}` (the only entries a postings walk for
    /// `x` accepts, and the only way `C ∪ {x}` can be an exact hit). For
    /// any other candidate, `d(q, C ∪ {x})` equals `d(q, C)` for *every*
    /// query — bit for bit, probe for probe — so frozen scans can price
    /// those candidates as the plain fold of the current per-query costs
    /// without touching their cells.
    pub(crate) fn informed_candidates(&self, config: &IndexSet) -> IndexSet {
        let mut out = self.singleton_any.clone();
        'entries: for (set, _) in self.multi.iter().flatten() {
            let mut extra = usize::MAX;
            for (bi, (&eb, &cb)) in set.as_blocks().iter().zip(config.as_blocks()).enumerate() {
                let diff = eb & !cb;
                if diff == 0 {
                    continue;
                }
                if extra != usize::MAX || diff & (diff - 1) != 0 {
                    continue 'entries; // ≥ 2 members outside C
                }
                extra = bi * 64 + diff.trailing_zeros() as usize;
            }
            if extra != usize::MAX {
                out.insert(IndexId::from(extra));
            }
        }
        out
    }

    /// Derived cost `d(q, C)` per Eq. 1 (general subsets).
    pub fn derived(&self, q: QueryId, config: &IndexSet) -> f64 {
        // Exact hit is both the tightest bound and the common case.
        if let Some(c) = self.get(q, config) {
            return c;
        }
        self.add_derivations(1);
        self.derive_row(q.index(), config, config.iter())
    }

    /// Eq. 1 for row `qi` without the exact-hit probe or the counter:
    /// `c(q, ∅)`, then the known singleton costs of `members` (the ids of
    /// `config`, ascending), then the stored multi entries inside
    /// `config`.
    ///
    /// Precondition: the caller has probed the row's exact map for
    /// `config` and missed. A multi entry holds two or more ids, so one
    /// fits in a configuration of two only if it equals it, which the
    /// probe ruled out; the multi-entry scan runs from three members up.
    fn derive_row(
        &self,
        qi: usize,
        config: &IndexSet,
        members: impl Iterator<Item = IndexId>,
    ) -> f64 {
        let mut best = self.empty[qi];
        let singleton = &self.singleton[qi];
        let mut size = 0;
        for id in members {
            size += 1;
            let v = singleton[id.index()];
            if !v.is_nan() && v < best {
                best = v;
            }
        }
        // Multi entries hold two or more ids, so none fits in a smaller
        // configuration, and a configuration of two holds only itself (see
        // the precondition). They are sorted ascending, so stop once
        // entries can no longer improve.
        if size >= 3 {
            for (set, cost) in &self.multi[qi] {
                if *cost >= best {
                    break;
                }
                if set.is_subset(config) {
                    best = *cost;
                }
            }
        }
        best
    }

    /// `d(q, C)` for every query, in query order, into `out`: bit for bit
    /// the values and the derivation count of one [`derived`](Self::derived)
    /// call per query, as one pass (see `for_each_derived`).
    pub fn derived_per_query(&self, config: &IndexSet, out: &mut Vec<f64>) {
        out.clear();
        self.for_each_derived(config, |c| out.push(c));
    }

    /// `d(q, C)` for every query, in query order, handed to `f`. The
    /// configuration's size, members and interned id are resolved once
    /// instead of once per query (the id only if some row stores entries
    /// that large), a miss runs `derived`'s row kernel, and the counter is
    /// bumped once by the count `derived` would have added.
    fn for_each_derived(&self, config: &IndexSet, mut f: impl FnMut(f64)) {
        let len = config.len();
        if len == 0 {
            self.empty.iter().copied().for_each(f);
            return;
        }
        let members = config.to_vec();
        let mut interned: Option<Option<u32>> = None;
        let mut derivations = 0;
        for qi in 0..self.num_queries() {
            let hit = if len == 1 {
                let v = self.singleton[qi][members[0].index()];
                (!v.is_nan()).then_some(v)
            } else if len > self.max_multi_size[qi] {
                None
            } else {
                interned
                    .get_or_insert_with(|| self.interner.get(config))
                    .and_then(|id| self.exact[qi].get(id))
            };
            f(match hit {
                Some(c) => c,
                None => {
                    derivations += 1;
                    self.derive_row(qi, config, members.iter().copied())
                }
            });
        }
        if derivations > 0 {
            self.add_derivations(derivations);
        }
    }

    /// Derived cost restricted to singleton subsets (Eq. 2) — the variant
    /// whose benefit function is provably submodular (Theorem 1).
    pub fn derived_singleton(&self, q: QueryId, config: &IndexSet) -> f64 {
        let qi = q.index();
        self.add_derivations(1);
        let mut best = self.empty[qi];
        let singleton = &self.singleton[qi];
        for id in config.iter() {
            let v = singleton[id.index()];
            if !v.is_nan() && v < best {
                best = v;
            }
        }
        best
    }

    /// Workload-level derived cost `d(W, C) = Σ_q d(q, C)`.
    pub fn derived_workload(&self, config: &IndexSet) -> f64 {
        // `Iterator::sum`'s start: `-0.0 + x == x` for every `x`.
        let mut total = -0.0;
        self.for_each_derived(config, |c| total += c);
        total
    }

    /// Number of cached what-if results (excluding the free ∅ entries).
    pub fn stored_results(&self) -> usize {
        self.stored
    }

    /// Multi-index entries for `q`, sorted by ascending cost — the raw
    /// material for incremental derivation and the frozen scan kernel.
    pub fn multi_entries(&self, q: QueryId) -> &[(IndexSet, f64)] {
        &self.multi[q.index()]
    }

    /// Incremental derivation: `d(q, C ∪ {extra})` given `d(q, C)`.
    ///
    /// Exploits `d(q, C ∪ {x}) = min(d(q,C), c(q,{x}), min over known
    /// entries that contain x and fit in C ∪ {x})`. The inverted postings
    /// narrow the scan to exactly the multi entries containing `extra`, in
    /// the row's `multi` order, so the early exit still applies. Each
    /// posting is an interned id: its cost is read from the row's exact
    /// map and its set from the interner. The subset test runs block-wise
    /// without materializing `set \ {extra}`.
    ///
    /// Returns bit-for-bit the same value as a linear scan of every multi
    /// entry (the oracle in `tests/derivation_state_props.rs`): both visit
    /// the qualifying entries in the same order and take the same `min`
    /// over the same set of `f64`s.
    pub fn derived_with_extra(
        &self,
        q: QueryId,
        config: &IndexSet,
        extra: IndexId,
        current: f64,
    ) -> f64 {
        self.add_derivations(1);
        self.derived_with_extra_uncounted(q, config, extra, current)
    }

    /// The derivation itself, without bumping the telemetry counter —
    /// used to re-price a scan winner whose probes were already accounted
    /// in batch by the scan kernel.
    pub(crate) fn derived_with_extra_uncounted(
        &self,
        q: QueryId,
        config: &IndexSet,
        extra: IndexId,
        current: f64,
    ) -> f64 {
        let qi = q.index();
        let mut best = current;
        let s = self.singleton[qi][extra.index()];
        if !s.is_nan() && s < best {
            best = s;
        }
        let prow = &self.postings[qi];
        if prow.is_empty() {
            // No multi entries for this row (postings never materialized).
            return best;
        }
        let exact = &self.exact[qi];
        for &e in &prow[extra.index()] {
            let cost = exact.get(e).expect("a posted id is a key of its row");
            if cost >= best {
                break;
            }
            // set ⊆ C ∪ {extra} ⇔ set \ {extra} ⊆ C.
            if self.interner.resolve(e).is_subset_except(config, extra) {
                best = cost;
            }
        }
        best
    }

    /// Rebuild a session's cache from its call trace: price ∅ for each of
    /// `num_queries` queries, then each `(q, C)` cell of `trace` in call
    /// order, through `price`. Inserting the cells in the order the
    /// session called them reproduces its stored order, ties included, so
    /// the rebuilt cache answers every `get`/`derived` probe
    /// bit-identically. `derivations` restores the telemetry counter. A cell outside the workload, an empty cell
    /// or a repeated one was never a budgeted call, so it is an error
    /// (and is never priced).
    pub(crate) fn replay(
        universe: usize,
        num_queries: usize,
        trace: &[(QueryId, IndexSet)],
        derivations: usize,
        price: impl Fn(QueryId, &IndexSet) -> f64,
    ) -> Result<Self, String> {
        let empty = IndexSet::empty(universe);
        let empty_costs = (0..num_queries)
            .map(|q| price(QueryId::from(q), &empty))
            .collect();
        let mut cache = WhatIfCache::new(universe, empty_costs);
        for (i, (q, config)) in trace.iter().enumerate() {
            if q.index() >= num_queries || config.universe() != universe {
                return Err(format!("trace cell {i} is not a cell of this workload"));
            }
            if config.is_empty() || cache.get(*q, config).is_some() {
                return Err(format!(
                    "trace cell {i} is empty or repeats an earlier cell"
                ));
            }
            cache.put_new(*q, config, price(*q, config));
        }
        cache.derivations.set(derivations);
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: usize, ids: &[u32]) -> IndexSet {
        IndexSet::from_ids(universe, ids.iter().copied().map(IndexId::new))
    }

    fn cache() -> WhatIfCache {
        WhatIfCache::new(4, vec![100.0, 200.0])
    }

    #[test]
    fn empty_costs_always_known() {
        let c = cache();
        let empty = IndexSet::empty(4);
        assert_eq!(c.get(QueryId::new(0), &empty), Some(100.0));
        assert_eq!(c.derived(QueryId::new(1), &empty), 200.0);
        assert_eq!(c.empty_workload_cost(), 300.0);
    }

    #[test]
    fn derived_without_entries_is_empty_cost() {
        let c = cache();
        assert_eq!(c.derived(QueryId::new(0), &set(4, &[0, 1, 2])), 100.0);
    }

    #[test]
    fn singleton_path() {
        let mut c = cache();
        let q = QueryId::new(0);
        assert!(c.put(q, &set(4, &[1]), 40.0));
        assert!(!c.put(q, &set(4, &[1]), 39.0), "duplicate ignored");
        assert_eq!(c.get(q, &set(4, &[1])), Some(40.0));
        assert_eq!(c.singleton_cost(q, IndexId::new(1)), Some(40.0));
        assert_eq!(c.singleton_cost(q, IndexId::new(2)), None);
        // Supersets derive the singleton bound.
        assert_eq!(c.derived(q, &set(4, &[0, 1])), 40.0);
        assert_eq!(c.derived_singleton(q, &set(4, &[0, 1])), 40.0);
        // Disjoint configs do not.
        assert_eq!(c.derived(q, &set(4, &[0, 2])), 100.0);
    }

    #[test]
    fn multi_entry_subset_scan() {
        let mut c = cache();
        let q = QueryId::new(0);
        c.put(q, &set(4, &[0, 1]), 30.0);
        c.put(q, &set(4, &[2, 3]), 20.0);
        c.put(q, &set(4, &[0]), 50.0);
        // {0,1,2} ⊇ {0,1} but not {2,3}.
        assert_eq!(c.derived(q, &set(4, &[0, 1, 2])), 30.0);
        // Full set gets the cheapest entry.
        assert_eq!(c.derived(q, &set(4, &[0, 1, 2, 3])), 20.0);
        // Exact hit returns the exact value.
        assert_eq!(c.derived(q, &set(4, &[2, 3])), 20.0);
        // Singleton-only derivation ignores pairs.
        assert_eq!(c.derived_singleton(q, &set(4, &[0, 1, 2, 3])), 50.0);
    }

    #[test]
    fn derived_is_upper_bound_and_tightens() {
        let mut c = cache();
        let q = QueryId::new(0);
        let cfg = set(4, &[0, 1, 2]);
        let d0 = c.derived(q, &cfg);
        c.put(q, &set(4, &[1]), 70.0);
        let d1 = c.derived(q, &cfg);
        c.put(q, &set(4, &[0, 1]), 55.0);
        let d2 = c.derived(q, &cfg);
        c.put(q, &cfg, 42.0);
        let d3 = c.derived(q, &cfg);
        assert!(d0 >= d1 && d1 >= d2 && d2 >= d3);
        assert_eq!(d3, 42.0);
    }

    #[test]
    fn workload_derivation_sums() {
        let mut c = cache();
        c.put(QueryId::new(0), &set(4, &[0]), 10.0);
        c.put(QueryId::new(1), &set(4, &[0]), 150.0);
        assert_eq!(c.derived_workload(&set(4, &[0])), 160.0);
        assert_eq!(c.derived_workload(&set(4, &[3])), 300.0);
    }

    #[test]
    fn put_new_behaves_like_put() {
        let mut a = cache();
        let mut b = cache();
        let q = QueryId::new(0);
        let entries = [
            (set(4, &[0, 1]), 30.0),
            (set(4, &[2, 3]), 20.0),
            (set(4, &[1, 2, 3]), 25.0),
            (set(4, &[3]), 50.0),
        ];
        for (cfg, cost) in &entries {
            assert!(a.put(q, cfg, *cost));
            b.put_new(q, cfg, *cost);
        }
        assert_eq!(a.stored_results(), b.stored_results());
        for cfg in [
            set(4, &[0, 1, 2]),
            set(4, &[1, 2, 3]),
            set(4, &[0, 1, 2, 3]),
        ] {
            assert_eq!(a.derived(q, &cfg), b.derived(q, &cfg));
        }
    }

    #[test]
    fn stored_counts_unique_entries() {
        let mut c = cache();
        let q = QueryId::new(0);
        c.put(q, &set(4, &[0]), 1.0);
        c.put(q, &set(4, &[0]), 2.0);
        c.put(q, &set(4, &[0, 1]), 3.0);
        assert_eq!(c.stored_results(), 2);
    }

    #[test]
    fn every_query_keeps_its_own_rows() {
        let m = 19;
        let empties: Vec<f64> = (0..m).map(|q| 100.0 + q as f64).collect();
        let mut c = WhatIfCache::new(6, empties.clone());
        for q in 0..m {
            let qid = QueryId::from(q);
            c.put(qid, &set(6, &[(q % 6) as u32]), 10.0 + q as f64);
            c.put(qid, &set(6, &[0, ((q % 5) + 1) as u32]), 5.0 + q as f64);
        }
        for (q, &empty) in empties.iter().enumerate() {
            let qid = QueryId::from(q);
            assert_eq!(c.empty_cost(qid), empty);
            assert_eq!(
                c.get(qid, &set(6, &[(q % 6) as u32])),
                Some(10.0 + q as f64)
            );
            assert_eq!(
                c.get(qid, &set(6, &[0, ((q % 5) + 1) as u32])),
                Some(5.0 + q as f64)
            );
            // Full set derives each query's cheapest entry.
            assert_eq!(c.derived(qid, &IndexSet::full(6)), 5.0 + q as f64);
        }
        assert_eq!(c.stored_results(), 2 * m);
    }

    #[test]
    fn replay_reproduces_answers_bit_for_bit() {
        let m = 11usize;
        let empties: Vec<f64> = (0..m).map(|q| 100.0 + q as f64).collect();
        let mut c = WhatIfCache::new(6, empties);
        // Include cost ties so call order (not cost order) is what the
        // replay must reproduce, plus out-of-order inserts.
        let mut trace = Vec::new();
        for q in 0..m {
            let qid = QueryId::from(q);
            for (cfg, cost) in [
                (set(6, &[(q % 6) as u32]), 10.0 + q as f64),
                (set(6, &[0, 1]), 50.0),
                (set(6, &[2, 3]), 50.0),
                (set(6, &[1, 4, 5]), 42.0 + q as f64),
            ] {
                c.put(qid, &cfg, cost);
                trace.push((qid, cfg));
            }
        }
        c.add_derivations(17);
        let price = |q: QueryId, cfg: &IndexSet| c.get(q, cfg).unwrap();
        let r = WhatIfCache::replay(6, m, &trace, c.derivations(), price).unwrap();

        assert_eq!(r.stored_results(), c.stored_results());
        assert_eq!(r.derivations(), c.derivations());
        for q in 0..m {
            let qid = QueryId::from(q);
            assert_eq!(r.empty_cost(qid).to_bits(), c.empty_cost(qid).to_bits());
            assert_eq!(r.multi_entries(qid), c.multi_entries(qid), "q={q}");
            for cfg in [
                set(6, &[0, 1, 2, 3]),
                set(6, &[1, 4, 5]),
                set(6, &[(q % 6) as u32, 5]),
                IndexSet::full(6),
            ] {
                assert_eq!(
                    r.derived(qid, &cfg).to_bits(),
                    c.derived(qid, &cfg).to_bits(),
                    "q={q} cfg={cfg:?}"
                );
                let cur = c.derived(qid, &cfg);
                for x in 0..6 {
                    let extra = IndexId::new(x);
                    if cfg.contains(extra) {
                        continue;
                    }
                    assert_eq!(
                        r.derived_with_extra(qid, &cfg, extra, cur).to_bits(),
                        c.derived_with_extra(qid, &cfg, extra, cur).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn replay_rejects_cells_no_budgeted_call_made() {
        let price = |_: QueryId, cfg: &IndexSet| 100.0 - cfg.len() as f64;
        let q = QueryId::new(0);
        let ok = [(q, set(4, &[0])), (q, set(4, &[0, 1]))];
        assert!(WhatIfCache::replay(4, 2, &ok, 0, price).is_ok(), "baseline");
        let bad = [
            // ∅ is priced up front, never called.
            vec![(q, IndexSet::empty(4))],
            // A cell is called at most once; the second would hit the cache.
            vec![(q, set(4, &[0, 1])), (q, set(4, &[0, 1]))],
            vec![(q, set(4, &[2])), (q, set(4, &[2]))],
            // Query and universe must belong to the workload.
            vec![(QueryId::new(2), set(4, &[0]))],
            vec![(q, set(5, &[0]))],
        ];
        for trace in bad {
            assert!(
                WhatIfCache::replay(4, 2, &trace, 0, price).is_err(),
                "{trace:?}"
            );
        }
    }

    #[test]
    fn derivation_counters_batch_and_clone() {
        let c = cache();
        c.add_derivations(7);
        c.add_derivations(3);
        assert_eq!(c.derivations(), 10);
        let d = c.clone();
        assert_eq!(d.derivations(), 10, "clone carries counters");
    }
}
