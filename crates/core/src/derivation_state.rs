//! Incremental workload-level derivation state.
//!
//! Every budget-aware enumerator repeatedly asks "what does the workload
//! cost if I extend the current configuration `C` by one index `x`?" —
//! the greedy inner loop asks it once per `(candidate, query)` pair per
//! step. Recomputing `d(W, C ∪ {x})` from scratch is
//! `O(queries × multi_entries)` per candidate; [`DerivationState`] instead
//! carries the per-query costs of `C` and extends them with
//! [`WhatIfCache::derived_with_extra`], which the inverted postings make
//! proportional to the entries actually mentioning `x`.
//!
//! The protocol is *probe / stage / commit*:
//!
//! * [`probe_with`](DerivationState::probe_with) — each per-query value of
//!   `C ∪ {x}` comes from a caller closure (so FCFS enumerators can spend
//!   budget on what-if calls exactly as before); the values land in a
//!   reusable scratch buffer.
//! * [`stage_probe`](DerivationState::stage_probe) — remember the last
//!   probe's buffer as the best candidate so far (a buffer swap).
//! * [`commit_staged`](DerivationState::commit_staged) — adopt the staged
//!   winner (another swap). Valid because within one greedy step every
//!   cache insert is for some `C ∪ {y}`, which is never a subset of
//!   `C ∪ {x}` for `y ≠ x` — so staged values cannot go stale.
//!   [`commit_values`](DerivationState::commit_values) adopts values the
//!   frozen scan kernel re-priced instead.
//!
//! All of this is bit-for-bit equivalent to the full rescan: the same
//! `f64` min over the same values, summed in the same query order. The
//! proptest in `tests/derivation_state_props.rs` pins that down.

use crate::derived::WhatIfCache;
use ixtune_common::{IndexId, IndexSet, QueryId};

/// Per-query derived costs of the current configuration, plus their sum,
/// with allocation-free probe/commit extension.
#[derive(Clone, Debug)]
pub struct DerivationState {
    /// The workload slice this state prices (all queries for workload-level
    /// greedy, a single query in two-phase phase 1).
    queries: Vec<QueryId>,
    /// Current configuration `C`. Doubles as the probe scratch set:
    /// `probe_with` inserts the candidate, evaluates, and removes it.
    config: IndexSet,
    /// `cost(q, C)` for each query in `queries`, in order.
    per_query: Vec<f64>,
    /// `Σ per_query` — the committed configuration's workload cost.
    total: f64,
    /// Scratch: per-query values of the most recent probe.
    probe: Vec<f64>,
    /// Per-query values of the best candidate staged so far this step.
    staged: Vec<f64>,
}

impl DerivationState {
    /// State over an explicit workload slice with caller-supplied initial
    /// per-query costs (FCFS callers obtain them through the metered
    /// client so cache-hit telemetry matches the historical code path).
    pub fn for_queries(universe: usize, queries: Vec<QueryId>, init: Vec<f64>) -> Self {
        assert_eq!(queries.len(), init.len());
        let total = init.iter().sum();
        let n = init.len();
        Self {
            queries,
            config: IndexSet::empty(universe),
            per_query: init,
            total,
            probe: Vec::with_capacity(n),
            staged: vec![0.0; n],
        }
    }

    /// State over the whole workload at the empty configuration, priced
    /// straight from the cache (no telemetry side effects).
    pub fn workload(cache: &WhatIfCache) -> Self {
        let queries: Vec<QueryId> = (0..cache.num_queries()).map(QueryId::from).collect();
        let init: Vec<f64> = queries.iter().map(|&q| cache.empty_cost(q)).collect();
        Self::for_queries(cache.universe(), queries, init)
    }

    /// The committed configuration `C`.
    pub fn config(&self) -> &IndexSet {
        &self.config
    }

    /// The workload slice this state prices, in evaluation order.
    pub fn queries(&self) -> &[QueryId] {
        &self.queries
    }

    /// `cost(W, C)` — sum of the committed per-query costs.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Committed per-query costs, parallel to the query slice.
    pub fn per_query(&self) -> &[f64] {
        &self.per_query
    }

    /// Probe `C ∪ {extra}` with a caller-supplied per-query evaluator
    /// `eval(q, C ∪ {extra}, extra, cost(q, C))`, recording each value in
    /// the reusable probe buffer. The scratch set handed to `eval`
    /// *includes* `extra` (for what-if calls and atomicity checks);
    /// `derived_with_extra` accepts it unchanged because
    /// `set \ {x} ⊆ C ∪ {x} ⇔ set \ {x} ⊆ C`.
    pub fn probe_with(
        &mut self,
        extra: IndexId,
        eval: &mut impl FnMut(QueryId, &IndexSet, IndexId, f64) -> f64,
    ) -> f64 {
        let fresh = self.config.insert(extra);
        debug_assert!(fresh, "probing an index already in the configuration");
        self.probe.clear();
        let mut total = 0.0;
        for (i, &q) in self.queries.iter().enumerate() {
            let v = eval(q, &self.config, extra, self.per_query[i]);
            self.probe.push(v);
            total += v;
        }
        if fresh {
            self.config.remove(extra);
        }
        total
    }

    /// Keep the most recent [`probe_with`](Self::probe_with) buffer as the
    /// step's best candidate (a buffer swap, no copy).
    pub fn stage_probe(&mut self) {
        std::mem::swap(&mut self.staged, &mut self.probe);
    }

    /// Commit the staged candidate: `C ← C ∪ {extra}` and adopt the staged
    /// per-query values with the caller-tracked `total`. Zero cost — valid
    /// because no cache insert between probe and commit can tighten a
    /// staged value (in-step inserts are for sibling extensions `C ∪ {y}`,
    /// never subsets of `C ∪ {extra}`).
    pub fn commit_staged(&mut self, extra: IndexId, total: f64) {
        self.config.insert(extra);
        std::mem::swap(&mut self.per_query, &mut self.staged);
        self.total = total;
    }

    /// Commit caller-computed per-query values directly: `C ← C ∪ {extra}`
    /// and adopt `values`/`total` as-is. The frozen-cache scan kernel uses
    /// this after re-pricing the winning candidate (its probes — and
    /// their telemetry — already happened inside the scan).
    pub fn commit_values(&mut self, extra: IndexId, values: &[f64], total: f64) {
        debug_assert_eq!(values.len(), self.per_query.len());
        self.config.insert(extra);
        self.per_query.copy_from_slice(values);
        self.total = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(universe: usize, ids: &[u32]) -> IndexSet {
        IndexSet::from_ids(universe, ids.iter().copied().map(IndexId::new))
    }

    fn primed_cache() -> WhatIfCache {
        let mut c = WhatIfCache::new(6, vec![100.0, 200.0, 150.0]);
        let q0 = QueryId::new(0);
        let q1 = QueryId::new(1);
        c.put(q0, &set(6, &[0]), 60.0);
        c.put(q0, &set(6, &[0, 1]), 40.0);
        c.put(q0, &set(6, &[2, 3]), 30.0);
        c.put(q1, &set(6, &[1]), 120.0);
        c.put(q1, &set(6, &[1, 4]), 90.0);
        c
    }

    /// Price `C ∪ {extra}` by pure derivation, the Best-Greedy cell price.
    fn derive_probe(state: &mut DerivationState, cache: &WhatIfCache, extra: IndexId) -> f64 {
        state.probe_with(extra, &mut |q, cfg, x, cur| {
            cache.derived_with_extra(q, cfg, x, cur)
        })
    }

    #[test]
    fn probe_matches_fresh_workload_derivation() {
        let cache = primed_cache();
        let mut state = DerivationState::workload(&cache);
        assert_eq!(state.total(), cache.empty_workload_cost());
        for x in 0..6 {
            let extra = IndexId::new(x);
            let probed = derive_probe(&mut state, &cache, extra);
            let fresh = cache.derived_workload(&state.config().with(extra));
            assert_eq!(probed, fresh, "extra={x}");
        }
    }

    #[test]
    fn commit_sequences_track_fresh_recomputation() {
        let cache = primed_cache();
        let mut state = DerivationState::workload(&cache);
        for x in [0u32, 3, 1] {
            let extra = IndexId::new(x);
            let total = derive_probe(&mut state, &cache, extra);
            state.stage_probe();
            state.commit_staged(extra, total);
            let fresh = cache.derived_workload(state.config());
            assert_eq!(state.total(), fresh, "after committing {x}");
            for (i, &v) in state.per_query().iter().enumerate() {
                assert_eq!(v, cache.derived(QueryId::from(i), state.config()));
            }
        }
        assert_eq!(state.config(), &set(6, &[0, 1, 3]));
    }

    #[test]
    fn probe_with_stages_and_commits_without_reallocation() {
        let cache = primed_cache();
        let mut state = DerivationState::workload(&cache);
        let mut eval = |q: QueryId, cfg: &IndexSet, extra: IndexId, cur: f64| {
            assert!(cfg.contains(extra), "scratch set includes the candidate");
            cache.derived_with_extra(q, cfg, extra, cur)
        };
        let a = state.probe_with(IndexId::new(0), &mut eval);
        state.stage_probe();
        let b = state.probe_with(IndexId::new(1), &mut eval);
        assert!(state.config().is_empty(), "probe leaves C untouched");
        if b < a {
            state.stage_probe();
            state.commit_staged(IndexId::new(1), b);
        } else {
            state.commit_staged(IndexId::new(0), a);
        }
        let fresh = cache.derived_workload(state.config());
        assert_eq!(state.total(), fresh);
        assert_eq!(state.per_query().len(), 3);
        for (i, &v) in state.per_query().iter().enumerate() {
            assert_eq!(v, cache.derived(QueryId::from(i), state.config()));
        }
    }

    #[test]
    fn single_query_slice() {
        let cache = primed_cache();
        let q = QueryId::new(1);
        let mut state = DerivationState::for_queries(6, vec![q], vec![cache.empty_cost(q)]);
        let probed = derive_probe(&mut state, &cache, IndexId::new(1));
        assert_eq!(probed, 120.0);
        state.stage_probe();
        state.commit_staged(IndexId::new(1), probed);
        assert_eq!(state.total(), 120.0);
        assert_eq!(derive_probe(&mut state, &cache, IndexId::new(4)), 90.0);
    }
}
