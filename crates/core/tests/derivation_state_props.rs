//! Property tests pinning the incremental derivation engine to the full
//! rescan it replaced. The enumerators were rewritten around
//! `DerivationState` + `WhatIfCache::derived_with_extra` on the promise of
//! *bit-for-bit* equality with fresh `derived_workload` recomputation —
//! these tests check `==` on `f64`s, not approximate closeness.
//!
//! Caches are generated monotone (cost of a superset never exceeds the
//! cost of a subset), matching Assumption 1 of the paper; the exact-hit
//! shortcut in `WhatIfCache::derived` relies on it.

use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::{winner_values, DerivationState, FrozenEval, WhatIfCache};
use proptest::prelude::*;

const UNIVERSE: usize = 12;
const QUERIES: usize = 3;

/// Deterministic monotone cost model: `c(q, C) = empty_q · Π_{i∈C} f_{q,i}`
/// with every factor in `[0.5, 1)`. A function of the set, so repeated
/// inserts of the same configuration are consistent, and adding an index
/// never increases the cost.
fn true_cost(empty: f64, factors: &[f64], config: &IndexSet) -> f64 {
    config
        .iter()
        .fold(empty, |acc, id| acc * factors[id.index()])
}

fn build_set(ids: &[usize]) -> IndexSet {
    IndexSet::from_ids(UNIVERSE, ids.iter().map(|&i| IndexId::from(i)))
}

/// A random cache primed with what-if results for random configurations.
/// Returns the cache and the list of distinct non-empty configs inserted.
fn primed(
    empties: &[f64],
    factors: &[Vec<f64>],
    entries: &[(usize, Vec<usize>)],
) -> (WhatIfCache, Vec<(usize, IndexSet)>) {
    let mut cache = WhatIfCache::new(UNIVERSE, empties.to_vec());
    let mut inserted = Vec::new();
    for (q, ids) in entries {
        let config = build_set(ids);
        if config.is_empty() {
            continue;
        }
        let cost = true_cost(empties[*q], &factors[*q], &config);
        if cache.put(QueryId::from(*q), &config, cost) {
            inserted.push((*q, config));
        }
    }
    (cache, inserted)
}

/// Linear-scan reference for `WhatIfCache::derived_with_extra`: every
/// multi entry in cost order instead of the inverted postings for `extra`.
fn linear_scan_with_extra(
    cache: &WhatIfCache,
    q: QueryId,
    config: &IndexSet,
    extra: IndexId,
    current: f64,
) -> f64 {
    let mut best = current;
    if let Some(s) = cache.singleton_cost(q, extra).filter(|&s| s < best) {
        best = s;
    }
    for (set, cost) in cache.multi_entries(q) {
        if *cost >= best {
            break;
        }
        if set.contains(extra) && set.without(extra).is_subset(config) {
            best = *cost;
        }
    }
    best
}

/// Out-of-cost-order inserts land ahead of dearer postings; the walk still
/// equals the linear scan and a fresh derivation of `C ∪ {x}`.
#[test]
fn with_extra_matches_scan_and_full_derivation() {
    let set = |ids: &[usize]| IndexSet::from_ids(4, ids.iter().map(|&i| IndexId::from(i)));
    let mut c = WhatIfCache::new(4, vec![100.0, 200.0]);
    let q = QueryId::new(0);
    c.put(q, &set(&[0, 1]), 30.0);
    c.put(q, &set(&[1, 2]), 25.0);
    c.put(q, &set(&[0, 2, 3]), 20.0);
    c.put(q, &set(&[2]), 60.0);
    for cfg in [set(&[]), set(&[0]), set(&[0, 3]), set(&[1, 2])] {
        let cur = c.derived(q, &cfg);
        for x in cfg.complement_iter() {
            let fast = c.derived_with_extra(q, &cfg, x, cur);
            let slow = linear_scan_with_extra(&c, q, &cfg, x, cur);
            let full = c.derived(q, &cfg.with(x));
            assert_eq!(fast, slow, "cfg={cfg:?} extra={x:?}");
            assert_eq!(fast, full, "cfg={cfg:?} extra={x:?}");
        }
    }
}

/// Every `derived_with_extra` walk of `cache`'s row `q` equals the
/// linear scan, for each configuration of `configs` and each candidate
/// outside it, starting from `d(q, C)` and from a few tighter bounds.
fn assert_walks_equal_scan(cache: &WhatIfCache, q: QueryId, configs: &[IndexSet]) {
    let universe = cache.universe();
    for cfg in configs {
        let cur = cache.derived(q, cfg);
        for x in (0..universe)
            .map(IndexId::from)
            .filter(|&x| !cfg.contains(x))
        {
            for bound in [cur, 35.0, 25.0, 15.0] {
                let fast = cache.derived_with_extra(q, cfg, x, bound);
                let slow = linear_scan_with_extra(cache, q, cfg, x, bound);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "cfg={cfg:?} extra={x:?} bound={bound}"
                );
            }
        }
    }
}

/// Postings hold interned ids in the row's `multi` order: an equal-cost
/// entry lands ahead of the ones stored before it, and a cheaper entry
/// lands ahead of dearer ones already in its members' lists. The walk
/// for `x` then stops where the linear scan stops.
#[test]
fn postings_place_ties_and_cheaper_entries_like_multi() {
    let set = |ids: &[usize]| IndexSet::from_ids(6, ids.iter().map(|&i| IndexId::from(i)));
    let mut c = WhatIfCache::new(6, vec![100.0]);
    let q = QueryId::new(0);
    for (ids, cost) in [
        (&[0, 1][..], 30.0),
        (&[1, 2], 30.0),
        (&[0, 1, 2], 30.0),
        (&[2, 3], 40.0),
        (&[0, 2], 20.0),
        (&[1, 3, 4], 10.0),
        (&[0, 3], 40.0),
        (&[2, 5], 20.0),
        (&[2], 25.0),
        (&[4], 12.0),
    ] {
        assert!(c.put(q, &set(ids), cost));
    }
    let order: Vec<(IndexSet, f64)> = vec![
        (set(&[1, 3, 4]), 10.0),
        (set(&[2, 5]), 20.0),
        (set(&[0, 2]), 20.0),
        (set(&[0, 1, 2]), 30.0),
        (set(&[1, 2]), 30.0),
        (set(&[0, 1]), 30.0),
        (set(&[0, 3]), 40.0),
        (set(&[2, 3]), 40.0),
    ];
    assert_eq!(c.multi_entries(q), order.as_slice(), "ties land ahead");
    let configs: Vec<IndexSet> = [
        &[][..],
        &[0],
        &[1],
        &[3],
        &[0, 1],
        &[1, 3],
        &[0, 5],
        &[1, 3, 5],
        &[0, 1, 3],
        &[0, 1, 3, 5],
    ]
    .iter()
    .map(|ids| set(ids))
    .collect();
    assert_walks_equal_scan(&c, q, &configs);
    // With `{2}` at 25, the walk for 2 from `{0}` must reach `{0, 2}` at
    // 20, which was stored after the dearer `{1, 2}` and `{0, 1, 2}`.
    assert_eq!(
        c.derived_with_extra(q, &set(&[0]), IndexId::new(2), 100.0),
        20.0
    );
}

/// Per-query empty costs, per-(query, index) cost factors, and a batch of
/// (query, config) what-if results to prime the cache with.
type CacheInputs = (Vec<f64>, Vec<Vec<f64>>, Vec<(usize, Vec<usize>)>);

fn cache_inputs() -> impl Strategy<Value = CacheInputs> {
    (
        prop::collection::vec(50.0..150.0f64, QUERIES),
        prop::collection::vec(prop::collection::vec(0.5..1.0f64, UNIVERSE), QUERIES),
        prop::collection::vec(
            (0..QUERIES, prop::collection::vec(0..UNIVERSE, 0..4)),
            0..40,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The postings-guided `derived_with_extra` equals the linear-scan
    /// oracle *and* a fresh full derivation of `C ∪ {x}`, exactly.
    #[test]
    fn with_extra_equals_scan_and_fresh_derivation(
        (empties, factors, entries) in cache_inputs(),
        config_ids in prop::collection::vec(0..UNIVERSE, 0..5),
        extra in 0..UNIVERSE,
    ) {
        let (cache, _) = primed(&empties, &factors, &entries);
        let mut config = build_set(&config_ids);
        config.remove(IndexId::from(extra));
        let x = IndexId::from(extra);
        for q in 0..QUERIES {
            let q = QueryId::from(q);
            let current = cache.derived(q, &config);
            let fast = cache.derived_with_extra(q, &config, x, current);
            let scan = linear_scan_with_extra(&cache, q, &config, x, current);
            let fresh = cache.derived(q, &config.with(x));
            prop_assert_eq!(fast.to_bits(), scan.to_bits());
            prop_assert_eq!(fast.to_bits(), fresh.to_bits());
        }
    }

    /// Probe / stage / commit sequences over a random action list agree
    /// exactly with fresh `derived_workload` recomputation for both commit
    /// flavors — the serial buffer swap and the kernel's re-priced winner
    /// — and the derivation counter advances by exactly one per
    /// (query, probe) and not at all at commit.
    #[test]
    fn state_tracks_fresh_recomputation(
        (empties, factors, entries) in cache_inputs(),
        actions in prop::collection::vec((0..UNIVERSE, any::<bool>()), 1..8),
    ) {
        let (cache, _) = primed(&empties, &factors, &entries);
        let mut state = DerivationState::workload(&cache);
        let mut values = Vec::new();
        prop_assert_eq!(state.total().to_bits(), cache.empty_workload_cost().to_bits());

        for (idx, staged_commit) in actions {
            let x = IndexId::from(idx);
            if state.config().contains(x) {
                continue;
            }

            let before = cache.derivations();
            let probed = state.probe_with(x, &mut |q, cfg, extra, cur| {
                cache.derived_with_extra(q, cfg, extra, cur)
            });
            prop_assert_eq!(cache.derivations(), before + QUERIES);

            let fresh = cache.derived_workload(&state.config().with(x));
            prop_assert_eq!(probed.to_bits(), fresh.to_bits());

            let before = cache.derivations();
            if staged_commit {
                // Serial path: stage the probe, commit by buffer swap.
                state.stage_probe();
                state.commit_staged(x, probed);
            } else {
                // Kernel path: re-price the winner, commit its values.
                let total = winner_values(
                    &cache,
                    state.queries(),
                    state.per_query(),
                    state.config(),
                    x,
                    FrozenEval::Derive,
                    &mut values,
                );
                prop_assert_eq!(total.to_bits(), probed.to_bits());
                state.commit_values(x, &values, total);
            }
            prop_assert_eq!(cache.derivations(), before);

            prop_assert_eq!(
                state.total().to_bits(),
                cache.derived_workload(state.config()).to_bits()
            );
            for (i, &v) in state.per_query().iter().enumerate() {
                let fresh_q = cache.derived(QueryId::from(i), state.config());
                prop_assert_eq!(v.to_bits(), fresh_q.to_bits());
            }
        }
    }

    /// `put_new` (the unchecked insert used by `MeteredWhatIf::what_if`)
    /// builds a cache indistinguishable from one built with checked `put`s.
    #[test]
    fn put_new_cache_is_indistinguishable(
        (empties, factors, entries) in cache_inputs(),
        probe_ids in prop::collection::vec(0..UNIVERSE, 0..5),
    ) {
        let (checked, _) = primed(&empties, &factors, &entries);
        let mut unchecked = WhatIfCache::new(UNIVERSE, empties.clone());
        for (q, ids) in &entries {
            let config = build_set(ids);
            if config.is_empty() {
                continue;
            }
            let q = QueryId::from(*q);
            if unchecked.get(q, &config).is_none() {
                let cost = true_cost(empties[q.index()], &factors[q.index()], &config);
                unchecked.put_new(q, &config, cost);
            }
        }
        prop_assert_eq!(checked.stored_results(), unchecked.stored_results());
        let probe = build_set(&probe_ids);
        for q in 0..QUERIES {
            let q = QueryId::from(q);
            prop_assert_eq!(
                checked.derived(q, &probe).to_bits(),
                unchecked.derived(q, &probe).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Costs from a handful of levels, so rows hold many equal-cost
    /// entries, stored in random order (cheaper entries often after
    /// dearer ones), with singletons that tighten the walk's bound: every
    /// postings walk equals the linear scan.
    #[test]
    fn postings_walk_with_ties_equals_linear_scan(
        entries in prop::collection::vec(
            (0..QUERIES, prop::collection::vec(0..UNIVERSE, 1..5), 1..8u32),
            0..48,
        ),
        probes in prop::collection::vec(prop::collection::vec(0..UNIVERSE, 0..6), 1..8),
    ) {
        let mut cache = WhatIfCache::new(UNIVERSE, vec![100.0; QUERIES]);
        for (q, ids, level) in &entries {
            cache.put(QueryId::from(*q), &build_set(ids), 10.0 * f64::from(*level));
        }
        let configs: Vec<IndexSet> = probes.iter().map(|ids| build_set(ids)).collect();
        for q in 0..QUERIES {
            assert_walks_equal_scan(&cache, QueryId::from(q), &configs);
        }
    }
}
