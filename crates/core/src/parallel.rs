//! Frozen-cache candidate scanning.
//!
//! Once the what-if budget is exhausted — or for an evaluator that spends
//! none — a greedy step is a pure function of the (now read-only)
//! [`WhatIfCache`]: score every admissible candidate `x` by
//! `Σ_q d(q, C ∪ {x})` and take the argmin. This module prices that scan
//! query-major, on the session's own thread, and stays **bit-identical**
//! to the serial per-candidate scan:
//!
//! * **Batched query-major kernel.** Instead of one postings walk per
//!   `(candidate, query)` pair, the kernel makes a single ascending-cost
//!   pass over `multi_entries(q)` per query: an entry credits candidate
//!   `x` iff its members outside `C` are *exactly* `{x}` — precisely the
//!   entries the serial postings walk for `x` would accept — and because
//!   entries are cost-sorted, the first credit is the min. One entry pass
//!   prices every candidate of the scan, which is why the kernel beats
//!   the serial postings walks.
//! * **Serial tie-breaking.** Candidates are scanned in pool order and the
//!   first strict min wins, so ties keep the earliest pool position: the
//!   serial argmin.
//! * **Exact telemetry.** Per query, the kernel accounts
//!   `candidates − hits` derivations in one batched counter add and
//!   reports hits to the caller — the same counts, call for call, as the
//!   serial evaluators it replaces.
//!
//! Candidate totals are accumulated query-major (ascending `q`), the same
//! `f64` summation order as the serial per-candidate loop, so sums match
//! to the bit, not just to rounding.

use crate::budget::MeteredWhatIf;
use crate::derived::WhatIfCache;
use ixtune_common::{IndexId, IndexSet, QueryId};
use std::collections::HashSet;

/// Candidate scans hand off to the kernel only when they are at least
/// this many `(candidate, query)` evaluations. Below it the kernel's fixed
/// per-scan cost — the informed-candidate pre-filter over every stored
/// entry and the universe-sized scratch rows — outweighs the postings
/// walks it replaces (e.g. two-phase's tiny per-query phase-1 scans).
pub const MIN_PARALLEL_WORK: usize = 64;

/// How a greedy step prices one `(q, C ∪ {x})` cell. The same evaluator
/// prices serially through the session's metered client (`price`) or in
/// the frozen kernel ([`frozen_argmin`]), with identical values *and*
/// telemetry either way.
#[derive(Clone, Copy)]
pub enum FrozenEval<'a> {
    /// FCFS (`MeteredWhatIf::cost_fcfs_extend`): a what-if call while
    /// budget lasts; after exhaustion a cached exact hit if present (a
    /// free cache hit), otherwise Eq. 1 derivation.
    Fcfs,
    /// The AutoAdmin rule: atomic configurations (singletons and the
    /// listed pairs) go through the FCFS path, everything else is priced
    /// by pure derivation without an exact-hit probe.
    Atomic(&'a HashSet<IndexSet>),
    /// Pure incremental derivation: never probes for hits and never
    /// spends budget — Best-Greedy extraction and the two-phase salvage.
    Derive,
}

impl FrozenEval<'_> {
    /// Whether pricing a cell may spend budget. A budget-free evaluator's
    /// scans go to the kernel whatever the meter reads.
    pub(crate) fn spends_budget(self) -> bool {
        !matches!(self, FrozenEval::Derive)
    }

    /// Price one cell serially. `config` is the scratch set `C ∪ {extra}`
    /// and `cur` is `cost(q, C)`.
    #[inline]
    pub(crate) fn price(
        self,
        mw: &mut MeteredWhatIf<'_>,
        q: QueryId,
        config: &IndexSet,
        extra: IndexId,
        cur: f64,
    ) -> f64 {
        match self {
            FrozenEval::Fcfs => mw.cost_fcfs_extend(q, config, extra, cur),
            FrozenEval::Atomic(pairs) if config.len() <= 1 || pairs.contains(config) => {
                mw.cost_fcfs_extend(q, config, extra, cur)
            }
            FrozenEval::Atomic(_) | FrozenEval::Derive => {
                mw.cache().derived_with_extra(q, config, extra, cur)
            }
        }
    }
}

/// Scan `candidates` (pool positions + ids, ascending) against every
/// query, returning their `(cost, position, id)` first-strict-min and the
/// cache hits observed. Derivation counts are batched straight into the
/// cache's counter, once per query.
fn scan_informed(
    cache: &WhatIfCache,
    queries: &[QueryId],
    per_query: &[f64],
    config: &IndexSet,
    candidates: &[(usize, IndexId)],
    mode: FrozenEval<'_>,
) -> (Option<(f64, usize, IndexId)>, usize) {
    let universe = cache.universe();
    // Epoch-stamped scratch: `entry_min[x]` is valid for the current query
    // iff `stamp[x] == epoch`, so per-query resets are O(1), not O(u).
    let mut entry_min = vec![0.0f64; universe];
    let mut stamp = vec![0u32; universe];
    let mut epoch = 0u32;
    let mut totals = vec![0.0f64; candidates.len()];
    // Scratch set for exact-hit probes: `C ∪ {x}` by insert/remove undo.
    let mut cfg = config.clone();
    let cfg_len = config.len() + 1;
    let mut hits = 0usize;

    // Hoisted exact-probe keys: resolve the interned id of `C ∪ {x}` once
    // per candidate (one bitset hash) instead of per `(query, candidate)`
    // cell; per-query probes are then integer lookups. `None` = no query
    // anywhere stored that configuration, so every probe would miss.
    let cand_key: Vec<Option<u32>> = if cfg_len >= 2 && !matches!(mode, FrozenEval::Derive) {
        candidates
            .iter()
            .map(|&(_, id)| {
                cfg.insert(id);
                let k = cache.interned_id(&cfg);
                cfg.remove(id);
                k
            })
            .collect()
    } else {
        Vec::new()
    };

    for (slot, &q) in queries.iter().enumerate() {
        let cur = per_query[slot];
        let singleton = cache.singleton_row(q);
        epoch += 1;

        // Entry pass: ascending cost, so the first entry crediting `x`
        // (members outside C exactly {x}) is its min — later credits
        // cannot improve it and are skipped by the stamp check.
        'entries: for (set, cost) in cache.multi_entries(q) {
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
            if extra == usize::MAX {
                continue; // entry ⊆ C: no postings walk ever visits it
            }
            if stamp[extra] != epoch {
                stamp[extra] = epoch;
                entry_min[extra] = *cost;
            }
        }

        // Candidate pass: fold this query's value into each total.
        let mut row_hits = 0usize;
        for (ci, &(_, id)) in candidates.iter().enumerate() {
            let x = id.index();
            let derive = || -> f64 {
                let mut best = cur;
                let s = singleton[x];
                if !s.is_nan() && s < best {
                    best = s;
                }
                if stamp[x] == epoch && entry_min[x] < best {
                    best = entry_min[x];
                }
                best
            };
            let fcfs = |row_hits: &mut usize| -> f64 {
                // Replicate `cache.get(q, C ∪ {x})`:
                let hit = if cfg_len == 1 {
                    let s = singleton[x];
                    (!s.is_nan()).then_some(s)
                } else if cfg_len > cache.max_multi_len(q) {
                    None
                } else {
                    cand_key[ci].and_then(|k| cache.exact_get_id(q, k))
                };
                match hit {
                    Some(c) => {
                        *row_hits += 1;
                        c
                    }
                    None => derive(),
                }
            };
            let v = match mode {
                FrozenEval::Fcfs => fcfs(&mut row_hits),
                FrozenEval::Atomic(pairs) => {
                    // Atomic configurations are singletons and listed
                    // (size-2) pairs, so larger scratch sets skip the probe.
                    let atomic = cfg_len <= 1 || {
                        cfg_len == 2 && {
                            cfg.insert(id);
                            let a = pairs.contains(&cfg);
                            cfg.remove(id);
                            a
                        }
                    };
                    if atomic {
                        fcfs(&mut row_hits)
                    } else {
                        derive()
                    }
                }
                FrozenEval::Derive => derive(),
            };
            totals[ci] += v;
        }
        // Serial accounting: every non-hit evaluation was one derivation.
        cache.add_derivations(candidates.len() - row_hits);
        hits += row_hits;
    }

    let mut best: Option<(f64, usize, IndexId)> = None;
    for (ci, &(pos, id)) in candidates.iter().enumerate() {
        let t = totals[ci];
        if best.is_none_or(|(b, _, _)| t < b) {
            best = Some((t, pos, id));
        }
    }
    (best, hits)
}

/// Argmin over `admissible` candidates (pool positions + ids in ascending
/// pool order) against a cache no budgeted call can still grow. Returns
/// the winning `(position, id, cost)` — bit-identical to the serial
/// first-strict-min scan — and the number of cache hits observed. The
/// informed candidates are scanned inline, as one batch.
pub fn frozen_argmin(
    cache: &WhatIfCache,
    queries: &[QueryId],
    per_query: &[f64],
    config: &IndexSet,
    admissible: &[(usize, IndexId)],
    mode: FrozenEval<'_>,
) -> (Option<(usize, IndexId, f64)>, usize) {
    if admissible.is_empty() {
        return (None, 0);
    }
    // Sparse pre-filter: candidates no stored entry can inform all price
    // to exactly `cur` for every query, so their scan total is the plain
    // ordered fold of `per_query` — identical for all of them. Only the
    // informed candidates need their cells scanned; the uninformed block
    // is represented by its earliest pool position (first-strict-min ties
    // resolve by position) and its derivation counts are added in batch —
    // the same counts, cell for cell, as scanning them would record (an
    // uninformed cell can never be a cache hit).
    let informed_set = cache.informed_candidates(config);
    let mut informed: Vec<(usize, IndexId)> = Vec::with_capacity(admissible.len());
    let mut uninformed_first: Option<(usize, IndexId)> = None;
    let mut uninformed = 0usize;
    for &(pos, id) in admissible {
        if informed_set.contains(id) {
            informed.push((pos, id));
        } else {
            if uninformed_first.is_none() {
                uninformed_first = Some((pos, id));
            }
            uninformed += 1;
        }
    }
    cache.add_derivations(uninformed * queries.len());
    let (mut best, hits) = if informed.is_empty() {
        (None, 0)
    } else {
        scan_informed(cache, queries, per_query, config, &informed, mode)
    };
    // Fold the uninformed block back in: its candidates all total the
    // per-query fold, so the serial argmin is "min value, earliest
    // position among equals" across the informed best and the first
    // uninformed position.
    if let Some((upos, uid)) = uninformed_first {
        let t = fold_per_query(per_query);
        if best.is_none_or(|(b, bpos, _)| t < b || (t == b && upos < bpos)) {
            best = Some((t, upos, uid));
        }
    }
    (best.map(|(t, pos, id)| (pos, id, t)), hits)
}

/// The serial scan's candidate total for a candidate no entry informs:
/// `0.0 + v(q_0) + v(q_1) + …` with every `v(q) = per_query[q]` — the
/// exact fold (order and bits) the per-cell loop would compute.
#[inline]
fn fold_per_query(per_query: &[f64]) -> f64 {
    let mut total = 0.0f64;
    for &v in per_query {
        total += v;
    }
    total
}

/// Re-price the scan winner's per-query values (pushing them into `out`
/// in query order) and return their sum — bit-identical to the kernel's
/// winning total. Telemetry-silent: the kernel already accounted every
/// probe, so this uses uncounted derivation.
pub fn winner_values(
    cache: &WhatIfCache,
    queries: &[QueryId],
    per_query: &[f64],
    config: &IndexSet,
    winner: IndexId,
    mode: FrozenEval<'_>,
    out: &mut Vec<f64>,
) -> f64 {
    out.clear();
    let cfgx = config.with(winner);
    let cfg_len = cfgx.len();
    // One interner resolution for the fixed winning configuration.
    let key = (cfg_len >= 2).then(|| cache.interned_id(&cfgx)).flatten();
    let mut total = 0.0;
    for (i, &q) in queries.iter().enumerate() {
        let cur = per_query[i];
        let hit = |q: QueryId| -> Option<f64> {
            if cfg_len == 1 {
                cache.singleton_cost(q, winner)
            } else if cfg_len > cache.max_multi_len(q) {
                None
            } else {
                key.and_then(|k| cache.exact_get_id(q, k))
            }
        };
        let derive = || cache.derived_with_extra_uncounted(q, config, winner, cur);
        let v = match mode {
            FrozenEval::Fcfs => hit(q).unwrap_or_else(derive),
            FrozenEval::Atomic(pairs) => {
                if cfg_len <= 1 || (cfg_len == 2 && pairs.contains(&cfgx)) {
                    hit(q).unwrap_or_else(derive)
                } else {
                    derive()
                }
            }
            FrozenEval::Derive => derive(),
        };
        out.push(v);
        total += v;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_common::rng::seeded;
    use rand::RngExt;

    /// A cache primed with pseudo-random singleton and multi entries,
    /// including deliberately non-monotone costs, so the kernel is pinned
    /// to the serial scan rather than to any monotonicity assumption.
    fn primed(universe: usize, queries: usize, entries: usize, seed: u64) -> WhatIfCache {
        let mut rng = seeded(seed);
        let empties: Vec<f64> = (0..queries).map(|_| 800.0 + rng.random::<f64>()).collect();
        let mut cache = WhatIfCache::new(universe, empties);
        for _ in 0..entries {
            let q = QueryId::from(rng.random_range(0..queries));
            let size = rng.random_range(1..4usize);
            let ids: Vec<IndexId> = (0..size)
                .map(|_| IndexId::from(rng.random_range(0..universe)))
                .collect();
            let cfg = IndexSet::from_ids(universe, ids);
            if cfg.is_empty() {
                continue;
            }
            let cost = 100.0 + 700.0 * rng.random::<f64>();
            cache.put(q, &cfg, cost);
        }
        cache
    }

    fn serial_oracle(
        cache: &WhatIfCache,
        queries: &[QueryId],
        per_query: &[f64],
        config: &IndexSet,
        admissible: &[(usize, IndexId)],
        mode: FrozenEval<'_>,
    ) -> Option<(usize, IndexId, f64)> {
        let mut best: Option<(f64, usize, IndexId)> = None;
        for &(pos, id) in admissible {
            let mut total = 0.0;
            let cfgx = config.with(id);
            for (i, &q) in queries.iter().enumerate() {
                let cur = per_query[i];
                let v = match mode {
                    FrozenEval::Fcfs => cache
                        .get(q, &cfgx)
                        .unwrap_or_else(|| cache.derived_with_extra(q, config, id, cur)),
                    FrozenEval::Atomic(pairs) => {
                        if cfgx.len() <= 1 || pairs.contains(&cfgx) {
                            cache
                                .get(q, &cfgx)
                                .unwrap_or_else(|| cache.derived_with_extra(q, config, id, cur))
                        } else {
                            cache.derived_with_extra(q, config, id, cur)
                        }
                    }
                    FrozenEval::Derive => cache.derived_with_extra(q, config, id, cur),
                };
                total += v;
            }
            if best.is_none_or(|(b, _, _)| total < b) {
                best = Some((total, pos, id));
            }
        }
        best.map(|(t, pos, id)| (pos, id, t))
    }

    #[test]
    fn kernel_matches_serial_oracle_across_modes_and_threads() {
        for seed in 0..6u64 {
            let universe = 24;
            let cache = primed(universe, 5, 60, seed);
            let queries: Vec<QueryId> = (0..5usize).map(QueryId::from).collect();
            let mut rng = seeded(seed ^ 0xabc);
            let config = IndexSet::from_ids(
                universe,
                (0..3).map(|_| IndexId::from(rng.random_range(0..universe))),
            );
            let per_query: Vec<f64> = queries.iter().map(|&q| cache.derived(q, &config)).collect();
            let admissible: Vec<(usize, IndexId)> = config.complement_iter().enumerate().collect();
            let pairs: HashSet<IndexSet> = (0..universe)
                .step_by(3)
                .map(|i| {
                    IndexSet::from_ids(
                        universe,
                        [IndexId::from(i), IndexId::from((i + 1) % universe)],
                    )
                })
                .collect();
            for mode in [
                FrozenEval::Fcfs,
                FrozenEval::Atomic(&pairs),
                FrozenEval::Derive,
            ] {
                let expected =
                    serial_oracle(&cache, &queries, &per_query, &config, &admissible, mode);
                let (got, _) =
                    frozen_argmin(&cache, &queries, &per_query, &config, &admissible, mode);
                match (expected, got) {
                    (None, None) => {}
                    (Some((ep, ei, ec)), Some((gp, gi, gc))) => {
                        assert_eq!((ep, ei), (gp, gi), "seed={seed}");
                        assert_eq!(ec.to_bits(), gc.to_bits(), "seed={seed}");
                    }
                    (e, g) => panic!("mismatch: expected {e:?}, got {g:?}"),
                }
                // Winner re-pricing reproduces the winning total bit-for-bit.
                if let Some((_, id, cost)) = got {
                    let mut vals = Vec::new();
                    let total =
                        winner_values(&cache, &queries, &per_query, &config, id, mode, &mut vals);
                    assert_eq!(total.to_bits(), cost.to_bits());
                    assert_eq!(vals.len(), queries.len());
                }
            }
        }
    }

    #[test]
    fn kernel_telemetry_matches_serial_counts() {
        let universe = 16;
        let cache = primed(universe, 4, 40, 9);
        let queries: Vec<QueryId> = (0..4usize).map(QueryId::from).collect();
        let config = IndexSet::from_ids(universe, [IndexId::new(1), IndexId::new(5)]);
        let per_query: Vec<f64> = queries.iter().map(|&q| cache.derived(q, &config)).collect();
        let admissible: Vec<(usize, IndexId)> = config.complement_iter().enumerate().collect();

        // Serial FCFS evaluation: count hits and derivations by hand.
        let mut serial_hits = 0usize;
        let mut serial_derivs = 0usize;
        for &(_, id) in &admissible {
            let cfgx = config.with(id);
            for &q in &queries {
                if cache.get(q, &cfgx).is_some() {
                    serial_hits += 1;
                } else {
                    serial_derivs += 1;
                }
            }
        }

        let before = cache.derivations();
        let (_, hits) = frozen_argmin(
            &cache,
            &queries,
            &per_query,
            &config,
            &admissible,
            FrozenEval::Fcfs,
        );
        assert_eq!(hits, serial_hits);
        assert_eq!(cache.derivations() - before, serial_derivs);
    }

    #[test]
    fn empty_admissible_set_is_a_no_scan() {
        let cache = primed(8, 2, 10, 1);
        let queries: Vec<QueryId> = (0..2usize).map(QueryId::from).collect();
        let config = IndexSet::empty(8);
        let per_query = vec![cache.empty_cost(queries[0]), cache.empty_cost(queries[1])];
        let (best, hits) = frozen_argmin(
            &cache,
            &queries,
            &per_query,
            &config,
            &[],
            FrozenEval::Derive,
        );
        assert!(best.is_none());
        assert_eq!(hits, 0);
    }
}
