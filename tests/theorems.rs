//! Property-based tests of the paper's formal results.
//!
//! * Assumption 1 — monotonicity of the simulated what-if costs;
//! * Eq. 1 — the derived cost is a correct upper bound that equals the
//!   what-if cost once known;
//! * Theorem 1 — `b(W, C)` is non-negative, monotone, and submodular under
//!   singleton derivation (Eq. 2);
//! * Theorem 2 — greedy with full singleton information achieves at least
//!   `(1 − 1/e)` of the optimal derived benefit on brute-forceable
//!   instances;
//! * Theorem 3 — order insensitivity: what-if results arriving in any order
//!   (same outcome set) give identical derived costs and identical greedy
//!   output.

use ixtune::candidates::{generate_default, CandidateSet};
use ixtune::common::{IndexId, IndexSet, QueryId};
use ixtune::core::derived::WhatIfCache;
use ixtune::core::prelude::*;
use ixtune::core::{greedy_enumerate, MeteredWhatIf};
use ixtune::optimizer::{CostModel, SimulatedOptimizer, WhatIfOptimizer};
use ixtune::workload::gen::synth::{self, SynthParams};
use proptest::prelude::*;

fn small_optimizer(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
    let inst = synth::generate(&SynthParams {
        seed,
        num_tables: 3,
        num_queries: 4,
        max_scans: 3,
        max_filters: 2,
    });
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    (opt, cands)
}

fn subset_of(universe: usize, mask: u64) -> IndexSet {
    IndexSet::from_ids(
        universe,
        (0..universe.min(64))
            .filter(|i| mask >> i & 1 == 1)
            .map(IndexId::from),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Assumption 1: `C1 ⊆ C2 ⇒ c(q, C2) ≤ c(q, C1)`.
    #[test]
    fn whatif_cost_is_monotone(seed in 0u64..40, mask in any::<u64>(), extra in 0usize..16) {
        let (opt, _) = small_optimizer(seed);
        let n = opt.num_candidates();
        prop_assume!(n > 0);
        let c1 = subset_of(n, mask);
        let c2 = c1.with(IndexId::from(extra % n));
        for q in 0..opt.num_queries() {
            let q = QueryId::from(q);
            let a = opt.what_if_cost(q, &c1);
            let b = opt.what_if_cost(q, &c2);
            prop_assert!(b <= a + 1e-9, "cost went up: {a} -> {b}");
        }
    }

    /// Derived cost never underestimates the what-if cost and matches it
    /// exactly once the configuration has been evaluated.
    #[test]
    fn derived_is_a_tight_upper_bound(seed in 0u64..40, mask in any::<u64>()) {
        let (opt, cands) = small_optimizer(seed);
        let n = opt.num_candidates();
        prop_assume!(n > 0);
        let config = subset_of(n, mask);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 1_000);
        // Evaluate a few singletons to give derivation something to chew on.
        for i in 0..n.min(4) {
            for q in 0..opt.num_queries() {
                mw.what_if(QueryId::from(q), &IndexSet::singleton(n, IndexId::from(i)));
            }
        }
        for q in 0..opt.num_queries() {
            let q = QueryId::from(q);
            let exact = opt.what_if_cost(q, &config);
            let d = mw.derived(q, &config);
            prop_assert!(d >= exact - 1e-9, "derived {d} < exact {exact}");
        }
        // After evaluating, derived == exact.
        for q in 0..opt.num_queries() {
            let q = QueryId::from(q);
            let exact = mw.what_if(q, &config);
            prop_assume!(exact.is_some());
            prop_assert!((mw.derived(q, &config) - exact.unwrap()).abs() < 1e-12);
        }
    }

    /// Theorem 1: with singleton derivation, `b(W, C)` is non-negative,
    /// monotone, and submodular.
    #[test]
    fn singleton_benefit_is_monotone_submodular(
        seed in 0u64..40,
        x_mask in any::<u64>(),
        extra_sel in 0usize..16,
        z_sel in 0usize..16,
    ) {
        let (opt, cands) = small_optimizer(seed);
        let n = opt.num_candidates();
        prop_assume!(n >= 2);
        // Evaluate every singleton for every query (full Eq. 2 information).
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 1_000_000);
        for i in 0..n {
            for q in 0..opt.num_queries() {
                mw.what_if(QueryId::from(q), &IndexSet::singleton(n, IndexId::from(i)));
            }
        }
        let cache = mw.cache();
        let b = |c: &IndexSet| -> f64 {
            (0..opt.num_queries())
                .map(|q| {
                    let q = QueryId::from(q);
                    cache.empty_cost(q) - cache.derived_singleton(q, c)
                })
                .sum()
        };
        let x = subset_of(n, x_mask);
        let extra = IndexId::from(extra_sel % n);
        let y = x.with(extra);
        let z = IndexId::from(z_sel % n);
        prop_assume!(!y.contains(z));

        // Non-negativity and monotonicity.
        prop_assert!(b(&x) >= -1e-9);
        prop_assert!(b(&y) >= b(&x) - 1e-9, "monotone violated");
        // Submodularity: marginal gain of z shrinks as the set grows.
        let gain_x = b(&x.with(z)) - b(&x);
        let gain_y = b(&y.with(z)) - b(&y);
        prop_assert!(gain_x >= gain_y - 1e-9, "submodularity violated: {gain_x} < {gain_y}");
    }

    /// Theorem 3 (order insensitivity): inserting the same set of what-if
    /// results in different orders leaves every derived cost — and the
    /// greedy algorithm's output — unchanged.
    #[test]
    fn derivation_and_greedy_are_order_insensitive(
        seed in 0u64..40,
        perm_seed in any::<u64>(),
        probe_mask in any::<u64>(),
    ) {
        let (opt, _) = small_optimizer(seed);
        let n = opt.num_candidates();
        prop_assume!(n >= 2);
        let m = opt.num_queries();
        // The outcome: every singleton plus a handful of pairs.
        let mut entries: Vec<(QueryId, IndexSet)> = Vec::new();
        for q in 0..m {
            for i in 0..n {
                entries.push((QueryId::from(q), IndexSet::singleton(n, IndexId::from(i))));
            }
            entries.push((
                QueryId::from(q),
                IndexSet::from_ids(n, [IndexId::new(0), IndexId::from(n - 1)]),
            ));
        }
        let empty_costs: Vec<f64> = (0..m)
            .map(|q| opt.what_if_cost(QueryId::from(q), &IndexSet::empty(n)))
            .collect();

        let build = |order: &[usize]| {
            let mut cache = WhatIfCache::new(n, empty_costs.clone());
            for &i in order {
                let (q, cfg) = &entries[i];
                let cost = opt.what_if_cost(*q, cfg);
                cache.put(*q, cfg, cost);
            }
            cache
        };
        let forward: Vec<usize> = (0..entries.len()).collect();
        let mut shuffled = forward.clone();
        // Fisher–Yates with the property seed.
        let mut s = perm_seed | 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let c1 = build(&forward);
        let c2 = build(&shuffled);

        let probe = subset_of(n, probe_mask);
        for q in 0..m {
            let q = QueryId::from(q);
            prop_assert_eq!(c1.derived(q, &probe), c2.derived(q, &probe));
        }
        prop_assert_eq!(c1.derived_workload(&probe), c2.derived_workload(&probe));
    }
}

/// Theorem 2: greedy over full singleton information achieves ≥ (1 − 1/e)
/// of the optimal singleton-derived benefit (checked by brute force).
#[test]
fn greedy_achieves_submodular_approximation_bound() {
    for seed in 0..25u64 {
        let (opt, cands) = small_optimizer(seed);
        let n = opt.num_candidates();
        if n == 0 || n > 16 {
            continue; // keep brute force tractable
        }
        let ctx = TuningContext::new(&opt, &cands);
        let k = 3usize;
        let mut mw = MeteredWhatIf::new(&ctx, 1_000_000);
        for i in 0..n {
            for q in 0..opt.num_queries() {
                mw.what_if(QueryId::from(q), &IndexSet::singleton(n, IndexId::from(i)));
            }
        }
        let cache = mw.cache();
        let benefit = |c: &IndexSet| -> f64 {
            (0..opt.num_queries())
                .map(|q| {
                    let q = QueryId::from(q);
                    cache.empty_cost(q) - cache.derived_singleton(q, c)
                })
                .sum()
        };

        // Greedy under singleton-derived costs (Algorithm 1).
        let pool: Vec<IndexId> = (0..n).map(IndexId::from).collect();
        let greedy_cfg = greedy_enumerate(&ctx, &Constraints::cardinality(k), &pool, |c| {
            (0..opt.num_queries())
                .map(|q| cache.derived_singleton(QueryId::from(q), c))
                .sum()
        });
        let greedy_benefit = benefit(&greedy_cfg);

        // Brute-force optimum over all configurations of size ≤ k.
        let mut best = 0.0f64;
        for mask in 0u64..(1 << n) {
            if mask.count_ones() as usize > k {
                continue;
            }
            let cfg = subset_of(n, mask);
            best = best.max(benefit(&cfg));
        }
        let bound = (1.0 - 1.0 / std::f64::consts::E) * best;
        assert!(
            greedy_benefit >= bound - 1e-9,
            "seed {seed}: greedy {greedy_benefit} < (1-1/e)·opt {bound}"
        );
    }
}
