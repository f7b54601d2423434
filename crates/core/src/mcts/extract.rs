//! Extraction of the best configuration from the search tree (§6.3).
//!
//! * **BCE** (Best-Configuration-Explored): return the best configuration
//!   evaluated during the episodes (tree states and rollout samples).
//! * **BG** (Best-Greedy): re-run Algorithm 1 over the candidate universe
//!   using only derived costs — zero extra budget. This is the paper's
//!   recommended strategy (it reuses Algorithm 1, inherits Theorems 2–3,
//!   and dominated BCE in their evaluation).
//! * **Hybrid**: take whichever of the two has the lower derived cost (the
//!   mitigation discussed in the ablation appendix).

use crate::budget::MeteredWhatIf;
use crate::derivation_state::DerivationState;
use crate::greedy::greedy_enumerate_metered;
use crate::parallel::FrozenEval;
use crate::stop::StopSignal;
use crate::tuner::{Constraints, TuningContext};
use ixtune_common::{IndexId, IndexSet};
use serde::{Deserialize, Serialize};

/// Extraction strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Extraction {
    /// Best configuration explored during search.
    Bce,
    /// Greedy traversal with derived costs (the paper's BG).
    BestGreedy,
    /// The better of BCE and BG under derived cost.
    Hybrid,
    /// §6.3's tree-walk alternative: descend the search tree picking the
    /// action that maximizes the estimated average return `Q̂(s, a)`.
    TreeByValue,
    /// §6.3's other tree-walk alternative: descend picking the most
    /// frequently taken action `argmax n(s, a)`.
    TreeByVisits,
}

impl Extraction {
    /// Label used in the ablation figures ("Only" vs "+ Greedy").
    pub fn label(&self) -> &'static str {
        match self {
            Extraction::Bce => "BCE",
            Extraction::BestGreedy => "BG",
            Extraction::Hybrid => "Hybrid",
            Extraction::TreeByValue => "Tree(Q)",
            Extraction::TreeByVisits => "Tree(n)",
        }
    }

    /// Extract the final configuration.
    ///
    /// `best_explored` is the best (configuration, estimated cost) pair
    /// tracked during the episodes; `mw` is the session's metered client,
    /// whose cache provides derived costs (extraction spends no budget);
    /// `tree` is the expanded search tree (used by the tree-walk
    /// strategies).
    pub fn extract(
        &self,
        ctx: &TuningContext<'_>,
        constraints: &Constraints,
        mw: &mut MeteredWhatIf<'_>,
        tree: &crate::mcts::tree::Tree,
        best_explored: Option<&IndexSet>,
    ) -> IndexSet {
        let empty = IndexSet::empty(ctx.universe());
        let bce = || best_explored.cloned().unwrap_or_else(|| empty.clone());
        match self {
            Extraction::Bce => bce(),
            Extraction::BestGreedy => best_greedy(ctx, constraints, mw),
            Extraction::Hybrid => {
                let a = bce();
                let b = best_greedy(ctx, constraints, mw);
                if mw.derived_workload(&a) <= mw.derived_workload(&b) {
                    a
                } else {
                    b
                }
            }
            Extraction::TreeByValue => tree_walk(ctx, constraints, tree, true),
            Extraction::TreeByVisits => tree_walk(ctx, constraints, tree, false),
        }
    }
}

/// §6.3's tree-walk extraction: descend from the root picking, at each
/// node, the admissible action maximizing `Q̂(s,a)` (`by_value`) or
/// `n(s,a)` — the configuration of the deepest node reached. As the paper
/// remarks, this is the theoretically optimal policy only if `Q̂` has
/// converged to `Q*`, which under tight budgets it has not.
fn tree_walk(
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    tree: &crate::mcts::tree::Tree,
    by_value: bool,
) -> IndexSet {
    let mut node = crate::mcts::tree::Tree::ROOT;
    loop {
        let n = tree.node(node);
        if n.config.len() >= constraints.k {
            break;
        }
        let filter = constraints.extension_filter(ctx, &n.config);
        let best = n
            .actions
            .iter()
            .filter(|(a, _)| filter.admits(ctx, *a))
            .max_by(|(a1, s1), (a2, s2)| {
                let (x, y) = if by_value {
                    (s1.q, s2.q)
                } else {
                    (s1.n as f64, s2.n as f64)
                };
                x.total_cmp(&y).then(a2.cmp(a1)) // deterministic ties
            })
            .map(|(a, _)| *a);
        let Some(action) = best else { break };
        let Some(child) = n.child(action) else {
            break;
        };
        node = child;
    }
    tree.node(node).config.clone()
}

/// Best-Greedy: Algorithm 1 over the whole candidate universe, priced by
/// budget-free derivation ([`FrozenEval::Derive`]) through the greedy
/// driver the budgeted enumerators run. Extraction is never interrupted:
/// the search it summarizes has already stopped.
fn best_greedy(
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    mw: &mut MeteredWhatIf<'_>,
) -> IndexSet {
    let pool: Vec<IndexId> = (0..ctx.universe()).map(IndexId::from).collect();
    let mut state = DerivationState::workload(mw.cache());
    let (config, _) = greedy_enumerate_metered(
        ctx,
        constraints,
        &pool,
        &mut state,
        mw,
        FrozenEval::Derive,
        &StopSignal::never(),
    );
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcts::tree::Tree;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_common::QueryId;
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::synth;

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn bce_returns_tracked_or_empty() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 0);
        let c = Constraints::cardinality(3);
        let none = Extraction::Bce.extract(&ctx, &c, &mut mw, &Tree::new(ctx.universe()), None);
        assert!(none.is_empty());
        let tracked = IndexSet::singleton(ctx.universe(), IndexId::new(0));
        let got = Extraction::Bce.extract(
            &ctx,
            &c,
            &mut mw,
            &Tree::new(ctx.universe()),
            Some(&tracked),
        );
        assert_eq!(got, tracked);
    }

    #[test]
    fn bg_uses_cached_information() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 1_000);
        // Prime the cache with every singleton for every query.
        for q in 0..ctx.num_queries() {
            for i in 0..ctx.universe() {
                mw.what_if(
                    QueryId::from(q),
                    &IndexSet::singleton(ctx.universe(), IndexId::from(i)),
                );
            }
        }
        let c = Constraints::cardinality(3);
        let bg =
            Extraction::BestGreedy.extract(&ctx, &c, &mut mw, &Tree::new(ctx.universe()), None);
        assert!(bg.len() <= 3);
        // With full singleton information, BG's derived cost is at most the
        // empty cost.
        assert!(mw.derived_workload(&bg) <= mw.empty_workload_cost());
    }

    #[test]
    fn bg_with_no_information_returns_empty() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 0);
        let c = Constraints::cardinality(3);
        let bg =
            Extraction::BestGreedy.extract(&ctx, &c, &mut mw, &Tree::new(ctx.universe()), None);
        assert!(bg.is_empty(), "no cache entries → nothing beats ∅");
    }

    #[test]
    fn hybrid_picks_the_cheaper() {
        let (opt, cands) = setup(4);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 1_000);
        for q in 0..ctx.num_queries() {
            for i in 0..ctx.universe() {
                mw.what_if(
                    QueryId::from(q),
                    &IndexSet::singleton(ctx.universe(), IndexId::from(i)),
                );
            }
        }
        let c = Constraints::cardinality(3);
        let tracked = IndexSet::singleton(ctx.universe(), IndexId::new(0));
        let h = Extraction::Hybrid.extract(
            &ctx,
            &c,
            &mut mw,
            &Tree::new(ctx.universe()),
            Some(&tracked),
        );
        let bce_cost = mw.derived_workload(&tracked);
        let bg =
            Extraction::BestGreedy.extract(&ctx, &c, &mut mw, &Tree::new(ctx.universe()), None);
        let bg_cost = mw.derived_workload(&bg);
        assert!(mw.derived_workload(&h) <= bce_cost.min(bg_cost) + 1e-9);
    }

    #[test]
    fn fast_bg_matches_naive_greedy_over_derived_costs() {
        use crate::greedy::greedy_enumerate;
        for seed in 0..5u64 {
            let (opt, cands) = setup(seed + 40);
            let ctx = TuningContext::new(&opt, &cands);
            let mut mw = MeteredWhatIf::new(&ctx, 60);
            // Populate a mixed cache: singletons and a few pairs.
            let n = ctx.universe();
            let mut rng = ixtune_common::rng::seeded(seed);
            use rand::RngExt;
            while !mw.meter().exhausted() {
                let a = IndexId::from(rng.random_range(0..n));
                let b = IndexId::from(rng.random_range(0..n));
                let q = QueryId::from(rng.random_range(0..ctx.num_queries()));
                let cfg = if rng.random::<bool>() {
                    IndexSet::singleton(n, a)
                } else {
                    IndexSet::from_ids(n, [a, b])
                };
                mw.what_if(q, &cfg);
            }
            let c = Constraints::cardinality(4);
            let fast = best_greedy(&ctx, &c, &mut mw);
            let pool: Vec<IndexId> = (0..n).map(IndexId::from).collect();
            let naive = greedy_enumerate(&ctx, &c, &pool, |cfg| mw.derived_workload(cfg));
            assert_eq!(
                mw.derived_workload(&fast),
                mw.derived_workload(&naive),
                "seed {seed}: fast BG must match Algorithm 1 over derived costs"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Extraction::Bce.label(), "BCE");
        assert_eq!(Extraction::BestGreedy.label(), "BG");
        assert_eq!(Extraction::Hybrid.label(), "Hybrid");
    }
}
