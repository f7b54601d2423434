//! AutoAdmin greedy (§4.2.2, Figure 5(d) of the paper): the two-phase
//! framework where budgeted what-if calls are spent **only on atomic
//! configurations** — singletons plus single-join pairs — and every other
//! configuration is priced by cost derivation.

use crate::parallel::FrozenEval;
use crate::stop::StopSignal;
use crate::tuner::{Tuner, TuningContext, TuningRequest, TuningResult};
use crate::twophase::two_phase;
use ixtune_candidates::atomic::single_join_pairs;
use ixtune_common::IndexSet;
use std::collections::HashSet;

/// Cap on precomputed single-join atomic pairs.
pub(crate) const MAX_JOIN_PAIRS: usize = 2_000;

/// AutoAdmin-style greedy with atomic-configuration budget allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoAdminGreedy;

impl Tuner for AutoAdminGreedy {
    fn name(&self) -> String {
        "AutoAdmin Greedy".into()
    }

    fn tune(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> TuningResult {
        self.tune_with_stop(ctx, req, &StopSignal::never())
    }

    fn tune_with_stop(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        stop: &StopSignal,
    ) -> TuningResult {
        let atomic_pairs: HashSet<IndexSet> =
            single_join_pairs(ctx.opt.workload(), ctx.cands, MAX_JOIN_PAIRS)
                .into_iter()
                .collect();
        // Both phases run atomic-restricted: what-if for singletons and
        // single-join pairs, derived costs for everything else.
        let mode = FrozenEval::Atomic(&atomic_pairs);
        two_phase(self.name(), "autoadmin", ctx, req, mode, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::{synth, tpch};

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn only_atomic_configs_receive_calls() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = AutoAdminGreedy.tune(&ctx, &TuningRequest::cardinality(10, 500));
        let sizes = r.layout.calls_by_config_size();
        // All budgeted calls are for configurations of size ≤ 2 (singletons
        // and join pairs).
        assert!(
            sizes.keys().all(|&s| s <= 2),
            "atomic layout has sizes {sizes:?}"
        );
    }

    #[test]
    fn respects_budget_and_cardinality() {
        let (opt, cands) = setup(21);
        let ctx = TuningContext::new(&opt, &cands);
        for (budget, k) in [(0usize, 2usize), (9, 2), (200, 4)] {
            let r = AutoAdminGreedy.tune(&ctx, &TuningRequest::cardinality(k, budget));
            assert!(r.calls_used <= budget);
            assert!(r.config.len() <= k);
        }
    }

    #[test]
    fn finds_improvement_with_ample_budget() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = AutoAdminGreedy.tune(&ctx, &TuningRequest::cardinality(10, 10_000));
        assert!(r.improvement > 0.0, "TPC-H should be improvable");
    }
}
