//! A DTA-style anytime tuner (Chaudhuri & Narasayya \[21\], §7.3 of the
//! paper).
//!
//! DTA's architecture is time-sliced: a cost-based priority queue orders
//! queries by how expensive they are; each slice consumes the next batch of
//! queries, tunes them, and refreshes the recommendation based on *the
//! queries tuned so far*. The paper attributes DTA's non-monotonic behavior
//! to exactly this: the tool can sink its entire budget into one costly
//! query, or refresh the recommendation from a partial view of the
//! workload. This simulator reproduces that mechanism — per-slice greedy
//! tuning of the batch, global greedy refinement over winners so far, FCFS
//! budget — on top of the same what-if client as every other tuner. A
//! storage constraint (3× database size by default in the experiments)
//! is honored through [`Constraints`](ixtune_core::tuner::Constraints).
//!
//! Simplifications versus the real tool: index merging and "table subset"
//! selection are approximated by restricting each slice to candidates on
//! tables its batch references; anytime checkpoint tuning of the
//! recommendation quality is the per-slice refresh.

use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::budget::MeteredWhatIf;
use ixtune_core::greedy::greedy_enumerate;
use ixtune_core::matrix::Layout;
use ixtune_core::tuner::{Tuner, TuningContext, TuningRequest, TuningResult};

/// Number of time slices a session is divided into.
const SLICES: usize = 8;

/// Cap on the accumulated winner pool considered by the global refresh —
/// DTA's "table subset" style pruning keeps the refresh tractable on large
/// workloads.
const MAX_POOL: usize = 400;

/// The DTA-style baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct DtaTuner;

impl Tuner for DtaTuner {
    fn name(&self) -> String {
        "DTA".into()
    }

    fn tune(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> TuningResult {
        let constraints = &req.constraints;
        let m = ctx.num_queries();
        let mut mw = MeteredWhatIf::new(ctx, req.budget);

        // Cost-based priority queue: most expensive queries first.
        let mut order: Vec<QueryId> = (0..m).map(QueryId::from).collect();
        order.sort_by(|a, b| mw.empty_cost(*b).total_cmp(&mw.empty_cost(*a)));

        let batch = m.div_ceil(SLICES).max(1);
        let mut seen: Vec<QueryId> = Vec::new();
        let mut pool: Vec<IndexId> = Vec::new();
        let mut recommendation = IndexSet::empty(ctx.universe());

        for chunk in order.chunks(batch) {
            // --- Tune this slice's queries individually ---
            for &q in chunk {
                seen.push(q);
                let cands = ctx.cands.for_query(q);
                let best = greedy_enumerate(ctx, constraints, cands, |c| mw.cost_fcfs(q, c));
                for id in best.iter() {
                    if pool.len() < MAX_POOL && !pool.contains(&id) {
                        pool.push(id);
                    }
                }
            }
            // --- Refresh the recommendation over the queries seen so far ---
            recommendation = greedy_enumerate(ctx, constraints, &pool, |c| {
                seen.iter().map(|&q| mw.cost_fcfs(q, c)).sum()
            });
            if mw.meter().exhausted() {
                // Anytime behavior: the current recommendation stands, even
                // though it reflects only a prefix of the workload.
                break;
            }
        }

        let used = mw.meter().used();
        let telemetry = mw.telemetry();
        TuningResult::evaluate(
            self.name(),
            ctx,
            recommendation,
            used,
            Layout::new(mw.into_trace()),
        )
        .with_telemetry(telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_core::tuner::Constraints;
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::{synth, tpch};

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn respects_budget_and_constraints() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        for budget in [0usize, 10, 200] {
            let r = DtaTuner.tune(&ctx, &TuningRequest::cardinality(3, budget));
            assert!(r.calls_used <= budget);
            assert!(r.config.len() <= 3);
        }
    }

    #[test]
    fn storage_constraint_respected() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let limit = 3 * opt.schema().database_size_bytes();
        let req = TuningRequest::new(Constraints::with_storage(10, limit), 2_000);
        let r = DtaTuner.tune(&ctx, &req);
        assert!(opt.config_size_bytes(&r.config) <= limit);
    }

    #[test]
    fn improves_tpch_with_ample_budget() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = DtaTuner.tune(&ctx, &TuningRequest::cardinality(10, 20_000));
        assert!(r.improvement > 0.1, "got {}", r.improvement);
    }

    #[test]
    fn expensive_queries_are_tuned_first() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        // Tiny budget: only the first slice runs.
        let r = DtaTuner.tune(&ctx, &TuningRequest::cardinality(5, 15));
        let mw = MeteredWhatIf::new(&ctx, 0);
        let max_cost = (0..ctx.num_queries())
            .map(|q| mw.empty_cost(QueryId::from(q)))
            .fold(0.0f64, f64::max);
        // The first budgeted call must be for (one of) the most expensive
        // queries.
        if let Some((q, _)) = r.layout.cells().first() {
            assert!(mw.empty_cost(*q) >= max_cost * 0.99);
        }
    }
}
