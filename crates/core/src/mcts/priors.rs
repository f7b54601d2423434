//! Singleton priors under budget (Algorithm 4 of the paper).
//!
//! The ε-greedy policy needs a prior reward for actions that have never
//! been taken. The paper uses the percentage improvement of the singleton
//! configuration, `η(W, {a})`, computed *under budget*: each budgeted call
//! evaluates one `(query, index)` pair, with **round-robin query
//! selection** (favoring breadth across the workload) and **largest-table
//! index selection** within a query (indexes on big tables matter most
//! under a cardinality constraint — §6.1).

use crate::budget::{MeteredWhatIf, Phase};
use crate::tuner::TuningContext;
use ixtune_common::{IndexId, IndexSet, QueryId};
use std::collections::HashSet;

/// The paper's priors budget: `B' = min(B/2, P)` where `B` is the total
/// budget and `P` the number of query–index pairs.
pub fn priors_budget(total_budget: usize, ctx: &TuningContext<'_>) -> usize {
    (total_budget / 2).min(ctx.cands.num_query_index_pairs())
}

/// Compute `η(W, {I})` for every candidate `I`, spending at most
/// `budget_prime` what-if calls through `mw`, with the paper's
/// round-robin query selection. Returns improvements as fractions in
/// `[0, 1]`.
pub fn compute_priors(
    ctx: &TuningContext<'_>,
    mw: &mut MeteredWhatIf<'_>,
    budget_prime: usize,
) -> Vec<f64> {
    let prev_phase = mw.set_phase(Phase::Priors);
    let n = ctx.universe();
    let m = ctx.num_queries();
    let base = mw.empty_workload_cost();

    // cost(W, {I}) starts at cost(W, ∅) and is refined per evaluated pair.
    let mut cost_w: Vec<f64> = vec![base; n];

    // Per query: its candidates sorted by table size descending (the
    // paper's IndexSelection), with a cursor over unevaluated ones.
    let schema = ctx.opt.schema();
    let mut queues: Vec<Vec<IndexId>> = (0..m)
        .map(|qi| {
            let ids = ctx.cands.for_query(QueryId::from(qi));
            ctx.cands.by_table_size(schema, ids)
        })
        .collect();
    let mut evaluated: HashSet<(usize, IndexId)> = HashSet::new();

    let mut spent = 0usize;
    let mut qi = 0usize;
    let mut idle_rounds = 0usize;
    while spent < budget_prime && idle_rounds < m {
        let q = qi % m;
        qi += 1;
        // IndexSelection: next unevaluated candidate of this query.
        let next = queues[q]
            .iter()
            .position(|id| !evaluated.contains(&(q, *id)));
        let Some(pos) = next else {
            idle_rounds += 1;
            continue;
        };
        idle_rounds = 0;
        let id = queues[q].remove(pos);
        evaluated.insert((q, id));
        let qid = QueryId::from(q);
        let single = IndexSet::singleton(n, id);
        let Some(c) = mw.what_if(qid, &single) else {
            break; // global budget exhausted
        };
        spent += 1;
        cost_w[id.index()] += c - mw.empty_cost(qid);
    }

    mw.set_phase(prev_phase);
    cost_w
        .into_iter()
        .map(|c| {
            if base <= 0.0 {
                0.0
            } else {
                (1.0 - c / base).clamp(0.0, 1.0)
            }
        })
        .collect()
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
    fn budget_prime_formula() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        let p = ctx.cands.num_query_index_pairs();
        assert_eq!(priors_budget(10, &ctx), (10 / 2).min(p));
        assert_eq!(priors_budget(1_000_000, &ctx), p);
    }

    #[test]
    fn priors_are_bounded_and_spend_at_most_bprime() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 100);
        let bp = 6;
        let priors = compute_priors(&ctx, &mut mw, bp);
        assert_eq!(priors.len(), ctx.universe());
        assert!(priors.iter().all(|p| (0.0..=1.0).contains(p)));
        assert!(mw.meter().used() <= bp);
    }

    #[test]
    fn zero_budget_gives_zero_priors() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 100);
        let priors = compute_priors(&ctx, &mut mw, 0);
        assert!(priors.iter().all(|&p| p == 0.0));
        assert_eq!(mw.meter().used(), 0);
    }

    #[test]
    fn full_pairs_budget_touches_every_query_round_robin() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let pairs = ctx.cands.num_query_index_pairs();
        let mut mw = MeteredWhatIf::new(&ctx, pairs * 2);
        let _ = compute_priors(&ctx, &mut mw, pairs);
        // Round-robin should have touched every query with candidates.
        let layout = crate::matrix::Layout::new(mw.into_trace());
        assert_eq!(layout.distinct_queries(), ctx.num_queries());
        // Every budgeted call was for a singleton.
        assert!(layout.calls_by_config_size().keys().all(|&s| s == 1));
    }

    #[test]
    fn useful_indexes_get_positive_priors() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 10_000);
        let priors = compute_priors(&ctx, &mut mw, 5_000);
        assert!(
            priors.iter().any(|&p| p > 0.01),
            "some TPC-H index must show singleton benefit"
        );
    }

    #[test]
    fn priors_stop_when_global_budget_smaller() {
        let (opt, cands) = setup(4);
        let ctx = TuningContext::new(&opt, &cands);
        let mut mw = MeteredWhatIf::new(&ctx, 3);
        let _ = compute_priors(&ctx, &mut mw, 100);
        assert_eq!(mw.meter().used(), 3);
    }
}
