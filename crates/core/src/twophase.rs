//! Two-phase greedy search (Algorithm 2 of the paper, from AutoAdmin).
//!
//! Phase 1 tunes every query as a singleton workload over its own candidate
//! indexes; phase 2 re-runs greedy for the whole workload over the union of
//! the per-query winners. With FCFS budget allocation this fills the budget
//! allocation matrix column-major first (Figure 5(c)).

use crate::budget::MeteredWhatIf;
use crate::derivation_state::DerivationState;
use crate::greedy::greedy_enumerate_metered;
use crate::matrix::Layout;
use crate::parallel::FrozenEval;
use crate::stop::{Interrupt, StopSignal};
use crate::tuner::{Constraints, Tuner, TuningContext, TuningRequest, TuningResult};
use ixtune_common::sync::effective_threads;
use ixtune_common::{IndexId, IndexSet, QueryId};

/// Two-phase greedy with FCFS budget allocation.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoPhaseGreedy;

/// Algorithm 2 with every cell priced by `mode`: FCFS for two-phase, the
/// atomic rule for AutoAdmin. `name` labels the result and `category` the
/// phase spans.
pub(crate) fn two_phase(
    name: String,
    category: &'static str,
    ctx: &TuningContext<'_>,
    req: &TuningRequest,
    mode: FrozenEval<'_>,
    stop: &StopSignal,
) -> TuningResult {
    let constraints = &req.constraints;
    let threads = effective_threads(req.session_threads);
    let mut mw = MeteredWhatIf::new(ctx, req.budget);
    let obs = ctx.obs().clone();

    // Phase 1: each query as its own workload.
    let p1_t0 = obs.span_start();
    let (union, mut interrupt) = phase1(ctx, constraints, &mut mw, mode, threads, stop);
    if let Some(t0) = p1_t0 {
        obs.span_end(
            t0,
            "phase1",
            category,
            vec![("union".into(), union.len().to_string())],
        );
    }

    let config = if interrupt.is_some() {
        // Interrupted mid-phase-1: salvage from the partial union
        // without spending more budget.
        let t0 = obs.span_start();
        let config = salvage(ctx, constraints, &union, &mut mw, threads);
        if let Some(t0) = t0 {
            obs.span_end(t0, "salvage", category, vec![]);
        }
        config
    } else {
        // Phase 2: workload-level greedy over the refined candidate set.
        let t0 = obs.span_start();
        let universe = ctx.universe();
        let empty = IndexSet::empty(universe);
        let queries: Vec<QueryId> = (0..ctx.num_queries()).map(QueryId::from).collect();
        let init: Vec<f64> = queries.iter().map(|&q| mw.cost_fcfs(q, &empty)).collect();
        let mut state = DerivationState::for_queries(universe, queries, init);
        let (config, i2) = greedy_enumerate_metered(
            ctx,
            constraints,
            &union,
            &mut state,
            &mut mw,
            mode,
            threads,
            stop,
        );
        if let Some(t0) = t0 {
            obs.span_end(t0, "phase2", category, vec![]);
        }
        interrupt = i2;
        config
    };
    let used = mw.meter().used();
    let reason = mw.stop_reason(interrupt);
    let mut telemetry = mw.telemetry();
    telemetry.session_threads = threads;
    TuningResult::evaluate(name, ctx, config, used, Layout::new(mw.into_trace()))
        .with_telemetry(telemetry)
        .with_stop_reason(reason)
}

/// Phase 1: per-query tuning; returns the union of per-query winners. The
/// per-query scans are tiny, so they stay below the parallel-work
/// threshold in practice; `threads` is passed through for uniformity. An
/// interrupt mid-phase-1 returns the partial union built so far — the
/// caller salvages a configuration from it without further what-if calls.
fn phase1(
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    mw: &mut MeteredWhatIf<'_>,
    mode: FrozenEval<'_>,
    threads: usize,
    stop: &StopSignal,
) -> (Vec<IndexId>, Option<Interrupt>) {
    let universe = ctx.universe();
    let empty = IndexSet::empty(universe);
    let mut union: Vec<IndexId> = Vec::new();
    for qi in 0..ctx.num_queries() {
        let q = QueryId::from(qi);
        let pool = ctx.cands.for_query(q);
        let init = vec![mw.cost_fcfs(q, &empty)];
        let mut state = DerivationState::for_queries(universe, vec![q], init);
        let (best, interrupt) =
            greedy_enumerate_metered(ctx, constraints, pool, &mut state, mw, mode, threads, stop);
        for id in best.iter() {
            if !union.contains(&id) {
                union.push(id);
            }
        }
        if interrupt.is_some() {
            return (union, interrupt);
        }
    }
    (union, None)
}

/// Budget-free salvage used when phase 1 was interrupted: workload-level
/// greedy over the (partial) union priced purely by cost derivation — no
/// further what-if calls, so the budget meter and the layout stay exactly
/// as interrupted. The stop signal has already fired, so it is not polled.
fn salvage(
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    union: &[IndexId],
    mw: &mut MeteredWhatIf<'_>,
    threads: usize,
) -> IndexSet {
    let mut state = DerivationState::workload(mw.cache());
    let (config, _) = greedy_enumerate_metered(
        ctx,
        constraints,
        union,
        &mut state,
        mw,
        FrozenEval::Derive,
        threads,
        &StopSignal::never(),
    );
    config
}

impl Tuner for TwoPhaseGreedy {
    fn name(&self) -> String {
        "Two-phase Greedy".into()
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
        two_phase(self.name(), "twophase", ctx, req, FrozenEval::Fcfs, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::VanillaGreedy;
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
    fn respects_budget_and_cardinality() {
        let (opt, cands) = setup(11);
        let ctx = TuningContext::new(&opt, &cands);
        for (budget, k) in [(0usize, 2usize), (7, 1), (100, 3)] {
            let r = TwoPhaseGreedy.tune(&ctx, &TuningRequest::cardinality(k, budget));
            assert!(r.calls_used <= budget);
            assert!(r.config.len() <= k);
        }
    }

    #[test]
    fn phase1_cancel_salvages_algorithm1_over_derived_costs() {
        use crate::autoadmin::{AutoAdminGreedy, MAX_JOIN_PAIRS};
        use crate::greedy::greedy_enumerate;
        use crate::stop::StopReason;
        use ixtune_candidates::atomic::single_join_pairs;
        use std::collections::HashSet;

        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let autoadmin = AutoAdminGreedy;
        let pairs: HashSet<IndexSet> =
            single_join_pairs(ctx.opt.workload(), ctx.cands, MAX_JOIN_PAIRS)
                .into_iter()
                .collect();
        let tuners: [(&dyn Tuner, FrozenEval<'_>); 2] = [
            (&TwoPhaseGreedy, FrozenEval::Fcfs),
            (&autoadmin, FrozenEval::Atomic(&pairs)),
        ];
        for (tuner, mode) in tuners {
            for threads in [1, 4] {
                let req = TuningRequest::cardinality(5, 300).with_session_threads(threads);
                let stop = || StopSignal::never().cancel_after_calls(100);
                // Replay phase 1 to recover the partial union and the
                // cache the salvage prices against.
                let mut mw = MeteredWhatIf::new(&ctx, req.budget);
                let (union, interrupt) =
                    phase1(&ctx, &req.constraints, &mut mw, mode, threads, &stop());
                assert_eq!(interrupt, Some(Interrupt::Cancelled));
                let oracle = greedy_enumerate(&ctx, &req.constraints, &union, |c| {
                    mw.cache().derived_workload(c)
                });
                assert!(!oracle.is_empty(), "{}: nothing to salvage", tuner.name());

                let r = tuner.tune_with_stop(&ctx, &req, &stop());
                assert_eq!(r.stop_reason, Some(StopReason::Cancelled));
                assert_eq!(r.config, oracle, "{} at {threads} threads", tuner.name());
                assert!(
                    r.telemetry.parallel_scans > 0,
                    "salvage scans run through the kernel"
                );
            }
        }
    }

    #[test]
    fn early_budget_goes_to_early_queries() {
        // With a small budget, phase 1 touches the first queries only —
        // the column-major pattern of Figure 5(c).
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = TwoPhaseGreedy.tune(&ctx, &TuningRequest::cardinality(5, 20));
        let queries_touched = r.layout.distinct_queries();
        assert!(
            queries_touched <= 5,
            "small budget should reach few queries, got {queries_touched}"
        );
    }

    #[test]
    fn beats_or_matches_vanilla_at_small_budget_on_tpch() {
        // The motivating observation of §4.2.2: per-query tuning spreads
        // information better than row-major FCFS at tight budgets.
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(10, 100);
        let two = TwoPhaseGreedy.tune(&ctx, &req).improvement;
        let one = VanillaGreedy.tune(&ctx, &req).improvement;
        assert!(
            two >= one - 0.02,
            "two-phase {two} should not lose badly to vanilla {one} at B=100"
        );
    }

    #[test]
    fn unlimited_budget_finds_improvement() {
        let (opt, cands) = setup(13);
        let ctx = TuningContext::new(&opt, &cands);
        let r = TwoPhaseGreedy.tune(&ctx, &TuningRequest::cardinality(5, 1_000_000));
        assert!(r.improvement >= 0.0);
        // Phase-2 pool is a union of per-query winners: all members of the
        // final config must be candidates of at least one query.
        for id in r.config.iter() {
            let attributed =
                (0..ctx.num_queries()).any(|q| ctx.cands.for_query(QueryId::from(q)).contains(&id));
            assert!(attributed);
        }
    }
}
