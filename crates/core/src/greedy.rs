//! The classic greedy configuration-enumeration algorithm (Algorithm 1 of
//! the paper) and its budget-aware vanilla variant (§4.2.1).

use crate::budget::MeteredWhatIf;
use crate::derivation_state::DerivationState;
use crate::matrix::Layout;
use crate::parallel::{frozen_argmin, winner_values, FrozenEval, MIN_PARALLEL_WORK};
use crate::stop::{Interrupt, StopSignal};
use crate::tuner::{Constraints, Tuner, TuningContext, TuningRequest, TuningResult};
use ixtune_common::sync::effective_threads;
use ixtune_common::{IndexId, IndexSet, QueryId};

/// Algorithm 1: greedily grow the configuration from `pool`, committing the
/// extension with the lowest `cost_of` per step, stopping when no extension
/// improves or the constraints are saturated.
///
/// `cost_of` is the workload-level cost function; the caller decides how
/// it prices a configuration. Candidates are probed through a scratch set
/// (insert, evaluate, remove) rather than a fresh `config.with(id)` clone
/// per candidate per step.
///
/// The shipped tuners run `greedy_enumerate_metered` instead. This loop
/// serves the DTA baseline, whose full `cost_fcfs` pricing derives
/// exact-hit-first and can differ from the incremental derivation on
/// non-monotone costs, and it is the Algorithm 1 oracle in tests.
pub fn greedy_enumerate(
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    pool: &[IndexId],
    mut cost_of: impl FnMut(&IndexSet) -> f64,
) -> IndexSet {
    let universe = ctx.universe();
    let mut config = IndexSet::empty(universe);
    let mut cost_min = cost_of(&config);
    let mut remaining: Vec<IndexId> = pool.to_vec();

    while !remaining.is_empty() && config.len() < constraints.k {
        let filter = constraints.extension_filter(ctx, &config);
        let mut best: Option<(usize, f64)> = None;
        for (pos, &id) in remaining.iter().enumerate() {
            if !filter.admits(ctx, id) {
                continue;
            }
            let fresh = config.insert(id);
            let cost = cost_of(&config);
            if fresh {
                config.remove(id);
            }
            if best.is_none_or(|(_, b)| cost < b) {
                best = Some((pos, cost));
            }
        }
        match best {
            Some((pos, cost)) if cost < cost_min => {
                let id = remaining.swap_remove(pos);
                config.insert(id);
                cost_min = cost;
            }
            _ => break,
        }
    }
    config
}

/// The greedy driver every budget-aware enumerator runs: Algorithm 1
/// over a [`DerivationState`], with the candidate order, tie-breaking and
/// stopping rule of [`greedy_enumerate`]. `mode` prices each
/// `(q, C ∪ {x})` cell — FCFS (vanilla greedy, two-phase), the atomic
/// rule (AutoAdmin), or budget-free derivation (Best-Greedy extraction
/// and the two-phase salvage).
///
/// Candidates are probed by the exact serial loop while `mode` may still
/// spend budget. Once the meter is exhausted *at a candidate boundary* —
/// at step start or midway through a step — or from the first candidate
/// for a budget-free `mode`, the cache is frozen and the rest of the
/// step's scan runs through [`frozen_argmin`], which is bit-identical to
/// the serial scan by construction (values *and* hit/derivation
/// telemetry). The candidate whose probe exhausts the budget keeps its
/// serial FCFS semantics: the hand-off happens between candidates, never
/// inside one. The freeze is permanently valid because cache inserts only
/// happen through budgeted what-if calls, which an exhausted meter
/// refuses and a budget-free evaluator never makes.
///
/// The serial prefix and the kernel suffix are merged with strict `<`:
/// serial positions precede kernel positions in pool order, so the merge
/// keeps the first strict minimum — the serial argmin. The kernel runs
/// even at `threads == 1` (it scans one chunk inline, no threads spawned):
/// its query-major entry pass prices a whole candidate block per cached
/// entry, which beats one postings walk per `(candidate, query)` cell
/// before any parallelism. Tiny scans stay serial (`MIN_PARALLEL_WORK`).
///
/// `stop` is polled once per enumeration step, *before* the candidate
/// scan: an interrupted call therefore returns the configuration as of
/// the last committed step (best-so-far), never a half-scanned one. The
/// returned [`Interrupt`] (if any) tells the caller why the loop ended
/// early; polling never perturbs the enumeration itself, so an unarmed
/// signal leaves results bit-identical.
#[allow(clippy::too_many_arguments)] // one call site per tuner; a params struct would only rename the problem
pub(crate) fn greedy_enumerate_metered(
    ctx: &TuningContext<'_>,
    constraints: &Constraints,
    pool: &[IndexId],
    state: &mut DerivationState,
    mw: &mut MeteredWhatIf<'_>,
    mode: FrozenEval<'_>,
    threads: usize,
    stop: &StopSignal,
) -> (IndexSet, Option<Interrupt>) {
    let mut remaining: Vec<IndexId> = pool.to_vec();
    let mut admissible: Vec<(usize, IndexId)> = Vec::new();
    let mut winner_buf: Vec<f64> = Vec::new();
    // Baseline for the streamed improvement estimate. At entry the
    // configuration is (normally) empty, so this is the empty-workload
    // cost; the estimate is free — no oracle call, just the running total.
    let base_total = state.total();
    let mut interrupt = None;
    let obs = mw.obs().clone();

    while !remaining.is_empty() && state.config().len() < constraints.k {
        if let Some(i) = stop.poll(mw.meter().used()) {
            interrupt = Some(i);
            break;
        }
        let step_t0 = obs.span_start();
        let filter = constraints.extension_filter(ctx, state.config());
        let queries_n = state.queries().len();

        // Serial prefix: exact probing while `mode` may still spend
        // budget (possibly no candidate at all). `serial_best`'s
        // per-query values sit in the derivation state's staged buffer.
        let mut serial_best: Option<(usize, f64)> = None;
        let mut kernel_best: Option<(usize, IndexId, f64)> = None;
        let mut used_kernel = false;
        for (pos, &id) in remaining.iter().enumerate() {
            if (mw.meter().exhausted() || !mode.spends_budget())
                && (remaining.len() - pos) * queries_n >= MIN_PARALLEL_WORK
            {
                // Kernel suffix: freeze and batch-price remaining[pos..].
                mw.freeze_cache();
                admissible.clear();
                admissible.extend(
                    remaining
                        .iter()
                        .enumerate()
                        .skip(pos)
                        .filter(|&(_, &id)| filter.admits(ctx, id))
                        .map(|(p, &id)| (p, id)),
                );
                let (best, hits) = frozen_argmin(
                    mw.cache(),
                    state.queries(),
                    state.per_query(),
                    state.config(),
                    &admissible,
                    mode,
                    threads,
                    &obs,
                );
                mw.note_parallel_scan(hits);
                kernel_best = best;
                used_kernel = true;
                break;
            }
            if !filter.admits(ctx, id) {
                continue;
            }
            let cost = state.probe_with(id, &mut |q, c, x, cur| mode.price(mw, q, c, x, cur));
            if serial_best.is_none_or(|(_, b)| cost < b) {
                serial_best = Some((pos, cost));
                state.stage_probe();
            }
        }

        // Merge with strict `<`: every serial position precedes every
        // kernel position, so a tie keeps the serial winner — the same
        // first-strict-min the all-serial scan would pick.
        let kernel_wins = match (serial_best, kernel_best) {
            (Some((_, sc)), Some((_, _, kc))) => kc < sc,
            (None, Some(_)) => true,
            _ => false,
        };
        if kernel_wins {
            match kernel_best {
                Some((pos, id, cost)) if cost < state.total() => {
                    let total = winner_values(
                        mw.cache(),
                        state.queries(),
                        state.per_query(),
                        state.config(),
                        id,
                        mode,
                        &mut winner_buf,
                    );
                    debug_assert_eq!(total.to_bits(), cost.to_bits());
                    remaining.swap_remove(pos);
                    state.commit_values(id, &winner_buf, cost);
                    end_step_span(&obs, step_t0, state, id, used_kernel);
                    publish_step(stop, mw, state, base_total);
                }
                _ => break,
            }
        } else {
            match serial_best {
                Some((pos, cost)) if cost < state.total() => {
                    let id = remaining.swap_remove(pos);
                    state.commit_staged(id, cost);
                    end_step_span(&obs, step_t0, state, id, used_kernel);
                    publish_step(stop, mw, state, base_total);
                }
                _ => break,
            }
        }
    }
    (state.config().clone(), interrupt)
}

/// Close a committed greedy step's span (when tracing is on): step ordinal,
/// the index chosen, and whether the scan ran through the parallel kernel.
fn end_step_span(
    obs: &crate::obs::Obs,
    step_t0: Option<u64>,
    state: &DerivationState,
    chosen: IndexId,
    parallel: bool,
) {
    if let Some(t0) = step_t0 {
        obs.span_end(
            t0,
            "greedy-step",
            "greedy",
            vec![
                ("step".into(), state.config().len().to_string()),
                ("chosen".into(), chosen.index().to_string()),
                ("parallel".into(), parallel.to_string()),
            ],
        );
    }
}

/// Stream per-step progress to an armed [`StopSignal`]: current telemetry
/// plus a derived-cost improvement estimate relative to the enumeration's
/// starting total (no oracle call).
fn publish_step(
    stop: &StopSignal,
    mw: &MeteredWhatIf<'_>,
    state: &DerivationState,
    base_total: f64,
) {
    if stop.is_armed() {
        let est = if base_total > 0.0 {
            1.0 - state.total() / base_total
        } else {
            0.0
        };
        stop.publish(mw.telemetry(), est);
    }
}

/// Vanilla greedy with first-come-first-serve budget allocation
/// (Figure 5(b)): workload-level Algorithm 1 where every configuration
/// evaluation uses what-if calls until the budget runs out, then derived
/// costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct VanillaGreedy;

impl Tuner for VanillaGreedy {
    fn name(&self) -> String {
        "Vanilla Greedy".into()
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
        let threads = effective_threads(req.session_threads);
        let mut mw = MeteredWhatIf::new(ctx, req.budget);
        let universe = ctx.universe();
        let pool: Vec<IndexId> = (0..universe).map(IndexId::from).collect();
        let empty = IndexSet::empty(universe);
        let queries: Vec<QueryId> = (0..ctx.num_queries()).map(QueryId::from).collect();
        let init: Vec<f64> = queries.iter().map(|&q| mw.cost_fcfs(q, &empty)).collect();
        let mut state = DerivationState::for_queries(universe, queries, init);
        let (config, interrupt) = greedy_enumerate_metered(
            ctx,
            &req.constraints,
            &pool,
            &mut state,
            &mut mw,
            FrozenEval::Fcfs,
            threads,
            stop,
        );
        let used = mw.meter().used();
        let reason = mw.stop_reason(interrupt);
        let mut telemetry = mw.telemetry();
        telemetry.session_threads = threads;
        TuningResult::evaluate(self.name(), ctx, config, used, Layout::new(mw.into_trace()))
            .with_telemetry(telemetry)
            .with_stop_reason(reason)
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
    fn respects_budget_exactly() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        for budget in [0usize, 1, 5, 50] {
            let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(3, budget));
            assert!(r.calls_used <= budget, "used {} > {budget}", r.calls_used);
            assert_eq!(r.layout.len(), r.calls_used);
        }
    }

    #[test]
    fn respects_cardinality() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        for k in [1usize, 2, 4] {
            let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(k, 10_000));
            assert!(r.config.len() <= k);
        }
    }

    #[test]
    fn zero_budget_yields_empty_config() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(3, 0));
        // With no what-if information every derived cost equals the empty
        // cost, so nothing can look better than ∅.
        assert!(r.config.is_empty());
        assert_eq!(r.improvement, 0.0);
    }

    #[test]
    fn unlimited_budget_reaches_good_configs() {
        let (opt, cands) = setup(4);
        let ctx = TuningContext::new(&opt, &cands);
        let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(5, 1_000_000));
        // Greedy with full information should find something at least as
        // good as the best singleton.
        let n = ctx.universe();
        let best_singleton = (0..n)
            .map(|i| ctx.oracle_improvement(&IndexSet::singleton(n, IndexId::from(i))))
            .fold(0.0f64, f64::max);
        assert!(
            r.improvement >= best_singleton - 1e-9,
            "greedy {} < singleton {}",
            r.improvement,
            best_singleton
        );
    }

    #[test]
    fn layout_is_row_major() {
        let (opt, cands) = setup(5);
        let ctx = TuningContext::new(&opt, &cands);
        let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(3, 37));
        assert!(r.layout.is_row_major(), "FCFS vanilla greedy fills rows");
    }

    #[test]
    fn more_budget_never_hurts_much_on_tpch() {
        // Improvement should broadly increase with budget (the paper's
        // x-axis). Allow small non-monotonicities from derivation.
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(5, 50);
        let lo = VanillaGreedy.tune(&ctx, &req).improvement;
        let hi = VanillaGreedy
            .tune(&ctx, &req.with_budget(5_000))
            .improvement;
        assert!(hi >= lo - 0.05, "lo={lo} hi={hi}");
        assert!(hi > 0.0, "full-budget greedy should improve TPC-H");
    }

    #[test]
    fn storage_constraint_limits_selection() {
        let (opt, cands) = setup(6);
        let ctx = TuningContext::new(&opt, &cands);
        let r_unlimited = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(5, 10_000));
        let r_tight =
            VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(5, 10_000).with_storage(1));
        assert!(r_tight.config.is_empty());
        assert!(r_tight.improvement <= r_unlimited.improvement + 1e-12);
    }
}
