//! Budget metering and the tuner-side what-if client.
//!
//! [`BudgetMeter`] counts what-if calls against the budget `B`.
//! [`MeteredWhatIf`] combines the session's optimizer, the cache, and the
//! meter into the interface every budget-aware enumeration algorithm
//! consumes: cache hits are free (§1: "a cache is typically used to enable
//! efficient reuse of what-if calls"), cache misses consume budget, and
//! once the budget is exhausted only derived costs remain. The sequence of
//! metered calls is recorded as the session's
//! [`Layout`](crate::matrix::Layout).
//!
//! [`MeteredWhatIf::what_if`] is the single place a budgeted optimizer
//! invocation happens, and therefore the single counting and
//! latency-observation point: when the session's [`Obs`] is enabled, each
//! call the warm snapshot did not answer is timed into the latency
//! histograms. With observability disabled nothing here reads a clock.

use crate::derived::WhatIfCache;
use crate::obs::Obs;
use crate::stop::{Interrupt, StopReason};
use crate::tuner::{SessionFaults, TuningContext};
use crate::warm::WarmState;
use ixtune_common::fault::{site, FaultCursor};
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_optimizer::{SimulatedOptimizer, WhatIfOptimizer};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Synthetic latency added to an observed what-if call when the
/// `whatif.latency` fault site fires. Affects latency histograms only —
/// never costs, budgets, or results.
pub const LATENCY_SPIKE_S: f64 = 0.25;

/// Which part of a tuning session a budgeted what-if call is attributed to.
/// MCTS sets this around its phases (Algorithm 3/4); other tuners leave it
/// at [`Phase::Other`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Phase {
    /// Singleton-prior bootstrap (Algorithm 4).
    Priors,
    /// Episode evaluation of a configuration reached by tree selection.
    Selection,
    /// Episode evaluation of a configuration completed by a rollout.
    Rollout,
    /// Anything else (greedy enumeration, baselines, extraction).
    #[default]
    Other,
}

/// Per-session instrumentation: how the what-if client answered cost
/// questions, and where the budget went. Collected by [`MeteredWhatIf`]
/// and surfaced on [`TuningResult`](crate::tuner::TuningResult); the
/// experiment runner adds the wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionTelemetry {
    /// Budget-consuming optimizer invocations.
    pub what_if_calls: usize,
    /// What-if requests answered from the cache (free).
    pub cache_hits: usize,
    /// Cost evaluations answered by Eq. 1 derivation instead of a stored
    /// what-if result: FCFS fallbacks after budget exhaustion, AutoAdmin's
    /// non-atomic cells, and every cell Best-Greedy extraction or the
    /// two-phase salvage scans. A greedy step counts one per cell it
    /// derives and none when it commits its winner.
    pub derivations: usize,
    /// Budgeted calls spent in the priors phase ([`Phase::Priors`]).
    pub priors_calls: usize,
    /// Budgeted calls spent evaluating selection-terminal configurations.
    pub selection_calls: usize,
    /// Budgeted calls spent evaluating rollout-completed configurations.
    pub rollout_calls: usize,
    /// Budgeted calls outside any labelled phase.
    pub other_calls: usize,
    /// Logical session thread count the tuner resolved for this run
    /// (1 = serial). Results are invariant to it; recorded so telemetry
    /// JSON shows how a session was executed.
    pub session_threads: usize,
    /// Greedy-step candidate scans handed to the frozen-cache kernel, at
    /// any thread count (the kernel scans inline at one thread): steps
    /// after budget exhaustion, and every Best-Greedy extraction and
    /// two-phase salvage step large enough for the kernel
    /// (`MIN_PARALLEL_WORK`). An execution descriptor like
    /// `session_threads`, not part of result identity.
    pub parallel_scans: usize,
    /// Wall-clock of the tuning session in milliseconds (stamped by the
    /// experiment runner from a monotonic clock; 0 when run outside the
    /// runner).
    pub wall_clock_ms: f64,
    /// Budgeted calls answered from the daemon's warm cost store (still
    /// counted in `what_if_calls`; the simulated-optimizer invocation was
    /// skipped because a prior session already paid for it). Execution
    /// provenance, like `wall_clock_ms` — not part of result identity.
    pub warm_hits: usize,
    /// Warm store entries this session was seeded with at admission.
    pub warm_seeded: usize,
}

impl SessionTelemetry {
    /// Add another session's counters into this one — how the experiment
    /// runner sums a grid cell's seeds. Counters and wall clock add;
    /// `session_threads` keeps the maximum (every seed of a cell resolves
    /// the same request).
    pub fn accumulate(&mut self, t: &SessionTelemetry) {
        self.what_if_calls += t.what_if_calls;
        self.cache_hits += t.cache_hits;
        self.derivations += t.derivations;
        self.priors_calls += t.priors_calls;
        self.selection_calls += t.selection_calls;
        self.rollout_calls += t.rollout_calls;
        self.other_calls += t.other_calls;
        self.session_threads = self.session_threads.max(t.session_threads);
        self.parallel_scans += t.parallel_scans;
        self.wall_clock_ms += t.wall_clock_ms;
        self.warm_hits += t.warm_hits;
        self.warm_seeded += t.warm_seeded;
    }
}

/// Exact what-if call accounting. A checkpoint does not store it: a
/// resumed session's meter is rebuilt as the request's budget with one
/// call used per entry of the call trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetMeter {
    budget: usize,
    used: usize,
}

impl BudgetMeter {
    pub fn new(budget: usize) -> Self {
        Self { budget, used: 0 }
    }

    /// Consume one call if any budget remains.
    #[inline]
    pub fn try_consume(&mut self) -> bool {
        if self.used < self.budget {
            self.used += 1;
            true
        } else {
            false
        }
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    pub fn used(&self) -> usize {
        self.used
    }

    pub fn remaining(&self) -> usize {
        self.budget - self.used
    }

    pub fn exhausted(&self) -> bool {
        self.used >= self.budget
    }

    /// Forfeit the remaining budget: shrink `budget` down to `used`, so
    /// the meter reads exhausted while `used` keeps reporting the calls
    /// actually made. The what-if error degradation ladder calls this —
    /// once the optimizer is failing, the rest of `B` is worthless and every
    /// subsequent cost comes from derivation.
    pub fn exhaust(&mut self) {
        self.budget = self.used;
    }
}

/// The tuner-side what-if client: optimizer + cache + meter + call
/// trace, instrumented with per-session [`SessionTelemetry`].
pub struct MeteredWhatIf<'a> {
    opt: &'a SimulatedOptimizer,
    cache: WhatIfCache,
    meter: BudgetMeter,
    /// Chronological record of budget-consuming calls — the layout of the
    /// budget allocation matrix (§3.2).
    trace: Vec<(QueryId, IndexSet)>,
    /// Attribution for subsequent budgeted calls.
    phase: Phase,
    /// Calls issued vs served from cache, and the per-phase budget split.
    /// Derivation counts live in the cache (they happen behind `&self`);
    /// [`telemetry`](Self::telemetry) reads them from there.
    counters: SessionTelemetry,
    /// The session's observability handle (a clone of the context's).
    obs: Obs,
    /// Warm overlay: snapshot consulted before the optimizer, ledger fed
    /// with the optimizer's answers. `None` outside the service.
    warm: Option<Arc<WarmState>>,
    /// The session's fault state (a clone of the context's).
    faults: SessionFaults,
    /// This client's private `whatif.error` cursor: call indices follow the
    /// client's own miss stream, so injection is deterministic under any
    /// thread interleaving. Inert (one branch) without a fault plan.
    fault_cursor: FaultCursor,
}

/// Price `(q, config)`: the warm snapshot's answer when it has one
/// (`true` in the second component), else the optimizer's, which the
/// warm ledger records for write-back.
fn price(
    opt: &SimulatedOptimizer,
    warm: Option<&WarmState>,
    q: QueryId,
    config: &IndexSet,
) -> (f64, bool) {
    let Some(warm) = warm else {
        return (opt.what_if_cost(q, config), false);
    };
    if let Some(cost) = warm.lookup(q, config) {
        return (cost, true);
    }
    let cost = opt.what_if_cost(q, config);
    warm.record(q, config.clone(), cost);
    (cost, false)
}

impl<'a> MeteredWhatIf<'a> {
    /// Create a client with budget `budget` over the context's optimizer,
    /// observability, warm overlay and fault state. Computes `c(q, ∅)` for
    /// every query up front; these baseline calls are not charged, timed
    /// or counted (every algorithm and the evaluation metric need them —
    /// see DESIGN.md §5), but they do read and feed the warm overlay.
    pub fn new(ctx: &TuningContext<'a>, budget: usize) -> Self {
        let warm = ctx.warm();
        let empty = IndexSet::empty(ctx.universe());
        let empty_costs = (0..ctx.num_queries())
            .map(|i| price(ctx.opt, warm.map(Arc::as_ref), QueryId::from(i), &empty).0)
            .collect();
        let counters = SessionTelemetry {
            warm_seeded: warm.map_or(0, |w| w.seeded()),
            ..SessionTelemetry::default()
        };
        let cache = WhatIfCache::new(ctx.universe(), empty_costs);
        Self::from_parts(ctx, cache, BudgetMeter::new(budget), Vec::new(), counters)
    }

    /// Rebuild a suspended session's client from its call trace — the
    /// resume entry point. The cache is replayed through the optimizer
    /// (see [`WhatIfCache::replay`]): ∅ and then every cell in call order,
    /// none of it budgeted, timed, warm-served, ledgered or fault-injected.
    /// The meter reads `budget` with one call used per cell, and
    /// `counters` (the checkpoint's telemetry, derivations included)
    /// continue where the suspended segment stopped. Errs for a trace
    /// longer than `budget` or one [`WhatIfCache::replay`] rejects.
    pub(crate) fn resume(
        ctx: &TuningContext<'a>,
        budget: usize,
        trace: Vec<(QueryId, IndexSet)>,
        counters: SessionTelemetry,
    ) -> Result<Self, String> {
        if trace.len() > budget {
            return Err(format!(
                "checkpoint trace holds {} calls, over the budget of {budget}",
                trace.len()
            ));
        }
        let cache = WhatIfCache::replay(
            ctx.universe(),
            ctx.num_queries(),
            &trace,
            counters.derivations,
            |q, config| ctx.opt.what_if_cost(q, config),
        )?;
        let meter = BudgetMeter {
            budget,
            used: trace.len(),
        };
        Ok(Self::from_parts(ctx, cache, meter, trace, counters))
    }

    /// Assemble a client. The phase starts at [`Phase::Other`]; MCTS
    /// re-sets it per episode, so a resumed call stream is attributed
    /// identically.
    fn from_parts(
        ctx: &TuningContext<'a>,
        cache: WhatIfCache,
        meter: BudgetMeter,
        trace: Vec<(QueryId, IndexSet)>,
        counters: SessionTelemetry,
    ) -> Self {
        let faults = ctx.faults().clone();
        let fault_cursor = faults.plan().cursor(site::WHATIF_ERROR);
        Self {
            opt: ctx.opt,
            cache,
            meter,
            trace,
            phase: Phase::Other,
            counters,
            obs: ctx.obs().clone(),
            warm: ctx.warm().cloned(),
            faults,
            fault_cursor,
        }
    }

    /// Attribute subsequent budgeted calls to `phase`. Returns the
    /// previous phase so callers can restore it.
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// Snapshot of the session's telemetry so far (derivation counts come
    /// from the cache).
    pub fn telemetry(&self) -> SessionTelemetry {
        SessionTelemetry {
            derivations: self.cache.derivations(),
            ..self.counters
        }
    }

    pub fn universe(&self) -> usize {
        self.cache.universe()
    }

    pub fn num_queries(&self) -> usize {
        self.cache.num_queries()
    }

    pub fn meter(&self) -> &BudgetMeter {
        &self.meter
    }

    pub fn cache(&self) -> &WhatIfCache {
        &self.cache
    }

    pub fn trace(&self) -> &[(QueryId, IndexSet)] {
        &self.trace
    }

    /// Take the trace out of the client (for result reporting).
    pub fn into_trace(self) -> Vec<(QueryId, IndexSet)> {
        self.trace
    }

    /// Flip the cache into its frozen read-only phase (see the publish
    /// protocol in [`WhatIfCache`]). Called by enumeration drivers before
    /// sharing the cache across scan threads.
    pub fn freeze_cache(&self) {
        self.cache.freeze();
    }

    /// Account one frozen-cache parallel scan: `hits` cache hits observed
    /// by the kernel (its derivation counts flow through the cache's
    /// counter directly).
    pub(crate) fn note_parallel_scan(&mut self, hits: usize) {
        self.counters.cache_hits += hits;
        self.counters.parallel_scans += 1;
    }

    /// Attempt a what-if call for `(q, config)`.
    ///
    /// * Cache hit → `Some(cost)`, no budget consumed.
    /// * Miss with budget → performs the optimizer call, caches it, records
    ///   it in the layout trace, returns `Some(cost)`.
    /// * Miss without budget → `None`.
    pub fn what_if(&mut self, q: QueryId, config: &IndexSet) -> Option<f64> {
        if let Some(c) = self.cache.get(q, config) {
            self.counters.cache_hits += 1;
            return Some(c);
        }
        // Injected what-if failure: forfeit the remaining budget and fall
        // back to derivation-only search. The enumerators already handle
        // `None` (budget exhaustion) by salvaging best-so-far through the
        // FCFS derivation path, so degradation reuses that machinery.
        if self.fault_cursor.fire() {
            self.faults.mark_degraded();
            self.meter.exhaust();
            return None;
        }
        if !self.meter.try_consume() {
            return None;
        }
        let t0 = self.obs.is_enabled().then(Instant::now);
        let (cost, warm) = price(self.opt, self.warm.as_deref(), q, config);
        self.counters.what_if_calls += 1;
        if warm {
            // Served from the warm snapshot: budgeted like any call, but
            // there was no optimizer invocation to time.
            self.counters.warm_hits += 1;
        } else if let Some(t0) = t0 {
            let mut elapsed_s = t0.elapsed().as_secs_f64();
            // An injected latency spike lands in the histograms only;
            // costs, budget accounting, and results never see it.
            if self.faults.plan().fire(site::WHATIF_LATENCY) {
                elapsed_s += LATENCY_SPIKE_S;
            }
            self.obs
                .observe_whatif_latency(elapsed_s, self.opt.call_latency_s(q));
        }
        match self.phase {
            Phase::Priors => self.counters.priors_calls += 1,
            Phase::Selection => self.counters.selection_calls += 1,
            Phase::Rollout => self.counters.rollout_calls += 1,
            Phase::Other => self.counters.other_calls += 1,
        }
        // The `get` above already established the miss, so skip `put`'s
        // duplicate probe.
        self.cache.put_new(q, config, cost);
        self.trace.push((q, config.clone()));
        Some(cost)
    }

    /// The observability handle this client times calls into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Whether this session degraded to derivation-only search after an
    /// injected (or real) what-if failure.
    pub fn degraded(&self) -> bool {
        self.faults.is_degraded()
    }

    /// The stop reason for a finished session: the usual
    /// [`StopReason::from_interrupt`] mapping, except that an uninterrupted
    /// run that degraded reports [`StopReason::Degraded`] instead of
    /// `BudgetExhausted`/`Completed` — callers can tell a salvaged result
    /// from a naturally terminated one.
    pub fn stop_reason(&self, interrupt: Option<Interrupt>) -> StopReason {
        if interrupt.is_none() && self.faults.is_degraded() {
            return StopReason::Degraded;
        }
        StopReason::from_interrupt(interrupt, self.meter.exhausted())
    }

    /// `cost(q, C)` under FCFS budget allocation: the what-if cost while
    /// budget lasts, the derived cost afterwards (§4.2.1).
    pub fn cost_fcfs(&mut self, q: QueryId, config: &IndexSet) -> f64 {
        match self.what_if(q, config) {
            Some(c) => c,
            None => self.cache.derived(q, config),
        }
    }

    /// FCFS cost of an *extension* `C ∪ {extra}` given `cur = cost(q, C)`:
    /// the what-if cost while budget lasts, the postings-guided incremental
    /// derivation afterwards. Same value (and same telemetry) as
    /// [`cost_fcfs`](Self::cost_fcfs) on `C ∪ {extra}`, without the full
    /// subset rescan. `config` must already include `extra`.
    pub fn cost_fcfs_extend(
        &mut self,
        q: QueryId,
        config: &IndexSet,
        extra: IndexId,
        cur: f64,
    ) -> f64 {
        debug_assert!(config.contains(extra));
        match self.what_if(q, config) {
            Some(c) => c,
            None => self.cache.derived_with_extra(q, config, extra, cur),
        }
    }

    /// Derived cost `d(q, C)` (never consumes budget).
    pub fn derived(&self, q: QueryId, config: &IndexSet) -> f64 {
        self.cache.derived(q, config)
    }

    /// Workload-level derived cost `d(W, C)`.
    pub fn derived_workload(&self, config: &IndexSet) -> f64 {
        self.cache.derived_workload(config)
    }

    pub fn empty_cost(&self, q: QueryId) -> f64 {
        self.cache.empty_cost(q)
    }

    pub fn empty_workload_cost(&self) -> f64 {
        self.cache.empty_workload_cost()
    }

    /// Percentage improvement `η(W, C)` (Eq. 4) of `config` under derived
    /// costs, as a fraction in `[0, 1]`.
    pub fn improvement(&self, config: &IndexSet) -> f64 {
        let base = self.empty_workload_cost();
        if base <= 0.0 {
            return 0.0;
        }
        (1.0 - self.derived_workload(config) / base).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_common::IndexId;
    use ixtune_optimizer::CostModel;
    use ixtune_workload::gen::synth;

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn meter_counts_exactly() {
        let mut m = BudgetMeter::new(2);
        assert!(m.try_consume());
        assert!(m.try_consume());
        assert!(!m.try_consume());
        assert_eq!(m.used(), 2);
        assert_eq!(m.remaining(), 0);
        assert!(m.exhausted());
    }

    #[test]
    fn cache_hits_are_free() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let n = opt.num_candidates();
        let mut mw = MeteredWhatIf::new(&ctx, 5);
        let cfg = IndexSet::singleton(n, IndexId::new(0));
        let q = QueryId::new(0);
        let a = mw.what_if(q, &cfg).unwrap();
        assert_eq!(mw.meter().used(), 1);
        let b = mw.what_if(q, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(mw.meter().used(), 1, "second call hits cache");
        assert_eq!(mw.trace().len(), 1);
    }

    #[test]
    fn empty_costs_not_charged() {
        let (opt, cands) = setup(4);
        let ctx = TuningContext::new(&opt, &cands);
        let mw = MeteredWhatIf::new(&ctx, 3);
        assert_eq!(mw.meter().used(), 0);
        assert!(mw.empty_workload_cost() > 0.0);
    }

    #[test]
    fn exhaustion_falls_back_to_derived() {
        let (opt, cands) = setup(5);
        let ctx = TuningContext::new(&opt, &cands);
        let n = opt.num_candidates();
        assert!(n >= 3, "need candidates");
        let mut mw = MeteredWhatIf::new(&ctx, 1);
        let q = QueryId::new(0);
        let c0 = IndexSet::singleton(n, IndexId::new(0));
        let c1 = IndexSet::singleton(n, IndexId::new(1));
        assert!(mw.what_if(q, &c0).is_some());
        assert!(mw.what_if(q, &c1).is_none(), "budget spent");
        // FCFS falls back to derivation (here: the empty-config cost).
        let d = mw.cost_fcfs(q, &c1);
        assert_eq!(d, mw.empty_cost(q));
        assert_eq!(mw.meter().used(), 1);
    }

    #[test]
    fn derived_equals_whatif_when_known() {
        let (opt, cands) = setup(6);
        let ctx = TuningContext::new(&opt, &cands);
        let n = opt.num_candidates();
        let mut mw = MeteredWhatIf::new(&ctx, 10);
        let q = QueryId::new(0);
        let cfg = IndexSet::from_ids(n, [IndexId::new(0), IndexId::new(1)]);
        let c = mw.what_if(q, &cfg).unwrap();
        assert_eq!(mw.derived(q, &cfg), c);
    }

    #[test]
    fn telemetry_counts_calls_hits_and_derivations() {
        let (opt, cands) = setup(8);
        let ctx = TuningContext::new(&opt, &cands);
        let n = opt.num_candidates();
        assert!(n >= 2, "need candidates");
        let mut mw = MeteredWhatIf::new(&ctx, 2);
        let q = QueryId::new(0);
        let c0 = IndexSet::singleton(n, IndexId::new(0));
        let c1 = IndexSet::singleton(n, IndexId::new(1));

        // Scripted sequence: miss (budgeted), hit, miss (budgeted), hit,
        // then exhaustion → FCFS derivation fallback.
        assert!(mw.what_if(q, &c0).is_some());
        assert!(mw.what_if(q, &c0).is_some());
        assert!(mw.what_if(q, &c1).is_some());
        assert!(mw.what_if(q, &c1).is_some());
        let pair = IndexSet::from_ids(n, [IndexId::new(0), IndexId::new(1)]);
        let _ = mw.cost_fcfs(q, &pair);

        let t = mw.telemetry();
        assert_eq!(t.what_if_calls, 2);
        assert_eq!(t.cache_hits, 2);
        assert_eq!(t.derivations, 1, "exhausted FCFS derives");
        assert_eq!(t.other_calls, 2, "no phase set → Other");
        assert_eq!(t.priors_calls + t.selection_calls + t.rollout_calls, 0);
        assert_eq!(t.wall_clock_ms, 0.0, "runner stamps wall clock");
    }

    #[test]
    fn telemetry_attributes_calls_to_the_active_phase() {
        let (opt, cands) = setup(9);
        let ctx = TuningContext::new(&opt, &cands);
        let n = opt.num_candidates();
        assert!(n >= 4, "need candidates");
        let mut mw = MeteredWhatIf::new(&ctx, 10);
        let q = QueryId::new(0);
        let cfg = |i: u32| IndexSet::singleton(n, IndexId::new(i));

        let prev = mw.set_phase(Phase::Priors);
        assert_eq!(prev, Phase::Other);
        mw.what_if(q, &cfg(0));
        mw.set_phase(Phase::Selection);
        mw.what_if(q, &cfg(1));
        mw.what_if(q, &cfg(2));
        mw.set_phase(Phase::Rollout);
        mw.what_if(q, &cfg(3));
        mw.what_if(q, &cfg(3)); // cache hit: not attributed to any phase
        mw.set_phase(Phase::Other);

        let t = mw.telemetry();
        assert_eq!(t.priors_calls, 1);
        assert_eq!(t.selection_calls, 2);
        assert_eq!(t.rollout_calls, 1);
        assert_eq!(t.other_calls, 0);
        assert_eq!(t.what_if_calls, 4);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(
            t.priors_calls + t.selection_calls + t.rollout_calls + t.other_calls,
            t.what_if_calls,
            "phase split partitions the budgeted calls"
        );
    }

    #[test]
    fn observed_misses_are_timed_and_warm_answers_are_not() {
        use crate::warm::WarmStore;
        use ixtune_obs::MetricsRegistry;

        let (opt, cands) = setup(3);
        let (m, n) = (opt.num_queries(), opt.num_candidates());
        assert!(n >= 2, "need candidates");
        let q = QueryId::new(0);
        let c0 = IndexSet::singleton(n, IndexId::new(0));
        let c1 = IndexSet::singleton(n, IndexId::new(1));
        // A warm snapshot that knows (q, {1}) and nothing else.
        let store = WarmStore::new(1 << 20);
        store.absorb(
            "w",
            0,
            m,
            n,
            vec![(q, c1.clone(), opt.what_if_cost(q, &c1))],
        );
        let warm = Arc::new(WarmState::new(store.checkout("w", 0, m, n)));
        let registry = Arc::new(MetricsRegistry::new());
        let ctx = TuningContext::new(&opt, &cands)
            .with_obs(Obs::enabled(Arc::clone(&registry), None, 0))
            .with_warm(Arc::clone(&warm));
        let samples = || {
            let text = registry.render();
            [
                "ixtune_whatif_latency_seconds",
                "ixtune_whatif_sim_latency_seconds",
            ]
            .map(|h| {
                text.lines()
                    .find_map(|l| l.strip_prefix(&format!("{h}_count ")))
                    .map_or(0, |v| v.parse::<u64>().unwrap())
            })
        };

        let mut mw = MeteredWhatIf::new(&ctx, 10);
        assert_eq!(samples(), [0, 0], "the ∅ baseline is not timed");
        assert_eq!(warm.ledger_len(), m, "the ∅ baseline is ledgered");
        assert!(mw.what_if(q, &c0).is_some());
        assert_eq!(samples(), [1, 1], "one budgeted miss, one sample each");
        assert!(mw.what_if(q, &c0).is_some());
        assert!(mw.what_if(q, &c1).is_some());
        assert_eq!(samples(), [1, 1], "cache hit and warm answer are not timed");
        assert_eq!(
            warm.ledger_len(),
            m + 1,
            "only the optimizer's answer is ledgered"
        );

        let t = mw.telemetry();
        assert_eq!(t.what_if_calls, 2);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.warm_hits, 1);
        assert_eq!(t.warm_seeded, 1);
        assert_eq!(mw.meter().used(), 2);
    }

    #[test]
    fn improvement_is_zero_for_empty_and_nonnegative() {
        let (opt, cands) = setup(7);
        let ctx = TuningContext::new(&opt, &cands);
        let n = opt.num_candidates();
        let mut mw = MeteredWhatIf::new(&ctx, 20);
        assert_eq!(mw.improvement(&IndexSet::empty(n)), 0.0);
        let q = QueryId::new(0);
        for i in 0..n.min(5) {
            mw.what_if(q, &IndexSet::singleton(n, IndexId::from(i)));
        }
        let full = IndexSet::full(n);
        assert!(mw.improvement(&full) >= 0.0);
    }
}
