//! The tuner interface shared by every enumeration algorithm.
//!
//! A [`TuningContext`] bundles the simulated optimizer and the candidate
//! set; [`Constraints`] carries the cardinality constraint `K` and the
//! optional storage constraint; a [`TuningRequest`] packages constraints,
//! what-if budget, and seed for one session. [`Tuner::tune`] runs the
//! session and returns a [`TuningResult`] whose improvement is measured
//! against an *unmetered* oracle evaluation of the final configuration,
//! exactly as the paper measures "percentage improvement in terms of the
//! actual what-if cost" (§7).

use crate::budget::SessionTelemetry;
use crate::matrix::Layout;
use crate::obs::Obs;
use crate::stop::{StopReason, StopSignal};
use crate::warm::WarmState;
use ixtune_candidates::CandidateSet;
use ixtune_common::fault::FaultPlan;
use ixtune_common::{IndexId, IndexSet};
use ixtune_optimizer::{SimulatedOptimizer, WhatIfOptimizer};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Per-session fault state: the (shared) fault plan plus the degraded
/// flag the what-if error ladder raises. Clones share the flag, so every
/// metered client of one session observes the same degradation.
#[derive(Clone, Default)]
pub struct SessionFaults {
    plan: FaultPlan,
    degraded: Arc<AtomicBool>,
}

impl SessionFaults {
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            degraded: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The fault plan (inert by default).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Raise the degraded flag: a what-if error fired and the session fell
    /// back to derivation-only search.
    pub fn mark_degraded(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Whether any client of this session has degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// Everything a tuning session reads: the optimizer (schema + workload +
/// cost model), the candidate universe with per-query attribution, and
/// the session's observability handle (disabled by default — attach one
/// with [`with_obs`](Self::with_obs)).
pub struct TuningContext<'a> {
    pub opt: &'a SimulatedOptimizer,
    pub cands: &'a CandidateSet,
    obs: Obs,
    warm: Option<Arc<WarmState>>,
    faults: SessionFaults,
}

impl<'a> TuningContext<'a> {
    pub fn new(opt: &'a SimulatedOptimizer, cands: &'a CandidateSet) -> Self {
        debug_assert_eq!(opt.num_candidates(), cands.len());
        Self {
            opt,
            cands,
            obs: Obs::disabled(),
            warm: None,
            faults: SessionFaults::default(),
        }
    }

    /// Attach an observability handle: metrics and spans from the session
    /// report through it. Observability never perturbs results — the
    /// bit-identity property test in `crates/core/tests/obs_props.rs`
    /// holds the tuners to that.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attach a warm store state (see [`crate::warm`]): the session's
    /// metered clients serve known costs from the snapshot without
    /// invoking the optimizer and ledger the ones they do compute. Warm
    /// seeding never perturbs results — only `warm_hits`/`warm_seeded`
    /// provenance counters differ from a cold run
    /// (`crates/core/tests/warm_store_props.rs`).
    pub fn with_warm(mut self, warm: Arc<WarmState>) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Attach the session's fault state (see
    /// [`SessionFaults`]): the metered clients built over this context
    /// consult the plan's `whatif.*` sites, and the shared degraded flag
    /// records a fallback to derivation-only search. Inert by default.
    pub fn with_faults(mut self, faults: SessionFaults) -> Self {
        self.faults = faults;
        self
    }

    /// The session's fault state.
    pub fn faults(&self) -> &SessionFaults {
        &self.faults
    }

    /// The session's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The session's warm store state, if any.
    pub(crate) fn warm(&self) -> Option<&Arc<WarmState>> {
        self.warm.as_ref()
    }

    /// Universe size `|I|`.
    pub fn universe(&self) -> usize {
        self.cands.len()
    }

    /// Number of queries `|W|`.
    pub fn num_queries(&self) -> usize {
        self.opt.num_queries()
    }

    /// Oracle (unmetered) workload cost of `config` — the evaluation
    /// metric, not available to budgeted search.
    pub fn oracle_cost(&self, config: &IndexSet) -> f64 {
        self.opt.workload_cost(config)
    }

    /// Oracle percentage improvement of `config` as a fraction in `[0, 1]`.
    pub fn oracle_improvement(&self, config: &IndexSet) -> f64 {
        let base = self.oracle_cost(&IndexSet::empty(self.universe()));
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.oracle_cost(config) / base
    }
}

/// Tuning constraints on the *outcome* (distinct from the what-if budget,
/// which constrains the *search* — see §1 of the paper).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Constraints {
    /// Cardinality constraint `K`: max indexes in the recommendation.
    pub k: usize,
    /// Optional storage constraint: max total index size in bytes.
    pub storage_bytes: Option<u64>,
}

impl Constraints {
    pub fn cardinality(k: usize) -> Self {
        Self {
            k,
            storage_bytes: None,
        }
    }

    pub fn with_storage(k: usize, bytes: u64) -> Self {
        Self {
            k,
            storage_bytes: Some(bytes),
        }
    }

    /// Whether `config` plus index `extra` stays within the constraints.
    ///
    /// For per-candidate inner loops over a fixed `config`, build an
    /// [`ExtensionFilter`] once instead — it hoists the configuration-size
    /// sum out of the loop.
    pub fn admits(&self, ctx: &TuningContext<'_>, config: &IndexSet, extra: IndexId) -> bool {
        self.extension_filter(ctx, config).admits(ctx, extra)
    }

    /// Precompute the admission state for extending `config` by one index.
    pub fn extension_filter(&self, ctx: &TuningContext<'_>, config: &IndexSet) -> ExtensionFilter {
        ExtensionFilter {
            len_ok: config.len() < self.k,
            used_bytes: match self.storage_bytes {
                Some(_) => ctx.opt.config_size_bytes(config),
                None => 0,
            },
            limit: self.storage_bytes,
        }
    }

    /// Whether a whole configuration satisfies the constraints.
    pub fn satisfied_by(&self, ctx: &TuningContext<'_>, config: &IndexSet) -> bool {
        config.len() <= self.k
            && self
                .storage_bytes
                .is_none_or(|limit| ctx.opt.config_size_bytes(config) <= limit)
    }
}

/// Hoisted admission check for extending one fixed configuration: the
/// cardinality test and the configuration's current size are computed once,
/// so per-candidate checks are O(1).
#[derive(Clone, Copy, Debug)]
pub struct ExtensionFilter {
    len_ok: bool,
    used_bytes: u64,
    limit: Option<u64>,
}

impl ExtensionFilter {
    /// Whether adding `extra` keeps the configuration admissible.
    #[inline]
    pub fn admits(&self, ctx: &TuningContext<'_>, extra: IndexId) -> bool {
        self.len_ok
            && match self.limit {
                None => true,
                Some(limit) => self.used_bytes + ctx.opt.candidate_size_bytes(extra) <= limit,
            }
    }
}

/// Everything one tuning session is asked to do: the outcome constraints,
/// the what-if call budget, and the seed for any internal randomization.
///
/// Constructed builder-style:
///
/// ```
/// use ixtune_core::tuner::{Constraints, TuningRequest};
///
/// let req = TuningRequest::cardinality(10, 500).with_seed(3);
/// assert_eq!(req.constraints.k, 10);
/// assert_eq!(req.budget, 500);
/// assert_eq!(req.seed, 3);
///
/// let sc = TuningRequest::new(Constraints::cardinality(5), 200)
///     .with_storage(1 << 30);
/// assert_eq!(sc.constraints.storage_bytes, Some(1 << 30));
/// assert_eq!(sc.seed, 0);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TuningRequest {
    /// Constraints on the recommended configuration.
    pub constraints: Constraints,
    /// What-if call budget `B` for the search.
    pub budget: usize,
    /// Seed for stochastic tuners; deterministic tuners ignore it.
    pub seed: u64,
}

impl TuningRequest {
    /// A request with the given constraints and budget, seed 0.
    pub fn new(constraints: Constraints, budget: usize) -> Self {
        Self {
            constraints,
            budget,
            seed: 0,
        }
    }

    /// The common case: a cardinality constraint `K` and a budget.
    pub fn cardinality(k: usize, budget: usize) -> Self {
        Self::new(Constraints::cardinality(k), budget)
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Attach a storage constraint (max total index size in bytes).
    pub fn with_storage(mut self, bytes: u64) -> Self {
        self.constraints.storage_bytes = Some(bytes);
        self
    }
}

/// Outcome of one tuning session.
#[derive(Clone, Debug)]
pub struct TuningResult {
    /// Algorithm that produced the result.
    pub algorithm: String,
    /// The recommended configuration.
    pub config: IndexSet,
    /// What-if calls consumed (≤ the budget, by construction).
    pub calls_used: usize,
    /// Oracle improvement of `config`, as a fraction in `[0, 1]`.
    pub improvement: f64,
    /// The layout of budget-consuming calls.
    pub layout: Layout,
    /// Instrumentation counters from the session's what-if client.
    pub telemetry: SessionTelemetry,
    /// Why the session stopped. `None` for tuners that predate the stop
    /// protocol (external baselines); core tuners always set it.
    pub stop_reason: Option<StopReason>,
}

impl TuningResult {
    /// Build a result, filling in the oracle improvement.
    pub fn evaluate(
        algorithm: impl Into<String>,
        ctx: &TuningContext<'_>,
        config: IndexSet,
        calls_used: usize,
        layout: Layout,
    ) -> Self {
        let improvement = ctx.oracle_improvement(&config).max(0.0);
        Self {
            algorithm: algorithm.into(),
            config,
            calls_used,
            improvement,
            layout,
            telemetry: SessionTelemetry::default(),
            stop_reason: None,
        }
    }

    /// Attach the session's telemetry counters.
    pub fn with_telemetry(mut self, telemetry: SessionTelemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attach the reason the session stopped.
    pub fn with_stop_reason(mut self, reason: StopReason) -> Self {
        self.stop_reason = Some(reason);
        self
    }

    /// Improvement as a percentage (the paper's y-axis).
    pub fn improvement_pct(&self) -> f64 {
        self.improvement * 100.0
    }
}

/// A budget-aware configuration enumeration algorithm.
///
/// `Sync` is a supertrait so tuners can be shared by reference across the
/// parallel experiment runner's worker threads; every tuner here is plain
/// configuration data, so the bound is free.
pub trait Tuner: Sync {
    /// Display name (used in reports and figures).
    fn name(&self) -> String;

    /// Whether results vary with [`TuningRequest::seed`]. Stochastic
    /// tuners are run once per seed by the experiment grid; deterministic
    /// ones once per cell.
    fn is_stochastic(&self) -> bool {
        false
    }

    /// Run one tuning session described by `req`.
    fn tune(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> TuningResult;

    /// Run one tuning session under a cooperative [`StopSignal`]: the
    /// tuner polls the signal at step/episode boundaries and, when it
    /// fires, returns the best configuration found so far with the
    /// matching [`StopReason`]. The default ignores the signal (correct
    /// for tuners that complete in one indivisible step); core tuners
    /// override it.
    fn tune_with_stop(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        stop: &StopSignal,
    ) -> TuningResult {
        let _ = stop;
        self.tune(ctx, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::generate_default;
    use ixtune_optimizer::CostModel;
    use ixtune_workload::gen::synth;

    pub(crate) fn context(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn oracle_improvement_of_empty_is_zero() {
        let (opt, cands) = context(1);
        let ctx = TuningContext::new(&opt, &cands);
        let empty = IndexSet::empty(ctx.universe());
        assert_eq!(ctx.oracle_improvement(&empty), 0.0);
    }

    #[test]
    fn oracle_improvement_of_full_is_nonnegative() {
        let (opt, cands) = context(2);
        let ctx = TuningContext::new(&opt, &cands);
        let full = IndexSet::full(ctx.universe());
        let imp = ctx.oracle_improvement(&full);
        assert!((0.0..=1.0).contains(&imp), "imp={imp}");
    }

    #[test]
    fn cardinality_constraint_admission() {
        let (opt, cands) = context(3);
        let ctx = TuningContext::new(&opt, &cands);
        let n = ctx.universe();
        assert!(n >= 2);
        let c = Constraints::cardinality(1);
        let empty = IndexSet::empty(n);
        assert!(c.admits(&ctx, &empty, IndexId::new(0)));
        let one = IndexSet::singleton(n, IndexId::new(0));
        assert!(!c.admits(&ctx, &one, IndexId::new(1)));
        assert!(c.satisfied_by(&ctx, &one));
    }

    #[test]
    fn storage_constraint_blocks_large_configs() {
        let (opt, cands) = context(4);
        let ctx = TuningContext::new(&opt, &cands);
        let n = ctx.universe();
        let tight = Constraints::with_storage(n, 1); // 1 byte: nothing fits
        let empty = IndexSet::empty(n);
        assert!(!tight.admits(&ctx, &empty, IndexId::new(0)));
        let loose = Constraints::with_storage(n, u64::MAX);
        assert!(loose.admits(&ctx, &empty, IndexId::new(0)));
    }

    #[test]
    fn result_evaluation_fills_improvement() {
        let (opt, cands) = context(5);
        let ctx = TuningContext::new(&opt, &cands);
        let full = IndexSet::full(ctx.universe());
        let r = TuningResult::evaluate("test", &ctx, full, 7, Layout::default());
        assert_eq!(r.algorithm, "test");
        assert_eq!(r.calls_used, 7);
        assert!(r.improvement >= 0.0);
        assert_eq!(r.improvement_pct(), r.improvement * 100.0);
    }
}
