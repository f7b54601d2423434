//! The [`CostSource`] seam: where tuners get what-if costs from.
//!
//! Before this trait existed, every enumerator talked to
//! [`WhatIfOptimizer`] directly through the metered client, and anything
//! that wanted to watch the call stream (latency measurement, metrics)
//! had to wrap each call site separately. `CostSource` collapses that into
//! one seam owned by this crate: the metered client consumes
//! `&dyn CostSource`, [`BudgetMeter::charged_cost`] is the *single* point
//! where a budgeted optimizer invocation happens (and therefore the single
//! observation point), and the [`observe`](CostSource::observe) hook is
//! where latency lands.
//!
//! Two implementations ship here:
//!
//! * [`SimulatedOptimizer`] implements `CostSource` directly — plain,
//!   unobserved access, used by unit tests and baselines;
//! * [`ObservedSource`] wraps the optimizer together with an [`Obs`]
//!   handle; when the handle is enabled, every budgeted call is timed
//!   (both real wall-clock and the simulated latency model of
//!   `ixtune_optimizer::latency`) into the registry's histograms. When
//!   disabled it degrades to exactly the plain path: `observing()` is
//!   `false`, so the metered client never reads the clock.
//!
//! [`BudgetMeter::charged_cost`]: crate::budget::BudgetMeter::charged_cost

use crate::obs::Obs;
use crate::warm::WarmState;
use ixtune_common::fault::{site, FaultPlan};
use ixtune_common::{IndexSet, QueryId};
use ixtune_optimizer::{SimulatedOptimizer, WhatIfOptimizer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Synthetic latency added to an observed what-if call when the
/// `whatif.latency` fault site fires. Affects latency histograms only —
/// never costs, budgets, or results.
pub const LATENCY_SPIKE_S: f64 = 0.25;

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

/// A source of per-query configuration costs.
///
/// `cost` answers *what would query `q` cost under configuration `C`?* —
/// the what-if question. Budget accounting, caching, and derivation live
/// on the consumer side ([`MeteredWhatIf`](crate::budget::MeteredWhatIf));
/// a source only prices configurations and optionally observes the calls
/// made against it.
pub trait CostSource: Sync {
    /// Number of queries in the workload being priced.
    fn num_queries(&self) -> usize;

    /// Number of candidate indexes (the configuration universe).
    fn num_candidates(&self) -> usize;

    /// Cost of query `q` under configuration `config`. One invocation is
    /// one optimizer call; the caller is responsible for budgeting.
    fn cost(&self, q: QueryId, config: &IndexSet) -> f64;

    /// Cost several configurations for one query in a batch. The default
    /// just loops [`cost`](Self::cost); sources backed by a remote
    /// optimizer can amortize round trips here.
    fn cost_batch(&self, q: QueryId, configs: &[IndexSet]) -> Vec<f64> {
        configs.iter().map(|c| self.cost(q, c)).collect()
    }

    /// [`cost`](Self::cost) with provenance: the second component is
    /// `true` when the answer was served from a warm store snapshot (a
    /// prior session already paid for the optimizer invocation) rather
    /// than computed now. Warm answers are still budgeted and cached by
    /// the caller exactly like simulated ones — the tag only drives the
    /// `warm_hits` telemetry and lets the meter skip latency observation
    /// (there was no invocation to time). Default: always simulated.
    fn cost_tagged(&self, q: QueryId, config: &IndexSet) -> (f64, bool) {
        (self.cost(q, config), false)
    }

    /// Number of warm entries this source was seeded with at admission
    /// (0 for sources without a warm overlay).
    fn warm_seeded(&self) -> usize {
        0
    }

    /// Whether this source wants [`observe`](Self::observe) callbacks.
    /// When `false` (the default) the metered client skips the clock reads
    /// entirely, keeping the disabled path zero-cost.
    fn observing(&self) -> bool {
        false
    }

    /// Observation hook: one budgeted call just completed with the given
    /// result and elapsed wall-clock seconds. Default: no-op.
    fn observe(&self, _q: QueryId, _config: &IndexSet, _cost: f64, _elapsed_s: f64) {}

    /// The observability handle associated with this source. The metered
    /// client mirrors its telemetry counters into it at step/episode
    /// boundaries; a disabled handle (the default) makes every mirror a
    /// no-op.
    fn obs(&self) -> Obs {
        Obs::disabled()
    }

    /// The session's fault state. The metered client pulls a `whatif.error`
    /// cursor from its plan at construction; the default is inert (no
    /// plan, never fires). Like [`obs`](Self::obs), implementors that carry
    /// real state must return clones of *one* shared instance so every
    /// client sees the same degraded flag.
    fn faults(&self) -> SessionFaults {
        SessionFaults::default()
    }
}

/// Plain, unobserved access: the simulated optimizer is its own source.
impl CostSource for SimulatedOptimizer {
    fn num_queries(&self) -> usize {
        WhatIfOptimizer::num_queries(self)
    }

    fn num_candidates(&self) -> usize {
        WhatIfOptimizer::num_candidates(self)
    }

    fn cost(&self, q: QueryId, config: &IndexSet) -> f64 {
        self.what_if_cost(q, config)
    }
}

/// A cost source that forwards to the simulated optimizer and reports into
/// an [`Obs`] handle. Built by
/// [`TuningContext::source`](crate::tuner::TuningContext::source); when the
/// context carries no observability this is bit-for-bit the plain path.
pub struct ObservedSource<'a> {
    opt: &'a SimulatedOptimizer,
    obs: Obs,
    /// Warm overlay: snapshot consulted before the optimizer, ledger fed
    /// with the simulated answers. `None` outside the service.
    warm: Option<Arc<WarmState>>,
    /// Session fault state (inert by default).
    faults: SessionFaults,
}

impl<'a> ObservedSource<'a> {
    pub fn new(opt: &'a SimulatedOptimizer, obs: Obs) -> Self {
        Self {
            opt,
            obs,
            warm: None,
            faults: SessionFaults::default(),
        }
    }

    /// Attach the session's fault state (see [`SessionFaults`]).
    pub fn with_faults(mut self, faults: SessionFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a warm store overlay (see [`crate::warm`]). Costs already in
    /// the snapshot are served without invoking the optimizer; costs the
    /// optimizer does compute are recorded in the ledger for write-back.
    pub fn with_warm(mut self, warm: Arc<WarmState>) -> Self {
        self.warm = Some(warm);
        self
    }

    /// The underlying optimizer.
    pub fn optimizer(&self) -> &'a SimulatedOptimizer {
        self.opt
    }
}

impl CostSource for ObservedSource<'_> {
    fn num_queries(&self) -> usize {
        WhatIfOptimizer::num_queries(self.opt)
    }

    fn num_candidates(&self) -> usize {
        WhatIfOptimizer::num_candidates(self.opt)
    }

    fn cost(&self, q: QueryId, config: &IndexSet) -> f64 {
        self.cost_tagged(q, config).0
    }

    fn cost_tagged(&self, q: QueryId, config: &IndexSet) -> (f64, bool) {
        if let Some(warm) = &self.warm {
            if let Some(cost) = warm.lookup(q, config) {
                return (cost, true);
            }
            let cost = self.opt.what_if_cost(q, config);
            warm.record(q, config.clone(), cost);
            return (cost, false);
        }
        (self.opt.what_if_cost(q, config), false)
    }

    fn warm_seeded(&self) -> usize {
        self.warm.as_ref().map_or(0, |w| w.seeded())
    }

    fn observing(&self) -> bool {
        self.obs.is_enabled()
    }

    fn observe(&self, q: QueryId, _config: &IndexSet, _cost: f64, elapsed_s: f64) {
        // An injected latency spike lands in the histograms only; costs,
        // budget accounting, and results never see it.
        let elapsed_s = if self.faults.plan().fire(site::WHATIF_LATENCY) {
            elapsed_s + LATENCY_SPIKE_S
        } else {
            elapsed_s
        };
        self.obs
            .observe_whatif_latency(elapsed_s, self.opt.call_latency_s(q));
    }

    fn obs(&self) -> Obs {
        self.obs.clone()
    }

    fn faults(&self) -> SessionFaults {
        self.faults.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Obs;
    use ixtune_candidates::generate_default;
    use ixtune_obs::MetricsRegistry;
    use ixtune_optimizer::CostModel;
    use ixtune_workload::gen::synth;
    use std::sync::Arc;

    fn optimizer(seed: u64) -> SimulatedOptimizer {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        SimulatedOptimizer::new(inst, cands.indexes, CostModel::default())
    }

    #[test]
    fn optimizer_is_a_plain_source() {
        let opt = optimizer(1);
        let src: &dyn CostSource = &opt;
        assert!(!src.observing());
        let q = QueryId::new(0);
        let empty = IndexSet::empty(src.num_candidates());
        assert_eq!(src.cost(q, &empty), opt.what_if_cost(q, &empty));
    }

    #[test]
    fn cost_batch_matches_individual_costs() {
        let opt = optimizer(2);
        let n = WhatIfOptimizer::num_candidates(&opt);
        let configs: Vec<IndexSet> = (0..n.min(4))
            .map(|i| IndexSet::singleton(n, ixtune_common::IndexId::from(i)))
            .collect();
        let q = QueryId::new(0);
        let batch = CostSource::cost_batch(&opt, q, &configs);
        for (c, cfg) in batch.iter().zip(&configs) {
            assert_eq!(*c, CostSource::cost(&opt, q, cfg));
        }
    }

    #[test]
    fn observed_source_times_calls_into_the_histogram() {
        let opt = optimizer(3);
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::enabled(Arc::clone(&registry), None, 0);
        let src = ObservedSource::new(&opt, obs);
        assert!(src.observing());
        let q = QueryId::new(0);
        let cfg = IndexSet::empty(CostSource::num_candidates(&src));
        let cost = src.cost(q, &cfg);
        src.observe(q, &cfg, cost, 0.001);
        let text = registry.render();
        assert!(
            text.contains("ixtune_whatif_latency_seconds_count 1"),
            "{text}"
        );
        assert!(text.contains("ixtune_whatif_sim_latency_seconds_count 1"));
    }

    #[test]
    fn disabled_observed_source_is_plain() {
        let opt = optimizer(4);
        let src = ObservedSource::new(&opt, Obs::disabled());
        assert!(!src.observing());
    }
}
