//! The tuner-side observability handle.
//!
//! [`Obs`] is a cheaply-cloneable handle that is either *disabled* (the
//! default — a `None` inside, every operation an inlined no-op, no clock
//! reads, no allocation) or *enabled*, in which case it carries a bundle
//! of instruments pre-registered against a shared
//! [`MetricsRegistry`] plus an optional [`TraceRecorder`], scoped to one
//! session id.
//!
//! Two reporting styles coexist, chosen for robustness:
//!
//! * **Mirrored counters.** The call/hit/derivation counters that already
//!   live in [`SessionTelemetry`] are *published as deltas* at step and
//!   episode boundaries
//!   ([`MeteredWhatIf::publish_obs`](crate::budget::MeteredWhatIf::publish_obs)),
//!   so the registry can never drift from the legacy counters — they are
//!   derived from them. This is what the registry≡telemetry property test
//!   pins down.
//! * **Hot-path instrument.** The what-if latency histograms are observed
//!   inline, once per budgeted optimizer invocation, because the latency
//!   distribution they carry does not exist in the telemetry bag at all.
//!
//! Observability must never perturb results: nothing here feeds back into
//! search decisions, and the disabled path does no work — the bit-identity
//! property test in `crates/core/tests/obs_props.rs` checks both.

use crate::budget::SessionTelemetry;
use ixtune_obs::{Counter, Histogram, MetricsRegistry, TraceRecorder};
use std::sync::Arc;

/// Bucket bounds (seconds) for real what-if wall-clock latency.
const REAL_LATENCY_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0];

/// Bucket bounds (seconds) for the simulated latency model (§ Figure 2:
/// calls cluster around a second).
const SIM_LATENCY_BOUNDS: [f64; 8] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0];

struct ObsShared {
    scope: u64,
    tracer: Option<Arc<TraceRecorder>>,
    /// `ixtune_whatif_calls_total{phase=…}`, indexed in [`PHASE_LABELS`]
    /// order (priors, selection, rollout, other).
    whatif_calls: [Arc<Counter>; 4],
    cache_hits: Arc<Counter>,
    derivations: Arc<Counter>,
    parallel_scans: Arc<Counter>,
    warm_hits: Arc<Counter>,
    warm_seeded: Arc<Counter>,
    whatif_latency: Arc<Histogram>,
    whatif_sim_latency: Arc<Histogram>,
}

const PHASE_LABELS: [&str; 4] = ["priors", "selection", "rollout", "other"];

/// Observability handle: disabled by default, enabled per session by the
/// service (or by tests). Clones share the same instruments.
#[derive(Clone, Default)]
pub struct Obs {
    shared: Option<Arc<ObsShared>>,
}

impl Obs {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle reporting into `registry` (and `tracer`, if any)
    /// under session scope `scope`. Instruments are get-or-created, so
    /// several sessions share the same global series.
    pub fn enabled(
        registry: Arc<MetricsRegistry>,
        tracer: Option<Arc<TraceRecorder>>,
        scope: u64,
    ) -> Self {
        let whatif_calls = PHASE_LABELS.map(|p| {
            registry.counter(
                "ixtune_whatif_calls_total",
                "Budget-consuming what-if optimizer calls",
                &[("phase", p)],
            )
        });
        let shared = ObsShared {
            scope,
            tracer,
            whatif_calls,
            cache_hits: registry.counter(
                "ixtune_cache_hits_total",
                "What-if requests answered from the cache (free)",
                &[],
            ),
            derivations: registry.counter(
                "ixtune_derivations_total",
                "Cost evaluations answered by Eq. 1 derivation",
                &[],
            ),
            parallel_scans: registry.counter(
                "ixtune_parallel_scans_total",
                "Frozen-cache parallel candidate scans",
                &[],
            ),
            warm_hits: registry.counter(
                "ixtune_warm_hits_total",
                "Budgeted what-if calls answered from the warm cost store",
                &[],
            ),
            warm_seeded: registry.counter(
                "ixtune_warm_seeded_total",
                "Warm store entries sessions were seeded with at admission",
                &[],
            ),
            whatif_latency: registry.histogram(
                "ixtune_whatif_latency_seconds",
                "Observed wall-clock latency of what-if calls",
                &[],
                &REAL_LATENCY_BOUNDS,
            ),
            whatif_sim_latency: registry.histogram(
                "ixtune_whatif_sim_latency_seconds",
                "Modeled what-if latency (ixtune_optimizer::latency)",
                &[],
                &SIM_LATENCY_BOUNDS,
            ),
        };
        Self {
            shared: Some(Arc::new(shared)),
        }
    }

    /// Whether this handle reports anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The session scope this handle reports under (0 when disabled).
    pub fn scope(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.scope)
    }

    /// Record one observed what-if call latency (real seconds) plus its
    /// modeled latency.
    #[inline]
    pub fn observe_whatif_latency(&self, real_s: f64, sim_s: f64) {
        if let Some(s) = &self.shared {
            s.whatif_latency.observe(real_s);
            s.whatif_sim_latency.observe(sim_s);
        }
    }

    /// Mirror the telemetry counters that grew between `prev` and `cur`
    /// into the registry. Saturating per field, so a caller that publishes
    /// out of order can never make a counter go backwards.
    pub fn publish_deltas(&self, prev: &SessionTelemetry, cur: &SessionTelemetry) {
        let Some(s) = &self.shared else { return };
        let d = |a: usize, b: usize| b.saturating_sub(a) as u64;
        let per_phase = [
            (prev.priors_calls, cur.priors_calls),
            (prev.selection_calls, cur.selection_calls),
            (prev.rollout_calls, cur.rollout_calls),
            (prev.other_calls, cur.other_calls),
        ];
        for (i, (p, c)) in per_phase.into_iter().enumerate() {
            let delta = d(p, c);
            if delta > 0 {
                s.whatif_calls[i].add(delta);
            }
        }
        s.cache_hits.add(d(prev.cache_hits, cur.cache_hits));
        s.derivations.add(d(prev.derivations, cur.derivations));
        s.parallel_scans
            .add(d(prev.parallel_scans, cur.parallel_scans));
        s.warm_hits.add(d(prev.warm_hits, cur.warm_hits));
        s.warm_seeded.add(d(prev.warm_seeded, cur.warm_seeded));
    }

    /// Start a span: returns the start timestamp when tracing is enabled,
    /// `None` otherwise — so call sites build span arguments only inside
    /// an `if let`. Pair with [`span_end`](Self::span_end).
    #[inline]
    pub fn span_start(&self) -> Option<u64> {
        match &self.shared {
            Some(s) => s.tracer.as_ref().map(|t| t.now_us()),
            None => None,
        }
    }

    /// Complete a span started at `start_us`.
    pub fn span_end(
        &self,
        start_us: u64,
        name: &str,
        cat: &'static str,
        args: Vec<(String, String)>,
    ) {
        if let Some(s) = &self.shared {
            if let Some(t) = &s.tracer {
                t.complete(name, cat, s.scope, start_us, args);
            }
        }
    }

    /// Record an instant event (no duration).
    pub fn event(&self, name: &str, cat: &'static str, args: Vec<(String, String)>) {
        if let Some(s) = &self.shared {
            if let Some(t) = &s.tracer {
                t.event(name, cat, s.scope, args);
            }
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .field("scope", &self.scope())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        assert_eq!(obs.scope(), 0);
        assert_eq!(obs.span_start(), None);
        obs.observe_whatif_latency(0.1, 1.0);
        obs.publish_deltas(&SessionTelemetry::default(), &SessionTelemetry::default());
    }

    #[test]
    fn publish_deltas_mirrors_counter_growth() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::enabled(Arc::clone(&registry), None, 1);
        let prev = SessionTelemetry::default();
        let cur = SessionTelemetry {
            what_if_calls: 10,
            cache_hits: 4,
            derivations: 7,
            priors_calls: 2,
            selection_calls: 3,
            rollout_calls: 1,
            other_calls: 4,
            parallel_scans: 2,
            ..SessionTelemetry::default()
        };
        obs.publish_deltas(&prev, &cur);
        obs.publish_deltas(&cur, &cur); // idempotent on no growth
        let phases: u64 = PHASE_LABELS
            .iter()
            .map(|p| {
                registry
                    .counter_value("ixtune_whatif_calls_total", &[("phase", p)])
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(phases, 10);
        assert_eq!(
            registry.counter_value("ixtune_cache_hits_total", &[]),
            Some(4)
        );
        assert_eq!(
            registry.counter_value("ixtune_derivations_total", &[]),
            Some(7)
        );
        assert_eq!(
            registry.counter_value("ixtune_parallel_scans_total", &[]),
            Some(2)
        );
    }

    #[test]
    fn spans_scope_to_the_session() {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(TraceRecorder::new(16));
        let obs = Obs::enabled(registry, Some(Arc::clone(&tracer)), 42);
        let t = obs.span_start().expect("tracer attached");
        obs.span_end(t, "step", "greedy", vec![("i".into(), "0".into())]);
        obs.event("mark", "test", vec![]);
        assert_eq!(tracer.records(Some(42)).len(), 2);
        assert_eq!(tracer.records(Some(7)).len(), 0);
    }
}
