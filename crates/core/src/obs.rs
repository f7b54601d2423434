//! The tuner-side observability handle.
//!
//! [`Obs`] is a cheaply-cloneable handle that is either *disabled* (the
//! default — a `None` inside, every operation an inlined no-op, no clock
//! reads, no allocation) or *enabled*, in which case it carries the
//! what-if latency histograms, pre-registered against a shared
//! [`MetricsRegistry`], plus an optional [`TraceRecorder`], scoped to one
//! session id.
//!
//! The handle holds no counter. Call, hit and derivation counts live in
//! [`SessionTelemetry`](crate::budget::SessionTelemetry), their one
//! record; the service sums them over its session table when it renders
//! a scrape. What the handle records inline is what exists nowhere else:
//! the latency of each budgeted optimizer invocation, and spans.
//!
//! Observability must never perturb results: nothing here feeds back into
//! search decisions, and the disabled path does no work — the bit-identity
//! property test in `crates/core/tests/obs_props.rs` checks both.

use ixtune_obs::{Histogram, MetricsRegistry, TraceRecorder};
use std::sync::Arc;

/// Bucket bounds (seconds) for real what-if wall-clock latency.
const REAL_LATENCY_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0];

/// Bucket bounds (seconds) for the simulated latency model (§ Figure 2:
/// calls cluster around a second).
const SIM_LATENCY_BOUNDS: [f64; 8] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0];

struct ObsShared {
    scope: u64,
    tracer: Option<Arc<TraceRecorder>>,
    whatif_latency: Arc<Histogram>,
    whatif_sim_latency: Arc<Histogram>,
}

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
        let shared = ObsShared {
            scope,
            tracer,
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
