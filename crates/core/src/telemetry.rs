//! Versioned telemetry schema.
//!
//! [`TelemetryV2`] is the wire/sidecar schema: a `"version": 2` tag and
//! typed sections — the per-phase call breakdown, cache activity, and the
//! execution profile — so consumers can match on structure instead of
//! guessing which flat fields exist. (v1, the unversioned flat counter
//! bag, is no longer read.)
//!
//! [`SessionTelemetry`] itself stays the in-memory counter bag the
//! enumerators increment (it is `Copy` and lives in hot paths);
//! `TelemetryV2` is its serialization. The two convert losslessly in both
//! directions. Readers ignore unknown fields, so documents that still
//! carry counters this build no longer keeps parse unchanged.

use crate::budget::SessionTelemetry;
use serde::{Deserialize, Serialize};

/// Current telemetry schema version.
pub const TELEMETRY_VERSION: u32 = 2;

/// Where the what-if budget went, by phase (Algorithm 3/4 attribution).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CallBreakdown {
    /// Total budget-consuming optimizer invocations.
    pub what_if_calls: usize,
    /// Calls spent in the singleton-prior bootstrap.
    pub priors_calls: usize,
    /// Calls spent evaluating selection-terminal configurations.
    pub selection_calls: usize,
    /// Calls spent evaluating rollout-completed configurations.
    pub rollout_calls: usize,
    /// Calls outside any labelled phase (greedy enumeration, extraction).
    pub other_calls: usize,
}

/// How cost questions were answered without spending budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheActivity {
    /// What-if requests answered from the cache (free).
    pub cache_hits: usize,
    /// Cost evaluations answered by Eq. 1 derivation.
    pub derivations: usize,
    /// Budgeted calls answered from the daemon's warm cost store (the
    /// optimizer invocation was skipped; budget still consumed).
    pub warm_hits: usize,
    /// Warm store entries the session was seeded with at admission.
    pub warm_seeded: usize,
}

/// How the session executed (parallelism profile; results are invariant
/// to all of it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionProfile {
    /// Logical session thread count the tuner resolved (1 = serial).
    pub session_threads: usize,
    /// Frozen-cache parallel candidate scans executed.
    pub parallel_scans: usize,
}

/// Telemetry schema v2: the versioned, sectioned serialization of a
/// session's [`SessionTelemetry`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetryV2 {
    /// Schema tag; always [`TELEMETRY_VERSION`] when produced by this
    /// crate.
    pub version: u32,
    pub calls: CallBreakdown,
    pub cache: CacheActivity,
    pub exec: ExecutionProfile,
    /// Wall-clock of the session in milliseconds (stamped by whoever ran
    /// the session; 0 when not measured).
    pub wall_clock_ms: f64,
}

impl Default for TelemetryV2 {
    fn default() -> Self {
        SessionTelemetry::default().into()
    }
}

impl From<SessionTelemetry> for TelemetryV2 {
    fn from(t: SessionTelemetry) -> Self {
        Self {
            version: TELEMETRY_VERSION,
            calls: CallBreakdown {
                what_if_calls: t.what_if_calls,
                priors_calls: t.priors_calls,
                selection_calls: t.selection_calls,
                rollout_calls: t.rollout_calls,
                other_calls: t.other_calls,
            },
            cache: CacheActivity {
                cache_hits: t.cache_hits,
                derivations: t.derivations,
                warm_hits: t.warm_hits,
                warm_seeded: t.warm_seeded,
            },
            exec: ExecutionProfile {
                session_threads: t.session_threads,
                parallel_scans: t.parallel_scans,
            },
            wall_clock_ms: t.wall_clock_ms,
        }
    }
}

impl From<TelemetryV2> for SessionTelemetry {
    fn from(v: TelemetryV2) -> Self {
        Self {
            what_if_calls: v.calls.what_if_calls,
            cache_hits: v.cache.cache_hits,
            derivations: v.cache.derivations,
            priors_calls: v.calls.priors_calls,
            selection_calls: v.calls.selection_calls,
            rollout_calls: v.calls.rollout_calls,
            other_calls: v.calls.other_calls,
            session_threads: v.exec.session_threads,
            parallel_scans: v.exec.parallel_scans,
            wall_clock_ms: v.wall_clock_ms,
            warm_hits: v.cache.warm_hits,
            warm_seeded: v.cache.warm_seeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionTelemetry {
        SessionTelemetry {
            what_if_calls: 100,
            cache_hits: 40,
            derivations: 25,
            priors_calls: 10,
            selection_calls: 50,
            rollout_calls: 30,
            other_calls: 10,
            session_threads: 4,
            parallel_scans: 3,
            wall_clock_ms: 12.5,
            warm_hits: 8,
            warm_seeded: 120,
        }
    }

    #[test]
    fn v2_round_trips_the_flat_counters() {
        let t = sample();
        let v2: TelemetryV2 = t.into();
        assert_eq!(v2.version, TELEMETRY_VERSION);
        let back: SessionTelemetry = v2.into();
        assert_eq!(back, t);
    }

    #[test]
    fn v2_serializes_with_version_tag_and_sections() {
        let v2: TelemetryV2 = sample().into();
        let json = serde_json::to_string(&v2).unwrap();
        assert!(json.contains("\"version\":2"), "{json}");
        for section in ["\"calls\"", "\"cache\"", "\"exec\"", "\"wall_clock_ms\""] {
            assert!(json.contains(section), "{json}");
        }
        let back: TelemetryV2 = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v2);
    }
}
