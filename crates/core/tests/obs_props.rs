//! Observability-invariance property tests.
//!
//! The contract (DESIGN.md §7): observability never perturbs results.
//! Running any enumerator with an enabled [`Obs`] handle — metrics
//! registry plus trace recorder attached — must be *bit-identical* to the
//! disabled run: same configuration, same call layout, same improvement
//! bits, same telemetry counters. And the registry is not an independent
//! bookkeeper: because the mirrored counters are published as deltas off
//! [`SessionTelemetry`], the registry totals after a session equal the
//! final telemetry counters exactly.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::prelude::*;
use ixtune_obs::{MetricsRegistry, TraceRecorder};
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::synth;
use proptest::prelude::*;
use std::sync::Arc;

const PHASES: [&str; 4] = ["priors", "selection", "rollout", "other"];

fn context(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
    let inst = synth::instance(seed);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    (opt, cands)
}

fn tuners() -> Vec<(&'static str, Box<dyn Tuner>)> {
    vec![
        ("vanilla", Box::new(VanillaGreedy)),
        ("twophase", Box::new(TwoPhaseGreedy)),
        ("autoadmin", Box::new(AutoAdminGreedy)),
        ("mcts", Box::new(MctsTuner::default())),
    ]
}

/// Only wall-clock may differ between the observed and unobserved run.
fn strip_wall_clock(mut t: SessionTelemetry) -> SessionTelemetry {
    t.wall_clock_ms = 0.0;
    t
}

fn counter(registry: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> u64 {
    registry.counter_value(name, labels).unwrap_or(0)
}

proptest! {
    // Each case runs every enumerator twice (MCTS included); keep modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identity: results with observability on equal results with it
    /// off, for every enumerator.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        k in 2usize..6,
        budget in 0usize..60,
        threads in 1usize..4,
    ) {
        let (opt, cands) = context(inst_seed);
        let request = TuningRequest::cardinality(k, budget)
            .with_seed(seed)
            .with_session_threads(threads);
        for (name, tuner) in tuners() {
            let plain_ctx = TuningContext::new(&opt, &cands);
            let plain = tuner.tune(&plain_ctx, &request);

            let registry = Arc::new(MetricsRegistry::new());
            let tracer = Arc::new(TraceRecorder::new(4096));
            let obs = Obs::enabled(Arc::clone(&registry), Some(tracer), 17);
            let obs_ctx = TuningContext::new(&opt, &cands).with_obs(obs);
            let observed = tuner.tune(&obs_ctx, &request);

            prop_assert!(plain.config == observed.config, "{name}: config");
            prop_assert!(plain.calls_used == observed.calls_used, "{name}: calls");
            prop_assert!(
                plain.improvement.to_bits() == observed.improvement.to_bits(),
                "{name}: improvement bits"
            );
            prop_assert!(plain.layout.cells() == observed.layout.cells(), "{name}: layout");
            prop_assert!(
                strip_wall_clock(plain.telemetry) == strip_wall_clock(observed.telemetry),
                "{name}: telemetry"
            );
        }
    }

    /// Registry ≡ telemetry: after an observed session, every mirrored
    /// registry counter equals the corresponding final telemetry counter.
    #[test]
    fn registry_totals_match_session_telemetry(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        k in 2usize..6,
        budget in 0usize..60,
        threads in 1usize..4,
    ) {
        let (opt, cands) = context(inst_seed);
        let request = TuningRequest::cardinality(k, budget)
            .with_seed(seed)
            .with_session_threads(threads);
        for (name, tuner) in tuners() {
            let registry = Arc::new(MetricsRegistry::new());
            let obs = Obs::enabled(Arc::clone(&registry), None, 1);
            let ctx = TuningContext::new(&opt, &cands).with_obs(obs);
            let t = tuner.tune(&ctx, &request).telemetry;

            let per_phase: Vec<u64> = PHASES
                .iter()
                .map(|p| counter(&registry, "ixtune_whatif_calls_total", &[("phase", p)]))
                .collect();
            prop_assert!(
                per_phase.iter().sum::<u64>() == t.what_if_calls as u64,
                "{name}: total calls {per_phase:?} vs {}", t.what_if_calls
            );
            let expected = [
                t.priors_calls,
                t.selection_calls,
                t.rollout_calls,
                t.other_calls,
            ];
            for (i, phase) in PHASES.iter().enumerate() {
                prop_assert!(
                    per_phase[i] == expected[i] as u64,
                    "{name}: phase {phase}: {} vs {}", per_phase[i], expected[i]
                );
            }
            for (series, want) in [
                ("ixtune_cache_hits_total", t.cache_hits),
                ("ixtune_derivations_total", t.derivations),
                ("ixtune_parallel_scans_total", t.parallel_scans),
            ] {
                let got = counter(&registry, series, &[]);
                prop_assert!(got == want as u64, "{name}: {series}: {got} vs {want}");
            }
        }
    }
}
