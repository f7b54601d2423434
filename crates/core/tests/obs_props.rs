//! Observability-invariance property tests.
//!
//! The contract (DESIGN.md §7): observability never perturbs results.
//! Running any enumerator with an enabled [`Obs`] handle — metrics
//! registry plus trace recorder attached — must be *bit-identical* to the
//! disabled run: same configuration, same call layout, same improvement
//! bits, same telemetry counters. (The handle keeps no counter: the
//! service's scrape sums [`SessionTelemetry`] over its sessions, which
//! its manager tests pin.)

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::prelude::*;
use ixtune_obs::{MetricsRegistry, TraceRecorder};
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::synth;
use proptest::prelude::*;
use std::sync::Arc;

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

}
