//! Bit-identity property tests for the daemon-wide warm cost store.
//!
//! DESIGN.md §8 promises that seeding a session from a warm snapshot only
//! changes *which* costs are warm-served versus simulated — never the
//! tuning outcome. These tests run every enumerator cold (no warm state),
//! as a donor (empty warm state that records its ledger), and warm
//! (seeded from the donor's absorbed snapshot), and require bit-for-bit
//! equality of the recommended configuration, call layout, improvement
//! bits, and every execution-invariant telemetry counter. The warm run must additionally
//! collapse the simulated-optimizer invocation count.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::prelude::*;
use ixtune_core::{WarmState, WarmStore};
use ixtune_optimizer::{CostModel, SimulatedOptimizer, WhatIfOptimizer};
use proptest::prelude::*;
use std::sync::Arc;

fn context(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
    let inst = ixtune_workload::gen::synth::instance(seed);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    (opt, cands)
}

fn tuners() -> Vec<(&'static str, Box<dyn Tuner>)> {
    vec![
        ("vanilla", Box::new(VanillaGreedy)),
        ("two-phase", Box::new(TwoPhaseGreedy)),
        ("autoadmin", Box::new(AutoAdminGreedy)),
        ("mcts", Box::new(MctsTuner::default())),
    ]
}

/// Zero the counters that record *how* the session executed rather than
/// what it computed. Warm provenance counters are execution detail by
/// definition: they say where answers came from, not what they were.
fn strip_execution(mut t: SessionTelemetry) -> SessionTelemetry {
    t.parallel_scans = 0;
    t.wall_clock_ms = 0.0;
    t.warm_hits = 0;
    t.warm_seeded = 0;
    t
}

fn prop_identical(
    name: &str,
    cold: &TuningResult,
    warm: &TuningResult,
) -> Result<(), TestCaseError> {
    let _ = name;
    prop_assert_eq!(&cold.config, &warm.config);
    prop_assert_eq!(cold.calls_used, warm.calls_used);
    prop_assert_eq!(cold.improvement.to_bits(), warm.improvement.to_bits());
    prop_assert_eq!(cold.layout.cells(), warm.layout.cells());
    prop_assert_eq!(
        strip_execution(cold.telemetry),
        strip_execution(warm.telemetry)
    );
    Ok(())
}

proptest! {
    // Each case runs 4 enumerators x 3 sessions.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cold, donor (empty warm state), and seeded warm runs are
    /// bit-identical for every enumerator; the seeded run answers every
    /// budgeted what-if from the snapshot and stops invoking the
    /// simulated optimizer.
    #[test]
    fn warm_seeding_never_changes_the_result(
        inst_seed in 0u64..200,
        seed in 0u64..16,
        k in 2usize..5,
        budget in 10usize..40,
    ) {
        let (opt, cands) = context(inst_seed);
        let req = TuningRequest::cardinality(k, budget).with_seed(seed);
        for (name, tuner) in &tuners() {
            let fp = opt.content_fingerprint();
            let nq = WhatIfOptimizer::num_queries(&opt);
            let store = WarmStore::new(64 << 20);

            // Cold: no warm state wired at all.
            let before = opt.calls_served();
            let cold = tuner.tune(&TuningContext::new(&opt, &cands), &req);
            let cold_sim = opt.calls_served() - before;

            // Donor: empty snapshot, records its ledger into the store.
            let donor_state = Arc::new(WarmState::new(
                store.checkout("w", fp, nq, cands.len()),
            ));
            let donor = tuner.tune(
                &TuningContext::new(&opt, &cands).with_warm(Arc::clone(&donor_state)),
                &req,
            );
            prop_identical(name, &cold, &donor)?;
            prop_assert_eq!(donor.telemetry.warm_hits, 0);
            let absorbed = store.absorb("w", fp, nq, cands.len(), donor_state.drain()).len();
            prop_assert!(absorbed > 0, "{}: donor ledger absorbed", name);

            // Warm: seeded from the donor's published snapshot.
            let warm_state = Arc::new(WarmState::new(
                store.checkout("w", fp, nq, cands.len()),
            ));
            let before = opt.calls_served();
            let warm = tuner.tune(
                &TuningContext::new(&opt, &cands).with_warm(warm_state),
                &req,
            );
            let warm_sim = opt.calls_served() - before;

            prop_identical(name, &cold, &warm)?;
            prop_assert!(warm.telemetry.warm_seeded > 0, "{}: snapshot seeded", name);
            prop_assert_eq!(warm.telemetry.warm_hits, warm.telemetry.what_if_calls);
            prop_assert!(
                warm_sim * 2 <= cold_sim,
                "{}: simulated invocations collapse >=50% (cold {} warm {})",
                name, cold_sim, warm_sim
            );
        }
    }
}
