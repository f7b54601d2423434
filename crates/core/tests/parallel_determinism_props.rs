//! End-to-end determinism property tests for intra-session parallelism.
//!
//! DESIGN.md §5c promises that `TuningRequest::session_threads` never
//! changes a tuning outcome — only wall-clock time. These tests run every
//! enumerator serially and with 2/4/8 logical threads (plus an optional
//! `IXTUNE_SESSION_THREADS` count injected by CI) on random synthetic
//! instances and require *bit-for-bit* equality: the recommended
//! configuration, the call layout, the improvement's `f64` bits, and every
//! telemetry counter that is defined to be execution-invariant.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::prelude::*;
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::synth;
use proptest::prelude::*;

fn context(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
    let inst = synth::instance(seed);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    (opt, cands)
}

/// Thread counts to compare against the serial run. CI injects an extra
/// count through `IXTUNE_SESSION_THREADS` so the matrix can pin a value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![2, 4, 8];
    if let Some(n) = std::env::var("IXTUNE_SESSION_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Zero the counters that record *how* the session executed rather than
/// what it computed; everything else must match exactly.
fn strip_execution(mut t: SessionTelemetry) -> SessionTelemetry {
    t.session_threads = 0;
    t.parallel_scans = 0;
    t.wall_clock_ms = 0.0;
    t
}

fn prop_identical(serial: &TuningResult, par: &TuningResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&serial.config, &par.config);
    prop_assert_eq!(serial.calls_used, par.calls_used);
    prop_assert_eq!(serial.improvement.to_bits(), par.improvement.to_bits());
    prop_assert_eq!(serial.layout.cells(), par.layout.cells());
    prop_assert_eq!(
        strip_execution(serial.telemetry),
        strip_execution(par.telemetry)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Vanilla greedy, two-phase, and AutoAdmin produce bit-identical
    /// results under every session thread count.
    #[test]
    fn greedy_family_is_thread_invariant(
        inst_seed in 0u64..500,
        k in 2usize..6,
        budget in 0usize..60,
    ) {
        let (opt, cands) = context(inst_seed);
        let ctx = TuningContext::new(&opt, &cands);
        let tuners: Vec<Box<dyn Tuner>> = vec![
            Box::new(VanillaGreedy),
            Box::new(TwoPhaseGreedy),
            Box::new(AutoAdminGreedy),
        ];
        let base = TuningRequest::cardinality(k, budget);
        for tuner in &tuners {
            let serial = tuner.tune(&ctx, &base.with_session_threads(1));
            for threads in thread_counts() {
                let par = tuner.tune(&ctx, &base.with_session_threads(threads));
                prop_identical(&serial, &par)?;
            }
        }
    }

    /// MCTS (threads only affect extraction) is thread-invariant.
    #[test]
    fn mcts_is_thread_invariant(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        k in 2usize..6,
        budget in 0usize..80,
    ) {
        let (opt, cands) = context(inst_seed);
        let ctx = TuningContext::new(&opt, &cands);
        let tuner = MctsTuner::default();
        let base = TuningRequest::cardinality(k, budget).with_seed(seed);
        let serial = tuner.tune(&ctx, &base.with_session_threads(1));
        for threads in thread_counts() {
            let par = tuner.tune(&ctx, &base.with_session_threads(threads));
            prop_identical(&serial, &par)?;
        }
    }
}
