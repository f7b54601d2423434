//! Property tests for the deterministic fault-injection plane.
//!
//! The contract (DESIGN.md §11): a [`FaultPlan`] is a pure function of
//! one `u64` seed — equal seeds replay bit-identical injection schedules
//! — and enumeration under injected what-if failures degrades to a
//! derivation-only salvage that still honors every constraint, while an
//! inert plan (or one that only perturbs observability) is invisible to
//! the tuning result at the bit level.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_common::fault::{site, FaultPlan};
use ixtune_core::prelude::*;
use ixtune_core::SessionFaults;
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use proptest::prelude::*;

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

fn strip_execution(mut t: SessionTelemetry) -> SessionTelemetry {
    t.parallel_scans = 0;
    t.wall_clock_ms = 0.0;
    t.warm_hits = 0;
    t.warm_seeded = 0;
    t
}

fn prop_identical(a: &TuningResult, b: &TuningResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.config, &b.config);
    prop_assert_eq!(a.calls_used, b.calls_used);
    prop_assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
    prop_assert_eq!(a.layout.cells(), b.layout.cells());
    prop_assert_eq!(a.stop_reason, b.stop_reason);
    prop_assert_eq!(strip_execution(a.telemetry), strip_execution(b.telemetry));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plan decisions are a pure function of `(seed, site, index)`: a plan
    /// re-parsed from its own canonical `spec()` rendering replays the
    /// identical decision stream on the shared cursor AND on caller-local
    /// cursors, and the per-site injected accounting agrees exactly.
    #[test]
    fn plan_decisions_replay_bit_identically(
        seed in any::<u64>(),
        p in 0.01f64..0.99,
        every in 1u64..9,
        after in 0u64..30,
        n in 20usize..200,
    ) {
        let spec = format!(
            "seed={seed};whatif.error=p{p:.4};persist.append=every{every};wire.drop=after{after}"
        );
        let a = FaultPlan::parse(&spec).unwrap();
        // Round-trip through the canonical rendering: the spec string a
        // failing CI run uploads reproduces the schedule exactly.
        let b = FaultPlan::parse(&a.spec()).unwrap();
        for fault_site in [site::WHATIF_ERROR, site::PERSIST_APPEND, site::WIRE_DROP] {
            for _ in 0..n {
                prop_assert_eq!(a.fire(fault_site), b.fire(fault_site));
            }
            prop_assert_eq!(a.injected(fault_site), b.injected(fault_site));
        }
        // Caller-local cursors replay the same stream from index zero,
        // independent of how far the shared cursor has advanced.
        let mut ca = a.cursor(site::WHATIF_ERROR);
        let mut cb = b.cursor(site::WHATIF_ERROR);
        for _ in 0..n {
            prop_assert_eq!(ca.fire(), cb.fire());
        }
        // Sites the spec does not mention never fire.
        prop_assert!(!a.fire(site::WORKER_PANIC));
        prop_assert_eq!(a.injected(site::WORKER_PANIC), 0);
    }

    /// Enumeration under an injected what-if failure never hangs, never
    /// violates a constraint, and never invents budget: every tuner
    /// returns a valid configuration within `k` and `budget`. When the
    /// fault fired mid-search the session reports `Degraded`; when the
    /// session finished before its trigger, the result is bit-identical
    /// to a fault-free run.
    #[test]
    fn enumeration_salvages_a_valid_config_under_whatif_faults(
        inst_seed in 0u64..100,
        seed in 0u64..16,
        k in 2usize..5,
        budget in 10usize..40,
        fail_after in 0u64..25,
    ) {
        let (opt, cands) = context(inst_seed);
        let req = TuningRequest::cardinality(k, budget).with_seed(seed);
        let plan = FaultPlan::parse(
            &format!("seed={seed};whatif.error=after{fail_after}"),
        ).unwrap();
        for (name, tuner) in &tuners() {
            let faults = SessionFaults::new(plan.clone());
            let ctx = TuningContext::new(&opt, &cands).with_faults(faults.clone());
            let r = tuner.tune(&ctx, &req);
            prop_assert!(r.config.len() <= k, "{}: |config| {} > k {}", name, r.config.len(), k);
            prop_assert!(r.calls_used <= budget, "{}: {} calls > budget {}", name, r.calls_used, budget);
            prop_assert!(
                (0.0..=1.0).contains(&r.improvement),
                "{}: improvement {} outside [0,1]", name, r.improvement
            );
            if faults.is_degraded() {
                prop_assert!(
                    r.stop_reason == Some(StopReason::Degraded),
                    "{}: degraded session must say so, got {:?}", name, r.stop_reason
                );
            } else {
                let clean = tuner.tune(&TuningContext::new(&opt, &cands), &req);
                prop_identical(&r, &clean)?;
            }
        }
    }

    /// The inert branch: `FaultPlan::none` and a latency-spike-only plan
    /// (which perturbs observability histograms, never costs) are both
    /// bit-invisible to the tuning result.
    #[test]
    fn inert_and_latency_only_plans_never_perturb_results(
        inst_seed in 0u64..100,
        seed in 0u64..16,
        k in 2usize..5,
        budget in 10usize..40,
    ) {
        let (opt, cands) = context(inst_seed);
        let req = TuningRequest::cardinality(k, budget).with_seed(seed);
        let latency = FaultPlan::parse(&format!("seed={seed};whatif.latency=p0.5")).unwrap();
        for (_name, tuner) in &tuners() {
            let plain = tuner.tune(&TuningContext::new(&opt, &cands), &req);
            let inert = tuner.tune(
                &TuningContext::new(&opt, &cands)
                    .with_faults(SessionFaults::new(FaultPlan::none())),
                &req,
            );
            prop_identical(&plain, &inert)?;
            let spiked = tuner.tune(
                &TuningContext::new(&opt, &cands)
                    .with_faults(SessionFaults::new(latency.clone())),
                &req,
            );
            prop_identical(&plain, &spiked)?;
        }
    }
}
