//! Property tests for cooperative interruption and checkpoint/resume.
//!
//! DESIGN.md §6 promises two invariants on top of the existing
//! determinism guarantees:
//!
//! 1. **Resume determinism** — an MCTS session suspended at an arbitrary
//!    point, serialized to the versioned JSON snapshot, deserialized, and
//!    resumed produces a `TuningResult` bit-identical to the uninterrupted
//!    run: configuration, call count, improvement bits, the exact call
//!    layout, and every execution-invariant telemetry counter. This holds
//!    across *any* number of suspension points.
//! 2. **Prompt cancellation** — a cancelled tuner returns best-so-far
//!    within one enumeration step / episode, with a `Cancelled` stop
//!    reason and without overshooting the budget it had already spent.
//!
//! The version-1 fixture is a checkpoint an earlier build wrote for
//! `synth:7`, MCTS, K 3, B 300, seed 9, suspended after 50 calls. Besides
//! the facts version 2 keeps, it stores copies (a cache image, a meter,
//! node configurations); it must resume to the uninterrupted result, and
//! edited copies must not change that.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::checkpoint::MctsCheckpoint;
use ixtune_core::prelude::*;
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::{synth, tpch};
use proptest::prelude::*;

fn context(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
    let inst = synth::instance(seed);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    (opt, cands)
}

fn strip_execution(mut t: SessionTelemetry) -> SessionTelemetry {
    t.parallel_scans = 0;
    t.wall_clock_ms = 0.0;
    t
}

fn prop_identical(a: &TuningResult, b: &TuningResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.config, &b.config);
    prop_assert_eq!(a.calls_used, b.calls_used);
    prop_assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
    prop_assert_eq!(a.layout.cells(), b.layout.cells());
    prop_assert_eq!(a.layout.fingerprint(), b.layout.fingerprint());
    prop_assert_eq!(a.stop_reason, b.stop_reason);
    prop_assert_eq!(strip_execution(a.telemetry), strip_execution(b.telemetry));
    Ok(())
}

/// Drive a resumable MCTS session to completion, suspending and resuming
/// through a JSON round trip every `pause` budget calls. Returns the final
/// result and how many suspensions actually happened.
fn run_with_suspensions(
    tuner: &MctsTuner,
    ctx: &TuningContext<'_>,
    req: &TuningRequest,
    pause: usize,
) -> (TuningResult, usize) {
    let mut suspensions = 0;
    let mut outcome =
        tuner.run_resumable(ctx, req, &StopSignal::armed().suspend_after_calls(pause));
    loop {
        match outcome {
            MctsOutcome::Finished(result, _) => return (result, suspensions),
            MctsOutcome::Suspended(ckpt) => {
                suspensions += 1;
                // Full serialization round trip: what resumes is exactly
                // what a daemon would read back off disk.
                let restored = MctsCheckpoint::from_json(&ckpt.to_json()).expect("roundtrip");
                // Push the next suspension point past the calls already
                // spent so the session always makes progress.
                let next = restored.trace.len() + pause.max(1);
                let stop = StopSignal::armed().suspend_after_calls(next);
                outcome = tuner
                    .resume(ctx, &restored, &stop)
                    .expect("checkpoint accepted by the tuner that wrote it");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Suspend/serialize/resume at an arbitrary cadence ≡ uninterrupted.
    #[test]
    fn mcts_resume_is_bit_identical(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        k in 2usize..6,
        budget in 20usize..120,
        pause in 1usize..60,
    ) {
        let (opt, cands) = context(inst_seed);
        let ctx = TuningContext::new(&opt, &cands);
        let tuner = MctsTuner::default();
        let req = TuningRequest::cardinality(k, budget).with_seed(seed);

        let uninterrupted = tuner.tune(&ctx, &req);
        let (resumed, suspensions) = run_with_suspensions(&tuner, &ctx, &req, pause);
        prop_identical(&uninterrupted, &resumed)?;
        // With a pause below the budget the session really was cut at
        // least once — the property is not vacuous.
        if budget >= 2 * pause {
            prop_assert!(suspensions >= 1, "pause={pause} budget={budget} never suspended");
        }
    }

    /// Cancelling an MCTS session mid-flight returns best-so-far promptly:
    /// the call count stops at the episode that observed the trigger, the
    /// stop reason says `Cancelled`, and the result is still a valid
    /// (constraint-respecting) configuration.
    #[test]
    fn mcts_cancel_returns_best_so_far(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        cancel_at in 1usize..40,
    ) {
        let (opt, cands) = context(inst_seed);
        let ctx = TuningContext::new(&opt, &cands);
        let tuner = MctsTuner::default();
        let budget = 100_000;
        let req = TuningRequest::cardinality(4, budget).with_seed(seed);
        let stop = StopSignal::armed().cancel_after_calls(cancel_at);
        let r = tuner.tune_with_stop(&ctx, &req, &stop);
        prop_assert_eq!(r.stop_reason, Some(StopReason::Cancelled));
        prop_assert!(r.config.len() <= 4);
        prop_assert!(r.calls_used >= cancel_at.min(1));
        // The priors phase is atomic (it is the checkpoint baseline), so
        // cancellation lands at the first episode-boundary poll after it;
        // past that, the overshoot is bounded by one episode, which
        // evaluates at most k+1 configurations over the workload.
        let priors = ixtune_core::mcts::priors::priors_budget(budget, &ctx);
        let episode = (4 + 1) * ctx.num_queries();
        prop_assert!(
            r.calls_used <= cancel_at.max(priors) + episode,
            "cancelled at {} but spent {} (priors ≤ {}, episode ≤ {})",
            cancel_at,
            r.calls_used,
            priors,
            episode
        );
    }

    /// The greedy family honors cancellation at step granularity and
    /// reports it; an unarmed signal is observationally absent.
    #[test]
    fn greedy_family_cancellation(
        inst_seed in 0u64..500,
        k in 2usize..6,
        cancel_at in 0usize..30,
    ) {
        let (opt, cands) = context(inst_seed);
        let ctx = TuningContext::new(&opt, &cands);
        let tuners: Vec<Box<dyn Tuner>> = vec![
            Box::new(VanillaGreedy),
            Box::new(TwoPhaseGreedy),
            Box::new(AutoAdminGreedy),
        ];
        let req = TuningRequest::cardinality(k, 100_000);
        for tuner in &tuners {
            let stop = StopSignal::armed().cancel_after_calls(cancel_at);
            let r = tuner.tune_with_stop(&ctx, &req, &stop);
            prop_assert_eq!(r.stop_reason, Some(StopReason::Cancelled));
            prop_assert!(r.config.len() <= k);
            // A greedy step scans ≤ |pool| candidates over ≤ |W| queries;
            // cancellation lands before the *next* step starts.
            let step_bound = ctx.universe() * ctx.num_queries().max(1);
            prop_assert!(
                r.calls_used <= cancel_at + step_bound,
                "{}: cancelled at {} but spent {}",
                tuner.name(),
                cancel_at,
                r.calls_used
            );

            // Unarmed signal ≡ plain tune, bit for bit.
            let plain = tuner.tune(&ctx, &req);
            let unarmed = tuner.tune_with_stop(&ctx, &req, &StopSignal::never());
            prop_identical(&plain, &unarmed)?;
        }
    }
}

/// A TPC-H session of a few hundred calls, suspended every `pause` calls
/// once its priors are bought: every resume lands after tree nodes have
/// started keeping ε-greedy draw lists, which no checkpoint holds, and
/// the result still equals the uninterrupted run.
#[test]
fn tpch_resumes_after_nodes_keep_draw_lists() {
    let inst = tpch::generate(1.0);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let tuner = MctsTuner::default();
    let req = TuningRequest::cardinality(5, 400).with_seed(3);
    let uninterrupted = tuner.tune(&ctx, &req);
    assert_eq!(uninterrupted.calls_used, 400);
    let priors = ixtune_core::mcts::priors::priors_budget(400, &ctx);
    for pause in [37, 64] {
        let (resumed, suspensions) = run_with_suspensions(&tuner, &ctx, &req, pause);
        prop_identical(&uninterrupted, &resumed).unwrap();
        assert!(
            suspensions >= (400 - priors) / pause,
            "pause={pause}: {suspensions} suspensions after {priors} prior calls"
        );
    }
}

/// Deterministic (non-proptest) checks that exercise the flag-based
/// cancel/suspend path the service uses, rather than the call-count
/// triggers.
#[test]
fn pre_cancelled_signal_stops_before_any_search() {
    let (opt, cands) = context(7);
    let ctx = TuningContext::new(&opt, &cands);
    let stop = StopSignal::armed();
    stop.cancel();
    let req = TuningRequest::cardinality(3, 1_000).with_seed(1);
    for tuner in [
        Box::new(VanillaGreedy) as Box<dyn Tuner>,
        Box::new(TwoPhaseGreedy),
        Box::new(AutoAdminGreedy),
    ] {
        let r = tuner.tune_with_stop(&ctx, &req, &stop);
        assert_eq!(
            r.stop_reason,
            Some(StopReason::Cancelled),
            "{}",
            tuner.name()
        );
        assert!(r.config.is_empty(), "{} searched anyway", tuner.name());
    }
    // MCTS pays for its priors phase (it is not interruptible — it is the
    // checkpoint's baseline) but must stop at the first episode poll.
    let r = MctsTuner::default().tune_with_stop(&ctx, &req, &stop);
    assert_eq!(r.stop_reason, Some(StopReason::Cancelled));
    assert!(r.calls_used <= ixtune_core::mcts::priors::priors_budget(1_000, &ctx));
}

#[test]
fn suspend_flag_on_non_resumable_tuner_degrades_to_cancel() {
    let (opt, cands) = context(9);
    let ctx = TuningContext::new(&opt, &cands);
    let stop = StopSignal::armed();
    stop.request_suspend();
    let req = TuningRequest::cardinality(3, 1_000);
    let r = VanillaGreedy.tune_with_stop(&ctx, &req, &stop);
    assert_eq!(r.stop_reason, Some(StopReason::Cancelled));

    // MCTS through the plain `Tuner` entry point has no checkpoint to hand
    // back either: tune_with_stop treats the suspend as a cancel instead
    // of wedging.
    let r = MctsTuner::default().tune_with_stop(&ctx, &req.with_seed(2), &stop);
    assert_eq!(r.stop_reason, Some(StopReason::Cancelled));
}

#[test]
fn cancel_beats_suspend_when_both_requested() {
    let (opt, cands) = context(11);
    let ctx = TuningContext::new(&opt, &cands);
    let stop = StopSignal::armed();
    stop.request_suspend();
    stop.cancel();
    let req = TuningRequest::cardinality(3, 500).with_seed(3);
    match MctsTuner::default().run_resumable(&ctx, &req, &stop) {
        MctsOutcome::Finished(r, _) => {
            assert_eq!(r.stop_reason, Some(StopReason::Cancelled));
        }
        MctsOutcome::Suspended(_) => panic!("cancel must win over suspend"),
    }
}

const V1_SYNTH7: &str = include_str!("fixtures/mcts_v1_synth7.json");

/// Resume the version-1 fixture's JSON and compare the result with an
/// uninterrupted run of its request.
fn resume_v1(json: &str) -> Result<(), TestCaseError> {
    let (opt, cands) = context(7);
    let ctx = TuningContext::new(&opt, &cands);
    let ckpt = MctsCheckpoint::from_json(json).expect("version 1 parses");
    let tuner = MctsTuner::default();
    let uninterrupted = tuner.tune(&ctx, &ckpt.req);
    match tuner.resume(&ctx, &ckpt, &StopSignal::never()) {
        Ok(MctsOutcome::Finished(resumed, _)) => {
            prop_assert!(resumed.calls_used <= ckpt.req.budget);
            prop_assert_eq!(resumed.calls_used, resumed.layout.cells().len());
            prop_identical(&uninterrupted, &resumed)
        }
        Ok(MctsOutcome::Suspended(_)) => panic!("suspended with no trigger armed"),
        Err(e) => panic!("version 1 checkpoint refused: {e}"),
    }
}

#[test]
fn version_1_checkpoint_resumes_to_the_uninterrupted_result() {
    assert!(V1_SYNTH7.starts_with("{\"version\":1,"));
    // Written when the request and the counters both carried a
    // `session_threads` key: parsing skips it in each.
    assert!(V1_SYNTH7.contains("\"seed\":9,\"session_threads\":1}"));
    assert!(V1_SYNTH7.contains("\"other_calls\":0,\"session_threads\":0,"));
    resume_v1(V1_SYNTH7).unwrap();
}

/// The meter a version-1 checkpoint stores is a copy of the request's
/// budget and the trace's length. Neither a larger budget nor a smaller
/// count of calls used may outrank the facts it copied.
#[test]
fn version_1_meter_never_outranks_the_budget_or_the_trace() {
    let meter = "\"meter\":{\"budget\":300,\"used\":50}";
    assert!(V1_SYNTH7.contains(meter));
    for edited in [
        "\"meter\":{\"budget\":5000,\"used\":50}",
        "\"meter\":{\"budget\":300,\"used\":10}",
    ] {
        resume_v1(&V1_SYNTH7.replace(meter, edited)).unwrap();
    }
}
