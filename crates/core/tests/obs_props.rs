//! Observability-invariance property tests.
//!
//! The contract (DESIGN.md §7): observability never perturbs results.
//! Running any enumerator with an enabled [`Obs`] handle — metrics
//! registry plus trace recorder attached — must be *bit-identical* to the
//! disabled run: same configuration, same call layout, same improvement
//! bits, same telemetry counters. (The handle keeps no counter: the
//! service's scrape sums [`SessionTelemetry`] over its sessions, which
//! its manager tests pin.)
//!
//! The same runs pin the span set: each run segment records one span per
//! phase it runs and nothing per step, episode or scan chunk, whatever
//! the budget.

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

/// Each served tuner with the phase spans one uninterrupted run records.
fn tuners() -> Vec<(&'static str, Box<dyn Tuner>, &'static [&'static str])> {
    vec![
        ("vanilla", Box::new(VanillaGreedy), &["greedy"]),
        ("twophase", Box::new(TwoPhaseGreedy), &["phase1", "phase2"]),
        (
            "autoadmin",
            Box::new(AutoAdminGreedy),
            &["phase1", "phase2"],
        ),
        (
            "mcts",
            Box::new(MctsTuner::default()),
            &["priors", "episodes", "extraction"],
        ),
    ]
}

/// Span names recorded under `scope`, in recording order.
fn span_names(tracer: &TraceRecorder, scope: u64) -> Vec<String> {
    tracer
        .records(Some(scope))
        .into_iter()
        .map(|r| r.name)
        .collect()
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
    /// off, for every enumerator; the observed run records exactly its
    /// phase spans.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        k in 2usize..6,
        budget in 0usize..60,
    ) {
        let (opt, cands) = context(inst_seed);
        let request = TuningRequest::cardinality(k, budget).with_seed(seed);
        for (name, tuner, phases) in tuners() {
            let plain_ctx = TuningContext::new(&opt, &cands);
            let plain = tuner.tune(&plain_ctx, &request);

            let registry = Arc::new(MetricsRegistry::new());
            let tracer = Arc::new(TraceRecorder::new(4096));
            let obs = Obs::enabled(Arc::clone(&registry), Arc::clone(&tracer), 17);
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
            let spans = span_names(&tracer, 17);
            prop_assert!(spans == phases, "{name}: spans {spans:?}");
        }
    }

    /// A suspended MCTS segment records `priors`, `episodes` and
    /// `capture`; the resumed segment records `episodes` and `extraction`.
    #[test]
    fn resumed_mcts_segments_record_their_phase_spans(
        inst_seed in 0u64..500,
        seed in 0u64..16,
        k in 2usize..6,
        budget in 20usize..120,
        pause in 1usize..10,
    ) {
        let (opt, cands) = context(inst_seed);
        let tracer = Arc::new(TraceRecorder::new(4096));
        let obs = Obs::enabled(Arc::new(MetricsRegistry::new()), Arc::clone(&tracer), 5);
        let ctx = TuningContext::new(&opt, &cands).with_obs(obs);
        let tuner = MctsTuner::default();
        let req = TuningRequest::cardinality(k, budget).with_seed(seed);

        let stop = StopSignal::armed().suspend_after_calls(pause);
        let outcome = tuner.run_resumable(&ctx, &req, &stop);
        let MctsOutcome::Suspended(ckpt) = outcome else {
            panic!("pause={pause} budget={budget} never suspended");
        };
        prop_assert_eq!(span_names(&tracer, 5), ["priors", "episodes", "capture"]);

        let resumed = tuner
            .resume(&ctx, &ckpt, &StopSignal::never())
            .expect("checkpoint accepted by the tuner that wrote it");
        prop_assert!(matches!(resumed, MctsOutcome::Finished(..)));
        prop_assert_eq!(
            span_names(&tracer, 5),
            ["priors", "episodes", "capture", "episodes", "extraction"]
        );
    }
}
