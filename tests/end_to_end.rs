//! End-to-end integration tests: the full pipeline (workload → candidates →
//! simulated optimizer → budgeted tuning → oracle evaluation) on every
//! benchmark workload and every tuner.

use ixtune::baselines::{DbaBandits, DtaTuner, NoDba};
use ixtune::candidates::{generate_default, CandidateSet};
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer};
use ixtune::workload::gen::{synth, BenchmarkKind};

fn session(kind: BenchmarkKind) -> (SimulatedOptimizer, CandidateSet) {
    let inst = kind.generate();
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    (opt, cands)
}

fn all_tuners() -> Vec<Box<dyn Tuner>> {
    vec![
        Box::new(VanillaGreedy),
        Box::new(TwoPhaseGreedy),
        Box::new(AutoAdminGreedy),
        Box::new(MctsTuner::default()),
        Box::new(DbaBandits::default()),
        Box::new(NoDba::default()),
        Box::new(DtaTuner),
    ]
}

#[test]
fn every_tuner_respects_budget_and_constraints_on_tpch() {
    let (opt, cands) = session(BenchmarkKind::TpcH);
    let ctx = TuningContext::new(&opt, &cands);
    let req = TuningRequest::cardinality(5, 120).with_seed(1);
    for tuner in all_tuners() {
        let r = tuner.tune(&ctx, &req);
        assert!(
            r.calls_used <= 120,
            "{} overspent: {}",
            r.algorithm,
            r.calls_used
        );
        assert!(r.config.len() <= 5, "{} too many indexes", r.algorithm);
        assert!(
            (0.0..=1.0).contains(&r.improvement),
            "{} improvement out of range: {}",
            r.algorithm,
            r.improvement
        );
        assert_eq!(
            r.layout.len(),
            r.calls_used,
            "{} layout mismatch",
            r.algorithm
        );
    }
}

#[test]
fn pipeline_works_on_every_benchmark() {
    // One cheap tuning run per workload — generation, candidate derivation,
    // costing, and search must hold together everywhere.
    for kind in BenchmarkKind::ALL {
        let (opt, cands) = session(kind);
        let ctx = TuningContext::new(&opt, &cands);
        let r = MctsTuner::default().tune(&ctx, &TuningRequest::cardinality(5, 100).with_seed(3));
        assert!(r.calls_used <= 100, "{}", kind.name());
        assert!(r.improvement >= 0.0, "{}", kind.name());
    }
}

#[test]
fn mcts_beats_vanilla_greedy_at_small_budget_on_tpcds() {
    // The paper's headline (Figure 8): under tight budgets MCTS finds far
    // better configurations than FCFS vanilla greedy.
    let (opt, cands) = session(BenchmarkKind::TpcDs);
    let ctx = TuningContext::new(&opt, &cands);
    let req = TuningRequest::cardinality(10, 1_000);
    let mcts = MctsTuner::default().tune(&ctx, &req.with_seed(1));
    let vanilla = VanillaGreedy.tune(&ctx, &req.with_seed(0));
    assert!(
        mcts.improvement > vanilla.improvement + 0.10,
        "MCTS {:.3} should clearly beat vanilla {:.3} at B=1000",
        mcts.improvement,
        vanilla.improvement
    );
}

#[test]
fn mcts_beats_vanilla_by_an_order_of_magnitude_on_real_m() {
    // §7.1.3: on Real-M vanilla greedy stays near 0% while MCTS reaches
    // ~35-40% — a 7-8x relative gap.
    let (opt, cands) = session(BenchmarkKind::RealM);
    let ctx = TuningContext::new(&opt, &cands);
    let req = TuningRequest::cardinality(10, 2_000);
    let mcts = MctsTuner::default().tune(&ctx, &req.with_seed(1));
    let vanilla = VanillaGreedy.tune(&ctx, &req.with_seed(0));
    assert!(
        vanilla.improvement < 0.05,
        "vanilla {:.3}",
        vanilla.improvement
    );
    assert!(mcts.improvement > 0.25, "mcts {:.3}", mcts.improvement);
}

#[test]
fn improvement_grows_with_budget_for_greedy_variants() {
    let (opt, cands) = session(BenchmarkKind::TpcH);
    let ctx = TuningContext::new(&opt, &cands);
    let req = TuningRequest::cardinality(10, 50);
    for tuner in [&VanillaGreedy as &dyn Tuner, &TwoPhaseGreedy] {
        let lo = tuner.tune(&ctx, &req).improvement;
        let hi = tuner.tune(&ctx, &req.with_budget(2_000)).improvement;
        assert!(hi >= lo - 0.05, "{}: lo {lo} hi {hi}", tuner.name());
    }
}

#[test]
fn storage_constraint_is_honored_by_every_tuner() {
    let (opt, cands) = session(BenchmarkKind::TpcH);
    let ctx = TuningContext::new(&opt, &cands);
    let limit = opt.schema().database_size_bytes() / 2;
    let req = TuningRequest::new(Constraints::with_storage(10, limit), 150).with_seed(2);
    for tuner in all_tuners() {
        let r = tuner.tune(&ctx, &req);
        assert!(
            opt.config_size_bytes(&r.config) <= limit,
            "{} violated storage limit",
            r.algorithm
        );
    }
}

#[test]
fn stochastic_tuners_are_reproducible() {
    let (opt, cands) = session(BenchmarkKind::TpcH);
    let ctx = TuningContext::new(&opt, &cands);
    let req = TuningRequest::cardinality(5, 150).with_seed(99);
    for tuner in [
        Box::new(MctsTuner::default()) as Box<dyn Tuner>,
        Box::new(DbaBandits::default()),
        Box::new(NoDba::default()),
    ] {
        assert!(
            tuner.is_stochastic(),
            "{} should be stochastic",
            tuner.name()
        );
        let a = tuner.tune(&ctx, &req);
        let b = tuner.tune(&ctx, &req);
        assert_eq!(a.config, b.config, "{} not deterministic", a.algorithm);
        assert_eq!(a.calls_used, b.calls_used);
    }
}

#[test]
fn compressed_multi_instance_workload_tunes_like_the_original() {
    // The paper's multi-instance protocol: compress instances per template
    // (weights accumulate), then tune the compressed workload. The
    // recommendation quality evaluated on the *full* multi-instance
    // workload should be close to tuning it directly, at a fraction of the
    // query count.
    use ixtune::workload::compress::compress;
    use ixtune::workload::gen::tpch;
    use ixtune::workload::BenchmarkInstance;

    let multi = tpch::generate_multi(1.0, 4, 11);
    let compressed = compress(&multi.workload);
    assert_eq!(compressed.workload.len(), 22);

    let full_cands = generate_default(&multi);
    let full_opt = SimulatedOptimizer::new(
        multi.clone(),
        full_cands.indexes.clone(),
        CostModel::default(),
    );
    let full_ctx = TuningContext::new(&full_opt, &full_cands);

    let comp_inst = BenchmarkInstance::new(multi.schema.clone(), compressed.workload);
    let comp_cands = generate_default(&comp_inst);
    let comp_opt =
        SimulatedOptimizer::new(comp_inst, comp_cands.indexes.clone(), CostModel::default());
    let comp_ctx = TuningContext::new(&comp_opt, &comp_cands);

    let req = TuningRequest::cardinality(10, 500).with_seed(1);
    let direct = MctsTuner::default().tune(&full_ctx, &req);
    let via_compression = MctsTuner::default().tune(&comp_ctx, &req);

    // Evaluate the compressed recommendation against the FULL workload by
    // mapping candidate definitions across universes.
    let mapped: Vec<_> = via_compression
        .config
        .iter()
        .filter_map(|id| {
            let def = comp_opt.candidate(id);
            full_cands.indexes.iter().position(|d| d == def)
        })
        .collect();
    assert!(
        !mapped.is_empty(),
        "compressed candidates must exist in the full universe"
    );
    let mapped_set = ixtune::common::IndexSet::from_ids(
        full_ctx.universe(),
        mapped.into_iter().map(ixtune::common::IndexId::from),
    );
    let mapped_improvement = full_ctx.oracle_improvement(&mapped_set);
    assert!(
        mapped_improvement > direct.improvement - 0.15,
        "compression-based tuning {:.3} should track direct tuning {:.3}",
        mapped_improvement,
        direct.improvement
    );
}

#[test]
fn synthetic_instances_round_trip_all_tuners() {
    for seed in [11u64, 12, 13] {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        if cands.is_empty() {
            continue;
        }
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        for tuner in all_tuners() {
            let r = tuner.tune(&ctx, &TuningRequest::cardinality(3, 40).with_seed(seed));
            assert!(r.calls_used <= 40);
            assert!(r.config.len() <= 3);
        }
    }
}
