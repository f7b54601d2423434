//! Bit-identity property tests for the compiled what-if kernel.
//!
//! DESIGN.md §9 promises that the compiled per-query plan tables are a
//! pure performance change: every cost the compiled kernel produces is
//! bit-for-bit the value the interpreted reference model computes,
//! including the deterministic `quirk_eps` jitter (which hashes the scan
//! slots and the accumulated total, so any float-op reordering would show
//! up immediately). The kernel serves every call; the interpreted model
//! survives as `interpreted_what_if_cost`, the oracle these tests check
//! it against — on every cell real tuning sessions visit (synthetic
//! instances, every enumerator) and on swept cells of all five paper
//! benchmark instances, quirk on and off.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::prelude::*;
use ixtune_optimizer::{CostModel, SimulatedOptimizer, WhatIfOptimizer};
use ixtune_workload::gen::BenchmarkKind;
use proptest::prelude::*;

fn model(quirk: bool) -> CostModel {
    let mut m = CostModel::default();
    if quirk {
        m.quirk_eps = 0.05;
    }
    m
}

fn context(seed: u64, quirk: bool) -> (SimulatedOptimizer, CandidateSet) {
    let inst = ixtune_workload::gen::synth::instance(seed);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), model(quirk));
    (opt, cands)
}

/// Every `(query, config)` cell a session paid for prices the same bits
/// through the kernel and through the interpreted oracle.
fn prop_cells_match_oracle(
    name: &str,
    opt: &SimulatedOptimizer,
    result: &TuningResult,
) -> Result<(), TestCaseError> {
    prop_assert!(!result.layout.cells().is_empty(), "{name} spent no calls");
    for (q, cfg) in result.layout.cells() {
        let got = opt.what_if_cost(*q, cfg);
        let want = opt.interpreted_what_if_cost(*q, cfg);
        prop_assert!(
            got.to_bits() == want.to_bits(),
            "{name} q={q:?}: kernel {got} vs oracle {want}"
        );
    }
    Ok(())
}

fn tuners() -> Vec<(&'static str, Box<dyn Tuner>)> {
    vec![
        ("vanilla", Box::new(VanillaGreedy)),
        ("two-phase", Box::new(TwoPhaseGreedy)),
        ("autoadmin", Box::new(AutoAdminGreedy)),
        ("mcts", Box::new(MctsTuner::default())),
    ]
}

/// A small deterministic family of configurations over an `n`-candidate
/// universe: empty, singletons, pairs, and triples spread by a fixed
/// stride.
fn config_sweep(n: usize, count: usize) -> Vec<IndexSet> {
    (0..count)
        .map(|i| {
            IndexSet::from_ids(
                n,
                (0..i % 4).map(move |j| IndexId::from((i * 31 + j * 17 + 1) % n)),
            )
        })
        .collect()
}

proptest! {
    // Each case runs 5 enumerator sessions and re-prices their cells.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The kernel matches the interpreted oracle bit for bit on every
    /// cell that whole tuning sessions visit, for every enumerator.
    #[test]
    fn compiled_kernel_matches_the_oracle_on_visited_cells(
        inst_seed in 0u64..200,
        seed in 0u64..16,
        k in 2usize..5,
        budget in 10usize..40,
        quirk in any::<bool>(),
    ) {
        let (opt, cands) = context(inst_seed, quirk);
        prop_assert_eq!(
            opt.compiled_query_count(),
            WhatIfOptimizer::num_queries(&opt)
        );
        let req = TuningRequest::cardinality(k, budget).with_seed(seed);
        for (name, tuner) in &tuners() {
            let result = tuner.tune(&TuningContext::new(&opt, &cands), &req);
            prop_cells_match_oracle(name, &opt, &result)?;
        }
    }

    /// Individual what-if costs match the interpreted oracle bit for bit
    /// on arbitrary (query, configuration) cells.
    #[test]
    fn compiled_costs_are_bit_identical(
        inst_seed in 0u64..300,
        quirk in any::<bool>(),
        picks in proptest::collection::vec((0usize..4096, 0usize..1024), 1..40),
    ) {
        let (opt, _) = context(inst_seed, quirk);
        let n = WhatIfOptimizer::num_candidates(&opt);
        let m = WhatIfOptimizer::num_queries(&opt);
        for (ci, qi) in picks {
            let cfg = IndexSet::from_ids(
                n,
                (0..ci % 4).map(|j| IndexId::from((ci * 31 + j * 17 + 1) % n)),
            );
            let q = QueryId::from(qi % m);
            let got = opt.what_if_cost(q, &cfg);
            let want = opt.interpreted_what_if_cost(q, &cfg);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}

/// Every paper benchmark instance, quirk on and off: a deterministic
/// sweep of configuration cells plus the cells of one greedy session per
/// instance, kernel versus interpreted oracle.
#[test]
fn benchmark_instances_compile_bit_identically() {
    for kind in BenchmarkKind::ALL {
        for quirk in [false, true] {
            let inst = kind.generate();
            let cands = generate_default(&inst);
            let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), model(quirk));
            let n = cands.len();
            let m = WhatIfOptimizer::num_queries(&opt);
            for cfg in config_sweep(n, 64) {
                for qi in 0..m.min(10) {
                    let q = QueryId::from(qi);
                    let got = opt.what_if_cost(q, &cfg);
                    let want = opt.interpreted_what_if_cost(q, &cfg);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kind:?} quirk={quirk} q={qi}: compiled {got} vs interpreted {want}"
                    );
                }
            }

            // One full greedy session per instance: every cell it paid
            // for prices the same through the kernel and the oracle.
            let req = TuningRequest::cardinality(4, 30).with_seed(7);
            let result = VanillaGreedy.tune(&TuningContext::new(&opt, &cands), &req);
            assert!(!result.layout.cells().is_empty(), "{kind:?} spent no calls");
            for (q, cfg) in result.layout.cells() {
                let got = opt.what_if_cost(*q, cfg);
                let want = opt.interpreted_what_if_cost(*q, cfg);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kind:?} quirk={quirk} session cell q={q:?}"
                );
            }
        }
    }
}
