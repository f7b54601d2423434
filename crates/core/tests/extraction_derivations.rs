//! Best-Greedy extraction runs the shared greedy driver with the
//! budget-free derivation evaluator: it returns Algorithm 1's
//! configuration over derived costs and counts exactly one derivation per
//! `(candidate, query)` cell it scans — none when it commits a step.

use ixtune_candidates::generate_default;
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::mcts::tree::Tree;
use ixtune_core::{greedy_enumerate, Constraints, Extraction, MeteredWhatIf, TuningContext};
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::synth;

#[test]
fn best_greedy_counts_one_derivation_per_scanned_cell() {
    let inst = synth::instance(7);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let n = ctx.universe();
    let nq = ctx.num_queries();
    let c = Constraints::cardinality(4);
    let pool: Vec<IndexId> = (0..n).map(IndexId::from).collect();
    let mut mw = MeteredWhatIf::new(&ctx, 2 * n);
    for i in 0..n {
        let id = IndexId::from(i);
        mw.what_if(QueryId::from(i % nq), &IndexSet::singleton(n, id));
        let pair = IndexSet::from_ids(n, [id, IndexId::from((i + 1) % n)]);
        mw.what_if(QueryId::from((i + 1) % nq), &pair);
    }
    // Algorithm 1 prices ∅ once, then every admissible candidate once per
    // step; a clone of the cache keeps its derivations off `mw`.
    let oracle = mw.cache().clone();
    let mut priced = 0usize;
    let naive = greedy_enumerate(&ctx, &c, &pool, |cfg| {
        priced += 1;
        oracle.derived_workload(cfg)
    });
    assert!(!naive.is_empty(), "the primed cache must drive a step");

    let before = mw.cache().derivations();
    let bg = Extraction::BestGreedy.extract(&ctx, &c, &mut mw, &Tree::new(n), None);
    assert_eq!(bg, naive);
    assert_eq!(
        mw.cache().derivations() - before,
        (priced - 1) * nq,
        "one derivation per scanned cell, none at commit"
    );
}
