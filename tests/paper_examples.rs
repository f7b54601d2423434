//! The paper's worked examples, encoded as tests.
//!
//! * Figure 3 — candidate index generation for the two-query workload;
//! * Example 1 / Figure 4 — the greedy algorithm's step structure;
//! * Figure 5 — the budget-allocation-matrix fill patterns of the three
//!   greedy variants (row-major, column-major-first, atomic-only);
//! * Figure 6/7 — MDP transitions are deterministic insertions, terminal
//!   states sit at depth K.

use ixtune::candidates::generate_default;
use ixtune::common::{IndexId, IndexSet};
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer};
use ixtune::workload::sql::parse_workload;
use ixtune::workload::{BenchmarkInstance, ColType, Schema, TableBuilder};

/// The workload of Figure 3: R(a, b), S(c, d) and queries Q1, Q2.
fn figure3_instance() -> BenchmarkInstance {
    let mut schema = Schema::new();
    schema
        .add_table(
            TableBuilder::new("r", 1_000_000)
                .key("a", ColType::Int)
                .col("b", ColType::Int, 10_000)
                .build(),
        )
        .unwrap();
    schema
        .add_table(
            TableBuilder::new("s", 4_000_000)
                .key("c", ColType::Int)
                .col("d", ColType::Int, 1_000)
                .build(),
        )
        .unwrap();
    let workload = parse_workload(
        &schema,
        "fig3",
        &[
            (
                "Q1",
                "SELECT a, d FROM r, s WHERE r.b = s.c AND r.a = 5 AND s.d > 200",
            ),
            ("Q2", "SELECT a FROM r, s WHERE r.b = s.c AND r.a = 40"),
        ],
    )
    .unwrap();
    BenchmarkInstance::new(schema, workload)
}

#[test]
fn figure3_candidates_match_the_papers_shapes() {
    let inst = figure3_instance();
    let cands = generate_default(&inst);
    let descs: Vec<String> = cands
        .indexes
        .iter()
        .map(|i| i.describe(&inst.schema))
        .collect();
    // I1 = [R.a; R.b]: filter index leading on a, carrying b.
    assert!(descs.iter().any(|d| d == "r(a; b)"), "{descs:?}");
    // I2 = [R.b; R.a]: join index leading on b, carrying a (our generator
    // may promote the carried column to a trailing key — same shape).
    assert!(
        descs.iter().any(|d| d == "r(b; a)" || d == "r(b, a)"),
        "{descs:?}"
    );
    // I3 = [S.c; S.d]: join index leading on c, carrying d.
    assert!(
        descs.iter().any(|d| d == "s(c; d)" || d == "s(c, d)"),
        "{descs:?}"
    );
    // I4 = [S.d; S.c]: filter index leading on d, carrying c.
    assert!(
        descs.iter().any(|d| d == "s(d; c)" || d == "s(d, c)"),
        "{descs:?}"
    );
    // I5 = [S.c; ()]: bare join index on c (from Q2, which doesn't read d).
    assert!(descs.iter().any(|d| d == "s(c)"), "{descs:?}");
}

#[test]
fn example1_greedy_monotone_steps_and_early_stop() {
    // Greedy commits one index per step and each step's cost is no worse
    // than the previous one (Example 1 / Figure 4 structure).
    let inst = figure3_instance();
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(2, 100_000));
    assert!(r.config.len() <= 2);
    assert!(r.improvement > 0.0, "Figure 3's workload is improvable");

    // The greedy visits singletons before any pair (step structure): in the
    // layout, the first calls are all for size-1 configurations.
    let sizes: Vec<usize> = r.layout.cells().iter().map(|(_, c)| c.len()).collect();
    let first_pair = sizes.iter().position(|&s| s == 2).unwrap_or(sizes.len());
    assert!(
        sizes[..first_pair].iter().all(|&s| s == 1),
        "singletons first: {sizes:?}"
    );
}

#[test]
fn figure5_vanilla_fill_is_row_major() {
    let inst = figure3_instance();
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let r = VanillaGreedy.tune(&ctx, &TuningRequest::cardinality(2, 7));
    assert!(r.layout.is_row_major(), "Figure 5(b): row-major FCFS fill");
}

#[test]
fn figure5_twophase_fill_starts_column_major() {
    let inst = figure3_instance();
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    // Budget small enough to stay inside phase 1.
    let r = TwoPhaseGreedy.tune(&ctx, &TuningRequest::cardinality(2, 4));
    assert!(
        r.layout.is_column_major(),
        "Figure 5(c): phase 1 fills query columns first"
    );
}

#[test]
fn figure5_autoadmin_only_fills_atomic_rows() {
    let inst = figure3_instance();
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let r = AutoAdminGreedy.tune(&ctx, &TuningRequest::cardinality(2, 1_000));
    assert!(
        r.layout.calls_by_config_size().keys().all(|&s| s <= 2),
        "Figure 5(d): atomic configurations only"
    );
}

#[test]
fn figure6_mdp_transitions_are_deterministic_insertions() {
    // s' = s ∪ {a}: IndexSet::with models the MDP transition function.
    let s = IndexSet::from_ids(3, [IndexId::new(1)]);
    let s2 = s.with(IndexId::new(2));
    assert!(s2.contains(IndexId::new(1)) && s2.contains(IndexId::new(2)));
    assert_eq!(s2.len(), 2);
    // Applying the same action twice is idempotent (the action set excludes
    // indexes already in the state).
    assert_eq!(s2.with(IndexId::new(2)), s2);
    // Action set A(s) = I − s.
    let actions: Vec<IndexId> = s.complement_iter().collect();
    assert_eq!(actions, vec![IndexId::new(0), IndexId::new(2)]);
}

#[test]
fn figure7_episode_expands_tree_and_respects_terminal_depth() {
    let inst = figure3_instance();
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let k = 2;
    let r = MctsTuner::default().tune(&ctx, &TuningRequest::cardinality(k, 60).with_seed(5));
    // Terminal states have |s| = K, so nothing larger is ever evaluated.
    assert!(
        r.layout.cells().iter().all(|(_, c)| c.len() <= k),
        "no evaluated configuration may exceed K"
    );
}
