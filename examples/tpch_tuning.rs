//! Tune the full TPC-H benchmark under different budgets — the scenario of
//! the paper's Figure 17 — and print the recommended indexes.
//!
//! ```text
//! cargo run --release --example tpch_tuning [-- <scale-factor>]
//! ```

use ixtune::candidates::generate_default;
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer};
use ixtune::workload::gen::tpch;

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);

    let instance = tpch::generate(sf);
    println!("TPC-H sf={sf}: {}", instance.stats());

    let cands = generate_default(&instance);
    println!("{} candidate indexes generated\n", cands.len());
    let opt = SimulatedOptimizer::new(instance, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);

    println!(
        "{:>8} | {:>28} | {:>28}",
        "budget", "MCTS", "AutoAdmin greedy"
    );
    for budget in [50usize, 100, 200, 500, 1000] {
        let req = TuningRequest::cardinality(10, budget).with_seed(1);
        let mcts = MctsTuner::default().tune(&ctx, &req);
        let greedy = AutoAdminGreedy.tune(&ctx, &req);
        println!(
            "{budget:>8} | {:>20.1}% ({:>4} calls) | {:>20.1}% ({:>4} calls)",
            mcts.improvement_pct(),
            mcts.calls_used,
            greedy.improvement_pct(),
            greedy.calls_used
        );
    }

    // Show the actual recommendation at the largest budget.
    let best = MctsTuner::default().tune(&ctx, &TuningRequest::cardinality(10, 1_000).with_seed(1));
    println!("\nrecommended configuration at B=1000 (K=10):");
    for id in best.config.iter() {
        let idx = opt.candidate(id);
        println!(
            "  {}  (~{} MB)",
            idx.describe(opt.schema()),
            idx.size_bytes(opt.schema()) / (1 << 20)
        );
    }
    println!(
        "total size ~{} MB, improvement {:.1}%",
        opt.config_size_bytes(&best.config) / (1 << 20),
        best.improvement_pct()
    );
}
