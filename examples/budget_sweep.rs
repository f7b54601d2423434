//! Sweep the what-if budget on a chosen benchmark and compare all six
//! tuners — a miniature of the paper's end-to-end evaluation.
//!
//! ```text
//! cargo run --release --example budget_sweep [-- <workload> [K]]
//! ```
//! `<workload>` is one of `tpch`, `tpcds`, `job`, `reald`, `realm`
//! (default `tpch`); `K` is the cardinality constraint (default 10).

use ixtune::baselines::{DbaBandits, DtaTuner, NoDba};
use ixtune::candidates::generate_default;
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer};
use ixtune::workload::gen::BenchmarkKind;

fn main() {
    let kind = std::env::args()
        .nth(1)
        .and_then(|s| BenchmarkKind::parse(&s))
        .unwrap_or(BenchmarkKind::TpcH);
    let k: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let instance = kind.generate();
    println!("{}", instance.stats());
    let cands = generate_default(&instance);
    let opt = SimulatedOptimizer::new(instance, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);

    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(VanillaGreedy),
        Box::new(TwoPhaseGreedy),
        Box::new(AutoAdminGreedy),
        Box::new(DbaBandits::default()),
        Box::new(NoDba::default()),
        Box::new(DtaTuner),
        Box::new(MctsTuner::default()),
    ];

    print!("{:>8}", "budget");
    for t in &tuners {
        print!(" | {:>17}", t.name());
    }
    println!();
    for &budget in kind.budget_grid() {
        print!("{budget:>8}");
        let req = TuningRequest::cardinality(k, budget).with_seed(1);
        for t in &tuners {
            let r = t.tune(&ctx, &req);
            print!(" | {:>16.1}%", r.improvement_pct());
        }
        println!();
    }
}
