//! End-to-end tuner benchmarks: one full budgeted tuning session per
//! iteration, per algorithm — the cost of regenerating one figure cell.

use criterion::{criterion_group, criterion_main, Criterion};
use ixtune_baselines::{DbaBandits, DtaTuner, NoDba};
use ixtune_bench::Session;
use ixtune_core::prelude::*;
use ixtune_workload::gen::BenchmarkKind;
use std::hint::black_box;

fn bench_tuners(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuners-tpch-b200-k10");
    group.sample_size(10);

    let session = Session::build(BenchmarkKind::TpcH);
    let ctx = session.ctx();
    let req = TuningRequest::cardinality(10, 200).with_seed(1);

    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(VanillaGreedy),
        Box::new(TwoPhaseGreedy),
        Box::new(AutoAdminGreedy),
        Box::new(MctsTuner::default()),
        Box::new(DbaBandits::default()),
        Box::new(NoDba::default()),
        Box::new(DtaTuner),
    ];
    for tuner in &tuners {
        group.bench_function(tuner.name(), |b| {
            b.iter(|| black_box(tuner.tune(&ctx, &req)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tuners);
criterion_main!(benches);
