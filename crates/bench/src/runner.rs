//! Grid runner: sweep (algorithm × K × budget × seed) and aggregate.
//!
//! Cells are independent tuning sessions, so the sweep fans out over a
//! work-stealing thread pool (`jobs` workers over scoped threads). Output
//! order is deterministic regardless of scheduling: cells are flattened in
//! serial order up front and collected by cell index, never by completion
//! order, so `jobs = 4` returns the exact `Vec<Cell>` that `jobs = 1` does
//! (modulo wall-clock readings).

use crate::session::Session;
use ixtune_core::budget::SessionTelemetry;
use ixtune_core::tuner::{Constraints, Tuner, TuningRequest, TuningResult};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// An algorithm entry in a sweep.
pub struct Algo {
    pub tuner: Box<dyn Tuner>,
}

impl Algo {
    pub fn new(tuner: impl Tuner + 'static) -> Self {
        Self {
            tuner: Box::new(tuner),
        }
    }
}

/// One aggregated grid cell.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Cell {
    pub algorithm: String,
    pub k: usize,
    pub budget: usize,
    /// Mean improvement in percent across seeds.
    pub mean_pct: f64,
    /// Standard deviation across seeds (0 for deterministic algorithms).
    pub std_pct: f64,
    pub seeds: usize,
    pub calls_used: usize,
    /// Session telemetry summed across this cell's seeds
    /// ([`SessionTelemetry::accumulate`]).
    pub telemetry: SessionTelemetry,
}

/// Aggregate per-seed results into a cell.
pub fn aggregate(algorithm: &str, k: usize, budget: usize, runs: &[TuningResult]) -> Cell {
    let vals: Vec<f64> = runs.iter().map(|r| r.improvement_pct()).collect();
    let n = vals.len().max(1) as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let mut telemetry = SessionTelemetry::default();
    for r in runs {
        telemetry.accumulate(&r.telemetry);
    }
    Cell {
        algorithm: algorithm.to_string(),
        k,
        budget,
        mean_pct: mean,
        std_pct: var.sqrt(),
        seeds: runs.len(),
        calls_used: runs.iter().map(|r| r.calls_used).max().unwrap_or(0),
        telemetry,
    }
}

/// Run `algos` over the cross product of `ks` × `budgets`, with `seeds`
/// seeds for stochastic algorithms, on `jobs` worker threads (`jobs <= 1`
/// runs inline). Each tuning session runs on the worker that claimed its
/// cell. `constraints` builds the constraint for each K (so storage
/// limits can be attached).
pub fn run_grid(
    session: &Session,
    algos: &[Algo],
    ks: &[usize],
    budgets: &[usize],
    seeds: &[u64],
    jobs: usize,
    constraints: impl Fn(usize) -> Constraints + Sync,
) -> Vec<Cell> {
    // Flatten the grid in serial order; this is the output order.
    let mut specs: Vec<(usize, usize, usize)> = Vec::new();
    for &k in ks {
        for &budget in budgets {
            for ai in 0..algos.len() {
                specs.push((k, budget, ai));
            }
        }
    }

    let run_cell = |&(k, budget, ai): &(usize, usize, usize)| -> Cell {
        let ctx = session.ctx();
        let algo = &algos[ai];
        let cons = constraints(k);
        let seed_list: &[u64] = if algo.tuner.is_stochastic() {
            seeds
        } else {
            &seeds[..1]
        };
        let runs: Vec<TuningResult> = seed_list
            .iter()
            .map(|&s| {
                // `Instant` is monotonic, so wall-clock readings cannot go
                // negative even if the system clock is adjusted mid-sweep.
                let start = Instant::now();
                let mut r = algo
                    .tuner
                    .tune(&ctx, &TuningRequest::new(cons, budget).with_seed(s));
                r.telemetry.wall_clock_ms = start.elapsed().as_secs_f64() * 1e3;
                r
            })
            .collect();
        aggregate(&algo.tuner.name(), k, budget, &runs)
    };

    if jobs <= 1 || specs.len() <= 1 {
        return specs.iter().map(run_cell).collect();
    }

    // Work stealing: workers pull the next unclaimed cell index; results
    // are filed by index so the merge is order-independent.
    let next = AtomicUsize::new(0);
    let workers = jobs.min(specs.len());
    let mut slots: Vec<Option<Cell>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done: Vec<(usize, Cell)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        done.push((i, run_cell(&specs[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, cell) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(cell);
            }
        }
    });
    slots
        .into_iter()
        .map(|c| c.expect("every grid cell is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_core::prelude::*;
    use ixtune_workload::gen::BenchmarkKind;

    #[test]
    fn aggregate_statistics() {
        use ixtune_common::IndexSet;
        use ixtune_core::matrix::Layout;
        let mk = |imp: f64| TuningResult {
            algorithm: "x".into(),
            config: IndexSet::empty(1),
            calls_used: 5,
            improvement: imp,
            layout: Layout::default(),
            telemetry: SessionTelemetry {
                what_if_calls: 5,
                cache_hits: 2,
                derivations: 3,
                other_calls: 5,
                wall_clock_ms: 1.5,
                ..SessionTelemetry::default()
            },
            stop_reason: None,
        };
        let cell = aggregate("x", 10, 100, &[mk(0.2), mk(0.4)]);
        assert!((cell.mean_pct - 30.0).abs() < 1e-9);
        assert!((cell.std_pct - 10.0).abs() < 1e-9);
        assert_eq!(cell.seeds, 2);
        assert_eq!(cell.calls_used, 5);
        // Telemetry sums across seeds.
        assert_eq!(cell.telemetry.what_if_calls, 10);
        assert_eq!(cell.telemetry.cache_hits, 4);
        assert_eq!(cell.telemetry.derivations, 6);
        assert_eq!(cell.telemetry.other_calls, 10);
        assert!((cell.telemetry.wall_clock_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn grid_runs_small_sweep() {
        let session = Session::build(BenchmarkKind::TpcH);
        let algos = vec![Algo::new(VanillaGreedy), Algo::new(MctsTuner::default())];
        let cells = run_grid(
            &session,
            &algos,
            &[5],
            &[50, 100],
            &[1, 2],
            1,
            Constraints::cardinality,
        );
        assert_eq!(cells.len(), 4);
        let mcts = cells.iter().find(|c| c.algorithm == "MCTS").unwrap();
        assert_eq!(mcts.seeds, 2);
        // MCTS attributes its calls to phases; the phase split covers every
        // budgeted call.
        let t = &mcts.telemetry;
        assert!(t.what_if_calls > 0);
        assert_eq!(
            t.priors_calls + t.selection_calls + t.rollout_calls + t.other_calls,
            t.what_if_calls
        );
        assert!(t.priors_calls > 0, "default MCTS bootstraps priors");
        let vg = cells
            .iter()
            .find(|c| c.algorithm == "Vanilla Greedy")
            .unwrap();
        assert_eq!(vg.seeds, 1);
        assert_eq!(vg.telemetry.other_calls, vg.telemetry.what_if_calls);
        assert!(vg.telemetry.wall_clock_ms > 0.0);
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let session = Session::build(BenchmarkKind::TpcH);
        let mk_algos = || {
            vec![
                Algo::new(VanillaGreedy),
                Algo::new(TwoPhaseGreedy),
                Algo::new(MctsTuner::default()),
            ]
        };
        let run = |jobs: usize| {
            run_grid(
                &session,
                &mk_algos(),
                &[3, 5],
                &[30, 60],
                &[1, 2],
                jobs,
                Constraints::cardinality,
            )
        };
        let strip_clock = |cells: Vec<Cell>| -> Vec<Cell> {
            cells
                .into_iter()
                .map(|mut c| {
                    // Wall clock is a measurement, not an output; everything
                    // else must be byte-identical.
                    c.telemetry.wall_clock_ms = 0.0;
                    c
                })
                .collect()
        };
        let serial = strip_clock(run(1));
        let parallel = strip_clock(run(4));
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }
}
