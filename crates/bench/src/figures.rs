//! One runner per table/figure of the paper's evaluation (§7 and the
//! appendix). Each returns the rendered report text and writes its CSV and
//! JSON results into the output directory. See DESIGN.md §4 for the index.

use crate::report::{render_series, render_table, write_results};
use crate::runner::{run_grid, Algo, Cell};
use crate::session::Session;
use ixtune_baselines::{DbaBandits, DtaTuner, NoDba};
use ixtune_core::prelude::*;
use ixtune_optimizer::{LatencyModel, TuningClock};
use ixtune_workload::gen::BenchmarkKind;
use ixtune_workload::WorkloadStats;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Shared experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    pub out_dir: PathBuf,
    /// Seeds for stochastic tuners (the paper uses 5).
    pub seeds: Vec<u64>,
    /// Cardinality constraints swept (the paper uses {5, 10, 20}).
    pub ks: Vec<usize>,
    /// Worker threads for grid sweeps (1 = serial). Each worker runs one
    /// tuning session at a time, on its own thread.
    pub jobs: usize,
}

impl ExpConfig {
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        Self {
            out_dir: out_dir.into(),
            seeds: vec![1, 2, 3, 4, 5],
            ks: vec![5, 10, 20],
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Reduced grid for smoke runs.
    pub fn quick(mut self) -> Self {
        self.seeds.truncate(2);
        self.ks = vec![10];
        self
    }
}

fn greedy_algos() -> Vec<Algo> {
    vec![
        Algo::new(VanillaGreedy),
        Algo::new(TwoPhaseGreedy),
        Algo::new(AutoAdminGreedy),
        Algo::new(MctsTuner::default()),
    ]
}

fn rl_algos() -> Vec<Algo> {
    vec![
        Algo::new(DbaBandits::default()),
        Algo::new(NoDba::default()),
        Algo::new(MctsTuner::default()),
    ]
}

fn sweep(
    session: &Session,
    algos: Vec<Algo>,
    cfg: &ExpConfig,
    name: &str,
    title: &str,
    constraints: impl Fn(usize) -> Constraints + Sync,
) -> String {
    let budgets = session.kind.budget_grid();
    let mut out = String::new();
    let mut all_cells: Vec<Cell> = Vec::new();
    for &k in &cfg.ks {
        let cells = run_grid(
            session,
            &algos,
            &[k],
            budgets,
            &cfg.seeds,
            cfg.jobs,
            &constraints,
        );
        let _ = writeln!(
            out,
            "{}",
            render_table(&format!("{title} — {} K={k}", session.kind.name()), &cells)
        );
        all_cells.extend(cells);
    }
    write_results(&cfg.out_dir, name, &all_cells).expect("write results");
    out
}

/// Table 1: workload statistics for all five benchmarks.
pub fn table1(cfg: &ExpConfig) -> String {
    let mut out = String::from("## Table 1 — database and workload statistics\n");
    let mut stats_rows: Vec<WorkloadStats> = Vec::new();
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>9} {:>8} {:>11} {:>13} {:>11}",
        "name", "size(GB)", "#queries", "#tables", "avg #joins", "avg #filters", "avg #scans"
    );
    for kind in BenchmarkKind::ALL {
        let inst = kind.generate();
        let s = inst.stats();
        let _ = writeln!(
            out,
            "{:<8} {:>9.1} {:>9} {:>8} {:>11.1} {:>13.1} {:>11.1}",
            s.name, s.size_gb, s.num_queries, s.num_tables, s.avg_joins, s.avg_filters, s.avg_scans
        );
        stats_rows.push(s);
    }
    std::fs::create_dir_all(&cfg.out_dir).ok();
    std::fs::write(
        cfg.out_dir.join("table1.json"),
        serde_json::to_string_pretty(&stats_rows).unwrap(),
    )
    .ok();
    out
}

/// Figure 2: tuning-time decomposition on TPC-DS (K = 20), budgets
/// 1000..5000 — what-if time versus other tuning time.
pub fn fig2(cfg: &ExpConfig) -> String {
    let session = Session::build(BenchmarkKind::TpcDs);
    let ctx = session.ctx();
    let model = LatencyModel::default();
    let mut out =
        String::from("## Figure 2 — TPC-DS tuning time split (K=20, budget-constrained greedy)\n");
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>12} {:>10}",
        "budget", "what-if (min)", "other (min)", "total (min)", "what-if %"
    );
    let mut rows = Vec::new();
    for &budget in BenchmarkKind::TpcDs.budget_grid() {
        let r = TwoPhaseGreedy.tune(&ctx, &TuningRequest::cardinality(20, budget));
        let mut clock = TuningClock::new(&model);
        for (q, _) in r.layout.cells() {
            clock.record_call(&model, session.opt.query(*q));
        }
        // Derived-only evaluations add "other" time: approximate them by
        // the enumeration's evaluation count beyond the budgeted calls.
        let derived_evals = (session.cands.len() * 2).saturating_sub(r.calls_used);
        for _ in 0..derived_evals {
            clock.record_derived(&model);
        }
        let _ = writeln!(
            out,
            "{:>8} {:>14.1} {:>14.1} {:>12.1} {:>9.0}%",
            budget,
            clock.what_if_s / 60.0,
            clock.other_s / 60.0,
            clock.total_s() / 60.0,
            clock.what_if_fraction() * 100.0
        );
        rows.push(serde_json::json!({
            "budget": budget,
            "what_if_min": clock.what_if_s / 60.0,
            "other_min": clock.other_s / 60.0,
            "fraction": clock.what_if_fraction(),
        }));
    }
    std::fs::create_dir_all(&cfg.out_dir).ok();
    std::fs::write(
        cfg.out_dir.join("fig2.json"),
        serde_json::to_string_pretty(&rows).unwrap(),
    )
    .ok();
    out
}

/// Figures 8/9/10/16/17: MCTS versus the budget-aware greedy variants.
pub fn greedy_comparison(kind: BenchmarkKind, fig: &str, cfg: &ExpConfig) -> String {
    let session = Session::build(kind);
    sweep(
        &session,
        greedy_algos(),
        cfg,
        fig,
        &format!("Figure {fig} — greedy variants vs MCTS"),
        Constraints::cardinality,
    )
}

/// Figures 11/12/13/18/19: MCTS versus the existing RL approaches.
pub fn rl_comparison(kind: BenchmarkKind, fig: &str, cfg: &ExpConfig) -> String {
    let session = Session::build(kind);
    sweep(
        &session,
        rl_algos(),
        cfg,
        fig,
        &format!("Figure {fig} — RL baselines vs MCTS"),
        Constraints::cardinality,
    )
}

/// Figures 14/21: per-round convergence of DBA bandits and No DBA, with the
/// MCTS average as a reference line.
pub fn convergence(
    kind: BenchmarkKind,
    k: usize,
    budget: usize,
    fig: &str,
    cfg: &ExpConfig,
) -> String {
    let session = Session::build(kind);
    let ctx = session.ctx();
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let req = TuningRequest::cardinality(k, budget).with_seed(seed);

    let (_, bandit_trace) = DbaBandits::default().tune_traced(&ctx, &req);
    let (_, dqn_trace) = NoDba::default().tune_traced(&ctx, &req);
    let mcts_runs: Vec<_> = cfg
        .seeds
        .iter()
        .map(|&s| MctsTuner::default().tune(&ctx, &req.with_seed(s)))
        .collect();
    let mcts_mean =
        mcts_runs.iter().map(|r| r.improvement_pct()).sum::<f64>() / mcts_runs.len() as f64;
    let rounds = bandit_trace.len().max(dqn_trace.len());
    let mcts_line = vec![mcts_mean; rounds];
    let bandit_pct: Vec<f64> = bandit_trace.iter().map(|v| v * 100.0).collect();
    let dqn_pct: Vec<f64> = dqn_trace.iter().map(|v| v * 100.0).collect();

    let text = render_series(
        &format!(
            "Figure {fig} — convergence on {} (K={k}, B={budget})",
            kind.name()
        ),
        "round",
        &[
            ("DBA Bandits", &bandit_pct[..]),
            ("No DBA", &dqn_pct[..]),
            ("MCTS (avg)", &mcts_line[..]),
        ],
    );
    std::fs::create_dir_all(&cfg.out_dir).ok();
    std::fs::write(
        cfg.out_dir.join(format!("{fig}.json")),
        serde_json::to_string_pretty(&serde_json::json!({
            "workload": kind.name(), "k": k, "budget": budget,
            "dba_bandits": bandit_pct, "no_dba": dqn_pct, "mcts_mean": mcts_mean,
        }))
        .unwrap(),
    )
    .ok();
    text
}

/// Figures 15/20: MCTS versus the DTA-style tuner, with and without the
/// storage constraint (3× database size).
pub fn dta_comparison(kind: BenchmarkKind, with_sc: bool, fig: &str, cfg: &ExpConfig) -> String {
    let session = Session::build(kind);
    let limit = session.storage_limit_3x();
    let algos = vec![Algo::new(DtaTuner), Algo::new(MctsTuner::default())];
    let sc_label = if with_sc { "with SC" } else { "without SC" };
    sweep(
        &session,
        algos,
        cfg,
        fig,
        &format!("Figure {fig} — DTA vs MCTS ({sc_label})"),
        |k| {
            if with_sc {
                Constraints::with_storage(k, limit)
            } else {
                Constraints::cardinality(k)
            }
        },
    )
}

/// Figures 22/23: the MCTS policy ablation — {UCT, Prior} × {BCE (Only),
/// Best-Greedy} under a fixed (Fig 22) or randomized (Fig 23) rollout step.
pub fn ablation(kind: BenchmarkKind, rollout: RolloutPolicy, fig: &str, cfg: &ExpConfig) -> String {
    let session = Session::build(kind);
    let variant = |selection, extraction| {
        MctsTuner::default()
            .with_selection(selection)
            .with_rollout(rollout)
            .with_extraction(extraction)
    };
    let algos = vec![
        Algo::new(variant(SelectionPolicy::uct(), Extraction::Bce)),
        Algo::new(variant(SelectionPolicy::uct(), Extraction::BestGreedy)),
        Algo::new(variant(
            SelectionPolicy::EpsilonGreedyPrior,
            Extraction::Bce,
        )),
        Algo::new(variant(
            SelectionPolicy::EpsilonGreedyPrior,
            Extraction::BestGreedy,
        )),
    ];
    sweep(
        &session,
        algos,
        cfg,
        fig,
        &format!("Figure {fig} — MCTS ablation ({} rollout)", rollout.label()),
        Constraints::cardinality,
    )
}

/// Extra experiment (beyond the paper's figures): robustness to cost-model
/// monotonicity violations. §3.1 notes Assumption 1 "may not always hold,
/// depending on the implementation of the query optimizer's cost model";
/// this runs the greedy-variants comparison with deterministic per-plan
/// noise injected into the what-if costs.
pub fn robustness(kind: BenchmarkKind, eps: f64, cfg: &ExpConfig) -> String {
    let model = ixtune_optimizer::CostModel {
        quirk_eps: eps,
        ..ixtune_optimizer::CostModel::default()
    };
    let session = Session::build_with(kind, model);
    sweep(
        &session,
        greedy_algos(),
        cfg,
        &format!("robustness-{}", kind.name().to_lowercase()),
        &format!("Robustness — non-monotone what-if costs (ε = {eps})"),
        Constraints::cardinality,
    )
}

/// Extra experiment: the MCTS update-policy ablation the paper's §8 points
/// at — plain average backup versus RAVE, plus the Boltzmann and classic
/// ε-greedy selection alternatives of §6.1.
pub fn extensions(kind: BenchmarkKind, cfg: &ExpConfig) -> String {
    let session = Session::build(kind);
    let algos = vec![
        Algo::new(MctsTuner::default()),
        Algo::new(MctsTuner::default().with_update(UpdatePolicy::Rave { k: 50.0 })),
        Algo::new(MctsTuner::default().with_selection(SelectionPolicy::Boltzmann { tau: 0.1 })),
        Algo::new(
            MctsTuner::default().with_selection(SelectionPolicy::ClassicEpsilon { epsilon: 0.1 }),
        ),
        Algo::new(MctsTuner::default().with_extraction(Extraction::TreeByValue)),
        Algo::new(MctsTuner::default().with_extraction(Extraction::TreeByVisits)),
    ];
    sweep(
        &session,
        algos,
        cfg,
        &format!("extensions-{}", kind.name().to_lowercase()),
        "Extensions — RAVE / Boltzmann / classic ε-greedy / tree-walk extraction",
        Constraints::cardinality,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            out_dir: std::env::temp_dir().join("ixtune-fig-test"),
            seeds: vec![1],
            ks: vec![5],
            jobs: 2,
        }
    }

    #[test]
    fn table1_lists_all_workloads() {
        let t = table1(&tiny_cfg());
        for name in ["JOB", "TPC-H", "TPC-DS", "Real-D", "Real-M"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }

    #[test]
    fn greedy_comparison_smoke_on_tpch() {
        let cfg = tiny_cfg();
        let t = greedy_comparison(BenchmarkKind::TpcH, "fig17-test", &cfg);
        assert!(t.contains("Vanilla Greedy"));
        assert!(t.contains("MCTS"));
        assert!(cfg.out_dir.join("fig17-test.csv").exists());
    }

    #[test]
    fn convergence_smoke() {
        let cfg = tiny_cfg();
        let t = convergence(BenchmarkKind::TpcH, 5, 200, "fig21-test", &cfg);
        assert!(t.contains("DBA Bandits"));
        assert!(t.contains("No DBA"));
    }

    #[test]
    fn quick_mode_shrinks_grid() {
        let cfg = ExpConfig::new("x").quick();
        assert_eq!(cfg.seeds.len(), 2);
        assert_eq!(cfg.ks, vec![10]);
    }
}
