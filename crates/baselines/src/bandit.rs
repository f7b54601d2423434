//! DBA bandits (Perera et al. \[47\]), adapted to offline budgeted tuning
//! exactly as §7.2.1 of the paper describes: a C2UCB-style contextual
//! combinatorial linear bandit over candidate indexes, run in rounds. Each
//! round greedily selects a super-arm of up to `K` indexes by UCB score,
//! then spends one what-if call per workload query to observe the chosen
//! configuration's cost and update the linear model.

use crate::features::{featurize, DIM};
use ixtune_common::rng::derive;
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::budget::MeteredWhatIf;
use ixtune_core::matrix::Layout;
use ixtune_core::tuner::{Tuner, TuningContext, TuningRequest, TuningResult};
use rand::RngExt;

/// Ridge-regularized linear bandit state: `A = λI + Σ x xᵀ`, `b = Σ r x`.
struct LinModel {
    a: [[f64; DIM]; DIM],
    b: [f64; DIM],
}

impl LinModel {
    fn new(ridge: f64) -> Self {
        let mut a = [[0.0; DIM]; DIM];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = ridge;
        }
        Self { a, b: [0.0; DIM] }
    }

    /// Solve `A θ = b` by Gaussian elimination with partial pivoting
    /// (DIM is tiny, so this is cheap and dependency-free).
    fn theta(&self) -> [f64; DIM] {
        solve(self.a, self.b)
    }

    /// `xᵀ A⁻¹ x` via one solve.
    fn mahalanobis(&self, x: &[f64; DIM]) -> f64 {
        let y = solve(self.a, *x);
        x.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>().max(0.0)
    }

    fn update(&mut self, x: &[f64; DIM], reward: f64) {
        for i in 0..DIM {
            for j in 0..DIM {
                self.a[i][j] += x[i] * x[j];
            }
            self.b[i] += reward * x[i];
        }
    }
}

fn solve(mut a: [[f64; DIM]; DIM], mut b: [f64; DIM]) -> [f64; DIM] {
    for col in 0..DIM {
        // Pivot.
        let pivot = (col..DIM)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue;
        }
        for row in col + 1..DIM {
            let f = a[row][col] / diag;
            let (head, tail) = a.split_at_mut(row);
            for (x, &base) in tail[0][col..].iter_mut().zip(&head[col][col..]) {
                *x -= f * base;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; DIM];
    for row in (0..DIM).rev() {
        let mut s = b[row];
        for k in row + 1..DIM {
            s -= a[row][k] * x[k];
        }
        x[row] = if a[row][row].abs() < 1e-12 {
            0.0
        } else {
            s / a[row][row]
        };
    }
    x
}

/// The DBA-bandits tuner.
#[derive(Clone, Copy, Debug)]
pub struct DbaBandits {
    /// UCB exploration weight α.
    pub alpha: f64,
    /// Ridge regularization λ.
    pub ridge: f64,
}

impl Default for DbaBandits {
    fn default() -> Self {
        Self {
            alpha: 0.6,
            ridge: 1.0,
        }
    }
}

impl DbaBandits {
    /// Round trace: the best-so-far improvement after each round (the
    /// paper's Figure 14/21 convergence curves).
    pub fn tune_traced(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
    ) -> (TuningResult, Vec<f64>) {
        let constraints = &req.constraints;
        let n = ctx.universe();
        let m = ctx.num_queries();
        let mut rng = derive(req.seed, "dba-bandits");
        let mut mw = MeteredWhatIf::new(ctx, req.budget);
        let mut model = LinModel::new(self.ridge);

        let features: Vec<[f64; DIM]> = (0..n)
            .map(|i| {
                featurize(
                    ctx.opt.schema(),
                    ctx.opt.workload(),
                    ctx.cands,
                    IndexId::from(i),
                )
            })
            .collect();

        let mut best: Option<(IndexSet, f64)> = None;
        let mut trace: Vec<f64> = Vec::new();
        let base = mw.empty_workload_cost();

        loop {
            if mw.meter().remaining() < m.max(1) {
                break; // not enough budget for another full round
            }
            // Select a super-arm greedily by UCB score.
            let theta = model.theta();
            let mut config = IndexSet::empty(n);
            let mut scored: Vec<(f64, IndexId)> = (0..n)
                .map(|i| {
                    let x = &features[i];
                    let est: f64 = theta.iter().zip(x).map(|(t, xi)| t * xi).sum();
                    let bonus = self.alpha * model.mahalanobis(x).sqrt();
                    // Tiny deterministic jitter breaks ties across rounds.
                    (est + bonus + 1e-9 * rng.random::<f64>(), IndexId::from(i))
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            for (_, id) in &scored {
                if config.len() >= constraints.k {
                    break;
                }
                if constraints.extension_filter(ctx, &config).admits(ctx, *id) {
                    config.insert(*id);
                }
            }

            // Observe: one what-if call per query for this configuration.
            let mut cost = 0.0;
            let mut aborted = false;
            for q in 0..m {
                match mw.what_if(QueryId::from(q), &config) {
                    Some(c) => cost += c,
                    None => {
                        aborted = true;
                        break;
                    }
                }
            }
            if aborted {
                break;
            }
            let improvement = if base > 0.0 {
                (1.0 - cost / base).max(0.0)
            } else {
                0.0
            };

            // Per-arm reward: the configuration's improvement shared across
            // the selected arms (the adaptation of [47]'s per-arm rewards to
            // what-if observations).
            let k = config.len().max(1) as f64;
            for id in config.iter() {
                model.update(&features[id.index()], improvement / k);
            }

            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((config.clone(), cost));
            }
            let best_imp = best
                .as_ref()
                .map(|(_, c)| {
                    if base > 0.0 {
                        (1.0 - c / base).max(0.0)
                    } else {
                        0.0
                    }
                })
                .unwrap_or(0.0);
            trace.push(best_imp);
        }

        let config = best.map(|(c, _)| c).unwrap_or_else(|| IndexSet::empty(n));
        let used = mw.meter().used();
        let telemetry = mw.telemetry();
        let result =
            TuningResult::evaluate(self.name(), ctx, config, used, Layout::new(mw.into_trace()))
                .with_telemetry(telemetry);
        (result, trace)
    }
}

impl Tuner for DbaBandits {
    fn name(&self) -> String {
        "DBA Bandits".into()
    }

    fn is_stochastic(&self) -> bool {
        true
    }

    fn tune(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> TuningResult {
        self.tune_traced(ctx, req).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_candidates::{generate_default, CandidateSet};
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::{synth, tpch};

    fn setup(seed: u64) -> (SimulatedOptimizer, CandidateSet) {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn solver_inverts_diagonal_system() {
        let mut a = [[0.0; DIM]; DIM];
        let mut b = [0.0; DIM];
        for i in 0..DIM {
            a[i][i] = (i + 1) as f64;
            b[i] = 2.0 * (i + 1) as f64;
        }
        let x = solve(a, b);
        for v in x {
            assert!((v - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn respects_budget_and_k() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        for budget in [0usize, 3, 40] {
            let r = DbaBandits::default()
                .tune(&ctx, &TuningRequest::cardinality(2, budget).with_seed(5));
            assert!(r.calls_used <= budget);
            assert!(r.config.len() <= 2);
        }
    }

    #[test]
    fn rounds_consume_m_calls_each() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        let m = ctx.num_queries();
        let budget = m * 3 + 1;
        let (r, trace) = DbaBandits::default()
            .tune_traced(&ctx, &TuningRequest::cardinality(2, budget).with_seed(5));
        // Some rounds may hit cached entries (free), so the round count is
        // at least the budget-implied floor.
        assert!(trace.len() >= 3, "rounds {} budget {budget}", trace.len());
        assert!(r.calls_used <= budget);
    }

    #[test]
    fn trace_is_monotone_best_so_far() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let (_, trace) = DbaBandits::default()
            .tune_traced(&ctx, &TuningRequest::cardinality(5, 500).with_seed(3));
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn finds_positive_improvement_on_tpch() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r =
            DbaBandits::default().tune(&ctx, &TuningRequest::cardinality(10, 1_000).with_seed(7));
        assert!(r.improvement > 0.0, "got {}", r.improvement);
    }
}
