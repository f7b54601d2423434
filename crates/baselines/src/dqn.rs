//! No DBA (Sharma et al. \[57\]), adapted per §7.2.2 of the paper:
//! deep Q-learning over one-hot configuration states with what-if rewards,
//! a 3×96-relu MLP, CPU-only training, run in budgeted rounds.
//!
//! Each round is one episode: starting from the empty configuration the
//! agent adds `K` indexes (ε-greedy over the Q-network's masked outputs),
//! then the chosen configuration is evaluated with one what-if call per
//! query; the observed improvement is the terminal reward. Transitions go
//! to a replay buffer and the network trains on sampled minibatches with a
//! periodically-synced target network.

use ixtune_common::rng::derive;
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::budget::MeteredWhatIf;
use ixtune_core::matrix::Layout;
use ixtune_core::tuner::{Tuner, TuningContext, TuningRequest, TuningResult};
use ixtune_nn::{Adam, Mlp, Optimizer, ReplayBuffer};
use rand::RngExt;

/// One stored transition.
#[derive(Clone, Debug)]
struct Transition {
    state: Vec<f64>,
    action: usize,
    reward: f64,
    next_state: Vec<f64>,
    terminal: bool,
}

/// Hyperparameters for the DQN baseline.
#[derive(Clone, Copy, Debug)]
pub struct NoDba {
    pub hidden: usize,
    pub gamma: f64,
    pub lr: f64,
    pub epsilon_start: f64,
    pub epsilon_end: f64,
    /// Rounds over which ε anneals linearly.
    pub epsilon_decay_rounds: usize,
    pub batch_size: usize,
    pub replay_capacity: usize,
    /// Target-network sync interval (in training steps).
    pub target_sync: usize,
}

impl Default for NoDba {
    fn default() -> Self {
        Self {
            hidden: 96,
            gamma: 0.95,
            lr: 1e-3,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_rounds: 30,
            batch_size: 32,
            replay_capacity: 10_000,
            target_sync: 20,
        }
    }
}

fn one_hot(config: &IndexSet) -> Vec<f64> {
    let mut v = vec![0.0; config.universe()];
    for id in config.iter() {
        v[id.index()] = 1.0;
    }
    v
}

impl NoDba {
    /// Tune and also return the best-so-far improvement after each round
    /// (for the convergence figures).
    pub fn tune_traced(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
    ) -> (TuningResult, Vec<f64>) {
        let constraints = &req.constraints;
        let n = ctx.universe();
        let m = ctx.num_queries();
        let mut rng = derive(req.seed, "no-dba");
        let mut mw = MeteredWhatIf::new(ctx, req.budget);
        let base = mw.empty_workload_cost();

        // The paper's architecture: three hidden layers of 96 relu units.
        let dims = [n, self.hidden, self.hidden, self.hidden, n];
        let mut qnet = Mlp::new(&dims, &mut rng);
        let mut target = qnet.clone();
        let mut opt = Adam::new(self.lr);
        let mut replay: ReplayBuffer<Transition> = ReplayBuffer::new(self.replay_capacity);
        let mut train_steps = 0usize;

        let mut best: Option<(IndexSet, f64)> = None;
        let mut trace: Vec<f64> = Vec::new();
        let mut round = 0usize;

        loop {
            if mw.meter().remaining() < m.max(1) {
                break;
            }
            let eps = {
                let t = (round as f64 / self.epsilon_decay_rounds.max(1) as f64).min(1.0);
                self.epsilon_start + t * (self.epsilon_end - self.epsilon_start)
            };

            // --- Episode: build a configuration with K ε-greedy actions ---
            let mut config = IndexSet::empty(n);
            let mut steps: Vec<(Vec<f64>, usize)> = Vec::new();
            while config.len() < constraints.k {
                let state = one_hot(&config);
                let filter = constraints.extension_filter(ctx, &config);
                let admissible: Vec<usize> = (0..n)
                    .filter(|&i| {
                        !config.contains(IndexId::from(i)) && filter.admits(ctx, IndexId::from(i))
                    })
                    .collect();
                if admissible.is_empty() {
                    break;
                }
                let action = if rng.random::<f64>() < eps {
                    admissible[rng.random_range(0..admissible.len())]
                } else {
                    let qvals = qnet.forward(&state);
                    *admissible
                        .iter()
                        .max_by(|&&a, &&b| qvals[a].total_cmp(&qvals[b]))
                        .unwrap()
                };
                steps.push((state, action));
                config.insert(IndexId::from(action));
            }

            // --- Evaluate the configuration (m budgeted what-if calls) ---
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

            // --- Store transitions: terminal reward only ---
            let mut running = IndexSet::empty(n);
            for (i, (state, action)) in steps.iter().enumerate() {
                running.insert(IndexId::from(*action));
                let terminal = i + 1 == steps.len();
                replay.push(Transition {
                    state: state.clone(),
                    action: *action,
                    reward: if terminal { improvement } else { 0.0 },
                    next_state: one_hot(&running),
                    terminal,
                });
            }

            // --- Train on minibatches ---
            if replay.len() >= self.batch_size {
                qnet.zero_grad();
                let batch = replay.sample(self.batch_size, &mut rng);
                for t in &batch {
                    let target_q = if t.terminal {
                        t.reward
                    } else {
                        let next = target.forward(&t.next_state);
                        let max_next = next
                            .iter()
                            .zip(t.next_state.iter())
                            .filter(|(_, &occupied)| occupied == 0.0)
                            .map(|(q, _)| *q)
                            .fold(f64::NEG_INFINITY, f64::max);
                        t.reward + self.gamma * max_next.max(0.0)
                    };
                    let cache = qnet.forward_cached(&t.state);
                    let mut d = vec![0.0; n];
                    d[t.action] = (cache.output()[t.action] - target_q) / self.batch_size as f64;
                    qnet.backward(&cache, &d);
                }
                opt.step(&mut qnet);
                train_steps += 1;
                if train_steps.is_multiple_of(self.target_sync) {
                    target.copy_params_from(&qnet);
                }
            }

            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((config, cost));
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
            round += 1;
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

impl Tuner for NoDba {
    fn name(&self) -> String {
        "No DBA".into()
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

    fn small() -> NoDba {
        NoDba {
            hidden: 16,
            ..NoDba::default()
        }
    }

    #[test]
    fn respects_budget_and_k() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        for budget in [0usize, 5, 60] {
            let r = small().tune(&ctx, &TuningRequest::cardinality(2, budget).with_seed(3));
            assert!(r.calls_used <= budget);
            assert!(r.config.len() <= 2);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(2, 40).with_seed(11);
        let a = small().tune(&ctx, &req);
        let b = small().tune(&ctx, &req);
        assert_eq!(a.config, b.config);
    }

    #[test]
    fn trace_grows_with_rounds_and_is_monotone() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let m = ctx.num_queries();
        let (_, trace) =
            small().tune_traced(&ctx, &TuningRequest::cardinality(2, m * 5).with_seed(4));
        assert!(trace.len() >= 4);
        assert!(trace.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn improves_on_tpch_with_large_budget() {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let r = small().tune(&ctx, &TuningRequest::cardinality(5, 1_000).with_seed(6));
        // Even random exploration should find *some* improving config on
        // TPC-H across ~45 rounds.
        assert!(r.improvement >= 0.0);
        assert!(r.calls_used <= 1_000);
    }
}
