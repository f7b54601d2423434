//! Action selection policies (§6.1 of the paper).
//!
//! * [`SelectionPolicy::Uct`] — the UCB1 criterion (Eq. 5) with λ = √2 by
//!   default; unvisited actions have infinite UCB score and are therefore
//!   visited first (the slow-start behaviour the paper discusses).
//! * [`SelectionPolicy::EpsilonGreedyPrior`] — the paper's ε-greedy
//!   variant (Eq. 6): sample an action with probability proportional to
//!   its estimated value, seeding unvisited actions with the singleton
//!   prior η(W, {a}) computed by Algorithm 4.

use crate::mcts::tree::Node;
use ixtune_common::rng::weighted_choice;
use ixtune_common::IndexId;
use rand::prelude::IndexedRandom;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Which action selection policy MCTS uses.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// UCB1 with exploration constant `lambda`.
    Uct { lambda: f64 },
    /// Value-proportional sampling with singleton priors (Eq. 6).
    EpsilonGreedyPrior,
    /// Boltzmann exploration (§6.1): `Pr(a|s) ∝ exp(Q̂(s,a)/τ)`, with
    /// unvisited actions seeded by the singleton priors. The paper derives
    /// its Eq. 6 variant from this policy to drop the temperature
    /// hyperparameter; we keep Boltzmann for the ablation.
    Boltzmann { tau: f64 },
    /// Classic ε-greedy: the best-known action with probability `1 − ε`,
    /// a uniformly random other action otherwise. Included as the §6.1
    /// strawman the paper's variant improves on.
    ClassicEpsilon { epsilon: f64 },
}

impl SelectionPolicy {
    /// The paper's UCT configuration (λ = √2, following \[38\]).
    pub fn uct() -> Self {
        SelectionPolicy::Uct {
            lambda: std::f64::consts::SQRT_2,
        }
    }

    /// Short label used in the ablation figures ("UCT" / "Prior").
    pub fn label(&self) -> &'static str {
        match self {
            SelectionPolicy::Uct { .. } => "UCT",
            SelectionPolicy::EpsilonGreedyPrior => "Prior",
            SelectionPolicy::Boltzmann { .. } => "Boltzmann",
            SelectionPolicy::ClassicEpsilon { .. } => "EpsGreedy",
        }
    }

    /// Whether the policy consumes singleton priors (Algorithm 4).
    pub fn uses_priors(&self) -> bool {
        !matches!(self, SelectionPolicy::Uct { .. })
    }

    /// Select an action among `actions` at `node`. `priors[i]` is the
    /// singleton prior η(W, {I_i}) for candidate `I_i` (ignored by UCT).
    /// When an [`AmafTable`] is supplied (RAVE updates), per-action value
    /// estimates are blended with the all-moves-as-first statistics.
    /// Returns `None` when `actions` is empty.
    pub fn select(
        &self,
        node: &Node,
        actions: &[IndexId],
        priors: &[f64],
        amaf: Option<&AmafTable>,
        rng: &mut StdRng,
    ) -> Option<IndexId> {
        if actions.is_empty() {
            return None;
        }
        // Value estimates: priors, overwritten by local observations (the
        // actions map is small, so overwrite beats per-action hashing),
        // then optionally RAVE-blended.
        let mut values: Vec<f64> = actions
            .iter()
            .map(|&a| priors.get(a.index()).copied().unwrap_or(0.0).max(0.0))
            .collect();
        let mut local_n: Vec<u32> = vec![0; actions.len()];
        for (&a, stats) in &node.actions {
            if let Ok(pos) = actions.binary_search(&a) {
                values[pos] = stats.q.max(0.0);
                local_n[pos] = stats.n;
            }
        }
        if let Some(table) = amaf {
            for (i, &a) in actions.iter().enumerate() {
                values[i] = table.blended(a, local_n[i], values[i]);
            }
        }

        match *self {
            SelectionPolicy::Uct { lambda } => {
                // Unvisited actions first (infinite UCB score) — unless
                // RAVE already has an estimate for them.
                let unvisited: Vec<IndexId> = actions
                    .iter()
                    .enumerate()
                    .filter(|(i, &a)| local_n[*i] == 0 && amaf.is_none_or(|t| t.visits(a) == 0))
                    .map(|(_, &a)| a)
                    .collect();
                if !unvisited.is_empty() {
                    return unvisited.choose(rng).copied();
                }
                let total = node.n_visits.max(1) as f64;
                actions
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| {
                        let n = local_n[i].max(1) as f64;
                        (a, values[i] + lambda * (total.ln() / n).sqrt())
                    })
                    .max_by(|x, y| x.1.total_cmp(&y.1))
                    .map(|(a, _)| a)
            }
            SelectionPolicy::EpsilonGreedyPrior => {
                weighted_choice(rng, &values).map(|i| actions[i])
            }
            SelectionPolicy::Boltzmann { tau } => {
                let tau = tau.max(1e-6);
                // Softmax with max-shift for numeric stability.
                let peak = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = values.iter().map(|v| ((v - peak) / tau).exp()).collect();
                weighted_choice(rng, &weights).map(|i| actions[i])
            }
            SelectionPolicy::ClassicEpsilon { epsilon } => {
                let explore = rng.random::<f64>() < epsilon;
                let best_pos = values
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.total_cmp(y.1))
                    .map(|(i, _)| i)?;
                if !explore || actions.len() == 1 {
                    Some(actions[best_pos])
                } else {
                    let others: Vec<IndexId> = actions
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != best_pos)
                        .map(|(_, &a)| a)
                        .collect();
                    others.choose(rng).copied()
                }
            }
        }
    }
}

/// All-moves-as-first statistics for RAVE (Gelly & Silver \[33\], pointed at
/// by §8 of the paper): every index appearing in an evaluated episode
/// configuration contributes the episode reward to its AMAF average,
/// regardless of the tree depth it was chosen at. The blend
/// `Q̃ = (1−β)·local + β·AMAF` with `β = k / (k + n_local)` trusts AMAF
/// early and the local estimate asymptotically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AmafTable {
    n: Vec<u32>,
    q: Vec<f64>,
    /// Equivalence parameter `k`.
    pub k: f64,
}

impl AmafTable {
    pub fn new(universe: usize, k: f64) -> Self {
        Self {
            n: vec![0; universe],
            q: vec![0.0; universe],
            k,
        }
    }

    /// Record an episode `reward` for every index in the evaluated
    /// configuration.
    pub fn update(&mut self, config: &ixtune_common::IndexSet, reward: f64) {
        for id in config.iter() {
            let i = id.index();
            self.n[i] += 1;
            self.q[i] += (reward - self.q[i]) / self.n[i] as f64;
        }
    }

    /// Whether the table holds one entry per candidate of `universe`.
    pub(crate) fn spans(&self, universe: usize) -> bool {
        self.n.len() == universe && self.q.len() == universe
    }

    /// AMAF visit count for an action.
    pub fn visits(&self, a: IndexId) -> u32 {
        self.n[a.index()]
    }

    /// Blend the local estimate (`fallback`, backed by `n_local` visits)
    /// with the AMAF estimate.
    pub fn blended(&self, a: IndexId, n_local: u32, fallback: f64) -> f64 {
        let i = a.index();
        if self.n[i] == 0 {
            return fallback;
        }
        let beta = self.k / (self.k + n_local as f64);
        (1.0 - beta) * fallback + beta * self.q[i].max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcts::tree::Tree;
    use ixtune_common::rng::seeded;

    fn id(i: u32) -> IndexId {
        IndexId::new(i)
    }

    #[test]
    fn empty_action_set_returns_none() {
        let t = Tree::new(4);
        let mut rng = seeded(1);
        assert_eq!(
            SelectionPolicy::uct().select(t.node(0), &[], &[], None, &mut rng),
            None
        );
        assert_eq!(
            SelectionPolicy::EpsilonGreedyPrior.select(t.node(0), &[], &[], None, &mut rng),
            None
        );
    }

    #[test]
    fn uct_visits_unvisited_actions_first() {
        let mut t = Tree::new(4);
        let c = t.get_or_create_child(Tree::ROOT, id(0));
        t.update_path(&[(Tree::ROOT, id(0))], c, 1.0); // id(0) visited, reward 1
        let mut rng = seeded(2);
        // Despite id(0)'s perfect reward, unvisited ids must be picked.
        for _ in 0..20 {
            let a = SelectionPolicy::uct()
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &[],
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_ne!(a, id(0));
        }
    }

    #[test]
    fn uct_exploits_after_all_visited() {
        let mut t = Tree::new(4);
        for (i, r) in [(0u32, 0.9), (1, 0.1), (2, 0.1)] {
            let c = t.get_or_create_child(Tree::ROOT, id(i));
            // Visit each action several times so exploration bonuses level.
            for _ in 0..50 {
                t.update_path(&[(Tree::ROOT, id(i))], c, r);
            }
        }
        let mut rng = seeded(3);
        let a = SelectionPolicy::uct()
            .select(
                t.node(Tree::ROOT),
                &[id(0), id(1), id(2)],
                &[],
                None,
                &mut rng,
            )
            .unwrap();
        assert_eq!(a, id(0));
    }

    #[test]
    fn epsilon_greedy_respects_priors_for_unvisited() {
        let t = Tree::new(3);
        let priors = vec![0.0, 0.0, 0.8];
        let mut rng = seeded(4);
        for _ in 0..50 {
            let a = SelectionPolicy::EpsilonGreedyPrior
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(a, id(2), "only nonzero-prior action should be sampled");
        }
    }

    #[test]
    fn epsilon_greedy_mixes_observed_values_and_priors() {
        let mut t = Tree::new(3);
        let c = t.get_or_create_child(Tree::ROOT, id(0));
        for _ in 0..10 {
            t.update_path(&[(Tree::ROOT, id(0))], c, 0.5);
        }
        let priors = vec![0.1, 0.5, 0.0];
        let mut rng = seeded(5);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            let a = SelectionPolicy::EpsilonGreedyPrior
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            counts[a.index()] += 1;
        }
        // Pr ∝ {0.5 (observed), 0.5 (prior), 0}.
        assert_eq!(counts[2], 0);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn boltzmann_prefers_high_values_at_low_temperature() {
        let t = Tree::new(3);
        let priors = vec![0.1, 0.9, 0.2];
        let mut rng = seeded(11);
        let mut counts = [0usize; 3];
        for _ in 0..500 {
            let a = SelectionPolicy::Boltzmann { tau: 0.05 }
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            counts[a.index()] += 1;
        }
        assert!(counts[1] > 480, "low τ ≈ argmax, got {counts:?}");
        // High temperature approaches uniform.
        let mut hot = [0usize; 3];
        for _ in 0..3_000 {
            let a = SelectionPolicy::Boltzmann { tau: 100.0 }
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            hot[a.index()] += 1;
        }
        assert!(
            hot.iter().all(|&c| c > 700),
            "high τ ≈ uniform, got {hot:?}"
        );
    }

    #[test]
    fn classic_epsilon_exploits_and_explores() {
        let t = Tree::new(3);
        let priors = vec![0.1, 0.9, 0.2];
        let mut rng = seeded(12);
        // ε = 0: always the best.
        for _ in 0..50 {
            let a = SelectionPolicy::ClassicEpsilon { epsilon: 0.0 }
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(a, id(1));
        }
        // ε = 1: never the best (uniform over the rest).
        for _ in 0..50 {
            let a = SelectionPolicy::ClassicEpsilon { epsilon: 1.0 }
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_ne!(a, id(1));
        }
    }

    #[test]
    fn amaf_table_blends_towards_local_with_visits() {
        let mut table = AmafTable::new(4, 10.0);
        let cfg: ixtune_common::IndexSet = [id(0), id(2)]
            .into_iter()
            .collect::<ixtune_common::IndexSet>();
        // Give action 0 a strong AMAF signal.
        let full = ixtune_common::IndexSet::from_ids(4, cfg.iter());
        for _ in 0..20 {
            table.update(&full, 0.8);
        }
        assert_eq!(table.visits(id(0)), 20);
        assert_eq!(table.visits(id(1)), 0);
        // No local visits → pure AMAF.
        assert!((table.blended(id(0), 0, 0.1) - 0.8).abs() < 1e-9);
        // Unknown action → fallback.
        assert_eq!(table.blended(id(1), 0, 0.3), 0.3);
        // Many local visits → mostly local.
        let b = table.blended(id(0), 1_000, 0.1);
        assert!(b < 0.12, "blend {b} should be near the local value");
    }

    #[test]
    fn rave_lets_uct_skip_the_unvisited_sweep() {
        let t = Tree::new(3);
        let mut table = AmafTable::new(3, 5.0);
        let all = ixtune_common::IndexSet::full(3);
        table.update(&all, 0.5);
        let mut rng = seeded(13);
        // All actions have AMAF data, so UCT must go straight to UCB
        // scoring instead of the unvisited-first sweep.
        let got = SelectionPolicy::uct()
            .select(
                t.node(Tree::ROOT),
                &[id(0), id(1), id(2)],
                &[],
                Some(&table),
                &mut rng,
            )
            .unwrap();
        assert!([id(0), id(1), id(2)].contains(&got));
    }

    #[test]
    fn uses_priors_classification() {
        assert!(!SelectionPolicy::uct().uses_priors());
        assert!(SelectionPolicy::EpsilonGreedyPrior.uses_priors());
        assert!(SelectionPolicy::Boltzmann { tau: 1.0 }.uses_priors());
        assert!(SelectionPolicy::ClassicEpsilon { epsilon: 0.1 }.uses_priors());
    }

    #[test]
    fn epsilon_greedy_uniform_when_all_zero() {
        let t = Tree::new(3);
        let priors = vec![0.0; 3];
        let mut rng = seeded(6);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let a = SelectionPolicy::EpsilonGreedyPrior
                .select(
                    t.node(Tree::ROOT),
                    &[id(0), id(1), id(2)],
                    &priors,
                    None,
                    &mut rng,
                )
                .unwrap();
            seen[a.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
