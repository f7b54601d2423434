//! Action selection policies (§6.1 of the paper).
//!
//! * [`SelectionPolicy::Uct`] — the UCB1 criterion (Eq. 5) with λ = √2 by
//!   default; unvisited actions have infinite UCB score and are therefore
//!   visited first (the slow-start behaviour the paper discusses).
//! * [`SelectionPolicy::EpsilonGreedyPrior`] — the paper's ε-greedy
//!   variant (Eq. 6): sample an action with probability proportional to
//!   its estimated value, seeding unvisited actions with the singleton
//!   prior η(W, {a}) computed by Algorithm 4.
//!
//! The actions admissible at a node are the candidates outside its
//! configuration that the caller's filter admits, in ascending order.
//! Without RAVE, the ε-greedy draw weighs only the positive-weight ones
//! (see [`SelectionPolicy::select`]), and the MCTS episode loop keeps that
//! list per node once the node is selected from again ([`DrawLists`]);
//! every other policy builds the whole list, in one pass into
//! [`SelectBuffers`].

use crate::mcts::tree::{Node, Tree};
use ixtune_common::rng::{sampling_weight, weighted_choice};
use ixtune_common::IndexId;
use rand::prelude::IndexedRandom;
use rand::Rng;
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

/// The singleton priors η(W, {I_i}) of Algorithm 4, indexed by candidate,
/// with the ascending list of candidates whose prior is a positive
/// sampling weight. The list is derived from the values, so a checkpoint
/// stores only the values.
#[derive(Debug, Default)]
pub struct Priors {
    values: Vec<f64>,
    positive: Vec<IndexId>,
}

impl Priors {
    pub fn new(values: Vec<f64>) -> Self {
        let positive = (0..values.len())
            .filter(|&i| sampling_weight(values[i]) > 0.0)
            .map(IndexId::from)
            .collect();
        Self { values, positive }
    }

    /// The prior of every candidate (empty when the policy uses none).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value estimate of an action the node has not taken: its prior,
    /// clamped at 0 (0 for a candidate without one).
    fn value(&self, a: IndexId) -> f64 {
        self.values.get(a.index()).copied().unwrap_or(0.0).max(0.0)
    }
}

/// Reusable buffers of tree selection, hoisted into the episode loop so a
/// selection step allocates nothing. Cleared before every use.
#[derive(Default)]
pub struct SelectBuffers {
    /// Admissible actions, ascending (full-list policies).
    actions: Vec<IndexId>,
    /// Their value estimates (Boltzmann turns them into weights in place).
    values: Vec<f64>,
    /// Their visit counts `n(s, a)` at the node.
    local_n: Vec<u32>,
    /// UCT's unvisited actions, or classic ε's non-best actions.
    picks: Vec<IndexId>,
    /// The positive-weight (action, weight) pairs of an ε-greedy draw.
    draw: Vec<(IndexId, f64)>,
}

impl SelectBuffers {
    /// One ascending pass over the admissible actions: each action's
    /// value (observed `Q̂` when the node took it, else its prior; RAVE
    /// blends in AMAF) and visit count, merged with the node's sorted
    /// statistics as it goes.
    fn fill(
        &mut self,
        node: &Node,
        admits: &impl Fn(IndexId) -> bool,
        priors: &Priors,
        amaf: Option<&AmafTable>,
    ) {
        self.actions.clear();
        self.values.clear();
        self.local_n.clear();
        let mut observed = node.actions.iter().peekable();
        for a in node.config.complement_iter().filter(|&a| admits(a)) {
            while observed.next_if(|&&(b, _)| b < a).is_some() {}
            let (mut value, n) = match observed.peek() {
                Some(&&(b, stats)) if b == a => (stats.q.max(0.0), stats.n),
                _ => (priors.value(a), 0),
            };
            if let Some(table) = amaf {
                value = table.blended(a, n, value);
            }
            self.actions.push(a);
            self.values.push(value);
            self.local_n.push(n);
        }
    }
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

    /// Select an action at `node` among the admissible ones: candidates
    /// outside its configuration that `admits` accepts. `priors` seeds
    /// actions the node has not taken (ignored by UCT). When an
    /// [`AmafTable`] is supplied (RAVE updates), per-action value
    /// estimates are blended with the all-moves-as-first statistics.
    /// Returns `None` when no action is admissible.
    ///
    /// Without RAVE, the ε-greedy draw runs over the ascending merge of
    /// the positive-prior candidates and the node's observed actions,
    /// keeping the admissible ones of positive weight. That is
    /// [`weighted_choice`] over the whole admissible list, action for
    /// action and RNG draw for draw: a zero weight neither changes the
    /// running total nor can end the scan. Its two exceptions are kept:
    /// when every weight is zero the action is uniform over the
    /// admissible count, and a draw of exactly 0.0 returns the first
    /// admissible action whatever its weight.
    pub fn select<R: Rng>(
        &self,
        node: &Node,
        admits: impl Fn(IndexId) -> bool,
        priors: &Priors,
        amaf: Option<&AmafTable>,
        rng: &mut R,
        buf: &mut SelectBuffers,
    ) -> Option<IndexId> {
        if *self == SelectionPolicy::EpsilonGreedyPrior && amaf.is_none() {
            return epsilon_greedy(node, &admits, priors, rng, &mut buf.draw);
        }
        buf.fill(node, &admits, priors, amaf);
        let SelectBuffers {
            actions,
            values,
            local_n,
            picks,
            ..
        } = buf;
        if actions.is_empty() {
            return None;
        }

        match *self {
            SelectionPolicy::Uct { lambda } => {
                // Unvisited actions first (infinite UCB score) — unless
                // RAVE already has an estimate for them.
                picks.clear();
                picks.extend(
                    actions
                        .iter()
                        .zip(local_n.iter())
                        .filter(|&(&a, &n)| n == 0 && amaf.is_none_or(|t| t.visits(a) == 0))
                        .map(|(&a, _)| a),
                );
                if !picks.is_empty() {
                    return picks.choose(rng).copied();
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
            // With RAVE: the blended values of the whole list.
            SelectionPolicy::EpsilonGreedyPrior => weighted_choice(rng, values).map(|i| actions[i]),
            SelectionPolicy::Boltzmann { tau } => {
                let tau = tau.max(1e-6);
                // Softmax with max-shift for numeric stability.
                let peak = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for v in values.iter_mut() {
                    *v = ((*v - peak) / tau).exp();
                }
                weighted_choice(rng, values).map(|i| actions[i])
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
                    picks.clear();
                    picks.extend(
                        actions
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != best_pos)
                            .map(|(_, &a)| a),
                    );
                    picks.choose(rng).copied()
                }
            }
        }
    }
}

/// The ε-greedy draw of [`SelectionPolicy::select`] without RAVE: the
/// arithmetic of [`weighted_choice`] over the node's draw list (see
/// [`build_draw`]), collected into `draw`.
fn epsilon_greedy<R: Rng>(
    node: &Node,
    admits: &impl Fn(IndexId) -> bool,
    priors: &Priors,
    rng: &mut R,
    draw: &mut Vec<(IndexId, f64)>,
) -> Option<IndexId> {
    build_draw(node, admits, priors, draw);
    draw_from(node, admits, draw, left_sum(draw), rng)
}

/// Collect `node`'s ε-greedy draw list into `draw`: its admissible
/// actions of positive weight, as (action, weight) pairs in ascending
/// order, by an ascending merge of the positive-prior candidates and the
/// node's observed actions (an observed action weighs its `Q̂`, any other
/// its prior).
fn build_draw(
    node: &Node,
    admits: &impl Fn(IndexId) -> bool,
    priors: &Priors,
    draw: &mut Vec<(IndexId, f64)>,
) {
    draw.clear();
    let mut prior = priors.positive.iter().copied().peekable();
    let mut observed = node.actions.iter().peekable();
    loop {
        let (a, value) = match (prior.peek().copied(), observed.peek().copied()) {
            (None, None) => break,
            (Some(a), Some(&(b, _))) if a < b => {
                prior.next();
                (a, priors.value(a))
            }
            (p, Some(&(b, stats))) => {
                if p == Some(b) {
                    prior.next();
                }
                observed.next();
                (b, stats.q.max(0.0))
            }
            (Some(a), None) => {
                prior.next();
                (a, priors.value(a))
            }
        };
        let w = sampling_weight(value);
        if w > 0.0 && !node.config.contains(a) && admits(a) {
            draw.push((a, w));
        }
    }
}

/// The left-to-right sum of a draw list's weights: the total
/// [`weighted_choice`] reaches over the whole admissible list.
fn left_sum(draw: &[(IndexId, f64)]) -> f64 {
    draw.iter().map(|&(_, w)| w).sum()
}

/// [`weighted_choice`]'s arithmetic over a draw list and its `total`,
/// with its two exceptions: when every weight is zero the action is
/// uniform over the admissible count, and a draw of exactly 0.0 returns
/// the first admissible action whatever its weight.
fn draw_from<R: Rng>(
    node: &Node,
    admits: &impl Fn(IndexId) -> bool,
    draw: &[(IndexId, f64)],
    total: f64,
    rng: &mut R,
) -> Option<IndexId> {
    let admissible = || node.config.complement_iter().filter(|&a| admits(a));
    if total <= 0.0 {
        // Every weight is zero: uniform over the admissible actions.
        let count = admissible().count();
        if count == 0 {
            return None;
        }
        return admissible().nth(rng.random_range(0..count));
    }
    let mut target = rng.random::<f64>() * total;
    if target <= 0.0 {
        // The full scan stops at its first element, whatever its weight.
        return admissible().next();
    }
    for &(a, w) in draw {
        target -= w;
        if target <= 0.0 {
            return Some(a);
        }
    }
    // Floating-point slack: the last positive-weight action.
    draw.last().map(|&(a, _)| a)
}

/// The ε-greedy draw lists (without RAVE) that tree nodes keep between
/// selections, one slot per arena node.
///
/// A node keeps its list once its `n_visits` reaches [`KEEP_AT`]
/// (for a node other than the root, its second selection); a node
/// below that draws as [`SelectionPolicy::select`] does and keeps
/// nothing, since about half of the nodes are selected from only once.
/// A kept list is the one a fresh build would collect now: it depends
/// only on the node's statistics, the priors (fixed after the priors
/// phase) and the node's admission filter (fixed per node), and a
/// backup changes one statistic, which [`backup`](Self::backup) applies.
/// So a draw from a kept list is the draw `select` would make, action
/// for action and generator state for generator state.
///
/// The lists are derived state, like the positive-prior list of
/// [`Priors`]: neither the tree snapshot nor the checkpoint holds them,
/// and a resumed session rebuilds them on demand.
///
/// [`KEEP_AT`]: Self::KEEP_AT
#[derive(Debug, Default)]
pub struct DrawLists {
    lists: Vec<Option<DrawList>>,
}

/// One node's kept draw list and the left-to-right sum of its weights.
/// The list is stored at its exact size, without growth slack: one
/// Real-M session's lists can hold about a million entries.
#[derive(Debug)]
struct DrawList {
    entries: Vec<(IndexId, f64)>,
    total: f64,
}

impl DrawLists {
    /// The `n_visits` at which a node starts keeping its draw list.
    pub const KEEP_AT: u32 = 2;

    /// The ε-greedy draw at arena node `at` (whose state is `node`),
    /// without RAVE: from the node's kept list, which is built first if
    /// the node has reached [`KEEP_AT`](Self::KEEP_AT) and keeps none
    /// yet, or as `select` draws for a node below it (`buf` is the
    /// scratch it builds into).
    pub fn select<R: Rng>(
        &mut self,
        at: usize,
        node: &Node,
        admits: impl Fn(IndexId) -> bool,
        priors: &Priors,
        rng: &mut R,
        buf: &mut SelectBuffers,
    ) -> Option<IndexId> {
        if node.n_visits < Self::KEEP_AT {
            return epsilon_greedy(node, &admits, priors, rng, &mut buf.draw);
        }
        if self.lists.len() <= at {
            self.lists.resize_with(at + 1, || None);
        }
        let list = self.lists[at].get_or_insert_with(|| {
            build_draw(node, &admits, priors, &mut buf.draw);
            DrawList {
                entries: buf.draw.as_slice().into(),
                total: left_sum(&buf.draw),
            }
        });
        draw_from(node, &admits, &list.entries, list.total, rng)
    }

    /// Apply the backup of an episode along `path` (pairs of arena node
    /// and the action taken there), after [`Tree::update_path`]: at each
    /// node that keeps a list, the action backed up there now weighs
    /// `sampling_weight(Q̂.max(0))`. A positive weight replaces its entry
    /// or is inserted at its ascending place; a zero weight removes it.
    /// The total is then re-summed left to right, so its bits equal those
    /// of a fresh build.
    pub fn backup(&mut self, tree: &Tree, path: &[(usize, IndexId)]) {
        for &(at, action) in path {
            let Some(Some(list)) = self.lists.get_mut(at) else {
                continue;
            };
            let q = tree.node(at).q_value(action).unwrap_or(0.0);
            let w = sampling_weight(q.max(0.0));
            match list.entries.binary_search_by_key(&action, |&(a, _)| a) {
                Ok(i) if w > 0.0 => list.entries[i].1 = w,
                Ok(i) => {
                    list.entries.remove(i);
                }
                Err(i) if w > 0.0 => {
                    list.entries.reserve_exact(1);
                    list.entries.insert(i, (action, w));
                }
                Err(_) => continue,
            }
            list.total = left_sum(&list.entries);
        }
    }

    /// The list arena node `at` keeps, with its total, if it keeps one.
    pub fn kept(&self, at: usize) -> Option<(&[(IndexId, f64)], f64)> {
        self.lists
            .get(at)?
            .as_ref()
            .map(|l| (l.entries.as_slice(), l.total))
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
    use rand::rngs::StdRng;

    fn id(i: u32) -> IndexId {
        IndexId::new(i)
    }

    /// `policy.select` at `node` with candidates 0, 1 and 2 admissible
    /// (unless in its configuration).
    fn select_any(
        policy: SelectionPolicy,
        node: &Node,
        priors: &[f64],
        amaf: Option<&AmafTable>,
        rng: &mut StdRng,
    ) -> Option<IndexId> {
        let priors = Priors::new(priors.to_vec());
        let mut buf = SelectBuffers::default();
        policy.select(node, |a| a.index() < 3, &priors, amaf, rng, &mut buf)
    }

    #[test]
    fn empty_action_set_returns_none() {
        let t = Tree::new(4);
        let mut rng = seeded(1);
        let mut buf = SelectBuffers::default();
        let none = Priors::default();
        assert_eq!(
            SelectionPolicy::uct().select(t.node(0), |_| false, &none, None, &mut rng, &mut buf),
            None
        );
        let priors = Priors::new(vec![0.5; 4]);
        assert_eq!(
            SelectionPolicy::EpsilonGreedyPrior.select(
                t.node(0),
                |_| false,
                &priors,
                None,
                &mut rng,
                &mut buf
            ),
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
            let a = select_any(
                SelectionPolicy::uct(),
                t.node(Tree::ROOT),
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
        let a = select_any(
            SelectionPolicy::uct(),
            t.node(Tree::ROOT),
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
            let a = select_any(
                SelectionPolicy::EpsilonGreedyPrior,
                t.node(Tree::ROOT),
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
            let a = select_any(
                SelectionPolicy::EpsilonGreedyPrior,
                t.node(Tree::ROOT),
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
            let a = select_any(
                SelectionPolicy::Boltzmann { tau: 0.05 },
                t.node(Tree::ROOT),
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
            let a = select_any(
                SelectionPolicy::Boltzmann { tau: 100.0 },
                t.node(Tree::ROOT),
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
            let a = select_any(
                SelectionPolicy::ClassicEpsilon { epsilon: 0.0 },
                t.node(Tree::ROOT),
                &priors,
                None,
                &mut rng,
            )
            .unwrap();
            assert_eq!(a, id(1));
        }
        // ε = 1: never the best (uniform over the rest).
        for _ in 0..50 {
            let a = select_any(
                SelectionPolicy::ClassicEpsilon { epsilon: 1.0 },
                t.node(Tree::ROOT),
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
        let got = select_any(
            SelectionPolicy::uct(),
            t.node(Tree::ROOT),
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
            let a = select_any(
                SelectionPolicy::EpsilonGreedyPrior,
                t.node(Tree::ROOT),
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
