//! Identity tests for the per-episode MCTS kernels: the one-pass
//! derivation of every query's cost (`WhatIfCache::derived_per_query`,
//! and `derived_workload`, its sum),
//! the ε-greedy draw over positive-weight actions only
//! (`SelectionPolicy::select`) and the draw lists nodes keep between
//! selections (`DrawLists`). Each is pinned, bit for bit, to the direct
//! computation: `m` calls of `WhatIfCache::derived` (and Eq. 1 written
//! out here), `weighted_choice` over the whole admissible action list,
//! and a fresh build of the list after every backup.

use ixtune_candidates::generate_default;
use ixtune_common::rng::{sampling_weight, seeded, weighted_choice};
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_core::mcts::policy::{DrawLists, Priors, SelectBuffers};
use ixtune_core::mcts::tree::{Node, Tree};
use ixtune_core::{Constraints, SelectionPolicy, TuningContext, WhatIfCache};
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::synth;
use proptest::prelude::*;
use rand::RngCore;

/// Two and a bit blocks, so member and complement walks cross words.
const UNIVERSE: usize = 70;
const QUERIES: usize = 4;

fn set(ids: &[usize]) -> IndexSet {
    IndexSet::from_ids(UNIVERSE, ids.iter().map(|&i| IndexId::from(i)))
}

/// A cache primed with `entries`, costed by a monotone product model
/// (`c(q, C) = empty_q · Π f_{q,i}`). Returns the distinct cells stored.
fn primed(
    empties: &[f64],
    factors: &[Vec<f64>],
    entries: &[(usize, Vec<usize>)],
) -> (WhatIfCache, Vec<IndexSet>) {
    let mut cache = WhatIfCache::new(UNIVERSE, empties.to_vec());
    let mut stored = Vec::new();
    for (q, ids) in entries {
        let config = set(ids);
        if config.is_empty() {
            continue;
        }
        let cost = config
            .iter()
            .fold(empties[*q], |acc, id| acc * factors[*q][id.index()]);
        if cache.put(QueryId::from(*q), &config, cost) {
            stored.push(config);
        }
    }
    (cache, stored)
}

/// Eq. 1 written out over the cache's public reads, in the derivation's
/// order: an exact hit, else the min of `c(q, ∅)`, the members' known
/// singleton costs and the cost-sorted multi entries inside `config`.
/// Returns the cost and whether it was derived.
fn eq1(cache: &WhatIfCache, q: QueryId, config: &IndexSet) -> (f64, bool) {
    if let Some(c) = cache.get(q, config) {
        return (c, false);
    }
    let mut best = cache.empty_cost(q);
    for id in config.iter() {
        if let Some(v) = cache.singleton_cost(q, id).filter(|&v| v < best) {
            best = v;
        }
    }
    for (set, cost) in cache.multi_entries(q) {
        if *cost >= best {
            break;
        }
        if set.is_subset(config) {
            best = *cost;
        }
    }
    (best, true)
}

/// The pass against `m` `derived` calls and against [`eq1`]: same bits
/// per query, same derivation count.
fn assert_pass_equals_calls(cache: &WhatIfCache, config: &IndexSet) -> Result<(), TestCaseError> {
    let mut out = vec![f64::NAN; 2];
    let before = cache.derivations();
    cache.derived_per_query(config, &mut out);
    let by_pass = cache.derivations() - before;
    let before = cache.derivations();
    let calls: Vec<f64> = (0..QUERIES)
        .map(|q| cache.derived(QueryId::from(q), config))
        .collect();
    let by_calls = cache.derivations() - before;
    let oracle: Vec<(f64, bool)> = (0..QUERIES)
        .map(|q| eq1(cache, QueryId::from(q), config))
        .collect();
    let by_oracle = oracle.iter().filter(|(_, derived)| *derived).count();
    prop_assert_eq!(out.len(), QUERIES);
    for ((a, b), (c, _)) in out.iter().zip(&calls).zip(&oracle) {
        prop_assert!(a.to_bits() == b.to_bits(), "{a} != {b} at {config:?}");
        prop_assert!(a.to_bits() == c.to_bits(), "{a} != {c} at {config:?}");
    }
    prop_assert!(
        by_pass == by_calls,
        "{by_pass} != {by_calls} derivations at {config:?}"
    );
    prop_assert!(
        by_pass == by_oracle,
        "{by_pass} != {by_oracle} derivations at {config:?}"
    );
    // `derived_workload` runs the same pass and sums it in query order.
    let before = cache.derivations();
    let total = cache.derived_workload(config);
    let by_workload = cache.derivations() - before;
    let summed: f64 = calls.iter().sum();
    prop_assert!(
        total.to_bits() == summed.to_bits(),
        "{total} != {summed} at {config:?}"
    );
    prop_assert!(
        by_workload == by_calls,
        "{by_workload} != {by_calls} derivations at {config:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ∅, singletons, multi configurations, exact hits (every stored
    /// cell), and configurations larger than any row's `max_multi_size`
    /// (entries hold at most 4 ids, probes up to 8).
    #[test]
    fn derivation_pass_equals_per_query_derived(
        empties in prop::collection::vec(50.0..150.0f64, QUERIES),
        factors in prop::collection::vec(prop::collection::vec(0.5..1.0f64, UNIVERSE), QUERIES),
        entries in prop::collection::vec(
            (0..QUERIES, prop::collection::vec(0..UNIVERSE, 0..5)),
            0..48,
        ),
        probes in prop::collection::vec(prop::collection::vec(0..UNIVERSE, 0..9), 1..12),
    ) {
        let (cache, stored) = primed(&empties, &factors, &entries);
        assert_pass_equals_calls(&cache, &IndexSet::empty(UNIVERSE))?;
        for config in &stored {
            assert_pass_equals_calls(&cache, config)?;
        }
        for ids in &probes {
            let config = set(ids);
            assert_pass_equals_calls(&cache, &config)?;
            // Each stored cell grown by the probe: supersets of entries,
            // often past the row's largest entry.
            for cell in stored.iter().take(4) {
                let mut grown = cell.clone();
                grown.union_with(&config);
                assert_pass_equals_calls(&cache, &grown)?;
            }
        }
    }
}

/// A node reached from the root through `path`, whose observed actions
/// were taken with the given rewards (0.0 included), in a tree over
/// `universe` candidates.
fn node_with(universe: usize, path: &[usize], observed: &[(usize, f64)]) -> (Tree, usize) {
    let mut tree = Tree::new(universe);
    let mut node = Tree::ROOT;
    for &a in path {
        if !tree.node(node).config.contains(IndexId::from(a)) {
            node = tree.get_or_create_child(node, IndexId::from(a));
        }
    }
    for &(a, reward) in observed {
        let a = IndexId::from(a);
        if !tree.node(node).config.contains(a) {
            let child = tree.get_or_create_child(node, a);
            tree.update_path(&[(node, a)], child, reward);
        }
    }
    (tree, node)
}

/// Eq. 6 computed directly: `weighted_choice` over the whole admissible
/// list, each action weighing its observed `Q̂` or else its prior.
fn full_list_draw<R: rand::Rng>(
    node: &Node,
    admits: &impl Fn(IndexId) -> bool,
    priors: &[f64],
    rng: &mut R,
) -> Option<IndexId> {
    let actions: Vec<IndexId> = node
        .config
        .complement_iter()
        .filter(|&a| admits(a))
        .collect();
    let values: Vec<f64> = actions
        .iter()
        .map(|&a| match node.q_value(a) {
            Some(q) => q.max(0.0),
            None => priors.get(a.index()).copied().unwrap_or(0.0).max(0.0),
        })
        .collect();
    weighted_choice(rng, &values).map(|i| actions[i])
}

/// Draws `rounds` times with the ε-greedy policy and with the full-list
/// oracle from one seed: the same action each time, and the same
/// generator state after each.
fn assert_draws_agree(
    node: &Node,
    admits: impl Fn(IndexId) -> bool,
    priors: &[f64],
    seed: u64,
    rounds: usize,
) -> Result<(), TestCaseError> {
    let wrapped = Priors::new(priors.to_vec());
    let mut buf = SelectBuffers::default();
    let mut fast = seeded(seed);
    let mut oracle = fast.clone();
    for _ in 0..rounds {
        let got = SelectionPolicy::EpsilonGreedyPrior
            .select(node, &admits, &wrapped, None, &mut fast, &mut buf);
        let want = full_list_draw(node, &admits, priors, &mut oracle);
        prop_assert_eq!(got, want);
        prop_assert_eq!(&fast, &oracle);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Zero priors, zero observed values, a size filter and configured
    /// depth, over many seeds.
    #[test]
    fn epsilon_greedy_draw_equals_full_list_weighted_choice(
        priors in prop::collection::vec((any::<bool>(), 0.0..1.0f64), UNIVERSE),
        path in prop::collection::vec(0..UNIVERSE, 0..4),
        observed in prop::collection::vec((0..UNIVERSE, any::<bool>(), 0.0..1.0f64), 0..12),
        sizes in prop::collection::vec(1..10u64, UNIVERSE),
        limit in (any::<bool>(), 0..40u64),
        seed in any::<u64>(),
    ) {
        let priors: Vec<f64> = priors
            .into_iter()
            .map(|(on, p)| if on { p } else { 0.0 })
            .collect();
        let observed: Vec<(usize, f64)> = observed
            .into_iter()
            .map(|(a, on, r)| (a, if on { r } else { 0.0 }))
            .collect();
        let (tree, node) = node_with(UNIVERSE, &path, &observed);
        let limit = limit.0.then_some(limit.1);
        let admits = |a: IndexId| limit.is_none_or(|l| sizes[a.index()] <= l);
        assert_draws_agree(tree.node(node), admits, &priors, seed, 6)?;
    }
}

#[test]
fn all_zero_weights_draw_uniformly_over_the_admissible_count() {
    let priors = vec![0.0; UNIVERSE];
    let (tree, node) = node_with(UNIVERSE, &[3], &[(5, 0.0), (9, 0.0)]);
    let mut seen = std::collections::HashSet::new();
    for seed in 0..64 {
        assert_draws_agree(tree.node(node), |a| a.index() % 3 != 0, &priors, seed, 4).unwrap();
        let mut rng = seeded(seed);
        let a = SelectionPolicy::EpsilonGreedyPrior
            .select(
                tree.node(node),
                |a| a.index() % 3 != 0,
                &Priors::new(priors.clone()),
                None,
                &mut rng,
                &mut SelectBuffers::default(),
            )
            .unwrap();
        seen.insert(a);
    }
    assert!(seen.len() > 16, "uniform over the admissible actions");
    // No admissible action: `None`, and no draw.
    assert_draws_agree(tree.node(node), |_| false, &priors, 1, 1).unwrap();
}

/// A generator whose every `f64` draw is exactly 0.0 (and integer draw 0),
/// counting how often it was asked.
#[derive(Debug, PartialEq)]
struct ZeroDraw(u32);

impl RngCore for ZeroDraw {
    fn next_u64(&mut self) -> u64 {
        self.0 += 1;
        0
    }
}

#[test]
fn a_zero_draw_returns_the_first_admissible_action_whatever_its_weight() {
    // Candidate 0 is in the configuration; 1 is filtered out; 2 is the
    // first admissible action and weighs 0, while 4 and 7 weigh more.
    let mut priors = vec![0.0; UNIVERSE];
    priors[4] = 0.3;
    priors[7] = 0.6;
    let (tree, node) = node_with(UNIVERSE, &[0], &[(2, 0.0), (7, 0.2)]);
    let admits = |a: IndexId| a.index() != 1;
    let mut fast = ZeroDraw(0);
    let got = SelectionPolicy::EpsilonGreedyPrior.select(
        tree.node(node),
        admits,
        &Priors::new(priors.clone()),
        None,
        &mut fast,
        &mut SelectBuffers::default(),
    );
    let mut oracle = ZeroDraw(0);
    let want = full_list_draw(tree.node(node), &admits, &priors, &mut oracle);
    assert_eq!(want, Some(IndexId::new(2)));
    assert_eq!(got, want);
    assert_eq!(fast, oracle, "one draw each");
    assert_eq!(fast, ZeroDraw(1));
}

#[test]
fn a_storage_filter_draws_like_the_full_list() {
    let inst = synth::instance(11);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let n = ctx.universe();
    assert!(n >= 4, "need candidates");
    let sizes: Vec<u64> = (0..n)
        .map(|i| opt.candidate_size_bytes(IndexId::from(i)))
        .collect();
    let mut sorted = sizes.clone();
    sorted.sort_unstable();
    // A limit that admits about half of the candidates next to index 0.
    let limit = sizes[0] + sorted[n / 2];
    let constraints = Constraints::with_storage(4, limit);
    let priors: Vec<f64> = (0..n).map(|i| [0.0, 0.1, 0.4][i % 3]).collect();
    let observed: Vec<(usize, f64)> = (1..n).step_by(4).map(|a| (a, [0.0, 0.7][a % 2])).collect();
    for path in [vec![], vec![0usize]] {
        let mut tree = Tree::new(n);
        let mut node = Tree::ROOT;
        for &a in &path {
            node = tree.get_or_create_child(node, IndexId::from(a));
        }
        for &(a, r) in &observed {
            let a = IndexId::from(a);
            let child = tree.get_or_create_child(node, a);
            tree.update_path(&[(node, a)], child, r);
        }
        let filter = constraints.extension_filter(&ctx, &tree.node(node).config);
        let admitted = (0..n)
            .filter(|&a| filter.admits(&ctx, IndexId::from(a)))
            .count();
        assert!(admitted > 0 && admitted < n, "the filter must bind");
        for seed in 0..32 {
            assert_draws_agree(
                tree.node(node),
                |a| filter.admits(&ctx, a),
                &priors,
                seed,
                4,
            )
            .unwrap();
        }
    }
}

/// A node's draw list written out: its admissible actions of positive
/// weight (observed `Q̂`, else the prior, clamped at 0), ascending, and
/// their left-to-right sum.
fn fresh_list(
    node: &Node,
    admits: &impl Fn(IndexId) -> bool,
    priors: &[f64],
) -> (Vec<(IndexId, f64)>, f64) {
    let list: Vec<(IndexId, f64)> = node
        .config
        .complement_iter()
        .filter(|&a| admits(a))
        .map(|a| {
            let value = match node.q_value(a) {
                Some(q) => q.max(0.0),
                None => priors.get(a.index()).copied().unwrap_or(0.0).max(0.0),
            };
            (a, sampling_weight(value))
        })
        .filter(|&(_, w)| w > 0.0)
        .collect();
    let total = list.iter().map(|&(_, w)| w).sum();
    (list, total)
}

/// Every list `draws` keeps equals a fresh build at its node: same
/// entries, same weight bits, same total bits.
fn assert_kept_lists_fresh(
    tree: &Tree,
    draws: &DrawLists,
    admits: &impl Fn(&IndexSet, IndexId) -> bool,
    priors: &[f64],
) -> Result<(), TestCaseError> {
    for at in 0..tree.len() {
        let node = tree.node(at);
        let Some((entries, total)) = draws.kept(at) else {
            continue;
        };
        prop_assert!(node.n_visits >= DrawLists::KEEP_AT, "node {at} kept early");
        let (want, want_total) = fresh_list(node, &|a| admits(&node.config, a), priors);
        let bits = |l: &[(IndexId, f64)]| -> Vec<(IndexId, u64)> {
            l.iter().map(|&(a, w)| (a, w.to_bits())).collect()
        };
        prop_assert!(
            bits(entries) == bits(&want),
            "node {at}: {entries:?} != {want:?}"
        );
        prop_assert!(
            total.to_bits() == want_total.to_bits(),
            "node {at}: total {total} != {want_total}"
        );
    }
    Ok(())
}

/// Whether the list arena node `at` keeps holds action `a` (`None`: the
/// node keeps no list).
fn holds(draws: &DrawLists, at: usize, a: IndexId) -> Option<bool> {
    draws
        .kept(at)
        .map(|(l, _)| l.binary_search_by_key(&a, |&(b, _)| b).is_ok())
}

/// What the kept-list episodes covered.
#[derive(Default)]
struct Coverage {
    /// Selections from a kept list.
    kept_draws: usize,
    /// Selections at nodes below the keeping threshold.
    fresh_draws: usize,
    /// Selections at a node whose every weight is zero.
    all_zero: usize,
    /// Backups that removed an entry from a kept list.
    dropped: usize,
    /// Backups that inserted an action absent from a kept list.
    inserted: usize,
}

/// Runs MCTS-shaped episodes: from the root, draw through `DrawLists`
/// until an unvisited leaf, a node at depth `k` or a node without an
/// admissible action, back up the episode's reward, and update the kept
/// lists. Each draw is checked against `SelectionPolicy::select` (same
/// action, same generator state after it), and every kept list against a
/// fresh build after each backup. `admits(config, a)` is the admission
/// filter of the node whose configuration is `config`.
fn run_kept_episodes(
    universe: usize,
    admits: impl Fn(&IndexSet, IndexId) -> bool,
    priors: &[f64],
    k: usize,
    rewards: &[f64],
    seed: u64,
) -> Result<Coverage, TestCaseError> {
    let wrapped = Priors::new(priors.to_vec());
    let mut tree = Tree::new(universe);
    let mut draws = DrawLists::default();
    let mut buf = SelectBuffers::default();
    let mut oracle_buf = SelectBuffers::default();
    let mut rng = seeded(seed);
    let mut cov = Coverage::default();
    for &reward in rewards {
        let mut path = Vec::new();
        let mut at = Tree::ROOT;
        loop {
            let node = tree.node(at);
            if (node.children.is_empty() && !node.visited && at != Tree::ROOT)
                || node.config.len() >= k
            {
                break;
            }
            let filter = |a| admits(&node.config, a);
            let mut oracle = rng.clone();
            let want = SelectionPolicy::EpsilonGreedyPrior.select(
                node,
                filter,
                &wrapped,
                None,
                &mut oracle,
                &mut oracle_buf,
            );
            let got = draws.select(at, node, filter, &wrapped, &mut rng, &mut buf);
            prop_assert!(got == want, "node {at}: drew {got:?}, select drew {want:?}");
            prop_assert!(rng == oracle, "generator state differs after node {at}");
            if node.n_visits >= DrawLists::KEEP_AT {
                cov.kept_draws += 1;
            } else {
                cov.fresh_draws += 1;
            }
            if fresh_list(node, &filter, priors).0.is_empty() {
                cov.all_zero += 1;
            }
            let Some(action) = got else {
                break;
            };
            path.push((at, action));
            at = tree.get_or_create_child(at, action);
        }
        let before: Vec<Option<bool>> = path.iter().map(|&(n, a)| holds(&draws, n, a)).collect();
        tree.update_path(&path, at, reward);
        draws.backup(&tree, &path);
        for (&(n, a), was) in path.iter().zip(before) {
            match (was, holds(&draws, n, a)) {
                (Some(true), Some(false)) => cov.dropped += 1,
                (Some(false), Some(true)) => cov.inserted += 1,
                _ => {}
            }
        }
        assert_kept_lists_fresh(&tree, &draws, &admits, priors)?;
    }
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random sequences of selections and backups: 0.0 rewards (an entry
    /// drops out), zero-prior actions that gain a positive value (an
    /// entry is inserted), a size filter, all-zero nodes, and nodes below
    /// the keeping threshold.
    #[test]
    fn kept_draw_lists_equal_a_fresh_build(
        priors in prop::collection::vec((0..3u8, 0.0..1.0f64), UNIVERSE),
        all_zero in any::<bool>(),
        sizes in prop::collection::vec(1..10u64, UNIVERSE),
        limit in (any::<bool>(), 8..60u64),
        k in 1usize..4,
        rewards in prop::collection::vec((0..3u8, 0.0..1.0f64), 1..48),
        seed in any::<u64>(),
    ) {
        // One prior in three is positive (none when `all_zero`).
        let priors: Vec<f64> = priors
            .into_iter()
            .map(|(on, p)| if on == 0 && !all_zero { p } else { 0.0 })
            .collect();
        // One reward in three is 0.0.
        let rewards: Vec<f64> = rewards
            .into_iter()
            .map(|(on, r)| if on == 0 { 0.0 } else { r })
            .collect();
        // A storage-like filter: the node's size plus the action's.
        let limit = limit.0.then_some(limit.1);
        let admits = |config: &IndexSet, a: IndexId| {
            limit.is_none_or(|l| {
                config.iter().map(|i| sizes[i.index()]).sum::<u64>() + sizes[a.index()] <= l
            })
        };
        run_kept_episodes(UNIVERSE, admits, &priors, k, &rewards, seed)?;
    }
}

/// The proptest's cases, reached on purpose: a kept entry that drops out
/// after 0.0 rewards, a zero-prior action whose positive reward inserts
/// it, a node whose every weight is zero, and draws below the threshold.
#[test]
fn kept_lists_drop_and_insert_entries() {
    let admits = |_: &IndexSet, a: IndexId| a.index() % 7 != 3;
    // Every prior zero: the root draws uniformly until a positive reward
    // inserts the action it backed up.
    let priors = vec![0.0; UNIVERSE];
    let mut rewards = vec![0.0; 3];
    rewards.extend([0.6, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0]);
    let cov = run_kept_episodes(UNIVERSE, admits, &priors, 2, &rewards, 5).unwrap();
    assert!(cov.all_zero > 0 && cov.fresh_draws > 0 && cov.kept_draws > 0);
    assert!(
        cov.inserted > 0,
        "a zero-prior action gains a positive value"
    );
    // A few positive priors and 0.0 rewards only: every action the root
    // draws from its kept list drops out of it.
    let mut priors = vec![0.0; UNIVERSE];
    for i in [1, 9, 20, 44, 69] {
        priors[i] = 0.25;
    }
    let cov = run_kept_episodes(UNIVERSE, admits, &priors, 1, &[0.0; 8], 9).unwrap();
    assert!(cov.dropped > 0, "0.0 rewards drop entries");
    assert!(cov.all_zero > 0, "the root's list empties");
}

#[test]
fn kept_lists_follow_a_storage_filter() {
    let inst = synth::instance(11);
    let cands = generate_default(&inst);
    let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
    let ctx = TuningContext::new(&opt, &cands);
    let n = ctx.universe();
    let mut sorted: Vec<u64> = (0..n)
        .map(|i| opt.candidate_size_bytes(IndexId::from(i)))
        .collect();
    sorted.sort_unstable();
    // Room for about two median candidates.
    let constraints = Constraints::with_storage(3, 2 * sorted[n / 2]);
    let admits =
        |config: &IndexSet, a: IndexId| constraints.extension_filter(&ctx, config).admits(&ctx, a);
    let priors: Vec<f64> = (0..n).map(|i| [0.0, 0.1, 0.4][i % 3]).collect();
    let rewards: Vec<f64> = (0..60).map(|e| [0.0, 0.2, 0.5, 0.05][e % 4]).collect();
    for seed in 0..6 {
        let cov = run_kept_episodes(n, admits, &priors, 3, &rewards, seed).unwrap();
        assert!(cov.kept_draws > 0);
    }
}
