//! MCTS for budget-aware index tuning (Algorithm 3 and §5–6 of the paper).
//!
//! Each episode walks the search tree from the root (the empty
//! configuration), selecting actions with the configured policy, expanding
//! one node, completing the configuration with a rollout when an unvisited
//! leaf is reached, and spending **exactly one what-if call** to evaluate
//! the sampled configuration (`EvaluateCostWithBudget`: the call goes to a
//! query drawn with probability proportional to its derived cost; all other
//! queries use derived costs). The observed percentage improvement is
//! backed up as the episode reward. When the ε-greedy policy is active, the
//! first `B' = min(B/2, P)` calls bootstrap singleton priors (Algorithm 4).

pub mod extract;
pub mod policy;
pub mod priors;
pub mod rollout;
pub mod tree;

use crate::budget::{MeteredWhatIf, Phase};
use crate::checkpoint::{MctsCheckpoint, SNAPSHOT_VERSION};
use crate::matrix::Layout;
use crate::stop::{Interrupt, StopSignal};
use crate::tuner::{Constraints, Tuner, TuningContext, TuningRequest, TuningResult};
use extract::Extraction;
use ixtune_common::rng::{derive, weighted_choice};
use ixtune_common::{IndexId, IndexSet, QueryId};
use policy::{DrawLists, Priors, SelectBuffers, SelectionPolicy};
use rand::rngs::StdRng;
use rollout::RolloutPolicy;
use tree::Tree;

/// The MCTS-based budget-aware tuner.
#[derive(Clone, Copy, Debug)]
pub struct MctsTuner {
    pub selection: SelectionPolicy,
    pub rollout: RolloutPolicy,
    pub extraction: Extraction,
    /// How episode rewards are backed up into the tree.
    pub update: UpdatePolicy,
}

impl Default for MctsTuner {
    /// The paper's best-performing setting (§7.1): ε-greedy with priors,
    /// myopic rollout with step size 0, Best-Greedy extraction, and plain
    /// running-average updates. Priors always use the paper's round-robin
    /// query selection (Algorithm 4).
    fn default() -> Self {
        Self {
            selection: SelectionPolicy::EpsilonGreedyPrior,
            rollout: RolloutPolicy::FixedStep(0),
            extraction: Extraction::BestGreedy,
            update: UpdatePolicy::Average,
        }
    }
}

/// Reward back-up policy (§8 points at RAVE as a possible refinement).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum UpdatePolicy {
    /// Plain running average of episode rewards along the path.
    Average,
    /// Rapid Action Value Estimation (Gelly & Silver \[33\]): blend the
    /// per-node value with an all-moves-as-first estimate shared across the
    /// tree, `Q̃ = (1−β)·Q + β·AMAF` with `β = k/(k + n(s,a))`.
    Rave {
        /// Equivalence parameter `k`: how many per-node visits it takes for
        /// the local estimate to outweigh the AMAF estimate.
        k: f64,
    },
}

use serde::{Deserialize, Serialize};

impl MctsTuner {
    /// Set the selection policy (builder-style; start from
    /// `MctsTuner::default()`).
    pub fn with_selection(mut self, selection: SelectionPolicy) -> Self {
        self.selection = selection;
        self
    }

    /// Set the rollout policy.
    pub fn with_rollout(mut self, rollout: RolloutPolicy) -> Self {
        self.rollout = rollout;
        self
    }

    /// Set the extraction policy.
    pub fn with_extraction(mut self, extraction: Extraction) -> Self {
        self.extraction = extraction;
        self
    }

    /// Set the reward back-up policy.
    pub fn with_update(mut self, update: UpdatePolicy) -> Self {
        self.update = update;
        self
    }

    /// Tune and also return the best-so-far *estimated* improvement after
    /// each episode (from the budgeted evaluations, like the baselines'
    /// convergence traces in Figures 14/21).
    pub fn tune_traced(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
    ) -> (TuningResult, Vec<f64>) {
        self.run(ctx, req)
    }

    /// `EvaluateCostWithBudget` (Algorithm 3): estimate `cost(W, C)` with a
    /// single budgeted what-if call against a query sampled proportionally
    /// to its derived cost. Returns `None` once the budget is exhausted.
    /// `derived` is a reusable scratch buffer owned by the episode loop,
    /// filled by one derivation pass over the queries.
    fn evaluate_with_budget(
        &self,
        mw: &mut MeteredWhatIf<'_>,
        config: &IndexSet,
        rng: &mut StdRng,
        derived: &mut Vec<f64>,
    ) -> Option<f64> {
        mw.cache().derived_per_query(config, derived);
        let pick = weighted_choice(rng, derived)?;
        let q = QueryId::from(pick);
        let exact = mw.what_if(q, config)?;
        let total: f64 = exact
            + derived
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pick)
                .map(|(_, d)| d)
                .sum::<f64>();
        Some(total)
    }

    /// One episode of Algorithm 3. Returns `false` when the budget ran out
    /// before the episode could evaluate a configuration.
    #[allow(clippy::too_many_arguments)]
    fn run_episode(
        &self,
        ctx: &TuningContext<'_>,
        constraints: &Constraints,
        mw: &mut MeteredWhatIf<'_>,
        tree: &mut Tree,
        priors: &Priors,
        amaf: &mut Option<policy::AmafTable>,
        best: &mut Option<(IndexSet, f64)>,
        rng: &mut StdRng,
        buffers: &mut EpisodeBuffers,
    ) -> bool {
        // --- Selection / expansion (SampleConfiguration) ---
        // ε-greedy without RAVE draws from the lists nodes keep.
        let keeps_draws = amaf.is_none() && self.selection == SelectionPolicy::EpsilonGreedyPrior;
        let mut path: Vec<(usize, IndexId)> = Vec::new();
        let mut node = Tree::ROOT;
        let (config, via_rollout) = loop {
            let n = tree.node(node);
            let is_leaf = n.children.is_empty();
            let terminal = n.config.len() >= constraints.k;
            if is_leaf && !n.visited && node != Tree::ROOT {
                // Unvisited leaf: simulate via rollout.
                let completed = self.rollout.rollout(
                    ctx,
                    constraints,
                    &self.selection,
                    priors.values(),
                    &n.config,
                    rng,
                );
                break (completed, true);
            }
            if terminal {
                break (n.config.clone(), false);
            }
            let filter = constraints.extension_filter(ctx, &n.config);
            let admits = |a| filter.admits(ctx, a);
            let buf = &mut buffers.select;
            let action = if keeps_draws {
                buffers.draws.select(node, n, admits, priors, rng, buf)
            } else {
                self.selection
                    .select(n, admits, priors, amaf.as_ref(), rng, buf)
            };
            let Some(action) = action else {
                break (n.config.clone(), false);
            };
            let child = tree.get_or_create_child(node, action);
            path.push((node, action));
            node = child;
        };

        // --- Evaluation (one budgeted what-if call) ---
        mw.set_phase(if via_rollout {
            Phase::Rollout
        } else {
            Phase::Selection
        });
        let Some(cost) = self.evaluate_with_budget(mw, &config, rng, &mut buffers.derived) else {
            return false;
        };

        // --- Update ---
        let base = mw.empty_workload_cost();
        let reward = if base > 0.0 {
            (1.0 - cost / base).clamp(0.0, 1.0)
        } else {
            0.0
        };
        tree.update_path(&path, node, reward);
        buffers.draws.backup(tree, &path);
        if let Some(table) = amaf {
            table.update(&config, reward);
        }

        // Track the best explored configuration (for BCE / Hybrid).
        if constraints.satisfied_by(ctx, &config) && best.as_ref().is_none_or(|(_, c)| cost < *c) {
            *best = Some((config, cost));
        }
        true
    }
}

/// Reusable per-episode scratch buffers, hoisted into [`MctsTuner::run`] so
/// the episode loop allocates nothing per episode, and the ε-greedy draw
/// lists the tree's nodes keep (derived from the tree and the priors, so
/// a resumed session starts without them and rebuilds them on demand).
#[derive(Default)]
struct EpisodeBuffers {
    /// Per-query derived costs for `EvaluateCostWithBudget`.
    derived: Vec<f64>,
    /// Tree selection's action and weight lists.
    select: SelectBuffers,
    /// The ε-greedy draw lists kept per arena node (without RAVE).
    draws: DrawLists,
}

/// The full mutable state of one MCTS search between episodes. Everything
/// here — plus the [`MeteredWhatIf`] it runs against — is what a checkpoint
/// must capture for a suspended session to resume bit-identically (scratch
/// buffers are cleared before every use, so they carry nothing across
/// episodes, and the kept draw lists are rebuilt from this state).
pub(crate) struct MctsState {
    rng: StdRng,
    priors: Priors,
    tree: Tree,
    amaf: Option<policy::AmafTable>,
    best: Option<(IndexSet, f64)>,
    /// Best-so-far estimated improvement after each budget-consuming
    /// episode (the convergence trace).
    conv: Vec<f64>,
    /// Consecutive budget-free episodes; the loop stops at 500.
    idle_streak: usize,
}

/// What a resumable MCTS run produced: either a finished result (with its
/// convergence trace) or a checkpoint of a suspended session.
#[allow(clippy::large_enum_variant)] // Finished is the common case; boxing it would tax every run
pub enum MctsOutcome {
    Finished(TuningResult, Vec<f64>),
    Suspended(Box<MctsCheckpoint>),
}

impl Tuner for MctsTuner {
    fn name(&self) -> String {
        let default = MctsTuner::default();
        if self.selection == default.selection
            && self.rollout == default.rollout
            && self.extraction == default.extraction
            && self.update == default.update
        {
            "MCTS".into()
        } else {
            let update = match self.update {
                UpdatePolicy::Average => String::new(),
                UpdatePolicy::Rave { k } => format!(", RAVE(k={k})"),
            };
            format!(
                "MCTS[{}, {}, {}{}]",
                self.selection.label(),
                self.rollout.label(),
                self.extraction.label(),
                update
            )
        }
    }

    fn is_stochastic(&self) -> bool {
        true
    }

    fn tune(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> TuningResult {
        self.run(ctx, req).0
    }

    /// Suspend requests degrade to a cancel on this path (the caller gets
    /// a best-so-far result, not a checkpoint); resumable callers use
    /// [`MctsTuner::run_resumable`] instead.
    fn tune_with_stop(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        stop: &StopSignal,
    ) -> TuningResult {
        match self.run_with_stop(ctx, req, stop, false) {
            MctsOutcome::Finished(result, _) => result,
            MctsOutcome::Suspended(_) => unreachable!("suspension disabled"),
        }
    }
}

impl MctsTuner {
    /// The episode phase of Algorithm 3: run episodes (one budgeted call
    /// each) until the budget is exhausted. Episodes whose evaluation hits
    /// the cache are free; the idle-streak cap keeps a fully-cached search
    /// space from spinning forever. Appends the best-so-far estimated
    /// improvement to `trace` after every budget-consuming episode.
    /// Polls the [`StopSignal`] at the top of every episode (so an
    /// interruption lands within one episode) and returns the interrupt it
    /// observed, or `None` when the search terminated on its own.
    fn episode_loop(
        &self,
        ctx: &TuningContext<'_>,
        constraints: &Constraints,
        mw: &mut MeteredWhatIf<'_>,
        state: &mut MctsState,
        stop: &StopSignal,
    ) -> Option<Interrupt> {
        let base = mw.empty_workload_cost();
        let mut buffers = EpisodeBuffers::default();
        while !mw.meter().exhausted() && state.idle_streak < 500 {
            if let Some(interrupt) = stop.poll(mw.meter().used()) {
                return Some(interrupt);
            }
            let before = mw.meter().used();
            let MctsState {
                rng,
                priors,
                tree,
                amaf,
                best,
                conv,
                idle_streak,
            } = state;
            let progressed = self.run_episode(
                ctx,
                constraints,
                mw,
                tree,
                priors,
                amaf,
                best,
                rng,
                &mut buffers,
            );
            if !progressed {
                break;
            }
            if mw.meter().used() == before {
                *idle_streak += 1;
            } else {
                *idle_streak = 0;
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
                conv.push(best_imp);
                if stop.is_armed() {
                    stop.publish(mw.telemetry(), best_imp);
                }
            }
        }
        None
    }

    /// Fresh search state: the derived RNG stream, the priors phase
    /// (Algorithm 4 — spends budget through `mw`), an empty tree, and the
    /// AMAF table when RAVE updates are configured. The priors phase is
    /// atomic with respect to interruption: a stop lands at the first
    /// episode-boundary poll after it.
    fn start_state(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        mw: &mut MeteredWhatIf<'_>,
    ) -> MctsState {
        let rng = derive(req.seed, "mcts");
        let priors = if self.selection.uses_priors() {
            let obs = ctx.obs();
            let t0 = obs.span_start();
            let bp = priors::priors_budget(req.budget, ctx);
            let priors = priors::compute_priors(ctx, mw, bp);
            if let Some(t0) = t0 {
                obs.span_end(
                    t0,
                    "priors",
                    "mcts",
                    vec![("budget".into(), bp.to_string())],
                );
            }
            priors
        } else {
            vec![0.0; ctx.universe()]
        };
        let amaf = match self.update {
            UpdatePolicy::Average => None,
            UpdatePolicy::Rave { k } => Some(policy::AmafTable::new(ctx.universe(), k)),
        };
        MctsState {
            rng,
            priors: Priors::new(priors),
            tree: Tree::new(ctx.universe()),
            amaf,
            best: None,
            conv: Vec::new(),
            idle_streak: 0,
        }
    }

    /// Extraction + result assembly for a search that is done (finished
    /// naturally or stopped best-so-far).
    fn finish(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        mut mw: MeteredWhatIf<'_>,
        state: MctsState,
        interrupt: Option<Interrupt>,
    ) -> (TuningResult, Vec<f64>) {
        let obs = ctx.obs();
        let t0 = obs.span_start();
        let config = self.extraction.extract(
            ctx,
            &req.constraints,
            &mut mw,
            &state.tree,
            state.best.as_ref().map(|(c, _)| c),
        );
        if let Some(t0) = t0 {
            obs.span_end(
                t0,
                "extraction",
                "mcts",
                vec![("chosen".into(), config.len().to_string())],
            );
        }
        let used = mw.meter().used();
        let reason = mw.stop_reason(interrupt);
        let telemetry = mw.telemetry();
        let result =
            TuningResult::evaluate(self.name(), ctx, config, used, Layout::new(mw.into_trace()))
                .with_telemetry(telemetry)
                .with_stop_reason(reason);
        (result, state.conv)
    }

    /// Run the episode loop to completion, suspension, or interruption.
    /// With `allow_suspend`, a suspend observation checkpoints the session;
    /// without it (non-resumable callers), suspend degrades to a cancel.
    fn drive(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        mut mw: MeteredWhatIf<'_>,
        mut state: MctsState,
        stop: &StopSignal,
        allow_suspend: bool,
    ) -> MctsOutcome {
        let obs = ctx.obs();
        let t0 = obs.span_start();
        let interrupt = self.episode_loop(ctx, &req.constraints, &mut mw, &mut state, stop);
        if let Some(t0) = t0 {
            obs.span_end(
                t0,
                "episodes",
                "mcts",
                vec![("calls".into(), mw.meter().used().to_string())],
            );
        }
        match interrupt {
            Some(Interrupt::Suspended) if allow_suspend => {
                let t0 = obs.span_start();
                let ckpt = self.capture(req, &mw, &state);
                if let Some(t0) = t0 {
                    obs.span_end(
                        t0,
                        "capture",
                        "checkpoint",
                        vec![("calls_used".into(), ckpt.trace.len().to_string())],
                    );
                }
                MctsOutcome::Suspended(Box::new(ckpt))
            }
            interrupt => {
                let (result, conv) = self.finish(ctx, req, mw, state, interrupt);
                MctsOutcome::Finished(result, conv)
            }
        }
    }

    fn run_with_stop(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        stop: &StopSignal,
        allow_suspend: bool,
    ) -> MctsOutcome {
        let mut mw = MeteredWhatIf::new(ctx, req.budget);
        let state = self.start_state(ctx, req, &mut mw);
        self.drive(ctx, req, mw, state, stop, allow_suspend)
    }

    /// Run under a stop signal with suspension enabled: a suspend request
    /// yields a checkpoint instead of a result.
    pub fn run_resumable(
        &self,
        ctx: &TuningContext<'_>,
        req: &TuningRequest,
        stop: &StopSignal,
    ) -> MctsOutcome {
        self.run_with_stop(ctx, req, stop, true)
    }

    /// Resume a session from a checkpoint captured by
    /// [`run_resumable`](Self::run_resumable). The restored search replays
    /// from the exact episode boundary where it was suspended: same RNG
    /// stream, same tree arena, and the same cache contents and budget
    /// consumption, rebuilt from the call trace — so its final result is
    /// bit-identical to an uninterrupted run (modulo wall-clock, which the
    /// caller stamps). A checkpoint no session could have written (a
    /// trace over budget or with a repeated cell, a tree whose links do
    /// not form one, state over another universe) is an `Err`.
    pub fn resume(
        &self,
        ctx: &TuningContext<'_>,
        ckpt: &MctsCheckpoint,
        stop: &StopSignal,
    ) -> Result<MctsOutcome, String> {
        if ckpt.version != SNAPSHOT_VERSION {
            return Err(format!(
                "checkpoint version {} (this build reads {SNAPSHOT_VERSION})",
                ckpt.version
            ));
        }
        if ckpt.algorithm != self.name() {
            return Err(format!(
                "checkpoint belongs to \"{}\", resuming tuner is \"{}\"",
                ckpt.algorithm,
                self.name()
            ));
        }
        // Everything the checkpoint carries must range over this context's
        // candidates: the episode loop indexes the priors and the AMAF
        // table by candidate id. Trace cells are checked by the replay.
        let n = ctx.universe();
        if ckpt.best.as_ref().is_some_and(|(c, _)| c.universe() != n) {
            return Err(format!(
                "checkpoint best configuration does not range over {n} candidates"
            ));
        }
        if ckpt.priors.len() != n || ckpt.amaf.as_ref().is_some_and(|t| !t.spans(n)) {
            return Err(format!(
                "checkpoint priors or AMAF table do not cover {n} candidates"
            ));
        }
        let tree =
            Tree::from_snapshot(&ckpt.tree, n).map_err(|e| format!("checkpoint tree: {e}"))?;
        let mw = MeteredWhatIf::resume(ctx, ckpt.req.budget, ckpt.trace.clone(), ckpt.counters)
            .map_err(|e| format!("checkpoint: {e}"))?;
        let state = MctsState {
            rng: StdRng::from_state([ckpt.rng.0, ckpt.rng.1, ckpt.rng.2, ckpt.rng.3]),
            priors: Priors::new(ckpt.priors.clone()),
            tree,
            amaf: ckpt.amaf.clone(),
            best: ckpt.best.clone(),
            conv: ckpt.conv.clone(),
            idle_streak: ckpt.idle_streak,
        };
        Ok(self.drive(ctx, &ckpt.req, mw, state, stop, true))
    }

    fn capture(
        &self,
        req: &TuningRequest,
        mw: &MeteredWhatIf<'_>,
        state: &MctsState,
    ) -> MctsCheckpoint {
        let s = state.rng.state();
        MctsCheckpoint {
            version: SNAPSHOT_VERSION,
            algorithm: self.name(),
            req: *req,
            rng: (s[0], s[1], s[2], s[3]),
            priors: state.priors.values().to_vec(),
            tree: state.tree.snapshot(),
            trace: mw.trace().to_vec(),
            counters: mw.telemetry(),
            best: state.best.clone(),
            conv: state.conv.clone(),
            idle_streak: state.idle_streak,
            amaf: state.amaf.clone(),
        }
    }

    fn run(&self, ctx: &TuningContext<'_>, req: &TuningRequest) -> (TuningResult, Vec<f64>) {
        match self.run_with_stop(ctx, req, &StopSignal::never(), false) {
            MctsOutcome::Finished(result, conv) => (result, conv),
            MctsOutcome::Suspended(_) => unreachable!("suspension disabled"),
        }
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

    fn tpch_ctx() -> (SimulatedOptimizer, CandidateSet) {
        let inst = tpch::generate(1.0);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        (opt, cands)
    }

    #[test]
    fn respects_budget_exactly() {
        let (opt, cands) = setup(1);
        let ctx = TuningContext::new(&opt, &cands);
        for budget in [0usize, 1, 3, 25, 100] {
            let r = MctsTuner::default()
                .tune(&ctx, &TuningRequest::cardinality(3, budget).with_seed(7));
            assert!(r.calls_used <= budget, "{} > {budget}", r.calls_used);
        }
    }

    #[test]
    fn respects_cardinality_constraint() {
        let (opt, cands) = setup(2);
        let ctx = TuningContext::new(&opt, &cands);
        for k in [1usize, 2, 5] {
            let r =
                MctsTuner::default().tune(&ctx, &TuningRequest::cardinality(k, 60).with_seed(3));
            assert!(r.config.len() <= k);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (opt, cands) = setup(3);
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(3, 50).with_seed(42);
        let a = MctsTuner::default().tune(&ctx, &req);
        let b = MctsTuner::default().tune(&ctx, &req);
        assert_eq!(a.config, b.config);
        assert_eq!(a.calls_used, b.calls_used);
    }

    #[test]
    fn finds_improvement_on_tpch() {
        let (opt, cands) = tpch_ctx();
        let ctx = TuningContext::new(&opt, &cands);
        let r = MctsTuner::default().tune(&ctx, &TuningRequest::cardinality(5, 200).with_seed(1));
        assert!(
            r.improvement > 0.05,
            "MCTS with 200 calls should improve TPC-H, got {}",
            r.improvement
        );
    }

    #[test]
    fn uct_variant_runs_and_respects_budget() {
        let (opt, cands) = tpch_ctx();
        let ctx = TuningContext::new(&opt, &cands);
        let tuner = MctsTuner::default()
            .with_selection(SelectionPolicy::uct())
            .with_rollout(RolloutPolicy::RandomStep)
            .with_extraction(Extraction::Bce);
        let r = tuner.tune(&ctx, &TuningRequest::cardinality(5, 100).with_seed(5));
        assert!(r.calls_used <= 100);
        assert!(r.improvement >= 0.0);
    }

    #[test]
    fn all_policy_combinations_run() {
        let (opt, cands) = setup(6);
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(2, 30).with_seed(9);
        for selection in [SelectionPolicy::uct(), SelectionPolicy::EpsilonGreedyPrior] {
            for rollout in [
                RolloutPolicy::RandomStep,
                RolloutPolicy::FixedStep(0),
                RolloutPolicy::FixedStep(1),
            ] {
                for extraction in [Extraction::Bce, Extraction::BestGreedy, Extraction::Hybrid] {
                    let tuner = MctsTuner::default()
                        .with_selection(selection)
                        .with_rollout(rollout)
                        .with_extraction(extraction);
                    let r = tuner.tune(&ctx, &req);
                    assert!(r.calls_used <= 30, "{}", tuner.name());
                    assert!(r.config.len() <= 2);
                }
            }
        }
    }

    #[test]
    fn rave_and_alternate_policies_respect_budget() {
        let (opt, cands) = setup(7);
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(3, 60).with_seed(4);
        let variants = [
            MctsTuner::default().with_update(UpdatePolicy::Rave { k: 50.0 }),
            MctsTuner::default().with_selection(SelectionPolicy::Boltzmann { tau: 0.1 }),
            MctsTuner::default().with_selection(SelectionPolicy::ClassicEpsilon { epsilon: 0.2 }),
            MctsTuner::default()
                .with_selection(SelectionPolicy::uct())
                .with_update(UpdatePolicy::Rave { k: 20.0 }),
        ];
        for tuner in variants {
            let r = tuner.tune(&ctx, &req);
            assert!(r.calls_used <= 60, "{}", tuner.name());
            assert!(r.config.len() <= 3, "{}", tuner.name());
            let again = tuner.tune(&ctx, &req);
            assert_eq!(r.config, again.config, "{} not deterministic", tuner.name());
        }
    }

    #[test]
    fn tree_walk_extractions_respect_constraints_and_budget() {
        let (opt, cands) = tpch_ctx();
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(5, 150).with_seed(3);
        for extraction in [Extraction::TreeByValue, Extraction::TreeByVisits] {
            let tuner = MctsTuner::default().with_extraction(extraction);
            let r = tuner.tune(&ctx, &req);
            assert!(r.calls_used <= 150, "{}", tuner.name());
            assert!(r.config.len() <= 5, "{}", tuner.name());
            assert!(r.improvement >= 0.0);
        }
    }

    #[test]
    fn traced_run_reports_monotone_best_so_far() {
        let (opt, cands) = tpch_ctx();
        let ctx = TuningContext::new(&opt, &cands);
        let req = TuningRequest::cardinality(5, 150).with_seed(2);
        let (r, trace) = MctsTuner::default().tune_traced(&ctx, &req);
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!(r.calls_used <= 150);
        // The trace tracks estimated improvements in [0, 1].
        assert!(trace.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn names_and_labels() {
        assert_eq!(MctsTuner::default().name(), "MCTS");
        let t = MctsTuner::default()
            .with_selection(SelectionPolicy::uct())
            .with_rollout(RolloutPolicy::RandomStep)
            .with_extraction(Extraction::Bce);
        assert!(t.name().contains("UCT"));
    }

    #[test]
    fn storage_constraint_respected() {
        let (opt, cands) = tpch_ctx();
        let ctx = TuningContext::new(&opt, &cands);
        // Limit to ~one small index worth of bytes.
        let limit = 50 * 1024 * 1024;
        let req = TuningRequest::new(Constraints::with_storage(10, limit), 150).with_seed(2);
        let r = MctsTuner::default().tune(&ctx, &req);
        assert!(opt.config_size_bytes(&r.config) <= limit);
    }
}
