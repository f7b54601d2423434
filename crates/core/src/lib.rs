//! Budget-aware index configuration enumeration — the core of the paper.
//!
//! * [`derived`] — what-if cache and cost derivation (Eq. 1 / Eq. 2);
//! * [`derivation_state`] — incremental workload-level derivation used by
//!   every enumerator's inner loop;
//! * [`budget`] — the budget meter and the tuner-side metered what-if
//!   client, the one path from a tuner to the optimizer;
//! * [`obs`] — the per-session observability handle: metric instruments
//!   and tracing spans, zero-cost when disabled;
//! * [`matrix`] — budget-allocation-matrix layouts (§3.2);
//! * [`tuner`] — the [`Tuner`] trait, contexts, constraints, and
//!   oracle-evaluated results;
//! * [`greedy`] / [`twophase`] / [`autoadmin`] — the budget-aware greedy
//!   variants of §4.2;
//! * [`mcts`] — the MCTS tuner of §5–6 with its selection, rollout, and
//!   extraction policies;
//! * [`parallel`] — the frozen-cache candidate-scan kernel, run inline
//!   on the session's thread (bit-identical to the serial scan; see
//!   DESIGN.md §5c);
//! * [`stop`] — cooperative interruption: cancel flags, deadlines, and
//!   suspend requests polled at enumeration-step / episode boundaries;
//! * [`checkpoint`] — versioned snapshots of suspended MCTS sessions that
//!   resume bit-identically (see DESIGN.md §6);
//! * [`warm`] — the daemon-wide warm cost store: cross-session reuse of
//!   what-if answers via epoch-published snapshots (see DESIGN.md §8).
//!
//! # Example
//!
//! ```
//! use ixtune_core::prelude::*;
//! use ixtune_candidates::generate_default;
//! use ixtune_optimizer::{CostModel, SimulatedOptimizer};
//! use ixtune_workload::gen::synth;
//!
//! let inst = synth::instance(42);
//! let cands = generate_default(&inst);
//! let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
//! let ctx = TuningContext::new(&opt, &cands);
//!
//! let req = TuningRequest::cardinality(3, 50).with_seed(1);
//! let result = MctsTuner::default().tune(&ctx, &req);
//! assert!(result.calls_used <= 50);
//! assert!(result.config.len() <= 3);
//! ```

pub mod autoadmin;
pub mod budget;
pub mod checkpoint;
pub mod derivation_state;
pub mod derived;
pub mod greedy;
pub mod matrix;
pub mod mcts;
pub mod obs;
pub mod parallel;
pub mod stop;
pub mod tuner;
pub mod twophase;
pub mod warm;

pub use autoadmin::AutoAdminGreedy;
pub use budget::{BudgetMeter, MeteredWhatIf, Phase, SessionTelemetry};
pub use checkpoint::{MctsCheckpoint, SNAPSHOT_VERSION};
pub use derivation_state::DerivationState;
pub use derived::WhatIfCache;
pub use greedy::{greedy_enumerate, VanillaGreedy};
pub use matrix::Layout;
pub use mcts::extract::Extraction;
pub use mcts::policy::{AmafTable, SelectionPolicy};
pub use mcts::rollout::RolloutPolicy;
pub use mcts::tree::TreeSnapshot;
pub use mcts::{MctsOutcome, MctsTuner, UpdatePolicy};
pub use obs::Obs;
pub use parallel::{frozen_argmin, winner_values, FrozenEval, MIN_PARALLEL_WORK};
pub use stop::{Interrupt, Progress, StopReason, StopSignal};
pub use tuner::{Constraints, SessionFaults, Tuner, TuningContext, TuningRequest, TuningResult};
pub use twophase::TwoPhaseGreedy;
pub use warm::{WarmSnapshot, WarmState, WarmStore, WarmStoreStats};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::autoadmin::AutoAdminGreedy;
    pub use crate::budget::{BudgetMeter, MeteredWhatIf, Phase, SessionTelemetry};
    pub use crate::greedy::VanillaGreedy;
    pub use crate::mcts::extract::Extraction;
    pub use crate::mcts::policy::SelectionPolicy;
    pub use crate::mcts::rollout::RolloutPolicy;
    pub use crate::mcts::{MctsOutcome, MctsTuner, UpdatePolicy};
    pub use crate::obs::Obs;
    pub use crate::stop::{StopReason, StopSignal};
    pub use crate::tuner::{Constraints, Tuner, TuningContext, TuningRequest, TuningResult};
    pub use crate::twophase::TwoPhaseGreedy;
}
