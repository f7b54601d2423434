//! Versioned on-disk snapshots of suspended MCTS sessions.
//!
//! A checkpoint captures everything the episode loop reads between
//! episodes, each fact once: the search tree (exact arena numbering; a
//! node's configuration follows from the links that reach it), the
//! layout trace, the telemetry counters, the RNG state (raw xoshiro256**
//! words), the priors vector, the best-explored configuration, the
//! convergence trace, the idle-streak counter, and the AMAF table when
//! RAVE updates are configured. The what-if cache and the budget meter
//! are not stored: resume rebuilds the cache from the trace's cells in
//! call order, each read from the session's warm snapshot when it holds
//! the cell and priced by the optimizer otherwise (both give the same
//! bits: the snapshot is keyed by the optimizer's content fingerprint),
//! and the meter as the request's budget with one call used per cell.
//! Suspension happens only at episode boundaries, so no mid-episode
//! state exists to capture; resuming replays the remaining episodes
//! exactly as the uninterrupted run would have executed them.
//!
//! The format is line-oriented JSON (one document) with an explicit
//! [`SNAPSHOT_VERSION`]; readers reject versions they do not know rather
//! than guess. [`MctsCheckpoint::from_json`] also reads version 1, which
//! stored the cache image, the meter and every node's configuration
//! besides: it ignores those copies and takes the derivation count from
//! the image. `f64` values survive the JSON round trip bit-exactly (see
//! the vendored `serde_json` docs).

use crate::budget::SessionTelemetry;
use crate::mcts::policy::AmafTable;
use crate::mcts::tree::TreeSnapshot;
use crate::tuner::TuningRequest;
use ixtune_common::{IndexSet, QueryId};
use serde::{Deserialize, Serialize, Value};

/// Current checkpoint format version. Bump on any incompatible change to
/// [`MctsCheckpoint`] or the snapshot types it embeds.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Serialized state of a suspended MCTS tuning session.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MctsCheckpoint {
    /// Format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// `Tuner::name()` of the capturing tuner — resume refuses a
    /// differently-configured tuner, which would diverge silently.
    pub algorithm: String,
    /// The original request (constraints, budget, seed).
    pub req: TuningRequest,
    /// Raw xoshiro256** state of the episode RNG.
    pub rng: (u64, u64, u64, u64),
    /// Singleton priors η(W, {I_i}) from the (already completed) priors
    /// phase.
    pub priors: Vec<f64>,
    /// Search tree with exact arena numbering.
    pub tree: TreeSnapshot,
    /// Chronological budget-consuming calls (the layout under
    /// construction). Resume replays them into the what-if cache, and
    /// their count is the budget used.
    pub trace: Vec<(QueryId, IndexSet)>,
    /// Telemetry counters at suspension, derivations included.
    pub counters: SessionTelemetry,
    /// Best evaluated configuration and its estimated cost.
    pub best: Option<(IndexSet, f64)>,
    /// Convergence trace so far.
    pub conv: Vec<f64>,
    /// Consecutive budget-free episodes at suspension.
    pub idle_streak: usize,
    /// AMAF statistics (RAVE updates only).
    pub amaf: Option<AmafTable>,
}

impl MctsCheckpoint {
    /// Compact JSON encoding (a single line — fits the service's
    /// line-delimited file layout).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Parse a checkpoint from JSON. A version-1 document is read as the
    /// current version: its derivation count moves from the cache image
    /// into `counters`, and its other copies are ignored. Structural
    /// validation (tree links, trace cells, workload shape) happens in
    /// `MctsTuner::resume`.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let doc =
            serde_json::value_from_str(s).map_err(|e| format!("malformed checkpoint: {e}"))?;
        let mut ckpt =
            MctsCheckpoint::from_value(&doc).map_err(|e| format!("malformed checkpoint: {e}"))?;
        if ckpt.version == 1 {
            let derivations = doc
                .get("cache")
                .and_then(|c| c.get("derivations"))
                .and_then(Value::as_u64)
                .ok_or("malformed checkpoint: version 1 without a derivation count")?;
            ckpt.counters.derivations = derivations as usize;
            ckpt.version = SNAPSHOT_VERSION;
        }
        Ok(ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcts::extract::Extraction;
    use crate::mcts::{MctsOutcome, MctsTuner};
    use crate::stop::StopSignal;
    use crate::tuner::TuningContext;
    use ixtune_candidates::generate_default;
    use ixtune_optimizer::{CostModel, SimulatedOptimizer};
    use ixtune_workload::gen::synth;

    fn capture(seed: u64, budget: usize, pause: usize) -> MctsCheckpoint {
        let inst = synth::instance(seed);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let req = crate::tuner::TuningRequest::cardinality(3, budget).with_seed(seed);
        let stop = StopSignal::armed().suspend_after_calls(pause);
        match MctsTuner::default().run_resumable(&ctx, &req, &stop) {
            MctsOutcome::Suspended(ckpt) => *ckpt,
            MctsOutcome::Finished(..) => panic!("expected suspension at {pause} calls"),
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let ckpt = capture(3, 120, 60);
        assert_eq!(ckpt.version, SNAPSHOT_VERSION);
        assert!(ckpt.trace.len() >= 60, "suspended after the trigger");
        let json = ckpt.to_json();
        assert!(!json.contains('\n'), "one line for line-delimited files");
        let back = MctsCheckpoint::from_json(&json).unwrap();
        // Re-encoding the parsed checkpoint must reproduce the bytes —
        // field order and every f64 bit pattern survive.
        assert_eq!(back.to_json(), json);
        assert_eq!(back.tree, ckpt.tree);
        assert_eq!(back.trace, ckpt.trace);
        assert_eq!(back.counters, ckpt.counters);
        assert_eq!(back.rng, ckpt.rng);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MctsCheckpoint::from_json("").is_err());
        assert!(MctsCheckpoint::from_json("{\"version\": 1}").is_err());
        assert!(MctsCheckpoint::from_json("not json").is_err());
    }

    #[test]
    fn resume_rejects_version_and_algorithm_mismatch() {
        let inst = synth::instance(5);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let mut ckpt = capture(5, 100, 50);

        let tuner = MctsTuner::default();
        ckpt.version = SNAPSHOT_VERSION + 1;
        assert!(tuner.resume(&ctx, &ckpt, &StopSignal::never()).is_err());
        ckpt.version = SNAPSHOT_VERSION;

        let other = MctsTuner::default().with_extraction(Extraction::Hybrid);
        assert!(other.resume(&ctx, &ckpt, &StopSignal::never()).is_err());

        assert!(tuner.resume(&ctx, &ckpt, &StopSignal::never()).is_ok());
    }

    #[test]
    fn resume_rejects_configurations_over_a_foreign_universe() {
        let inst = synth::instance(3);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let ckpt = capture(3, 120, 60);
        let n = ckpt.priors.len();
        // A larger universe, so the foreign tree's actions reach past this
        // one's (a tree stores actions, not the universe they range over).
        let foreign = (4..)
            .map(|seed| capture(seed, 120, 60))
            .find(|c| c.priors.len() > n)
            .expect("some synth instance has more candidates");

        let tuner = MctsTuner::default();
        let never = StopSignal::never();
        let mut bad = ckpt.clone();
        bad.tree = foreign.tree.clone();
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "foreign tree");
        let mut bad = ckpt.clone();
        bad.best = foreign.best.clone();
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "foreign best");
        let mut bad = ckpt.clone();
        bad.trace = foreign.trace.clone();
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "foreign trace");
        let mut bad = ckpt.clone();
        bad.amaf = Some(AmafTable::new(foreign.priors.len(), 50.0));
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "foreign AMAF");
        let mut bad = ckpt.clone();
        bad.priors.pop();
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "short priors");

        assert!(tuner.resume(&ctx, &ckpt, &never).is_ok());
    }

    #[test]
    fn resume_rejects_traces_no_session_could_have_made() {
        let inst = synth::instance(5);
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        let ctx = TuningContext::new(&opt, &cands);
        let ckpt = capture(5, 100, 50);
        let tuner = MctsTuner::default();
        let never = StopSignal::never();
        assert!(tuner.resume(&ctx, &ckpt, &never).is_ok());

        let mut bad = ckpt.clone();
        let first = bad.trace[0].clone();
        bad.trace.push(first);
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "repeated cell");
        let mut bad = ckpt.clone();
        bad.req.budget = bad.trace.len() - 1;
        assert!(tuner.resume(&ctx, &bad, &never).is_err(), "over budget");
    }

    #[test]
    fn version_1_documents_read_their_derivation_count_from_the_cache_image() {
        let ckpt = capture(3, 120, 60);
        let v2 = ckpt.to_json();
        let v1 = v2.replacen("\"version\":2", "\"version\":1", 1).replacen(
            "\"trace\"",
            "\"cache\":{\"derivations\":41},\"trace\"",
            1,
        );
        let back = MctsCheckpoint::from_json(&v1).unwrap();
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert_eq!(back.counters.derivations, 41);
        let no_image = v2.replacen("\"version\":2", "\"version\":1", 1);
        assert!(MctsCheckpoint::from_json(&no_image).is_err());
    }
}
