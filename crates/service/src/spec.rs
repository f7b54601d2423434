//! Session submission specs and daemon configuration.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::tuner::TuningRequest;
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_persist::Durability;
use ixtune_workload::gen::{synth, BenchmarkKind};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Which enumeration algorithm a session runs. Only `Mcts` supports
/// suspension (checkpoint/resume); the greedy family supports cancel and
/// deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    Mcts,
    VanillaGreedy,
    TwoPhase,
    AutoAdmin,
}

impl AlgorithmSpec {
    /// Parse a CLI-friendly name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "mcts" => Some(Self::Mcts),
            "greedy" | "vanilla" | "vanilla-greedy" => Some(Self::VanillaGreedy),
            "twophase" | "two-phase" => Some(Self::TwoPhase),
            "autoadmin" | "auto-admin" => Some(Self::AutoAdmin),
            _ => None,
        }
    }

    /// Whether checkpoint/resume is available for this algorithm.
    pub fn resumable(self) -> bool {
        matches!(self, Self::Mcts)
    }
}

/// Which workload a session tunes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One of the paper's benchmarks, by name: `tpch`, `tpcds`, `job`,
    /// `reald`, `realm`.
    Bench(String),
    /// A synthetic instance from `synth::instance(seed)`.
    Synth(u64),
}

impl WorkloadSpec {
    /// Parse `tpch` / `synth:42` style CLI notation.
    pub fn parse(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        if let Some(seed) = lower.strip_prefix("synth:") {
            return seed.parse().ok().map(WorkloadSpec::Synth);
        }
        bench_kind(&lower)
            .is_some()
            .then_some(WorkloadSpec::Bench(lower))
    }

    /// Stable cache key (also the display name).
    pub fn key(&self) -> String {
        match self {
            WorkloadSpec::Bench(name) => name.clone(),
            WorkloadSpec::Synth(seed) => format!("synth:{seed}"),
        }
    }

    /// Generate the workload and build the optimizer + candidate set the
    /// way the experiment runner does: default candidates and the default
    /// cost model.
    pub fn prepare(&self) -> Result<Prepared, String> {
        let inst = match self {
            WorkloadSpec::Bench(name) => bench_kind(name)
                .ok_or_else(|| format!("unknown workload `{name}`"))?
                .generate(),
            WorkloadSpec::Synth(seed) => synth::instance(*seed),
        };
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
        Ok(Prepared { cands, opt })
    }
}

fn bench_kind(name: &str) -> Option<BenchmarkKind> {
    match name {
        "tpch" => Some(BenchmarkKind::TpcH),
        "tpcds" => Some(BenchmarkKind::TpcDs),
        "job" => Some(BenchmarkKind::Job),
        "reald" => Some(BenchmarkKind::RealD),
        "realm" => Some(BenchmarkKind::RealM),
        _ => None,
    }
}

/// An owned, shareable workload: candidate set + simulated optimizer.
/// Sessions borrow `TuningContext` views of it.
pub struct Prepared {
    pub cands: CandidateSet,
    pub opt: SimulatedOptimizer,
}

/// Everything a client submits for one tuning session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubmitSpec {
    pub workload: WorkloadSpec,
    pub algorithm: AlgorithmSpec,
    /// Cardinality constraint `K`.
    pub k: usize,
    /// Optional storage constraint (bytes).
    pub storage_bytes: Option<u64>,
    /// What-if call budget `B`.
    pub budget: usize,
    /// Seed for stochastic tuners.
    pub seed: u64,
    /// Logical intra-session thread count (`0` = auto); the daemon caps it
    /// at its configured maximum. Results are invariant to it.
    pub session_threads: usize,
    /// Wall-clock deadline for the session, in milliseconds per run
    /// segment.
    pub deadline_ms: Option<u64>,
    /// Deterministic suspend trigger (fires once this many what-if calls
    /// are spent): the smoke-test hook for checkpoint/resume. Cleared on
    /// resume so the session doesn't immediately re-suspend.
    pub pause_after_calls: Option<usize>,
    /// Deterministic cancel trigger, same semantics.
    pub cancel_after_calls: Option<usize>,
}

impl SubmitSpec {
    /// A minimal spec with the common defaults.
    pub fn new(workload: WorkloadSpec, algorithm: AlgorithmSpec, k: usize, budget: usize) -> Self {
        Self {
            workload,
            algorithm,
            k,
            storage_bytes: None,
            budget,
            seed: 0,
            session_threads: 1,
            deadline_ms: None,
            pause_after_calls: None,
            cancel_after_calls: None,
        }
    }

    /// The core-level request this spec denotes, with the thread count
    /// already capped by the daemon.
    pub fn request(&self, max_session_threads: usize) -> TuningRequest {
        let threads = if self.session_threads == 0 {
            max_session_threads
        } else {
            self.session_threads.min(max_session_threads)
        };
        let mut req = TuningRequest::cardinality(self.k, self.budget)
            .with_seed(self.seed)
            .with_session_threads(threads);
        if let Some(b) = self.storage_bytes {
            req = req.with_storage(b);
        }
        req
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be ≥ 1".into());
        }
        if let WorkloadSpec::Bench(name) = &self.workload {
            if bench_kind(name).is_none() {
                return Err(format!("unknown workload `{name}`"));
            }
        }
        if self.pause_after_calls.is_some() && !self.algorithm.resumable() {
            return Err("pause_after_calls requires a resumable algorithm (mcts)".into());
        }
        Ok(())
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Sessions allowed to run simultaneously (= worker threads).
    pub max_concurrent: usize,
    /// Admission control: queued-but-not-terminal sessions beyond this are
    /// rejected at submit.
    pub queue_capacity: usize,
    /// Cap composed with each spec's `session_threads`.
    pub max_session_threads: usize,
    /// The daemon's durable root (`--data-dir`): the write-ahead log and
    /// generation snapshots live directly inside it, and suspended
    /// sessions' checkpoints ride in the log's records. Restarting on the
    /// same directory recovers the warm store and session registry.
    pub data_dir: PathBuf,
    /// When appended WAL records reach stable storage
    /// (`--durability always|batch|never`).
    pub durability: Durability,
    /// WAL size that triggers snapshot compaction after a session settles.
    pub wal_compact_bytes: u64,
    /// Byte bound on the daemon-wide warm cost store (estimated resident
    /// size; least-recently-touched workload snapshots are evicted first).
    pub warm_store_bytes: u64,
    /// Prepared workloads kept in the shared cache; least-recently-used
    /// entries beyond this are dropped (sessions already holding an `Arc`
    /// finish unaffected).
    pub prepared_capacity: usize,
    /// Seeded fault-injection spec (`--fault-spec`), e.g.
    /// `seed=42;whatif.error=p0.05`. Empty disables injection entirely —
    /// the hot paths see one inert branch.
    pub fault_spec: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_concurrent: 2,
            queue_capacity: 16,
            max_session_threads: ixtune_common::sync::available_parallelism(),
            // Absolute by construction — the old CWD-relative "snapshots"
            // default scattered state wherever the daemon happened to
            // start. Production deployments pass an explicit --data-dir.
            data_dir: std::env::temp_dir().join("ixtuned-data"),
            durability: Durability::Batch,
            wal_compact_bytes: 4 << 20,
            warm_store_bytes: 64 << 20,
            prepared_capacity: 8,
            fault_spec: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_notation() {
        assert_eq!(
            WorkloadSpec::parse("tpch"),
            Some(WorkloadSpec::Bench("tpch".into()))
        );
        assert_eq!(WorkloadSpec::parse("synth:7"), Some(WorkloadSpec::Synth(7)));
        assert_eq!(WorkloadSpec::parse("bogus"), None);
        assert_eq!(AlgorithmSpec::parse("mcts"), Some(AlgorithmSpec::Mcts));
        assert_eq!(
            AlgorithmSpec::parse("two-phase"),
            Some(AlgorithmSpec::TwoPhase)
        );
        assert_eq!(AlgorithmSpec::parse("nope"), None);
    }

    #[test]
    fn request_caps_threads() {
        let mut spec = SubmitSpec::new(WorkloadSpec::Synth(1), AlgorithmSpec::Mcts, 3, 50);
        spec.session_threads = 0;
        assert_eq!(spec.request(4).session_threads, 4);
        spec.session_threads = 16;
        assert_eq!(spec.request(4).session_threads, 4);
        spec.session_threads = 2;
        assert_eq!(spec.request(4).session_threads, 2);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = SubmitSpec::new(WorkloadSpec::Synth(1), AlgorithmSpec::VanillaGreedy, 3, 50);
        assert!(spec.validate().is_ok());
        spec.pause_after_calls = Some(10);
        assert!(spec.validate().is_err(), "greedy cannot suspend");
        spec.algorithm = AlgorithmSpec::Mcts;
        assert!(spec.validate().is_ok());
        spec.k = 0;
        assert!(spec.validate().is_err());
    }
}
