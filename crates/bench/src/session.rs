//! A prepared tuning session: workload + candidates + simulated optimizer.

use ixtune_candidates::{generate_default, CandidateSet};
use ixtune_core::tuner::TuningContext;
use ixtune_optimizer::{CostModel, SimulatedOptimizer};
use ixtune_workload::gen::BenchmarkKind;
use ixtune_workload::WorkloadStats;

/// Everything the experiment runners need for one benchmark workload.
pub struct Session {
    pub kind: BenchmarkKind,
    pub stats: WorkloadStats,
    pub cands: CandidateSet,
    pub opt: SimulatedOptimizer,
}

impl Session {
    /// Generate the workload, derive candidates, and build the optimizer.
    pub fn build(kind: BenchmarkKind) -> Self {
        Self::build_with(kind, CostModel::default())
    }

    /// Build with a custom cost model — e.g. `quirk_eps > 0` for the
    /// robustness experiment, where Assumption 1 (monotonicity) is allowed
    /// to fail like it can on a real optimizer.
    pub fn build_with(kind: BenchmarkKind, model: CostModel) -> Self {
        let inst = kind.generate();
        let stats = inst.stats();
        let cands = generate_default(&inst);
        let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), model);
        Self {
            kind,
            stats,
            cands,
            opt,
        }
    }

    pub fn ctx(&self) -> TuningContext<'_> {
        TuningContext::new(&self.opt, &self.cands)
    }

    /// The default storage-constraint limit used by the DTA comparison:
    /// 3× the database size (the DTA default noted in §7.3).
    pub fn storage_limit_3x(&self) -> u64 {
        self.opt.schema().database_size_bytes().saturating_mul(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_tpch_session() {
        let s = Session::build(BenchmarkKind::TpcH);
        assert_eq!(s.stats.num_queries, 22);
        assert!(s.cands.len() > 50);
        assert!(s.storage_limit_3x() > s.opt.schema().database_size_bytes());
        let ctx = s.ctx();
        assert_eq!(ctx.universe(), s.cands.len());
    }
}
