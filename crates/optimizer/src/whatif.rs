//! The what-if optimizer interface and its simulated implementation.
//!
//! Index tuners interact with the query optimizer exclusively through
//! "what-if" calls: *what would query `q` cost if the indexes in
//! configuration `C` existed?* [`WhatIfOptimizer`] is that API;
//! [`SimulatedOptimizer`] implements it over the analytical
//! [`CostModel`], playing the role SQL Server's
//! hypothetical-index interface plays in the paper.

use crate::compiled::{CompiledWorkload, Scratch};
use crate::cost::CostModel;
use crate::index::IndexDef;
use crate::latency::LatencyModel;
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_workload::{BenchmarkInstance, Query, Schema, Workload};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Reusable compiled-kernel evaluation buffers. Thread-local so
    /// `what_if_cost` stays `&self` and race-free when concurrent sessions
    /// share one optimizer; sized once per thread and allocation-free
    /// after.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// The what-if API surface a tuner sees.
pub trait WhatIfOptimizer: Sync {
    /// Number of queries in the tuned workload.
    fn num_queries(&self) -> usize;

    /// Number of candidate indexes (the configuration universe).
    fn num_candidates(&self) -> usize;

    /// Optimizer-estimated cost of query `q` under hypothetical
    /// configuration `config`. Each invocation counts as one optimizer call
    /// (budget accounting and caching live on the tuner side).
    fn what_if_cost(&self, q: QueryId, config: &IndexSet) -> f64;

    /// Total number of what-if invocations served (diagnostics).
    fn calls_served(&self) -> u64;
}

/// Simulated optimizer: the workload, the candidate-index universe, and a
/// cost model.
pub struct SimulatedOptimizer {
    schema: Schema,
    workload: Workload,
    candidates: Vec<IndexDef>,
    /// Precomputed per-candidate sizes — storage-constraint checks sit in
    /// per-candidate inner loops and must not recompute column widths.
    cand_sizes: Vec<u64>,
    model: CostModel,
    latency: LatencyModel,
    calls: AtomicU64,
    /// Compiled what-if kernel: serves every call, bit-identical to the
    /// interpreted model kept as the test oracle.
    compiled: CompiledWorkload,
}

impl SimulatedOptimizer {
    /// Build from an instance and a candidate universe (typically produced
    /// by `ixtune-candidates`).
    pub fn new(instance: BenchmarkInstance, candidates: Vec<IndexDef>, model: CostModel) -> Self {
        let BenchmarkInstance { schema, workload } = instance;
        // `per_query_slot[q][slot]` = candidate ids whose table matches the
        // slot's table: the compiled kernel's per-slot postings.
        let per_query_slot: Vec<Vec<Vec<IndexId>>> = workload
            .queries
            .iter()
            .map(|q| {
                q.scans
                    .iter()
                    .map(|&t| {
                        candidates
                            .iter()
                            .enumerate()
                            .filter(|(_, idx)| idx.table == t)
                            .map(|(i, _)| IndexId::from(i))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let cand_sizes = candidates.iter().map(|c| c.size_bytes(&schema)).collect();
        let compiled =
            CompiledWorkload::build(&schema, &workload, &candidates, &per_query_slot, &model);
        Self {
            schema,
            workload,
            candidates,
            cand_sizes,
            model,
            latency: LatencyModel::default(),
            calls: AtomicU64::new(0),
            compiled,
        }
    }

    /// Number of queries compiled into plan tables — feeds the
    /// `ixtune_compiled_queries_total` counter.
    pub fn compiled_query_count(&self) -> usize {
        self.compiled.num_queries()
    }

    /// Interpreted-path cost — the test oracle the compiled kernel is
    /// pinned against. Does **not** count as a served call.
    pub fn interpreted_what_if_cost(&self, q: QueryId, config: &IndexSet) -> f64 {
        let query = self.workload.query(q);
        // Each slot sees the members of `config` on its table, in ascending
        // id order: the order the kernel's per-slot postings list them.
        self.model
            .query_cost_with(&self.schema, query, &|slot, sink| {
                let table = query.scans[slot.index()];
                for id in config.iter() {
                    let idx = &self.candidates[id.index()];
                    if idx.table == table {
                        sink(idx);
                    }
                }
            })
    }

    /// Modeled wall-clock of one what-if call for query `q` — what a real
    /// optimizer invocation for this query shape would cost in seconds
    /// (see [`LatencyModel`]). Observability reports this next to the
    /// measured in-process latency.
    pub fn call_latency_s(&self, q: QueryId) -> f64 {
        self.latency.call_latency_s(self.workload.query(q))
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    pub fn candidates(&self) -> &[IndexDef] {
        &self.candidates
    }

    pub fn candidate(&self, id: IndexId) -> &IndexDef {
        &self.candidates[id.index()]
    }

    pub fn query(&self, q: QueryId) -> &Query {
        self.workload.query(q)
    }

    /// Estimated size in bytes of one candidate (precomputed).
    #[inline]
    pub fn candidate_size_bytes(&self, id: IndexId) -> u64 {
        self.cand_sizes[id.index()]
    }

    /// Total estimated size in bytes of the indexes in `config`.
    pub fn config_size_bytes(&self, config: &IndexSet) -> u64 {
        config.iter().map(|id| self.cand_sizes[id.index()]).sum()
    }

    /// Sum of what-if costs over the whole workload (one call per query).
    pub fn workload_cost(&self, config: &IndexSet) -> f64 {
        (0..self.workload.len())
            .map(|i| self.what_if_cost(QueryId::from(i), config))
            .sum()
    }

    /// Content fingerprint of everything a what-if answer depends on:
    /// schema (tables, row counts, column types and NDVs), workload
    /// (scans, filters with selectivities, joins, grouping/ordering/
    /// projection, weights), and the candidate universe (tables, key and
    /// include column lists, in id order). Two optimizers with equal
    /// fingerprints price every `(query, config)` cell identically, so the
    /// daemon's warm cost store keys snapshots by this value: query ids
    /// and index ids mean the same thing on both sides, and cached costs
    /// transfer bit-exactly.
    ///
    /// FNV-1a over a canonical field walk (same constants as
    /// `Layout::fingerprint`), with separator bytes between records so
    /// field shifts can't alias.
    pub fn content_fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, b: &[u8]) {
                for &x in b {
                    self.0 ^= u64::from(x);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn u64(&mut self, v: u64) {
                self.bytes(&v.to_le_bytes());
            }
            fn f64(&mut self, v: f64) {
                self.u64(v.to_bits());
            }
            fn str(&mut self, s: &str) {
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
            fn sep(&mut self) {
                self.bytes(&[0xff]);
            }
            fn field(&mut self) {
                self.bytes(&[0xfe]);
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let qcol = |h: &mut Fnv, c: &ixtune_workload::QCol| {
            h.u64(u64::from(c.scan.0));
            h.u64(c.column.index() as u64);
        };
        for (_, table) in self.schema.iter() {
            h.str(&table.name);
            h.u64(table.rows);
            for col in &table.columns {
                h.field();
                h.str(&col.name);
                h.str(&format!("{:?}", col.ty));
                h.u64(col.ndv);
            }
            h.sep();
        }
        h.sep();
        for q in &self.workload.queries {
            h.str(&q.name);
            for t in &q.scans {
                h.u64(t.index() as u64);
            }
            h.field();
            for f in &q.filters {
                qcol(&mut h, &f.col);
                h.str(&format!("{:?}", f.kind));
                h.f64(f.selectivity);
            }
            h.field();
            for j in &q.joins {
                qcol(&mut h, &j.left);
                qcol(&mut h, &j.right);
            }
            h.field();
            for group in [&q.group_by, &q.order_by, &q.projection] {
                for c in group {
                    qcol(&mut h, c);
                }
                h.field();
            }
            h.f64(q.weight);
            h.sep();
        }
        h.sep();
        for cand in &self.candidates {
            h.u64(cand.table.index() as u64);
            for k in &cand.keys {
                h.u64(k.index() as u64);
            }
            h.field();
            for k in &cand.includes {
                h.u64(k.index() as u64);
            }
            h.sep();
        }
        h.0
    }
}

impl WhatIfOptimizer for SimulatedOptimizer {
    fn num_queries(&self) -> usize {
        self.workload.len()
    }

    fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    fn what_if_cost(&self, q: QueryId, config: &IndexSet) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        SCRATCH.with(|s| self.compiled.cost(q.index(), config, &mut s.borrow_mut()))
    }

    fn calls_served(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_common::{ColumnId, TableId};
    use ixtune_workload::gen::synth;
    use ixtune_workload::{ColType, QCol, QueryBuilder, TableBuilder};

    fn tiny_instance() -> (BenchmarkInstance, Vec<IndexDef>) {
        let mut schema = Schema::new();
        let t = schema
            .add_table(
                TableBuilder::new("t", 500_000)
                    .key("id", ColType::Int)
                    .col("a", ColType::Int, 100)
                    .col("b", ColType::Int, 10_000)
                    .build(),
            )
            .unwrap();
        let mut b = QueryBuilder::new("q0");
        let s = b.scan(t);
        b.eq(QCol::new(s, ColumnId::new(1)), 0.01);
        b.project(QCol::new(s, ColumnId::new(2)));
        let w = Workload::new("w", vec![b.build()]);
        let cands = vec![
            IndexDef::new(TableId::new(0), vec![ColumnId::new(1)], vec![]),
            IndexDef::new(
                TableId::new(0),
                vec![ColumnId::new(1)],
                vec![ColumnId::new(2)],
            ),
        ];
        (BenchmarkInstance::new(schema, w), cands)
    }

    #[test]
    fn counts_calls_and_costs_monotone() {
        let (inst, cands) = tiny_instance();
        let opt = SimulatedOptimizer::new(inst, cands, CostModel::default());
        let n = opt.num_candidates();
        let empty = IndexSet::empty(n);
        let one = IndexSet::singleton(n, IndexId::new(0));
        let both = IndexSet::full(n);
        let q = QueryId::new(0);
        let c_empty = opt.what_if_cost(q, &empty);
        let c_one = opt.what_if_cost(q, &one);
        let c_both = opt.what_if_cost(q, &both);
        assert!(c_one <= c_empty);
        assert!(c_both <= c_one);
        assert_eq!(opt.calls_served(), 3);
    }

    #[test]
    fn workload_cost_sums_queries() {
        let (inst, cands) = tiny_instance();
        let opt = SimulatedOptimizer::new(inst, cands, CostModel::default());
        let empty = IndexSet::empty(opt.num_candidates());
        let total = opt.workload_cost(&empty);
        let single = opt.what_if_cost(QueryId::new(0), &empty);
        assert!((total - single).abs() < 1e-9);
    }

    #[test]
    fn config_size_accumulates() {
        let (inst, cands) = tiny_instance();
        let opt = SimulatedOptimizer::new(inst, cands, CostModel::default());
        let n = opt.num_candidates();
        let one = IndexSet::singleton(n, IndexId::new(0));
        let both = IndexSet::full(n);
        assert!(opt.config_size_bytes(&both) > opt.config_size_bytes(&one));
        assert_eq!(opt.config_size_bytes(&IndexSet::empty(n)), 0);
    }

    #[test]
    fn content_fingerprint_distinguishes_instances() {
        let (inst, cands) = tiny_instance();
        let a = SimulatedOptimizer::new(inst, cands.clone(), CostModel::default());
        let (inst2, _) = tiny_instance();
        let b = SimulatedOptimizer::new(inst2, cands.clone(), CostModel::default());
        assert_eq!(
            a.content_fingerprint(),
            b.content_fingerprint(),
            "identical content → identical fingerprint"
        );
        // Dropping a candidate changes the universe, hence the key.
        let (inst3, mut fewer) = tiny_instance();
        fewer.pop();
        let c = SimulatedOptimizer::new(inst3, fewer, CostModel::default());
        assert_ne!(a.content_fingerprint(), c.content_fingerprint());
        // A different workload shape changes it too.
        let synth_a = {
            let inst = synth::instance(1);
            let cands = vec![IndexDef::new(
                TableId::new(0),
                vec![ColumnId::new(0)],
                vec![],
            )];
            SimulatedOptimizer::new(inst, cands, CostModel::default())
        };
        assert_ne!(a.content_fingerprint(), synth_a.content_fingerprint());
    }

    #[test]
    fn synth_instances_cost_without_panic() {
        for seed in 0..5 {
            let inst = synth::instance(seed);
            // Candidate per (table, column) pair of the first table.
            let cands: Vec<IndexDef> = inst
                .schema
                .iter()
                .flat_map(|(tid, t)| {
                    (0..t.columns.len())
                        .map(move |c| IndexDef::new(tid, vec![ColumnId::from(c)], vec![]))
                })
                .take(30)
                .collect();
            let n = cands.len();
            let opt = SimulatedOptimizer::new(inst, cands, CostModel::default());
            let full = IndexSet::full(n);
            let empty = IndexSet::empty(n);
            assert!(opt.workload_cost(&full) <= opt.workload_cost(&empty) + 1e-9);
        }
    }
}
