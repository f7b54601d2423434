//! Atomic configurations (AutoAdmin, §4.2.2 / Figure 5(d) of the paper).
//!
//! AutoAdmin restricts what-if calls to *atomic* configurations — small
//! configurations whose cost cannot be derived from strict subsets because
//! their indexes can be used together in a single plan. For single-join
//! analysis the paper uses atomic configurations of size 1 (singletons) and
//! size 2 (pairs of indexes on tables joined by some query). Every
//! singleton is atomic, so only the pairs need a list; this module builds
//! it.

use crate::gen::CandidateSet;
use ixtune_common::{IndexId, IndexSet, QueryId};
use ixtune_workload::Workload;
use std::collections::BTreeSet;

/// Single-join atomic pairs: for every query and every join edge, pair each
/// candidate keyed on the left join column with each keyed on the right join
/// column (capped at `max_pairs`).
pub fn single_join_pairs(
    workload: &Workload,
    cands: &CandidateSet,
    max_pairs: usize,
) -> Vec<IndexSet> {
    let universe = cands.len();
    let mut pairs: BTreeSet<(IndexId, IndexId)> = BTreeSet::new();
    'outer: for (qi, q) in workload.queries.iter().enumerate() {
        let q_cands = cands.for_query(QueryId::from(qi));
        for j in &q.joins {
            let lhs_table = q.table_of(j.left.scan);
            let rhs_table = q.table_of(j.right.scan);
            let on_col = |id: &IndexId, table, col| {
                let idx = &cands.indexes[id.index()];
                idx.table == table && idx.keys.first() == Some(&col)
            };
            for a in q_cands {
                if !on_col(a, lhs_table, j.left.column) {
                    continue;
                }
                for b in q_cands {
                    if a == b || !on_col(b, rhs_table, j.right.column) {
                        continue;
                    }
                    let (x, y) = if a < b { (*a, *b) } else { (*b, *a) };
                    pairs.insert((x, y));
                    if pairs.len() >= max_pairs {
                        break 'outer;
                    }
                }
            }
        }
    }
    pairs
        .into_iter()
        .map(|(a, b)| IndexSet::from_ids(universe, [a, b]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_default;
    use ixtune_workload::sql::parse_query;
    use ixtune_workload::{BenchmarkInstance, ColType, Schema, TableBuilder, Workload};

    fn join_instance() -> BenchmarkInstance {
        let mut s = Schema::new();
        s.add_table(
            TableBuilder::new("r", 50_000)
                .key("a", ColType::Int)
                .col("b", ColType::Int, 500)
                .build(),
        )
        .unwrap();
        s.add_table(
            TableBuilder::new("s", 80_000)
                .key("c", ColType::Int)
                .col("d", ColType::Int, 300)
                .build(),
        )
        .unwrap();
        let q = parse_query(&s, "q", "SELECT a, d FROM r, s WHERE r.b = s.c AND r.a = 7").unwrap();
        BenchmarkInstance::new(s, Workload::new("w", vec![q]))
    }

    #[test]
    fn join_pairs_link_both_sides() {
        let inst = join_instance();
        let cands = generate_default(&inst);
        let pairs = single_join_pairs(&inst.workload, &cands, 100);
        assert!(!pairs.is_empty(), "expected r.b/s.c atomic pairs");
        for p in &pairs {
            assert_eq!(p.len(), 2);
            let tables: Vec<_> = p.iter().map(|id| cands.indexes[id.index()].table).collect();
            assert_ne!(tables[0], tables[1]);
        }
    }

    #[test]
    fn max_pairs_cap_respected() {
        let inst = join_instance();
        let cands = generate_default(&inst);
        let pairs = single_join_pairs(&inst.workload, &cands, 1);
        assert!(pairs.len() <= 1);
    }
}
