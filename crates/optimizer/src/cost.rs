//! The analytical cost model behind the simulated what-if optimizer.
//!
//! Given a query and the set of (hypothetical) indexes available on each of
//! its scan slots, [`CostModel::query_cost`] estimates the plan cost the way
//! a textbook optimizer would:
//!
//! * per-slot **access paths** — heap scan, index seek (equality-prefix plus
//!   one range column), covering index-only scan, with RID-lookup charges
//!   for non-covering seeks;
//! * **join costing** over each connected component of the join graph in
//!   left-deep order — hash join versus index-nested-loop join when an
//!   index with a matching leading key exists on the inner side;
//! * **sort avoidance** — a sort for `GROUP BY`/`ORDER BY` can be waived by
//!   an order-providing index on the sorted slot; the waived and unwaived
//!   plans are compared globally so the final cost stays monotone.
//!
//! **Monotonicity** (Assumption 1 of the paper) holds *by construction*:
//! every decision is a minimum over an option set that only grows as
//! indexes are added. An optional `quirk_eps` mode injects deterministic
//! per-(query, configuration) noise to emulate real optimizers whose cost
//! models occasionally violate the assumption.

use crate::index::{IndexDef, PAGE_BYTES};
use ixtune_common::ColumnId;
use ixtune_workload::{FilterKind, Query, ScanSlot, Schema};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Tunable constants of the cost model. The defaults are calibrated so that
/// selective indexes yield the 30–80% workload improvements typical of
/// analytic benchmarks (cf. Figures 8–13 of the paper).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of reading one page sequentially.
    pub page_io: f64,
    /// Per-row CPU cost.
    pub row_cpu: f64,
    /// Cold B+-tree descend per seek.
    pub seek_descend: f64,
    /// Warm per-probe descend inside a nested-loop join.
    pub probe_descend: f64,
    /// Per-row RID lookup for non-covering index fetches.
    pub rid_lookup: f64,
    /// Hash-join build cost per inner row.
    pub hash_build: f64,
    /// Hash-join probe cost per outer row.
    pub hash_probe: f64,
    /// Sort cost per `row * log2(rows)`.
    pub sort_factor: f64,
    /// If nonzero, multiply each (query, configuration) cost by a
    /// deterministic factor in `[1, 1 + quirk_eps]`, which can violate
    /// monotonicity — used to test algorithm robustness.
    pub quirk_eps: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            page_io: 1.0,
            row_cpu: 0.001,
            seek_descend: 4.0,
            probe_descend: 0.05,
            rid_lookup: 0.4,
            hash_build: 0.001_5,
            hash_probe: 0.000_8,
            sort_factor: 0.000_5,
            quirk_eps: 0.0,
        }
    }
}

/// Visitor-style "which indexes exist on this slot" callback: the cost
/// model calls it with a scan slot and a sink, and the callback invokes the
/// sink once per available index. Unlike a `-> Vec<&IndexDef>` closure this
/// allocates nothing, which matters because every what-if call visits every
/// slot several times.
pub type SlotIndexVisitor<'s> = dyn Fn(ScanSlot, &mut dyn FnMut(&IndexDef)) + 's;

/// Result of choosing an access path for one scan slot.
#[derive(Clone, Debug)]
struct Access {
    cost: f64,
    /// Output cardinality after *all* filters on the slot.
    rows_out: f64,
}

/// Configuration-independent context of one `(query, slot)` pair: table
/// cardinality, post-filter output cardinality, and the column sets that
/// decide seekability/covering. Shared between the interpreted visitor
/// path ([`CostModel::query_cost_with`]) and the compiled kernel
/// (`compiled.rs`), so both price an index through the *same* arithmetic.
pub(crate) struct SlotCtx {
    pub(crate) rows: f64,
    pub(crate) rows_out: f64,
    eq_cols: BTreeSet<ColumnId>,
    range_cols: BTreeSet<ColumnId>,
    referenced: BTreeSet<ColumnId>,
}

impl CostModel {
    /// Heap pages of a table.
    fn heap_pages(&self, schema: &Schema, slot_table: ixtune_common::TableId) -> f64 {
        let t = schema.table(slot_table);
        (t.size_bytes() as f64 / PAGE_BYTES as f64).max(1.0)
    }

    /// Build the configuration-independent per-slot context.
    pub(crate) fn slot_ctx(&self, schema: &Schema, q: &Query, slot: ScanSlot) -> SlotCtx {
        let table = schema.table(q.table_of(slot));
        let rows = table.rows as f64;
        let full_sel = q.scan_selectivity(slot);
        let rows_out = (rows * full_sel).max(1.0);
        let referenced: BTreeSet<ColumnId> = q.referenced_columns(slot);
        let eq_cols: BTreeSet<ColumnId> = q
            .filters_on(slot)
            .filter(|f| f.kind == FilterKind::Equality)
            .map(|f| f.col.column)
            .collect();
        let range_cols: BTreeSet<ColumnId> = q
            .filters_on(slot)
            .filter(|f| matches!(f.kind, FilterKind::Range | FilterKind::Like))
            .map(|f| f.col.column)
            .collect();
        SlotCtx {
            rows,
            rows_out,
            eq_cols,
            range_cols,
            referenced,
        }
    }

    /// Heap-scan cost of `slot` (always available when no order is forced).
    pub(crate) fn heap_scan_cost(
        &self,
        schema: &Schema,
        q: &Query,
        slot: ScanSlot,
        ctx: &SlotCtx,
    ) -> f64 {
        self.heap_pages(schema, q.table_of(slot)) * self.page_io + ctx.rows * self.row_cpu
    }

    /// Access cost `idx` contributes on `slot`, or `None` when the index
    /// offers no admissible path there (it then takes no part in the
    /// argmin). This is the one place a single index is priced; the
    /// interpreted fold and the compiled access tables both call it.
    pub(crate) fn index_access_cost(
        &self,
        schema: &Schema,
        q: &Query,
        slot: ScanSlot,
        ctx: &SlotCtx,
        idx: &IndexDef,
        require_order: &[ColumnId],
    ) -> Option<f64> {
        if !require_order.is_empty() {
            // Order-providing: required columns must be the leading keys
            // in order.
            if idx.keys.len() < require_order.len()
                || idx.keys[..require_order.len()] != *require_order
            {
                return None;
            }
        }
        let sel_of = |col: ColumnId, kind_eq: bool| -> f64 {
            q.filters_on(slot)
                .filter(|f| {
                    f.col.column == col
                        && (f.kind == FilterKind::Equality) == kind_eq
                        && f.kind != FilterKind::Residual
                })
                .map(|f| f.selectivity)
                .product()
        };
        // Seek-prefix matching: consume equality keys, then at most one
        // range key.
        let mut seek_sel = 1.0f64;
        let mut matched_any = false;
        for &key in &idx.keys {
            if ctx.eq_cols.contains(&key) {
                seek_sel *= sel_of(key, true);
                matched_any = true;
            } else if ctx.range_cols.contains(&key) {
                seek_sel *= sel_of(key, false);
                matched_any = true;
                break;
            } else {
                break;
            }
        }
        let covering = idx.covers(ctx.referenced.iter());
        let idx_width = idx.row_width(schema) as f64;
        if matched_any {
            let fetch_rows = (ctx.rows * seek_sel).max(1.0);
            let leaf_pages_touched = (fetch_rows * idx_width / PAGE_BYTES as f64).max(1.0);
            let mut cost =
                self.seek_descend + leaf_pages_touched * self.page_io + fetch_rows * self.row_cpu;
            if !covering {
                cost += fetch_rows * self.rid_lookup;
            }
            Some(cost)
        } else if covering {
            // Index-only scan: narrower than the heap.
            let idx_pages = (ctx.rows * idx_width / PAGE_BYTES as f64).max(1.0);
            Some(idx_pages * self.page_io + ctx.rows * self.row_cpu)
        } else if !require_order.is_empty() {
            // Forced ordered scan of a non-covering index: every row
            // needs a lookup; usually dominated but keeps the option set
            // complete.
            let idx_pages = (ctx.rows * idx_width / PAGE_BYTES as f64).max(1.0);
            Some(idx_pages * self.page_io + ctx.rows * (self.row_cpu + self.rid_lookup))
        } else {
            None
        }
    }

    /// Per-probe cost of an index-nested-loop probe into `idx` on `slot`
    /// via leading join key `lead`. Shared with the compiled kernel.
    pub(crate) fn inl_per_probe(
        &self,
        schema: &Schema,
        q: &Query,
        slot: ScanSlot,
        idx: &IndexDef,
        lead: ColumnId,
    ) -> f64 {
        let table = schema.table(q.table_of(slot));
        let rows = table.rows as f64;
        let ndv = table.col(lead).ndv.max(1) as f64;
        let per_probe_rows = (rows / ndv).max(1e-3);
        let covering = idx.covers(q.referenced_columns(slot).iter());
        let mut per_probe = self.probe_descend + per_probe_rows * self.row_cpu;
        if !covering {
            per_probe += per_probe_rows * self.rid_lookup;
        }
        per_probe
    }

    /// Best access path for `slot` given the available indexes.
    ///
    /// If `require_order` is non-empty, only order-providing paths are
    /// allowed: indexes whose leading keys match the required columns (as an
    /// ordered prefix). Returns `None` when no such path exists.
    fn best_access(
        &self,
        schema: &Schema,
        q: &Query,
        slot: ScanSlot,
        avail: &SlotIndexVisitor<'_>,
        require_order: &[ColumnId],
    ) -> Option<Access> {
        let ctx = self.slot_ctx(schema, q, slot);
        let mut best: Option<f64> = None;
        if require_order.is_empty() {
            // Heap scan is always available.
            best = Some(self.heap_scan_cost(schema, q, slot, &ctx));
        }
        avail(slot, &mut |idx: &IndexDef| {
            debug_assert_eq!(idx.table, q.table_of(slot));
            if let Some(c) = self.index_access_cost(schema, q, slot, &ctx, idx, require_order) {
                if best.is_none_or(|b| c < b) {
                    best = Some(c);
                }
            }
        });
        best.map(|cost| Access {
            cost,
            rows_out: ctx.rows_out,
        })
    }

    /// Join-graph connected components, each as slot list in scan order.
    pub(crate) fn components(&self, q: &Query) -> Vec<Vec<ScanSlot>> {
        let n = q.num_scans();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for j in &q.joins {
            let (a, b) = (j.left.scan.index(), j.right.scan.index());
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut comps: Vec<Vec<ScanSlot>> = Vec::new();
        let mut root_to_comp: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for s in 0..n {
            let r = find(&mut parent, s);
            let ci = *root_to_comp.entry(r).or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            comps[ci].push(ScanSlot(s as u16));
        }
        comps
    }

    /// Cost one connected component; `order_slot` optionally forces an
    /// order-providing access path on that slot (for sort avoidance).
    /// Returns `(cost, output_cardinality)`, or `None` when the forced
    /// ordered path does not exist.
    /// Cost one connected component with the given `driver` slot placed
    /// first, trying every remaining slot in join-connected order.
    fn component_cost(
        &self,
        schema: &Schema,
        q: &Query,
        comp: &[ScanSlot],
        avail: &SlotIndexVisitor<'_>,
        driver: ScanSlot,
        order_slot: Option<(ScanSlot, &[ColumnId])>,
    ) -> Option<(f64, f64)> {
        let forced = |slot: ScanSlot| -> &[ColumnId] {
            match order_slot {
                Some((s, cols)) if s == slot => cols,
                _ => &[],
            }
        };
        let mut placed: Vec<ScanSlot> = Vec::with_capacity(comp.len());
        let mut remaining: Vec<ScanSlot> = comp.to_vec();

        // Driver: the forced-order slot must drive the plan (an ordered
        // stream has to come first); otherwise the caller picks.
        let first = match order_slot {
            Some((s, _)) if comp.contains(&s) => s,
            _ => driver,
        };
        remaining.retain(|&s| s != first);
        let acc = self.best_access(schema, q, first, avail, forced(first))?;
        let mut cost = acc.cost;
        let mut card = acc.rows_out;
        placed.push(first);

        while !remaining.is_empty() {
            // Next slot connected to the placed set (scan order among ties);
            // if none is connected (shouldn't happen within a component),
            // take the first remaining.
            let pos = remaining
                .iter()
                .position(|&s| {
                    q.joins.iter().any(|j| {
                        (j.left.scan == s && placed.contains(&j.right.scan))
                            || (j.right.scan == s && placed.contains(&j.left.scan))
                    })
                })
                .unwrap_or(0);
            let slot = remaining.remove(pos);
            let table = schema.table(q.table_of(slot));

            // Edges linking `slot` to the placed prefix, as (inner column,
            // inner-side ndv).
            let edges: Vec<ColumnId> = q
                .joins
                .iter()
                .filter_map(|j| {
                    if j.left.scan == slot && placed.contains(&j.right.scan) {
                        Some(j.left.column)
                    } else if j.right.scan == slot && placed.contains(&j.left.scan) {
                        Some(j.right.column)
                    } else {
                        None
                    }
                })
                .collect();

            let acc = self.best_access(schema, q, slot, avail, &[])?;

            // Hash join: access the inner, build, probe.
            let hash_cost = acc.cost + acc.rows_out * self.hash_build + card * self.hash_probe;

            // Index nested-loop join: an index whose leading key is one of
            // the join columns lets each outer row probe directly.
            let mut inl_cost = f64::INFINITY;
            if !edges.is_empty() {
                avail(slot, &mut |idx: &IndexDef| {
                    let Some(&lead) = idx.keys.first() else {
                        return;
                    };
                    if !edges.contains(&lead) {
                        return;
                    }
                    let per_probe = self.inl_per_probe(schema, q, slot, idx, lead);
                    inl_cost = inl_cost.min(card * per_probe);
                });
            }
            cost += hash_cost.min(inl_cost);

            // Output cardinality: classic containment formula per edge.
            let mut out = card * acc.rows_out;
            if edges.is_empty() {
                // Cross product (disconnected inside a component cannot
                // happen, but guard anyway).
            } else {
                for &e in &edges {
                    let ndv = table.col(e).ndv.max(1) as f64;
                    out /= ndv.max(1.0);
                }
            }
            card = out.max(1.0);
            placed.push(slot);
        }
        Some((cost, card))
    }

    /// Driver candidates for a component: the scan-order head plus every
    /// slot whose available indexes can seek one of its filters (a real
    /// optimizer would consider starting the plan from a selective seek).
    /// Capped at the 3 most selective seekable slots — the option set only
    /// grows with more indexes, so the plan-space minimum stays monotone.
    fn driver_candidates(
        &self,
        schema: &Schema,
        q: &Query,
        comp: &[ScanSlot],
        avail: &SlotIndexVisitor<'_>,
    ) -> Vec<ScanSlot> {
        let mut out = vec![comp[0]];
        let mut seekable: Vec<(f64, ScanSlot)> = comp
            .iter()
            .copied()
            .filter(|&slot| {
                if slot == comp[0] {
                    return false;
                }
                let mut can_seek = false;
                avail(slot, &mut |idx: &IndexDef| {
                    if !can_seek
                        && idx.keys.first().is_some_and(|&lead| {
                            q.filters_on(slot)
                                .any(|f| f.col.column == lead && f.kind != FilterKind::Residual)
                        })
                    {
                        can_seek = true;
                    }
                });
                can_seek
            })
            .map(|slot| {
                let rows = schema.table(q.table_of(slot)).rows as f64;
                (rows * q.scan_selectivity(slot), slot)
            })
            .collect();
        seekable.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.extend(seekable.into_iter().take(3).map(|(_, s)| s));
        out
    }

    /// Minimum component cost over the admissible driver choices.
    fn best_component_cost(
        &self,
        schema: &Schema,
        q: &Query,
        comp: &[ScanSlot],
        avail: &SlotIndexVisitor<'_>,
        order_slot: Option<(ScanSlot, &[ColumnId])>,
    ) -> Option<(f64, f64)> {
        // A forced order pins the driver; no enumeration needed.
        if matches!(order_slot, Some((s, _)) if comp.contains(&s)) {
            return self.component_cost(schema, q, comp, avail, comp[0], order_slot);
        }
        self.driver_candidates(schema, q, comp, avail)
            .into_iter()
            .filter_map(|d| self.component_cost(schema, q, comp, avail, d, order_slot))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Test-oracle wrapper over [`query_cost_with`](Self::query_cost_with)
    /// that accepts an allocating `-> Vec<&IndexDef>` closure.
    ///
    /// Not part of the hot path: every production caller goes through the
    /// visitor form (or the compiled kernel, which is proptest-pinned to
    /// it); this wrapper exists so tests can state configurations as plain
    /// `Vec`s. Kept callable from integration tests/benches, hence not
    /// `#[cfg(test)]` — but do not introduce new non-test callers.
    #[doc(hidden)]
    pub fn query_cost<'a>(
        &self,
        schema: &Schema,
        q: &Query,
        avail: &dyn Fn(ScanSlot) -> Vec<&'a IndexDef>,
    ) -> f64 {
        self.query_cost_with(schema, q, &|slot, sink| {
            for idx in avail(slot) {
                sink(idx);
            }
        })
    }

    /// What-if cost of `q` with a visitor-style `avail` — the
    /// allocation-free walk `SimulatedOptimizer::interpreted_what_if_cost`
    /// uses.
    pub fn query_cost_with(&self, schema: &Schema, q: &Query, avail: &SlotIndexVisitor<'_>) -> f64 {
        let comps = self.components(q);

        // Sort requirement: GROUP BY wins over ORDER BY (a grouped stream
        // subsumes the later sort in our simplified pipeline).
        let sort_cols: Vec<_> = if !q.group_by.is_empty() {
            q.group_by.clone()
        } else {
            q.order_by.clone()
        };
        let single_slot_sort = (!sort_cols.is_empty())
            .then(|| {
                let slot = sort_cols[0].scan;
                sort_cols
                    .iter()
                    .all(|c| c.scan == slot)
                    .then(|| (slot, sort_cols.iter().map(|c| c.column).collect::<Vec<_>>()))
            })
            .flatten();

        let mut base_cost = 0.0;
        let mut total_card = 0.0f64;
        for comp in &comps {
            let (c, card) = self
                .best_component_cost(schema, q, comp, avail, None)
                .expect("unforced plan always exists");
            base_cost += c;
            total_card = total_card.max(card);
        }

        let mut total = if sort_cols.is_empty() {
            base_cost
        } else {
            let n = total_card.max(2.0);
            let with_sort = base_cost + n * n.log2() * self.sort_factor;
            // Alternative: force an order-providing index on the sorted slot.
            let alt = single_slot_sort.as_ref().and_then(|(slot, cols)| {
                let mut alt_cost = 0.0;
                for comp in &comps {
                    let forced = comp.contains(slot);
                    let res = self.best_component_cost(
                        schema,
                        q,
                        comp,
                        avail,
                        forced.then_some((*slot, cols.as_slice())),
                    )?;
                    alt_cost += res.0;
                }
                Some(alt_cost)
            });
            match alt {
                Some(a) => with_sort.min(a),
                None => with_sort,
            }
        };

        total *= q.weight;

        if self.quirk_eps > 0.0 {
            // Deterministic per-plan jitter (can violate monotonicity).
            let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
            for s in &q.scans {
                h = h.wrapping_mul(31).wrapping_add(s.0 as u64);
            }
            h = h.wrapping_add(total.to_bits());
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            total *= 1.0 + self.quirk_eps * unit;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_common::TableId;
    use ixtune_workload::{ColType, QCol, QueryBuilder, TableBuilder};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_table(
            TableBuilder::new("big", 1_000_000)
                .key("id", ColType::Int)
                .col("grp", ColType::Int, 1_000)
                .col("val", ColType::Int, 100_000)
                .col("pay", ColType::VarChar(80), 900_000)
                .build(),
        )
        .unwrap();
        s.add_table(
            TableBuilder::new("dim", 10_000)
                .key("id", ColType::Int)
                .col("attr", ColType::Int, 50)
                .build(),
        )
        .unwrap();
        s
    }

    fn c(i: u32) -> ColumnId {
        ColumnId::new(i)
    }

    fn no_indexes(_: ScanSlot) -> Vec<&'static IndexDef> {
        Vec::new()
    }

    /// A single-table query with an equality filter and small projection.
    fn filter_query(schema: &Schema) -> Query {
        let big = schema.table_by_name("big").unwrap();
        let mut b = QueryBuilder::new("f");
        let s = b.scan(big);
        b.eq(QCol::new(s, c(1)), 0.001);
        b.project(QCol::new(s, c(2)));
        b.build()
    }

    #[test]
    fn empty_config_uses_heap_scan() {
        let sc = schema();
        let q = filter_query(&sc);
        let m = CostModel::default();
        let cost = m.query_cost(&sc, &q, &no_indexes);
        assert!(cost > 0.0);
    }

    #[test]
    fn seek_index_beats_heap_scan() {
        let sc = schema();
        let q = filter_query(&sc);
        let m = CostModel::default();
        let base = m.query_cost(&sc, &q, &no_indexes);
        let idx = IndexDef::new(TableId::new(0), vec![c(1)], vec![]);
        let with_idx = m.query_cost(&sc, &q, &|_| vec![&idx]);
        assert!(
            with_idx < base * 0.5,
            "seek {with_idx} should beat scan {base}"
        );
    }

    #[test]
    fn covering_index_beats_non_covering() {
        let sc = schema();
        let q = filter_query(&sc);
        let m = CostModel::default();
        let plain = IndexDef::new(TableId::new(0), vec![c(1)], vec![]);
        let covering = IndexDef::new(TableId::new(0), vec![c(1)], vec![c(2)]);
        let cost_plain = m.query_cost(&sc, &q, &|_| vec![&plain]);
        let cost_cov = m.query_cost(&sc, &q, &|_| vec![&covering]);
        assert!(cost_cov < cost_plain);
    }

    #[test]
    fn irrelevant_index_changes_nothing() {
        let sc = schema();
        let q = filter_query(&sc);
        let m = CostModel::default();
        let base = m.query_cost(&sc, &q, &no_indexes);
        // Index on a column the query never touches in a seekable way.
        let idx = IndexDef::new(TableId::new(0), vec![c(3)], vec![]);
        let cost = m.query_cost(&sc, &q, &|_| vec![&idx]);
        assert!(cost <= base + 1e-9);
        assert!((cost - base).abs() < base * 0.01);
    }

    #[test]
    fn monotone_more_indexes_never_hurt() {
        let sc = schema();
        let q = filter_query(&sc);
        let m = CostModel::default();
        let i1 = IndexDef::new(TableId::new(0), vec![c(1)], vec![]);
        let i2 = IndexDef::new(TableId::new(0), vec![c(1)], vec![c(2)]);
        let i3 = IndexDef::new(TableId::new(0), vec![c(2)], vec![c(1)]);
        let c0 = m.query_cost(&sc, &q, &no_indexes);
        let c1 = m.query_cost(&sc, &q, &|_| vec![&i1]);
        let c2 = m.query_cost(&sc, &q, &|_| vec![&i1, &i2]);
        let c3 = m.query_cost(&sc, &q, &|_| vec![&i1, &i2, &i3]);
        assert!(c1 <= c0 && c2 <= c1 && c3 <= c2);
    }

    fn join_query(schema: &Schema) -> Query {
        let big = schema.table_by_name("big").unwrap();
        let dim = schema.table_by_name("dim").unwrap();
        let mut b = QueryBuilder::new("j");
        let d = b.scan(dim);
        let f = b.scan(big);
        b.eq(QCol::new(d, c(1)), 0.02);
        b.join(QCol::new(d, c(0)), QCol::new(f, c(2)));
        b.project(QCol::new(f, c(1)));
        b.build()
    }

    #[test]
    fn join_index_enables_nested_loop() {
        let sc = schema();
        let q = join_query(&sc);
        let m = CostModel::default();
        let base = m.query_cost(&sc, &q, &no_indexes);
        // Index on the big table's join column, covering the projection.
        let jidx = IndexDef::new(TableId::new(0), vec![c(2)], vec![c(1)]);
        let cost = m.query_cost(&sc, &q, &|slot| {
            if slot == ScanSlot(1) {
                vec![&jidx]
            } else {
                vec![]
            }
        });
        assert!(cost < base, "INL {cost} should beat hash {base}");
    }

    #[test]
    fn order_providing_index_waives_sort() {
        let sc = schema();
        let big = sc.table_by_name("big").unwrap();
        let mut b = QueryBuilder::new("g");
        let s = b.scan(big);
        b.group_by(QCol::new(s, c(1)));
        b.project(QCol::new(s, c(1)));
        let q = b.build();
        let m = CostModel::default();
        let base = m.query_cost(&sc, &q, &no_indexes);
        let oidx = IndexDef::new(TableId::new(0), vec![c(1)], vec![]);
        let cost = m.query_cost(&sc, &q, &|_| vec![&oidx]);
        assert!(cost < base);
    }

    #[test]
    fn weight_scales_cost() {
        let sc = schema();
        let mut q = filter_query(&sc);
        let m = CostModel::default();
        let c1 = m.query_cost(&sc, &q, &no_indexes);
        q.weight = 3.0;
        let c3 = m.query_cost(&sc, &q, &no_indexes);
        assert!((c3 / c1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_components_cost_additively() {
        let sc = schema();
        let big = sc.table_by_name("big").unwrap();
        let dim = sc.table_by_name("dim").unwrap();
        let m = CostModel::default();

        let mut b = QueryBuilder::new("two");
        let s0 = b.scan(big);
        let _s1 = b.scan(dim);
        b.project(QCol::new(s0, c(1)));
        let q2 = b.build();

        let mut b1 = QueryBuilder::new("one");
        let t0 = b1.scan(big);
        b1.project(QCol::new(t0, c(1)));
        let q1 = b1.build();

        let mut bd = QueryBuilder::new("dim-only");
        bd.scan(dim);
        let qd = bd.build();

        let sum = m.query_cost(&sc, &q1, &no_indexes) + m.query_cost(&sc, &qd, &no_indexes);
        let both = m.query_cost(&sc, &q2, &no_indexes);
        assert!((both - sum).abs() < sum * 0.01, "both={both} sum={sum}");
    }

    #[test]
    fn quirk_mode_perturbs_but_stays_bounded() {
        let sc = schema();
        let q = filter_query(&sc);
        let mut m = CostModel::default();
        let clean = m.query_cost(&sc, &q, &no_indexes);
        m.quirk_eps = 0.05;
        let noisy = m.query_cost(&sc, &q, &no_indexes);
        assert!(noisy >= clean * 0.999 && noisy <= clean * 1.051);
    }
}
