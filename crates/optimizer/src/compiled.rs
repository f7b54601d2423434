//! Compiled what-if kernel: per-query plan tables evaluated allocation-free.
//!
//! `CostModel::query_cost_with` re-derives a lot of configuration-
//! *independent* structure on every call: join-graph components, sort
//! columns (cloned into a fresh `Vec`), driver rankings (collected and
//! sorted per component), per-slot filter/column sets, and the arithmetic
//! inputs of every access-path formula. [`CompiledWorkload`] hoists all of
//! that to workload-prepare time: each query becomes a [`CompiledQuery`]
//! holding dense per-`(slot, candidate)` access tables and frozen
//! left-deep plan shapes whose only configuration-dependent inputs are
//! "which candidate ids are present". A what-if call is then an argmin
//! over small fixed arrays plus a handful of fused adds — no allocation,
//! no hashing, no re-planning — with scratch buffers reused across calls.
//!
//! **Bit identity.** The compiled evaluator must produce *exactly* the
//! bits of the interpreted path (it is swapped in silently under every
//! cache, snapshot and telemetry layer). This holds by construction:
//!
//! * every per-index access cost is produced by the same function the
//!   interpreted fold calls ([`CostModel::index_access_cost`],
//!   [`CostModel::inl_per_probe`], [`CostModel::heap_scan_cost`]) — at
//!   compile time instead of call time, on the same inputs;
//! * all folds preserve the interpreted reduction order and comparison:
//!   access argmins fold candidate costs in per-slot posting order with a
//!   strict `<` against a heap-scan start (`f64::INFINITY` standing in
//!   for the `None` start of order-forced folds), INL alternatives fold
//!   `f64::min` in posting order, drivers keep the *first* minimum under
//!   `total_cmp` exactly like `Iterator::min_by`;
//! * compound expressions keep the interpreted association:
//!   `(access + rows_out·hash_build) + card·hash_probe` with both
//!   products precomputed as written, join cardinalities precomputed
//!   through the identical `max`/division chain (they never depend on the
//!   configuration), and the sort-avoidance alternative reuses the base
//!   per-component sums for unforced components — which the interpreted
//!   path recomputes to the same bits;
//! * the `quirk_eps` jitter folds the same scan-slot hash prefix
//!   (`h_base`) at compile time and applies the identical
//!   `wrapping_add(total.to_bits())` tail at call time.
//!
//! The interpreted path stays in the build as the proptest oracle
//! (`crates/core/tests/compiled_kernel_props.rs` pins every cell full
//! tuning sessions visit, and raw per-call bits).

use crate::cost::CostModel;
use crate::index::IndexDef;
use ixtune_common::{ColumnId, IndexId, IndexSet};
use ixtune_workload::{FilterKind, Query, ScanSlot, Schema, Workload};

/// One slot's candidate access costs: the heap-scan fallback plus every
/// candidate that offers an admissible path, in posting (visitation)
/// order. For order-forced tables `heap` is `f64::INFINITY` (no heap
/// alternative exists), so an all-absent fold yields `INFINITY` — the
/// compiled spelling of the interpreted `None`.
#[derive(Clone, Debug)]
struct AccessTable {
    heap: f64,
    entries: Vec<(IndexId, f64)>,
}

impl AccessTable {
    #[inline]
    fn eval(&self, config: &IndexSet) -> f64 {
        let mut best = self.heap;
        for &(id, c) in &self.entries {
            // Strict `<` first: it short-circuits the bitset probe and
            // matches the interpreted first-min-wins fold bit for bit.
            if c < best && config.contains(id) {
                best = c;
            }
        }
        best
    }
}

/// One joined-in slot of a frozen left-deep plan. `p1`/`p2` are the two
/// hash-join products (`rows_out·hash_build`, `card·hash_probe`); `inl`
/// holds `card·per_probe` per INL-capable candidate in posting order.
#[derive(Clone, Debug)]
struct PlanStep {
    slot: u16,
    p1: f64,
    p2: f64,
    inl: Vec<(IndexId, f64)>,
}

/// A frozen left-deep join plan: driver slot, join steps in placement
/// order, and the final output cardinality (configuration-independent,
/// so computed once at compile time).
#[derive(Clone, Debug)]
struct PlanShape {
    first: u16,
    steps: Vec<PlanStep>,
    card: f64,
}

impl PlanShape {
    /// Evaluate with the driver's access cost supplied by the caller
    /// (scratch slot cost for free drivers, the order-forced table for the
    /// sort-avoidance plan).
    #[inline]
    fn eval(&self, first_cost: f64, config: &IndexSet, slot_cost: &[f64]) -> f64 {
        let mut cost = first_cost;
        for step in &self.steps {
            let hash = slot_cost[step.slot as usize] + step.p1 + step.p2;
            let mut inl = f64::INFINITY;
            for &(id, contrib) in &step.inl {
                if config.contains(id) {
                    inl = inl.min(contrib);
                }
            }
            cost += hash.min(inl);
        }
        cost
    }
}

/// One driver choice for a component: the gate lists the candidate ids
/// that make the driver slot seekable (empty gate = the unconditional
/// scan-order head). Gated drivers are stored in selectivity-ranked
/// order; at call time the first three whose gate intersects the
/// configuration compete — exactly the interpreted
/// `driver_candidates` (filter → stable sort → take 3), because the
/// ranking keys are configuration-independent.
#[derive(Clone, Debug)]
struct DriverPlan {
    gate: Vec<IndexId>,
    plan: PlanShape,
}

/// A join-graph component with all its admissible driver plans.
#[derive(Clone, Debug)]
struct CompiledComponent {
    drivers: Vec<DriverPlan>,
}

impl CompiledComponent {
    #[inline]
    fn eval(&self, config: &IndexSet, slot_cost: &[f64]) -> (f64, f64) {
        let head = &self.drivers[0].plan;
        let mut best_cost = head.eval(slot_cost[head.first as usize], config, slot_cost);
        let mut best_card = head.card;
        let mut taken = 0usize;
        for d in &self.drivers[1..] {
            if taken == 3 {
                break;
            }
            if !d.gate.iter().any(|&id| config.contains(id)) {
                continue;
            }
            taken += 1;
            let c = d
                .plan
                .eval(slot_cost[d.plan.first as usize], config, slot_cost);
            // First minimum wins (Iterator::min_by semantics).
            if c.total_cmp(&best_cost) == std::cmp::Ordering::Less {
                best_cost = c;
                best_card = d.plan.card;
            }
        }
        (best_cost, best_card)
    }
}

/// Sort-avoidance alternative: force an order-providing access path on
/// the (single) sorted slot's component, reuse the base costs elsewhere.
#[derive(Clone, Debug)]
struct CompiledAlt {
    /// Index of the component containing the sorted slot.
    comp: usize,
    /// Order-forced access table for the sorted slot (`heap = INFINITY`).
    ordered: AccessTable,
    /// Forced plan: sorted slot drives, remaining slots join in.
    plan: PlanShape,
}

/// Sort requirement of a query; `alt` is `None` when the sort columns
/// span multiple slots (no single order-providing index can waive it).
#[derive(Clone, Debug)]
struct CompiledSort {
    alt: Option<CompiledAlt>,
}

/// One query, compiled.
#[derive(Clone, Debug)]
struct CompiledQuery {
    weight: f64,
    quirk_eps: f64,
    sort_factor: f64,
    /// Scan-slot hash prefix of the quirk jitter, folded at compile time.
    h_base: u64,
    /// Unordered best-access table per scan slot.
    slot_access: Vec<AccessTable>,
    comps: Vec<CompiledComponent>,
    sort: Option<CompiledSort>,
}

/// Reusable per-thread evaluation buffers (per-slot access costs and
/// per-component base costs). Grows to the largest query seen and is
/// allocation-free from then on.
#[derive(Default)]
pub struct Scratch {
    slot_cost: Vec<f64>,
    comp_cost: Vec<f64>,
}

impl Scratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// The compiled form of a whole workload against one candidate universe
/// and cost model. Built once at workload-prepare time by
/// `SimulatedOptimizer`; evaluation is `&self` and thread-safe (state
/// lives in the caller's [`Scratch`]).
pub struct CompiledWorkload {
    queries: Vec<CompiledQuery>,
}

impl CompiledWorkload {
    pub fn build(
        schema: &Schema,
        workload: &Workload,
        candidates: &[IndexDef],
        per_query_slot: &[Vec<Vec<IndexId>>],
        model: &CostModel,
    ) -> Self {
        let queries = workload
            .queries
            .iter()
            .enumerate()
            .map(|(qi, q)| compile_query(schema, q, candidates, &per_query_slot[qi], model))
            .collect();
        Self { queries }
    }

    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// What-if cost of query `q` under `config` — bit-identical to
    /// `CostModel::query_cost_with` over the same candidate postings.
    pub fn cost(&self, q: usize, config: &IndexSet, scratch: &mut Scratch) -> f64 {
        let cq = &self.queries[q];

        scratch.slot_cost.clear();
        for tbl in &cq.slot_access {
            scratch.slot_cost.push(tbl.eval(config));
        }

        let mut base_cost = 0.0;
        let mut total_card = 0.0f64;
        scratch.comp_cost.clear();
        for comp in &cq.comps {
            let (c, card) = comp.eval(config, &scratch.slot_cost);
            scratch.comp_cost.push(c);
            base_cost += c;
            total_card = total_card.max(card);
        }

        let mut total = match &cq.sort {
            None => base_cost,
            Some(sort) => {
                let n = total_card.max(2.0);
                let with_sort = base_cost + n * n.log2() * cq.sort_factor;
                let alt = sort.alt.as_ref().and_then(|alt| {
                    let first = alt.ordered.eval(config);
                    if first.is_infinite() {
                        // No order-providing index present: the forced
                        // plan does not exist (interpreted `None`).
                        return None;
                    }
                    let forced = alt.plan.eval(first, config, &scratch.slot_cost);
                    // Sum in component order; unforced components repeat
                    // the base computation, so reuse its bits.
                    let mut alt_cost = 0.0;
                    for ci in 0..cq.comps.len() {
                        alt_cost += if ci == alt.comp {
                            forced
                        } else {
                            scratch.comp_cost[ci]
                        };
                    }
                    Some(alt_cost)
                });
                match alt {
                    Some(a) => with_sort.min(a),
                    None => with_sort,
                }
            }
        };

        total *= cq.weight;

        if cq.quirk_eps > 0.0 {
            let h = cq.h_base.wrapping_add(total.to_bits());
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            total *= 1.0 + cq.quirk_eps * unit;
        }
        total
    }
}

fn compile_query(
    schema: &Schema,
    q: &Query,
    candidates: &[IndexDef],
    per_slot: &[Vec<IndexId>],
    model: &CostModel,
) -> CompiledQuery {
    let n = q.num_scans();
    let ctxs: Vec<_> = (0..n)
        .map(|s| model.slot_ctx(schema, q, ScanSlot(s as u16)))
        .collect();

    // Unordered access tables: heap fallback + every candidate with an
    // admissible path, priced by the shared helper in posting order.
    let slot_access: Vec<AccessTable> = (0..n)
        .map(|s| {
            let slot = ScanSlot(s as u16);
            let ctx = &ctxs[s];
            let entries = per_slot[s]
                .iter()
                .filter_map(|&id| {
                    model
                        .index_access_cost(schema, q, slot, ctx, &candidates[id.index()], &[])
                        .map(|c| (id, c))
                })
                .collect();
            AccessTable {
                heap: model.heap_scan_cost(schema, q, slot, ctx),
                entries,
            }
        })
        .collect();

    let comps_slots = model.components(q);
    let comps: Vec<CompiledComponent> = comps_slots
        .iter()
        .map(|comp| compile_component(schema, q, candidates, per_slot, &ctxs, model, comp))
        .collect();

    // Sort requirement: GROUP BY wins over ORDER BY, mirroring the
    // interpreted precedence.
    let sort_cols: Vec<_> = if !q.group_by.is_empty() {
        q.group_by.clone()
    } else {
        q.order_by.clone()
    };
    let sort = if sort_cols.is_empty() {
        None
    } else {
        let single_slot = {
            let slot = sort_cols[0].scan;
            sort_cols
                .iter()
                .all(|c| c.scan == slot)
                .then(|| (slot, sort_cols.iter().map(|c| c.column).collect::<Vec<_>>()))
        };
        let alt = single_slot.map(|(slot, cols)| {
            let comp_idx = comps_slots
                .iter()
                .position(|c| c.contains(&slot))
                .expect("sort slot belongs to some component");
            let ctx = &ctxs[slot.index()];
            let entries = per_slot[slot.index()]
                .iter()
                .filter_map(|&id| {
                    model
                        .index_access_cost(schema, q, slot, ctx, &candidates[id.index()], &cols)
                        .map(|c| (id, c))
                })
                .collect();
            CompiledAlt {
                comp: comp_idx,
                ordered: AccessTable {
                    heap: f64::INFINITY,
                    entries,
                },
                plan: compile_plan(
                    schema,
                    q,
                    candidates,
                    per_slot,
                    &ctxs,
                    model,
                    &comps_slots[comp_idx],
                    slot,
                ),
            }
        });
        Some(CompiledSort { alt })
    };

    // Quirk jitter scan-slot hash prefix (cf. query_cost_with).
    let mut h_base: u64 = 0x9e37_79b9_7f4a_7c15;
    for s in &q.scans {
        h_base = h_base.wrapping_mul(31).wrapping_add(s.0 as u64);
    }

    CompiledQuery {
        weight: q.weight,
        quirk_eps: model.quirk_eps,
        sort_factor: model.sort_factor,
        h_base,
        slot_access,
        comps,
        sort,
    }
}

fn compile_component(
    schema: &Schema,
    q: &Query,
    candidates: &[IndexDef],
    per_slot: &[Vec<IndexId>],
    ctxs: &[crate::cost::SlotCtx],
    model: &CostModel,
    comp: &[ScanSlot],
) -> CompiledComponent {
    // Seekability gate per slot: candidates whose leading key matches a
    // non-residual filter on the slot (the interpreted `can_seek` test,
    // per candidate instead of per configuration).
    let gate_of = |slot: ScanSlot| -> Vec<IndexId> {
        per_slot[slot.index()]
            .iter()
            .copied()
            .filter(|&id| {
                candidates[id.index()].keys.first().is_some_and(|&lead| {
                    q.filters_on(slot)
                        .any(|f| f.col.column == lead && f.kind != FilterKind::Residual)
                })
            })
            .collect()
    };

    let mut drivers = vec![DriverPlan {
        gate: Vec::new(),
        plan: compile_plan(schema, q, candidates, per_slot, ctxs, model, comp, comp[0]),
    }];

    // Ranked seekable drivers: stable sort by configuration-independent
    // selectivity keys; the runtime takes the first three present, which
    // equals filtering first and sorting after (stable sort, fixed keys).
    let mut seekable: Vec<(f64, ScanSlot, Vec<IndexId>)> = comp
        .iter()
        .copied()
        .filter(|&slot| slot != comp[0])
        .filter_map(|slot| {
            let gate = gate_of(slot);
            (!gate.is_empty()).then(|| {
                (
                    ctxs[slot.index()].rows * q.scan_selectivity(slot),
                    slot,
                    gate,
                )
            })
        })
        .collect();
    seekable.sort_by(|a, b| a.0.total_cmp(&b.0));
    drivers.extend(seekable.into_iter().map(|(_, slot, gate)| DriverPlan {
        gate,
        plan: compile_plan(schema, q, candidates, per_slot, ctxs, model, comp, slot),
    }));

    CompiledComponent { drivers }
}

#[allow(clippy::too_many_arguments)]
fn compile_plan(
    schema: &Schema,
    q: &Query,
    candidates: &[IndexDef],
    per_slot: &[Vec<IndexId>],
    ctxs: &[crate::cost::SlotCtx],
    model: &CostModel,
    comp: &[ScanSlot],
    first: ScanSlot,
) -> PlanShape {
    let mut placed: Vec<ScanSlot> = Vec::with_capacity(comp.len());
    let mut remaining: Vec<ScanSlot> = comp.to_vec();
    remaining.retain(|&s| s != first);
    let mut card = ctxs[first.index()].rows_out;
    placed.push(first);

    let mut steps = Vec::new();
    while !remaining.is_empty() {
        // Same placement rule as the interpreted loop: next join-connected
        // slot in scan order, falling back to the first remaining.
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

        let rows_out = ctxs[slot.index()].rows_out;
        let mut inl = Vec::new();
        if !edges.is_empty() {
            for &id in &per_slot[slot.index()] {
                let idx = &candidates[id.index()];
                let Some(&lead) = idx.keys.first() else {
                    continue;
                };
                if !edges.contains(&lead) {
                    continue;
                }
                let per_probe = model.inl_per_probe(schema, q, slot, idx, lead);
                inl.push((id, card * per_probe));
            }
        }
        steps.push(PlanStep {
            slot: slot.0,
            p1: rows_out * model.hash_build,
            p2: card * model.hash_probe,
            inl,
        });

        // Containment cardinality chain — identical expressions to the
        // interpreted loop, all configuration-independent.
        let mut out = card * rows_out;
        if !edges.is_empty() {
            for &e in &edges {
                let ndv = table.col(e).ndv.max(1) as f64;
                out /= ndv.max(1.0);
            }
        }
        card = out.max(1.0);
        placed.push(slot);
    }
    PlanShape {
        first: first.0,
        steps,
        card,
    }
}
