//! The traced run's per-layer numbers: the in-process replay of the
//! sessions the clients completed (mirroring the daemon's prepared cache
//! and warm store), the split of each session's client latency across
//! layers, and the per-layer metrics.

use crate::inproc::{self, Identity, Mirror};
use crate::load::LoadRun;
use crate::plan::PREPARED_CAPACITY;
use crate::stats::{median, ratio};
use crate::trace::{self, Span};
use crate::{Metric, Served, REPLAY_SESSIONS, REPLAY_TIME};
use ixtune_core::warm::WarmStore;
use ixtune_optimizer::WhatIfOptimizer;
use ixtune_service::spec::Prepared;
use ixtune_service::{AlgorithmSpec, ResultPayload};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Replayed {
    /// Position of the session in `LoadRun::sessions`.
    pub pos: usize,
    pub identity: Identity,
    pub algorithm: AlgorithmSpec,
    pub budget: usize,
    pub calls: usize,
    pub prepared: bool,
    pub ckpt_bytes: Option<usize>,
    /// The session's workload snapshot in the mirror store after absorb.
    pub snapshot_bytes: usize,
}

/// Re-run the completed sessions in list order, one at a time, each
/// under a `replay.session` span, until [`REPLAY_SESSIONS`] or
/// [`REPLAY_TIME`]. The prepared cache starts with the primed paper
/// workloads, as the daemon's does.
pub fn replay(
    load: &LoadRun,
    prepared: &HashMap<String, Arc<Prepared>>,
    warm: &WarmStore,
    tracer: &trace::Tracer,
    run_dir: &Path,
) -> Result<Vec<Replayed>, String> {
    let ckpt_path = run_dir.join("replay.ckpt.json");
    // (key, workload, last touch): the daemon's LRU, mirrored.
    let mut cache: Vec<(String, Arc<Prepared>, usize)> = prepared
        .iter()
        .map(|(k, p)| (k.clone(), Arc::clone(p), 0))
        .collect();
    let start = Instant::now();
    let mut out = Vec::new();
    for (pos, s) in load.sessions.iter().enumerate() {
        if out.len() >= REPLAY_SESSIONS || start.elapsed() > REPLAY_TIME {
            break;
        }
        let root = tracer.open("replay.session", s.index, None);
        let key = s.spec.workload.key();
        let hit = cache.iter_mut().find(|(k, _, _)| *k == key).map(|e| {
            e.2 = pos + 1;
            Arc::clone(&e.1)
        });
        let (p, miss) = match hit {
            Some(p) => (p, false),
            None => {
                let p =
                    Arc::new(tracer.span("prepare", s.index, root, || s.spec.workload.prepare())?);
                cache.push((key.clone(), Arc::clone(&p), pos + 1));
                if cache.len() > PREPARED_CAPACITY {
                    let lru = (0..cache.len())
                        .min_by_key(|&i| cache[i].2)
                        .expect("non-empty");
                    cache.remove(lru);
                }
                (p, true)
            }
        };
        let m = Mirror {
            warm: Some(warm),
            pause: true,
            tracer,
            session: s.index,
            parent: root,
            ckpt_path: &ckpt_path,
        };
        let ex = inproc::execute(&p, &s.spec, &m)?;
        inproc::replay_layout(&p, &ex.result, &m);
        tracer.close(root);
        let snapshot_bytes = warm
            .checkout(
                &key,
                p.opt.content_fingerprint(),
                p.opt.num_queries(),
                p.cands.len(),
            )
            .bytes();
        out.push(Replayed {
            pos,
            identity: Identity::of(&ResultPayload::from_result(&ex.result)),
            algorithm: s.spec.algorithm,
            budget: s.spec.budget,
            calls: ex.result.calls_used,
            prepared: miss,
            ckpt_bytes: ex.ckpt_bytes,
            snapshot_bytes,
        });
    }
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(out)
}

pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Per-layer milliseconds per session and share of client latency.
    pub split: Value,
    /// Count and self time of every span name.
    pub by_name: Value,
    pub working_set: Value,
    pub summary: String,
}

/// Latency split components, in order; `unaccounted` is the remainder.
const PARTS: [&str; 7] = [
    "wire",
    "prepare",
    "warm",
    "optimizer",
    "core",
    "checkpoint",
    "unaccounted",
];

/// `core.mcts.ms_per_call` by budget band: (metric, B from, B below).
/// The bands cover `paper-mcts`'s B range; synthetic sessions (B 300)
/// count in the overall figure only.
const MCTS_BANDS: [(&str, usize, usize); 3] = [
    ("core.mcts.ms_per_call.b500-1000", 500, 1_000),
    ("core.mcts.ms_per_call.b1000-2000", 1_000, 2_000),
    ("core.mcts.ms_per_call.b2000-3000", 2_000, 3_001),
];

pub fn per_layer(load: &LoadRun, served: &Served, replay: &[Replayed], spans: &[Span]) -> Layers {
    let n = load.sessions.len().max(1) as f64;
    let own = trace::self_ns(spans);
    let ms = |s: &Span| s.dur_ns() as f64 / 1e6;
    // Spans by session and name.
    let mut by_session: HashMap<usize, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_session.entry(s.session).or_default().push(s);
    }
    let sum = |session: usize, name: &str| -> f64 {
        by_session.get(&session).map_or(0.0, |v| {
            v.iter().filter(|s| s.name == name).map(|s| ms(s)).sum()
        })
    };
    let durations =
        |name: &str| -> Vec<f64> { spans.iter().filter(|s| s.name == name).map(ms).collect() };

    // The latency split, over the replayed sessions.
    let mut parts = [0.0f64; PARTS.len()];
    let mut latency_total = 0.0;
    // `whatif_total` prices every layout cell (per-call cost);
    // `paid_total` only the calls the daemon did not serve warm (the share).
    let (mut whatif_total, mut paid_total, mut tune_total, mut cells) = (0.0, 0.0, 0.0, 0usize);
    let mut core_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut mcts_ms, mut mcts_calls) = (0.0f64, 0usize);
    let mut mcts_bands = [(0.0f64, 0usize); MCTS_BANDS.len()];
    for r in replay {
        let s = &load.sessions[r.pos];
        let i = s.index;
        // Only the exchanges on the blocking path: submit, resumes, and
        // the status poll that saw the terminal state. Earlier polls
        // overlap the daemon's work.
        let last_status = by_session.get(&i).and_then(|v| {
            v.iter()
                .filter(|s| s.name == "call.status")
                .max_by_key(|s| s.start_ns)
                .map(|s| ms(s))
        });
        let wire = sum(i, "call.submit") + sum(i, "call.resume") + last_status.unwrap_or(0.0);
        let span_name = inproc::core_span(r.algorithm);
        let tune = sum(i, span_name);
        let whatif = sum(i, "optimizer.whatif");
        // Warm-served calls never reach the optimizer inside the daemon.
        let paid = s.outcome.as_ref().map_or(1.0, |res| {
            1.0 - ratio(
                res.telemetry.warm_hits as f64,
                res.telemetry.what_if_calls as f64,
            )
        });
        let optimizer = whatif * paid;
        let values = [
            wire,
            sum(i, "prepare"),
            sum(i, "warm.checkout") + sum(i, "warm.absorb"),
            optimizer,
            tune - optimizer,
            sum(i, "checkpoint.write") + sum(i, "checkpoint.read"),
        ];
        let accounted: f64 = values.iter().sum();
        for (k, v) in values.iter().enumerate() {
            parts[k] += v;
        }
        parts[PARTS.len() - 1] += s.latency_ms - accounted;
        latency_total += s.latency_ms;
        whatif_total += whatif;
        paid_total += optimizer;
        tune_total += tune;
        cells += r.calls;
        core_ms.entry(span_name).or_default().push(tune);
        if r.algorithm == AlgorithmSpec::Mcts {
            mcts_ms += tune;
            mcts_calls += r.calls;
            if let Some(b) = MCTS_BANDS
                .iter()
                .position(|&(_, lo, hi)| (lo..hi).contains(&r.budget))
            {
                mcts_bands[b].0 += tune;
                mcts_bands[b].1 += r.calls;
            }
        }
    }
    let replayed = replay.len().max(1) as f64;
    let share = |k: usize| ratio(parts[k], latency_total);

    // Daemon-side counters from the result telemetry.
    let ok: Vec<&ResultPayload> = load
        .sessions
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok())
        .collect();
    let tel = |f: fn(&ResultPayload) -> usize| ok.iter().map(|r| f(r) as f64).sum::<f64>();
    let calls = tel(|r| r.telemetry.what_if_calls);
    let cache_hits = tel(|r| r.telemetry.cache_hits);
    let overheads: Vec<f64> = load
        .sessions
        .iter()
        .filter_map(|s| {
            s.outcome
                .as_ref()
                .ok()
                .map(|r| s.latency_ms - r.telemetry.wall_clock_ms)
        })
        .collect();
    let (pb, pa) = (&served.persist_before, &served.persist_after);
    let median_of = |name: &str| core_ms.get(name).map_or(0.0, |v| median(v));
    let ckpt_sizes: Vec<f64> = replay
        .iter()
        .filter_map(|r| r.ckpt_bytes.map(|b| b as f64))
        .collect();
    let lat: Vec<f64> = load.sessions.iter().map(|s| s.latency_ms).collect();

    let band_ms = mcts_bands.map(|(t, c)| ratio(t, c as f64));
    let metrics: Vec<Metric> = vec![
        ("service.wire.rtt_us", served.rtt_us, "us"),
        (
            "service.wire.bytes_per_session",
            load.sessions.iter().map(|s| s.bytes as f64).sum::<f64>() / n,
            "bytes",
        ),
        (
            "service.wire.polls_per_session",
            load.sessions.iter().map(|s| s.polls as f64).sum::<f64>() / n,
            "count",
        ),
        (
            "service.wire.status_call_us",
            median(&durations("call.status")) * 1e3,
            "us",
        ),
        ("service.manager.overhead_ms", median(&overheads), "ms"),
        ("prepare.ms", median(&durations("prepare")), "ms"),
        (
            "prepare.per_session",
            replay.iter().filter(|r| r.prepared).count() as f64 / replayed,
            "count",
        ),
        (
            "optimizer.whatif_ns_per_call",
            ratio(whatif_total * 1e6, cells as f64),
            "ns",
        ),
        (
            "optimizer.whatif_share",
            ratio(paid_total, tune_total),
            "fraction",
        ),
        ("core.greedy.ms", median_of("core.greedy"), "ms"),
        ("core.twophase.ms", median_of("core.twophase"), "ms"),
        ("core.autoadmin.ms", median_of("core.autoadmin"), "ms"),
        (
            "core.derivations_per_call",
            ratio(tel(|r| r.telemetry.derivations), calls),
            "count",
        ),
        (
            "core.cache_hit_ratio",
            ratio(cache_hits, cache_hits + calls),
            "fraction",
        ),
        ("core.mcts.ms", median_of("core.mcts"), "ms"),
        (
            "core.mcts.ms_per_call",
            ratio(mcts_ms, mcts_calls as f64),
            "ms",
        ),
        (MCTS_BANDS[0].0, band_ms[0], "ms"),
        (MCTS_BANDS[1].0, band_ms[1], "ms"),
        (MCTS_BANDS[2].0, band_ms[2], "ms"),
        (
            "core.warm.hit_ratio",
            ratio(tel(|r| r.telemetry.warm_hits), calls),
            "fraction",
        ),
        (
            "core.warm.checkout_us",
            median(&durations("warm.checkout")) * 1e3,
            "us",
        ),
        (
            "core.warm.absorb_us",
            median(&durations("warm.absorb")) * 1e3,
            "us",
        ),
        (
            "core.warm.store_bytes",
            served.store_after.bytes as f64,
            "bytes",
        ),
        (
            "core.warm.evictions",
            (served.store_after.evictions - served.store_before.evictions) as f64,
            "count",
        ),
        (
            "core.checkpoint.per_session",
            load.sessions.iter().map(|s| s.resumes as f64).sum::<f64>() / n,
            "count",
        ),
        (
            "core.checkpoint.bytes",
            ratio(ckpt_sizes.iter().sum(), ckpt_sizes.len() as f64),
            "bytes",
        ),
        (
            "core.checkpoint.write_ms",
            median(&durations("checkpoint.write")),
            "ms",
        ),
        (
            "core.checkpoint.read_ms",
            median(&durations("checkpoint.read")),
            "ms",
        ),
        (
            "persist.records_per_session",
            (pa.records_total - pb.records_total) as f64 / n,
            "count",
        ),
        (
            "persist.fsyncs_per_session",
            (pa.fsyncs_total - pb.fsyncs_total) as f64 / n,
            "count",
        ),
        (
            "persist.wal_bytes_per_session",
            (pa.wal_bytes as f64 - pb.wal_bytes as f64) / n,
            "bytes",
        ),
        ("persist.recovery_ms", median(&served.recovery_ms), "ms"),
        ("latency.share.wire", share(0), "fraction"),
        ("latency.share.prepare", share(1), "fraction"),
        ("latency.share.warm", share(2), "fraction"),
        ("latency.share.optimizer", share(3), "fraction"),
        ("latency.share.core", share(4), "fraction"),
        ("latency.share.checkpoint", share(5), "fraction"),
        ("latency.share.unaccounted", share(6), "fraction"),
        ("traced.session_p50_ms", median(&lat), "ms"),
        (
            "traced.sessions_per_s",
            load.sessions.len() as f64 / load.elapsed_s,
            "1/s",
        ),
    ];

    let mut summary = format!(
        "latency split over {} replayed of {} sessions (client latency {:.3} ms/session):\n",
        replay.len(),
        load.sessions.len(),
        latency_total / replayed
    );
    let split = Value::Obj(
        PARTS
            .iter()
            .enumerate()
            .map(|(k, name)| {
                summary.push_str(&format!(
                    "  {name:<12} {:>10.4} ms/session {:>7.2}%\n",
                    parts[k] / replayed,
                    100.0 * share(k)
                ));
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("ms_per_session".into(), Value::F64(parts[k] / replayed)),
                        ("share".into(), Value::F64(share(k))),
                    ]),
                )
            })
            .collect(),
    );
    summary.push_str(&format!(
        "  what-if share of tune (Fig. 2 analogue, warm-served calls excluded): {:.4}; MCTS ms/call {:.5}, by B: 500-1k {:.5}, 1k-2k {:.5}, 2k-3k {:.5}",
        ratio(paid_total, tune_total),
        ratio(mcts_ms, mcts_calls as f64),
        band_ms[0],
        band_ms[1],
        band_ms[2],
    ));

    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let by_name = Value::Obj(
        names
            .into_iter()
            .map(|name| {
                let (count, self_ns) = spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.name == name)
                    .fold((0u64, 0u64), |(c, t), (_, &o)| (c + 1, t + o));
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("count".into(), Value::U64(count)),
                        ("self_ms".into(), Value::F64(self_ns as f64 / 1e6)),
                        (
                            "self_us_mean".into(),
                            Value::F64(ratio(self_ns as f64 / 1e3, count as f64)),
                        ),
                    ]),
                )
            })
            .collect(),
    );

    let mut keys: Vec<String> = load
        .sessions
        .iter()
        .map(|s| s.spec.workload.key())
        .collect();
    keys.sort();
    keys.dedup();
    let snapshot_mean = ratio(
        replay.iter().map(|r| r.snapshot_bytes as f64).sum(),
        replay.len() as f64,
    );
    let working_set = Value::Obj(vec![
        ("distinct_workloads".into(), Value::U64(keys.len() as u64)),
        (
            "prepared_capacity".into(),
            Value::U64(PREPARED_CAPACITY as u64),
        ),
        (
            "warm_store_bound_bytes".into(),
            Value::U64(served.store_after.max_bytes as u64),
        ),
        (
            "warm_fill_bytes".into(),
            Value::U64(served.fill_store_bytes as u64),
        ),
        ("warm_snapshot_bytes_mean".into(), Value::F64(snapshot_mean)),
        (
            "warm_working_set_bytes".into(),
            Value::F64(if keys.len() == load.sessions.len() {
                // Every session its own workload: the snapshots add up.
                snapshot_mean * load.sessions.len() as f64
            } else {
                served.store_after.bytes.max(served.fill_store_bytes) as f64
            }),
        ),
        (
            "wal_compactions".into(),
            Value::U64(pa.compactions_total - pb.compactions_total),
        ),
    ]);

    Layers {
        metrics,
        split,
        by_name,
        working_set,
        summary,
    }
}
