//! In-process execution of a session, the way `ixtuned`'s worker runs it:
//! the correctness reference (cold, uninterrupted) and, in the traced run,
//! the replay that spans every call into a layer's public functions —
//! `WorkloadSpec::prepare`, `WarmStore::checkout`/`absorb`,
//! `Tuner::tune_with_stop` / `MctsTuner::run_resumable`/`resume`,
//! `MctsCheckpoint::to_json`/`from_json`, and
//! `SimulatedOptimizer::what_if_cost` over the result's layout cells.

use crate::plan::MAX_SESSION_THREADS;
use crate::trace::Tracer;
use ixtune_core::checkpoint::MctsCheckpoint;
use ixtune_core::mcts::{MctsOutcome, MctsTuner};
use ixtune_core::stop::{StopReason, StopSignal};
use ixtune_core::tuner::{Tuner, TuningContext, TuningResult};
use ixtune_core::warm::{WarmState, WarmStore};
use ixtune_core::{AutoAdminGreedy, TwoPhaseGreedy, VanillaGreedy};
use ixtune_optimizer::WhatIfOptimizer;
use ixtune_service::spec::Prepared;
use ixtune_service::{AlgorithmSpec, ResultPayload, SubmitSpec};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// The fields that identify a session's outcome. Everything else in a
/// result (telemetry, wall clock, warm provenance) may differ between a
/// daemon run and its reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Identity {
    pub config: Vec<u32>,
    pub calls_used: usize,
    pub improvement_bits: u64,
    pub layout_fingerprint: u64,
    pub stop_reason: Option<StopReason>,
}

impl Identity {
    pub fn of(r: &ResultPayload) -> Self {
        Self {
            config: r.config.clone(),
            calls_used: r.calls_used,
            improvement_bits: r.improvement.to_bits(),
            layout_fingerprint: r.layout_fingerprint,
            stop_reason: r.stop_reason,
        }
    }
}

/// The span name of a session's tuning work, by algorithm family.
pub fn core_span(algo: AlgorithmSpec) -> &'static str {
    match algo {
        AlgorithmSpec::Mcts => "core.mcts",
        AlgorithmSpec::VanillaGreedy => "core.greedy",
        AlgorithmSpec::TwoPhase => "core.twophase",
        AlgorithmSpec::AutoAdmin => "core.autoadmin",
    }
}

/// How one in-process execution mirrors the daemon.
pub struct Mirror<'a> {
    /// The warm store sessions check out from and absorb into.
    pub warm: Option<&'a WarmStore>,
    /// Honour `pause_after_calls`: suspend, write and read the
    /// checkpoint, and resume — as the daemon and client do.
    pub pause: bool,
    pub tracer: &'a Tracer,
    pub session: usize,
    pub parent: Option<usize>,
    /// Where a suspended session's checkpoint is written.
    pub ckpt_path: &'a Path,
}

pub struct Executed {
    pub result: TuningResult,
    /// Checkpoint JSON bytes, when the session suspended.
    pub ckpt_bytes: Option<usize>,
}

/// Run `spec` in-process against `p`.
pub fn execute(p: &Prepared, spec: &SubmitSpec, m: &Mirror<'_>) -> Result<Executed, String> {
    let key = spec.workload.key();
    let (nq, nc) = (p.opt.num_queries(), p.cands.len());
    let req = spec.request(MAX_SESSION_THREADS);
    let span = |name: &'static str| m.tracer.open(name, m.session, m.parent);
    let mut stop = StopSignal::armed();
    if let (true, Some(n)) = (m.pause, spec.pause_after_calls) {
        stop = stop.suspend_after_calls(n);
    }
    let mut suspended = false;
    let mut ckpt_bytes = None;
    // One iteration per run segment: a suspended session runs twice.
    loop {
        // Like the daemon's worker: fingerprint and check out per segment.
        let warm = m.warm.map(|w| {
            let s = span("warm.checkout");
            let fp = p.opt.content_fingerprint();
            let state = Arc::new(WarmState::new(w.checkout(&key, fp, nq, nc)));
            m.tracer.close(s);
            (w, fp, state)
        });
        let mut ctx = TuningContext::new(&p.opt, &p.cands);
        if let Some((_, _, state)) = &warm {
            ctx = ctx.with_warm(Arc::clone(state));
        }
        let resume_from = if suspended {
            let s = span("checkpoint.read");
            let read = std::fs::read_to_string(m.ckpt_path)
                .map_err(|e| format!("read checkpoint: {e}"))
                .and_then(|json| MctsCheckpoint::from_json(&json));
            m.tracer.close(s);
            Some(read?)
        } else {
            None
        };
        let s = span(core_span(spec.algorithm));
        let outcome = match spec.algorithm {
            AlgorithmSpec::Mcts => match resume_from {
                Some(ckpt) => MctsTuner::default().resume(&ctx, &ckpt, &StopSignal::armed())?,
                None => MctsTuner::default().run_resumable(&ctx, &req, &stop),
            },
            AlgorithmSpec::VanillaGreedy => {
                MctsOutcome::Finished(VanillaGreedy.tune_with_stop(&ctx, &req, &stop), Vec::new())
            }
            AlgorithmSpec::TwoPhase => {
                MctsOutcome::Finished(TwoPhaseGreedy.tune_with_stop(&ctx, &req, &stop), Vec::new())
            }
            AlgorithmSpec::AutoAdmin => MctsOutcome::Finished(
                AutoAdminGreedy::default().tune_with_stop(&ctx, &req, &stop),
                Vec::new(),
            ),
        };
        m.tracer.close(s);
        if let MctsOutcome::Suspended(ckpt) = &outcome {
            let s = span("checkpoint.write");
            let json = ckpt.to_json();
            let written = std::fs::write(m.ckpt_path, &json);
            m.tracer.close(s);
            written.map_err(|e| format!("write checkpoint: {e}"))?;
            ckpt_bytes = Some(json.len());
        }
        if let Some((w, fp, state)) = &warm {
            let s = span("warm.absorb");
            w.absorb(&key, *fp, nq, nc, state.drain());
            m.tracer.close(s);
        }
        match outcome {
            MctsOutcome::Finished(result, _) => return Ok(Executed { result, ckpt_bytes }),
            MctsOutcome::Suspended(_) => suspended = true,
        }
    }
}

/// Price every cell of the result's call layout through the simulated
/// optimizer: the what-if work the session's budgeted calls amount to
/// (the paper's Fig. 2 split), measured outside the tuner.
pub fn replay_layout(p: &Prepared, result: &TuningResult, m: &Mirror<'_>) {
    m.tracer.span("optimizer.whatif", m.session, m.parent, || {
        for (q, config) in result.layout.cells() {
            black_box(p.opt.what_if_cost(*q, config));
        }
    });
}
