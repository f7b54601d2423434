//! The session manager: bounded job queue, admission control, worker
//! threads, cooperative interruption, and durable state.
//!
//! All shared state lives in one [`Monitor`]; workers block on it for
//! work, clients mutate it through the manager's methods, and every
//! mutation wakes all waiters (see DESIGN.md §6). Concurrency control is
//! structural: exactly `max_concurrent` worker threads exist, so at most
//! that many sessions run at once; admission control bounds the number of
//! admitted-but-not-terminal sessions at `queue_capacity`.
//!
//! Every state transition that must survive a crash — submission,
//! suspension (its checkpoint included), resume, settle, the warm cells a
//! settle added, a warm-store flush — is appended to the write-ahead log
//! under `ServiceConfig::data_dir` (see DESIGN.md §10);
//! [`SessionManager::start`] replays it so suspended sessions reappear
//! resumable, completed results stay queryable, and the warm store opens
//! with every cost prior sessions paid for.

use crate::durable::{import_warm, warm_batch, DurableLog};
use crate::proto::{
    ErrorCode, ErrorPayload, ResultPayload, SessionState, SessionSummary, StatusPayload,
};
use crate::spec::{Prepared, ServiceConfig, SubmitSpec};
use ixtune_common::fault::{site, FaultPlan};
use ixtune_common::sync::Monitor;
use ixtune_core::checkpoint::MctsCheckpoint;
use ixtune_core::mcts::{MctsOutcome, MctsTuner};
use ixtune_core::obs::Obs;
use ixtune_core::stop::{Progress, StopReason, StopSignal};
use ixtune_core::tuner::{Tuner, TuningContext, TuningResult};
use ixtune_core::warm::{WarmState, WarmStore, WarmStoreStats};
use ixtune_core::{SessionFaults, SessionTelemetry};
use ixtune_obs::{MetricsRegistry, TraceRecorder};
use ixtune_persist::{PersistState, PersistStats, Record, SessionStatus, MAX_SESSION_ID};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tracked session.
struct SessionRec {
    spec: SubmitSpec,
    state: SessionState,
    /// Armed while the session runs; `cancel`/`suspend` act through it.
    stop: Option<StopSignal>,
    result: Option<ResultPayload>,
    error: Option<String>,
    /// Accumulated across run segments (suspend/resume keeps every
    /// segment's time).
    wall_clock_ms: f64,
    /// Progress kept once the signal is cleared, so a parked session's
    /// status still reports its counters: a suspended session's checkpoint
    /// counters (restored from the checkpoint at recovery too), else the
    /// last progress the run published.
    progress: Option<Progress>,
    /// Serialized checkpoint of a suspended session, cleared on every
    /// terminal state. One buffer, shared with the WAL record and the
    /// persist fold rather than copied into them.
    checkpoint_json: Option<Arc<str>>,
    /// Set when the client asked to resume: the deterministic triggers
    /// from the original spec are spent and must not re-fire.
    resumed: bool,
}

impl SessionRec {
    /// The telemetry and best improvement `status` reports: the result's
    /// once settled, else the running tuner's live progress, else the
    /// parked progress. The scrape sums the same telemetry, so the two can
    /// never disagree.
    fn reported(&self) -> (SessionTelemetry, f64) {
        if let Some(r) = &self.result {
            return (r.telemetry, r.improvement);
        }
        self.stop
            .as_ref()
            .and_then(StopSignal::progress)
            .or(self.progress)
            .map_or((SessionTelemetry::default(), 0.0), |p| {
                (p.telemetry, p.best_improvement)
            })
    }
}

#[derive(Default)]
struct ManagerState {
    sessions: BTreeMap<u64, SessionRec>,
    queue: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
    /// Prepared workloads shared across sessions, keyed by
    /// `WorkloadSpec::key()` — submitting ten TPC-H sessions builds TPC-H
    /// once. Each entry carries its last-touch tick; the cache is bounded
    /// at `ServiceConfig::prepared_capacity` with least-recently-used
    /// eviction (sessions holding an `Arc` finish unaffected).
    workloads: HashMap<String, (Arc<Prepared>, u64)>,
    /// Monotonic touch tick for the prepared-workload LRU.
    workload_clock: u64,
    /// Prepared workloads evicted by the capacity bound (diagnostics).
    workload_evictions: u64,
}

impl ManagerState {
    /// Fetch a prepared workload and refresh its LRU position.
    fn touch_workload(&mut self, key: &str) -> Option<Arc<Prepared>> {
        self.workload_clock += 1;
        let clock = self.workload_clock;
        self.workloads.get_mut(key).map(|(p, touch)| {
            *touch = clock;
            Arc::clone(p)
        })
    }

    /// Insert a freshly prepared workload, evicting the least recently
    /// used entries beyond `capacity`.
    fn insert_workload(&mut self, key: String, prepared: &Arc<Prepared>, capacity: usize) {
        self.workload_clock += 1;
        let clock = self.workload_clock;
        self.workloads
            .entry(key)
            .or_insert_with(|| (Arc::clone(prepared), clock));
        while self.workloads.len() > capacity.max(1) {
            let victim = self
                .workloads
                .iter()
                .min_by_key(|(_, (_, touch))| *touch)
                .map(|(k, _)| k.clone())
                .expect("over-capacity map is non-empty");
            self.workloads.remove(&victim);
            self.workload_evictions += 1;
        }
    }
}

/// Span capacity of the daemon's trace ring: enough for many sessions'
/// phase-boundary spans; older spans are dropped first (the recorder
/// counts drops).
const TRACE_CAPACITY: usize = 65_536;

/// The daemon's core. Public methods are the verbs of the wire protocol.
pub struct SessionManager {
    cfg: ServiceConfig,
    state: Arc<Monitor<ManagerState>>,
    workers: Vec<JoinHandle<()>>,
    /// Daemon-wide metrics registry; every session reports into it.
    registry: Arc<MetricsRegistry>,
    /// Daemon-wide span ring; sessions are separated by trace scope.
    tracer: Arc<TraceRecorder>,
    /// Daemon-wide warm cost store: cross-session what-if reuse.
    warm: Arc<WarmStore>,
    /// Durable WAL + snapshot store under `cfg.data_dir`.
    durable: Arc<DurableLog>,
    /// Seeded fault plan compiled from `cfg.fault_spec`; inert (one
    /// never-taken branch per site) when the spec is empty.
    faults: FaultPlan,
}

impl SessionManager {
    /// Recover durable state from `cfg.data_dir`, then start
    /// `max_concurrent` workers over the recovered session table.
    ///
    /// Panics when the data directory cannot be created or opened — a
    /// daemon that cannot persist cannot honor its restart contract, and
    /// there is no session yet to fail on behalf of.
    pub fn start(cfg: ServiceConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(TraceRecorder::new(TRACE_CAPACITY));
        let warm = Arc::new(WarmStore::new(cfg.warm_store_bytes as usize));
        let faults = FaultPlan::parse(&cfg.fault_spec)
            .unwrap_or_else(|e| panic!("invalid fault spec {:?}: {e}", cfg.fault_spec));
        if faults.enabled() {
            eprintln!("ixtuned: fault injection armed: {}", faults.spec());
        }
        let (durable, recovered) =
            DurableLog::open(&cfg.data_dir, cfg.durability, &registry, &tracer, &faults)
                .unwrap_or_else(|e| panic!("open persist store in {:?}: {e}", cfg.data_dir));
        let durable = Arc::new(durable);
        // Warm capital first: the very first admitted session must check
        // out every cost prior daemons paid for. Poisoned rows are dropped
        // individually and surfaced as a counter.
        let (_, poisoned) = import_warm(&recovered, &warm);
        let poisoned_rows = registry.counter(
            "ixtune_warm_poisoned_rows_total",
            "Recovered warm-store rows dropped by structural validation",
            &[],
        );
        poisoned_rows.add(poisoned as u64);
        let state = Arc::new(Monitor::new(import_sessions(&recovered)));
        let workers = (0..cfg.max_concurrent.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let cfg = cfg.clone();
                let registry = Arc::clone(&registry);
                let tracer = Arc::clone(&tracer);
                let warm = Arc::clone(&warm);
                let durable = Arc::clone(&durable);
                let faults = faults.clone();
                std::thread::spawn(move || {
                    worker_loop(&state, &cfg, &registry, &tracer, &warm, &durable, &faults)
                })
            })
            .collect();
        Self {
            cfg,
            state,
            workers,
            registry,
            tracer,
            warm,
            durable,
            faults,
        }
    }

    /// The daemon's compiled fault plan (inert when no spec was given).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Point-in-time statistics of the durable store (generation, WAL
    /// size, fsyncs, last-recovery outcome).
    pub fn persist_stats(&self) -> PersistStats {
        self.durable.stats()
    }

    /// Aggregate counters of the warm cost store.
    pub fn store_stats(&self) -> WarmStoreStats {
        self.warm.stats()
    }

    /// Drop every warm store snapshot; returns the entries discarded.
    /// Running sessions keep their checked-out snapshots and finish
    /// unaffected. Logged, so a flushed store stays flushed across a
    /// restart.
    pub fn store_flush(&self) -> usize {
        let dropped = self.warm.flush();
        self.durable.append(&Record::WarmFlush);
        dropped
    }

    /// Admit a session. Fails when the daemon is shutting down or the
    /// queue is at capacity (admission control counts every session that
    /// may still need a worker: queued, running, or suspended).
    pub fn submit(&self, spec: SubmitSpec) -> Result<u64, ErrorPayload> {
        spec.validate()
            .map_err(|m| ErrorPayload::new(ErrorCode::InvalidSpec, m))?;
        let spec_json = serde_json::to_string(&spec)
            .map_err(|e| ErrorPayload::new(ErrorCode::InvalidSpec, format!("spec: {e}")))?;
        let capacity = self.cfg.queue_capacity;
        // WAL appends happen *inside* the registry lock, here and at every
        // other transition site: the lock serializes commits, so WAL order
        // is exactly commit order. Appending after releasing the lock once
        // let a 1 ms session run, suspend, and log `SessionSuspended`
        // before the submitter's `SessionSubmitted` reached the WAL —
        // replay drops transitions for ids it has not seen submitted, so
        // the suspended session came back `Queued`. The fsync-under-lock
        // cost lands on rare control-plane calls and per-session settles,
        // never on the tuning hot path.
        let durable = &self.durable;
        let admitted = self.state.update(|st| {
            if st.shutdown {
                return Err(ErrorPayload::new(
                    ErrorCode::ShuttingDown,
                    "daemon is shutting down",
                ));
            }
            let open = st.sessions.values().filter(|r| !r.state.terminal()).count();
            if open >= capacity {
                return Err(ErrorPayload::new(
                    ErrorCode::QueueFull,
                    format!("queue full ({open}/{capacity} sessions open)"),
                ));
            }
            let id = st.next_id;
            if id >= MAX_SESSION_ID {
                return Err(ErrorPayload::new(
                    ErrorCode::QueueFull,
                    "session ids exhausted",
                ));
            }
            st.next_id = id + 1;
            st.sessions.insert(
                id,
                SessionRec {
                    spec,
                    state: SessionState::Queued,
                    stop: None,
                    result: None,
                    error: None,
                    wall_clock_ms: 0.0,
                    progress: None,
                    checkpoint_json: None,
                    resumed: false,
                },
            );
            st.queue.push_back(id);
            durable.append(&Record::SessionSubmitted { id, spec_json });
            Ok(id)
        });
        admitted
    }

    /// Cancel a session in any non-terminal state. Queued sessions go
    /// terminal immediately; running ones stop at their next poll (their
    /// best-so-far result is kept); suspended ones go terminal and drop
    /// their checkpoint.
    pub fn cancel(&self, id: u64) -> Result<(), ErrorPayload> {
        let durable = &self.durable;
        self.state.update(|st| {
            let rec = st
                .sessions
                .get_mut(&id)
                .ok_or_else(|| unknown_session(id))?;
            match rec.state {
                SessionState::Queued | SessionState::Suspended => {
                    if rec.state == SessionState::Queued {
                        st.queue.retain(|&q| q != id);
                    }
                    rec.state = SessionState::Cancelled;
                    rec.checkpoint_json = None;
                    durable.append(&Record::SessionCancelled {
                        id,
                        result_json: None,
                    });
                    Ok(())
                }
                SessionState::Running => {
                    // The worker observes the signal, settles the session,
                    // and writes the terminal record itself.
                    if let Some(stop) = &rec.stop {
                        stop.cancel();
                    }
                    Ok(())
                }
                s => Err(ErrorPayload::new(
                    ErrorCode::AlreadyTerminal,
                    format!("session {id} is already {s:?}"),
                )),
            }
        })
    }

    /// Request suspension of a running, resumable session. The worker
    /// writes the checkpoint at the next episode boundary.
    pub fn suspend(&self, id: u64) -> Result<(), ErrorPayload> {
        self.state.update(|st| {
            let rec = st
                .sessions
                .get_mut(&id)
                .ok_or_else(|| unknown_session(id))?;
            if !rec.spec.algorithm.resumable() {
                return Err(ErrorPayload::new(
                    ErrorCode::NotResumable,
                    format!(
                        "session {id} runs {:?}, which cannot checkpoint — use Cancel",
                        rec.spec.algorithm
                    ),
                ));
            }
            match (&rec.state, &rec.stop) {
                (SessionState::Running, Some(stop)) => {
                    stop.request_suspend();
                    Ok(())
                }
                (s, _) => Err(ErrorPayload::new(
                    ErrorCode::NotRunning,
                    format!("session {id} is {s:?}, not Running"),
                )),
            }
        })
    }

    /// Re-queue a suspended session; it resumes from its checkpoint with
    /// the original spec's deterministic triggers cleared.
    pub fn resume(&self, id: u64) -> Result<(), ErrorPayload> {
        let durable = &self.durable;
        self.state.update(|st| {
            let rec = st
                .sessions
                .get_mut(&id)
                .ok_or_else(|| unknown_session(id))?;
            if rec.state != SessionState::Suspended {
                return Err(ErrorPayload::new(
                    ErrorCode::NotSuspended,
                    format!("session {id} is {:?}, not Suspended", rec.state),
                ));
            }
            rec.state = SessionState::Queued;
            rec.resumed = true;
            st.queue.push_back(id);
            durable.append(&Record::SessionResumed { id });
            Ok(())
        })
    }

    pub fn status(&self, id: u64) -> Result<StatusPayload, ErrorPayload> {
        self.state.with(|st| {
            let rec = st.sessions.get(&id).ok_or_else(|| unknown_session(id))?;
            let (telemetry, best) = rec.reported();
            Ok(StatusPayload {
                id,
                state: rec.state,
                algorithm: rec.spec.algorithm,
                workload: rec.spec.workload.key(),
                telemetry,
                best_improvement: best,
                wall_clock_ms: rec.wall_clock_ms,
                error: rec.error.clone(),
            })
        })
    }

    pub fn result(&self, id: u64) -> Result<ResultPayload, ErrorPayload> {
        self.state.with(|st| {
            let rec = st.sessions.get(&id).ok_or_else(|| unknown_session(id))?;
            rec.result.clone().ok_or_else(|| {
                ErrorPayload::new(
                    ErrorCode::NoResult,
                    format!("session {id} has no result (state {:?})", rec.state),
                )
            })
        })
    }

    /// Render the Prometheus text exposition. Every series with an owner
    /// is read from it here (DESIGN.md §7): session states and counters
    /// from the session table (the counters sum the telemetry `status`
    /// reports), the `ixtune_persist_*` series from the durable log, the
    /// warm gauges from the store and the fault counts from the plan. A
    /// counter only ever rises to its owner's total
    /// ([`Counter::raise_to`](ixtune_obs::Counter::raise_to)).
    pub fn metrics(&self) -> String {
        let (depth, counts, t) = self.state.with(|st| {
            let mut counts = [0usize; SESSION_STATES.len()];
            let mut totals = SessionTelemetry::default();
            for rec in st.sessions.values() {
                counts[state_index(rec.state)] += 1;
                totals.accumulate(&rec.reported().0);
            }
            (st.queue.len(), counts, totals)
        });
        let (warm, persist) = (self.warm.stats(), self.durable.stats());
        let counter = |name: &str, help: &str, labels: &[(&str, &str)], total: u64| {
            self.registry.counter(name, help, labels).raise_to(total);
        };
        let gauge = |name: &str, help: &str, labels: &[(&str, &str)], value: f64| {
            self.registry.gauge(name, help, labels).set(value);
        };

        for (i, (_, label)) in SESSION_STATES.iter().enumerate() {
            gauge(
                "ixtune_sessions",
                "Known sessions by lifecycle state",
                &[("state", label)],
                counts[i] as f64,
            );
        }
        for (phase, n) in [
            ("priors", t.priors_calls),
            ("selection", t.selection_calls),
            ("rollout", t.rollout_calls),
            ("other", t.other_calls),
        ] {
            counter(
                "ixtune_whatif_calls_total",
                "Budget-consuming what-if optimizer calls",
                &[("phase", phase)],
                n as u64,
            );
        }
        for (fault_site, injected) in self.faults.sites() {
            counter(
                "ixtune_fault_injected_total",
                "Faults injected by the seeded fault plan, by site",
                &[("site", fault_site)],
                injected,
            );
        }
        let counters: [(&str, &str, u64); 9] = [
            (
                "ixtune_cache_hits_total",
                "What-if requests answered from the cache (free)",
                t.cache_hits as u64,
            ),
            (
                "ixtune_derivations_total",
                "Cost evaluations answered by Eq. 1 derivation",
                t.derivations as u64,
            ),
            (
                "ixtune_parallel_scans_total",
                "Frozen-cache parallel candidate scans",
                t.parallel_scans as u64,
            ),
            (
                "ixtune_warm_hits_total",
                "Budgeted what-if calls answered from the warm cost store",
                t.warm_hits as u64,
            ),
            (
                "ixtune_warm_seeded_total",
                "Warm store entries sessions were seeded with at admission",
                t.warm_seeded as u64,
            ),
            (
                "ixtune_persist_records_total",
                "WAL records appended since daemon start",
                persist.records_total,
            ),
            (
                "ixtune_persist_fsyncs_total",
                "fsync calls issued by the persist layer",
                persist.fsyncs_total,
            ),
            (
                "ixtune_persist_compactions_total",
                "Snapshot compactions since daemon start",
                persist.compactions_total,
            ),
            (
                "ixtune_persist_torn_tails_total",
                "Torn WAL tails truncated during recovery",
                u64::from(persist.recovery.torn_tail),
            ),
        ];
        for (name, help, total) in counters {
            counter(name, help, &[], total);
        }
        let gauges: [(&str, &str, f64); 9] = [
            (
                "ixtune_queue_depth",
                "Sessions waiting for a worker",
                depth as f64,
            ),
            (
                "ixtune_persist_wal_bytes",
                "Live write-ahead log size in bytes",
                persist.wal_bytes as f64,
            ),
            (
                "ixtune_persist_degraded",
                "1 once persistent IO failure demoted durability to in-memory only",
                f64::from(u8::from(self.durable.degraded())),
            ),
            (
                "ixtune_warm_store_bytes",
                "Estimated resident bytes of the warm cost store",
                warm.bytes as f64,
            ),
            (
                "ixtune_warm_store_entries",
                "Cost entries held by the warm cost store",
                warm.entries as f64,
            ),
            (
                "ixtune_warm_store_workloads",
                "Distinct workload snapshots in the warm cost store",
                warm.workloads as f64,
            ),
            (
                "ixtune_warm_store_epoch",
                "Publication epoch of the warm cost store",
                warm.epoch as f64,
            ),
            (
                "ixtune_warm_store_evictions",
                "Warm store snapshots evicted by the byte bound",
                warm.evictions as f64,
            ),
            (
                "ixtune_warm_interned_configs",
                "Distinct interned configurations across warm store snapshots",
                warm.interned_configs as f64,
            ),
        ];
        for (name, help, value) in gauges {
            gauge(name, help, &[], value);
        }
        self.registry.render()
    }

    /// Chrome-trace-viewer JSON of the spans recorded for session `id`.
    /// Valid (possibly empty) for any known session — a session that has
    /// not run yet simply has no spans.
    pub fn trace_json(&self, id: u64) -> Result<String, ErrorPayload> {
        let known = self.state.with(|st| st.sessions.contains_key(&id));
        if !known {
            return Err(unknown_session(id));
        }
        Ok(self.tracer.chrome_trace(Some(id)))
    }

    pub fn list(&self) -> Vec<SessionSummary> {
        self.state.with(|st| {
            st.sessions
                .iter()
                .map(|(&id, rec)| SessionSummary {
                    id,
                    state: rec.state,
                    algorithm: rec.spec.algorithm,
                    workload: rec.spec.workload.key(),
                })
                .collect()
        })
    }

    /// Block until session `id` reaches a state where it no longer holds a
    /// worker (terminal or suspended). `None` on timeout.
    pub fn wait_settled(&self, id: u64, timeout: Duration) -> Option<SessionState> {
        let settled = |st: &ManagerState| {
            st.sessions
                .get(&id)
                .is_some_and(|r| r.state.terminal() || r.state == SessionState::Suspended)
        };
        self.state
            .wait_update_timeout(timeout, settled, |st| st.sessions[&id].state)
    }

    pub fn is_shutdown(&self) -> bool {
        self.state.with(|st| st.shutdown)
    }

    /// Stop accepting work and cancel whatever is queued or running.
    pub fn initiate_shutdown(&self) {
        let durable = &self.durable;
        self.state.update(|st| {
            st.shutdown = true;
            st.queue.clear();
            for (&id, rec) in st.sessions.iter_mut() {
                match rec.state {
                    SessionState::Queued => {
                        rec.state = SessionState::Cancelled;
                        rec.checkpoint_json = None;
                        durable.append(&Record::SessionCancelled {
                            id,
                            result_json: None,
                        });
                    }
                    SessionState::Running => {
                        if let Some(stop) = &rec.stop {
                            stop.cancel();
                        }
                    }
                    _ => {}
                }
            }
        });
    }

    /// Shut down, join every worker, and flush the WAL batch so a clean
    /// exit loses nothing even under `--durability batch`.
    pub fn shutdown(mut self) {
        self.initiate_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.durable.sync();
    }
}

fn unknown_session(id: u64) -> ErrorPayload {
    ErrorPayload::new(ErrorCode::UnknownSession, format!("no session {id}"))
}

/// Rebuild the in-memory session table from recovered durable state.
/// `Queued` rows re-enter the queue — a session the daemon died running
/// recovers `Queued`, so it re-runs (from its checkpoint when one
/// exists). Rows whose spec no longer parses are dropped with a stderr
/// note; ids are never reused, so the gap is harmless. Recovered ids stay
/// below [`MAX_SESSION_ID`], so `row.id + 1` cannot overflow.
fn import_sessions(recovered: &PersistState) -> ManagerState {
    let mut st = ManagerState {
        next_id: recovered.next_id,
        ..ManagerState::default()
    };
    for row in recovered.sessions() {
        let spec: SubmitSpec = match serde_json::from_str(&row.spec_json) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "ixtuned: recovery dropped session {}: spec unreadable: {e}",
                    row.id
                );
                continue;
            }
        };
        st.next_id = st.next_id.max(row.id + 1);
        let (state, result, error, requeue) = match &row.status {
            SessionStatus::Queued => (SessionState::Queued, None, None, true),
            SessionStatus::Suspended => (SessionState::Suspended, None, None, false),
            SessionStatus::Done { result_json } => (
                SessionState::Done,
                serde_json::from_str(result_json).ok(),
                None,
                false,
            ),
            SessionStatus::Cancelled { result_json } => (
                SessionState::Cancelled,
                result_json
                    .as_deref()
                    .and_then(|j| serde_json::from_str(j).ok()),
                None,
                false,
            ),
            SessionStatus::Failed { error } => {
                (SessionState::Failed, None, Some(error.clone()), false)
            }
        };
        if requeue {
            st.queue.push_back(row.id);
        }
        // A row's own clock is its last suspension's; a settled session's
        // full time is the one its result carries.
        let wall_clock_ms = result
            .as_ref()
            .map_or(row.wall_clock_ms, |r: &ResultPayload| {
                r.telemetry.wall_clock_ms
            });
        st.sessions.insert(
            row.id,
            SessionRec {
                spec,
                state,
                stop: None,
                result,
                error,
                wall_clock_ms,
                progress: row
                    .checkpoint_json
                    .as_deref()
                    .and_then(|j| MctsCheckpoint::from_json(j).ok())
                    .map(|c| parked_progress(&c)),
                checkpoint_json: row.checkpoint_json.clone(),
                // A checkpoint means at least one segment already ran: the
                // spec's one-shot triggers are spent and must not re-fire.
                resumed: row.resumed || row.checkpoint_json.is_some(),
            },
        );
    }
    st
}

/// Session states and their `ixtune_sessions{state=…}` gauge labels, in
/// `state_index` order.
const SESSION_STATES: [(SessionState, &str); 6] = [
    (SessionState::Queued, "queued"),
    (SessionState::Running, "running"),
    (SessionState::Suspended, "suspended"),
    (SessionState::Done, "done"),
    (SessionState::Cancelled, "cancelled"),
    (SessionState::Failed, "failed"),
];

fn state_index(s: SessionState) -> usize {
    SESSION_STATES
        .iter()
        .position(|&(st, _)| st == s)
        .expect("every state is listed")
}

/// One worker: claim the next queued session, run it to a settled state,
/// repeat until shutdown.
fn worker_loop(
    state: &Arc<Monitor<ManagerState>>,
    cfg: &ServiceConfig,
    registry: &Arc<MetricsRegistry>,
    tracer: &Arc<TraceRecorder>,
    warm_store: &Arc<WarmStore>,
    durable: &Arc<DurableLog>,
    faults: &FaultPlan,
) {
    loop {
        // Claim: wait for work or shutdown, atomically marking the
        // session Running with a freshly armed StopSignal.
        let claimed = state.wait_update(
            |st| st.shutdown || !st.queue.is_empty(),
            |st| {
                if st.shutdown {
                    return None;
                }
                while let Some(id) = st.queue.pop_front() {
                    let rec = st.sessions.get_mut(&id)?;
                    // A session cancelled while queued stays terminal.
                    if rec.state != SessionState::Queued {
                        continue;
                    }
                    let mut stop = StopSignal::armed();
                    if let Some(ms) = rec.spec.deadline_ms {
                        stop = stop.with_deadline(Duration::from_millis(ms));
                    }
                    // Deterministic triggers fire once, in the first run
                    // segment only — a resumed session would otherwise
                    // re-suspend immediately (its call count is already
                    // past the trigger).
                    if !rec.resumed {
                        if let Some(n) = rec.spec.cancel_after_calls {
                            stop = stop.cancel_after_calls(n);
                        }
                        if let Some(n) = rec.spec.pause_after_calls {
                            stop = stop.suspend_after_calls(n);
                        }
                    }
                    rec.state = SessionState::Running;
                    rec.stop = Some(stop.clone());
                    return Some((id, rec.spec.clone(), rec.checkpoint_json.clone(), stop));
                }
                None
            },
        );
        let Some((id, spec, checkpoint_json, stop)) = claimed else {
            if state.with(|st| st.shutdown) {
                return;
            }
            continue;
        };

        // Prepare the workload outside the lock (TPC-DS generation is not
        // cheap); insert into the shared LRU-bounded cache afterwards.
        let key = spec.workload.key();
        let prepared = match state.with(|st| st.touch_workload(&key)) {
            Some(p) => Ok(p),
            None => spec.workload.prepare().map(|p| {
                let p = Arc::new(p);
                // Count the per-query plan tables compiled for this
                // workload.
                registry
                    .counter(
                        "ixtune_compiled_queries_total",
                        "Per-query plan tables compiled at workload preparation",
                        &[],
                    )
                    .add(p.opt.compiled_query_count() as u64);
                state.with(|st| {
                    st.insert_workload(key.clone(), &p, cfg.prepared_capacity);
                });
                p
            }),
        };

        let settled = match prepared {
            Err(e) => Settled::Failed(e),
            Ok(p) => {
                // Check out the workload's warm snapshot at admission:
                // known costs are served without invoking the optimizer,
                // and the calls this session does pay for are ledgered for
                // write-back when it settles.
                let fingerprint = p.opt.content_fingerprint();
                let num_queries = ixtune_optimizer::WhatIfOptimizer::num_queries(&p.opt);
                let universe = p.cands.len();
                let snapshot = warm_store.checkout(&key, fingerprint, num_queries, universe);
                let warm = Arc::new(WarmState::new(snapshot));
                let start = Instant::now();
                let obs = Obs::enabled(Arc::clone(registry), Some(Arc::clone(tracer)), id);
                let warm_run = Arc::clone(&warm);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    // The worker.panic site exercises the daemon's panic
                    // containment end to end: the unwind is caught right
                    // here, the session settles Failed, the worker lives.
                    if faults.fire(site::WORKER_PANIC) {
                        panic!("injected: worker panic");
                    }
                    run_session(
                        &p,
                        &spec,
                        checkpoint_json.as_deref(),
                        &stop,
                        cfg,
                        obs,
                        warm_run,
                        faults,
                    )
                }));
                // Absorb the ledger whatever the outcome — completed,
                // suspended, failed, or panicked segments all paid for real
                // optimizer calls worth sharing. Costs are pure functions,
                // so partial segments contribute correct entries. Only the
                // cells the store did not hold yet are logged, each once,
                // and only after the store holds them (compaction relies on
                // that order). Dropping the session's view first lets the
                // store merge in place when no other session holds it.
                let ledger = warm.drain();
                drop(warm);
                let added = warm_store.absorb(&key, fingerprint, num_queries, universe, ledger);
                if !added.is_empty() {
                    let cells = added.iter().map(|(q, config, cost)| (*q, config, *cost));
                    let batch = warm_batch(&key, fingerprint, num_queries, universe, cells);
                    durable.append(&Record::WarmBatch(batch));
                }
                let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                match outcome {
                    Ok(s) => {
                        // The wall clock is stamped by the service (the
                        // satellite requirement): each segment's time is
                        // accumulated on the record and mirrored into the
                        // final telemetry below.
                        state.with(|st| {
                            if let Some(rec) = st.sessions.get_mut(&id) {
                                rec.wall_clock_ms += elapsed_ms;
                            }
                        });
                        s
                    }
                    Err(panic) => Settled::Failed(panic_message(panic)),
                }
            }
        };

        let settled = state.update(|st| {
            let rec = st.sessions.get_mut(&id)?;
            if let Some(p) = rec.stop.as_ref().and_then(|s| s.progress()) {
                rec.progress = Some(p);
            }
            rec.stop = None;
            match settled {
                Settled::Finished(result) => {
                    let mut payload = ResultPayload::from_result(&result);
                    payload.telemetry.wall_clock_ms = rec.wall_clock_ms;
                    let json = serde_json::to_string(&payload).ok();
                    let cancelled = matches!(
                        result.stop_reason,
                        Some(StopReason::Cancelled) | Some(StopReason::Deadline)
                    );
                    rec.state = if cancelled {
                        SessionState::Cancelled
                    } else {
                        SessionState::Done
                    };
                    rec.result = Some(payload);
                    rec.checkpoint_json = None;
                    // Logged under the lock: the terminal state must be in
                    // the WAL before any client can observe it, and WAL
                    // order must match commit order (see `submit`).
                    durable.append(&if cancelled {
                        Record::SessionCancelled {
                            id,
                            result_json: json,
                        }
                    } else {
                        Record::SessionDone {
                            id,
                            result_json: json.unwrap_or_default(),
                        }
                    });
                }
                Settled::Suspended(json, parked) => {
                    // The checkpoint rides in the fsync'd transition record,
                    // so suspension is atomic with it.
                    rec.state = SessionState::Suspended;
                    rec.progress = Some(parked);
                    durable.append(&Record::SessionSuspended {
                        id,
                        checkpoint_json: Arc::clone(&json),
                        wall_clock_ms: rec.wall_clock_ms,
                    });
                    rec.checkpoint_json = Some(json);
                }
                Settled::Failed(msg) => {
                    rec.state = SessionState::Failed;
                    rec.error = Some(msg.clone());
                    rec.checkpoint_json = None;
                    durable.append(&Record::SessionFailed { id, error: msg });
                }
            }
            Some(())
        });
        if settled.is_some() {
            // Settle is the one quiet moment in a session's life — compact
            // here, never on the tuning hot path.
            durable.maybe_compact(cfg.wal_compact_bytes, warm_store);
        }
    }
}

enum Settled {
    Finished(TuningResult),
    /// Parked, with its serialized checkpoint and the progress it parks.
    Suspended(Arc<str>, Progress),
    Failed(String),
}

/// Run one session segment: fresh or resumed, any algorithm.
#[allow(clippy::too_many_arguments)]
fn run_session(
    prepared: &Prepared,
    spec: &SubmitSpec,
    checkpoint_json: Option<&str>,
    stop: &StopSignal,
    cfg: &ServiceConfig,
    obs: Obs,
    warm: Arc<WarmState>,
    faults: &FaultPlan,
) -> Settled {
    // Each session gets its own degraded flag over the shared plan, so a
    // what-if fault in one session never marks another Degraded.
    let ctx = TuningContext::new(&prepared.opt, &prepared.cands)
        .with_obs(obs)
        .with_warm(warm)
        .with_faults(SessionFaults::new(faults.clone()));
    let req = spec.request(cfg.max_session_threads);
    use crate::spec::AlgorithmSpec;
    match spec.algorithm {
        AlgorithmSpec::Mcts => {
            let tuner = MctsTuner::default();
            let outcome = match checkpoint_json {
                Some(json) => {
                    let ckpt = match MctsCheckpoint::from_json(json) {
                        Ok(c) => c,
                        Err(e) => return Settled::Failed(e),
                    };
                    match tuner.resume(&ctx, &ckpt, stop) {
                        Ok(o) => o,
                        Err(e) => return Settled::Failed(e),
                    }
                }
                None => tuner.run_resumable(&ctx, &req, stop),
            };
            match outcome {
                MctsOutcome::Finished(result, _) => Settled::Finished(result),
                MctsOutcome::Suspended(ckpt) => {
                    Settled::Suspended(ckpt.to_json().into(), parked_progress(&ckpt))
                }
            }
        }
        AlgorithmSpec::VanillaGreedy => {
            Settled::Finished(ixtune_core::VanillaGreedy.tune_with_stop(&ctx, &req, stop))
        }
        AlgorithmSpec::TwoPhase => {
            Settled::Finished(ixtune_core::TwoPhaseGreedy.tune_with_stop(&ctx, &req, stop))
        }
        AlgorithmSpec::AutoAdmin => {
            Settled::Finished(ixtune_core::AutoAdminGreedy.tune_with_stop(&ctx, &req, stop))
        }
    }
}

/// The progress a suspended session parks: its checkpoint's counters and
/// the best improvement it last published (the tail of its convergence
/// trace). Suspension and recovery both read it from the checkpoint, so
/// `status` reports the same before and after a restart.
fn parked_progress(ckpt: &MctsCheckpoint) -> Progress {
    Progress {
        telemetry: ckpt.counters,
        best_improvement: ckpt.conv.last().copied().unwrap_or(0.0),
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("session panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("session panicked: {s}")
    } else {
        "session panicked".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgorithmSpec, WorkloadSpec};
    use ixtune_persist::Durability;

    fn config(dir: &str) -> ServiceConfig {
        let data_dir = std::env::temp_dir().join(dir);
        // Durable state survives the process now; wipe the directory so
        // every run starts from the cold-store behavior the tests assert.
        let _ = std::fs::remove_dir_all(&data_dir);
        ServiceConfig {
            max_concurrent: 2,
            queue_capacity: 4,
            max_session_threads: 2,
            data_dir,
            ..ServiceConfig::default()
        }
    }

    fn spec(algo: AlgorithmSpec, budget: usize) -> SubmitSpec {
        let mut s = SubmitSpec::new(WorkloadSpec::Synth(3), algo, 3, budget);
        s.seed = 7;
        s
    }

    #[test]
    fn submit_run_and_fetch_result() {
        let mgr = SessionManager::start(config("ixtuned-test-basic"));
        let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
        assert_eq!(
            mgr.wait_settled(id, Duration::from_secs(30)),
            Some(SessionState::Done)
        );
        let r = mgr.result(id).unwrap();
        assert_eq!(r.calls_used, r.layout_len);
        assert!(r.calls_used <= 40);
        assert_eq!(r.stop_reason, Some(StopReason::BudgetExhausted));
        assert!(r.telemetry.wall_clock_ms > 0.0, "service stamps wall clock");
        let status = mgr.status(id).unwrap();
        assert_eq!(status.state, SessionState::Done);
        assert!(status.wall_clock_ms > 0.0);
        mgr.shutdown();
    }

    #[test]
    fn admission_control_rejects_when_full() {
        let mut cfg = config("ixtuned-test-admission");
        cfg.max_concurrent = 1;
        cfg.queue_capacity = 2;
        let mgr = SessionManager::start(cfg);
        // Two slow sessions fill the table; the third is rejected.
        let a = mgr.submit(spec(AlgorithmSpec::Mcts, 1_000_000)).unwrap();
        let b = mgr.submit(spec(AlgorithmSpec::Mcts, 1_000_000)).unwrap();
        let err = mgr.submit(spec(AlgorithmSpec::Mcts, 10)).unwrap_err();
        assert_eq!(err.code, ErrorCode::QueueFull, "{err}");
        mgr.cancel(a).unwrap();
        mgr.cancel(b).unwrap();
        assert_eq!(
            mgr.wait_settled(a, Duration::from_secs(30)),
            Some(SessionState::Cancelled)
        );
        assert_eq!(
            mgr.wait_settled(b, Duration::from_secs(30)),
            Some(SessionState::Cancelled)
        );
        // Terminal sessions free their slots.
        assert!(mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 10)).is_ok());
        mgr.shutdown();
    }

    #[test]
    fn cancel_queued_session_never_runs() {
        let mut cfg = config("ixtuned-test-cancel-queued");
        cfg.max_concurrent = 1;
        let mgr = SessionManager::start(cfg);
        let blocker = mgr.submit(spec(AlgorithmSpec::Mcts, 1_000_000)).unwrap();
        let queued = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 10)).unwrap();
        mgr.cancel(queued).unwrap();
        assert_eq!(mgr.status(queued).unwrap().state, SessionState::Cancelled);
        assert!(mgr.result(queued).is_err(), "never ran, no result");
        mgr.cancel(blocker).unwrap();
        mgr.shutdown();
    }

    #[test]
    fn metrics_and_trace_cover_completed_sessions() {
        let mgr = SessionManager::start(config("ixtuned-test-metrics"));
        let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
        assert_eq!(
            mgr.wait_settled(id, Duration::from_secs(30)),
            Some(SessionState::Done)
        );
        let text = mgr.metrics();
        assert!(text.contains("ixtune_whatif_calls_total"), "{text}");
        assert!(text.contains("ixtune_sessions{state=\"done\"} 1"), "{text}");
        assert!(text.contains("ixtune_queue_depth 0"), "{text}");
        let trace = mgr.trace_json(id).unwrap();
        assert!(trace.starts_with('[') && trace.trim_end().ends_with(']'));
        assert!(trace.contains("greedy-step"), "{trace}");
        assert_eq!(
            mgr.trace_json(999).unwrap_err().code,
            ErrorCode::UnknownSession
        );
        mgr.shutdown();
    }

    #[test]
    fn prepared_workload_cache_evicts_at_capacity() {
        let mut cfg = config("ixtuned-test-prepared-lru");
        cfg.prepared_capacity = 2;
        let mgr = SessionManager::start(cfg);
        for seed in [10u64, 11, 12] {
            let mut s = SubmitSpec::new(
                WorkloadSpec::Synth(seed),
                AlgorithmSpec::VanillaGreedy,
                2,
                10,
            );
            s.seed = 1;
            let id = mgr.submit(s).unwrap();
            assert_eq!(
                mgr.wait_settled(id, Duration::from_secs(30)),
                Some(SessionState::Done)
            );
        }
        let (len, evictions) = mgr
            .state
            .with(|st| (st.workloads.len(), st.workload_evictions));
        assert!(len <= 2, "cache bounded at capacity, got {len}");
        assert!(evictions >= 1, "third workload must evict one");
        mgr.shutdown();
    }

    #[test]
    fn warm_store_serves_the_second_identical_session() {
        let mgr = SessionManager::start(config("ixtuned-test-warm"));
        let submit = || {
            let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
            assert_eq!(
                mgr.wait_settled(id, Duration::from_secs(30)),
                Some(SessionState::Done)
            );
            mgr.result(id).unwrap()
        };
        let a = submit();
        assert_eq!(a.telemetry.warm_hits, 0, "store starts cold");
        assert!(mgr.store_stats().entries > 0, "session A fed the store");
        let b = submit();
        assert!(b.telemetry.warm_seeded > 0, "session B admitted warm");
        assert_eq!(
            b.telemetry.warm_hits, b.telemetry.what_if_calls,
            "identical session: every budgeted call warm-served"
        );
        // Identity: the warm path changes who answers, never the answer.
        assert_eq!(a.config, b.config);
        assert_eq!(a.calls_used, b.calls_used);
        assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
        assert_eq!(a.layout_fingerprint, b.layout_fingerprint);
        // Flush empties the store; a third session runs cold again.
        assert!(mgr.store_flush() > 0);
        assert_eq!(mgr.store_stats().entries, 0);
        let c = submit();
        assert_eq!(c.telemetry.warm_hits, 0);
        mgr.shutdown();
    }

    #[test]
    fn restart_recovers_results_and_warm_capital() {
        let cfg = config("ixtuned-test-restart");
        let first = {
            let mgr = SessionManager::start(cfg.clone());
            let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
            assert_eq!(
                mgr.wait_settled(id, Duration::from_secs(30)),
                Some(SessionState::Done)
            );
            let r = mgr.result(id).unwrap();
            assert_eq!(r.telemetry.warm_hits, 0, "store starts cold");
            assert!(r.telemetry.wall_clock_ms > 0.0);
            assert_eq!(
                mgr.status(id).unwrap().wall_clock_ms.to_bits(),
                r.telemetry.wall_clock_ms.to_bits()
            );
            mgr.shutdown();
            r
        };
        // Same data dir, no wipe: the second daemon replays the first's log.
        let mgr = SessionManager::start(cfg);
        let back = mgr.result(0).unwrap();
        let status = mgr.status(0).unwrap();
        assert_eq!(status.state, SessionState::Done);
        assert_eq!(
            status.wall_clock_ms.to_bits(),
            first.telemetry.wall_clock_ms.to_bits(),
            "status keeps the session's wall clock across a restart"
        );
        assert_eq!(back.improvement.to_bits(), first.improvement.to_bits());
        assert_eq!(back.layout_fingerprint, first.layout_fingerprint);
        // The very first session after restart is fully warm-served.
        let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
        assert_eq!(id, 1, "recovered next_id continues the sequence");
        assert_eq!(
            mgr.wait_settled(id, Duration::from_secs(30)),
            Some(SessionState::Done)
        );
        let b = mgr.result(id).unwrap();
        assert!(b.telemetry.warm_seeded > 0, "recovered store seeds warm");
        assert_eq!(
            b.telemetry.warm_hits, b.telemetry.what_if_calls,
            "identical restarted session: every budgeted call warm-served"
        );
        assert_eq!(b.improvement.to_bits(), first.improvement.to_bits());
        mgr.shutdown();
    }

    /// Names in the data dir: only WAL and snapshot generations.
    fn data_dir_names(cfg: &ServiceConfig) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&cfg.data_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Every record in `cfg`'s data dir file `name`, decoded.
    fn logged_records(cfg: &ServiceConfig, name: &str) -> Vec<Record> {
        let mut file = std::fs::File::open(cfg.data_dir.join(name)).unwrap();
        ixtune_persist::wal::scan(&mut file)
            .unwrap()
            .payloads
            .iter()
            .map(|p| Record::decode(p).unwrap())
            .collect()
    }

    /// A cold greedy session logs its submission, the cells it added and
    /// its result: no claim record.
    #[test]
    fn one_greedy_session_appends_three_records() {
        let cfg = config("ixtuned-test-three-records");
        let mgr = SessionManager::start(cfg.clone());
        let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
        assert_eq!(
            mgr.wait_settled(id, Duration::from_secs(30)),
            Some(SessionState::Done)
        );
        mgr.shutdown();
        let recs = logged_records(&cfg, "wal-0.log");
        assert!(
            matches!(
                recs.as_slice(),
                [
                    Record::SessionSubmitted { id: 0, .. },
                    Record::WarmBatch(_),
                    Record::SessionDone { id: 0, .. },
                ]
            ),
            "{recs:?}"
        );
    }

    /// Compaction writes the warm store's own tables, so the snapshot is
    /// bounded by `warm_store_bytes`, and a restart rebuilds exactly the
    /// store that was live.
    #[test]
    fn compaction_writes_the_bounded_warm_store() {
        let mut cfg = config("ixtuned-test-bounded-compaction");
        cfg.warm_store_bytes = 8 << 10;
        cfg.wal_compact_bytes = 1;
        let live = {
            let mgr = SessionManager::start(cfg.clone());
            for seed in 0..12 {
                let mut s = SubmitSpec::new(
                    WorkloadSpec::Synth(100 + seed),
                    AlgorithmSpec::VanillaGreedy,
                    3,
                    40,
                );
                s.seed = 7;
                let id = mgr.submit(s).unwrap();
                assert_eq!(
                    mgr.wait_settled(id, Duration::from_secs(30)),
                    Some(SessionState::Done)
                );
            }
            let live = mgr.store_stats();
            mgr.shutdown();
            live
        };
        assert!(live.evictions > 0, "the bound evicted tables: {live:?}");
        let snap = data_dir_names(&cfg)
            .into_iter()
            .find(|n| n.starts_with("snap-"))
            .expect("a compaction ran");
        let snapshot_entries: usize = logged_records(&cfg, &snap)
            .iter()
            .map(|rec| match rec {
                Record::WarmBatch(b) => b.entries.len(),
                _ => 0,
            })
            .sum();
        assert!(
            snapshot_entries <= live.entries,
            "snapshot holds {snapshot_entries} warm entries, the store {}",
            live.entries
        );
        let mgr = SessionManager::start(cfg);
        let back = mgr.store_stats();
        assert_eq!((back.entries, back.bytes), (live.entries, live.bytes));
        mgr.shutdown();
    }

    /// A logged session id near `u64::MAX` cannot wrap the id sequence:
    /// replay drops it, session 0 keeps its result and new sessions get
    /// fresh ids.
    #[test]
    fn recovered_huge_id_cannot_wrap_the_id_sequence() {
        let cfg = config("ixtuned-test-id-wrap");
        let first = {
            let mgr = SessionManager::start(cfg.clone());
            let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
            assert_eq!(
                mgr.wait_settled(id, Duration::from_secs(30)),
                Some(SessionState::Done)
            );
            let r = mgr.result(id).unwrap();
            mgr.shutdown();
            r
        };
        {
            let (p, _, _) = ixtune_persist::Persist::open(&cfg.data_dir, cfg.durability).unwrap();
            p.append(&Record::SessionSubmitted {
                id: u64::MAX - 1,
                spec_json: serde_json::to_string(&spec(AlgorithmSpec::VanillaGreedy, 10)).unwrap(),
            })
            .unwrap();
        }
        let mgr = SessionManager::start(cfg);
        for want in [1, 2] {
            let id = mgr.submit(spec(AlgorithmSpec::TwoPhase, 20)).unwrap();
            assert_eq!(id, want, "ids continue after the live ones");
            assert_eq!(
                mgr.wait_settled(id, Duration::from_secs(30)),
                Some(SessionState::Done)
            );
        }
        assert_eq!(mgr.result(0).unwrap(), first);
        assert_eq!(mgr.list().len(), 3);
        mgr.shutdown();
    }

    /// A suspended session survives a restart, and its status (and so the
    /// scrape) reports the counters its checkpoint parked, not zero.
    #[test]
    fn restart_keeps_suspended_session_resumable() {
        let cfg = config("ixtuned-test-restart-suspended");
        let parked = {
            let mgr = SessionManager::start(cfg.clone());
            let mut s = spec(AlgorithmSpec::Mcts, 400);
            s.pause_after_calls = Some(50);
            let id = mgr.submit(s).unwrap();
            assert_eq!(
                mgr.wait_settled(id, Duration::from_secs(60)),
                Some(SessionState::Suspended)
            );
            let parked = mgr.status(id).unwrap();
            mgr.shutdown();
            parked
        };
        assert_eq!(parked.telemetry.what_if_calls, 50);
        // The checkpoint lives in the WAL: no file beside it.
        assert_eq!(data_dir_names(&cfg), vec!["wal-0.log"]);
        let mgr = SessionManager::start(cfg.clone());
        let recovered = mgr.status(0).unwrap();
        assert_eq!(recovered.state, SessionState::Suspended);
        assert_eq!(recovered.telemetry, parked.telemetry);
        assert_eq!(recovered.best_improvement, parked.best_improvement);
        let text = mgr.metrics();
        for (series, want) in SESSION_SERIES.iter().zip(session_series(&parked.telemetry)) {
            assert_eq!(scraped(&text, series), want, "{series}");
        }
        mgr.resume(0).unwrap();
        assert_eq!(
            mgr.wait_settled(0, Duration::from_secs(60)),
            Some(SessionState::Done)
        );
        let r = mgr.result(0).unwrap();
        assert!(r.calls_used <= 400);
        assert!(mgr
            .state
            .with(|st| st.sessions[&0].checkpoint_json.is_none()));
        mgr.shutdown();
    }

    /// A data dir from the build that kept checkpoints as files records a
    /// file name where the checkpoint JSON now goes. Resuming such a row
    /// fails that one session with the checkpoint parser's message; the
    /// daemon keeps serving.
    #[test]
    fn resuming_a_file_name_checkpoint_fails_only_that_session() {
        let cfg = config("ixtuned-test-file-name-checkpoint");
        let mut s = spec(AlgorithmSpec::Mcts, 400);
        s.pause_after_calls = Some(50);
        // That build's name for session 0's checkpoint file.
        let file_name = ["s-0", "ckpt", "json"].join(".");
        {
            let (p, _, _) = ixtune_persist::Persist::open(&cfg.data_dir, cfg.durability).unwrap();
            for rec in [
                Record::SessionSubmitted {
                    id: 0,
                    spec_json: serde_json::to_string(&s).unwrap(),
                },
                Record::SessionRunning { id: 0 },
                Record::SessionSuspended {
                    id: 0,
                    checkpoint_json: file_name.as_str().into(),
                    wall_clock_ms: 4.0,
                },
            ] {
                p.append(&rec).unwrap();
            }
        }
        let mgr = SessionManager::start(cfg);
        assert_eq!(mgr.status(0).unwrap().state, SessionState::Suspended);
        mgr.resume(0).unwrap();
        assert_eq!(
            mgr.wait_settled(0, Duration::from_secs(60)),
            Some(SessionState::Failed)
        );
        let want = MctsCheckpoint::from_json(&file_name).unwrap_err();
        assert_eq!(mgr.status(0).unwrap().error, Some(want));
        let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
        assert_eq!(
            mgr.wait_settled(id, Duration::from_secs(30)),
            Some(SessionState::Done)
        );
        mgr.shutdown();
    }

    /// The value of the scraped series `series` (name plus labels).
    fn scraped(text: &str, series: &str) -> u64 {
        let prefix = format!("{series} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("{series} missing from the scrape:\n{text}"))
            .parse()
            .unwrap()
    }

    /// The scrape's session series, in the order `session_series` lists
    /// the matching telemetry fields.
    const SESSION_SERIES: [&str; 9] = [
        "ixtune_whatif_calls_total{phase=\"priors\"}",
        "ixtune_whatif_calls_total{phase=\"selection\"}",
        "ixtune_whatif_calls_total{phase=\"rollout\"}",
        "ixtune_whatif_calls_total{phase=\"other\"}",
        "ixtune_cache_hits_total",
        "ixtune_derivations_total",
        "ixtune_parallel_scans_total",
        "ixtune_warm_hits_total",
        "ixtune_warm_seeded_total",
    ];

    fn session_series(t: &SessionTelemetry) -> [u64; 9] {
        [
            t.priors_calls,
            t.selection_calls,
            t.rollout_calls,
            t.other_calls,
            t.cache_hits,
            t.derivations,
            t.parallel_scans,
            t.warm_hits,
            t.warm_seeded,
        ]
        .map(|n| n as u64)
    }

    /// Every session series in the scrape is the sum of the telemetry
    /// `status` reports, over all four served algorithms, a paused and
    /// resumed MCTS session and a cancelled one. The status sum never
    /// falls, sampled across every transition, and a scrape taken after a
    /// sample reports at least that sum.
    #[test]
    fn scrape_sums_status_telemetry_over_every_session() {
        let mut cfg = config("ixtuned-test-scrape-sums");
        cfg.queue_capacity = 8;
        let mgr = SessionManager::start(cfg);
        let sample = |ids: &[u64], floor: &mut [u64; 9]| {
            let mut sum = SessionTelemetry::default();
            for &id in ids {
                sum.accumulate(&mgr.status(id).unwrap().telemetry);
            }
            let now = session_series(&sum);
            let text = mgr.metrics();
            for (i, series) in SESSION_SERIES.iter().enumerate() {
                assert!(
                    now[i] >= floor[i],
                    "status sum of {series} fell: {} -> {}",
                    floor[i],
                    now[i]
                );
                assert!(scraped(&text, series) >= now[i], "{series} below status");
            }
            *floor = now;
        };
        let mut floor = [0u64; 9];

        let mut ids = Vec::new();
        for algo in [
            AlgorithmSpec::VanillaGreedy,
            AlgorithmSpec::TwoPhase,
            AlgorithmSpec::AutoAdmin,
        ] {
            ids.push(mgr.submit(spec(algo, 40)).unwrap());
        }
        let mut paused = spec(AlgorithmSpec::Mcts, 300);
        paused.pause_after_calls = Some(50);
        let paused = mgr.submit(paused).unwrap();
        ids.push(paused);
        let deadline = Instant::now() + Duration::from_secs(60);
        while mgr.status(paused).unwrap().state != SessionState::Suspended {
            assert!(Instant::now() < deadline, "paused session never parked");
            sample(&ids, &mut floor);
            std::thread::sleep(Duration::from_millis(2));
        }
        sample(&ids, &mut floor);
        assert_eq!(mgr.status(paused).unwrap().telemetry.what_if_calls, 50);
        mgr.resume(paused).unwrap();
        sample(&ids, &mut floor);

        let long = mgr.submit(spec(AlgorithmSpec::Mcts, 1_000_000)).unwrap();
        ids.push(long);
        while mgr.status(long).unwrap().telemetry.what_if_calls == 0 {
            assert!(Instant::now() < deadline, "long session never ran");
            sample(&ids, &mut floor);
            std::thread::sleep(Duration::from_millis(2));
        }
        mgr.cancel(long).unwrap();
        while !ids
            .iter()
            .all(|&id| mgr.status(id).unwrap().state.terminal())
        {
            assert!(Instant::now() < deadline, "sessions never settled");
            sample(&ids, &mut floor);
            std::thread::sleep(Duration::from_millis(2));
        }
        for &id in &ids {
            let want = if id == long {
                SessionState::Cancelled
            } else {
                SessionState::Done
            };
            assert_eq!(mgr.status(id).unwrap().state, want, "session {id}");
        }
        sample(&ids, &mut floor);
        let text = mgr.metrics();
        assert_eq!(SESSION_SERIES.map(|series| scraped(&text, series)), floor);
        assert!(floor[0] > 0 && floor[3] > 0, "{floor:?}");
        mgr.shutdown();
    }

    /// The scraped persist series are the store's own counts: under
    /// `Never` compaction syncs nothing, so the scrape reports 0 fsyncs;
    /// under `Always` it reports one per append and two per compaction.
    #[test]
    fn scraped_persist_series_equal_the_store_stats() {
        for durability in [Durability::Never, Durability::Always] {
            let mut cfg = config(&format!("ixtuned-test-scrape-fsyncs-{durability:?}"));
            cfg.durability = durability;
            cfg.wal_compact_bytes = 1;
            let mgr = SessionManager::start(cfg);
            for _ in 0..2 {
                let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
                assert_eq!(
                    mgr.wait_settled(id, Duration::from_secs(30)),
                    Some(SessionState::Done)
                );
                // The settle compacts after its session is observable.
                let deadline = Instant::now() + Duration::from_secs(30);
                while mgr.persist_stats().wal_bytes > 0 {
                    assert!(Instant::now() < deadline, "{:?}", mgr.persist_stats());
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            let text = mgr.metrics();
            let stats = mgr.persist_stats();
            assert_eq!(stats.compactions_total, 2);
            assert_eq!(
                stats.fsyncs_total,
                match durability {
                    Durability::Never => 0,
                    _ => stats.records_total + 2 * stats.compactions_total,
                }
            );
            for (series, want) in [
                ("ixtune_persist_fsyncs_total", stats.fsyncs_total),
                ("ixtune_persist_records_total", stats.records_total),
                ("ixtune_persist_compactions_total", stats.compactions_total),
                ("ixtune_persist_wal_bytes", stats.wal_bytes),
                ("ixtune_persist_degraded", 0),
            ] {
                assert_eq!(scraped(&text, series), want, "{durability:?}: {series}");
            }
            mgr.shutdown();
        }
    }

    /// A torn WAL tail found at start shows in the scrape, and so does
    /// every record appended after it.
    #[test]
    fn scrape_reports_a_torn_tail_and_counts_appends() {
        let cfg = config("ixtuned-test-scrape-torn");
        {
            let mgr = SessionManager::start(cfg.clone());
            let text = mgr.metrics();
            assert_eq!(scraped(&text, "ixtune_persist_torn_tails_total"), 0);
            let id = mgr.submit(spec(AlgorithmSpec::VanillaGreedy, 40)).unwrap();
            mgr.wait_settled(id, Duration::from_secs(30));
            mgr.shutdown();
        }
        // A crash mid-frame: half a header after the good records.
        use std::io::Write;
        std::fs::OpenOptions::new()
            .append(true)
            .open(cfg.data_dir.join("wal-0.log"))
            .unwrap()
            .write_all(&[0xde, 0xad, 0xbe])
            .unwrap();
        let mgr = SessionManager::start(cfg);
        let text = mgr.metrics();
        assert_eq!(scraped(&text, "ixtune_persist_torn_tails_total"), 1);
        assert_eq!(scraped(&text, "ixtune_persist_records_total"), 0);
        mgr.store_flush();
        assert_eq!(scraped(&mgr.metrics(), "ixtune_persist_records_total"), 1);
        mgr.shutdown();
    }

    /// A record too large for a frame shows in the scrape as one IO
    /// error, no record, and a healthy store.
    #[test]
    fn scrape_counts_a_refused_record_as_an_io_error() {
        let mgr = SessionManager::start(config("ixtuned-test-scrape-oversized"));
        mgr.durable.append(&Record::SessionFailed {
            id: 0,
            error: "x".repeat(ixtune_persist::wal::MAX_PAYLOAD as usize),
        });
        let text = mgr.metrics();
        assert_eq!(scraped(&text, "ixtune_persist_io_errors_total"), 1);
        assert_eq!(scraped(&text, "ixtune_persist_records_total"), 0);
        assert_eq!(scraped(&text, "ixtune_persist_degraded"), 0);
        mgr.shutdown();
    }

    /// Appends that keep failing demote the store, and the scrape raises
    /// the degraded gauge beside the three failed attempts.
    #[test]
    fn scrape_raises_the_degraded_gauge() {
        let mut cfg = config("ixtuned-test-scrape-degraded");
        cfg.fault_spec = "seed=7;persist.append=p1".into();
        let mgr = SessionManager::start(cfg);
        assert_eq!(scraped(&mgr.metrics(), "ixtune_persist_degraded"), 0);
        mgr.store_flush();
        let text = mgr.metrics();
        assert_eq!(scraped(&text, "ixtune_persist_degraded"), 1);
        assert_eq!(scraped(&text, "ixtune_persist_io_errors_total"), 3);
        assert_eq!(
            scraped(
                &text,
                "ixtune_fault_injected_total{site=\"persist.append\"}"
            ),
            3
        );
        assert_eq!(scraped(&text, "ixtune_persist_records_total"), 0);
        mgr.shutdown();
    }

    #[test]
    fn suspend_rejects_non_resumable() {
        let mgr = SessionManager::start(config("ixtuned-test-suspend-reject"));
        let id = mgr
            .submit(spec(AlgorithmSpec::TwoPhase, 1_000_000))
            .unwrap();
        // Whether Queued or Running, suspension must be refused for the
        // greedy family.
        let err = mgr.suspend(id).unwrap_err();
        assert_eq!(err.code, ErrorCode::NotResumable, "{err}");
        mgr.cancel(id).unwrap();
        mgr.wait_settled(id, Duration::from_secs(30));
        mgr.shutdown();
    }
}
