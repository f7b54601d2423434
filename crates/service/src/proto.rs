//! Line-delimited JSON protocol between `ixtunectl` and `ixtuned`.
//!
//! One request per line, one response per line, externally tagged enums
//! (serde's JSON default): `{"Submit":{...}}`, `"Pong"`, `{"Error":"..."}`.
//! The framing is trivially inspectable with `nc` and needs no length
//! prefixes; newlines cannot appear inside a JSON document encoded by
//! `serde_json::to_string`.

use crate::spec::{AlgorithmSpec, SubmitSpec};
use ixtune_core::budget::SessionTelemetry;
use ixtune_core::stop::StopReason;
use ixtune_core::tuner::TuningResult;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// What a client can ask the daemon.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enqueue a new tuning session; answered with `Submitted(id)` or
    /// `Error` when the queue is full (admission control).
    Submit(SubmitSpec),
    /// Per-session state plus streamed telemetry.
    Status(u64),
    /// The final result of a terminal session.
    Result(u64),
    /// Stop a session; it keeps its best-so-far result.
    Cancel(u64),
    /// Checkpoint a running (resumable) session and park it.
    Suspend(u64),
    /// Re-queue a suspended session from its snapshot.
    Resume(u64),
    /// Summaries of every known session.
    List,
    /// Prometheus text exposition of the daemon's metrics registry.
    Metrics,
    /// Chrome-trace-viewer JSON of one session's recorded spans.
    Trace(u64),
    /// Aggregate counters of the daemon's warm cost store.
    StoreStats,
    /// Drop every warm store snapshot; answered with `Flushed(entries)`.
    /// Running sessions keep their checked-out snapshots.
    StoreFlush,
    /// Statistics of the durable store (WAL size, generation, last
    /// recovery outcome).
    PersistStats,
    /// Stop accepting work, cancel running sessions, and exit.
    Shutdown,
}

/// What the daemon answers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    Submitted(u64),
    Status(StatusPayload),
    Result(ResultPayload),
    Sessions(Vec<SessionSummary>),
    /// Prometheus text exposition (answer to `Metrics`).
    Metrics(String),
    /// Chrome-trace JSON for one session (answer to `Trace`).
    Trace(String),
    /// Warm store counters (answer to `StoreStats`).
    StoreStats(StoreStatsPayload),
    /// Entries discarded by `StoreFlush`.
    Flushed(usize),
    /// Durable store statistics (answer to `PersistStats`).
    PersistStats(PersistStatsPayload),
    /// Generic success for cancel/suspend/resume/shutdown.
    Ok,
    Error(ErrorPayload),
}

/// Wire form of the warm store's aggregate counters: the store's own
/// stats record, serialized field by field.
pub type StoreStatsPayload = ixtune_core::warm::WarmStoreStats;

/// Wire form of the durable store's statistics: live WAL/snapshot
/// counters plus the outcome of the recovery the daemon performed at
/// start.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PersistStatsPayload {
    /// Current snapshot/WAL generation.
    pub generation: u64,
    /// Live write-ahead log size in bytes.
    pub wal_bytes: u64,
    /// Records appended since daemon start.
    pub records_total: u64,
    /// fsyncs issued since daemon start.
    pub fsyncs_total: u64,
    /// Snapshot compactions since daemon start.
    pub compactions_total: u64,
    /// Configured policy: `"always"`, `"batch"`, or `"never"`.
    pub durability: String,
    /// Whether start-up recovery loaded a snapshot.
    pub recovered_snapshot: bool,
    /// WAL records replayed at start-up.
    pub recovered_wal_records: u64,
    /// Whether recovery truncated a torn WAL tail.
    pub recovery_torn_tail: bool,
    /// Bytes dropped by the torn-tail truncation.
    pub recovery_torn_bytes: u64,
    /// Wall-clock recovery duration, milliseconds.
    pub recovery_ms: f64,
}

impl From<ixtune_persist::PersistStats> for PersistStatsPayload {
    fn from(s: ixtune_persist::PersistStats) -> Self {
        Self {
            generation: s.generation,
            wal_bytes: s.wal_bytes,
            records_total: s.records_total,
            fsyncs_total: s.fsyncs_total,
            compactions_total: s.compactions_total,
            durability: s.durability.as_str().to_string(),
            recovered_snapshot: s.recovery.snapshot_loaded,
            recovered_wal_records: s.recovery.wal_records,
            recovery_torn_tail: s.recovery.torn_tail,
            recovery_torn_bytes: s.recovery.torn_bytes,
            recovery_ms: s.recovery.duration_ms,
        }
    }
}

/// Closed set of daemon error conditions. Serialized as the stable
/// variant name (`"QueueFull"`, …) so clients and tests dispatch on the
/// code instead of matching message text; the human-readable detail rides
/// along in [`ErrorPayload::message`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The daemon is draining and admits no new work.
    ShuttingDown,
    /// Admission control: too many open sessions.
    QueueFull,
    /// No session with the given id.
    UnknownSession,
    /// The submitted spec failed validation.
    InvalidSpec,
    /// Suspend requested for an algorithm that cannot checkpoint.
    NotResumable,
    /// The verb requires a Running session.
    NotRunning,
    /// Resume requires a Suspended session.
    NotSuspended,
    /// The session is already terminal.
    AlreadyTerminal,
    /// The session has no result (yet, or ever).
    NoResult,
    /// The request line could not be parsed.
    BadRequest,
}

/// A typed error on the wire: a machine-readable code plus detail text.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ErrorPayload {
    pub code: ErrorCode,
    pub message: String,
}

impl ErrorPayload {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ErrorPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Lifecycle of a session inside the daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is tuning it.
    Running,
    /// Checkpointed to disk; `Resume` re-queues it.
    Suspended,
    /// Finished on its own (budget exhausted or converged).
    Done,
    /// Stopped by `Cancel` (or a deadline); best-so-far result retained.
    Cancelled,
    /// The worker panicked or the session could not be constructed.
    Failed,
}

impl SessionState {
    /// Whether the session can never run again.
    pub fn terminal(self) -> bool {
        matches!(self, Self::Done | Self::Cancelled | Self::Failed)
    }
}

/// Live view of one session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusPayload {
    pub id: u64,
    pub state: SessionState,
    pub algorithm: AlgorithmSpec,
    pub workload: String,
    /// Latest streamed telemetry (zeroes until the first progress
    /// publication; frozen at its last value once terminal).
    pub telemetry: SessionTelemetry,
    /// Latest streamed improvement estimate in `[0, 1]`.
    pub best_improvement: f64,
    /// Wall-clock spent tuning, accumulated across run segments (a
    /// suspended-then-resumed session keeps the time of every segment).
    pub wall_clock_ms: f64,
    /// Error message for `Failed` sessions.
    pub error: Option<String>,
}

/// One row of `List`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    pub id: u64,
    pub state: SessionState,
    pub algorithm: AlgorithmSpec,
    pub workload: String,
}

/// Wire form of a [`TuningResult`]. Configurations and layouts are
/// summarized (member ids, length, order-sensitive fingerprint) instead of
/// shipping the full call trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultPayload {
    pub algorithm: String,
    /// Member indexes of the recommended configuration, ascending.
    pub config: Vec<u32>,
    pub calls_used: usize,
    /// Oracle improvement fraction in `[0, 1]`.
    pub improvement: f64,
    pub stop_reason: Option<StopReason>,
    /// Number of budget-consuming calls in the layout (= calls_used).
    pub layout_len: usize,
    /// Order-sensitive digest of the call layout — equal digests mean the
    /// budget was spent on the same cells in the same order.
    pub layout_fingerprint: u64,
    pub telemetry: SessionTelemetry,
}

impl ResultPayload {
    pub fn from_result(r: &TuningResult) -> Self {
        Self {
            algorithm: r.algorithm.clone(),
            config: r.config.iter().map(|id| id.0).collect(),
            calls_used: r.calls_used,
            improvement: r.improvement,
            stop_reason: r.stop_reason,
            layout_len: r.layout.len(),
            layout_fingerprint: r.layout.fingerprint(),
            telemetry: r.telemetry,
        }
    }
}

/// Write one protocol message as a JSON line.
pub fn write_line<T: Serialize>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let mut line = serde_json::to_string(msg).map_err(|e| std::io::Error::other(format!("{e}")))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read one protocol message from a JSON line. `Ok(None)` on clean EOF.
pub fn read_line<T: Deserialize>(
    r: &mut impl BufRead,
) -> std::io::Result<Option<Result<T, String>>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(Some(Err("empty line".into())));
    }
    Ok(Some(
        serde_json::from_str(trimmed).map_err(|e| format!("malformed message: {e}")),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Ping,
            Request::Submit(SubmitSpec::new(
                WorkloadSpec::Bench("tpch".into()),
                AlgorithmSpec::Mcts,
                5,
                200,
            )),
            Request::Status(3),
            Request::Result(4),
            Request::Cancel(5),
            Request::Suspend(6),
            Request::Resume(7),
            Request::List,
            Request::Metrics,
            Request::Trace(8),
            Request::StoreStats,
            Request::StoreFlush,
            Request::PersistStats,
            Request::Shutdown,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = vec![
            Response::Pong,
            Response::Submitted(9),
            Response::Status(StatusPayload {
                id: 9,
                state: SessionState::Running,
                algorithm: AlgorithmSpec::TwoPhase,
                workload: "synth:3".into(),
                telemetry: SessionTelemetry::default(),
                best_improvement: 0.25,
                wall_clock_ms: 12.5,
                error: None,
            }),
            Response::Result(ResultPayload {
                algorithm: "MCTS".into(),
                config: vec![1, 4, 7],
                calls_used: 100,
                improvement: 0.375,
                stop_reason: Some(StopReason::BudgetExhausted),
                layout_len: 100,
                layout_fingerprint: 0xdead_beef,
                telemetry: SessionTelemetry::default(),
            }),
            Response::Sessions(vec![SessionSummary {
                id: 1,
                state: SessionState::Suspended,
                algorithm: AlgorithmSpec::Mcts,
                workload: "tpch".into(),
            }]),
            Response::Metrics("# HELP ixtune_whatif_calls_total …\n".into()),
            Response::Trace("[{\"ph\":\"X\"}]".into()),
            Response::StoreStats(StoreStatsPayload {
                workloads: 2,
                entries: 512,
                interned_configs: 64,
                bytes: 40_960,
                epoch: 7,
                evictions: 1,
                max_bytes: 64 << 20,
            }),
            Response::Flushed(512),
            Response::PersistStats(PersistStatsPayload {
                generation: 3,
                wal_bytes: 4096,
                records_total: 17,
                fsyncs_total: 2,
                compactions_total: 1,
                durability: "batch".into(),
                recovered_snapshot: true,
                recovered_wal_records: 5,
                recovery_torn_tail: true,
                recovery_torn_bytes: 12,
                recovery_ms: 1.25,
            }),
            Response::Ok,
            Response::Error(ErrorPayload::new(
                ErrorCode::QueueFull,
                "queue full (16/16 sessions open)",
            )),
        ];
        for resp in resps {
            let json = serde_json::to_string(&resp).unwrap();
            assert!(!json.contains('\n'), "line framing requires one line");
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, resp, "{json}");
        }
    }

    #[test]
    fn error_codes_serialize_as_stable_strings() {
        // The wire form is the variant name itself — renaming a variant is
        // a protocol break, which this test turns into a compile-visible
        // diff instead of a silent drift.
        for (code, wire) in [
            (ErrorCode::ShuttingDown, "\"ShuttingDown\""),
            (ErrorCode::QueueFull, "\"QueueFull\""),
            (ErrorCode::UnknownSession, "\"UnknownSession\""),
            (ErrorCode::InvalidSpec, "\"InvalidSpec\""),
            (ErrorCode::NotResumable, "\"NotResumable\""),
            (ErrorCode::NotRunning, "\"NotRunning\""),
            (ErrorCode::NotSuspended, "\"NotSuspended\""),
            (ErrorCode::AlreadyTerminal, "\"AlreadyTerminal\""),
            (ErrorCode::NoResult, "\"NoResult\""),
            (ErrorCode::BadRequest, "\"BadRequest\""),
        ] {
            assert_eq!(serde_json::to_string(&code).unwrap(), wire);
            let back: ErrorCode = serde_json::from_str(wire).unwrap();
            assert_eq!(back, code);
        }
    }

    #[test]
    fn line_codec_roundtrip() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Ping).unwrap();
        write_line(&mut buf, &Request::List).unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        let a: Request = read_line(&mut r).unwrap().unwrap().unwrap();
        let b: Request = read_line(&mut r).unwrap().unwrap().unwrap();
        assert_eq!(a, Request::Ping);
        assert_eq!(b, Request::List);
        assert!(read_line::<Request>(&mut r).unwrap().is_none(), "EOF");
    }
}
