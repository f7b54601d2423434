//! `ixtuned` — a multi-session tuning service over the core enumerators.
//!
//! The daemon owns a bounded job queue with admission control; each
//! admitted session runs one [`TuningRequest`] against a shared prepared
//! workload under a cooperative [`StopSignal`]: clients can cancel
//! (best-so-far result), set deadlines, suspend a resumable session to a
//! versioned checkpoint kept in the write-ahead log, and resume it later
//! **bit-identically** — the resumed session spends the rest of its
//! budget on exactly the calls the uninterrupted run would have made
//! (DESIGN.md §6).
//!
//! * [`spec`] — submission specs ([`SubmitSpec`]) and daemon
//!   configuration ([`ServiceConfig`]);
//! * [`manager`] — the session manager: queue, states
//!   (Queued → Running → Done/Cancelled/Failed/Suspended), worker
//!   threads, checkpoint persistence;
//! * [`proto`] — the line-delimited JSON wire protocol
//!   (`submit`/`status`/`result`/`cancel`/`suspend`/`resume`/`list`/
//!   `metrics`/`trace`), with errors as a closed [`ErrorCode`] set;
//! * [`daemon`] — the TCP front end (`ixtuned`);
//! * [`client`] — the blocking client (`ixtunectl` and tests);
//! * [`durable`] — glue to the `ixtune-persist` WAL/snapshot store: every
//!   submission, transition, and warm publication survives a crash and is
//!   replayed at start (DESIGN.md §10).
//!
//! [`TuningRequest`]: ixtune_core::tuner::TuningRequest
//! [`StopSignal`]: ixtune_core::stop::StopSignal

pub mod client;
pub mod daemon;
pub mod durable;
pub mod manager;
pub mod proto;
pub mod spec;

pub use client::Client;
pub use daemon::Daemon;
pub use manager::SessionManager;
pub use proto::{
    ErrorCode, ErrorPayload, PersistStatsPayload, Request, Response, ResultPayload, SessionState,
    SessionSummary, StatusPayload,
};
pub use spec::{AlgorithmSpec, ServiceConfig, SubmitSpec, WorkloadSpec};
