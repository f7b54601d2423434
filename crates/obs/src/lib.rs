//! Observability primitives for ixtune: a lock-cheap metrics registry and
//! a bounded tracing recorder. Both are std-only and deliberately free of
//! workspace dependencies so every crate — core enumerators, the
//! optimizer, the service — can emit into them without layering cycles.
//!
//! * [`metrics`] — counters, gauges, and fixed-bucket histograms behind an
//!   atomic hot path, registered by name + label pairs in a
//!   [`MetricsRegistry`] that renders Prometheus text exposition;
//! * [`trace`] — a [`TraceRecorder`]: a bounded ring buffer of completed
//!   spans with monotonic microsecond timestamps and per-session scopes,
//!   serializable to Chrome-trace-viewer JSON.
//!
//! Neither type knows anything about tuning; the domain-specific
//! instrument bundle lives in `ixtune_core::obs`, which holds `Arc`s to
//! instruments created here and is a no-op when disabled.

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{SpanRecord, TraceRecorder};
