//! Shared foundation types for the `ixtune` workspace.
//!
//! This crate contains the vocabulary used by every other crate:
//!
//! * [`ids`] — small, copyable newtype identifiers for tables, columns,
//!   queries, and candidate indexes;
//! * [`bitset`] — [`IndexSet`], the dense bitset that represents an *index
//!   configuration* (a subset of the candidate indexes) and supports the
//!   subset tests that cost derivation is built on;
//! * [`error`] — the workspace error type;
//! * [`fault`] — the deterministic fault-injection plane: a seeded
//!   [`fault::FaultPlan`] with named injection sites, inert by default;
//! * [`rng`] — deterministic RNG construction helpers so that every
//!   stochastic component is reproducible from an explicit seed;
//! * [`sync`] — the service's monitor.

pub mod bitset;
pub mod error;
pub mod fault;
pub mod ids;
pub mod intern;
pub mod rng;
pub mod sync;

pub use bitset::IndexSet;
pub use error::{Error, Result};
pub use fault::{FaultCursor, FaultPlan};
pub use ids::{ColumnId, ColumnRef, IndexId, QueryId, TableId};
pub use intern::{ConfigInterner, IdCostMap};
