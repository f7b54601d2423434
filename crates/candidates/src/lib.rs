//! Candidate index generation — the first stage of the index-tuning
//! architecture in Figure 1 of the paper.
//!
//! * [`indexable`] — classify each query's referenced columns (equality,
//!   range, join, group/order, payload);
//! * [`gen`] — propose per-query candidate indexes and union them into the
//!   workload-level [`CandidateSet`] that enumeration searches over;
//! * [`atomic`] — single-join atomic configurations for the AutoAdmin
//!   greedy variant.

pub mod atomic;
pub mod gen;
pub mod indexable;

pub use gen::{generate, generate_default, CandidateSet, GenOptions};
pub use indexable::{extract, IndexableColumns};
