//! Experiment harness reproducing every table and figure of the paper's
//! evaluation, plus Criterion micro-benchmarks (`benches/`).
//!
//! * [`session`] — builds a workload + candidates + optimizer bundle;
//! * [`runner`] — sweeps (algorithm × K × budget × seed) grids;
//! * [`report`] — paper-style tables and CSV/JSON result files;
//! * [`figures`] — one runner per table/figure (see DESIGN.md §4).
//!
//! The `experiments` binary dispatches by experiment id:
//!
//! ```text
//! cargo run -p ixtune-bench --release --bin experiments -- table1 fig8
//! cargo run -p ixtune-bench --release --bin experiments -- all --quick
//! ```

pub mod figures;
pub mod report;
pub mod runner;
pub mod session;

pub use figures::ExpConfig;
pub use runner::{run_grid, Algo, Cell};
pub use session::Session;
