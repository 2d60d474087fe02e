//! # qcm-bench — experiment harness for the paper's tables and figures
//!
//! This crate contains the shared machinery used by
//!
//! * the `experiments` binary (`cargo run --release -p qcm-bench --bin
//!   experiments -- <experiment>`), which regenerates every table and figure
//!   of the paper's Section 7 at the stand-in-dataset scale, and
//! * the Criterion benchmarks (`cargo bench -p qcm-bench`), which run the same
//!   experiments on further-scaled-down inputs so that `cargo bench` finishes
//!   in minutes.
//!
//! The mapping from experiment to paper artefact is documented in the
//! `experiments` binary's module docs. Gated per-layer performance rows live
//! in `bench_suite` (see BENCH.md); the end-to-end benchmark is `qcm-perf`
//! (see `benchmark/README.md`).

/// The hand-rolled JSON value (moved to `qcm_obs::json` so the HTTP
/// listener can share it; re-exported here for the pipeline's call sites).
pub mod json {
    pub use qcm_obs::json::*;
}
pub mod loadgen;
pub mod report;
pub mod runner;
pub mod scaled;
pub mod suite;

pub use json::Json;
pub use report::Table;
pub use runner::{run_dataset, DatasetRun, RunOptions};
pub use suite::{SuiteReport, WorkloadResult, WorkloadSpec};
