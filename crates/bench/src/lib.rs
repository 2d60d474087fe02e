//! # qcm-bench — experiment harness for the paper's tables and figures
//!
//! This crate contains the shared machinery used by
//!
//! * the `experiments` binary (`cargo run --release -p qcm-bench --bin
//!   experiments -- <experiment>`), which regenerates every table and figure
//!   of the paper's Section 7 at the stand-in-dataset scale; `experiments all
//!   --quick` runs them all on scaled-down inputs in seconds (CI's
//!   `paper-tables-smoke` job), and
//! * the `bench_suite` binary, which records the gated per-layer
//!   performance rows (`--quick` for CI-sized inputs) that `bench_gate`
//!   compares against `bench/baseline.json` (see BENCH.md).
//!
//! The mapping from experiment to paper artefact is documented in the
//! `experiments` binary's module docs. The end-to-end benchmark is
//! `qcm-perf` (see `benchmark/README.md`).

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
