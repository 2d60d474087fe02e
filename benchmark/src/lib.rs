//! The repository benchmark: end-to-end and per-layer numbers for the qcm
//! workspace, on three seeded workloads.
//!
//! * `mine_hardcore` — the YouTube stand-in on the parallel engine: the
//!   paper's straggler regime, where the mining kernels do the work.
//! * `mine_sparse` — a 400k-vertex DBLP-like graph on two simulated
//!   machines: k-core pruning leaves almost nothing to mine, so graph I/O
//!   and the engine's spawn/pull/transport path do the work.
//! * `serve_mixed` — the HTTP front door and the mining service under a
//!   closed loop of two keep-alive clients: cache hits, cold serial mining
//!   and graph re-registrations.
//!
//! A run with tracing off prints the end-to-end metrics; a separate traced
//! run of the same inputs prints the per-layer metrics. Every layer is timed
//! from here, around calls into its public functions; nothing inside the
//! program is changed for the benchmark. See `README.md` for the rationale
//! of each workload and the layer → metric → end-to-end map.

pub mod client;
pub mod counters;
pub mod inputs;
pub mod mine;
pub mod report;
pub mod serve;

use std::path::PathBuf;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Straggler-bound batch mining (YouTube stand-in, 1 machine × 2 threads).
    MineHardcore,
    /// Pull-bound batch mining (400k-vertex DBLP-like graph, 2 machines × 1 thread).
    MineSparse,
    /// Mixed HTTP serve loop (2 clients, 2 service workers).
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MineHardcore,
        Workload::MineSparse,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MineHardcore => "mine_hardcore",
            Workload::MineSparse => "mine_sparse",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is the benchmark; `Tiny` shrinks every generated graph
/// so the smoke test can run each workload in seconds on a debug build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input is derived from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub budget: Duration,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory the generated inputs are written to (removed afterwards).
    pub data_dir: PathBuf,
}

/// Runs one workload and returns its report.
pub fn run(options: &Options) -> report::Report {
    let _data = inputs::DataDir::create(&options.data_dir);
    match options.workload {
        Workload::MineHardcore | Workload::MineSparse => mine::run(options),
        Workload::ServeMixed => serve::run(options),
    }
}
