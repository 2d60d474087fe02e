//! High-level parallel mining API.
//!
//! [`ParallelMiner`] shrinks the graph to its global k-core, wires the
//! quasi-clique application to the reforged engine, runs the job on the
//! simulated cluster, and post-processes the raw reports into the final
//! maximal result set — the same pipeline the paper's experiments use
//! (Section 7), exposed as one call.
//!
//! [`ParallelMiner::with_sim`] runs the same pipeline on
//! [`qcm_engine::SimCluster`] instead of on worker threads: the seeded
//! discrete-event simulator, which drives the live engine's scheduler in
//! virtual time. One seed plus one fault scenario replays byte-identically,
//! so crash, straggler and partition behaviour is testable in CI without
//! flaky timing. Determinism requires two deviations, both applied
//! automatically:
//!
//! * the decomposition strategy is forced to
//!   [`DecompositionStrategy::SizeThreshold`] — time-delayed decomposition
//!   consults the wall clock, which would make task shapes differ between
//!   replays;
//! * wall-clock cancellation/deadlines are ignored; the run is bounded by
//!   [`SimConfig::max_virtual_us`] virtual microseconds instead.

use crate::app::QuasiCliqueApp;
use crate::kcore::CoreGraph;
use crate::mine::DecompositionStrategy;
use qcm_core::{
    CancelToken, MiningParams, PruneConfig, QuasiCliqueSet, QuasiCliqueSink, RunOutcome,
};
use qcm_engine::{Cluster, EngineConfig, EngineMetrics, SimCluster, SimConfig};
use qcm_graph::{Fnv1a64, Graph};
use qcm_sync::Arc;
use std::collections::BTreeSet;
use std::time::Duration;

/// Output of a parallel mining run.
#[derive(Clone, Debug)]
pub struct ParallelMiningOutput {
    /// The final maximal quasi-cliques. When a simulated run did not
    /// complete (`outcome() == Faulted`) this is a *partial* result: every
    /// set in it is still a maximal quasi-clique of the whole graph, but
    /// sets that unfinished work could have extended are withheld, and
    /// roots whose work was lost contribute nothing.
    pub maximal: QuasiCliqueSet,
    /// Number of raw (pre-post-processing) reports emitted by tasks.
    pub raw_reported: u64,
    /// Engine metrics (timing, tasks, spilling, stealing, per-task log).
    /// They describe the run over the k-core, not the input graph. A
    /// simulated run sets `virtual_time`; its wall `elapsed` measures only
    /// the simulation itself.
    pub metrics: EngineMetrics,
    /// The simulator's seeded event log (sends, drops, faults, respawns);
    /// empty for a threaded run.
    pub event_log: Vec<String>,
    /// FNV-1a hash over `event_log` — the replay-determinism witness.
    pub log_hash: u64,
    /// Vertices surviving the global k-core peel (the input's vertex count
    /// when the size-threshold rule is off); the engine mines only these.
    pub kcore_vertices: usize,
    /// Wall time of the peel and compaction. It runs before the cluster
    /// starts, so it is not part of `metrics.elapsed`: a caller timing the
    /// whole call sees it as post-processing, outside the engine.
    pub kcore_time: Duration,
}

impl ParallelMiningOutput {
    /// Wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        self.metrics.elapsed
    }

    /// Whether the run drained every task, was interrupted by
    /// cancellation/deadline, or (simulated runs only) lost work for good.
    /// An interrupted run's `maximal` holds the valid quasi-cliques found
    /// before the interruption; some may be non-maximal in the full graph
    /// (a completed run could replace them with supersets).
    pub fn outcome(&self) -> RunOutcome {
        self.metrics.outcome
    }
}

/// Parallel maximal quasi-clique miner (the paper's full system).
#[derive(Clone, Debug)]
pub struct ParallelMiner {
    /// Mining parameters (γ, τ_size).
    pub params: MiningParams,
    /// Pruning-rule configuration.
    pub prune_config: PruneConfig,
    /// Engine/cluster configuration (threads, machines, τ_split, τ_time, …).
    /// A simulated run models one mining thread per machine.
    pub engine_config: EngineConfig,
    /// Task decomposition strategy (size-threshold on the simulator).
    pub strategy: DecompositionStrategy,
    /// Runs on the deterministic fault simulator when set.
    pub sim: Option<SimConfig>,
}

impl ParallelMiner {
    /// Creates a miner with the paper's defaults: all pruning rules enabled
    /// and time-delayed task decomposition.
    pub fn new(params: MiningParams, engine_config: EngineConfig) -> Self {
        ParallelMiner {
            params,
            prune_config: PruneConfig::all_enabled(),
            engine_config,
            strategy: DecompositionStrategy::TimeDelayed,
            sim: None,
        }
    }

    /// Overrides the decomposition strategy.
    pub fn with_strategy(mut self, strategy: DecompositionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the pruning configuration.
    pub fn with_prune_config(mut self, config: PruneConfig) -> Self {
        self.prune_config = config;
        self
    }

    /// Attaches a cancellation token, polled both by the engine's worker pop
    /// loops and inside each task's backtracking, so a cancelled or
    /// deadline-hit run returns the partial results emitted so far.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.engine_config.cancel = cancel;
        self
    }

    /// Runs on the deterministic fault simulator under `sim` (seed, latency,
    /// drops, fault scenario) instead of on worker threads; see the module
    /// docs for what that changes.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Mines all maximal γ-quasi-cliques of `graph` on the cluster.
    pub fn mine(&self, graph: Arc<Graph>) -> ParallelMiningOutput {
        self.mine_impl(graph, None)
    }

    /// Like [`ParallelMiner::mine`], but forwards every raw result row to
    /// `observer` as the engine output is drained (after the cluster run —
    /// the engine funnels rows through its shared result buffer, so parallel
    /// candidate streaming is per-run, not per-report). This is the streaming
    /// seam `qcm::Session::run_streaming` builds on.
    pub fn mine_with_observer(
        &self,
        graph: Arc<Graph>,
        observer: &mut dyn QuasiCliqueSink,
    ) -> ParallelMiningOutput {
        self.mine_impl(graph, Some(observer))
    }

    fn mine_impl(
        &self,
        graph: Arc<Graph>,
        observer: Option<&mut dyn QuasiCliqueSink>,
    ) -> ParallelMiningOutput {
        let core = CoreGraph::peel(graph, &self.params, &self.prune_config);
        let mut output = ParallelMiningOutput {
            maximal: QuasiCliqueSet::new(),
            raw_reported: 0,
            metrics: EngineMetrics::default(),
            event_log: Vec::new(),
            log_hash: Fnv1a64::new().finish(),
            kcore_vertices: core.num_vertices(),
            kcore_time: core.elapsed,
        };
        if output.kcore_vertices == 0 {
            // Nothing survives the peel: the search space is empty, so the
            // run is complete without starting the cluster.
            return output;
        }
        // Size-threshold splitting is the only wall-clock-free strategy, and
        // the simulator ignores wall-clock cancellation; see the module docs.
        let (strategy, cancel) = match self.sim {
            Some(_) => (DecompositionStrategy::SizeThreshold, CancelToken::never()),
            None => (self.strategy, self.engine_config.cancel.clone()),
        };
        let app = Arc::new(
            QuasiCliqueApp::new(
                self.params,
                self.engine_config.tau_split,
                self.engine_config.tau_time,
            )
            .with_strategy(strategy)
            .with_prune_config(self.prune_config)
            .with_index(self.engine_config.index)
            .with_cancel(cancel),
        );
        let config = self.engine_config.clone();
        let graph = core.graph().clone();
        let (results, index, metrics, unfinished) = match &self.sim {
            None => {
                let run = Cluster::new(app, config).run(graph);
                (run.results, run.index, run.metrics, Vec::new())
            }
            Some(sim) => {
                let run = SimCluster::new(app, config, sim.clone()).run(graph);
                output.event_log = run.event_log;
                output.log_hash = run.log_hash;
                (run.results, run.index, run.metrics, run.unfinished_roots)
            }
        };
        output.raw_reported = metrics.results_emitted;
        output.metrics = metrics;
        output.maximal = core.collect(results, index.as_ref(), &self.params, observer);
        if !unfinished.is_empty() {
            let unfinished: BTreeSet<u32> = unfinished.iter().map(|v| v.raw()).collect();
            output.maximal.retain_sets(|members| {
                !core.unfinished_work_may_extend(members, &unfinished, &self.params)
            });
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_core::SerialMiner;

    fn figure4() -> Arc<Graph> {
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 4),
            (2, 3),
            (2, 4),
            (3, 4),
            (1, 5),
            (5, 6),
            (2, 6),
            (3, 7),
            (7, 8),
            (3, 8),
        ];
        Arc::new(Graph::from_edges(9, edges.iter().copied()).unwrap())
    }

    #[test]
    fn parallel_matches_serial_on_figure4() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4), (0.5, 4)] {
            let params = MiningParams::new(gamma, min_size);
            let serial = SerialMiner::new(params).mine(&g);
            let parallel =
                ParallelMiner::new(params, EngineConfig::single_machine(4)).mine(g.clone());
            assert_eq!(
                parallel.maximal, serial.maximal,
                "parallel/serial mismatch at gamma={gamma} min_size={min_size}"
            );
        }
    }

    #[test]
    fn decomposition_strategies_agree() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mut config = EngineConfig::single_machine(2);
        config.tau_split = 1; // force heavy decomposition
        config.tau_time = Duration::ZERO;
        let time_delayed = ParallelMiner::new(params, config.clone()).mine(g.clone());
        let size_threshold = ParallelMiner::new(params, config)
            .with_strategy(DecompositionStrategy::SizeThreshold)
            .mine(g.clone());
        let serial = SerialMiner::new(params).mine(&g);
        assert_eq!(time_delayed.maximal, serial.maximal);
        assert_eq!(size_threshold.maximal, serial.maximal);
        assert!(time_delayed.elapsed() > Duration::ZERO);
    }

    #[test]
    fn pre_cancelled_run_is_labelled_and_partial() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let token = CancelToken::new();
        token.cancel();
        let out = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .with_cancel(token)
            .mine(g.clone());
        assert_eq!(out.outcome(), RunOutcome::Cancelled);
        assert!(out.maximal.is_empty(), "workers must drain before popping");
    }

    #[test]
    fn zero_deadline_run_is_labelled_deadline_exceeded() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let token = CancelToken::never().with_deadline(Some(Duration::ZERO));
        let out = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .with_cancel(token)
            .mine(g.clone());
        assert_eq!(out.outcome(), RunOutcome::DeadlineExceeded);
        // A zero deadline stops workers before any task is popped, so the
        // partial set is deterministically empty.
        assert!(out.maximal.is_empty());
        let full = ParallelMiner::new(params, EngineConfig::single_machine(2)).mine(g.clone());
        assert_eq!(full.outcome(), RunOutcome::Complete);
    }

    #[test]
    fn observer_sees_every_raw_result_row() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mut observed: Vec<Vec<qcm_graph::VertexId>> = Vec::new();
        let out = ParallelMiner::new(params, EngineConfig::single_machine(2))
            .mine_with_observer(g.clone(), &mut observed);
        assert_eq!(observed.len() as u64, out.raw_reported);
        for r in out.maximal.iter() {
            assert!(observed.iter().any(|c| c == r));
        }
    }

    #[test]
    fn multi_machine_matches_single_machine() {
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let single = ParallelMiner::new(params, EngineConfig::single_machine(2)).mine(g.clone());
        let multi = ParallelMiner::new(params, EngineConfig::cluster(3, 2)).mine(g.clone());
        assert_eq!(single.maximal, multi.maximal);
        assert!(multi.raw_reported >= multi.maximal.len() as u64);
    }

    #[test]
    fn fault_free_sim_matches_serial() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4)] {
            let params = MiningParams::new(gamma, min_size);
            let serial = SerialMiner::new(params).mine(&g);
            let sim = ParallelMiner::new(params, EngineConfig::cluster(3, 1))
                .with_sim(SimConfig::new(17))
                .mine(g.clone());
            assert_eq!(sim.outcome(), RunOutcome::Complete);
            assert_eq!(
                sim.maximal, serial.maximal,
                "sim/serial mismatch at gamma={gamma} min_size={min_size}"
            );
        }
    }

    #[test]
    fn mining_replays_byte_identically() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let mk = || {
            ParallelMiner::new(params, EngineConfig::cluster(4, 1))
                .with_sim(SimConfig::crash_scenario(99, 2, 2_000, Some(25_000)))
                .mine(g.clone())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.log_hash, b.log_hash);
        assert_eq!(a.event_log, b.event_log);
        assert_eq!(a.maximal, b.maximal);
        assert_eq!(a.outcome(), b.outcome());
    }

    #[test]
    fn crash_with_restart_still_matches_serial() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let serial = SerialMiner::new(params).mine(&g);
        let sim = ParallelMiner::new(params, EngineConfig::cluster(3, 1))
            .with_sim(SimConfig::crash_scenario(5, 1, 1_000, Some(30_000)))
            .mine(g.clone());
        assert_eq!(sim.outcome(), RunOutcome::Complete);
        assert_eq!(sim.maximal, serial.maximal);
    }

    #[test]
    fn results_are_valid_even_under_faults() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let sim = ParallelMiner::new(params, EngineConfig::cluster(3, 1))
            .with_sim(SimConfig::crash_scenario(7, 1, 1_000, None))
            .mine(g.clone());
        // Completion is not guaranteed, but every surviving answer must be a
        // valid quasi-clique (partial-result contract).
        let serial = SerialMiner::new(params).mine(&g);
        for members in sim.maximal.iter() {
            assert!(serial.maximal.iter().any(|s| s == members));
        }
    }
}
