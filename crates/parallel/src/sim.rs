//! Deterministic fault-simulated quasi-clique mining.
//!
//! [`SimMiner`] is the fault-testing wrapper next to
//! [`crate::ParallelMiner`]: the same global k-core peel, the same
//! [`QuasiCliqueApp`] and the same maximality/validity post-processing, but
//! executed on [`qcm_engine::SimCluster`] — the seeded discrete-event
//! simulator, which drives the live engine's scheduler in virtual time —
//! instead of on worker threads. One seed plus one fault
//! scenario replays byte-identically, so crash, straggler and partition
//! behaviour is testable in CI without flaky timing.
//!
//! Determinism requires two deviations from the live miner's defaults, both
//! applied automatically:
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
use qcm_core::{MiningParams, PruneConfig, QuasiCliqueSet, QuasiCliqueSink, RunOutcome};
use qcm_engine::{EngineConfig, EngineMetrics, SimCluster, SimConfig};
use qcm_graph::{Fnv1a64, Graph, VertexId};
use qcm_sync::Arc;
use std::collections::BTreeSet;
use std::time::Duration;

/// Output of a simulated mining run.
#[derive(Clone, Debug)]
pub struct SimMiningOutput {
    /// The final maximal quasi-cliques. When the scenario did not permit
    /// completion (`outcome != Complete`) this is a *partial* result: every
    /// set in it is still a maximal quasi-clique of the whole graph, but
    /// sets that unfinished work could have extended are withheld, and
    /// roots whose work was lost contribute nothing.
    pub maximal: QuasiCliqueSet,
    /// Number of raw (pre-post-processing) reports emitted by tasks.
    pub raw_reported: u64,
    /// Engine metrics; `virtual_time` is set, wall `elapsed` measures only
    /// the simulation itself (excluded from the bench wall-time gate).
    pub metrics: EngineMetrics,
    /// Whether the simulated cluster drained every task
    /// ([`RunOutcome::Complete`]) or lost work permanently
    /// ([`RunOutcome::Faulted`]).
    pub outcome: RunOutcome,
    /// The seeded event log (sends, drops, faults, respawns).
    pub event_log: Vec<String>,
    /// FNV-1a hash over the event log — the replay-determinism witness.
    pub log_hash: u64,
    /// Virtual duration of the run.
    pub virtual_time: Duration,
    /// Vertices surviving the global k-core peel (see
    /// [`crate::ParallelMiningOutput::kcore_vertices`]).
    pub kcore_vertices: usize,
    /// Wall time of the peel and compaction, outside `metrics.elapsed`.
    pub kcore_time: Duration,
}

/// Parallel maximal quasi-clique miner on the deterministic fault simulator.
#[derive(Clone, Debug)]
pub struct SimMiner {
    /// Mining parameters (γ, τ_size).
    pub params: MiningParams,
    /// Pruning-rule configuration.
    pub prune_config: PruneConfig,
    /// Engine configuration (machines, τ_split, batch size, queue
    /// capacities, pull timeout/retries, balance period, …). Thread counts
    /// are not modelled — each machine runs one mining thread, which takes
    /// one worker step per virtual wake.
    pub engine_config: EngineConfig,
    /// Simulator configuration (seed, latency, drops, fault scenario).
    pub sim_config: SimConfig,
}

impl SimMiner {
    /// Creates a simulated miner with the paper's pruning defaults.
    pub fn new(params: MiningParams, engine_config: EngineConfig, sim_config: SimConfig) -> Self {
        SimMiner {
            params,
            prune_config: PruneConfig::all_enabled(),
            engine_config,
            sim_config,
        }
    }

    /// Overrides the pruning configuration.
    pub fn with_prune_config(mut self, config: PruneConfig) -> Self {
        self.prune_config = config;
        self
    }

    /// Mines `graph` in virtual time under the configured fault scenario,
    /// after the same global k-core peel as the live miner.
    pub fn mine(&self, graph: Arc<Graph>) -> SimMiningOutput {
        self.mine_impl(graph, None)
    }

    /// Like [`SimMiner::mine`], but forwards every raw result row to
    /// `observer` once the simulation has drained, as
    /// [`crate::ParallelMiner::mine_with_observer`] does.
    pub fn mine_with_observer(
        &self,
        graph: Arc<Graph>,
        observer: &mut dyn QuasiCliqueSink,
    ) -> SimMiningOutput {
        self.mine_impl(graph, Some(observer))
    }

    fn mine_impl(
        &self,
        graph: Arc<Graph>,
        observer: Option<&mut dyn QuasiCliqueSink>,
    ) -> SimMiningOutput {
        let core = CoreGraph::peel(graph, &self.params, &self.prune_config);
        let kcore_vertices = core.num_vertices();
        if kcore_vertices == 0 {
            return SimMiningOutput {
                maximal: QuasiCliqueSet::new(),
                raw_reported: 0,
                metrics: EngineMetrics::default(),
                outcome: RunOutcome::Complete,
                event_log: Vec::new(),
                log_hash: Fnv1a64::new().finish(),
                virtual_time: Duration::ZERO,
                kcore_vertices,
                kcore_time: core.elapsed,
            };
        }
        let app = Arc::new(
            QuasiCliqueApp::new(
                self.params,
                self.engine_config.tau_split,
                self.engine_config.tau_time,
            )
            // Size-threshold splitting is the only wall-clock-free strategy;
            // see the module docs.
            .with_strategy(DecompositionStrategy::SizeThreshold)
            .with_prune_config(self.prune_config)
            .with_index(self.engine_config.index),
        );
        let cluster = SimCluster::new(app, self.engine_config.clone(), self.sim_config.clone());
        let output = cluster.run(core.graph().clone());
        let raw_reported = output.metrics.results_emitted;
        let mut maximal = core.collect(
            output.results,
            output.index.as_ref(),
            &self.params,
            observer,
        );
        if !output.unfinished_roots.is_empty() {
            let unfinished: BTreeSet<u32> =
                output.unfinished_roots.iter().map(|v| v.raw()).collect();
            maximal.retain_sets(|members| {
                !unfinished_work_may_extend(&core, members, &unfinished, &self.params)
            });
        }
        SimMiningOutput {
            maximal,
            raw_reported,
            outcome: output.outcome,
            virtual_time: Duration::from_micros(output.virtual_us),
            event_log: output.event_log,
            log_hash: output.log_hash,
            metrics: output.metrics,
            kcore_vertices,
            kcore_time: core.elapsed,
        }
    }
}

/// Whether work that never finished could have found a strict superset of
/// `members`, a set some finished root reported. `unfinished` holds mined
/// ids.
///
/// A root's tasks explore exactly the sets whose smallest vertex is that
/// root. A superset with the same smallest vertex is reported by the same
/// root, so a finished root's superset has already removed `members` as
/// non-maximal. Any other superset `M` has a smaller least vertex `r`, and
/// only an unfinished `r` can have missed it. For γ ≥ 0.5, `G(M)` has
/// diameter ≤ 2 (Theorem 1 of Pei et al., rule P1), so `r` lies within two
/// hops of every member; for smaller γ any unfinished smaller root may do.
fn unfinished_work_may_extend(
    core: &CoreGraph,
    members: &[VertexId],
    unfinished: &BTreeSet<u32>,
    params: &MiningParams,
) -> bool {
    let root = core.mined_id(members[0]);
    if unfinished.contains(&root) {
        // The reporting root itself lost work: its larger sets may be gone.
        return true;
    }
    if !params.gamma.diameter_two_applies() {
        return unfinished.range(..root).next().is_some();
    }
    let graph = core.graph();
    let smaller_unfinished = |w: &VertexId| w.raw() < root && unfinished.contains(&w.raw());
    graph
        .neighbors(VertexId::new(root))
        .iter()
        .any(|w| smaller_unfinished(w) || graph.neighbors(*w).iter().any(smaller_unfinished))
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
    fn fault_free_sim_matches_serial() {
        let g = figure4();
        for (gamma, min_size) in [(0.6, 5), (0.9, 4)] {
            let params = MiningParams::new(gamma, min_size);
            let serial = SerialMiner::new(params).mine(&g);
            let sim = SimMiner::new(params, EngineConfig::cluster(3, 1), SimConfig::new(17))
                .mine(g.clone());
            assert_eq!(sim.outcome, RunOutcome::Complete);
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
            SimMiner::new(
                params,
                EngineConfig::cluster(4, 1),
                SimConfig::crash_scenario(99, 2, 2_000, Some(25_000)),
            )
            .mine(g.clone())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.log_hash, b.log_hash);
        assert_eq!(a.event_log, b.event_log);
        assert_eq!(a.maximal, b.maximal);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn crash_with_restart_still_matches_serial() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let serial = SerialMiner::new(params).mine(&g);
        let sim = SimMiner::new(
            params,
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(5, 1, 1_000, Some(30_000)),
        )
        .mine(g.clone());
        assert_eq!(sim.outcome, RunOutcome::Complete);
        assert_eq!(sim.maximal, serial.maximal);
    }

    #[test]
    fn results_are_valid_even_under_faults() {
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let sim = SimMiner::new(
            params,
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(7, 1, 1_000, None),
        )
        .mine(g.clone());
        // Completion is not guaranteed, but every surviving answer must be a
        // valid quasi-clique (partial-result contract).
        let serial = SerialMiner::new(params).mine(&g);
        for members in sim.maximal.iter() {
            assert!(serial.maximal.iter().any(|s| s == members));
        }
    }
}
