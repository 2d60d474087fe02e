//! The global k-core shrink the parallel front end runs before the engine
//! spawns a single task, on threads or on the fault simulator.
//!
//! The size-threshold rule (P2, Theorem 2) says no vertex of degree
//! `< k = ⌈γ(τ_size − 1)⌉` can be in a result. [`qcm_core::SerialMiner`]
//! peels the whole graph to its k-core once (Batagelj–Zaversnik); without
//! the same step the engine spawns a task for every vertex of raw degree
//! `≥ k`, and each such task pulls its neighbours only to die in iteration 1
//! or 2. [`CoreGraph::peel`] runs that peel before the cluster starts and
//! hands the engine the compacted core instead.
//!
//! The peel is centralised: it is valid because the in-process cluster
//! loads one shared graph. The compaction keeps the original id order, so
//! "larger-id neighbour" semantics, task roots and the result set are
//! unchanged. [`CoreGraph::collect`] maps the engine's rows back to
//! original ids at the one point where they leave the engine, before the
//! streaming observer and the result set see them.

use qcm_core::quasiclique::is_valid_quasi_clique_over;
use qcm_core::{remove_non_maximal, MiningParams, PruneConfig, QuasiCliqueSet, QuasiCliqueSink};
use qcm_graph::kcore::k_core_vertices;
use qcm_graph::subgraph::induced_subgraph;
use qcm_graph::{Graph, NeighborhoodIndex, Neighborhoods, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::Arc;
use std::collections::BTreeSet;
use std::time::Duration;

/// The graph a parallel run mines: the input shrunk to its global k-core.
pub(crate) struct CoreGraph {
    /// The graph handed to the engine. When nothing was peeled this is the
    /// caller's own `Arc`, so a shared index prepared for it stays in use.
    graph: Arc<Graph>,
    /// `mapping[i]` is the original id of mined vertex `i` (increasing);
    /// `None` when the engine mines the input itself.
    mapping: Option<Vec<VertexId>>,
    /// Wall time of the peel, compaction included.
    pub(crate) elapsed: Duration,
}

impl CoreGraph {
    /// Peels `graph` to its k-core for `params` when the size-threshold rule
    /// is enabled in `config`; otherwise passes the graph through.
    pub(crate) fn peel(graph: Arc<Graph>, params: &MiningParams, config: &PruneConfig) -> Self {
        let start = Instant::now();
        let mut mapping = None;
        let mut mined = graph;
        if config.size_threshold {
            let survivors = k_core_vertices(&mined, params.kcore_threshold());
            if survivors.len() < mined.num_vertices() {
                let (core, ids) = induced_subgraph(&mined, &survivors);
                mined = Arc::new(core);
                mapping = Some(ids);
            }
        }
        CoreGraph {
            graph: mined,
            mapping,
            elapsed: start.elapsed(),
        }
    }

    /// The graph the engine mines.
    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Vertices surviving the peel.
    pub(crate) fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The post-processing of every parallel run. Maps every raw engine row
    /// back to original ids and forwards it to `observer`, keeps the maximal
    /// sets, then re-checks each against `index`, the index of the graph the
    /// engine actually mined. The distributed search assembled these sets
    /// from task-local subgraphs; a validation failure means an engine bug,
    /// and dropping the set beats publishing — or cache-poisoning, at the
    /// service layer — a wrong answer.
    pub(crate) fn collect(
        &self,
        rows: Vec<Vec<VertexId>>,
        index: Option<&Arc<NeighborhoodIndex>>,
        params: &MiningParams,
        mut observer: Option<&mut dyn QuasiCliqueSink>,
    ) -> QuasiCliqueSet {
        let mut set = QuasiCliqueSet::new();
        for mut members in rows {
            if let Some(mapping) = &self.mapping {
                for v in &mut members {
                    *v = mapping[v.index()];
                }
            }
            if let Some(observer) = observer.as_deref_mut() {
                observer.report(members.clone());
            }
            set.insert(members);
        }
        let mut maximal = remove_non_maximal(set);
        if let Some(index) = index {
            let nbhd: &dyn Neighborhoods = index.as_ref();
            maximal.retain_sets(|members| {
                let mined: Vec<u32> = members.iter().map(|&v| self.mined_id(v)).collect();
                let valid = is_valid_quasi_clique_over(nbhd, &mined, params);
                debug_assert!(valid, "engine emitted an invalid result {members:?}");
                valid
            });
        }
        maximal
    }

    /// Whether work that never finished could have found a strict superset
    /// of `members`, a set some finished root reported. `unfinished` holds
    /// mined ids.
    ///
    /// A root's tasks explore exactly the sets whose smallest vertex is that
    /// root. A superset with the same smallest vertex is reported by the same
    /// root, so a finished root's superset has already removed `members` as
    /// non-maximal. Any other superset `M` has a smaller least vertex `r`,
    /// and only an unfinished `r` can have missed it. For γ ≥ 0.5, `G(M)` has
    /// diameter ≤ 2 (Theorem 1 of Pei et al., rule P1), so `r` lies within
    /// two hops of every member; for smaller γ any unfinished smaller root
    /// may do.
    pub(crate) fn unfinished_work_may_extend(
        &self,
        members: &[VertexId],
        unfinished: &BTreeSet<u32>,
        params: &MiningParams,
    ) -> bool {
        let root = self.mined_id(members[0]);
        if unfinished.contains(&root) {
            // The reporting root itself lost work: its larger sets may be gone.
            return true;
        }
        if !params.gamma.diameter_two_applies() {
            return unfinished.range(..root).next().is_some();
        }
        let smaller_unfinished = |w: &VertexId| w.raw() < root && unfinished.contains(&w.raw());
        self.graph.neighbors(VertexId::new(root)).iter().any(|w| {
            smaller_unfinished(w) || self.graph.neighbors(*w).iter().any(smaller_unfinished)
        })
    }

    /// The mined-graph id of original vertex `v`, which must be in the core.
    pub(crate) fn mined_id(&self, v: VertexId) -> u32 {
        match &self.mapping {
            None => v.raw(),
            Some(mapping) => mapping
                .binary_search(&v)
                .expect("result members lie in the k-core") as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-clique {3..=7} with a pendant path 0–1–2–3 and an isolated 8.
    fn clique_with_tail() -> Arc<Graph> {
        let mut edges = vec![(0, 1), (1, 2), (2, 3)];
        for u in 3..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        Arc::new(Graph::from_edges(9, edges).unwrap())
    }

    #[test]
    fn peel_compacts_in_id_order_and_maps_rows_back() {
        let g = clique_with_tail();
        let params = MiningParams::new(0.9, 5);
        let core = CoreGraph::peel(g.clone(), &params, &PruneConfig::all_enabled());
        assert_eq!(core.num_vertices(), 5);
        assert!(!Arc::ptr_eq(core.graph(), &g));
        let row: Vec<VertexId> = (0..5u32).map(VertexId::new).collect();
        let mut seen: Vec<Vec<VertexId>> = Vec::new();
        let index = Arc::new(NeighborhoodIndex::build(
            core.graph().clone(),
            qcm_graph::IndexSpec::Auto,
        ));
        let maximal = core.collect(vec![row], Some(&index), &params, Some(&mut seen));
        let original: Vec<VertexId> = (3..8u32).map(VertexId::new).collect();
        assert_eq!(seen, vec![original.clone()]);
        assert_eq!(maximal.iter().cloned().collect::<Vec<_>>(), vec![original]);
    }

    #[test]
    fn whole_core_and_disabled_rule_pass_the_input_through() {
        let g = clique_with_tail();
        let loose = MiningParams::new(0.5, 2); // k = 1: only vertex 8 peels
        let off = PruneConfig {
            size_threshold: false,
            ..PruneConfig::all_enabled()
        };
        let core = CoreGraph::peel(g.clone(), &loose, &off);
        assert!(Arc::ptr_eq(core.graph(), &g));
        let connected = Arc::new(Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap());
        let core = CoreGraph::peel(connected.clone(), &loose, &PruneConfig::all_enabled());
        assert!(Arc::ptr_eq(core.graph(), &connected));
    }

    #[test]
    fn too_sparse_graph_peels_to_nothing() {
        let g = clique_with_tail();
        let core = CoreGraph::peel(g, &MiningParams::new(0.9, 7), &PruneConfig::all_enabled());
        assert_eq!(core.num_vertices(), 0);
    }
}
