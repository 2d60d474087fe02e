//! Determinism and schedule-independence of the parallel miner, driven
//! through the unified `Session` front door.
//!
//! The paper's system runs the same algorithm under wildly different
//! schedules (1–512 threads, 2–16 machines, different τ_split/τ_time). These
//! tests assert that the *result set* is a pure function of (graph, γ,
//! τ_size): every cluster shape and every hyperparameter setting must return
//! exactly what the serial reference returns.

use qcm::prelude::*;
use qcm_sync::Arc;
use std::time::Duration;

fn planted_graph(seed: u64) -> (Arc<Graph>, SessionBuilder) {
    let spec = PlantedGraphSpec {
        num_vertices: 300,
        background_avg_degree: 5.0,
        background_beta: 2.5,
        background_max_degree: 40.0,
        community_sizes: vec![9, 8, 7],
        community_density: 0.95,
        seed,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), Session::builder().gamma(0.8).min_size(7))
}

#[test]
fn thread_count_does_not_change_results() {
    let (graph, base) = planted_graph(1);
    let reference = base.clone().build().unwrap().run(&graph).unwrap();
    assert!(!reference.maximal.is_empty());
    for threads in [1, 2, 4, 8] {
        let parallel = base
            .clone()
            .backend(Backend::parallel(threads, 1))
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(
            parallel.maximal, reference.maximal,
            "result set changed with {threads} threads"
        );
    }
}

#[test]
fn machine_count_does_not_change_results() {
    let (graph, base) = planted_graph(2);
    let reference = base.clone().build().unwrap().run(&graph).unwrap();
    for machines in [1, 2, 4] {
        let parallel = base
            .clone()
            .backend(Backend::parallel(2, machines))
            .balance_period(Duration::from_millis(2))
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(
            parallel.maximal, reference.maximal,
            "result set changed with {machines} machines"
        );
    }
}

#[test]
fn hyperparameters_do_not_change_results() {
    let (graph, base) = planted_graph(3);
    let reference = base.clone().build().unwrap().run(&graph).unwrap();
    for tau_split in [1usize, 10, 1000] {
        for tau_time_ms in [0u64, 1, 1000] {
            let parallel = base
                .clone()
                .backend(Backend::parallel(4, 1))
                .tau_split(tau_split)
                .tau_time(Duration::from_millis(tau_time_ms))
                .build()
                .unwrap()
                .run(&graph)
                .unwrap();
            assert_eq!(
                parallel.maximal, reference.maximal,
                "result set changed at tau_split={tau_split}, tau_time={tau_time_ms}ms"
            );
        }
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let (graph, base) = planted_graph(4);
    let session = base.backend(Backend::parallel(4, 1)).build().unwrap();
    let first = session.run(&graph).unwrap();
    for _ in 0..3 {
        let again = session.run(&graph).unwrap();
        assert_eq!(first.maximal, again.maximal);
    }
}

#[test]
fn engine_metrics_are_consistent_with_results() {
    let (graph, base) = planted_graph(5);
    let out = base
        .backend(Backend::parallel(4, 1))
        .build()
        .unwrap()
        .run(&graph)
        .unwrap();
    let metrics = out.engine_metrics().expect("parallel backend");
    assert!(out.raw_reported >= out.maximal.len() as u64);
    assert_eq!(metrics.results_emitted, out.raw_reported);
    assert!(metrics.tasks_processed >= metrics.tasks_spawned);
    assert_eq!(metrics.task_times.len() as u64, metrics.tasks_processed);
    assert!(metrics.worker_busy.len() == 4);
    assert!(out.is_complete());
}

#[test]
fn streaming_and_plain_runs_agree_across_backends() {
    let (graph, base) = planted_graph(6);
    for backend in [Backend::Serial, Backend::parallel(4, 1)] {
        let session = base.clone().backend(backend.clone()).build().unwrap();
        let plain = session.run(&graph).unwrap();
        let mut sink = CollectingSink::default();
        let streamed = session.run_streaming(&graph, &mut sink).unwrap();
        assert_eq!(plain.maximal, streamed.maximal, "{backend:?}");
        assert_eq!(sink.candidates, streamed.raw_reported, "{backend:?}");
        assert_eq!(sink.maximal.len(), streamed.maximal.len(), "{backend:?}");
    }
}

/// A planted dense core inside a large sparse periphery: the global 7-core
/// peel removes almost all of the periphery before the engine starts.
fn core_in_periphery() -> (Arc<Graph>, SessionBuilder) {
    let spec = PlantedGraphSpec {
        num_vertices: 3_000,
        background_avg_degree: 3.0,
        background_beta: 2.5,
        background_max_degree: 30.0,
        community_sizes: vec![12, 10, 9],
        community_density: 0.95,
        seed: 21,
    };
    let (graph, _) = qcm::gen::plant_quasi_cliques(&spec);
    (Arc::new(graph), Session::builder().gamma(0.8).min_size(9))
}

/// Every parallel backend shape the k-core peel runs in front of.
fn parallel_backends() -> Vec<Backend> {
    let shape = |transport| Backend::Parallel {
        threads: 2,
        machines: 2,
        transport,
    };
    vec![
        shape(TransportKind::InProc),
        shape(TransportKind::InProcStrict),
        shape(TransportKind::Sim(SimConfig::new(5))),
    ]
}

/// Collects the raw (pre-maximality) candidates a streaming run reports.
#[derive(Default)]
struct RawCandidates(QuasiCliqueSet);

impl ResultSink for RawCandidates {
    fn on_candidate(&mut self, members: &[VertexId]) {
        self.0.insert(members.to_vec());
    }

    fn on_maximal(&mut self, _members: &[VertexId]) {}
}

#[test]
fn kcore_shrink_keeps_serial_parallel_and_sim_identical() {
    let (graph, base) = core_in_periphery();
    let serial = base.clone().build().unwrap().run(&graph).unwrap();
    assert!(!serial.maximal.is_empty(), "planted communities must exist");
    let kept = serial.kcore_vertices();
    assert!(
        kept < graph.num_vertices() / 10,
        "the periphery must peel away ({kept} of {} kept)",
        graph.num_vertices()
    );
    for backend in parallel_backends() {
        let session = base.clone().backend(backend.clone()).build().unwrap();
        let report = session.run(&graph).unwrap();
        assert!(report.is_complete(), "{backend:?}");
        assert_eq!(report.maximal, serial.maximal, "{backend:?}");
        assert_eq!(report.kcore_vertices(), kept, "{backend:?}");
        assert!(report.kcore_time().is_some(), "{backend:?}");
        let metrics = report.engine_metrics().expect("parallel backend");
        assert!(
            metrics.tasks_spawned as usize <= kept,
            "{backend:?}: {} tasks from {kept} core vertices",
            metrics.tasks_spawned
        );
    }
}

#[test]
fn streamed_candidates_carry_original_ids() {
    let (graph, base) = core_in_periphery();
    for backend in parallel_backends() {
        let session = base.clone().backend(backend.clone()).build().unwrap();
        let prepared = session.prepare(graph.clone());
        let mut streamed = RawCandidates::default();
        let report = session
            .run_prepared_streaming(&prepared, &mut streamed)
            .unwrap();
        assert!(report.kcore_vertices() < graph.num_vertices());
        assert!(!report.maximal.is_empty());
        assert_eq!(
            qcm::core::remove_non_maximal(streamed.0),
            report.maximal,
            "{backend:?}"
        );
    }
}

#[test]
fn empty_core_completes_without_spawning_a_task() {
    // A path has no 2-core, let alone the 8-core γ = 0.8, τ_size = 11 needs.
    let edges: Vec<(u32, u32)> = (0..999).map(|v| (v, v + 1)).collect();
    let graph = Arc::new(Graph::from_edges(1_000, edges).unwrap());
    for backend in parallel_backends() {
        let report = Session::builder()
            .gamma(0.8)
            .min_size(11)
            .backend(backend.clone())
            .build()
            .unwrap()
            .run(&graph)
            .unwrap();
        assert_eq!(report.outcome, RunOutcome::Complete, "{backend:?}");
        assert!(report.maximal.is_empty(), "{backend:?}");
        assert_eq!(report.kcore_vertices(), 0, "{backend:?}");
        let metrics = report.engine_metrics().expect("parallel backend");
        assert_eq!(metrics.tasks_spawned, 0, "{backend:?}");
        assert_eq!(metrics.tasks_processed, 0, "{backend:?}");
    }
}

#[test]
fn whole_graph_core_mines_the_prepared_graph_and_its_index() {
    // K_12: every vertex survives the 9-core γ = 0.8, τ_size = 12 needs.
    let mut edges = Vec::new();
    for u in 0..12u32 {
        for v in (u + 1)..12 {
            edges.push((u, v));
        }
    }
    let graph = Arc::new(Graph::from_edges(12, edges).unwrap());
    let base = Session::builder().gamma(0.8).min_size(12);
    let serial = base.clone().build().unwrap().run(&graph).unwrap();
    assert_eq!(serial.maximal.len(), 1);
    for backend in parallel_backends() {
        let session = base.clone().backend(backend.clone()).build().unwrap();
        let prepared = session.prepare(graph.clone());
        let report = session.run_prepared(&prepared).unwrap();
        assert_eq!(report.maximal, serial.maximal, "{backend:?}");
        assert_eq!(report.kcore_vertices(), graph.num_vertices());
        let metrics = report.engine_metrics().expect("parallel backend");
        assert!(
            metrics.shared_index_reused,
            "{backend:?}: an unpeeled graph must keep the prepared index"
        );
    }
    // A peeled graph is a new graph, so the engine indexes the core.
    let (peeled, base) = core_in_periphery();
    let session = base.backend(Backend::parallel(2, 2)).build().unwrap();
    let report = session.run_prepared(&session.prepare(peeled)).unwrap();
    assert!(!report.engine_metrics().unwrap().shared_index_reused);
}
