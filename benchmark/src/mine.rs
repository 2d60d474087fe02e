//! The batch-mining workloads, `mine_hardcore` and `mine_sparse`.
//!
//! One job is what `qcm mine <file>` does: read and parse the edge list,
//! hash it, build the neighbourhood index (`Session::prepare`) and run the
//! parallel engine (`Session::run_prepared`). Every job's answer is compared
//! with the serial miner's answer, computed once per seed before timing.

use crate::counters::{kernel_counters, KernelCounters};
use crate::report::{self, median, median_s, quantile, ratio, Report};
use crate::{inputs, Options, Workload};
use qcm::prelude::*;
use qcm_core::remove_non_maximal;
use qcm_graph::{io, Graph, VertexId};
use qcm_obs::self_time_by_kind;
use qcm_sync::Arc;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs every run measures, however short its budget.
const MIN_JOBS: usize = 3;

/// Span kinds recorded on engine worker threads: their self times are the
/// worker time the trace attributes to a layer.
const WORKER_SPANS: [&str; 6] = ["task", "mine_phase", "decompose", "steal", "pull", "spill"];

/// Span buffer per thread for traced jobs: `mine_sparse` records about
/// 70k spans per worker, above the recorder's default of 64Ki.
const SPANS_PER_THREAD: usize = 1 << 18;

/// Mining parameters and engine shape of a workload.
struct Shape {
    gamma: f64,
    min_size: usize,
    tau_split: usize,
    tau_time: Duration,
    threads: usize,
    machines: usize,
}

impl Shape {
    fn of(workload: Workload) -> Shape {
        match workload {
            // YouTube's Table 2 parameters on the `qcm mine` default shape.
            Workload::MineHardcore => Shape {
                gamma: 0.9,
                min_size: 12,
                tau_split: 100,
                tau_time: Duration::from_millis(1),
                threads: 2,
                machines: 1,
            },
            // DBLP's parameters on two simulated machines, so vertex pulls
            // cross the transport.
            Workload::MineSparse => Shape {
                gamma: 0.8,
                min_size: 14,
                tau_split: 100,
                tau_time: Duration::from_millis(10),
                threads: 1,
                machines: 2,
            },
            Workload::ServeMixed => unreachable!("serve_mixed is not a batch workload"),
        }
    }

    fn session(&self, tracing: Option<TraceConfig>) -> Session {
        let mut builder = Session::builder()
            .gamma(self.gamma)
            .min_size(self.min_size)
            .backend(Backend::parallel(self.threads, self.machines))
            .tau_split(self.tau_split)
            .tau_time(self.tau_time);
        if let Some(config) = tracing {
            builder = builder.tracing(config);
        }
        builder
            .build()
            .expect("benchmark session parameters are valid")
    }

    fn workers(&self) -> usize {
        self.threads * self.machines
    }
}

/// One job's input file and the answer it must produce.
struct JobInput {
    path: PathBuf,
    file_bytes: u64,
    reference: QuasiCliqueSet,
}

/// The inputs of a run. `mine_hardcore` writes a fresh seeded relabelling
/// of the YouTube stand-in for every job, so a run's medians cover many
/// search orders rather than the luck of one; `mine_sparse` mines one
/// seeded graph throughout.
struct Inputs {
    seed: u64,
    path: PathBuf,
    /// The graph relabelled per job (`mine_hardcore` only).
    base: Option<Graph>,
    /// The serial miner's answer on the generated graph.
    reference: QuasiCliqueSet,
    file_bytes: u64,
    /// Jobs handed out so far.
    jobs: u64,
}

impl Inputs {
    fn generate(options: &Options, shape: &Shape) -> Inputs {
        let graph = match options.workload {
            Workload::MineHardcore => inputs::hardcore_graph(options.scale),
            _ => inputs::sparse_graph(options.seed, options.scale),
        };
        let answer = SerialMiner::new(MiningParams::new(shape.gamma, shape.min_size)).mine(&graph);
        assert!(
            answer.outcome.is_complete(),
            "the serial reference run must complete"
        );
        let path = options.data_dir.join("graph.txt");
        let (base, file_bytes) = match options.workload {
            Workload::MineHardcore => (Some(graph), 0),
            _ => {
                let bytes = inputs::write_graph(&graph, &path);
                (None, bytes)
            }
        };
        Inputs {
            seed: options.seed,
            path,
            base,
            reference: answer.maximal,
            file_bytes,
            jobs: 0,
        }
    }

    /// The next job's input (written before the job is timed).
    fn next(&mut self) -> JobInput {
        self.jobs += 1;
        let Some(base) = &self.base else {
            return JobInput {
                path: self.path.clone(),
                file_bytes: self.file_bytes,
                reference: self.reference.clone(),
            };
        };
        let (graph, perm) = inputs::relabel(base, self.seed, self.jobs);
        let file_bytes = inputs::write_graph(&graph, &self.path);
        let mut reference = QuasiCliqueSet::new();
        for members in self.reference.iter() {
            reference.insert(
                members
                    .iter()
                    .map(|v| VertexId::new(perm[v.raw() as usize]))
                    .collect(),
            );
        }
        JobInput {
            path: self.path.clone(),
            file_bytes,
            reference,
        }
    }
}

/// Runs a batch-mining workload.
pub fn run(options: &Options) -> Report {
    let shape = Shape::of(options.workload);
    let mut inputs = Inputs::generate(options, &shape);
    if options.trace {
        traced(options, &shape, &mut inputs)
    } else {
        untraced(options, &shape, &mut inputs)
    }
}

/// Wall times of one job's steps.
struct JobTimes {
    parse: Duration,
    hash: Duration,
    index: Duration,
    mine: Duration,
}

impl JobTimes {
    fn setup(&self) -> Duration {
        self.parse + self.hash + self.index
    }
}

/// File bytes → parse → content hash → `Session::prepare`.
fn load(session: &Session, path: &Path) -> (PreparedGraph, JobTimes) {
    let start = Instant::now();
    let graph = io::read_auto_file(path).expect("the generated graph file loads");
    let parsed = Instant::now();
    std::hint::black_box(graph.content_hash());
    let hashed = Instant::now();
    let prepared = session.prepare(Arc::new(graph));
    let indexed = Instant::now();
    let times = JobTimes {
        parse: parsed - start,
        hash: hashed - parsed,
        index: indexed - hashed,
        mine: Duration::ZERO,
    };
    (prepared, times)
}

fn verified(run: &MiningReport, reference: &QuasiCliqueSet) -> bool {
    run.is_complete() && run.maximal == *reference
}

/// Runs untraced jobs until their summed time reaches `budget`; returns
/// their times, each job's peak RSS in MiB and the summed time, counting
/// each job (and each wrong answer) in `report`.
fn measure(
    shape: &Shape,
    inputs: &mut Inputs,
    budget: Duration,
    report: &mut Report,
) -> (Vec<JobTimes>, Vec<f64>, Duration) {
    let session = shape.session(None);
    // One untimed job first: the first job in a process also pays for heap
    // growth and page faults, which would otherwise set the tail.
    let input = inputs.next();
    let (prepared, _) = load(&session, &input.path);
    let run = session.run_prepared(&prepared);
    report.count(run.is_ok_and(|run| verified(&run, &input.reference)));
    drop(prepared);
    let mut jobs = Vec::new();
    let mut peaks = Vec::new();
    let mut busy = Duration::ZERO;
    while jobs.len() < MIN_JOBS || busy < budget {
        let input = inputs.next();
        report::release_free_heap();
        report::reset_peak_rss();
        let start = Instant::now();
        let (prepared, mut times) = load(&session, &input.path);
        let mining = Instant::now();
        let run = session.run_prepared(&prepared);
        times.mine = mining.elapsed();
        busy += start.elapsed();
        peaks.push(report::peak_rss_mib());
        report.count(run.is_ok_and(|run| verified(&run, &input.reference)));
        jobs.push(times);
    }
    (jobs, peaks, busy)
}

fn untraced(options: &Options, shape: &Shape, inputs: &mut Inputs) -> Report {
    let mut report = Report::new(false);
    let (jobs, peaks, busy) = measure(shape, inputs, options.budget, &mut report);
    let job_ms: Vec<f64> = jobs
        .iter()
        .map(|j| (j.setup() + j.mine).as_secs_f64() * 1e3)
        .collect();
    report.set("setup_s", median_s(jobs.iter().map(JobTimes::setup)));
    report.set("mine_s", median_s(jobs.iter().map(|j| j.mine)));
    // Allocator history (pages kept after earlier jobs) only ever adds to
    // a job's peak, so the smallest one is the best estimate of what a job
    // needs.
    report.set(
        "peak_rss_mb",
        peaks.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.set("job_p50_ms", median(&job_ms));
    report.set("job_p99_ms", quantile(&job_ms, 0.99));
    report.set("jobs_per_s", jobs.len() as f64 / busy.as_secs_f64());
    // Registering a graph in-process: the registry's read + parse + hash.
    report.set(
        "graph_put_p50_ms",
        median_s(jobs.iter().map(|j| j.parse + j.hash)) * 1e3,
    );
    report
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

/// Half the budget untraced (the baseline of the tracing overhead), then
/// half traced, one job at a time: nothing else mines while a traced job
/// holds the process-wide span recorder and kernel counters.
fn traced(options: &Options, shape: &Shape, inputs: &mut Inputs) -> Report {
    let mut report = Report::new(true);
    let (untraced_jobs, _, _) = measure(shape, inputs, options.budget / 2, &mut report);
    let untraced_mine_s = median_s(untraced_jobs.iter().map(|j| j.mine));

    let session = shape.session(Some(TraceConfig {
        capacity_per_thread: SPANS_PER_THREAD,
    }));
    let workers = shape.workers() as f64;
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut run_walls = Vec::new();
    let mut spans_dropped = 0;
    let mut attempts = 0;
    let start = Instant::now();
    while attempts < MIN_JOBS || start.elapsed() < options.budget / 2 {
        attempts += 1;
        let input = inputs.next();
        let (prepared, times) = load(&session, &input.path);
        let before: KernelCounters = kernel_counters();
        let mut candidates = RawCandidates::default();
        let mining = Instant::now();
        let run = session.run_prepared_streaming(&prepared, &mut candidates);
        let run_wall = mining.elapsed();
        let kernel = kernel_counters().since(&before);
        let Ok(mut run) = run else {
            report.count(false);
            continue;
        };
        let maximality = Instant::now();
        let filtered = remove_non_maximal(candidates.0);
        let maximality = maximality.elapsed();
        let trace = run.trace.take();
        let metrics = run.engine_metrics().cloned().unwrap_or_default();
        report
            .count(verified(&run, &input.reference) && filtered == run.maximal && trace.is_some());
        let trace = trace.unwrap_or_default();
        spans_dropped += trace.dropped;
        let self_us = self_time_by_kind(&trace);
        let self_s = |kind: &str| self_us.get(kind).copied().unwrap_or(0) as f64 / 1e6;
        let worker_self_s: f64 = WORKER_SPANS.iter().map(|k| self_s(k)).sum();

        let elapsed = metrics.elapsed.as_secs_f64();
        let mining_s = metrics.total_mining_time.as_secs_f64();
        let materialization_s = metrics.total_materialization_time.as_secs_f64();
        let job_s = (times.setup() + run_wall).as_secs_f64();
        let task_ms = |d: Option<Duration>| d.unwrap_or_default().as_secs_f64() * 1e3;
        run_walls.push(run_wall);
        samples.push(vec![
            ("graph.parse_s", times.parse.as_secs_f64()),
            (
                "graph.parse_mb_per_s",
                input.file_bytes as f64 / 1e6 / times.parse.as_secs_f64(),
            ),
            ("graph.hash_s", times.hash.as_secs_f64()),
            ("graph.index_build_s", times.index.as_secs_f64()),
            ("graph.index_bytes", prepared.index().memory_bytes() as f64),
            ("graph.edge_queries", kernel.edge_queries as f64),
            ("graph.intersections", kernel.intersections as f64),
            ("graph.bitset_hit_ratio", kernel.bitset_hit_ratio()),
            ("core.mine_phase_self_s", self_s("mine_phase")),
            ("core.maximality_s", maximality.as_secs_f64()),
            ("qcm.postprocess_s", run_wall.as_secs_f64() - elapsed),
            ("parallel.task_self_s", self_s("task")),
            ("parallel.decompose_self_s", self_s("decompose")),
            ("parallel.tasks_decomposed", metrics.tasks_decomposed as f64),
            ("engine.tasks_spawned", metrics.tasks_spawned as f64),
            ("engine.tasks_processed", metrics.tasks_processed as f64),
            ("engine.pull_self_s", self_s("pull")),
            ("engine.remote_fetches", metrics.remote_fetches as f64),
            ("engine.remote_bytes", metrics.remote_bytes as f64),
            (
                "engine.vertex_cache_hit_ratio",
                ratio(
                    metrics.cache_hits as f64,
                    (metrics.cache_hits + metrics.remote_fetches) as f64,
                ),
            ),
            (
                "engine.transport_messages",
                metrics.transport_messages as f64,
            ),
            ("engine.stolen_tasks", metrics.stolen_tasks as f64),
            ("engine.worker_busy_frac", metrics.worker_utilisation()),
            (
                "engine.task_p99_ms",
                task_ms(metrics.task_time_percentile(0.99)),
            ),
            (
                "engine.task_max_ms",
                task_ms(metrics.top_k_task_times(1).first().map(|r| r.elapsed)),
            ),
            ("engine.steals", metrics.steals as f64),
            ("engine.steal_failures", metrics.steal_failures as f64),
            ("engine.pop_contention", metrics.pop_contention as f64),
            ("engine.mining_s", mining_s),
            ("engine.materialization_s", materialization_s),
            (
                "engine.unattributed_s",
                workers * elapsed - mining_s - materialization_s,
            ),
            ("engine.peak_task_bytes", metrics.peak_task_bytes as f64),
            (
                "engine.spill_bytes_written",
                metrics.spill_bytes_written as f64,
            ),
            // The ledger: setup steps and post-processing are timed here,
            // the engine phase is covered by worker span self time spread
            // over the workers; what is left is time no layer accounts for.
            (
                "obs.unattributed_frac",
                1.0 - (times.setup().as_secs_f64()
                    + (run_wall.as_secs_f64() - elapsed)
                    + worker_self_s / workers)
                    / job_s,
            ),
        ]);
    }

    // Every sample lists the same metrics in the same order.
    if let Some(first) = samples.first() {
        for (i, &(name, _)) in first.iter().enumerate() {
            let values: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            report.set(name, median(&values));
        }
    }
    report.set(
        "obs.trace_overhead_frac",
        median_s(run_walls) / untraced_mine_s - 1.0,
    );
    report.set("obs.spans_dropped", spans_dropped as f64);
    report.set("failed_frac", report.failed_frac());
    report
}
