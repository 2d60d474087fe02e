//! The `serve_mixed` workload: the HTTP front door (`qcm_http::Server` over
//! `qcm_http::Api`, 2 service workers, default admission) driven by a closed
//! loop of 2 clients on 2 keep-alive connections.
//!
//! The clients are symmetric. Both query the shared CX_GSE1730 and
//! CX_GSE10158 stand-ins, and each has its own copy of Ca-GrQc and Hyves,
//! which only it rewrites. A client repeats rounds: every key of [`KEYS`]
//! twice in a seeded order (a job is `POST /v1/jobs`, then long-poll
//! `GET /v1/jobs/{id}` until terminal), then one `PUT /v1/graphs/{name}` from
//! [`PUT_CYCLE`]. A rewrite changes the graph's fingerprint, so the next
//! round mines each of its keys cold exactly once. Per cycle of four rounds
//! a client thus runs 56 jobs, 5 of them cold (one on Hyves, the slowest),
//! and 4 PUTs (one stat-cache hit, two Ca-GrQc reloads, one Hyves reload).
//! The mix is the same in every run, and `job_p50_ms` falls on the cache-hit
//! path, `job_p99_ms` inside the cold-Hyves cluster (~1.8% of jobs), `mine_s`
//! inside the slower Ca-GrQc cluster and `graph_put_p50_ms` inside the
//! Ca-GrQc reload cluster, each away from a cluster edge.

use crate::client::Client;
use crate::counters::kernel_counters;
use crate::inputs::{self, GraphFile, SplitMix64};
use crate::report::{self, median, median_s, quantile, ratio, Report};
use crate::Options;
use qcm::prelude::*;
use qcm_graph::io;
use qcm_http::{Api, AuthConfig, Server, ServerConfig};
use qcm_obs::json::Json;
use qcm_service::ServiceConfig;
use qcm_sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients, one keep-alive connection each.
const CLIENTS: usize = 2;

/// Graphs (indices into [`inputs::serve_specs`]) each client has a private,
/// rewritten copy of; the others are shared and never rewritten.
const PRIVATE: [usize; 2] = [2, 3];

/// Query keys: (graph index into [`inputs::serve_specs`], γ, τ_size).
/// Uncontended serial mining costs on a 2-vCPU x86-64 runner: 15, 43, 47,
/// 186, 18, 77 and 354 ms.
const KEYS: [(usize, f64, usize); 7] = [
    (0, 0.90, 10),
    (0, 0.85, 10),
    (1, 0.80, 10),
    (1, 0.75, 10),
    (2, 0.80, 10),
    (2, 0.75, 10),
    (3, 0.90, 12),
];

/// A graph re-registration.
#[derive(Clone, Copy, Debug)]
enum Put {
    /// Rewrite the client's copy (one pendant edge), then PUT it: a reload.
    Rewrite(usize),
    /// PUT an unchanged shared file: a stat-cache hit.
    Unchanged(usize),
}

/// The PUT that ends each round, cycled.
const PUT_CYCLE: [Put; 4] = [
    Put::Rewrite(2),
    Put::Unchanged(0),
    Put::Rewrite(3),
    Put::Rewrite(2),
];

/// Server starts (with their initial registrations) per run; `setup_s` is
/// their median and the last one serves the loop.
const SETUP_RUNS: usize = 9;

/// Rounds (with their PUT) every client completes, however short the
/// budget, so every metric has samples.
const MIN_ROUNDS: usize = 1;

/// Long-poll slice of each `GET /v1/jobs/{id}`.
const WAIT_MS: u64 = 10_000;

/// The registry name of graph `g` as client `client` uses it.
fn graph_name(specs: &[qcm_gen::DatasetSpec], g: usize, client: usize) -> String {
    if PRIVATE.contains(&g) {
        format!("{}-{client}", specs[g].name)
    } else {
        specs[g].name.to_string()
    }
}

/// One finished job as the client saw it.
struct JobLog {
    latency: Duration,
    post: Duration,
    gets: Vec<Duration>,
    cold: bool,
    mining_ms: u64,
}

/// One client's loop.
#[derive(Default)]
struct ClientLog {
    jobs: Vec<JobLog>,
    puts: Vec<Duration>,
    /// Graph index of each reload (content-changing PUT).
    reloads: Vec<usize>,
    attempted: u64,
    failed: u64,
    heads: Vec<Vec<u8>>,
}

/// Everything a client reads or writes.
struct ClientInput<'a> {
    id: usize,
    addr: &'a str,
    specs: &'a [qcm_gen::DatasetSpec],
    /// The shared graphs' files.
    shared: &'a [GraphFile],
    /// This client's copies of the [`PRIVATE`] graphs, in that order.
    private: &'a mut [GraphFile],
    /// Registered fingerprint of every graph, by registry name.
    fingerprints: &'a [(String, u64)],
    /// `num_maximal` of each key of [`KEYS`].
    references: &'a [usize],
    seed: u64,
    deadline: Instant,
    /// Keep the request heads for the traced run's parser timing.
    record_heads: bool,
}

/// Runs `serve_mixed`.
pub fn run(options: &Options) -> Report {
    let specs = inputs::serve_specs(options.scale);
    let mut shared = Vec::new();
    let mut private: Vec<Vec<GraphFile>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut references = vec![0; KEYS.len()];
    for (g, spec) in specs.iter().enumerate() {
        let graph = spec.generate().graph;
        if PRIVATE.contains(&g) {
            for (client, files) in private.iter_mut().enumerate() {
                let name = graph_name(&specs, g, client);
                files.push(GraphFile::create(&options.data_dir, &name, &graph));
            }
        } else {
            shared.push(GraphFile::create(&options.data_dir, spec.name, &graph));
        }
        for (key, &(key_graph, gamma, min_size)) in KEYS.iter().enumerate() {
            if key_graph == g {
                let answer = SerialMiner::new(MiningParams::new(gamma, min_size)).mine(&graph);
                assert!(answer.outcome.is_complete(), "reference runs complete");
                references[key] = answer.maximal.len();
            }
        }
    }

    let mut report = Report::new(options.trace);
    let all_files: Vec<&GraphFile> = shared.iter().chain(private.iter().flatten()).collect();
    let mut setups = Vec::new();
    let mut server: Option<(Server, Vec<(String, u64)>)> = None;
    for _ in 0..SETUP_RUNS {
        if let Some((previous, _)) = server.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        server = Some(start_server(options, &all_files, &mut report));
        setups.push(start.elapsed());
    }
    let (server, fingerprints) = server.expect("at least one setup run");

    let kernel_before = kernel_counters();
    report::release_free_heap();
    report::reset_peak_rss();
    let loop_start = Instant::now();
    let deadline = loop_start + options.budget;
    let addr = server.local_addr().to_string();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = private
            .iter_mut()
            .enumerate()
            .map(|(id, files)| {
                let input = ClientInput {
                    id,
                    addr: &addr,
                    specs: &specs,
                    shared: &shared,
                    private: files,
                    fingerprints: &fingerprints,
                    references: &references,
                    seed: options.seed,
                    deadline,
                    record_heads: options.trace,
                };
                scope.spawn(move || client_loop(input))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    let wall = loop_start.elapsed();
    let peak_rss_mb = report::peak_rss_mib();
    let kernel = kernel_counters().since(&kernel_before);
    let snapshot = server.api().metrics();
    server.shutdown();

    for log in &logs {
        report.add_counts(log.attempted, log.failed);
    }
    let jobs: Vec<&JobLog> = logs.iter().flat_map(|l| &l.jobs).collect();
    let latency_ms: Vec<f64> = jobs.iter().map(|j| j.latency.as_secs_f64() * 1e3).collect();
    let put_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.puts)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    if !options.trace {
        report.set("setup_s", median_s(setups));
        report.set(
            "mine_s",
            median_s(jobs.iter().filter(|j| j.cold).map(|j| j.latency)),
        );
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("job_p50_ms", median(&latency_ms));
        report.set("job_p99_ms", quantile(&latency_ms, 0.99));
        report.set("jobs_per_s", jobs.len() as f64 / wall.as_secs_f64());
        report.set("graph_put_p50_ms", median(&put_ms));
        return report;
    }

    // Per-layer view of the same loop.
    let heads: Vec<&Vec<u8>> = logs.iter().flat_map(|l| &l.heads).collect();
    let parse_start = Instant::now();
    for head in &heads {
        std::hint::black_box(qcm_http::parser::parse_head(head).is_ok());
    }
    let parse_head_s = parse_start.elapsed().as_secs_f64() / heads.len().max(1) as f64;

    // The parse and hash work of every reload, replayed from outside on the
    // client's final file (the reload read the same graph with fewer
    // pendant edges).
    let mut parse_s = Vec::new();
    let mut parse_mb_per_s = Vec::new();
    let mut hash_s = Vec::new();
    for (client, log) in logs.iter().enumerate() {
        for &g in &log.reloads {
            let slot = PRIVATE
                .iter()
                .position(|&p| p == g)
                .expect("reloads are private");
            let path = private[client][slot].path();
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let start = Instant::now();
            let graph = io::read_auto_file(path).expect("a served graph file loads");
            let parsed = start.elapsed();
            let start = Instant::now();
            std::hint::black_box(graph.content_hash());
            hash_s.push(start.elapsed().as_secs_f64());
            parse_s.push(parsed.as_secs_f64());
            parse_mb_per_s.push(bytes as f64 / 1e6 / parsed.as_secs_f64());
        }
    }

    let mining_s: f64 = jobs
        .iter()
        .filter(|j| j.cold)
        .map(|j| j.mining_ms as f64 / 1e3)
        .sum();
    let overhead_ms: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let own_mining_ms = if j.cold { j.mining_ms as f64 } else { 0.0 };
            j.latency.as_secs_f64() * 1e3 - own_mining_ms
        })
        .collect();
    let gets: Vec<f64> = jobs
        .iter()
        .flat_map(|j| &j.gets)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let posts: Vec<f64> = jobs.iter().map(|j| j.post.as_secs_f64() * 1e3).collect();
    let total_latency_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;

    report.set("graph.parse_s", median(&parse_s));
    report.set("graph.parse_mb_per_s", median(&parse_mb_per_s));
    report.set("graph.hash_s", median(&hash_s));
    report.set("graph.edge_queries", kernel.edge_queries as f64);
    report.set("graph.intersections", kernel.intersections as f64);
    report.set("graph.bitset_hit_ratio", kernel.bitset_hit_ratio());
    report.set(
        "service.cache_hit_ratio",
        snapshot.cache_hit_rate().unwrap_or(0.0),
    );
    report.set("service.jobs_mined", snapshot.jobs_mined as f64);
    report.set("service.mining_s", mining_s);
    report.set("service.overhead_p50_ms", median(&overhead_ms));
    report.set("service.rejected", snapshot.rejected as f64);
    report.set("http.post_job_p50_ms", median(&posts));
    report.set("http.get_job_p50_ms", median(&gets));
    report.set("http.parse_head_us", parse_head_s * 1e6);
    report.set("http.put_graph_p50_ms", median(&put_ms));
    report.set(
        "http.poll_useful_ratio",
        ratio(jobs.len() as f64, gets.len() as f64),
    );
    // The ledger: the service reports its mining time and the head parser
    // is timed here; the rest of each job's latency (socket, routing,
    // queueing, JSON) is not attributed to a layer.
    report.set(
        "obs.unattributed_frac",
        1.0 - ratio(
            mining_s + parse_head_s * (posts.len() + gets.len()) as f64,
            total_latency_s,
        ),
    );
    report.set("failed_frac", report.failed_frac());
    report
}

/// Starts the API and server and registers every graph over the socket;
/// returns the server and each graph's registered fingerprint.
fn start_server(
    options: &Options,
    files: &[&GraphFile],
    report: &mut Report,
) -> (Server, Vec<(String, u64)>) {
    let api =
        Api::start(ServiceConfig::default(), AuthConfig::open()).with_graph_root(&options.data_dir);
    let server = Server::start(Arc::new(api), ServerConfig::default())
        .expect("binding the benchmark server to a loopback port");
    let mut client = Client::connect(server.local_addr(), "setup", false)
        .expect("connecting to the benchmark server");
    let fingerprints = files
        .iter()
        .map(|file| {
            let fingerprint = put(&mut client, file);
            report.count(fingerprint.is_some());
            (file.name.clone(), fingerprint.unwrap_or(0))
        })
        .collect();
    // Closing the connection frees its handler thread before any shutdown.
    drop(client);
    (server, fingerprints)
}

/// `PUT /v1/graphs/{name}`; the returned fingerprint, or `None` on any error.
fn put(client: &mut Client, file: &GraphFile) -> Option<u64> {
    let body = format!(
        "{{\"path\":{}}}",
        Json::from(file.file_name.as_str()).render()
    );
    let response = client
        .request("PUT", &format!("/v1/graphs/{}", file.name), Some(&body))
        .ok()?;
    if response.status != 200 {
        return None;
    }
    let json = Json::parse(&response.body).ok()?;
    let hex = json.get("fingerprint")?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

fn client_loop(input: ClientInput<'_>) -> ClientLog {
    let ClientInput {
        id,
        addr,
        specs,
        shared,
        private,
        fingerprints,
        references,
        seed,
        deadline,
        record_heads,
    } = input;
    let mut log = ClientLog::default();
    let mut rng = SplitMix64::new(seed, 100 + id as u64);
    let mut client = Client::connect(addr, &format!("client-{id}"), record_heads)
        .expect("connecting to the benchmark server");
    let registered = |name: &str| {
        fingerprints
            .iter()
            .find(|(n, _)| n == name)
            .expect("every graph was registered")
            .1
    };
    // Every fingerprint each private copy has had.
    let mut seen: Vec<Vec<u64>> = private.iter().map(|f| vec![registered(&f.name)]).collect();
    let mut round = 0;
    'rounds: loop {
        let mut order: Vec<usize> = (0..KEYS.len()).chain(0..KEYS.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for key in order {
            if round >= MIN_ROUNDS && Instant::now() >= deadline {
                break 'rounds;
            }
            let ok = match job(&mut client, &graph_name(specs, KEYS[key].0, id), key) {
                Some((entry, num_maximal)) if num_maximal == references[key] => {
                    log.jobs.push(entry);
                    true
                }
                _ => false,
            };
            log.attempted += 1;
            log.failed += u64::from(!ok);
        }
        if round >= MIN_ROUNDS && Instant::now() >= deadline {
            break;
        }
        let start;
        let ok = match PUT_CYCLE[round % PUT_CYCLE.len()] {
            Put::Rewrite(g) => {
                let slot = PRIVATE
                    .iter()
                    .position(|&p| p == g)
                    .expect("only private copies are rewritten");
                private[slot].rewrite(&mut rng);
                log.reloads.push(g);
                start = Instant::now();
                // A rewrite must yield a fingerprint this copy never had.
                match put(&mut client, &private[slot]) {
                    Some(f) if !seen[slot].contains(&f) => {
                        seen[slot].push(f);
                        true
                    }
                    _ => false,
                }
            }
            Put::Unchanged(g) => {
                let file = shared
                    .iter()
                    .find(|f| f.name == specs[g].name)
                    .expect("unchanged PUTs name a shared graph");
                start = Instant::now();
                // An unchanged file must keep its registered fingerprint.
                put(&mut client, file) == Some(registered(&file.name))
            }
        };
        if ok {
            log.puts.push(start.elapsed());
        }
        log.attempted += 1;
        log.failed += u64::from(!ok);
        round += 1;
    }
    log.heads = client.heads.take().unwrap_or_default();
    log
}

/// Submits one job on `graph` and long-polls it to a terminal state.
/// Returns its log and answer size, or `None` on any error, refusal or
/// incomplete answer.
fn job(client: &mut Client, graph: &str, key: usize) -> Option<(JobLog, usize)> {
    let (_, gamma, min_size) = KEYS[key];
    let body = format!(
        "{{\"graph\":{},\"gamma\":{gamma},\"min_size\":{min_size}}}",
        Json::from(graph).render()
    );
    let start = Instant::now();
    let submitted = client.request("POST", "/v1/jobs", Some(&body)).ok()?;
    let post = start.elapsed();
    if submitted.status != 202 {
        return None;
    }
    let id = Json::parse(&submitted.body).ok()?.get("job")?.as_f64()? as u64;
    let path = format!("/v1/jobs/{id}?wait_ms={WAIT_MS}");
    let mut gets = Vec::new();
    let view = loop {
        let poll_start = Instant::now();
        let response = client.request("GET", &path, None).ok()?;
        gets.push(poll_start.elapsed());
        if response.status != 200 {
            return None;
        }
        let view = Json::parse(&response.body).ok()?;
        if view.get("outcome").is_some() {
            break view;
        }
    };
    let latency = start.elapsed();
    if view.get("outcome")?.as_str()? != "complete" {
        return None;
    }
    let entry = JobLog {
        latency,
        post,
        gets,
        cold: !view.get("cache_hit")?.as_bool()?,
        mining_ms: view.get("mining_ms")?.as_f64()? as u64,
    };
    Some((entry, view.get("num_maximal")?.as_f64()? as usize))
}
