//! The cluster engine: machines, mining threads, the reforged scheduler
//! and big-task stealing.
//!
//! This is the system half of the paper's codesign (Section 5). A
//! [`Cluster`] runs a [`GThinkerApp`] over a shared input graph on
//! `num_machines × threads_per_machine` mining threads. Each *machine* is a
//! thread group owning
//!
//! * a hash partition of the vertex table and a remote-vertex cache,
//! * a **global task queue** for big tasks (the reforge addition) with its own
//!   spill file list `L_big`,
//! * a spawn cursor over its owned vertices,
//!
//! while each *mining thread* owns a local queue (+ `L_small`) for small
//! tasks. The worker step follows the reforged Algorithm 3: big tasks are
//! popped with priority, queues refill from spill files before spawning new
//! roots, and spawning stops as soon as it produces a big task. A master
//! load balancer periodically evens out pending big tasks across machines
//! (task stealing).
//!
//! The scheduler exists once. `SharedState` holds the machines, queues and
//! counters; `step` is one scheduling step of one mining thread; the
//! message handler, the balance policy (`plan_steal`) and the steal-grant
//! ack/retransmit protocol sit next to them. Two drivers run this core:
//! [`Cluster::run`] loops every mining thread over `step` in real time, and
//! [`crate::sim::SimCluster`] calls the same `step` from its discrete-event
//! loop in virtual time.

use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::metrics::{EngineMetrics, TaskTimeRecord};
use crate::queue::TaskQueue;
use crate::spill::{SpillMetrics, SpillStore};
use crate::steal::WorkerQueues;
use crate::task::{ComputeContext, Frontier, GThinkerApp, TaskCodec, TaskTimings};
use crate::transport::{Envelope, Transport};
use crate::vertex_table::{DataService, FetchMetrics, PartitionedVertexTable};

use qcm_core::{MiningScratch, RunOutcome};
use qcm_graph::{Graph, VertexId};
use qcm_obs::clock::Instant;
use qcm_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use qcm_sync::Arc;
use qcm_sync::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::time::Duration;

/// The output of an engine run: raw result rows (the application's emitted
/// quasi-cliques, before maximality post-processing) and the run metrics.
#[derive(Clone, Debug, Default)]
pub struct EngineOutput {
    /// Emitted result rows (members sorted by the caller if needed).
    pub results: Vec<Vec<VertexId>>,
    /// Metrics of the run.
    pub metrics: EngineMetrics,
    /// The neighborhood index the run's vertex table served edge queries
    /// through — handed back so post-processing (maximality, result
    /// validation) reuses it instead of rebuilding.
    pub index: Option<Arc<qcm_graph::NeighborhoodIndex>>,
}

/// Root key of a task whose application reports no spawning root; losing
/// such a task cannot be repaired by respawning one root.
pub(crate) const ROOTLESS: u32 = u32::MAX;

/// Per-root task bookkeeping. The threaded driver installs none; the fault
/// simulator uses it to find the roots whose work was lost, and keeps each
/// root's results apart so a respawn can discard them.
pub(crate) trait RootHooks: Sync {
    /// A task of `root` was created (spawned or decomposed).
    fn created(&self, root: u32);
    /// A task of `root` ran to completion.
    fn finished(&self, root: u32);
    /// A task of `root` was dropped before it completed.
    fn lost(&self, root: u32);
    /// Work of `root` emitted `rows`.
    fn emitted(&self, root: u32, rows: Vec<Vec<VertexId>>);
}

/// A steal grant sent but not yet acknowledged. The encoded batch is kept so
/// the grant can be resent.
struct PendingGrant {
    to: usize,
    tasks: Vec<Vec<u8>>,
    /// Roots of the granted tasks; recorded only when root hooks are set.
    roots: Vec<u32>,
    retries: u32,
}

/// Per-machine shared state.
struct MachineState<T> {
    global_queue: Mutex<TaskQueue<T>>,
    spawn_cursor: Mutex<VecDeque<VertexId>>,
    data: DataService,
    /// Steal grants this machine sent whose ack has not arrived, by sequence
    /// number.
    grants_out: Mutex<BTreeMap<u64, PendingGrant>>,
    /// Sequence numbers of the grants this machine accepted; a resent
    /// duplicate is only acked again.
    grants_in: Mutex<BTreeSet<u64>>,
}

/// Cluster-wide shared state: everything a worker step reads or writes.
pub(crate) struct SharedState<'a, A: GThinkerApp> {
    app: &'a A,
    config: &'a EngineConfig,
    table: PartitionedVertexTable,
    shared_index_reused: bool,
    machines: Vec<MachineState<A::Task>>,
    /// Per-worker bounded deques + the intra-machine steal protocol. Small
    /// tasks live here; the machines' global queues keep the big-task lane
    /// and the spill/overflow path.
    worker_queues: WorkerQueues<A::Task>,
    /// The inter-machine message-passing layer. All cross-machine
    /// interactions (pulls, steal requests/grants/acks, shutdown) travel
    /// through it; same-machine paths stay shared-memory.
    transport: Arc<dyn Transport>,
    hooks: Option<&'a dyn RootHooks>,
    spill_metrics: Arc<SpillMetrics>,
    fetch_metrics: Arc<FetchMetrics>,
    /// Monotonic sequence numbers for steal requests, so grants and acks can
    /// be correlated (and deduplicated) across machines.
    steal_seq: AtomicU64,
    /// True once a fault (pull retry budget exhausted, undecodable stolen
    /// task) dropped part of the workload; labels the run
    /// [`RunOutcome::Faulted`] unless cancellation explains the loss.
    faulted: AtomicBool,
    /// Tasks spawned or decomposed but not yet fully processed (plus a
    /// transient +1 held while a spawn call is in flight, which closes the
    /// race between the spawn-cursor decrement and the task registration).
    pending_tasks: AtomicUsize,
    /// Vertices not yet consumed by any spawn cursor.
    unspawned: AtomicUsize,
    done: AtomicBool,
    /// True once any task's compute call observed the cancellation token
    /// fired and truncated its own backtracking. Combined with the
    /// work-remaining check after shutdown to label the run outcome, so a
    /// run that drained everything is never mislabelled as partial when the
    /// deadline passes during metric assembly, and vice versa.
    interrupted: AtomicBool,
    results: Mutex<Vec<Vec<VertexId>>>,
    task_times: Mutex<Vec<TaskTimeRecord>>,
    tasks_spawned: AtomicU64,
    tasks_processed: AtomicU64,
    tasks_decomposed: AtomicU64,
    active_task_bytes: AtomicU64,
    peak_task_bytes: AtomicU64,
    mining_nanos: AtomicU64,
    materialization_nanos: AtomicU64,
    stolen_tasks: AtomicU64,
    pop_contention: AtomicU64,
}

impl<'a, A: GThinkerApp> SharedState<'a, A> {
    /// Builds the run's index, vertex table, machines and counters, and binds
    /// `transport` to the table.
    pub(crate) fn new(
        app: &'a A,
        config: &'a EngineConfig,
        graph: Arc<Graph>,
        transport: Arc<dyn Transport>,
        hooks: Option<&'a dyn RootHooks>,
    ) -> Self {
        // Reuse the caller's per-graph index when one was threaded through
        // (session/service layers build it once per graph); otherwise build
        // per the configured policy.
        let (index, shared_index_reused) = match &config.shared_index {
            Some(shared) if Arc::ptr_eq(shared.graph(), &graph) => (shared.clone(), true),
            _ => (
                Arc::new(qcm_graph::NeighborhoodIndex::build(graph, config.index)),
                false,
            ),
        };
        let table = PartitionedVertexTable::with_index(index, config.num_machines);
        transport.bind(&table);
        let spill_metrics = Arc::new(SpillMetrics::default());
        let fetch_metrics = Arc::new(FetchMetrics::default());
        let machines = (0..config.num_machines)
            .map(|m| MachineState {
                global_queue: Mutex::new(TaskQueue::new(
                    config.global_queue_capacity,
                    config.batch_size,
                    SpillStore::new(
                        config.spill_dir.clone(),
                        format!("m{m}-global"),
                        spill_metrics.clone(),
                    ),
                )),
                spawn_cursor: Mutex::new(table.owned_vertices(m).into()),
                data: DataService::new(
                    table.clone(),
                    m,
                    config.vertex_cache_capacity,
                    fetch_metrics.clone(),
                    transport.clone(),
                    config.pull_timeout,
                    config.pull_retries,
                ),
                grants_out: Mutex::new(BTreeMap::new()),
                grants_in: Mutex::new(BTreeSet::new()),
            })
            .collect();
        let unspawned = table.graph().num_vertices();
        SharedState {
            app,
            config,
            table,
            shared_index_reused,
            machines,
            worker_queues: WorkerQueues::new(
                config.total_threads(),
                config.local_capacity,
                config.steal_batch,
            ),
            transport,
            hooks,
            spill_metrics,
            fetch_metrics,
            steal_seq: AtomicU64::new(0),
            faulted: AtomicBool::new(false),
            pending_tasks: AtomicUsize::new(0),
            unspawned: AtomicUsize::new(unspawned),
            done: AtomicBool::new(false),
            interrupted: AtomicBool::new(false),
            results: Mutex::new(Vec::new()),
            task_times: Mutex::new(Vec::new()),
            tasks_spawned: AtomicU64::new(0),
            tasks_processed: AtomicU64::new(0),
            tasks_decomposed: AtomicU64::new(0),
            active_task_bytes: AtomicU64::new(0),
            peak_task_bytes: AtomicU64::new(0),
            mining_nanos: AtomicU64::new(0),
            materialization_nanos: AtomicU64::new(0),
            stolen_tasks: AtomicU64::new(0),
            pop_contention: AtomicU64::new(0),
        }
    }

    /// The partitioned vertex table the run reads.
    pub(crate) fn table(&self) -> &PartitionedVertexTable {
        &self.table
    }

    /// True once a task truncated its work on a fired cancellation token.
    pub(crate) fn interrupted(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in process_task.
        self.interrupted.load(Ordering::Acquire)
    }

    /// Consumes the state into the run's results and metrics. The caller
    /// fills in `elapsed`, `worker_busy`, `outcome` and `virtual_time`.
    pub(crate) fn into_output(self) -> EngineOutput {
        let results = self.results.into_inner();
        let transport_stats = self.transport.stats();
        let spill = &self.spill_metrics;
        let fetch = &self.fetch_metrics;
        // ordering: Relaxed — read after every worker finished (scope join or
        // the single-threaded simulator); no other memory depends on these.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let metrics = EngineMetrics {
            shared_index_reused: self.shared_index_reused,
            tasks_spawned: load(&self.tasks_spawned),
            tasks_processed: load(&self.tasks_processed),
            tasks_decomposed: load(&self.tasks_decomposed),
            results_emitted: results.len() as u64,
            peak_task_bytes: load(&self.peak_task_bytes),
            spill_bytes_written: load(&spill.bytes_written),
            spill_bytes_read: load(&spill.bytes_read),
            spill_peak_bytes: load(&spill.peak_bytes),
            local_reads: load(&fetch.local_reads),
            remote_fetches: load(&fetch.remote_fetches),
            remote_bytes: load(&fetch.remote_bytes),
            cache_hits: load(&fetch.cache_hits),
            cache_evictions: load(&fetch.cache_evictions),
            pull_retries: load(&fetch.pull_retries),
            pull_failures: load(&fetch.pull_failures),
            transport_messages: transport_stats.messages_sent,
            transport_dropped: transport_stats.messages_dropped,
            stolen_tasks: load(&self.stolen_tasks),
            steals: self.worker_queues.steals(),
            steal_failures: self.worker_queues.steal_failures(),
            pop_contention: load(&self.pop_contention),
            total_mining_time: Duration::from_nanos(load(&self.mining_nanos)),
            total_materialization_time: Duration::from_nanos(load(&self.materialization_nanos)),
            task_times: self.task_times.into_inner(),
            ..EngineMetrics::default()
        };
        EngineOutput {
            results,
            metrics,
            index: Some(self.table.index().clone()),
        }
    }

    /// The mining threads of `machine`.
    fn workers_of(&self, machine: usize) -> Range<usize> {
        let tpm = self.config.threads_per_machine;
        machine * tpm..(machine + 1) * tpm
    }

    /// True while `machine` holds queued tasks or unspawned vertices.
    pub(crate) fn has_work(&self, machine: usize) -> bool {
        let state = &self.machines[machine];
        state.global_queue.lock().total_pending() > 0
            || self
                .workers_of(machine)
                .any(|w| self.worker_queues.approx_len(w) > 0)
            || !state.spawn_cursor.lock().is_empty()
    }

    /// True while `machine` waits for the ack of a steal grant it sent.
    pub(crate) fn has_unacked_grants(&self, machine: usize) -> bool {
        !self.machines[machine].grants_out.lock().is_empty()
    }

    /// The vertices `machine` has not spawned yet.
    pub(crate) fn unspawned_vertices(&self, machine: usize) -> Vec<VertexId> {
        self.machines[machine]
            .spawn_cursor
            .lock()
            .iter()
            .copied()
            .collect()
    }

    fn root_of(&self, task: &A::Task) -> u32 {
        self.app.task_label(task).root.map_or(ROOTLESS, |v| v.raw())
    }

    /// Records `rows`; `root` names the root whose work emitted them and is
    /// evaluated only when root hooks are set.
    fn emit(&self, root: impl FnOnce() -> u32, rows: Vec<Vec<VertexId>>) {
        if rows.is_empty() {
            return;
        }
        match self.hooks {
            Some(hooks) => hooks.emitted(root(), rows),
            None => self.results.lock().extend(rows),
        }
    }

    fn add_active_bytes(&self, bytes: u64) {
        // ordering: Relaxed — live-bytes gauge and its peak are advisory
        // accounting; no synchronisation piggybacks on them.
        let now = self.active_task_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_task_bytes.fetch_max(now, Ordering::Relaxed);
    }

    fn sub_active_bytes(&self, bytes: u64) {
        // ordering: Relaxed — see add_active_bytes.
        self.active_task_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A simulated G-thinker cluster executing one application.
pub struct Cluster<A: GThinkerApp> {
    app: Arc<A>,
    config: EngineConfig,
}

impl<A: GThinkerApp> Cluster<A> {
    /// Creates a cluster for `app` with the given configuration.
    pub fn new(app: Arc<A>, config: EngineConfig) -> Self {
        config.validate();
        Cluster { app, config }
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the application over `graph` until every spawned task (and every
    /// task transitively created by decomposition) has completed.
    pub fn run(&self, graph: Arc<Graph>) -> EngineOutput {
        let start = Instant::now();
        let config = &self.config;
        let transport = config.transport.build(config.num_machines);
        let shared = SharedState::new(self.app.as_ref(), config, graph, transport, None);

        let total_workers = config.total_threads();
        let worker_busy: Mutex<Vec<Duration>> = Mutex::new(vec![Duration::ZERO; total_workers]);

        // A worker panic is resumed here once every thread has been joined.
        qcm_sync::thread::scope(|scope| {
            // Master load balancer (big-task stealing between machines).
            if config.num_machines > 1 {
                scope.spawn(|| balancer_loop(&shared));
            }
            for worker in 0..total_workers {
                let machine_id = worker / config.threads_per_machine;
                let shared_ref = &shared;
                let busy_ref = &worker_busy;
                scope.spawn(move || {
                    let busy = worker_loop(shared_ref, machine_id, worker);
                    busy_ref.lock()[worker] = busy;
                });
            }
        });

        // Interrupted iff work was actually dropped: a task truncated its
        // own backtracking, a queued/in-flight task was abandoned, a vertex
        // was never spawned, or a fault lost part of the workload. A
        // cancellation that fires after the pool drained leaves the run
        // Complete; dropped work with no cancellation to blame is a fault.
        // ordering: Acquire — redundant after the join edge, kept to mirror
        // the in-run readers of these control flags.
        let outcome = if shared.interrupted()
            || shared.pending_tasks.load(Ordering::Acquire) > 0
            || shared.unspawned.load(Ordering::Acquire) > 0
            || shared.faulted.load(Ordering::Acquire)
        {
            match config.cancel.run_outcome() {
                RunOutcome::Complete => RunOutcome::Faulted,
                cancelled => cancelled,
            }
        } else {
            RunOutcome::Complete
        };
        let mut output = shared.into_output();
        output.metrics.elapsed = start.elapsed();
        output.metrics.worker_busy = worker_busy.into_inner();
        output.metrics.outcome = outcome;
        output
    }
}

/// What one worker step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Popped a task and processed it to completion (or abandonment).
    Processed,
    /// Spawned a batch of root tasks.
    Spawned,
    /// Found nothing to pop and nothing to spawn.
    Idle,
}

/// One scheduling step of mining thread `worker_id` on `machine_id` (the
/// reforged Algorithm 3, on the work-stealing pop path): drain the machine's
/// mailbox, then pop and process one task, else spawn one batch of roots.
///
/// The mailbox goes first: steal grants refill the global queue and must
/// land before the pop, or an in-flight batch could starve behind idle
/// workers.
pub(crate) fn step<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
    scratch: &mut MiningScratch,
) -> Step {
    pump_inbox(shared, machine_id);
    if let Some(task) = pop_task(shared, machine_id, worker_id) {
        process_task(shared, machine_id, worker_id, scratch, task);
        return Step::Processed;
    }
    if spawn_batch(shared, machine_id, worker_id) {
        return Step::Spawned;
    }
    Step::Idle
}

/// Main loop of one mining thread: [`step`] until the run is done or
/// cancelled.
fn worker_loop<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
) -> Duration {
    // Tag this thread's trace lane with its (simulated) machine, so the
    // Chrome export renders one swimlane group per machine.
    qcm_obs::set_lane(machine_id as u32);
    // The worker's mining scratch arena, loaned to every task it processes —
    // the recursion frames warmed up by one task serve all later tasks on
    // this worker without reallocating.
    let mut scratch = MiningScratch::default();
    let mut busy = Duration::ZERO;
    loop {
        // ordering: Acquire — pairs with the Release stores of `done`, so a
        // worker that observes the flag also observes the finisher's writes.
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        // Cooperative cancellation (deadline or explicit): stop popping and
        // tell every other worker to drain out. Results emitted so far are
        // kept; whether the run counts as interrupted is decided after all
        // workers exit, from the work that actually remained.
        if shared.config.cancel.is_cancelled() {
            // ordering: Release — publishes everything this thread wrote before
            // finishing; pairs with the Acquire polls of `done`.
            shared.done.store(true, Ordering::Release);
            broadcast_shutdown(shared, machine_id);
            break;
        }
        let t0 = Instant::now();
        if step(shared, machine_id, worker_id, &mut scratch) != Step::Idle {
            busy += t0.elapsed();
            continue;
        }
        // Nothing to pop, nothing to spawn: either the job is finished or
        // other workers still hold pending tasks. Tasks serialised inside an
        // in-flight steal grant still count as pending, so a machine never
        // declares completion while a batch is on the wire.
        // ordering: Acquire — pairs with the AcqRel RMWs on both counters.
        // `pending_tasks` is incremented before `unspawned` is decremented on
        // the spawn path, so both reading zero proves no task exists, is in
        // flight, or is still unspawned.
        if shared.pending_tasks.load(Ordering::Acquire) == 0
            && shared.unspawned.load(Ordering::Acquire) == 0
        {
            // ordering: Release — publishes everything this thread wrote before
            // finishing; pairs with the Acquire polls of `done`.
            shared.done.store(true, Ordering::Release);
            broadcast_shutdown(shared, machine_id);
            break;
        }
        qcm_sync::thread::sleep(Duration::from_micros(200));
    }
    busy
}

/// Tells every other machine the run is over (`done` is also a shared flag,
/// but the explicit [`EngineMsg::Shutdown`] keeps the protocol complete for
/// transports whose machines do not share memory).
fn broadcast_shutdown<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize) {
    for peer in 0..shared.config.num_machines {
        if peer != machine_id {
            let _ = shared.transport.send(machine_id, peer, EngineMsg::Shutdown);
        }
    }
}

/// Drains and handles every message currently queued for `machine_id`.
///
/// Any worker of the machine may pump; the mailbox is machine-addressed, not
/// worker-addressed.
pub(crate) fn pump_inbox<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize) {
    while let Some(env) = shared.transport.try_recv(machine_id) {
        handle_message(shared, machine_id, env);
    }
}

/// The engine's one message handler. Steal requests are granted from the
/// machine's big-task lane, grants are decoded into it and acked, and acks
/// release the donor's retransmit buffer.
fn handle_message<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize, env: Envelope) {
    let state = &shared.machines[machine_id];
    match env.msg {
        // Pulls never reach a mailbox: `Transport::pull` is the one pull
        // path, and every transport answers it itself.
        EngineMsg::PullRequest { .. } | EngineMsg::PullResponse { .. } => {}
        EngineMsg::StealRequest { seq, count } => {
            let batch = state.global_queue.lock().take_batch(count as usize);
            if batch.is_empty() {
                return;
            }
            let tasks: Vec<Vec<u8>> = batch
                .iter()
                .map(|t| {
                    let mut buf = Vec::new();
                    t.encode(&mut buf);
                    buf
                })
                .collect();
            let roots = match shared.hooks {
                Some(_) => batch.iter().map(|t| shared.root_of(t)).collect(),
                None => Vec::new(),
            };
            // Recorded before the send, so an ack can never overtake it.
            state.grants_out.lock().insert(
                seq,
                PendingGrant {
                    to: env.from,
                    tasks: tasks.clone(),
                    roots,
                    retries: 0,
                },
            );
            let grant = EngineMsg::StealGrant { seq, tasks };
            if shared.transport.send(machine_id, env.from, grant).is_err() {
                // Unreachable peer: keep the batch local rather than lose it.
                state.grants_out.lock().remove(&seq);
                let mut gq = state.global_queue.lock();
                for t in batch {
                    gq.push(t);
                }
            }
        }
        EngineMsg::StealGrant { seq, tasks } => {
            if state.grants_in.lock().insert(seq) {
                accept_grant(shared, machine_id, &tasks);
            }
            // Ack duplicates too: the donor resent because our ack was lost.
            let _ = shared
                .transport
                .send(machine_id, env.from, EngineMsg::StealAck { seq });
        }
        EngineMsg::StealAck { seq } => {
            state.grants_out.lock().remove(&seq);
        }
        EngineMsg::Shutdown => {
            // ordering: Release — publishes everything this thread wrote before
            // finishing; pairs with the Acquire polls of `done`.
            shared.done.store(true, Ordering::Release);
        }
    }
}

/// Decodes a granted batch into `machine_id`'s big-task lane.
fn accept_grant<A: GThinkerApp>(shared: &SharedState<'_, A>, machine_id: usize, tasks: &[Vec<u8>]) {
    let mut decoded = Vec::with_capacity(tasks.len());
    for buf in tasks {
        let mut slice = buf.as_slice();
        match <A::Task as TaskCodec>::decode(&mut slice) {
            Some(t) => decoded.push(t),
            None => {
                // An undecodable task can never run, and its root is
                // unknowable: release its pending slot so the pool still
                // drains, and label the run.
                // ordering: Release — the fault flag must be visible before the
                // pending slot it excuses is released.
                shared.faulted.store(true, Ordering::Release);
                // ordering: AcqRel — counter protocol: a decrement publishes the work
                // accounted to the slot and joins prior decrements, so a zero read
                // proves global completion.
                shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
                if let Some(hooks) = shared.hooks {
                    hooks.lost(ROOTLESS);
                }
            }
        }
    }
    let n = decoded.len() as u64;
    if n > 0 {
        let mut gq = shared.machines[machine_id].global_queue.lock();
        for t in decoded {
            gq.push(t);
        }
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        shared.stolen_tasks.fetch_add(n, Ordering::Relaxed);
    }
}

/// What became of an unacknowledged steal grant when its ack timer fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GrantFate {
    /// The ack had arrived; nothing to do.
    Acked,
    /// The grant was sent again.
    Resent,
    /// The retry budget is spent: the grant's tasks are reported lost.
    Lost {
        /// The machine the grant was addressed to.
        to: usize,
    },
}

/// Resends steal grant `seq` of `machine` if its ack is still missing, at
/// most `max_retries` times; after that the donor gives the batch up and
/// reports its roots lost. Only a lossy transport needs this: the fault
/// simulator calls it when a grant's ack timer fires, while the in-process
/// transport never loses a grant.
pub(crate) fn resend_grant<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine: usize,
    seq: u64,
    max_retries: u32,
) -> GrantFate {
    let mut out = shared.machines[machine].grants_out.lock();
    let Some(grant) = out.get_mut(&seq) else {
        return GrantFate::Acked;
    };
    if grant.retries < max_retries {
        grant.retries += 1;
        let (to, tasks) = (grant.to, grant.tasks.clone());
        drop(out);
        let _ = shared
            .transport
            .send(machine, to, EngineMsg::StealGrant { seq, tasks });
        return GrantFate::Resent;
    }
    let Some(grant) = out.remove(&seq) else {
        return GrantFate::Acked;
    };
    drop(out);
    if let Some(hooks) = shared.hooks {
        for &root in &grant.roots {
            hooks.lost(root);
        }
    }
    GrantFate::Lost { to: grant.to }
}

/// Drops everything `machine` holds — its global queue with its spilled
/// batches, its workers' deques and its unacknowledged steal grants — and
/// reports each lost task's root (a crash, in the fault simulator).
pub(crate) fn drain_machine<A: GThinkerApp>(shared: &SharedState<'_, A>, machine: usize) {
    let state = &shared.machines[machine];
    let mut tasks = state.global_queue.lock().drain_all();
    for worker in shared.workers_of(machine) {
        tasks.extend(shared.worker_queues.take_all(worker));
    }
    let grants = std::mem::take(&mut *state.grants_out.lock());
    if let Some(hooks) = shared.hooks {
        for task in &tasks {
            hooks.lost(shared.root_of(task));
        }
        for grant in grants.values() {
            for &root in &grant.roots {
                hooks.lost(root);
            }
        }
    }
}

/// Pops the next task for `worker_id`:
///
/// 1. the worker's own deque (LIFO — hottest subtree first, own lock,
///    contention-free in the common case);
/// 2. the machine's global queue (big tasks with priority, plus overflow),
///    refilled from its spill files when it runs below one batch — a
///    try-lock, so a worker never stalls behind a sibling's pop (the miss is
///    counted as `pop_contention`);
/// 3. a FIFO steal from the fullest sibling deque on the same machine
///    (Figure 8's stealing, brought inside the machine).
fn pop_task<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
) -> Option<A::Task> {
    if let Some(task) = shared.worker_queues.pop_local(worker_id) {
        return Some(task);
    }
    match shared.machines[machine_id].global_queue.try_lock() {
        Some(mut gq) => {
            if gq.needs_refill() {
                // Spill span (refill direction): recorded only when tasks
                // actually came back from the spill store.
                let mut refill_span = qcm_obs::span(qcm_obs::SpanKind::Spill);
                let restored = gq.refill_from_spill();
                if restored > 0 {
                    refill_span.set_arg(restored as u64);
                } else {
                    refill_span.cancel();
                }
            }
            if let Some(task) = gq.pop() {
                return Some(task);
            }
        }
        None => {
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            shared.pop_contention.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Steal span: recorded only when the sweep actually moved a task.
    let mut steal_span = qcm_obs::span(qcm_obs::SpanKind::Steal);
    let stolen = shared
        .worker_queues
        .steal_into(worker_id, shared.workers_of(machine_id));
    if stolen.is_none() {
        steal_span.cancel();
    }
    stolen
}

/// Routes a freshly created task: big tasks go to the machine's global queue
/// (the big-task lane the balancer steals from), small tasks go to the
/// worker's own deque, overflowing into the global queue — and from there to
/// disk — when the deque is at capacity (the paper's bounded-memory spilling
/// semantics).
fn route_task<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
    task: A::Task,
) -> bool {
    if let Some(hooks) = shared.hooks {
        hooks.created(shared.root_of(&task));
    }
    let big = shared.app.is_big(&task);
    // Spill span: measures the push-with-possible-spill; cancelled (nothing
    // recorded) when the push stayed in memory.
    let mut spill_span = qcm_obs::span(qcm_obs::SpanKind::Spill);
    let spilled = if big {
        shared.machines[machine_id].global_queue.lock().push(task)
    } else if let Err(task) = shared.worker_queues.push_local(worker_id, task) {
        shared.machines[machine_id].global_queue.lock().push(task)
    } else {
        0
    };
    if spilled > 0 {
        spill_span.set_arg(spilled as u64);
    } else {
        spill_span.cancel();
    }
    big
}

/// Spawns up to one batch of root tasks from the machine's spawn cursor,
/// stopping early as soon as a spawned task is big (the paper's rule to avoid
/// flooding the global queue from a single refill). Returns true if at least
/// one vertex was consumed.
fn spawn_batch<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
) -> bool {
    let mut consumed_any = false;
    for _ in 0..shared.config.batch_size {
        // Hold a transient pending slot across the spawn so that the
        // (unspawned, pending) pair can never both read zero mid-spawn.
        // ordering: AcqRel — counter protocol (see worker_loop's zero check):
        // the increment lands before the task becomes poppable.
        shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
        let vertex = {
            let mut cursor = shared.machines[machine_id].spawn_cursor.lock();
            cursor.pop_front()
        };
        let Some(v) = vertex else {
            // ordering: AcqRel — counter protocol: releases this task's pending
            // slot after its effects are written.
            shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
            break;
        };
        // ordering: AcqRel — decremented only after the vertex's pending slot
        // (or its skip) is settled, keeping pending+unspawned > 0 while work
        // remains.
        shared.unspawned.fetch_sub(1, Ordering::AcqRel);
        consumed_any = true;
        let spawned_big = spawn_vertex(shared, machine_id, worker_id, v);
        // ordering: AcqRel — counter protocol: releases this task's pending
        // slot after its effects are written.
        shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
        if spawned_big {
            break;
        }
    }
    consumed_any
}

/// Runs the application's `spawn` on `v` and routes the tasks it creates.
/// Returns true if one of them is big. The fault simulator also calls this
/// to respawn a root whose work was lost.
pub(crate) fn spawn_vertex<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
    v: VertexId,
) -> bool {
    let adj = shared.table.adjacency(v).to_vec();
    let mut ctx = ComputeContext::new();
    shared.app.spawn(v, &adj, &mut ctx);
    shared.emit(|| v.raw(), ctx.results);
    let mut spawned_big = false;
    for task in ctx.new_tasks {
        // ordering: AcqRel — counter protocol (see worker_loop's zero check):
        // the increment lands before the task becomes poppable.
        shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
        // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
        shared.tasks_spawned.fetch_add(1, Ordering::Relaxed);
        spawned_big |= route_task(shared, machine_id, worker_id, task);
    }
    spawned_big
}

/// Processes one task to completion: repeatedly resolves its pending pulls
/// into a frontier and calls `compute` until the application reports the task
/// finished, routing any decomposed subtasks and results along the way.
fn process_task<A: GThinkerApp>(
    shared: &SharedState<'_, A>,
    machine_id: usize,
    worker_id: usize,
    scratch: &mut MiningScratch,
    mut task: A::Task,
) {
    let start = Instant::now();
    let mut task_span = qcm_obs::span(qcm_obs::SpanKind::Task);
    let mut mem = shared.app.task_memory_bytes(&task) as u64;
    shared.add_active_bytes(mem);
    let mut timings = TaskTimings::default();
    let mut fetch_scratch = crate::vertex_table::FetchScratch::default();
    loop {
        let mut frontier = Frontier::new();
        {
            let pending = shared.app.pending_pulls(&task);
            // Pull span: one fetch round; payload is the number of vertices
            // resolved. Skipped entirely when the task needs nothing, and
            // closed before compute runs so it measures only the fetches.
            let _pull_span = (!pending.is_empty())
                .then(|| qcm_obs::span_with(qcm_obs::SpanKind::Pull, pending.len() as u64));
            for &v in pending {
                match shared.machines[machine_id]
                    .data
                    .fetch_with(v, &mut fetch_scratch)
                {
                    Ok(adj) => frontier.insert(v, adj),
                    Err(_) => {
                        // The pull exhausted its retry budget: abandon the task
                        // and label the run as partial. Results already emitted
                        // by this task's earlier iterations are kept.
                        // ordering: Release — the fault flag must be visible before the
                        // pending slot it excuses is released.
                        shared.faulted.store(true, Ordering::Release);
                        if let Some(hooks) = shared.hooks {
                            hooks.lost(shared.root_of(&task));
                        }
                        shared.machines[machine_id].data.flush(&mut fetch_scratch);
                        shared.sub_active_bytes(mem);
                        // ordering: AcqRel — counter protocol: releases this task's pending
                        // slot after its effects are written.
                        shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
                        return;
                    }
                }
            }
        }
        let mut ctx = ComputeContext::new();
        // Loan the worker's arena to the application for this call.
        ctx.scratch = std::mem::take(scratch);
        let more = shared.app.compute(&mut task, &frontier, &mut ctx);
        *scratch = std::mem::take(&mut ctx.scratch);
        timings.merge(&ctx.timings);
        if ctx.interrupted {
            // The application observed the token and truncated this task.
            // ordering: Release — the truncated task's partial results are
            // published before the interruption becomes visible to the outcome
            // check.
            shared.interrupted.store(true, Ordering::Release);
        }
        shared.emit(|| shared.root_of(&task), ctx.results);
        for subtask in ctx.new_tasks {
            // ordering: AcqRel — counter protocol (see worker_loop's zero check):
            // the increment lands before the task becomes poppable.
            shared.pending_tasks.fetch_add(1, Ordering::AcqRel);
            // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
            shared.tasks_decomposed.fetch_add(1, Ordering::Relaxed);
            route_task(shared, machine_id, worker_id, subtask);
        }
        // The task's subgraph may have grown (iterations 1–2 materialise it).
        let new_mem = shared.app.task_memory_bytes(&task) as u64;
        if new_mem > mem {
            shared.add_active_bytes(new_mem - mem);
        } else {
            shared.sub_active_bytes(mem - new_mem);
        }
        mem = new_mem;
        if !more {
            break;
        }
    }
    let label = shared.app.task_label(&task);
    task_span.set_arg(label.root.map_or(0, |v| u64::from(v.raw())));
    if let Some(hooks) = shared.hooks {
        hooks.finished(label.root.map_or(ROOTLESS, |v| v.raw()));
    }
    shared.machines[machine_id].data.flush(&mut fetch_scratch);
    shared.sub_active_bytes(mem);
    // ordering: Relaxed — statistics counter; no other memory depends on it and readers tolerate skew.
    shared.tasks_processed.fetch_add(1, Ordering::Relaxed);
    shared
        .mining_nanos
        // ordering: Relaxed — timing statistics, read after join.
        .fetch_add(timings.mining.as_nanos() as u64, Ordering::Relaxed);
    shared
        .materialization_nanos
        // ordering: Relaxed — timing statistics, read after join.
        .fetch_add(timings.materialization.as_nanos() as u64, Ordering::Relaxed);
    shared.task_times.lock().push(TaskTimeRecord {
        root: label.root,
        subgraph_size: label.subgraph_size,
        elapsed: start.elapsed(),
        timings,
    });
    // ordering: AcqRel — counter protocol: releases this task's pending
    // slot after its effects are written.
    shared.pending_tasks.fetch_sub(1, Ordering::AcqRel);
}

/// The master's balancing decision, a pure function of each machine's
/// pending big-task depth (`None` for a machine that cannot take part, such
/// as a crashed one): the deepest machine donates to the shallowest when it
/// holds at least two more tasks, moving half the difference, capped at
/// `batch_size`. Returns `(rich, poor, count)`.
pub(crate) fn plan_steal(
    depths: &[Option<usize>],
    batch_size: usize,
) -> Option<(usize, usize, usize)> {
    let candidates = depths
        .iter()
        .enumerate()
        .filter_map(|(m, depth)| depth.map(|d| (m, d)));
    let (rich, rich_count) = candidates.clone().max_by_key(|&(_, d)| d)?;
    let (poor, poor_count) = candidates.min_by_key(|&(_, d)| d)?;
    if rich_count <= poor_count + 1 {
        return None;
    }
    let count = batch_size.min((rich_count - poor_count) / 2).max(1);
    Some((rich, poor, count))
}

/// One pass of the master load balancer (Section 5's stealing plan): reads
/// every machine's pending big-task depth and, when [`plan_steal`] finds an
/// imbalance, sends an [`EngineMsg::StealRequest`] to the rich machine on
/// the poor machine's behalf. The rich machine's step answers with an
/// [`EngineMsg::StealGrant`] carrying the serialised batch; the poor machine
/// decodes it into its big-task lane and acks. `up` says which machines may
/// take part. Queue depths are read through the shared locks — a
/// control-plane read the master performs directly, the way G-thinker's
/// master aggregates load reports.
pub(crate) fn balance<A: GThinkerApp>(shared: &SharedState<'_, A>, up: impl Fn(usize) -> bool) {
    let depths: Vec<Option<usize>> = shared
        .machines
        .iter()
        .enumerate()
        .map(|(m, state)| up(m).then(|| state.global_queue.lock().total_pending()))
        .collect();
    if let Some((rich, poor, count)) = plan_steal(&depths, shared.config.batch_size) {
        // ordering: Relaxed — unique sequence numbers only need RMW atomicity.
        let seq = shared.steal_seq.fetch_add(1, Ordering::Relaxed);
        let _ = shared.transport.send(
            poor,
            rich,
            EngineMsg::StealRequest {
                seq,
                count: count as u32,
            },
        );
    }
}

/// The master load-balancer thread: one [`balance`] pass every
/// `balance_period` until the run is done.
fn balancer_loop<A: GThinkerApp>(shared: &SharedState<'_, A>) {
    // ordering: Acquire — same pairing as the worker-loop `done` poll.
    while !shared.done.load(Ordering::Acquire) {
        qcm_sync::thread::sleep(shared.config.balance_period);
        balance(shared, |_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{ring, EchoApp};
    use crate::transport::TransportFactory;

    #[test]
    fn plan_steal_moves_half_the_gap_from_deepest_to_shallowest() {
        assert_eq!(plan_steal(&[Some(10), Some(2)], 16), Some((0, 1, 4)));
        // Capped at the batch size, at least one task.
        assert_eq!(plan_steal(&[Some(0), Some(40)], 4), Some((1, 0, 4)));
        assert_eq!(plan_steal(&[Some(3), Some(1)], 4), Some((0, 1, 1)));
        // A gap of one is not worth a round trip; nothing queued, nothing
        // to move.
        assert_eq!(plan_steal(&[Some(3), Some(2), Some(3)], 4), None);
        assert_eq!(plan_steal(&[Some(0), Some(0)], 4), None);
        // Machines that cannot take part are neither donors nor receivers.
        assert_eq!(plan_steal(&[Some(9), None, Some(5)], 4), Some((0, 2, 2)));
        assert_eq!(plan_steal(&[None, Some(9), None], 4), None);
    }

    /// Delivers everything queued for `to` to the handler, as sent by `from`.
    fn deliver(shared: &SharedState<'_, EchoApp>, from: usize, to: usize) -> Vec<EngineMsg> {
        let msgs: Vec<EngineMsg> = std::iter::from_fn(|| shared.transport.try_recv(to))
            .map(|env| env.msg)
            .collect();
        for msg in &msgs {
            let env = Envelope {
                from,
                msg: msg.clone(),
            };
            handle_message(shared, to, env);
        }
        msgs
    }

    #[test]
    fn handler_grants_acks_dedupes_and_resends_steals() {
        let config = EngineConfig::cluster(2, 1);
        let shared = SharedState::new(
            &EchoApp,
            &config,
            ring(8),
            TransportFactory::in_proc().build(2),
            None,
        );
        // Every EchoApp task is big, so each spawn batch stops after one
        // vertex; machine 0 queues its four roots in its big-task lane.
        while spawn_batch(&shared, 0, 0) {}
        balance(&shared, |_| true);
        assert_eq!(
            deliver(&shared, 1, 0),
            [EngineMsg::StealRequest { seq: 0, count: 2 }]
        );
        assert!(shared.has_unacked_grants(0));

        // The grant lands in machine 1's lane; resent, it is only acked again.
        let grant = shared.transport.try_recv(1).unwrap();
        shared.transport.send(0, 1, grant.msg.clone()).unwrap();
        shared.transport.send(0, 1, grant.msg).unwrap();
        deliver(&shared, 0, 1);
        assert_eq!(shared.machines[1].global_queue.lock().total_pending(), 2);
        assert_eq!(
            deliver(&shared, 1, 0),
            vec![EngineMsg::StealAck { seq: 0 }; 2]
        );
        assert!(!shared.has_unacked_grants(0));
        assert_eq!(resend_grant(&shared, 0, 0, 3), GrantFate::Acked);

        // An unacked grant is resent up to the budget, then given up.
        handle_message(
            &shared,
            0,
            Envelope {
                from: 1,
                msg: EngineMsg::StealRequest { seq: 7, count: 1 },
            },
        );
        assert_eq!(resend_grant(&shared, 0, 7, 1), GrantFate::Resent);
        assert_eq!(resend_grant(&shared, 0, 7, 1), GrantFate::Lost { to: 1 });
        assert!(!shared.has_unacked_grants(0));
    }

    #[test]
    fn step_spawns_processes_and_then_idles() {
        let config = EngineConfig::single_machine(1);
        let shared = SharedState::new(
            &EchoApp,
            &config,
            ring(8),
            TransportFactory::in_proc().build(1),
            None,
        );
        let mut scratch = MiningScratch::default();
        let steps: Vec<Step> = std::iter::repeat_with(|| step(&shared, 0, 0, &mut scratch))
            .take_while(|&s| s != Step::Idle)
            .collect();
        assert_eq!(steps, [Step::Spawned, Step::Processed].repeat(8));
        assert!(!shared.has_work(0));
        assert_eq!(shared.into_output().metrics.tasks_processed, 8);
    }
}
