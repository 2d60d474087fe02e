//! Deterministic discrete-event fault simulation of the engine.
//!
//! [`SimCluster`] runs a [`GThinkerApp`] over the same partitioned vertex
//! table as the live [`crate::cluster::Cluster`], but on a single thread in
//! *virtual time*: machines take turns according to a seeded discrete-event
//! scheduler, every cross-machine message goes through [`SimTransport`] (the
//! second [`Transport`] implementation) with configurable per-link latency and
//! drop probability, and a scenario script can crash, restart, slow down or
//! partition machines mid-run. The whole execution — including the random
//! latency jitter and message losses — derives from one seed, so a
//! 64-machine fault scenario replays byte-identically: the emitted event log
//! (and its FNV-1a hash) is the determinism witness the test suite asserts
//! on.
//!
//! Mechanics that differ from the live cluster, by design:
//!
//! * **Split-phase pulls.** The simulator is single-threaded, so a blocking
//!   [`Transport::pull`] would deadlock it; tasks park with their outstanding
//!   request set and resume when the responses arrive (exactly G-thinker's
//!   suspended-task model). [`SimTransport::pull`] therefore returns
//!   [`TransportError::Unsupported`].
//! * **Exactly-once results per root.** Every task is accounted to its
//!   spawning root ([`crate::task::TaskLabel::root`]). Lost work — a crashed
//!   machine's queue, an abandoned pull, a steal grant whose ack never came —
//!   marks the root *dirty*; once the event horizon drains, dirty roots are
//!   respawned from scratch at their owner (bounded by
//!   [`SimConfig::respawn_limit`]), with previously emitted results for that
//!   root discarded first. A root that cannot be respawned (owner down for
//!   good, limit hit) labels the run [`RunOutcome::Faulted`].
//! * **Virtual deadline.** Wall-clock cancellation tokens are ignored; the
//!   run is bounded by [`SimConfig::max_virtual_us`] instead, which also
//!   guarantees termination under adversarial drop/latency schedules.

use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::metrics::EngineMetrics;
use crate::task::{ComputeContext, Frontier, GThinkerApp, TaskCodec};
use crate::transport::{Envelope, MachineId, PullReply, Transport, TransportError, TransportStats};
use crate::vertex_table::{AdjList, PartitionedVertexTable};
use qcm_core::RunOutcome;
use qcm_graph::{Fnv1a64, Graph, NeighborhoodIndex, VertexId};
use qcm_sync::{Arc, Mutex};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::time::Duration;

/// Root key used for tasks whose application reports no spawning root; such
/// work cannot be respawned, so losing it is a permanent fault.
const ROOTLESS: u32 = u32::MAX;

/// A scripted fault applied to one machine at a virtual instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The machine dies: its queued and parked tasks, inbox and held steal
    /// grants are lost. Its vertex-table partition survives (re-readable
    /// state), so a later [`Fault::Restart`] resumes spawning where the
    /// cursor stopped.
    Crash,
    /// The machine comes back up (no-op if alive).
    Restart,
    /// Every subsequent compute/spawn step on the machine costs `factor`
    /// times as much virtual time (a straggler).
    SlowDown {
        /// Cost multiplier (clamped to at least 1).
        factor: u32,
    },
    /// The link between this machine and `peer` is severed in both
    /// directions; messages on it are dropped.
    Partition {
        /// The other end of the severed link.
        peer: usize,
    },
    /// Heals every severed link involving this machine.
    Heal,
}

/// One scenario entry: apply `fault` to `machine` at `at_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the fault, in microseconds.
    pub at_us: u64,
    /// The machine the fault applies to.
    pub machine: usize,
    /// The fault.
    pub fault: Fault,
}

/// Configuration of the deterministic fault simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed of the single RNG behind latency jitter and message drops. Same
    /// seed + same scenario ⇒ byte-identical event log.
    pub seed: u64,
    /// Base one-way link latency in virtual microseconds.
    pub link_latency_us: u64,
    /// Uniform jitter added on top of the base latency (`0..=jitter`).
    pub latency_jitter_us: u64,
    /// Probability that a message is dropped in flight (0.0 disables loss).
    pub drop_probability: f64,
    /// Per-attempt timeout of a split-phase pull, in virtual microseconds.
    pub pull_timeout_us: u64,
    /// Additional pull attempts after the first times out; exhaustion
    /// abandons the task and dirties its root.
    pub pull_retries: u32,
    /// Steal-grant retransmissions before the granting machine declares the
    /// batch lost and dirties the affected roots.
    pub grant_retries: u32,
    /// Virtual cost of one compute step.
    pub compute_cost_us: u64,
    /// Virtual cost of spawning one batch of root tasks.
    pub spawn_cost_us: u64,
    /// Period of the master's balancing pass (inter-machine big-task steal).
    pub balance_period_us: u64,
    /// How many times a dirty root may be respawned before its loss becomes
    /// a permanent fault.
    pub respawn_limit: u32,
    /// Hard virtual-time horizon; exceeding it labels the run
    /// [`RunOutcome::Faulted`] (the simulator's termination guarantee).
    pub max_virtual_us: u64,
    /// The scripted faults.
    pub scenario: Vec<FaultEvent>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            link_latency_us: 500,
            latency_jitter_us: 200,
            drop_probability: 0.0,
            pull_timeout_us: 10_000,
            pull_retries: 3,
            grant_retries: 3,
            compute_cost_us: 100,
            spawn_cost_us: 50,
            balance_period_us: 5_000,
            respawn_limit: 3,
            max_virtual_us: 60_000_000,
            scenario: Vec::new(),
        }
    }
}

impl SimConfig {
    /// A fault-free simulation with the given seed.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Mid-mine crash: `machine` dies at `crash_at_us` and, when
    /// `restart_at_us` is `Some`, comes back up then (permitting a complete
    /// run via root respawn); `None` leaves it down for good.
    pub fn crash_scenario(
        seed: u64,
        machine: usize,
        crash_at_us: u64,
        restart_at_us: Option<u64>,
    ) -> Self {
        let mut scenario = vec![FaultEvent {
            at_us: crash_at_us,
            machine,
            fault: Fault::Crash,
        }];
        if let Some(at) = restart_at_us {
            scenario.push(FaultEvent {
                at_us: at,
                machine,
                fault: Fault::Restart,
            });
        }
        SimConfig {
            seed,
            scenario,
            ..SimConfig::default()
        }
    }

    /// Slow straggler: `machine` runs `factor`× slower from `at_us` on.
    pub fn straggler_scenario(seed: u64, machine: usize, at_us: u64, factor: u32) -> Self {
        SimConfig {
            seed,
            scenario: vec![FaultEvent {
                at_us,
                machine,
                fault: Fault::SlowDown { factor },
            }],
            ..SimConfig::default()
        }
    }

    /// Partitioned steal victim: the link `a`–`b` is severed at `at_us` and
    /// healed at `heal_at_us` (if given).
    pub fn partition_scenario(
        seed: u64,
        a: usize,
        b: usize,
        at_us: u64,
        heal_at_us: Option<u64>,
    ) -> Self {
        let mut scenario = vec![FaultEvent {
            at_us,
            machine: a,
            fault: Fault::Partition { peer: b },
        }];
        if let Some(at) = heal_at_us {
            scenario.push(FaultEvent {
                at_us: at,
                machine: a,
                fault: Fault::Heal,
            });
        }
        SimConfig {
            seed,
            scenario,
            ..SimConfig::default()
        }
    }

    /// Overrides the drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Overrides the link latency and jitter.
    pub fn with_latency(mut self, base_us: u64, jitter_us: u64) -> Self {
        self.link_latency_us = base_us;
        self.latency_jitter_us = jitter_us;
        self
    }
}

/// SplitMix64: a tiny, well-distributed, seedable PRNG. Chosen over the
/// vendored `rand` stand-in because the sequence is documented and fixed —
/// the event log must replay byte-identically across releases.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=bound`.
    fn up_to(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % (bound + 1)
        }
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The discrete events driving the simulation.
#[derive(Clone, Debug)]
enum Event {
    /// One scheduling step on a machine (process a task or spawn a batch).
    Wake { machine: usize, epoch: u64 },
    /// A message arrives at its destination.
    Deliver { to: usize, env: Envelope },
    /// A parked task's pull attempt expires.
    PullTimeout {
        machine: usize,
        task_id: u64,
        attempt: u32,
    },
    /// A steal grant's ack did not arrive in time.
    AckTimeout { machine: usize, seq: u64 },
    /// Apply `scenario[idx]`.
    Fault { idx: usize },
    /// The master's balancing pass.
    Balance,
}

struct Scheduled {
    at: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The seeded event log: human-readable lines plus a running FNV-1a hash —
/// the replay-determinism witness.
#[derive(Default)]
struct EventLog {
    lines: Vec<String>,
    hash: Fnv1a64,
}

impl EventLog {
    fn push(&mut self, at: u64, line: String) {
        let full = format!("t={at:>10} {line}");
        self.hash.write(full.as_bytes());
        self.hash.write(b"\n");
        self.lines.push(full);
    }
}

/// Shared network state: virtual clock, event heap, mailboxes, link faults.
struct NetInner {
    machines: usize,
    clock: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<Scheduled>>,
    inboxes: Vec<VecDeque<Envelope>>,
    alive: Vec<bool>,
    severed: BTreeSet<(usize, usize)>,
    rng: SplitMix64,
    link_latency_us: u64,
    latency_jitter_us: u64,
    drop_probability: f64,
    log: EventLog,
    stats: TransportStats,
}

fn link_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl NetInner {
    fn schedule(&mut self, delay_us: u64, ev: Event) {
        let at = self.clock + delay_us.max(1);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, ev }));
    }

    fn send(&mut self, from: usize, to: usize, msg: EngineMsg) -> Result<(), TransportError> {
        if to >= self.machines {
            return Err(TransportError::Closed);
        }
        let kind = msg.kind();
        let bytes = msg.to_wire().len() as u64;
        self.stats.messages_sent += 1;
        self.stats.wire_bytes += bytes;
        let clock = self.clock;
        if self.severed.contains(&link_key(from, to)) {
            self.stats.messages_dropped += 1;
            self.log
                .push(clock, format!("drop m{from}->m{to} {kind} (partitioned)"));
            return Ok(());
        }
        if self.rng.chance(self.drop_probability) {
            self.stats.messages_dropped += 1;
            self.log
                .push(clock, format!("drop m{from}->m{to} {kind} (loss)"));
            return Ok(());
        }
        let latency = self.link_latency_us + self.rng.up_to(self.latency_jitter_us);
        self.log.push(
            clock,
            format!("send m{from}->m{to} {kind} {bytes}B +{latency}us"),
        );
        self.schedule(
            latency,
            Event::Deliver {
                to,
                env: Envelope { from, msg },
            },
        );
        Ok(())
    }
}

/// The simulator's [`Transport`]: messages go through the seeded
/// discrete-event network. Blocking pulls are unsupported (the simulation is
/// single-threaded); the driver uses split-phase pulls instead.
pub struct SimTransport {
    net: Arc<Mutex<NetInner>>,
}

impl SimTransport {
    fn net(&self) -> qcm_sync::MutexGuard<'_, NetInner> {
        self.net.lock()
    }
}

impl Transport for SimTransport {
    fn machines(&self) -> usize {
        self.net().machines
    }

    fn send(&self, from: MachineId, to: MachineId, msg: EngineMsg) -> Result<(), TransportError> {
        self.net().send(from, to, msg)
    }

    fn try_recv(&self, machine: MachineId) -> Option<Envelope> {
        self.net().inboxes.get_mut(machine)?.pop_front()
    }

    fn pull(
        &self,
        _from: MachineId,
        _owner: MachineId,
        _vertices: &[VertexId],
        _timeout: Duration,
    ) -> Result<PullReply, TransportError> {
        Err(TransportError::Unsupported)
    }

    fn stats(&self) -> TransportStats {
        self.net().stats
    }
}

/// A task parked on outstanding pulls.
struct Parked {
    frontier: Frontier,
    /// Owner machine → vertices still awaited from it.
    outstanding: BTreeMap<usize, Vec<VertexId>>,
    attempt: u32,
}

struct TaskState<T> {
    task: T,
    root: u32,
    parked: Option<Parked>,
}

/// A steal grant awaiting its ack; the blobs are kept for retransmission.
struct PendingGrant {
    to: usize,
    blobs: Vec<Vec<u8>>,
    roots: Vec<u32>,
    retries: u32,
}

struct SimMachine<T> {
    queue: VecDeque<u64>,
    tasks: BTreeMap<u64, TaskState<T>>,
    cursor: VecDeque<VertexId>,
    wake_scheduled: bool,
    /// Incremented on crash so stale Wake events are ignored.
    epoch: u64,
    /// Compute-cost multiplier (stragglers run slower).
    speed: u64,
    pending_grants: BTreeMap<u64, PendingGrant>,
    seen_grants: BTreeSet<u64>,
}

impl<T> SimMachine<T> {
    fn new(cursor: VecDeque<VertexId>) -> Self {
        SimMachine {
            queue: VecDeque::new(),
            tasks: BTreeMap::new(),
            cursor,
            wake_scheduled: false,
            epoch: 0,
            speed: 1,
            pending_grants: BTreeMap::new(),
            seen_grants: BTreeSet::new(),
        }
    }

    fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.cursor.is_empty()
    }
}

/// Output of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Result rows, flattened in root-id order (exactly-once per root).
    pub results: Vec<Vec<VertexId>>,
    /// Run metrics; `virtual_time` is set and `elapsed` is the (irrelevant
    /// for benchmarking) wall time of the simulation itself.
    pub metrics: EngineMetrics,
    /// The run outcome (also in `metrics.outcome`).
    pub outcome: RunOutcome,
    /// The seeded event log.
    pub event_log: Vec<String>,
    /// FNV-1a hash over the event-log lines — the replay-determinism witness.
    pub log_hash: u64,
    /// Final virtual clock in microseconds.
    pub virtual_us: u64,
    /// The neighborhood index the run served edge queries through.
    pub index: Option<Arc<NeighborhoodIndex>>,
    /// Roots whose work did not run to completion, in id order: lost for
    /// good, never spawned, or still in flight when the run ended. Empty
    /// when the run is `Complete`. A lost task without a root could belong
    /// to any root, so it puts every vertex on the list.
    pub unfinished_roots: Vec<VertexId>,
}

/// A deterministic simulated cluster executing one application under a fault
/// scenario.
pub struct SimCluster<A: GThinkerApp> {
    app: Arc<A>,
    engine: EngineConfig,
    sim: SimConfig,
}

impl<A: GThinkerApp> SimCluster<A> {
    /// Creates the simulated cluster. The cluster shape (machines) comes from
    /// `engine`; thread counts are not modelled — each machine performs one
    /// scheduling step per wake.
    pub fn new(app: Arc<A>, engine: EngineConfig, sim: SimConfig) -> Self {
        engine.validate();
        SimCluster { app, engine, sim }
    }

    /// Runs the application over `graph` in virtual time under the scenario.
    pub fn run(&self, graph: Arc<Graph>) -> SimOutput {
        let wall_start = qcm_obs::clock::now();
        let (index, shared_index_reused) = match &self.engine.shared_index {
            Some(shared) if Arc::ptr_eq(shared.graph(), &graph) => (shared.clone(), true),
            _ => (
                Arc::new(NeighborhoodIndex::build(graph, self.engine.index)),
                false,
            ),
        };
        let table = PartitionedVertexTable::with_index(index.clone(), self.engine.num_machines);
        let machines = self.engine.num_machines;

        let net = Arc::new(Mutex::new(NetInner {
            machines,
            clock: 0,
            next_seq: 0,
            heap: BinaryHeap::new(),
            inboxes: (0..machines).map(|_| VecDeque::new()).collect(),
            alive: vec![true; machines],
            severed: BTreeSet::new(),
            rng: SplitMix64::new(self.sim.seed),
            link_latency_us: self.sim.link_latency_us,
            latency_jitter_us: self.sim.latency_jitter_us,
            drop_probability: self.sim.drop_probability,
            log: EventLog::default(),
            stats: TransportStats::default(),
        }));
        let transport = SimTransport { net: net.clone() };

        let mut driver = Driver {
            app: self.app.as_ref(),
            engine: &self.engine,
            sim: &self.sim,
            table: &table,
            net,
            transport,
            machines: (0..machines)
                .map(|m| SimMachine::new(table.owned_vertices(m).into()))
                .collect(),
            live: BTreeMap::new(),
            dirty: BTreeSet::new(),
            lost: BTreeSet::new(),
            respawns: BTreeMap::new(),
            results: BTreeMap::new(),
            outstanding_pulls: BTreeMap::new(),
            next_task: 0,
            next_token: 0,
            next_steal_seq: 0,
            balance_scheduled: false,
            tasks_spawned: 0,
            tasks_processed: 0,
            tasks_decomposed: 0,
            stolen_tasks: 0,
            pull_retry_count: 0,
            pull_failure_count: 0,
            local_reads: 0,
            remote_fetches: 0,
            faulted: false,
            interrupted: false,
        };
        driver.run();
        let unfinished_roots = driver.unfinished_roots();

        let (virtual_us, stats, lines, hash) = {
            let mut net = driver.net.lock();
            let log = std::mem::take(&mut net.log);
            (net.clock, net.stats, log.lines, log.hash.finish())
        };
        let outcome = if driver.faulted {
            RunOutcome::Faulted
        } else if driver.interrupted {
            RunOutcome::Cancelled
        } else {
            RunOutcome::Complete
        };
        let results: Vec<Vec<VertexId>> = driver.results.into_values().flatten().collect();
        let metrics = EngineMetrics {
            elapsed: wall_start.elapsed(),
            shared_index_reused,
            tasks_spawned: driver.tasks_spawned,
            tasks_processed: driver.tasks_processed,
            tasks_decomposed: driver.tasks_decomposed,
            results_emitted: results.len() as u64,
            local_reads: driver.local_reads,
            remote_fetches: driver.remote_fetches,
            remote_bytes: stats.wire_bytes,
            pull_retries: driver.pull_retry_count,
            pull_failures: driver.pull_failure_count,
            transport_messages: stats.messages_sent,
            transport_dropped: stats.messages_dropped,
            virtual_time: Some(Duration::from_micros(virtual_us)),
            stolen_tasks: driver.stolen_tasks,
            outcome,
            ..EngineMetrics::default()
        };
        SimOutput {
            results,
            metrics,
            outcome,
            event_log: lines,
            log_hash: hash,
            virtual_us,
            index: Some(index),
            unfinished_roots,
        }
    }
}

struct Driver<'a, A: GThinkerApp> {
    app: &'a A,
    engine: &'a EngineConfig,
    sim: &'a SimConfig,
    table: &'a PartitionedVertexTable,
    net: Arc<Mutex<NetInner>>,
    transport: SimTransport,
    machines: Vec<SimMachine<A::Task>>,
    /// Per-root live task balance; a root is drained when its count ≤ 0.
    live: BTreeMap<u32, i64>,
    /// Roots that lost work and must be respawned.
    dirty: BTreeSet<u32>,
    /// Roots whose lost work can never be respawned.
    lost: BTreeSet<u32>,
    respawns: BTreeMap<u32, u32>,
    /// Result rows keyed by root — discarded wholesale on respawn, so every
    /// root contributes exactly once.
    results: BTreeMap<u32, Vec<Vec<VertexId>>>,
    /// Pull token → (requesting machine, task id).
    outstanding_pulls: BTreeMap<u64, (usize, u64)>,
    next_task: u64,
    next_token: u64,
    next_steal_seq: u64,
    balance_scheduled: bool,
    tasks_spawned: u64,
    tasks_processed: u64,
    tasks_decomposed: u64,
    stolen_tasks: u64,
    pull_retry_count: u64,
    pull_failure_count: u64,
    local_reads: u64,
    remote_fetches: u64,
    faulted: bool,
    interrupted: bool,
}

impl<'a, A: GThinkerApp> Driver<'a, A> {
    fn net(&self) -> qcm_sync::MutexGuard<'_, NetInner> {
        self.net.lock()
    }

    fn log(&self, line: String) {
        let mut net = self.net();
        let clock = net.clock;
        net.log.push(clock, line);
    }

    fn schedule(&self, delay_us: u64, ev: Event) {
        self.net().schedule(delay_us, ev);
    }

    fn ensure_wake(&mut self, m: usize) {
        let alive = self.net().alive[m];
        let mach = &mut self.machines[m];
        if alive && !mach.wake_scheduled && mach.has_work() {
            mach.wake_scheduled = true;
            let epoch = mach.epoch;
            self.schedule(1, Event::Wake { machine: m, epoch });
        }
    }

    fn ensure_balance(&mut self) {
        if self.machines.len() > 1 && !self.balance_scheduled {
            self.balance_scheduled = true;
            self.schedule(self.sim.balance_period_us, Event::Balance);
        }
    }

    fn run(&mut self) {
        for m in 0..self.machines.len() {
            self.ensure_wake(m);
        }
        for idx in 0..self.sim.scenario.len() {
            let at = self.sim.scenario[idx].at_us;
            self.schedule(at, Event::Fault { idx });
        }
        self.ensure_balance();

        loop {
            let next = self.net().heap.pop();
            match next {
                Some(Reverse(Scheduled { at, ev, .. })) => {
                    if at > self.sim.max_virtual_us {
                        self.faulted = true;
                        self.log(format!(
                            "horizon exceeded at {at}us (max {})",
                            self.sim.max_virtual_us
                        ));
                        break;
                    }
                    self.net().clock = at;
                    self.handle(ev);
                }
                None => {
                    if !self.respawn_round() {
                        break;
                    }
                }
            }
        }
        self.finalize();
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Wake { machine, epoch } => self.on_wake(machine, epoch),
            Event::Deliver { to, env } => self.on_deliver(to, env),
            Event::PullTimeout {
                machine,
                task_id,
                attempt,
            } => self.on_pull_timeout(machine, task_id, attempt),
            Event::AckTimeout { machine, seq } => self.on_ack_timeout(machine, seq),
            Event::Fault { idx } => self.on_fault(idx),
            Event::Balance => self.on_balance(),
        }
    }

    fn on_wake(&mut self, m: usize, epoch: u64) {
        if self.machines[m].epoch != epoch {
            return; // stale wake from before a crash
        }
        self.machines[m].wake_scheduled = false;
        if !self.net().alive[m] {
            return;
        }
        let cost = if let Some(tid) = self.machines[m].queue.pop_front() {
            self.step_task(m, tid)
        } else if !self.machines[m].cursor.is_empty() {
            self.spawn_batch(m)
        } else {
            return; // idle: a delivery or restart re-wakes the machine
        };
        let mach = &mut self.machines[m];
        if mach.has_work() {
            mach.wake_scheduled = true;
            let epoch = mach.epoch;
            self.schedule(cost.max(1), Event::Wake { machine: m, epoch });
        } else {
            // Re-wake once the in-flight step cost elapses anyway: parked
            // tasks or late deliveries may need the machine again, and the
            // deliver path also wakes it.
        }
    }

    /// Registers freshly created tasks on machine `m`.
    fn register_tasks(&mut self, m: usize, new_tasks: Vec<A::Task>, decomposed: bool) {
        for task in new_tasks {
            let root = self
                .app
                .task_label(&task)
                .root
                .map(|v| v.raw())
                .unwrap_or(ROOTLESS);
            *self.live.entry(root).or_insert(0) += 1;
            if decomposed {
                self.tasks_decomposed += 1;
            } else {
                self.tasks_spawned += 1;
            }
            let tid = self.next_task;
            self.next_task += 1;
            self.machines[m].tasks.insert(
                tid,
                TaskState {
                    task,
                    root,
                    parked: None,
                },
            );
            self.machines[m].queue.push_back(tid);
        }
    }

    fn record_results(&mut self, root: u32, rows: Vec<Vec<VertexId>>) {
        if !rows.is_empty() {
            self.results.entry(root).or_default().extend(rows);
        }
    }

    fn spawn_batch(&mut self, m: usize) -> u64 {
        for _ in 0..self.engine.batch_size {
            let Some(v) = self.machines[m].cursor.pop_front() else {
                break;
            };
            let adj = self.table.adjacency(v).to_vec();
            let mut ctx = ComputeContext::new();
            self.app.spawn(v, &adj, &mut ctx);
            self.interrupted |= ctx.interrupted;
            self.record_results(v.raw(), ctx.results);
            self.register_tasks(m, ctx.new_tasks, false);
        }
        self.sim.spawn_cost_us * self.machines[m].speed
    }

    /// One scheduling step for task `tid` on machine `m`; returns its virtual
    /// cost.
    fn step_task(&mut self, m: usize, tid: u64) -> u64 {
        let Some(state) = self.machines[m].tasks.get_mut(&tid) else {
            return 1; // stolen or lost since it was queued
        };
        // A parked task re-queued by the last pull response computes with its
        // assembled frontier; otherwise resolve this iteration's pulls.
        let frontier = if let Some(parked) = state.parked.take() {
            debug_assert!(parked.outstanding.is_empty());
            parked.frontier
        } else {
            let mut frontier = Frontier::new();
            let mut remote: BTreeMap<usize, Vec<VertexId>> = BTreeMap::new();
            for &v in self.app.pending_pulls(&state.task) {
                let owner = self.table.owner(v);
                if owner == m {
                    self.local_reads += 1;
                    frontier.insert(v, AdjList::Shared(self.table.graph().clone(), v));
                } else {
                    self.remote_fetches += 1;
                    remote.entry(owner).or_default().push(v);
                }
            }
            if !remote.is_empty() {
                // Park: send one pull request per owner, arm the timeout.
                let state = self.machines[m].tasks.get_mut(&tid).expect("task exists");
                state.parked = Some(Parked {
                    frontier,
                    outstanding: remote.clone(),
                    attempt: 0,
                });
                for (owner, vertices) in remote {
                    let token = self.next_token;
                    self.next_token += 1;
                    self.outstanding_pulls.insert(token, (m, tid));
                    let _ =
                        self.transport
                            .send(m, owner, EngineMsg::PullRequest { token, vertices });
                }
                self.schedule(
                    self.sim.pull_timeout_us,
                    Event::PullTimeout {
                        machine: m,
                        task_id: tid,
                        attempt: 0,
                    },
                );
                return self.sim.spawn_cost_us * self.machines[m].speed;
            }
            frontier
        };

        let state = self.machines[m].tasks.get_mut(&tid).expect("task exists");
        let root = state.root;
        let mut ctx = ComputeContext::new();
        let more = self.app.compute(&mut state.task, &frontier, &mut ctx);
        self.interrupted |= ctx.interrupted;
        self.record_results(root, ctx.results);
        self.register_tasks(m, ctx.new_tasks, true);
        if more {
            self.machines[m].queue.push_back(tid);
        } else {
            self.machines[m].tasks.remove(&tid);
            self.tasks_processed += 1;
            *self.live.entry(root).or_insert(0) -= 1;
        }
        self.sim.compute_cost_us * self.machines[m].speed
    }

    fn on_deliver(&mut self, to: usize, env: Envelope) {
        if !self.net().alive[to] {
            let mut net = self.net();
            net.stats.messages_dropped += 1;
            let clock = net.clock;
            let kind = env.msg.kind();
            let from = env.from;
            net.log
                .push(clock, format!("lost m{from}->m{to} {kind} (down)"));
            return;
        }
        // Route through the transport mailbox so the trait surface is the
        // real delivery path, then handle immediately (control messages are
        // processed by the machine's communication layer, not its workers).
        self.net().inboxes[to].push_back(env);
        while let Some(env) = self.transport.try_recv(to) {
            self.handle_message(to, env);
        }
    }

    fn handle_message(&mut self, m: usize, env: Envelope) {
        let from = env.from;
        match env.msg {
            EngineMsg::PullRequest { token, vertices } => {
                let lists: PullReply = vertices
                    .iter()
                    .map(|&v| (v, Arc::new(self.table.adjacency(v).to_vec())))
                    .collect();
                let _ = self
                    .transport
                    .send(m, from, EngineMsg::PullResponse { token, lists });
            }
            EngineMsg::PullResponse { token, lists } => {
                let Some((machine, tid)) = self.outstanding_pulls.remove(&token) else {
                    self.log(format!("stale pull-resp token={token} at m{m}"));
                    return;
                };
                debug_assert_eq!(machine, m);
                let Some(state) = self.machines[m].tasks.get_mut(&tid) else {
                    return; // task abandoned or lost meanwhile
                };
                let Some(parked) = state.parked.as_mut() else {
                    return;
                };
                for (v, adj) in lists {
                    parked.frontier.insert(v, AdjList::Owned(adj));
                }
                parked.outstanding.remove(&from);
                if parked.outstanding.is_empty() {
                    self.machines[m].queue.push_back(tid);
                    self.ensure_wake(m);
                }
            }
            EngineMsg::StealRequest { seq, count } => {
                let mut blobs = Vec::new();
                let mut roots = Vec::new();
                for _ in 0..count {
                    // Steal from the cold (back) end of the queue.
                    let Some(tid) = self.machines[m].queue.pop_back() else {
                        break;
                    };
                    let Some(state) = self.machines[m].tasks.remove(&tid) else {
                        continue;
                    };
                    let mut buf = Vec::new();
                    state.task.encode(&mut buf);
                    blobs.push(buf);
                    roots.push(state.root);
                }
                if blobs.is_empty() {
                    return;
                }
                self.machines[m].pending_grants.insert(
                    seq,
                    PendingGrant {
                        to: from,
                        blobs: blobs.clone(),
                        roots,
                        retries: 0,
                    },
                );
                let _ = self
                    .transport
                    .send(m, from, EngineMsg::StealGrant { seq, tasks: blobs });
                self.schedule(
                    self.sim.pull_timeout_us,
                    Event::AckTimeout { machine: m, seq },
                );
            }
            EngineMsg::StealGrant { seq, tasks } => {
                if self.machines[m].seen_grants.contains(&seq) {
                    // Duplicate (our ack was lost): just re-ack.
                    let _ = self.transport.send(m, from, EngineMsg::StealAck { seq });
                    return;
                }
                self.machines[m].seen_grants.insert(seq);
                let mut decoded = Vec::with_capacity(tasks.len());
                for blob in &tasks {
                    let mut slice = blob.as_slice();
                    match <A::Task as TaskCodec>::decode(&mut slice) {
                        Some(t) => decoded.push(t),
                        None => {
                            // Undecodable stolen task: its root is unknowable
                            // here, so the loss is unrecoverable.
                            self.faulted = true;
                            self.log(format!("undecodable stolen task in seq={seq}"));
                        }
                    }
                }
                let n = decoded.len() as u64;
                for task in decoded {
                    // The task was already counted live by its origin machine;
                    // re-register without touching the live balance.
                    let tid = self.next_task;
                    self.next_task += 1;
                    let root = self
                        .app
                        .task_label(&task)
                        .root
                        .map(|v| v.raw())
                        .unwrap_or(ROOTLESS);
                    self.machines[m].tasks.insert(
                        tid,
                        TaskState {
                            task,
                            root,
                            parked: None,
                        },
                    );
                    self.machines[m].queue.push_back(tid);
                }
                self.stolen_tasks += n;
                let _ = self.transport.send(m, from, EngineMsg::StealAck { seq });
                self.ensure_wake(m);
            }
            EngineMsg::StealAck { seq } => {
                self.machines[m].pending_grants.remove(&seq);
            }
            EngineMsg::SpillNotice { .. } | EngineMsg::RefillNotice { .. } => {
                // The sim's queues are unbounded; notices are log-only.
            }
            EngineMsg::Shutdown => {}
        }
    }

    fn on_pull_timeout(&mut self, m: usize, tid: u64, attempt: u32) {
        let Some(state) = self.machines[m].tasks.get_mut(&tid) else {
            return;
        };
        let Some(parked) = state.parked.as_mut() else {
            return;
        };
        if parked.attempt != attempt || parked.outstanding.is_empty() {
            return; // resolved or already retried
        }
        if attempt < self.sim.pull_retries {
            parked.attempt = attempt + 1;
            let resend: Vec<(usize, Vec<VertexId>)> = parked
                .outstanding
                .iter()
                .map(|(&o, vs)| (o, vs.clone()))
                .collect();
            self.pull_retry_count += resend.len() as u64;
            for (owner, vertices) in resend {
                let token = self.next_token;
                self.next_token += 1;
                self.outstanding_pulls.insert(token, (m, tid));
                let _ = self
                    .transport
                    .send(m, owner, EngineMsg::PullRequest { token, vertices });
            }
            self.schedule(
                self.sim.pull_timeout_us,
                Event::PullTimeout {
                    machine: m,
                    task_id: tid,
                    attempt: attempt + 1,
                },
            );
        } else {
            // Retry budget exhausted: abandon the task, dirty its root.
            let root = state.root;
            self.machines[m].tasks.remove(&tid);
            self.pull_failure_count += 1;
            *self.live.entry(root).or_insert(0) -= 1;
            self.dirty.insert(root);
            self.log(format!(
                "abandon task={tid} root={root} (pull timeout) at m{m}"
            ));
        }
    }

    fn on_ack_timeout(&mut self, m: usize, seq: u64) {
        if !self.net().alive[m] {
            return; // crash already accounted for the held grants
        }
        let Some(grant) = self.machines[m].pending_grants.get_mut(&seq) else {
            return; // acked
        };
        if grant.retries < self.sim.grant_retries {
            grant.retries += 1;
            let to = grant.to;
            let blobs = grant.blobs.clone();
            let _ = self
                .transport
                .send(m, to, EngineMsg::StealGrant { seq, tasks: blobs });
            self.schedule(
                self.sim.pull_timeout_us,
                Event::AckTimeout { machine: m, seq },
            );
        } else {
            let grant = self.machines[m]
                .pending_grants
                .remove(&seq)
                .expect("grant present");
            self.log(format!(
                "steal-grant seq={seq} m{m}->m{} lost after retries",
                grant.to
            ));
            for root in grant.roots {
                *self.live.entry(root).or_insert(0) -= 1;
                self.dirty.insert(root);
            }
        }
    }

    fn on_fault(&mut self, idx: usize) {
        let FaultEvent {
            machine: m, fault, ..
        } = self.sim.scenario[idx];
        match fault {
            Fault::Crash => {
                if !self.net().alive[m] {
                    return;
                }
                self.net().alive[m] = false;
                self.net().inboxes[m].clear();
                self.log(format!("fault crash m{m}"));
                let mach = &mut self.machines[m];
                mach.queue.clear();
                mach.wake_scheduled = false;
                mach.epoch += 1;
                let lost: Vec<u32> = mach.tasks.values().map(|t| t.root).collect();
                mach.tasks.clear();
                let grants: Vec<PendingGrant> = std::mem::take(&mut mach.pending_grants)
                    .into_values()
                    .collect();
                for root in lost {
                    *self.live.entry(root).or_insert(0) -= 1;
                    self.dirty.insert(root);
                }
                for grant in grants {
                    for root in grant.roots {
                        *self.live.entry(root).or_insert(0) -= 1;
                        self.dirty.insert(root);
                    }
                }
            }
            Fault::Restart => {
                if self.net().alive[m] {
                    return;
                }
                self.net().alive[m] = true;
                self.log(format!("fault restart m{m}"));
                self.ensure_wake(m);
                self.ensure_balance();
            }
            Fault::SlowDown { factor } => {
                self.machines[m].speed = factor.max(1) as u64;
                self.log(format!("fault slowdown m{m} x{factor}"));
            }
            Fault::Partition { peer } => {
                self.net().severed.insert(link_key(m, peer));
                self.log(format!("fault partition m{m}--m{peer}"));
            }
            Fault::Heal => {
                self.net().severed.retain(|&(a, b)| a != m && b != m);
                self.log(format!("fault heal m{m}"));
            }
        }
    }

    fn on_balance(&mut self) {
        self.balance_scheduled = false;
        let alive = self.net().alive.clone();
        let counts: Vec<usize> = self
            .machines
            .iter()
            .enumerate()
            .map(|(i, mch)| if alive[i] { mch.queue.len() } else { 0 })
            .collect();
        let total: usize = counts.iter().sum();
        if total > 0 {
            let candidates: Vec<(usize, usize)> = counts
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| alive[i])
                .collect();
            if candidates.len() > 1 {
                let &(rich, rich_count) = candidates
                    .iter()
                    .max_by_key(|&&(_, c)| c)
                    .expect("nonempty");
                let &(poor, poor_count) = candidates
                    .iter()
                    .min_by_key(|&&(_, c)| c)
                    .expect("nonempty");
                if rich != poor && rich_count > poor_count + 1 {
                    let count = self
                        .engine
                        .batch_size
                        .min((rich_count - poor_count) / 2)
                        .max(1) as u32;
                    let seq = self.next_steal_seq;
                    self.next_steal_seq += 1;
                    let _ = self
                        .transport
                        .send(poor, rich, EngineMsg::StealRequest { seq, count });
                }
            }
        }
        let pending = (0..self.machines.len()).any(|i| {
            alive[i]
                && (self.machines[i].has_work()
                    || !self.machines[i].tasks.is_empty()
                    || !self.machines[i].pending_grants.is_empty())
        });
        if pending {
            self.ensure_balance();
        }
    }

    /// Called when the event heap drains: respawn dirty roots if possible.
    /// Returns true when new work was scheduled.
    fn respawn_round(&mut self) -> bool {
        let mut progress = false;
        let dirty: Vec<u32> = self.dirty.iter().copied().collect();
        for root in dirty {
            self.dirty.remove(&root);
            if root == ROOTLESS {
                self.faulted = true;
                self.lost.insert(root);
                self.log("permanent loss: rootless task".to_string());
                continue;
            }
            let v = VertexId::new(root);
            let owner = self.table.owner(v);
            if !self.net().alive[owner] {
                // No events remain, so the owner can never come back.
                self.faulted = true;
                self.lost.insert(root);
                self.log(format!("permanent loss: root={root} owner m{owner} down"));
                continue;
            }
            let attempts = self.respawns.get(&root).copied().unwrap_or(0);
            if attempts >= self.sim.respawn_limit {
                self.faulted = true;
                self.lost.insert(root);
                self.log(format!("permanent loss: root={root} respawn limit"));
                continue;
            }
            self.respawns.insert(root, attempts + 1);
            // Discard the root's partial results and re-mine from scratch —
            // exactly-once results per root.
            self.results.remove(&root);
            self.live.remove(&root);
            self.log(format!("respawn root={root} at m{owner}"));
            let adj = self.table.adjacency(v).to_vec();
            let mut ctx = ComputeContext::new();
            self.app.spawn(v, &adj, &mut ctx);
            self.interrupted |= ctx.interrupted;
            self.record_results(root, ctx.results);
            self.register_tasks(owner, ctx.new_tasks, false);
            self.ensure_wake(owner);
            progress = true;
        }
        if !progress {
            // Defensive: an alive machine with work but no wake means a
            // bookkeeping bug; re-arm rather than exit with work pending.
            for m in 0..self.machines.len() {
                if self.net().alive[m] && self.machines[m].has_work() {
                    self.ensure_wake(m);
                    if self.machines[m].wake_scheduled {
                        progress = true;
                    }
                }
            }
        }
        if progress {
            self.ensure_balance();
        }
        progress
    }

    /// See [`SimOutput::unfinished_roots`].
    fn unfinished_roots(&self) -> Vec<VertexId> {
        let mut roots: BTreeSet<u32> = self.lost.union(&self.dirty).copied().collect();
        roots.extend(self.live.iter().filter(|&(_, &n)| n > 0).map(|(&r, _)| r));
        for mach in &self.machines {
            roots.extend(mach.cursor.iter().map(|v| v.raw()));
            roots.extend(mach.tasks.values().map(|t| t.root));
        }
        if roots.contains(&ROOTLESS) {
            return self.table.graph().vertices().collect();
        }
        roots.into_iter().map(VertexId::new).collect()
    }

    fn finalize(&mut self) {
        // Anything still undone at exit is dropped work.
        for m in 0..self.machines.len() {
            if !self.machines[m].cursor.is_empty() || !self.machines[m].tasks.is_empty() {
                self.faulted = true;
            }
        }
        if !self.dirty.is_empty() || self.live.values().any(|&n| n > 0) {
            self.faulted = true;
        }
        let outcome = if self.faulted {
            "faulted"
        } else if self.interrupted {
            "interrupted"
        } else {
            "complete"
        };
        self.log(format!(
            "end outcome={outcome} spawned={} processed={} stolen={}",
            self.tasks_spawned, self.tasks_processed, self.stolen_tasks
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskLabel;

    /// A toy app: each vertex spawns one task that pulls the root's
    /// neighbors, then emits `[v, max_neighbor]` for every neighbor larger
    /// than the root. Pull-heavy enough to exercise the split-phase path.
    struct EchoApp;

    #[derive(Clone, Debug)]
    struct EchoTask {
        root: VertexId,
        pulls: Vec<VertexId>,
    }

    impl TaskCodec for EchoTask {
        fn encode(&self, buf: &mut Vec<u8>) {
            crate::codec::put_u32(buf, self.root.raw());
            crate::codec::put_u32(buf, self.pulls.len() as u32);
            for v in &self.pulls {
                crate::codec::put_u32(buf, v.raw());
            }
        }
        fn decode(data: &mut &[u8]) -> Option<Self> {
            let root = VertexId::new(crate::codec::take_u32(data)?);
            let n = crate::codec::take_u32(data)? as usize;
            let mut pulls = Vec::with_capacity(n);
            for _ in 0..n {
                pulls.push(VertexId::new(crate::codec::take_u32(data)?));
            }
            Some(EchoTask { root, pulls })
        }
    }

    impl GThinkerApp for EchoApp {
        type Task = EchoTask;

        fn spawn(&self, v: VertexId, adj: &[VertexId], ctx: &mut ComputeContext<Self::Task>) {
            if !adj.is_empty() {
                ctx.add_task(EchoTask {
                    root: v,
                    pulls: adj.to_vec(),
                });
            }
        }

        fn pending_pulls<'t>(&self, task: &'t Self::Task) -> &'t [VertexId] {
            &task.pulls
        }

        fn compute(
            &self,
            task: &mut Self::Task,
            frontier: &Frontier,
            ctx: &mut ComputeContext<Self::Task>,
        ) -> bool {
            for (u, adj) in frontier.iter() {
                if u > task.root && !adj.is_empty() {
                    ctx.emit(vec![task.root, u]);
                }
            }
            task.pulls.clear();
            false
        }

        fn is_big(&self, _task: &Self::Task) -> bool {
            true
        }

        fn task_label(&self, task: &Self::Task) -> TaskLabel {
            TaskLabel {
                root: Some(task.root),
                subgraph_size: task.pulls.len(),
            }
        }
    }

    fn ring(n: u32) -> Arc<Graph> {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Arc::new(Graph::from_edges(n as usize, edges).unwrap())
    }

    fn expected_rows(g: &Graph) -> usize {
        let mut count = 0;
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if u > v && !g.neighbors(u).is_empty() {
                    count += 1;
                }
            }
        }
        count
    }

    fn run(engine: EngineConfig, sim: SimConfig, g: Arc<Graph>) -> SimOutput {
        SimCluster::new(Arc::new(EchoApp), engine, sim).run(g)
    }

    #[test]
    fn fault_free_sim_completes_with_all_results() {
        let g = ring(24);
        let out = run(EngineConfig::cluster(4, 1), SimConfig::new(7), g.clone());
        assert_eq!(out.outcome, RunOutcome::Complete);
        assert_eq!(out.results.len(), expected_rows(&g));
        assert!(out.virtual_us > 0);
        assert_eq!(
            out.metrics.virtual_time,
            Some(Duration::from_micros(out.virtual_us))
        );
        assert!(out.metrics.transport_messages > 0);
    }

    #[test]
    fn sixty_four_machine_crash_scenario_replays_byte_identically() {
        let g = ring(192);
        let engine = EngineConfig::cluster(64, 1);
        let sim = SimConfig::crash_scenario(42, 5, 3_000, Some(40_000));
        let a = run(engine.clone(), sim.clone(), g.clone());
        let b = run(engine, sim, g);
        assert_eq!(a.log_hash, b.log_hash, "same seed must replay identically");
        assert_eq!(a.event_log, b.event_log);
        assert_eq!(a.results, b.results);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn different_seeds_diverge() {
        let g = ring(32);
        let engine = EngineConfig::cluster(8, 1);
        let a = run(
            engine.clone(),
            SimConfig::new(1).with_drop_probability(0.2),
            g.clone(),
        );
        let b = run(engine, SimConfig::new(2).with_drop_probability(0.2), g);
        assert_ne!(a.log_hash, b.log_hash);
    }

    #[test]
    fn crash_with_restart_recovers_to_complete() {
        let g = ring(24);
        let baseline = run(EngineConfig::cluster(3, 1), SimConfig::new(9), g.clone());
        assert_eq!(baseline.outcome, RunOutcome::Complete);
        let out = run(
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(9, 1, 2_000, Some(30_000)),
            g.clone(),
        );
        assert_eq!(
            out.outcome,
            RunOutcome::Complete,
            "restart permits completion"
        );
        let mut a = baseline.results.clone();
        let mut b = out.results.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "recovered run must match the fault-free result set");
    }

    #[test]
    fn crash_without_restart_is_faulted_and_partial() {
        let g = ring(24);
        let out = run(
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(11, 1, 1_500, None),
            g,
        );
        assert_eq!(out.outcome, RunOutcome::Faulted);
    }

    #[test]
    fn every_root_off_the_unfinished_list_reported_all_its_rows() {
        let g = ring(24);
        let complete = run(EngineConfig::cluster(3, 1), SimConfig::new(11), g.clone());
        assert!(complete.unfinished_roots.is_empty());
        let out = run(
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(11, 1, 1_500, None),
            g.clone(),
        );
        assert_eq!(out.outcome, RunOutcome::Faulted);
        assert!(!out.unfinished_roots.is_empty());
        for v in g.vertices() {
            if out.unfinished_roots.contains(&v) {
                continue;
            }
            let rows = |o: &SimOutput| -> Vec<Vec<VertexId>> {
                let mut r: Vec<_> = o.results.iter().filter(|r| r[0] == v).cloned().collect();
                r.sort();
                r
            };
            assert_eq!(rows(&out), rows(&complete), "finished root {v:?}");
        }
    }

    #[test]
    fn total_loss_terminates_via_retry_exhaustion() {
        let g = ring(12);
        let out = run(
            EngineConfig::cluster(2, 1),
            SimConfig::new(3).with_drop_probability(1.0),
            g,
        );
        assert_eq!(out.outcome, RunOutcome::Faulted);
        assert!(out.metrics.transport_dropped > 0);
        assert!(out.metrics.pull_failures > 0);
    }

    #[test]
    fn straggler_completes_slower_than_baseline() {
        let g = ring(24);
        let engine = EngineConfig::cluster(3, 1);
        let fast = run(engine.clone(), SimConfig::new(5), g.clone());
        let slow = run(engine, SimConfig::straggler_scenario(5, 0, 0, 50), g);
        assert_eq!(slow.outcome, RunOutcome::Complete);
        assert!(
            slow.virtual_us > fast.virtual_us,
            "a 50x straggler must stretch virtual time ({} vs {})",
            slow.virtual_us,
            fast.virtual_us
        );
        let mut a = fast.results.clone();
        let mut b = slow.results.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn sim_transport_rejects_blocking_pulls() {
        let net = Arc::new(Mutex::new(NetInner {
            machines: 2,
            clock: 0,
            next_seq: 0,
            heap: BinaryHeap::new(),
            inboxes: vec![VecDeque::new(), VecDeque::new()],
            alive: vec![true; 2],
            severed: BTreeSet::new(),
            rng: SplitMix64::new(0),
            link_latency_us: 1,
            latency_jitter_us: 0,
            drop_probability: 0.0,
            log: EventLog::default(),
            stats: TransportStats::default(),
        }));
        let t = SimTransport { net };
        assert_eq!(
            t.pull(0, 1, &[VertexId::new(1)], Duration::from_millis(1)),
            Err(TransportError::Unsupported)
        );
        assert_eq!(t.machines(), 2);
        t.send(0, 1, EngineMsg::Shutdown).unwrap();
        assert_eq!(t.stats().messages_sent, 1);
    }
}
