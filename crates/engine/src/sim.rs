//! Deterministic discrete-event fault simulation of the engine.
//!
//! [`SimCluster`] runs the live engine's scheduler — the same worker step,
//! message handler, balance policy and steal-grant protocol that
//! [`crate::cluster::Cluster`] runs on threads — on a single thread in
//! *virtual time*: machines take turns according to a seeded discrete-event
//! scheduler, every cross-machine message and pull goes through
//! [`SimTransport`] (the second [`Transport`] implementation) with
//! configurable per-link latency and drop probability, and a scenario script
//! can crash, restart, slow down or partition machines mid-run. The whole
//! execution — including the random latency jitter and message losses —
//! derives from one seed, so a 64-machine fault scenario replays
//! byte-identically: the emitted event log (and its FNV-1a hash) is the
//! determinism witness the test suite asserts on.
//!
//! Mechanics that differ from the live cluster, by design:
//!
//! * **One mining thread per machine, one step per wake.** Thread counts are
//!   not modelled. Each `Wake` event calls the shared worker step once: pump
//!   the machine's mailbox, then pop and process one task to completion, else
//!   spawn one batch. The wake costs [`SimConfig::compute_cost_us`] (a task)
//!   or [`SimConfig::spawn_cost_us`] (a batch), times the machine's slowdown
//!   factor, plus the network time of the pulls the step made; the machine's
//!   next wake comes no earlier than that.
//! * **Pulls are answered in virtual time, at the instant of the call.** A
//!   task pulls through the live engine's blocking data service.
//!   [`SimTransport::pull`] answers each attempt at once: it draws the fate
//!   of the request and of the response from the seeded RNG and the current
//!   crash/partition state, logs the round trip, and charges the two link
//!   latencies — or, for a lost attempt, the engine's `pull_timeout` — to the
//!   wake's cost. All attempts of one pull, retries included, are therefore
//!   decided at the virtual instant the task made the call: a fault scheduled
//!   while the wake's cost elapses cannot change them.
//! * **Messages are handled on delivery.** A delivery puts the message into
//!   the receiver's mailbox and runs the engine's mailbox pump at once — the
//!   one a worker step starts with — the way a machine's communication
//!   thread serves control traffic while its mining thread is busy. A
//!   granted batch therefore lands, and an ack is seen, even while the
//!   machine's current step is still costing virtual time.
//! * **Lost steal grants are resent.** Every grant the network carries arms
//!   an ack timer of `pull_timeout`. When it fires unacked, the shared grant
//!   protocol resends the batch, up to [`SimConfig::grant_retries`] times,
//!   and then gives its tasks up as lost. The in-process transport is
//!   lossless and never needs this.
//! * **Crashes drop a machine's work.** A crash empties the machine's global
//!   queue (spilled batches included), its worker deque and its unacked
//!   grants; messages still in flight to it are lost on arrival. Its
//!   vertex-table partition survives (re-readable state), so a restart
//!   resumes spawning where the cursor stopped.
//! * **Exactly-once results per root.** Every task is accounted to its
//!   spawning root ([`crate::task::TaskLabel::root`]) through per-task hooks
//!   that the threaded driver leaves unset. Lost work — a crashed machine's
//!   queue, a task whose pull exhausted its retries, a steal grant whose ack
//!   never came — marks the root *dirty*; once the event horizon drains,
//!   dirty roots are respawned from scratch at their owner (bounded by
//!   [`SimConfig::respawn_limit`]), with previously emitted results for that
//!   root discarded first. A root that cannot be respawned (owner down for
//!   good, limit hit) labels the run [`RunOutcome::Faulted`].
//! * **Virtual time.** The engine's `pull_timeout`, `pull_retries` and
//!   `balance_period` are read as virtual time. Wall-clock cancellation
//!   tokens are ignored; the run is bounded by [`SimConfig::max_virtual_us`]
//!   instead, which also guarantees termination under adversarial
//!   drop/latency schedules.

use crate::cluster::{self, GrantFate, RootHooks, SharedState, Step, ROOTLESS};
use crate::codec::EngineMsg;
use crate::config::EngineConfig;
use crate::metrics::EngineMetrics;
use crate::task::GThinkerApp;
use crate::transport::{Envelope, MachineId, PullReply, Transport, TransportError, TransportStats};
use crate::vertex_table::PartitionedVertexTable;
use qcm_core::{CancelToken, MiningScratch, RunOutcome};
use qcm_graph::{Fnv1a64, Graph, NeighborhoodIndex, VertexId};
use qcm_sync::{Arc, Mutex, OnceLock};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// A scripted fault applied to one machine at a virtual instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The machine dies: its queued tasks (spilled ones included), unacked
    /// steal grants and in-flight inbound messages are lost. Its vertex-table partition survives (re-readable
    /// state), so a later [`Fault::Restart`] resumes spawning where the
    /// cursor stopped.
    Crash,
    /// The machine comes back up (no-op if alive).
    Restart,
    /// Every subsequent worker step on the machine costs `factor` times as
    /// much virtual time, network time excluded (a straggler).
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
    /// Steal-grant retransmissions before the granting machine declares the
    /// batch lost and dirties the affected roots.
    pub grant_retries: u32,
    /// Virtual cost of processing one task (network time excluded).
    pub compute_cost_us: u64,
    /// Virtual cost of spawning one batch of root tasks.
    pub spawn_cost_us: u64,
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
            grant_retries: 3,
            compute_cost_us: 100,
            spawn_cost_us: 50,
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
    /// One worker step on a machine.
    Wake { machine: usize, epoch: u64 },
    /// A message arrives at its destination.
    Deliver { to: usize, env: Envelope },
    /// A steal grant's ack did not arrive in time.
    AckTimeout { machine: usize, seq: u64 },
    /// Apply `scenario[idx]`.
    Fault { idx: usize },
    /// The master's balancing pass.
    Balance,
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

/// Shared network state: virtual clock, pending events, mailboxes, link
/// faults.
struct NetInner {
    machines: usize,
    clock: u64,
    next_seq: u64,
    next_token: u64,
    /// Pending events by (virtual instant, scheduling order).
    events: BTreeMap<(u64, u64), Event>,
    inboxes: Vec<VecDeque<Envelope>>,
    alive: Vec<bool>,
    severed: BTreeSet<(usize, usize)>,
    rng: SplitMix64,
    link_latency_us: u64,
    latency_jitter_us: u64,
    drop_probability: f64,
    /// How long a steal grant waits for its ack before it is resent.
    ack_timeout_us: u64,
    /// Network time spent by the current wake's pulls.
    wake_cost_us: u64,
    log: EventLog,
    stats: TransportStats,
}

fn link_key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A message's kind for the event log, with the sequence number of steal
/// traffic so a grant can be followed through drops and resends.
fn describe(msg: &EngineMsg) -> String {
    match msg {
        EngineMsg::StealRequest { seq, .. }
        | EngineMsg::StealGrant { seq, .. }
        | EngineMsg::StealAck { seq } => format!("{} seq={seq}", msg.kind()),
        _ => msg.kind().to_string(),
    }
}

impl NetInner {
    fn new(machines: usize, sim: &SimConfig, ack_timeout_us: u64) -> Self {
        NetInner {
            machines,
            clock: 0,
            next_seq: 0,
            next_token: 0,
            events: BTreeMap::new(),
            inboxes: (0..machines).map(|_| VecDeque::new()).collect(),
            alive: vec![true; machines],
            severed: BTreeSet::new(),
            rng: SplitMix64::new(sim.seed),
            link_latency_us: sim.link_latency_us,
            latency_jitter_us: sim.latency_jitter_us,
            drop_probability: sim.drop_probability,
            ack_timeout_us,
            wake_cost_us: 0,
            log: EventLog::default(),
            stats: TransportStats::default(),
        }
    }

    fn schedule(&mut self, delay_us: u64, ev: Event) {
        let at = self.clock + delay_us.max(1);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((at, seq), ev);
    }

    fn log(&mut self, line: String) {
        let clock = self.clock;
        self.log.push(clock, line);
    }

    /// Why a message put on the link `from`→`to` now is lost, if it is.
    fn loss(&mut self, from: usize, to: usize) -> Option<&'static str> {
        if self.severed.contains(&link_key(from, to)) {
            Some("partitioned")
        } else if !self.alive[to] {
            Some("down")
        } else if self.rng.chance(self.drop_probability) {
            Some("loss")
        } else {
            None
        }
    }

    fn latency(&mut self) -> u64 {
        self.link_latency_us + self.rng.up_to(self.latency_jitter_us)
    }

    /// Accounts one message of `bytes` on the link `from`→`to`; returns
    /// false (and logs the drop) when it is lost.
    fn carry(&mut self, from: usize, to: usize, what: &str, bytes: usize) -> bool {
        self.stats.messages_sent += 1;
        self.stats.wire_bytes += bytes as u64;
        match self.loss(from, to) {
            Some(why) => {
                self.stats.messages_dropped += 1;
                self.log(format!("drop m{from}->m{to} {what} ({why})"));
                false
            }
            None => true,
        }
    }

    fn send(&mut self, from: usize, to: usize, msg: EngineMsg) -> Result<(), TransportError> {
        if to >= self.machines {
            return Err(TransportError::Closed);
        }
        let what = describe(&msg);
        if let EngineMsg::StealGrant { seq, .. } = msg {
            // Armed whether or not this copy arrives: a lost grant is found
            // by its missing ack.
            let timeout = self.ack_timeout_us;
            self.schedule(timeout, Event::AckTimeout { machine: from, seq });
        }
        let bytes = msg.to_wire().len();
        if self.carry(from, to, &what, bytes) {
            let latency = self.latency();
            self.log(format!("send m{from}->m{to} {what} {bytes}B +{latency}us"));
            self.schedule(
                latency,
                Event::Deliver {
                    to,
                    env: Envelope { from, msg },
                },
            );
        }
        Ok(())
    }

    /// One blocking pull attempt, answered at the current virtual instant.
    /// The round trip's latency, or `timeout` when the request or the
    /// response is lost, is charged to the current wake.
    fn pull(
        &mut self,
        table: &PartitionedVertexTable,
        from: usize,
        owner: usize,
        vertices: &[VertexId],
        timeout: Duration,
    ) -> Result<PullReply, TransportError> {
        if owner >= self.machines {
            return Err(TransportError::Closed);
        }
        let token = self.next_token;
        self.next_token += 1;
        let request = EngineMsg::PullRequest {
            token,
            vertices: vertices.to_vec(),
        };
        let lists: PullReply = vertices
            .iter()
            .map(|&v| (v, Arc::new(table.adjacency(v).to_vec())))
            .collect();
        let response = EngineMsg::PullResponse {
            token,
            lists: lists.clone(),
        };
        let (req_bytes, resp_bytes) = (request.to_wire().len(), response.to_wire().len());
        if !self.carry(from, owner, request.kind(), req_bytes)
            || !self.carry(owner, from, response.kind(), resp_bytes)
        {
            self.wake_cost_us += micros(timeout);
            return Err(TransportError::Timeout);
        }
        let rtt = self.latency() + self.latency();
        self.wake_cost_us += rtt;
        self.stats.pull_round_trips += 1;
        self.log(format!(
            "pull m{from}<-m{owner} {}v {}B +{rtt}us",
            vertices.len(),
            req_bytes + resp_bytes
        ));
        Ok(lists)
    }
}

/// The simulator's [`Transport`]: messages and pulls go through the seeded
/// discrete-event network. Sends are delivered as future events; pulls are
/// answered at the current virtual instant (see the module docs).
pub struct SimTransport {
    net: Arc<Mutex<NetInner>>,
    table: OnceLock<PartitionedVertexTable>,
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

    fn bind(&self, table: &PartitionedVertexTable) {
        let _ = self.table.set(table.clone());
    }

    fn send(&self, from: MachineId, to: MachineId, msg: EngineMsg) -> Result<(), TransportError> {
        self.net().send(from, to, msg)
    }

    fn try_recv(&self, machine: MachineId) -> Option<Envelope> {
        self.net().inboxes.get_mut(machine)?.pop_front()
    }

    fn pull(
        &self,
        from: MachineId,
        owner: MachineId,
        vertices: &[VertexId],
        timeout: Duration,
    ) -> Result<PullReply, TransportError> {
        let table = self.table.get().ok_or(TransportError::Closed)?;
        self.net().pull(table, from, owner, vertices, timeout)
    }

    fn stats(&self) -> TransportStats {
        self.net().stats
    }
}

/// Per-root bookkeeping behind the engine's root hooks.
#[derive(Default)]
struct RootBook {
    /// Live task count per root; a root is drained when its count is ≤ 0.
    live: BTreeMap<u32, i64>,
    /// Roots that lost work and must be respawned.
    dirty: BTreeSet<u32>,
    /// Result rows keyed by root — discarded wholesale on respawn, so every
    /// root contributes exactly once.
    results: BTreeMap<u32, Vec<Vec<VertexId>>>,
}

impl RootHooks for Mutex<RootBook> {
    fn created(&self, root: u32) {
        *self.lock().live.entry(root).or_insert(0) += 1;
    }

    fn finished(&self, root: u32) {
        *self.lock().live.entry(root).or_insert(0) -= 1;
    }

    fn lost(&self, root: u32) {
        let mut book = self.lock();
        *book.live.entry(root).or_insert(0) -= 1;
        book.dirty.insert(root);
    }

    fn emitted(&self, root: u32, rows: Vec<Vec<VertexId>>) {
        self.lock().results.entry(root).or_default().extend(rows);
    }
}

/// Output of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Result rows, flattened in root-id order (exactly-once per root).
    pub results: Vec<Vec<VertexId>>,
    /// Run metrics: `outcome` is the run outcome, `virtual_time` the final
    /// virtual clock, and `elapsed` the (irrelevant for benchmarking) wall
    /// time of the simulation itself.
    pub metrics: EngineMetrics,
    /// The seeded event log.
    pub event_log: Vec<String>,
    /// FNV-1a hash over the event-log lines — the replay-determinism witness.
    pub log_hash: u64,
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
    /// `engine`; thread counts are not modelled — each machine runs one
    /// mining thread, which takes one worker step per wake.
    pub fn new(app: Arc<A>, engine: EngineConfig, sim: SimConfig) -> Self {
        engine.validate();
        SimCluster { app, engine, sim }
    }

    /// Runs the application over `graph` in virtual time under the scenario.
    pub fn run(&self, graph: Arc<Graph>) -> SimOutput {
        let wall_start = qcm_obs::clock::now();
        let engine = EngineConfig {
            threads_per_machine: 1,
            cancel: CancelToken::never(),
            ..self.engine.clone()
        };
        let machines = engine.num_machines;
        let net = Arc::new(Mutex::new(NetInner::new(
            machines,
            &self.sim,
            micros(engine.pull_timeout),
        )));
        let transport = Arc::new(SimTransport {
            net: net.clone(),
            table: OnceLock::new(),
        });
        let book = Mutex::new(RootBook::default());
        let shared = SharedState::new(self.app.as_ref(), &engine, graph, transport, Some(&book));

        let mut driver = Driver {
            shared: &shared,
            book: &book,
            engine: &engine,
            sim: &self.sim,
            net: net.clone(),
            scratch: (0..machines).map(|_| MiningScratch::default()).collect(),
            clocks: vec![WakeClock::default(); machines],
            balance_scheduled: false,
            respawns: BTreeMap::new(),
            lost: BTreeSet::new(),
            faulted: false,
        };
        driver.run();
        let unfinished_roots = driver.unfinished_roots();
        let faulted = driver.faulted;

        let outcome = if faulted {
            RunOutcome::Faulted
        } else if shared.interrupted() {
            RunOutcome::Cancelled
        } else {
            RunOutcome::Complete
        };
        let output = shared.into_output();
        let results: Vec<Vec<VertexId>> =
            book.into_inner().results.into_values().flatten().collect();
        let mut metrics = output.metrics;
        let (virtual_us, lines, hash) = {
            let mut net = net.lock();
            let label = match outcome {
                RunOutcome::Faulted => "faulted",
                RunOutcome::Complete => "complete",
                _ => "interrupted",
            };
            net.log(format!(
                "end outcome={label} spawned={} processed={} stolen={}",
                metrics.tasks_spawned, metrics.tasks_processed, metrics.stolen_tasks
            ));
            let log = std::mem::take(&mut net.log);
            (net.clock, log.lines, log.hash.finish())
        };
        metrics.elapsed = wall_start.elapsed();
        metrics.results_emitted = results.len() as u64;
        metrics.virtual_time = Some(Duration::from_micros(virtual_us));
        metrics.outcome = outcome;
        SimOutput {
            results,
            metrics,
            event_log: lines,
            log_hash: hash,
            index: output.index,
            unfinished_roots,
        }
    }
}

/// When a machine may next take a worker step.
#[derive(Clone, Copy, Debug, Default)]
struct WakeClock {
    scheduled: bool,
    /// Incremented on crash so stale Wake events are ignored.
    epoch: u64,
    /// A straggler's cost multiplier; 0 and 1 both mean full speed.
    slowdown: u64,
    /// Virtual instant the machine's last step ends.
    busy_until: u64,
}

struct Driver<'s, 'a, A: GThinkerApp> {
    shared: &'s SharedState<'a, A>,
    book: &'s Mutex<RootBook>,
    engine: &'s EngineConfig,
    sim: &'s SimConfig,
    net: Arc<Mutex<NetInner>>,
    /// Each machine's mining scratch arena.
    scratch: Vec<MiningScratch>,
    clocks: Vec<WakeClock>,
    balance_scheduled: bool,
    respawns: BTreeMap<u32, u32>,
    /// Roots whose lost work can never be respawned.
    lost: BTreeSet<u32>,
    faulted: bool,
}

impl<A: GThinkerApp> Driver<'_, '_, A> {
    fn net(&self) -> qcm_sync::MutexGuard<'_, NetInner> {
        self.net.lock()
    }

    fn log(&self, line: String) {
        self.net().log(line);
    }

    fn schedule(&self, delay_us: u64, ev: Event) {
        self.net().schedule(delay_us, ev);
    }

    fn ensure_wake(&mut self, m: usize) {
        let alive = self.net().alive[m];
        if self.clocks[m].scheduled || !alive || !self.shared.has_work(m) {
            return;
        }
        self.clocks[m].scheduled = true;
        let WakeClock {
            epoch, busy_until, ..
        } = self.clocks[m];
        let mut net = self.net();
        let delay = busy_until.saturating_sub(net.clock);
        net.schedule(delay, Event::Wake { machine: m, epoch });
    }

    fn ensure_balance(&mut self) {
        if self.clocks.len() > 1 && !self.balance_scheduled {
            self.balance_scheduled = true;
            self.schedule(micros(self.engine.balance_period), Event::Balance);
        }
    }

    fn run(&mut self) {
        for m in 0..self.clocks.len() {
            self.ensure_wake(m);
        }
        for idx in 0..self.sim.scenario.len() {
            let at = self.sim.scenario[idx].at_us;
            self.schedule(at, Event::Fault { idx });
        }
        self.ensure_balance();

        loop {
            let next = self.net().events.pop_first();
            match next {
                Some(((at, _), ev)) => {
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
            Event::AckTimeout { machine, seq } => self.on_ack_timeout(machine, seq),
            Event::Fault { idx } => self.on_fault(idx),
            Event::Balance => self.on_balance(),
        }
    }

    /// One worker step of machine `m`, charged in virtual time.
    fn on_wake(&mut self, m: usize, epoch: u64) {
        if self.clocks[m].epoch != epoch {
            return; // stale wake from before a crash
        }
        self.clocks[m].scheduled = false;
        if !self.net().alive[m] {
            return;
        }
        let base = match cluster::step(self.shared, m, m, &mut self.scratch[m]) {
            Step::Processed => self.sim.compute_cost_us,
            Step::Spawned => self.sim.spawn_cost_us,
            Step::Idle => 0,
        };
        let ends_at = {
            let mut net = self.net();
            let network = std::mem::take(&mut net.wake_cost_us);
            net.clock + base * self.clocks[m].slowdown.max(1) + network
        };
        self.clocks[m].busy_until = ends_at;
        self.ensure_wake(m);
    }

    fn on_deliver(&mut self, to: usize, env: Envelope) {
        {
            let mut net = self.net();
            if !net.alive[to] {
                net.stats.messages_dropped += 1;
                let line = format!("lost m{}->m{to} {} (down)", env.from, describe(&env.msg));
                net.log(line);
                return;
            }
            net.inboxes[to].push_back(env);
        }
        cluster::pump_inbox(self.shared, to);
        self.ensure_wake(to);
    }

    fn on_ack_timeout(&mut self, m: usize, seq: u64) {
        if !self.net().alive[m] {
            return; // the crash already gave the held grants up
        }
        if let GrantFate::Lost { to } =
            cluster::resend_grant(self.shared, m, seq, self.sim.grant_retries)
        {
            self.log(format!(
                "steal-grant seq={seq} m{m}->m{to} lost after retries"
            ));
        }
    }

    fn on_fault(&mut self, idx: usize) {
        let FaultEvent {
            machine: m, fault, ..
        } = self.sim.scenario[idx];
        match fault {
            Fault::Crash => {
                {
                    let mut net = self.net();
                    if !net.alive[m] {
                        return;
                    }
                    net.alive[m] = false;
                    net.log(format!("fault crash m{m}"));
                }
                let clock = &mut self.clocks[m];
                clock.scheduled = false;
                clock.epoch += 1;
                cluster::drain_machine(self.shared, m);
            }
            Fault::Restart => {
                {
                    let mut net = self.net();
                    if net.alive[m] {
                        return;
                    }
                    net.alive[m] = true;
                    net.log(format!("fault restart m{m}"));
                }
                self.ensure_wake(m);
                self.ensure_balance();
            }
            Fault::SlowDown { factor } => {
                self.clocks[m].slowdown = u64::from(factor);
                self.log(format!("fault slowdown m{m} x{factor}"));
            }
            Fault::Partition { peer } => {
                let mut net = self.net();
                net.severed.insert(link_key(m, peer));
                net.log(format!("fault partition m{m}--m{peer}"));
            }
            Fault::Heal => {
                let mut net = self.net();
                net.severed.retain(|&(a, b)| a != m && b != m);
                net.log(format!("fault heal m{m}"));
            }
        }
    }

    fn on_balance(&mut self) {
        self.balance_scheduled = false;
        let alive = self.net().alive.clone();
        cluster::balance(self.shared, |m| alive[m]);
        let pending = (0..self.clocks.len())
            .any(|m| alive[m] && (self.shared.has_work(m) || self.shared.has_unacked_grants(m)));
        if pending {
            self.ensure_balance();
        }
    }

    /// Called when no event is pending: respawn dirty roots if possible.
    /// Returns true when new work was scheduled.
    fn respawn_round(&mut self) -> bool {
        let mut progress = false;
        let dirty = std::mem::take(&mut self.book.lock().dirty);
        for root in dirty {
            if root == ROOTLESS {
                self.faulted = true;
                self.lost.insert(root);
                self.log("permanent loss: rootless task".to_string());
                continue;
            }
            let v = VertexId::new(root);
            let owner = self.shared.table().owner(v);
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
            {
                let mut book = self.book.lock();
                book.results.remove(&root);
                book.live.remove(&root);
            }
            self.log(format!("respawn root={root} at m{owner}"));
            cluster::spawn_vertex(self.shared, owner, owner, v);
            self.ensure_wake(owner);
            progress = true;
        }
        if !progress {
            // Defensive: an alive machine with work but no wake means a
            // bookkeeping bug; re-arm rather than exit with work pending.
            for m in 0..self.clocks.len() {
                self.ensure_wake(m);
                progress |= self.clocks[m].scheduled;
            }
        }
        if progress {
            self.ensure_balance();
        }
        progress
    }

    /// See [`SimOutput::unfinished_roots`].
    fn unfinished_roots(&self) -> Vec<VertexId> {
        let book = self.book.lock();
        let mut roots: BTreeSet<u32> = self.lost.union(&book.dirty).copied().collect();
        roots.extend(book.live.iter().filter(|&(_, &n)| n > 0).map(|(&r, _)| r));
        for m in 0..self.clocks.len() {
            roots.extend(self.shared.unspawned_vertices(m).iter().map(|v| v.raw()));
        }
        if roots.contains(&ROOTLESS) {
            return self.shared.table().graph().vertices().collect();
        }
        roots.into_iter().map(VertexId::new).collect()
    }

    /// Anything still undone at exit is dropped work.
    fn finalize(&mut self) {
        let book = self.book.lock();
        let undone = (0..self.clocks.len()).any(|m| self.shared.has_work(m))
            || !book.dirty.is_empty()
            || book.live.values().any(|&n| n > 0);
        drop(book);
        self.faulted |= undone;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::task::{ComputeContext, Frontier, TaskCodec, TaskLabel};

    /// A toy app: each vertex spawns one task that pulls the root's
    /// neighbors, then emits `[v, max_neighbor]` for every neighbor larger
    /// than the root. Pull-heavy enough to exercise the virtual-time pulls.
    pub(crate) struct EchoApp;

    #[derive(Clone, Debug)]
    pub(crate) struct EchoTask {
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

    pub(crate) fn ring(n: u32) -> Arc<Graph> {
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
        assert_eq!(out.metrics.outcome, RunOutcome::Complete);
        assert_eq!(out.results.len(), expected_rows(&g));
        assert!(out.metrics.virtual_time > Some(Duration::ZERO));
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
        assert_eq!(a.metrics.outcome, b.metrics.outcome);
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
        assert_eq!(baseline.metrics.outcome, RunOutcome::Complete);
        let out = run(
            EngineConfig::cluster(3, 1),
            SimConfig::crash_scenario(9, 1, 2_000, Some(30_000)),
            g.clone(),
        );
        assert_eq!(
            out.metrics.outcome,
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
        assert_eq!(out.metrics.outcome, RunOutcome::Faulted);
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
        assert_eq!(out.metrics.outcome, RunOutcome::Faulted);
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
        assert_eq!(out.metrics.outcome, RunOutcome::Faulted);
        assert!(out.metrics.transport_dropped > 0);
        assert!(out.metrics.pull_failures > 0);
    }

    #[test]
    fn straggler_completes_slower_than_baseline() {
        let g = ring(24);
        let engine = EngineConfig::cluster(3, 1);
        let fast = run(engine.clone(), SimConfig::new(5), g.clone());
        let slow = run(engine, SimConfig::straggler_scenario(5, 0, 0, 50), g);
        assert_eq!(slow.metrics.outcome, RunOutcome::Complete);
        assert!(
            slow.metrics.virtual_time > fast.metrics.virtual_time,
            "a 50x straggler must stretch virtual time ({:?} vs {:?})",
            slow.metrics.virtual_time,
            fast.metrics.virtual_time
        );
        let mut a = fast.results.clone();
        let mut b = slow.results.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn virtual_pull_answers_and_counts_a_dropped_attempt() {
        let g = ring(6);
        let table = PartitionedVertexTable::new(g.clone(), 2);
        let sim = SimConfig::new(0).with_latency(40, 0);
        let t = SimTransport {
            net: Arc::new(Mutex::new(NetInner::new(2, &sim, 1_000))),
            table: OnceLock::new(),
        };
        t.bind(&table);
        assert_eq!(t.machines(), 2);
        let v = [VertexId::new(1)];
        let timeout = Duration::from_micros(700);

        // A severed link loses the request: the attempt times out at once and
        // its wake is charged the timeout, not a round trip.
        t.net().severed.insert(link_key(0, 1));
        assert_eq!(t.pull(0, 1, &v, timeout), Err(TransportError::Timeout));
        let stats = t.stats();
        assert_eq!((stats.messages_sent, stats.messages_dropped), (1, 1));
        assert_eq!(std::mem::take(&mut t.net().wake_cost_us), 700);

        // Healed, the same pull answers with the owner's list and costs two
        // link latencies.
        t.net().severed.clear();
        let reply = t.pull(0, 1, &v, timeout).unwrap();
        assert_eq!(reply, vec![(v[0], Arc::new(g.neighbors(v[0]).to_vec()))]);
        let stats = t.stats();
        assert_eq!((stats.messages_sent, stats.messages_dropped), (3, 1));
        assert_eq!(stats.pull_round_trips, 1);
        let net = t.net();
        assert_eq!(net.wake_cost_us, 80);
        let log = &net.log.lines;
        assert!(
            log[0].ends_with("drop m0->m1 pull-req (partitioned)"),
            "{log:?}"
        );
        assert!(log[1].contains("pull m0<-m1 1v"), "{log:?}");
        // The clock never moved: every attempt is decided at the call.
        assert_eq!(net.clock, 0);
    }
}
