//! The Cassandra-like cluster simulation (the paper's §5 system), on the
//! shared `c3-engine` scenario runner.
//!
//! Flow of a read: a closed-loop generator thread issues an operation to a
//! coordinator node (round-robin, as the YCSB Cassandra driver does); the
//! coordinator selects a replica from the key's replica group using its
//! [`Selector`] (Dynamic Snitching, C3, or a Table-1 baseline) and
//! forwards the request (local reads skip the network); the
//! replica's read stage — a [`ServiceStage`], FIFO in front of the disk's
//! concurrency, as every simulated replica is — executes it under the
//! disk model scaled by the node's current perturbation multiplier times
//! its fault plan's `slow` factor; the response — carrying C3 feedback —
//! returns via the coordinator to the client, which immediately issues
//! its next operation.
//!
//! Writes go to all replicas, through each one's 8-slot mutation stage,
//! and complete on the first acknowledgement (consistency level ONE, the
//! YCSB default the paper uses). 10% of reads fan out to every replica
//! (read repair). Optional speculative retry reissues a read to the
//! next-best replica once it outlives the coordinator's running
//! 99th-percentile estimate.
//!
//! Every coordinator drives one uniform selector path: backpressure-capable
//! strategies (the C3 family, RR) park reads in the coordinator's
//! [`BackpressureFront`], the backlog protocol every simulated loop uses;
//! Dynamic Snitching receives its gossip/recompute ticks through
//! [`Selector::as_snitch_mut`].
//!
//! **Record lifetimes.** Operation and send records live in recycling
//! [`SlotTable`]s, so a run's memory follows what is in flight, not its
//! length. A send has one terminal event, where its record is freed: its
//! response handled at the coordinator, or the fault plan destroying it
//! (the request at a down replica, the response at a down or lossy one).
//! An operation has none — a parked op may still hold a speculative check
//! and straggling sends, a completed one may still wait in a backlog, and
//! write acks, read-repair and hedge losers arrive after completion — so
//! one predicate, `release_op`, frees it once nothing can name it: it is
//! terminal (its `ClientReceive` handled, or parked), no send of it is
//! open, none of its timers is armed and no backlog holds it. Every place
//! one of those names disappears calls it. A freed key's slot is reused
//! at once and release builds check no generations, so nothing is read
//! through a send key the op merely remembers: the latest primary's node
//! is copied into the op at `forward`, the primary and hedge keys are
//! cleared when those sends are freed, and warm-up and the flight
//! recorder name an op by its issue index, never by its key.

use c3_core::{
    Attempt, Expiry, FailureDetector, Fate, Feedback, LifecycleCounts, Nanos, OpLife, Outcome,
    Selection, Selector, ServerId, ServiceStage, SnitchConfig,
};
use c3_engine::{
    BackpressureFront, ChannelId, ChannelSet, EngineStats, EventQueue, RunMetrics, Scenario,
    ScenarioRunner, SeedSeq, SlotKey, SlotTable, TimerId,
};
use c3_metrics::{GaugeSeries, LogHistogram, WindowedCounts};
use c3_telemetry::{Recorder, TracePoint};
use c3_workload::{Op, PoissonArrivals, RecordSizes, ScrambledZipfian, WorkloadMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::ClusterConfig;
use crate::fault::NodeFaults;
use crate::perturb::{EpisodeKind, NodePerturbation};
use crate::ring::Ring;
use crate::storage::DiskModel;

/// Key of an [`OpState`] while the operation is reachable.
type OpId = SlotKey;
/// Key of a [`SendState`] while the send is in flight.
type SendId = SlotKey;

/// The cluster's named latency channels (declared in this order by
/// `Scenario::channels`).
const READ_CHANNEL: ChannelId = ChannelId::new(0);
const UPDATE_CHANNEL: ChannelId = ChannelId::new(1);

/// The channel names the cluster records into.
pub const CLUSTER_CHANNELS: [&str; 2] = ["read", "update"];

/// Sentinel request id under which cluster-level failure-detector events
/// (`Evict`/`Reinstate`) are traced; never an issue index, so the request
/// join ignores them.
const DETECTOR_OP: u64 = u64::MAX;

/// The cluster's event alphabet (public because it is the scenario's
/// `Scenario::Event` type; construction stays internal).
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub enum Ev {
    /// A generator thread issues its next operation.
    ClientIssue { thread: usize },
    /// An operation reaches its coordinator.
    CoordArrive { op: OpId },
    /// A forwarded sub-request reaches a replica node.
    ReplicaArrive { send: SendId },
    /// A sub-request finishes executing at a replica.
    ReplicaDone { send: SendId, service_time: Nanos },
    /// A sub-response reaches the coordinator.
    CoordReceive { send: SendId },
    /// The final response reaches the client thread.
    ClientReceive { op: OpId },
    /// Nodes disseminate their iowait averages.
    GossipTick,
    /// All Dynamic Snitches recompute scores.
    SnitchTick,
    /// A perturbation episode starts on a node.
    PerturbStart { node: usize, kind: EpisodeKind },
    /// A coordinator retries a backlogged replica group.
    RetryBacklog { coord: usize, group: usize },
    /// Extra generators enter the system (Figure 11).
    PhaseStart,
    /// One of a read's lifecycle timers fires.
    Life { op: OpId, timer: LifeTimer },
}

/// The four timers a read's lifecycle arms; each asks its op's
/// [`OpLife`] whether to act when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifeTimer {
    /// The per-request deadline expires: retry or park.
    Deadline,
    /// The backoff wait ends: the retry goes out.
    Retry,
    /// The hedge threshold passed: duplicate the read to a second
    /// replica.
    Hedge,
    /// The speculative-retry threshold passed: reissue the read to the
    /// next replica.
    Spec,
}

/// Lives from `ClientIssue` until nothing can name it any more (see
/// [`ClusterScenario::release_op`]).
#[derive(Clone, Copy, Debug)]
struct OpState {
    thread: u32,
    kind: Op,
    coord: u16,
    /// Replica-group id (primary node index).
    group: u16,
    record_bytes: u32,
    created: Nanos,
    /// Position in issue order, `0..total_ops`: the op's name for warm-up
    /// and in the flight recorder (its table key is recycled, this is not).
    issue: u64,
    /// The latest selected replica send, which defines read latency;
    /// `None` once that send's record is released.
    primary_send: Option<SendId>,
    /// The node of the latest primary send, copied at `forward`: that
    /// send's record may be gone by the time a deadline, retry, hedge or
    /// speculative check asks which replica was tried. Meaningful once
    /// the first primary send went out.
    primary_node: u16,
    read_repair: bool,
    /// The op's fate across its sends, which makes every lifecycle
    /// decision; the fields around it are the mechanics. A parked op
    /// never completes but still counts toward run termination.
    life: OpLife,
    /// The op's `ClientReceive` was handled.
    received: bool,
    /// The hedged duplicate's send, while its record lives.
    hedge_send: Option<SendId>,
    /// Pending timer handles (see `OpState::handle`), cancelled on
    /// completion and parking so no dead timer burdens the hot path.
    timers: [Option<TimerId>; 3],
    /// Waiting in a coordinator backlog (set at `front.park`, cleared at
    /// `front.pop`).
    in_backlog: bool,
    /// Lifecycle timers scheduled and neither fired nor cancelled.
    /// Counted rather than read off the handles: a retry re-dispatch arms
    /// a fresh speculative check over a pending one, whose handle is
    /// overwritten but which still fires.
    armed: u8,
    /// Sends forwarded and not yet released.
    open_sends: u16,
}

impl OpState {
    /// The pending handle `timer` is kept under; a deadline and its
    /// backoff retry share one (they are mutually exclusive in time).
    fn handle(&mut self, timer: LifeTimer) -> &mut Option<TimerId> {
        let slot = match timer {
            LifeTimer::Deadline | LifeTimer::Retry => 0,
            LifeTimer::Hedge => 1,
            LifeTimer::Spec => 2,
        };
        &mut self.timers[slot]
    }

    /// Cancel the pending `timer`, if there is one.
    fn disarm(&mut self, timer: LifeTimer, engine: &mut EventQueue<Ev>) {
        if let Some(id) = self.handle(timer).take() {
            engine.cancel(id);
            self.armed -= 1;
        }
    }
}

/// Lives from `forward` until its one terminal event (see
/// [`ClusterScenario::release_send`]).
#[derive(Clone, Copy, Debug)]
struct SendState {
    op: OpId,
    node: u16,
    is_write: bool,
    sent_at: Nanos,
    /// Feedback piggybacked on this send's response — inline so the
    /// per-response path touches one array, not two.
    feedback: Feedback,
}

/// Per-node service stages: the read stage (`disk.concurrency` slots)
/// and the mutation stage (8 slots). Only reads count toward the C3
/// feedback value and the recorder's ground truth (`reads.pending()`).
struct NodeState {
    reads: ServiceStage<SendId>,
    writes: ServiceStage<SendId>,
    perturb: NodePerturbation,
    /// The node's slice of the fault plan, split once at construction.
    faults: NodeFaults,
}

impl NodeState {
    fn stage(&mut self, is_write: bool) -> &mut ServiceStage<SendId> {
        if is_write {
            &mut self.writes
        } else {
            &mut self.reads
        }
    }
}

/// Per-coordinator replica-selection state: one selector plus the
/// backpressure backlog and the speculative-retry latency view.
struct Coordinator {
    selector: Selector,
    /// Reads parked per replica group while the rate limiter refuses
    /// them, and the retry timers that re-admit them.
    front: BackpressureFront<OpId, Ev>,
    /// Coordinator-observed replica read latencies (speculative-retry
    /// threshold source).
    replica_latency: LogHistogram,
    /// This coordinator's view of which nodes are suspect; `None` when
    /// no deadline is configured (nothing can time out).
    detector: Option<FailureDetector>,
}

/// Results of one cluster run.
#[derive(Debug)]
pub struct ClusterResult {
    /// Strategy label.
    pub strategy: String,
    /// Seed used.
    pub seed: u64,
    /// Client-observed read latencies (ns).
    pub read_latency: LogHistogram,
    /// Client-observed update latencies (ns).
    pub update_latency: LogHistogram,
    /// Reads served per window, per node.
    pub server_load: Vec<WindowedCounts>,
    /// Reads completed (excluding warm-up).
    pub reads_completed: u64,
    /// Updates completed (excluding warm-up).
    pub updates_completed: u64,
    /// Simulated duration from first to last completion (excluding
    /// warm-up).
    pub duration: Nanos,
    /// Backpressure activations across coordinators (C3 only).
    pub backpressure_activations: u64,
    /// Speculative retries issued.
    pub speculative_retries: u64,
    /// Speculative checks that fired after their op completed: ones whose
    /// handle a retry's re-dispatch overwrote (completion cancels the rest).
    pub dead_spec_checks: u64,
    /// `RetryBacklog` events that fired against an already-drained
    /// backlog. Draining cancels the pending timer, so this stays zero;
    /// the field exists to prove that regression-style.
    pub dead_retries: u64,
    /// Timers cancelled before firing: speculative-retry checks cancelled
    /// on op completion plus backlog-retry timers cancelled on drain (and,
    /// with lifecycle hardening on, deadline/hedge timers cancelled on
    /// completion).
    pub events_cancelled: u64,
    /// What the hardened lifecycle did (timeouts, retries, parks, hedges,
    /// detector transitions); all zero without a deadline.
    pub lifecycle: LifecycleCounts,
    /// Requests or responses destroyed by the fault plan.
    pub faults_dropped: u64,
    /// Deadline, retry and hedge timers that fired after their op
    /// completed or parked (see `ClusterScenario::dead_events`).
    pub dead_lifecycle: u64,
    /// Optional `(time, read latency)` trace (Figure 11).
    pub latency_trace: Vec<(Nanos, Nanos)>,
    /// Sending-rate traces for each configured probe (Figure 13).
    pub rate_traces: Vec<GaugeSeries>,
    /// Times at which probed coordinators entered backpressure.
    pub backpressure_events: Vec<Vec<Nanos>>,
    /// `(time, per-node C3 scores)` of the probed coordinator (sim-vs-live
    /// parity harness); empty unless a score probe was installed.
    pub score_trace: Vec<(Nanos, Vec<f64>)>,
    /// The flight recorder that rode along, carrying the lifecycle trace
    /// for tail attribution; `None` unless one was attached.
    pub recorder: Option<Recorder>,
    /// Events processed (diagnostics).
    pub events_processed: u64,
}

impl ClusterResult {
    /// Read-latency summary at the paper's percentiles.
    pub fn summary(&self) -> c3_metrics::LatencySummary {
        c3_metrics::LatencySummary::from_histogram(&self.read_latency)
    }

    /// Read throughput in requests/s.
    pub fn read_throughput(&self) -> f64 {
        if self.duration == Nanos::ZERO {
            return 0.0;
        }
        self.reads_completed as f64 / self.duration.as_secs_f64()
    }

    /// Index of the node that served the most reads (Figures 2, 8, 9).
    pub fn busiest_node(&self) -> usize {
        self.server_load
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| w.total())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The §5 scenario: state plus event handlers, driven by the engine's
/// [`ScenarioRunner`]. Build one with [`ClusterScenario::new`], or use the
/// [`Cluster`] wrapper which owns the runner plumbing.
pub struct ClusterScenario {
    cfg: ClusterConfig,
    disk: DiskModel,
    ring: Ring,
    nodes: Vec<NodeState>,
    coords: Vec<Coordinator>,
    ops: SlotTable<OpState>,
    sends: SlotTable<SendState>,
    /// Key chooser + mix per generator thread.
    threads: Vec<ThreadState>,
    /// Open-loop per-thread Poisson arrival process
    /// (`ClusterConfig::offered_rate / generators`); `None` = closed loop.
    open_arrivals: Option<PoissonArrivals>,
    /// Shared Zipfian tables cloned into phase threads (Figure 11).
    key_template: ScrambledZipfian,
    records: RecordSizes,
    seeds: SeedSeq,
    wl_rng: SmallRng,
    srv_rng: SmallRng,
    /// Lifecycle randomness: backoff jitter and fault-plan drop draws.
    /// Kept separate from `srv_rng`/`wl_rng` and never drawn when the
    /// knobs are off, so hardened-off runs stay bit-identical.
    life_rng: SmallRng,
    issued: u64,
    spec_retries: u64,
    dead_spec_checks: u64,
    life: LifecycleCounts,
    faults_dropped: u64,
    dead_lifecycle: u64,
    latency_trace: Vec<(Nanos, Nanos)>,
    record_trace: bool,
    probes: Vec<(usize, usize)>,
    rate_traces: Vec<GaugeSeries>,
    backpressure_events: Vec<Vec<Nanos>>,
    /// Coordinator whose per-replica C3 scores are sampled (sim-vs-live
    /// parity harness).
    score_probe: Option<usize>,
    /// The flight recorder: lifecycle trace, score trace and gauges all go
    /// through it (the one sampling path). Purely observational — a run's
    /// fingerprint is identical with and without it.
    recorder: Option<Recorder>,
    /// Scratch for the replica group under dispatch (avoids allocating a
    /// group Vec per operation).
    group_scratch: Vec<ServerId>,
    /// Scratch for the failure detector's filtered candidate list, taken
    /// and put back around each selection like `group_scratch`.
    candidate_scratch: Vec<ServerId>,
}

struct ThreadState {
    keys: ScrambledZipfian,
    mix: WorkloadMix,
    next_coord: usize,
    rng: SmallRng,
}

impl ClusterScenario {
    /// Build the scenario.
    ///
    /// # Panics
    ///
    /// Panics when the strategy is unknown or needs simulator-global
    /// state this frontend cannot provide (`ORA`).
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.validate();
        let disk = cfg.disk_model();
        let ring = Ring::new(cfg.nodes, cfg.replication_factor);
        let seeds = SeedSeq::new(cfg.seed);
        let wl_rng = seeds.workload_rng();
        let srv_rng = seeds.service_rng(7);
        let life_rng = seeds.service_rng(0x11fe);

        let mut c3 = cfg.c3;
        // w = number of clients; coordinators are the C3 clients here.
        c3.concurrency_weight = cfg.nodes as f64;

        let nodes: Vec<NodeState> = (0..cfg.nodes)
            .map(|i| NodeState {
                reads: ServiceStage::new(disk.concurrency),
                writes: ServiceStage::new(8),
                perturb: NodePerturbation::new(cfg.perturbations),
                faults: cfg.faults.for_node(i),
            })
            .collect();

        let coords: Vec<Coordinator> = (0..cfg.nodes)
            .map(|i| {
                let selector = cfg
                    .strategy
                    .build_client(cfg.nodes, c3, &seeds, i)
                    .unwrap_or_else(|| {
                        panic!(
                            "strategy {} needs global state the cluster does not provide",
                            cfg.strategy
                        )
                    });
                Coordinator {
                    selector,
                    front: BackpressureFront::new(i, cfg.nodes, |coord, group| Ev::RetryBacklog {
                        coord,
                        group,
                    }),
                    replica_latency: LogHistogram::new(),
                    detector: cfg.lifecycle.detector(cfg.nodes),
                }
            })
            .collect();

        let records = if cfg.skewed_records {
            RecordSizes::skewed(2048)
        } else {
            RecordSizes::paper_default()
        };

        // The Zipfian tables (zeta over `keys` terms) are expensive to
        // build; construct once and clone per thread.
        let key_template = ScrambledZipfian::new(cfg.keys, cfg.keys, cfg.zipf_theta);
        let threads: Vec<ThreadState> = (0..cfg.generators)
            .map(|i| ThreadState {
                keys: key_template.clone(),
                mix: cfg.mix,
                next_coord: i % cfg.nodes,
                rng: SmallRng::seed_from_u64(seeds.thread_seed(i as u64)),
            })
            .collect();

        let open_arrivals = cfg
            .offered_rate
            .map(|rate| PoissonArrivals::new(rate / cfg.generators as f64));

        Self {
            disk,
            ring,
            nodes,
            coords,
            key_template,
            ops: SlotTable::new(),
            sends: SlotTable::new(),
            threads,
            open_arrivals,
            records,
            seeds,
            srv_rng,
            issued: 0,
            spec_retries: 0,
            dead_spec_checks: 0,
            life: LifecycleCounts::default(),
            faults_dropped: 0,
            dead_lifecycle: 0,
            latency_trace: Vec::new(),
            record_trace: false,
            probes: Vec::new(),
            rate_traces: Vec::new(),
            backpressure_events: Vec::new(),
            score_probe: None,
            recorder: None,
            group_scratch: Vec::new(),
            candidate_scratch: Vec::new(),
            wl_rng,
            life_rng,
            cfg,
        }
    }

    /// The config in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Record `(time, latency)` pairs for every completed read (Figure 11).
    pub(crate) fn set_latency_trace(&mut self) {
        self.record_trace = true;
    }

    /// Sample coordinator `coord`'s per-replica C3 scores (throttled to
    /// one sample per 50 ms of simulated time) into a `(time, scores)`
    /// trace. Only meaningful for C3-family runs; the sim-vs-live parity
    /// harness compares these rankings against the socket backend's.
    pub(crate) fn set_score_probe(&mut self, coord: usize) {
        assert!(coord < self.cfg.nodes, "probe out of range");
        self.score_probe = Some(coord);
        // The trace lives on the recorder (the one sampling path); without
        // an attached one, ride a score/gauge-only recorder (capacity 0).
        if self.recorder.is_none() {
            self.recorder = Some(Recorder::new(0));
        }
    }

    /// Attach a flight recorder: lifecycle events (issue → select → send →
    /// feedback → complete, reads only — the paper's metric) plus decision
    /// snapshots flow into its ring buffer, and any score probe samples
    /// into its score trace. Recording is purely observational; results
    /// are bit-identical with and without it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Detach the flight recorder, if any. Scenario frontends that build
    /// their reports straight from run metrics (without
    /// [`ClusterScenario::into_result`]) use this to recover the trace
    /// after the run.
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Install sending-rate probes: `(coordinator, target node)` pairs
    /// (Figure 13). Only meaningful for C3 runs.
    pub(crate) fn set_rate_probes(&mut self, probes: Vec<(usize, usize)>) {
        for &(c, n) in &probes {
            assert!(
                c < self.cfg.nodes && n < self.cfg.nodes,
                "probe out of range"
            );
        }
        self.backpressure_events = vec![Vec::new(); probes.len()];
        self.rate_traces = vec![GaugeSeries::new(); probes.len()];
        self.probes = probes;
    }

    /// Assemble the public result from this scenario plus the runner's
    /// metrics and engine statistics.
    pub fn into_result(self, metrics: RunMetrics, stats: EngineStats) -> ClusterResult {
        self.life.check();
        let backpressure = self.coords.iter().map(|c| c.front.activations()).sum();
        let dead_retries = self.dead_retries();
        let reads_completed = metrics.measured(READ_CHANNEL);
        let updates_completed = metrics.measured(UPDATE_CHANNEL);
        let (_channels, mut latency, server_load, _completions, duration) = metrics.into_parts();
        let update_latency = latency.remove(UPDATE_CHANNEL.index());
        let read_latency = latency.remove(READ_CHANNEL.index());
        let mut recorder = self.recorder;
        let score_trace = recorder
            .as_mut()
            .map(|r| r.take_score_trace())
            .unwrap_or_default();
        ClusterResult {
            strategy: self.cfg.strategy.label().to_string(),
            seed: self.cfg.seed,
            read_latency,
            update_latency,
            server_load,
            reads_completed,
            updates_completed,
            duration,
            backpressure_activations: backpressure,
            speculative_retries: self.spec_retries,
            dead_spec_checks: self.dead_spec_checks,
            dead_retries,
            events_cancelled: stats.events_cancelled,
            lifecycle: self.life,
            faults_dropped: self.faults_dropped,
            dead_lifecycle: self.dead_lifecycle,
            latency_trace: self.latency_trace,
            rate_traces: self.rate_traces,
            backpressure_events: self.backpressure_events,
            score_trace,
            recorder,
            events_processed: stats.events_processed,
        }
    }

    /// Events that fired with nothing left to do (completed op, drained
    /// backlog). All sources are cancelled at their trigger, so this is
    /// zero on every scenario — asserted regression-style.
    pub fn dead_events(&self) -> u64 {
        self.dead_spec_checks + self.dead_retries() + self.dead_lifecycle
    }

    fn dead_retries(&self) -> u64 {
        self.coords.iter().map(|c| c.front.dead_retries()).sum()
    }

    /// The lifecycle ledger so far, for scenario frontends that report
    /// straight from run metrics. All zero when no deadline is configured.
    pub fn lifecycle_counts(&self) -> LifecycleCounts {
        self.life
    }

    /// Fill the reusable scratch buffer with the replica group whose
    /// primary is `primary` and hand it out. Callers return it with
    /// [`ClusterScenario::put_group`]; the take/put dance exists so the
    /// slice can be borrowed while `&mut self` methods run, without
    /// allocating a group Vec per operation.
    fn take_group(&mut self, primary: usize) -> Vec<ServerId> {
        let mut group = std::mem::take(&mut self.group_scratch);
        group.clear();
        let ring = self.ring;
        group.extend(ring.group_members(primary));
        group
    }

    /// Return the scratch buffer taken by [`ClusterScenario::take_group`].
    fn put_group(&mut self, group: Vec<ServerId>) {
        self.group_scratch = group;
    }

    // ---- client side -----------------------------------------------------

    fn on_client_issue(&mut self, thread: usize, now: Nanos, engine: &mut EventQueue<Ev>) {
        if self.issued >= self.cfg.total_ops {
            return;
        }
        let issue = self.issued;
        self.issued += 1;
        // Open loop: the next arrival is scheduled now, unconditionally —
        // a slow strategy cannot slow the arrival process down, so its
        // queueing shows up in the latency it is charged with.
        if let Some(arrivals) = self.open_arrivals {
            if self.issued < self.cfg.total_ops {
                let gap = arrivals.next_gap(&mut self.threads[thread].rng);
                engine.schedule_in(gap, Ev::ClientIssue { thread });
            }
        }
        let t = &mut self.threads[thread];
        let key = t.keys.sample(&mut t.rng);
        let kind = t.mix.sample(&mut t.rng);
        let coord = t.next_coord;
        t.next_coord = (t.next_coord + 1) % self.cfg.nodes;
        let record_bytes = {
            let t = &mut self.threads[thread];
            self.records.sample(&mut t.rng)
        };
        let read_repair = kind == Op::Read && self.wl_rng.gen::<f64>() < self.cfg.read_repair_prob;
        let op_id = self.ops.insert(OpState {
            thread: thread as u32,
            kind,
            coord: coord as u16,
            group: self.ring.group_id(key) as u16,
            record_bytes,
            created: now,
            issue,
            primary_send: None,
            primary_node: 0,
            read_repair,
            life: OpLife::default(),
            received: false,
            hedge_send: None,
            timers: [None; 3],
            in_backlog: false,
            armed: 0,
            open_sends: 0,
        });
        if kind == Op::Read {
            if let Some(rec) = &mut self.recorder {
                rec.record(now, issue, TracePoint::Issue);
            }
        }
        engine.schedule_in(self.cfg.net_latency, Ev::CoordArrive { op: op_id });
    }

    fn on_client_receive(
        &mut self,
        op_id: OpId,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
        metrics: &mut RunMetrics,
    ) {
        let op = self.ops[op_id];
        let measured = metrics.past_warmup(op.issue);
        let latency = now.saturating_sub(op.created);
        let channel = match op.kind {
            Op::Read => READ_CHANNEL,
            Op::Update => UPDATE_CHANNEL,
        };
        metrics.record_completion(channel, now, latency, measured);
        if measured && op.kind == Op::Read && self.record_trace {
            self.latency_trace.push((now, latency));
        }
        // Warm-up reads get no Complete event, so they never join into
        // attribution rows — matching what the latency channels measure.
        if measured && op.kind == Op::Read {
            if let Some(rec) = &mut self.recorder {
                rec.record(
                    now,
                    op.issue,
                    TracePoint::Complete {
                        latency_ns: latency.as_nanos(),
                    },
                );
            }
        }
        // Closed loop: the thread issues its next operation immediately.
        // (Open-loop arrivals are self-scheduled in `on_client_issue`.)
        if self.open_arrivals.is_none() {
            engine.schedule_in(
                Nanos::from_micros(50),
                Ev::ClientIssue {
                    thread: op.thread as usize,
                },
            );
        }
        self.ops[op_id].received = true;
        self.release_op(op_id);
    }

    // ---- coordinator side ------------------------------------------------

    fn on_coord_arrive(&mut self, op_id: OpId, now: Nanos, engine: &mut EventQueue<Ev>) {
        let op = self.ops[op_id];
        match op.kind {
            Op::Update => {
                // Writes fan out to all replicas (CL=ONE); the ring copy
                // keeps the per-write path allocation-free while the group
                // layout stays defined in one place.
                let ring = self.ring;
                for node in ring.group_members(op.group as usize) {
                    self.forward(op_id, node, true, false, now, engine);
                }
            }
            Op::Read => self.dispatch_read(op_id, now, engine),
        }
    }

    /// Snapshot a selection decision into the flight recorder (see
    /// [`Recorder::record_decision`]); `chosen == None` is backpressure.
    #[inline]
    fn record_decision(
        &mut self,
        issue: u64,
        coord_id: usize,
        chosen: Option<ServerId>,
        group: &[ServerId],
        now: Nanos,
    ) {
        if let Some(rec) = &mut self.recorder {
            let nodes = &self.nodes;
            let selector = &self.coords[coord_id].selector;
            rec.record_decision(now, issue, chosen, group, |n| {
                (selector.replica_view(n), nodes[n].reads.pending() as u32)
            });
        }
    }

    fn dispatch_read(&mut self, op_id: OpId, now: Nanos, engine: &mut EventQueue<Ev>) {
        let op = self.ops[op_id];
        let coord_id = op.coord as usize;
        let group = self.take_group(op.group as usize);
        // Retries steer away from the replica that just timed out (a
        // deadline only runs after a primary send); the failure detector
        // additionally drops evicted nodes.
        let exclude = (op.life.attempts() > 0).then_some(op.primary_node as usize);
        let mut scratch = std::mem::take(&mut self.candidate_scratch);
        let cand = self.candidates(coord_id, &group, exclude, now, &mut scratch);

        match self.coords[coord_id].selector.select(cand, now) {
            Selection::Server(primary) => {
                self.record_decision(op.issue, coord_id, Some(primary), cand, now);
                self.send_read(op_id, primary, &group, true, now, engine);
            }
            Selection::Backpressure { retry_at } => {
                self.record_decision(op.issue, coord_id, None, cand, now);
                self.ops[op_id].in_backlog = true;
                let entered_backpressure = self.coords[coord_id].front.park(
                    op.group as usize,
                    op_id,
                    retry_at,
                    now,
                    engine,
                );
                if entered_backpressure {
                    for (i, &(pc, _)) in self.probes.iter().enumerate() {
                        if pc == coord_id {
                            self.backpressure_events[i].push(now);
                        }
                    }
                }
            }
        }
        self.candidate_scratch = scratch;
        self.put_group(group);
    }

    /// Forward a sub-request from the coordinator to a replica node;
    /// returns the new send's id.
    fn forward(
        &mut self,
        op_id: OpId,
        node: ServerId,
        is_write: bool,
        primary: bool,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
    ) -> SendId {
        let send_id = self.sends.insert(SendState {
            op: op_id,
            node: node as u16,
            is_write,
            sent_at: now,
            feedback: Feedback::new(0, Nanos::ZERO),
        });
        let op = &mut self.ops[op_id];
        op.open_sends += 1;
        if primary {
            op.primary_send = Some(send_id);
            op.primary_node = node as u16;
        }
        // No Send record here: the chosen read's send is folded into the
        // `Decision` event (same timestamp), and read-repair duplicates
        // carry no decision worth tracing. Speculative retries record an
        // explicit `Send` in `speculate`.
        let coord = op.coord as usize;
        let delay = if coord == node {
            Nanos::from_micros(20) // local read: in-process handoff
        } else {
            self.cfg.net_latency
        };
        engine.schedule_in(delay, Ev::ReplicaArrive { send: send_id });
        send_id
    }

    fn spec_threshold(&self, coord_id: usize) -> Nanos {
        let h = &self.coords[coord_id].replica_latency;
        if h.count() < 100 {
            return Nanos::from_millis(50);
        }
        Nanos(h.value_at_quantile(0.99).max(1_000_000))
    }

    // ---- request-lifecycle hardening --------------------------------------

    /// The candidate list offered to the selector: the whole group when
    /// no deadline is configured (the detector does not exist), else
    /// [`FailureDetector::candidates`].
    fn candidates<'a>(
        &self,
        coord_id: usize,
        group: &'a [ServerId],
        exclude: Option<ServerId>,
        now: Nanos,
        scratch: &'a mut Vec<ServerId>,
    ) -> &'a [ServerId] {
        match &self.coords[coord_id].detector {
            Some(detector) => detector.candidates(group, exclude, now, scratch),
            None => group,
        }
    }

    /// Put a read on the wire to its selected `primary` (and, for a
    /// read-repair read, to every other member of `group`), then arm its
    /// lifecycle timers: the speculative check when `speculate` (a read
    /// re-admitted from a backlog gets none), the deadline (whose expiry
    /// retries or parks it) and, on the first attempt only, the hedge
    /// check. A knob that is off arms nothing.
    fn send_read(
        &mut self,
        op_id: OpId,
        primary: ServerId,
        group: &[ServerId],
        speculate: bool,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
    ) {
        let op = self.ops[op_id];
        let coord_id = op.coord as usize;
        let repair = group.iter().filter(|&&n| op.read_repair && n != primary);
        for &node in std::iter::once(&primary).chain(repair) {
            self.coords[coord_id].selector.on_send(node, now);
            self.forward(op_id, node, false, node == primary, now, engine);
        }
        if speculate && self.cfg.speculative_retry {
            let threshold = self.spec_threshold(coord_id);
            self.arm(op_id, threshold, LifeTimer::Spec, engine);
        }
        let lc = self.cfg.lifecycle;
        if let Some(deadline) = lc.deadline {
            self.arm(op_id, deadline, LifeTimer::Deadline, engine);
        }
        if let (Some(hedge_after), 0) = (lc.hedge_after, op.life.attempts()) {
            self.arm(op_id, hedge_after, LifeTimer::Hedge, engine);
        }
    }

    /// Schedule one of `op_id`'s cancellable lifecycle timers, counting
    /// it as armed and keeping its handle (over any still pending: see
    /// `OpState::armed`).
    fn arm(&mut self, op_id: OpId, delay: Nanos, timer: LifeTimer, engine: &mut EventQueue<Ev>) {
        let op = &mut self.ops[op_id];
        op.armed += 1;
        *op.handle(timer) =
            Some(engine.schedule_in_cancellable(delay, Ev::Life { op: op_id, timer }));
    }

    /// One of `op_id`'s lifecycle timers fired: the op's [`OpLife`]
    /// decides whether it acts. One with nothing left to decide is dead —
    /// a deadline a backlog drain armed on re-dispatching an op that
    /// completed while queued, or a speculative check whose handle a
    /// retry's re-dispatch overwrote; completion and parking cancel the
    /// rest — counted, so a return to fire-and-filter shows, and may free
    /// the op.
    fn on_life(&mut self, op_id: OpId, timer: LifeTimer, now: Nanos, engine: &mut EventQueue<Ev>) {
        let op = &mut self.ops[op_id];
        op.armed -= 1;
        *op.handle(timer) = None;
        let life = &mut op.life;
        match timer {
            LifeTimer::Deadline => {
                let rng = &mut self.life_rng;
                let jitter = || rng.gen_range(0.5..1.5);
                match life.expire(&self.cfg.lifecycle, jitter, &mut self.life) {
                    Expiry::Retry(wait) => return self.on_expiry(op_id, Some(wait), now, engine),
                    Expiry::Park => return self.on_expiry(op_id, None, now, engine),
                    Expiry::Dead => {}
                }
            }
            LifeTimer::Retry if life.retry_due() => return self.retry(op_id, now, engine),
            LifeTimer::Hedge if life.elect_hedge() => return self.hedge(op_id, now, engine),
            LifeTimer::Spec if life.elect_speculative() => {
                return self.speculate(op_id, now, engine)
            }
            _ => {}
        }
        let fate = self.ops[op_id].life.fate();
        if timer == LifeTimer::Spec {
            self.dead_spec_checks += u64::from(fate == Fate::Completed);
        } else {
            self.dead_lifecycle += u64::from(fate != Fate::Open);
        }
        self.release_op(op_id);
    }

    /// A read's deadline expired and counted: charge the failure
    /// detector, then arm the retry behind its backoff `retry`, or — the
    /// budget spent, `None` — park the op.
    fn on_expiry(
        &mut self,
        op_id: OpId,
        retry: Option<Nanos>,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
    ) {
        let op = self.ops[op_id];
        let node = op.primary_node as usize;
        self.note_timeout(op.coord as usize, node, now);
        if let Some(rec) = &mut self.recorder {
            rec.record(
                now,
                op.issue,
                TracePoint::Timeout {
                    server: node as u32,
                },
            );
        }
        match retry {
            Some(wait) => self.arm(op_id, wait, LifeTimer::Retry, engine),
            None => self.park(op_id, engine),
        }
    }

    /// The op parked: deadline and retry budget spent. It never
    /// completes — its generator thread moves on so the rest of the
    /// workload still runs — and `is_done` counts it as finished.
    fn park(&mut self, op_id: OpId, engine: &mut EventQueue<Ev>) {
        let op = &mut self.ops[op_id];
        op.disarm(LifeTimer::Hedge, engine);
        op.disarm(LifeTimer::Spec, engine);
        let thread = op.thread as usize;
        if self.open_arrivals.is_none() {
            engine.schedule_in(Nanos::from_micros(50), Ev::ClientIssue { thread });
        }
        self.release_op(op_id);
    }

    /// The backoff wait ended and the retry is due: re-dispatch through
    /// the normal selection path. The replica that timed out is excluded
    /// from the candidate set (see `dispatch_read`) and the fresh primary
    /// send supersedes the abandoned one.
    fn retry(&mut self, op_id: OpId, now: Nanos, engine: &mut EventQueue<Ev>) {
        self.life.retries += 1;
        let op = self.ops[op_id];
        // A pure marker: the retry's own send is traced by the `Decision`
        // the re-dispatch emits. `server` names the replica retried away
        // from.
        if let Some(rec) = &mut self.recorder {
            rec.record(
                now,
                op.issue,
                TracePoint::Retry {
                    server: op.primary_node.into(),
                    attempt: op.life.attempts(),
                },
            );
        }
        self.dispatch_read(op_id, now, engine);
    }

    /// The hedge threshold passed without a response and the op elected
    /// a hedge: duplicate the read to a second replica, RepNet-style.
    /// First response wins; the loser is discarded at the coordinator.
    fn hedge(&mut self, op_id: OpId, now: Nanos, engine: &mut EventQueue<Ev>) {
        let op = self.ops[op_id];
        let tried = op.primary_node as usize;
        let coord_id = op.coord as usize;
        // Prefer a replica the detector trusts; any other member failing
        // that; the tried node itself as a last resort.
        let ring = self.ring;
        let others = || {
            ring.group_members(op.group as usize)
                .filter(|&m| m != tried)
        };
        let detector = self.coords[coord_id].detector.as_ref();
        let alt = others()
            .find(|&m| !detector.is_some_and(|d| d.is_evicted(m, now)))
            .or_else(|| others().next())
            .unwrap_or(tried);
        self.life.hedges += 1;
        self.coords[coord_id].selector.on_send(alt, now);
        let hedge = self.forward(op_id, alt, false, false, now, engine);
        self.ops[op_id].hedge_send = Some(hedge);
        // `HedgeIssue` IS the duplicate's wire record — no separate `Send`.
        if let Some(rec) = &mut self.recorder {
            rec.record(now, op.issue, TracePoint::HedgeIssue { server: alt as u32 });
        }
    }

    /// A deadline expiry charged to `node` in `coord_id`'s detector;
    /// counts and traces the eviction it may tip over into.
    fn note_timeout(&mut self, coord_id: usize, node: usize, now: Nanos) {
        let detector = &self.coords[coord_id].detector;
        if detector.as_ref().is_some_and(|d| d.note_timeout(node, now)) {
            self.life.evictions += 1;
            if let Some(rec) = &mut self.recorder {
                rec.record(
                    now,
                    DETECTOR_OP,
                    TracePoint::Evict {
                        server: node as u32,
                    },
                );
            }
        }
    }

    /// Any response from `node` proves it alive (write acks and
    /// read-repair fan-out keep probing evicted nodes, so recovery is
    /// observed without dedicated probe traffic); counts and traces the
    /// reinstatement when an eviction was standing.
    fn note_success(&mut self, coord_id: usize, node: usize, now: Nanos) {
        let detector = &self.coords[coord_id].detector;
        if detector.as_ref().is_some_and(|d| d.note_success(node)) {
            self.life.reinstates += 1;
            if let Some(rec) = &mut self.recorder {
                rec.record(
                    now,
                    DETECTOR_OP,
                    TracePoint::Reinstate {
                        server: node as u32,
                    },
                );
            }
        }
    }

    /// The read outlived its coordinator's latency estimate and the op
    /// elected a speculative duplicate: reissue it to a replica other
    /// than the one already tried.
    fn speculate(&mut self, op_id: OpId, now: Nanos, engine: &mut EventQueue<Ev>) {
        self.spec_retries += 1;
        let op = self.ops[op_id];
        let tried = op.primary_node as usize;
        let primary = op.group as usize;
        let alt = self
            .ring
            .group_members(primary)
            .find(|&m| m != tried)
            .unwrap_or(primary);
        let coord_id = op.coord as usize;
        self.coords[coord_id].selector.on_send(alt, now);
        // Whichever response arrives first completes the op (see
        // `OpLife::respond`), so the duplicate is also allowed to finish it.
        self.forward(op_id, alt, false, false, now, engine);
        if let Some(rec) = &mut self.recorder {
            rec.record(now, op.issue, TracePoint::Send { server: alt as u32 });
        }
    }

    // ---- replica side ----------------------------------------------------

    fn on_replica_arrive(&mut self, send_id: SendId, now: Nanos, engine: &mut EventQueue<Ev>) {
        let send = self.sends[send_id];
        let node = &mut self.nodes[send.node as usize];
        let fault = node.faults.at(now);
        if fault.down {
            // The replica is crashed or its transport is resetting: the
            // request vanishes. Recovery is the client's job (deadline →
            // retry/hedge/park).
            self.faults_dropped += 1;
            self.release_send(send_id);
            return;
        }
        node.perturb.expire(now);
        if node.stage(send.is_write).arrive(send_id) {
            let mult = node.perturb.multiplier(now) * fault.slow;
            self.start_service(send_id, mult, engine);
        }
    }

    /// `send_id` takes an execution slot at its node: sample its service
    /// time under the node's current multiplier `mult` and schedule its
    /// completion.
    fn start_service(&mut self, send_id: SendId, mult: f64, engine: &mut EventQueue<Ev>) {
        let send = self.sends[send_id];
        let bytes = self.ops[send.op].record_bytes;
        let st = if send.is_write {
            self.disk.sample_write(&mut self.srv_rng, bytes, mult)
        } else {
            self.disk.sample_read(&mut self.srv_rng, bytes, mult)
        };
        engine.schedule_in(
            st,
            Ev::ReplicaDone {
                send: send_id,
                service_time: st,
            },
        );
    }

    fn on_replica_done(
        &mut self,
        send_id: SendId,
        service_time: Nanos,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
        metrics: &mut RunMetrics,
    ) {
        let send = self.sends[send_id];
        let node_id = send.node as usize;

        if !send.is_write {
            metrics.record_service(node_id, now);
        }

        // Start the next queued request of the same stage.
        let node = &mut self.nodes[node_id];
        let fault = node.faults.at(now);
        node.perturb.expire(now);
        let mult = node.perturb.multiplier(now) * fault.slow;
        if let Some(next) = node.stage(send.is_write).finish() {
            self.start_service(next, mult, engine);
        }

        // Feedback: pending reads at this node when the response leaves.
        let pending = self.nodes[node_id].reads.pending() as u32;
        self.sends[send_id].feedback = Feedback::new(pending, service_time);

        let coord = self.ops[send.op].coord as usize;
        let mut delay = if coord == node_id {
            Nanos::from_micros(20)
        } else {
            self.cfg.net_latency
        };
        // Response-side faults: a crash/reset window or a lossy window
        // destroys the response after it burned service time; a laggy
        // window stretches its return path. The stage bookkeeping above
        // already ran, so the replica itself keeps draining.
        if fault.down || (fault.drop_prob > 0.0 && self.life_rng.gen::<f64>() < fault.drop_prob) {
            self.faults_dropped += 1;
            self.release_send(send_id);
            return;
        }
        delay += fault.extra_delay;
        engine.schedule_in(delay, Ev::CoordReceive { send: send_id });
    }

    // ---- coordinator receives a sub-response ------------------------------

    fn on_coord_receive(&mut self, send_id: SendId, now: Nanos, engine: &mut EventQueue<Ev>) {
        let send = self.sends[send_id];
        let op = self.ops[send.op];
        let coord_id = op.coord as usize;
        let node = send.node as usize;
        let rtt = now.saturating_sub(send.sent_at);
        let feedback = send.feedback;

        // Any response proves the node alive (a no-op without a deadline:
        // there is no detector to tell).
        self.note_success(coord_id, node, now);

        // Update the coordinator's selection state (reads only; writes are
        // fan-out sends the selector never chose).
        if !send.is_write {
            let coord = &mut self.coords[coord_id];
            coord.selector.on_response(
                node,
                &c3_core::ResponseInfo {
                    response_time: rtt,
                    feedback: Some(feedback),
                },
                now,
            );
            coord.replica_latency.record(rtt.as_nanos());
            if let Some(rec) = &mut self.recorder {
                rec.record(
                    now,
                    op.issue,
                    TracePoint::Feedback {
                        server: node as u32,
                        queue: feedback.queue_size,
                        service_ns: feedback.service_time.as_nanos(),
                    },
                );
            }
        }

        // Sample rate probes after the controller reacted.
        for (i, &(pc, pn)) in self.probes.iter().enumerate() {
            if pc == coord_id {
                if let Some(c3) = self.coords[coord_id].selector.as_c3() {
                    self.rate_traces[i].push(now.as_nanos(), c3.state().limiter(pn).srate());
                }
            }
        }

        // Sample the score probe after the tracker EWMAs updated (the
        // recorder throttles to one sample per interval, so traces stay
        // small at any run length).
        if self.score_probe == Some(coord_id) {
            if let Some(rec) = &mut self.recorder {
                if rec.scores_due(now) {
                    if let Some(c3) = self.coords[coord_id].selector.as_c3() {
                        let scores: Vec<f64> = (0..self.cfg.nodes)
                            .map(|n| c3.state().score_of(n))
                            .collect();
                        rec.push_scores(now, scores);
                    }
                }
            }
        }

        // Completion: the op's machine decides which response wins. Every
        // write ack answers as the primary (writes complete on the first
        // ack); a read's send is the latest primary, the hedge, or stale.
        let from = if send.is_write || op.primary_send == Some(send_id) {
            Attempt::Primary
        } else if op.hedge_send == Some(send_id) {
            Attempt::Hedge
        } else {
            Attempt::Stale
        };
        let server = node as u32;
        let point = match self.ops[send.op].life.respond(from, &mut self.life) {
            Outcome::Complete { hedge_win } => {
                // Timers that can no longer act (speculative-retry check,
                // deadline or backoff retry, hedge check) are cancelled
                // instead of surfacing as dead events through the kernel.
                for timer in [LifeTimer::Spec, LifeTimer::Deadline, LifeTimer::Hedge] {
                    self.ops[send.op].disarm(timer, engine);
                }
                engine.schedule_in(self.cfg.net_latency, Ev::ClientReceive { op: send.op });
                hedge_win.then_some(TracePoint::HedgeWin { server })
            }
            // The losing half of a hedged pair straggling in after the
            // winner: discarded, but traced so the hedge ledger can price
            // the duplicate's flight time.
            Outcome::HedgeLoss => Some(TracePoint::HedgeLoss { server }),
            Outcome::Late => None,
        };
        if let (Some(point), Some(rec)) = (point, &mut self.recorder) {
            rec.record(now, op.issue, point);
        }

        // A response may free rate for the backlogged groups containing
        // this node (backpressure-capable selectors only; others never
        // have a backlog). The non-empty-backlog counter makes the common
        // nothing-backlogged case a single load; the group ids are
        // computed arithmetically, so this path never allocates.
        if self.coords[coord_id].front.any_backlogged() {
            let ring = self.ring;
            for group_id in ring.groups_of_node(node) {
                if self.coords[coord_id].front.is_backlogged(group_id) {
                    self.on_retry(coord_id, group_id, now, engine, false);
                }
            }
        }
        self.release_send(send_id);
    }

    fn on_retry(
        &mut self,
        coord_id: usize,
        group_id: usize,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
        from_timer: bool,
    ) {
        if !self.coords[coord_id]
            .front
            .begin_drain(group_id, from_timer, engine)
        {
            return;
        }
        let group = self.take_group(group_id);
        // Eviction state cannot change mid-drain (no responses are
        // processed inside the loop), so the filtered view is computed
        // once.
        let mut scratch = std::mem::take(&mut self.candidate_scratch);
        let cand = self.candidates(coord_id, &group, None, now, &mut scratch);
        while let Some(op_id) = self.coords[coord_id].front.peek(group_id) {
            match self.coords[coord_id].selector.select(cand, now) {
                Selection::Server(node) => {
                    self.record_decision(self.ops[op_id].issue, coord_id, Some(node), cand, now);
                    self.coords[coord_id].front.pop(group_id);
                    self.ops[op_id].in_backlog = false;
                    self.send_read(op_id, node, &group, false, now, engine);
                }
                Selection::Backpressure { retry_at } => {
                    self.coords[coord_id]
                        .front
                        .stall(group_id, retry_at, now, engine);
                    break;
                }
            }
        }
        self.candidate_scratch = scratch;
        self.put_group(group);
    }

    // ---- record lifetimes -------------------------------------------------

    /// A send's one terminal event — its response handled at the
    /// coordinator, or the fault plan destroying the request or the
    /// response — frees its record, clears the op's handle on it (the key
    /// is recycled from here on) and may free the op.
    fn release_send(&mut self, send_id: SendId) {
        let op_id = self.sends.remove(send_id).op;
        let op = &mut self.ops[op_id];
        op.open_sends -= 1;
        if op.primary_send == Some(send_id) {
            op.primary_send = None;
        }
        if op.hedge_send == Some(send_id) {
            op.hedge_send = None;
        }
        self.release_op(op_id);
    }

    /// Free `op_id`'s record once nothing can name it any more: it is
    /// terminal (its `ClientReceive` was handled, or it parked), no send
    /// of it is open, none of its timers is armed and no backlog holds it.
    /// Called wherever one of those names disappears; the op's key is dead
    /// once this frees it.
    fn release_op(&mut self, op_id: OpId) {
        let op = &self.ops[op_id];
        let terminal = op.received || op.life.fate() == Fate::Parked;
        if terminal && op.open_sends == 0 && op.armed == 0 && !op.in_backlog {
            self.ops.remove(op_id);
        }
    }

    // ---- cluster-wide processes -------------------------------------------

    /// Feed the gossiped 1-second iowait averages to every DS selector.
    fn on_gossip(&mut self, now: Nanos, engine: &mut EventQueue<Ev>) {
        let iowaits: Vec<f64> = self.nodes.iter().map(|n| n.perturb.iowait(now)).collect();
        for coord in &mut self.coords {
            if let Some(snitch) = coord.selector.as_snitch_mut() {
                for (peer, &io) in iowaits.iter().enumerate() {
                    snitch.record_iowait(peer, io);
                }
            }
        }
        engine.schedule_in(self.cfg.gossip_interval, Ev::GossipTick);
    }

    fn on_snitch_tick(&mut self, now: Nanos, engine: &mut EventQueue<Ev>) {
        for coord in &mut self.coords {
            if let Some(snitch) = coord.selector.as_snitch_mut() {
                snitch.recompute(now);
            }
        }
        engine.schedule_in(SnitchConfig::default().update_interval, Ev::SnitchTick);
    }

    fn on_perturb_start(
        &mut self,
        node: usize,
        kind: EpisodeKind,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
    ) {
        let end = self.nodes[node].perturb.begin(kind, now, &mut self.srv_rng);
        if let Some(gap) = self.nodes[node]
            .perturb
            .next_start_gap(kind, &mut self.srv_rng)
        {
            engine.schedule(end.saturating_add(gap), Ev::PerturbStart { node, kind });
        }
    }

    fn on_phase_start(&mut self, now: Nanos, engine: &mut EventQueue<Ev>) {
        let phase = self.cfg.phase.expect("phase event without phase config");
        let base = self.threads.len();
        for i in 0..phase.extra_generators {
            let idx = base + i;
            self.threads.push(ThreadState {
                keys: self.key_template.clone(),
                mix: phase.mix,
                next_coord: idx % self.cfg.nodes,
                rng: SmallRng::seed_from_u64(self.seeds.phase_seed(idx as u64)),
            });
            engine.schedule(
                now + Nanos::from_micros(10 * i as u64 + 1),
                Ev::ClientIssue { thread: idx },
            );
        }
    }
}

impl Scenario for ClusterScenario {
    type Event = Ev;

    fn channels(&self) -> ChannelSet {
        ChannelSet::of(CLUSTER_CHANNELS)
    }

    fn start(&mut self, engine: &mut EventQueue<Ev>) {
        // Kick off the generator threads with a small deterministic
        // stagger.
        for t in 0..self.cfg.generators {
            let jitter = Nanos::from_micros(10 * t as u64 + 1);
            engine.schedule(jitter, Ev::ClientIssue { thread: t });
        }
        engine.schedule(self.cfg.gossip_interval, Ev::GossipTick);
        engine.schedule(SnitchConfig::default().update_interval, Ev::SnitchTick);
        // Perturbation processes.
        for node in 0..self.cfg.nodes {
            for kind in [
                EpisodeKind::Gc,
                EpisodeKind::Compaction,
                EpisodeKind::Slowdown,
            ] {
                if let Some(gap) = self.nodes[node]
                    .perturb
                    .next_start_gap(kind, &mut self.srv_rng)
                {
                    engine.schedule(gap, Ev::PerturbStart { node, kind });
                }
            }
        }
        if let Some(phase) = &self.cfg.phase {
            engine.schedule(phase.at, Ev::PhaseStart);
        }
    }

    fn handle(
        &mut self,
        event: Ev,
        now: Nanos,
        engine: &mut EventQueue<Ev>,
        metrics: &mut RunMetrics,
    ) {
        match event {
            Ev::ClientIssue { thread } => self.on_client_issue(thread, now, engine),
            Ev::CoordArrive { op } => self.on_coord_arrive(op, now, engine),
            Ev::ReplicaArrive { send } => self.on_replica_arrive(send, now, engine),
            Ev::ReplicaDone { send, service_time } => {
                self.on_replica_done(send, service_time, now, engine, metrics)
            }
            Ev::CoordReceive { send } => self.on_coord_receive(send, now, engine),
            Ev::ClientReceive { op } => self.on_client_receive(op, now, engine, metrics),
            Ev::GossipTick => self.on_gossip(now, engine),
            Ev::SnitchTick => self.on_snitch_tick(now, engine),
            Ev::PerturbStart { node, kind } => self.on_perturb_start(node, kind, now, engine),
            Ev::RetryBacklog { coord, group } => self.on_retry(coord, group, now, engine, true),
            Ev::PhaseStart => self.on_phase_start(now, engine),
            Ev::Life { op, timer } => self.on_life(op, timer, now, engine),
        }
    }

    fn is_done(&self, metrics: &RunMetrics) -> bool {
        // Parked operations never complete; they still count as finished
        // so a faulted run terminates (identical to the seed expression
        // whenever nothing parks).
        metrics.total_completions() + self.life.parked >= self.cfg.total_ops
    }
}

/// The assembled cluster simulation: a [`ClusterScenario`] plus its runner
/// plumbing. Build with [`Cluster::new`], run with [`Cluster::run`].
pub struct Cluster {
    scenario: ClusterScenario,
}

impl Cluster {
    /// Build a cluster from a validated config.
    pub fn new(cfg: ClusterConfig) -> Self {
        Self {
            scenario: ClusterScenario::new(cfg),
        }
    }

    /// Record `(time, latency)` pairs for every completed read (Figure 11).
    pub fn with_latency_trace(mut self) -> Self {
        self.scenario.set_latency_trace();
        self
    }

    /// Install sending-rate probes: `(coordinator, target node)` pairs
    /// (Figure 13). Only meaningful for C3 runs.
    pub fn with_rate_probes(mut self, probes: Vec<(usize, usize)>) -> Self {
        self.scenario.set_rate_probes(probes);
        self
    }

    /// Sample one coordinator's per-replica C3 scores into
    /// `ClusterResult::score_trace` (sim-vs-live parity harness).
    pub fn with_score_probe(mut self, coord: usize) -> Self {
        self.scenario.set_score_probe(coord);
        self
    }

    /// Attach a flight recorder (see [`ClusterScenario::set_recorder`]);
    /// it comes back in `ClusterResult::recorder`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.scenario.set_recorder(recorder);
        self
    }

    /// The config in force.
    pub fn config(&self) -> &ClusterConfig {
        self.scenario.config()
    }

    /// Run to completion.
    pub fn run(self) -> ClusterResult {
        let cfg = self.scenario.config().clone();
        let runner = ScenarioRunner::new(cfg.seed)
            .with_warmup(cfg.warmup_ops)
            .with_exact_latency_if(cfg.exact_latency);
        let mut scenario = self.scenario;
        let (metrics, stats) = runner.run(&mut scenario, cfg.nodes, cfg.load_window);
        scenario.into_result(metrics, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use c3_engine::Strategy;

    fn small(strategy: Strategy) -> ClusterConfig {
        ClusterConfig {
            nodes: 9,
            generators: 30,
            total_ops: 8_000,
            warmup_ops: 500,
            keys: 100_000,
            strategy,
            seed: 11,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn c3_cluster_completes() {
        let res = Cluster::new(small(Strategy::c3())).run();
        assert_eq!(
            res.reads_completed + res.updates_completed,
            8_000 - 500,
            "all post-warmup ops recorded"
        );
        assert!(res.read_throughput() > 0.0);
    }

    #[test]
    fn all_strategies_complete() {
        for s in [
            Strategy::c3(),
            Strategy::dynamic_snitching(),
            Strategy::lor(),
            Strategy::primary_only(),
            Strategy::nearest_node(),
            Strategy::random(),
            Strategy::c3_no_rate_control(),
            Strategy::round_robin(),
            Strategy::power_of_two(),
        ] {
            let mut cfg = small(s.clone());
            cfg.total_ops = 3_000;
            cfg.warmup_ops = 200;
            let res = Cluster::new(cfg).run();
            assert_eq!(
                res.reads_completed + res.updates_completed,
                2_800,
                "strategy {s}"
            );
        }
    }

    #[test]
    fn open_loop_completes_and_paces_arrivals() {
        // Open loop at a modest rate: every op still completes, and the
        // measured duration stretches to roughly ops/rate — unlike the
        // closed loop, which runs as fast as responses return.
        let mut cfg = small(Strategy::c3());
        cfg.total_ops = 3_000;
        cfg.warmup_ops = 200;
        cfg.offered_rate = Some(2_000.0);
        let open = Cluster::new(cfg.clone()).run();
        assert_eq!(open.reads_completed + open.updates_completed, 2_800);
        // 2.8k measured arrivals at 2k/s span ~1.4 s; the closed loop
        // (which runs as fast as responses return) finishes well under
        // that, so pacing must visibly stretch the measured window.
        cfg.offered_rate = None;
        let closed = Cluster::new(cfg).run();
        assert!(
            open.duration > closed.duration,
            "a paced run must out-last the closed loop: {:?} vs {:?}",
            open.duration,
            closed.duration
        );
        assert!(
            open.duration > Nanos::from_millis(1_200),
            "2.8k measured arrivals at 2k/s span ≥ ~1.4 s, got {:?}",
            open.duration
        );
    }

    #[test]
    fn open_loop_runs_are_deterministic() {
        let mut cfg = small(Strategy::c3());
        cfg.total_ops = 3_000;
        cfg.warmup_ops = 200;
        cfg.offered_rate = Some(8_000.0);
        let a = Cluster::new(cfg.clone()).run();
        let b = Cluster::new(cfg).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.duration, b.duration);
        assert_eq!(
            a.read_latency.value_at_quantile(0.99),
            b.read_latency.value_at_quantile(0.99)
        );
    }

    #[test]
    fn exact_latency_does_not_perturb_the_run() {
        // `ClusterResult` carries raw histograms, so the flag is only
        // observable through `RunMetrics::summary` consumers (the
        // scenario reports — asserted in c3-scenarios); here we pin that
        // turning it on changes nothing about the simulation itself.
        let mut cfg = small(Strategy::lor());
        cfg.total_ops = 3_000;
        cfg.warmup_ops = 200;
        let plain = Cluster::new(cfg.clone()).run();
        cfg.exact_latency = true;
        let exact = Cluster::new(cfg).run();
        assert_eq!(plain.events_processed, exact.events_processed);
        assert_eq!(plain.duration, exact.duration);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let a = Cluster::new(small(Strategy::dynamic_snitching())).run();
        let b = Cluster::new(small(Strategy::dynamic_snitching())).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(
            a.read_latency.value_at_quantile(0.99),
            b.read_latency.value_at_quantile(0.99)
        );
    }

    #[test]
    fn update_heavy_records_updates() {
        let mut cfg = small(Strategy::c3());
        cfg.mix = WorkloadMix::update_heavy();
        let res = Cluster::new(cfg).run();
        assert!(
            res.updates_completed > 2_000,
            "updates {}",
            res.updates_completed
        );
        assert!(res.update_latency.count() > 0);
    }

    #[test]
    fn latency_trace_is_recorded_when_enabled() {
        let res = Cluster::new(small(Strategy::c3()))
            .with_latency_trace()
            .run();
        assert_eq!(res.latency_trace.len() as u64, res.reads_completed);
        // Trace must be time-ordered.
        for w in res.latency_trace.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn rate_probes_record_for_c3() {
        let res = Cluster::new(small(Strategy::c3()))
            .with_rate_probes(vec![(0, 2), (1, 2)])
            .run();
        assert_eq!(res.rate_traces.len(), 2);
        assert!(!res.rate_traces[0].is_empty());
        assert!(!res.rate_traces[1].is_empty());
    }

    #[test]
    fn score_probe_traces_every_node_throttled() {
        let res = Cluster::new(small(Strategy::c3()))
            .with_score_probe(0)
            .run();
        assert!(!res.score_trace.is_empty(), "probe must sample");
        for (_, scores) in &res.score_trace {
            assert_eq!(scores.len(), 9, "one score per node");
        }
        // Throttle: consecutive samples at least 50 ms of sim time apart.
        for w in res.score_trace.windows(2) {
            assert!(w[1].0.saturating_sub(w[0].0) >= Nanos::from_millis(50));
        }
    }

    #[test]
    fn recorder_captures_read_lifecycles_without_perturbing_the_run() {
        let plain = Cluster::new(small(Strategy::c3())).run();
        let recorded = Cluster::new(small(Strategy::c3()))
            .with_recorder(Recorder::with_default_capacity())
            .run();
        // Observational: the run itself is bit-identical.
        assert_eq!(plain.events_processed, recorded.events_processed);
        assert_eq!(
            plain.read_latency.value_at_quantile(0.99),
            recorded.read_latency.value_at_quantile(0.99)
        );
        let rec = recorded.recorder.expect("recorder rides along");
        assert!(!rec.is_empty(), "lifecycle events must be captured");
        let attr = c3_telemetry::attribute_tail(rec.events(), "small", "C3", 0.99);
        assert!(attr.joined > 0, "completed reads must join");
        assert!(!attr.tail.is_empty(), "a tail bucket must exist");
        for row in &attr.tail {
            assert_eq!(
                row.wait_for_permit_ns + row.queueing_ns + row.service_ns,
                row.latency_ns,
                "decomposition must be exact"
            );
            assert!(row.regret.is_finite(), "C3 decisions carry views");
            assert!(row.regret >= 0.0, "chosen can't beat the best candidate");
        }
    }

    #[test]
    fn ds_decisions_carry_frozen_and_fresh_scores() {
        let recorded = Cluster::new(small(Strategy::dynamic_snitching()))
            .with_recorder(Recorder::with_default_capacity())
            .run();
        let rec = recorded.recorder.expect("recorder rides along");
        let attr = c3_telemetry::attribute_tail(rec.events(), "small", "DS", 0.99);
        assert!(attr.joined > 0);
        assert!(
            attr.mean_regret_rel.is_finite(),
            "DS tail must carry fresh-score regret"
        );
    }

    #[test]
    fn drained_backlogs_cancel_their_retry_timers() {
        // Constrain C3's rate so backpressure (and thus RetryBacklog
        // timers) actually occurs, then assert that no timer ever fires
        // against a drained backlog: response-driven drains must cancel
        // the pending timer rather than let it surface as a dead event.
        let mut cfg = small(Strategy::c3());
        cfg.c3.initial_rate = 4.0;
        cfg.c3.smax = 0.5;
        let res = Cluster::new(cfg).run();
        assert!(
            res.backpressure_activations > 0,
            "rate cap must bind for this regression test to bite"
        );
        assert_eq!(
            res.dead_retries, 0,
            "no RetryBacklog may fire on a drained backlog"
        );
    }

    #[test]
    fn speculative_retry_issues_duplicates() {
        let mut cfg = small(Strategy::dynamic_snitching());
        cfg.speculative_retry = true;
        let res = Cluster::new(cfg).run();
        assert!(res.speculative_retries > 0, "some reads should speculate");
    }

    #[test]
    fn completed_ops_cancel_their_spec_timers() {
        use crate::perturb::PerturbationSpec;
        // A quiet cluster (no perturbation episodes, so no stragglers
        // beyond the service-time distribution itself): nearly every
        // speculative-retry timer outlives its read. Completion must
        // cancel those timers rather than letting them surface as dead
        // events, so the dead-check count is exactly zero.
        let mut cfg = small(Strategy::lor());
        cfg.speculative_retry = true;
        cfg.perturbations = PerturbationSpec::none();
        let res = Cluster::new(cfg).run();
        assert_eq!(
            res.dead_spec_checks, 0,
            "no speculative check may fire after its op completed"
        );
        assert!(
            res.events_cancelled > 0,
            "completions must cancel pending spec timers"
        );
    }

    #[test]
    fn spec_timers_do_not_change_results_when_disabled() {
        // Without speculative retry no timers are scheduled, so nothing
        // can be cancelled.
        let res = Cluster::new(small(Strategy::lor())).run();
        assert_eq!(res.events_cancelled, 0);
        assert_eq!(res.dead_spec_checks, 0);
    }

    #[test]
    fn oracle_is_rejected_with_a_clear_panic() {
        let cfg = small(Strategy::oracle());
        let err = std::panic::catch_unwind(|| {
            let _ = Cluster::new(cfg);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("ORA"), "got: {msg}");
    }

    #[test]
    fn generous_deadline_changes_no_outcome() {
        // A deadline that never fires arms and cancels one timer per
        // dispatch but must not change anything the clients observe.
        let mut cfg = small(Strategy::c3());
        cfg.total_ops = 3_000;
        cfg.warmup_ops = 200;
        let base = Cluster::new(cfg.clone()).run();
        cfg.lifecycle.deadline = Some(Nanos::from_secs(5));
        let hard = Cluster::new(cfg).run();
        assert_eq!(hard.lifecycle.timeouts, 0);
        assert_eq!(hard.lifecycle.parked, 0);
        assert_eq!(hard.lifecycle.evictions, 0);
        assert_eq!(base.duration, hard.duration);
        assert_eq!(
            base.read_latency.value_at_quantile(0.99),
            hard.read_latency.value_at_quantile(0.99)
        );
        assert!(
            hard.events_cancelled > base.events_cancelled,
            "every dispatch armed a deadline that completion cancelled"
        );
    }

    fn crashy(strategy: Strategy) -> ClusterConfig {
        let mut cfg = small(strategy);
        cfg.total_ops = 6_000;
        cfg.warmup_ops = 200;
        cfg.faults = FaultPlan::crash_flux(5, 9, Nanos::from_secs(30));
        cfg.lifecycle.deadline = Some(Nanos::from_millis(60));
        cfg
    }

    #[test]
    fn naked_deadline_parks_reads_under_crash_flux() {
        // No retries, no hedging: reads dispatched into a crash window
        // time out once and park.
        let res = Cluster::new(crashy(Strategy::dynamic_snitching())).run();
        assert!(res.faults_dropped > 0, "crash windows must destroy sends");
        assert!(
            res.lifecycle.timeouts > 0,
            "destroyed sends must expire deadlines"
        );
        assert!(
            res.lifecycle.parked > 0,
            "without retries a timed-out read parks"
        );
        assert_eq!(res.dead_lifecycle, 0, "lifecycle timers never fire dead");
    }

    #[test]
    fn retries_and_hedging_rescue_crashed_reads() {
        let naked = Cluster::new(crashy(Strategy::c3())).run();
        let mut cfg = crashy(Strategy::c3());
        cfg.lifecycle.retries = 3;
        cfg.lifecycle.hedge_after = Some(Nanos::from_millis(30));
        let hardened = Cluster::new(cfg).run();
        assert!(hardened.lifecycle.timeouts > 0);
        assert!(
            hardened.lifecycle.retries > 0,
            "timeouts must trigger retries"
        );
        assert!(hardened.lifecycle.hedges > 0, "slow reads must hedge");
        assert_eq!(hardened.dead_lifecycle, 0);
        assert!(
            hardened.lifecycle.parked < naked.lifecycle.parked,
            "retry + hedge must park fewer reads than naked deadlines \
             ({} vs {})",
            hardened.lifecycle.parked,
            naked.lifecycle.parked
        );
    }

    #[test]
    fn failure_detector_evicts_and_reinstates() {
        let mut cfg = crashy(Strategy::c3());
        cfg.lifecycle.retries = 3;
        let res = Cluster::new(cfg).run();
        assert!(
            res.lifecycle.evictions > 0,
            "three consecutive expiries must evict the crashed node"
        );
        assert!(
            res.lifecycle.reinstates > 0,
            "responses after restart must lift the eviction"
        );
    }

    #[test]
    fn flaky_net_drops_and_delays_are_survivable() {
        let mut cfg = small(Strategy::c3());
        cfg.total_ops = 6_000;
        cfg.warmup_ops = 200;
        cfg.faults = FaultPlan::flaky_net(5, 9, Nanos::from_secs(30));
        cfg.lifecycle.deadline = Some(Nanos::from_millis(100));
        cfg.lifecycle.retries = 3;
        let res = Cluster::new(cfg).run();
        assert!(res.faults_dropped > 0, "lossy windows must destroy traffic");
        assert!(res.lifecycle.timeouts > 0);
        assert!(res.lifecycle.retries > 0);
        assert_eq!(res.dead_lifecycle, 0);
    }

    #[test]
    fn hedged_runs_trace_the_full_lifecycle() {
        let mut cfg = crashy(Strategy::c3());
        cfg.lifecycle.retries = 2;
        cfg.lifecycle.hedge_after = Some(Nanos::from_millis(30));
        // Size the ring for every event of the run (~6 per request), so
        // rare early points (retries) can't be evicted before we look.
        let res = Cluster::new(cfg)
            .with_recorder(Recorder::new(64 * 1024))
            .run();
        assert!(res.lifecycle.hedges > 0);
        assert!(
            res.lifecycle.hedge_wins > 0,
            "some hedged duplicates must win"
        );
        let rec = res.recorder.expect("recorder rides along");
        let events: Vec<_> = rec.events().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e.point, TracePoint::Timeout { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.point, TracePoint::Retry { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.point, TracePoint::HedgeIssue { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.point, TracePoint::HedgeWin { .. })));
        let attr = c3_telemetry::attribute_tail(rec.events(), "crashy", "C3", 0.99);
        assert!(attr.joined > 0);
        assert!(attr.hedges > 0, "hedge ledger must see the duplicates");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let mut cfg = crashy(Strategy::c3());
        cfg.lifecycle.retries = 2;
        cfg.lifecycle.hedge_after = Some(Nanos::from_millis(30));
        let a = Cluster::new(cfg.clone()).run();
        let b = Cluster::new(cfg).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.lifecycle.timeouts, b.lifecycle.timeouts);
        assert_eq!(a.lifecycle.retries, b.lifecycle.retries);
        assert_eq!(a.lifecycle.hedges, b.lifecycle.hedges);
        assert_eq!(a.lifecycle.parked, b.lifecycle.parked);
        assert_eq!(a.faults_dropped, b.faults_dropped);
        assert_eq!(
            a.read_latency.value_at_quantile(0.99),
            b.read_latency.value_at_quantile(0.99)
        );
    }

    /// `crash-flux` (`crash`) or `flaky-net` as the scenario library
    /// configures them, at the fingerprint goldens' scale.
    fn golden_fault_cell(crash: bool, strategy: Strategy) -> ClusterConfig {
        use crate::perturb::PerturbationSpec;
        let mut cfg = ClusterConfig {
            total_ops: 3_000,
            warmup_ops: 150,
            keys: 1_000_000,
            strategy,
            seed: 1,
            perturbations: PerturbationSpec::none(),
            ..ClusterConfig::default()
        };
        let span = Nanos::from_secs(60);
        if crash {
            cfg.faults = FaultPlan::crash_flux(cfg.seed, cfg.nodes, span);
            cfg.faults.layer(&FaultPlan::CRASH_FLUX_EARLY, cfg.nodes);
            cfg.lifecycle = c3_core::LifecycleConfig::hardened(
                Nanos::from_millis(75),
                3,
                Some(Nanos::from_millis(30)),
            );
        } else {
            cfg.faults = FaultPlan::flaky_net(cfg.seed, cfg.nodes, span);
            cfg.faults.layer(&FaultPlan::FLAKY_NET_EARLY, cfg.nodes);
            cfg.lifecycle = c3_core::LifecycleConfig::hardened(
                Nanos::from_millis(100),
                3,
                Some(Nanos::from_millis(50)),
            );
        }
        cfg
    }

    /// One of the four cluster-backed scenario cells as the scenario
    /// library lowers them (`c3-scenarios` depends on this crate, so the
    /// lowering is restated here), at `ops` operations.
    fn scenario_cell(scenario: &str, strategy: Strategy, ops: u64) -> ClusterConfig {
        use crate::fault::{FaultEvent, FaultKind};
        use crate::perturb::{EpisodeSpec, PerturbationSpec};
        let mut cfg = match scenario {
            "crash-flux" => golden_fault_cell(true, strategy),
            "flaky-net" => golden_fault_cell(false, strategy),
            _ => ClusterConfig {
                keys: 1_000_000,
                strategy,
                ..ClusterConfig::default()
            },
        };
        let dark = |node, start, end| FaultEvent {
            node,
            kind: FaultKind::Slow,
            start: Nanos::from_millis(start),
            end: Nanos::from_millis(end),
            magnitude: 40.0,
        };
        match scenario {
            "partition-flux" => {
                let off = PerturbationSpec::none();
                cfg.perturbations = PerturbationSpec {
                    slowdown: EpisodeSpec {
                        mean_interval_ms: 6_000.0,
                        min_duration_ms: 400.0,
                        max_duration_ms: 1_500.0,
                        multiplier: 25.0,
                        iowait: 0.95,
                    },
                    ..off
                };
                cfg.faults.events = vec![dark(0, 500, 1_500), dark(1, 2_000, 2_800)];
            }
            "hetero-fleet" => cfg.faults = FaultPlan::tiers(&[1.0, 1.0, 3.0], cfg.nodes),
            _ => {}
        }
        cfg.total_ops = ops;
        cfg.warmup_ops = ops / 20;
        cfg
    }

    /// Run `cfg` on a bare runner so the record tables can be inspected
    /// afterwards: `(op slots, send slots, result)`.
    fn run_keeping_tables(
        cfg: ClusterConfig,
        recorder: Option<Recorder>,
    ) -> (usize, usize, ClusterResult) {
        let runner = ScenarioRunner::new(cfg.seed).with_warmup(cfg.warmup_ops);
        let mut scenario = ClusterScenario::new(cfg.clone());
        scenario.recorder = recorder;
        let (metrics, stats) = runner.run(&mut scenario, cfg.nodes, cfg.load_window);
        let (ops, sends) = (scenario.ops.slot_count(), scenario.sends.slot_count());
        (ops, sends, scenario.into_result(metrics, stats))
    }

    #[test]
    fn record_tables_hold_what_is_in_flight_not_what_was_issued() {
        for scenario in ["crash-flux", "flaky-net", "partition-flux", "hetero-fleet"] {
            for strategy in [Strategy::c3(), Strategy::lor()] {
                let cell = format!("{scenario} / {strategy}");
                let cfg = scenario_cell(scenario, strategy, 50_000);
                let (op_slots, send_slots, res) = run_keeping_tables(cfg, None);
                assert!(
                    res.reads_completed + res.updates_completed + res.lifecycle.parked >= 47_500,
                    "{cell}: every measured op completes or parks"
                );
                assert!(
                    op_slots <= 2_000 && send_slots <= 2_000,
                    "{cell}: {op_slots} op / {send_slots} send slots for 50k ops"
                );
            }
        }
    }

    #[test]
    fn speculative_retry_under_faults_frees_no_record_early() {
        // Every way an op outlives its terminal event happens here: parked
        // ops keep straggling sends and speculative checks whose handle a
        // retry's re-dispatch overwrote (parking cancels only the pending
        // one, and no duplicate is elected for a parked op); C3 starved of
        // rate backlogs retries, some of which complete — and reach their
        // client — while still queued, to be re-dispatched on the drain.
        // The debug build's generation checks fail on any record freed
        // while still named. A limiter starting at one request per δ and
        // growing 0.05 per response (slow start, then the cubic) keeps C3
        // starved of rate.
        let mut cfg = golden_fault_cell(true, Strategy::c3());
        cfg.total_ops = 20_000;
        cfg.warmup_ops = 1_000;
        cfg.speculative_retry = true;
        cfg.c3.initial_rate = 1.0;
        cfg.c3.smax = 0.05;
        let res = Cluster::new(cfg).run();
        // What the cell exists for: ops park, checks are overwritten, and
        // ops complete while backlogged (the dead deadlines were armed on
        // re-dispatching an already-complete op).
        assert!(res.backpressure_activations > 0);
        assert!(res.lifecycle.parked > 0);
        assert!(res.dead_spec_checks > 0);
        assert!(res.dead_lifecycle > 0);
        // Pinned from a debug run, so any change to what the run does shows.
        assert_eq!(res.speculative_retries, 509);
        assert_eq!(
            res.lifecycle,
            LifecycleCounts {
                timeouts: 3_667,
                retries: 3_078,
                parked: 58,
                hedges: 3_914,
                hedge_wins: 1_966,
                evictions: 148,
                reinstates: 148,
            }
        );
        assert_eq!(res.faults_dropped, 584);
        assert_eq!(res.events_processed, 175_002);
        assert_eq!(res.events_cancelled, 52_707);
        assert_eq!(
            (res.dead_spec_checks, res.dead_retries, res.dead_lifecycle),
            (2_318, 0, 5)
        );
    }

    #[test]
    fn trace_ids_are_issue_indices_not_recycled_keys() {
        let mut cfg = golden_fault_cell(true, Strategy::c3());
        cfg.total_ops = 20_000;
        cfg.warmup_ops = 1_000;
        // Every op a read, so every op traces an `Issue`.
        cfg.mix = WorkloadMix::read_only();
        let (op_slots, _, res) = run_keeping_tables(cfg, Some(Recorder::new(12 * 20_000)));
        assert!(op_slots < 2_000, "keys must have been recycled");
        let rec = res.recorder.expect("recorder rides along");
        assert_eq!(rec.dropped(), 0);
        let issued = rec
            .events()
            .filter(|e| matches!(e.point, TracePoint::Issue))
            .map(|e| e.request);
        assert!(issued.eq(0..20_000), "one Issue per op, in issue order");
        assert!(rec
            .events()
            .all(|e| e.request < 20_000 || e.request == DETECTOR_OP));
        let attr = c3_telemetry::attribute_tail(rec.events(), "crash-flux", "C3", 0.99);
        assert_eq!(attr.joined as u64, res.reads_completed);
    }

    #[test]
    fn op_send_and_event_records_stay_compact() {
        assert!(std::mem::size_of::<OpState>() <= 160);
        assert!(std::mem::size_of::<SendState>() <= 64);
        // Slot keys are eight bytes like the `u64` ids they replaced.
        assert_eq!(std::mem::size_of::<Ev>(), 24);
    }

    #[test]
    fn lifecycle_ledger_balances_under_faults() {
        for crash in [true, false] {
            for strategy in [
                Strategy::c3(),
                Strategy::dynamic_snitching(),
                Strategy::lor(),
            ] {
                let cell = format!(
                    "{} / {strategy}",
                    ["flaky-net", "crash-flux"][crash as usize]
                );
                let res = Cluster::new(golden_fault_cell(crash, strategy)).run();
                let l = res.lifecycle;
                assert!(l.timeouts + l.hedges > 0, "{cell}: the plan must bite");
                // Every expiry retries or parks — except a retry still
                // waiting out its backoff when a late response (the
                // abandoned attempt's, or the hedge's) completes the op.
                assert!(l.retries + l.parked <= l.timeouts, "{cell}: {l:?}");
                assert!(l.hedge_wins <= l.hedges, "{cell}: {l:?}");
                assert!(l.reinstates <= l.evictions, "{cell}: {l:?}");
                assert_eq!(res.dead_lifecycle, 0, "{cell}: a timer fired dead");
            }
        }
    }

    #[test]
    fn scripted_slowdown_inflates_latency() {
        use crate::fault::{FaultEvent, FaultKind};
        use crate::perturb::PerturbationSpec;
        let mut quiet = small(Strategy::primary_only());
        quiet.perturbations = PerturbationSpec::none();
        let mut scripted = quiet.clone();
        scripted.faults.events = vec![FaultEvent {
            node: 0,
            kind: FaultKind::Slow,
            start: Nanos::ZERO,
            end: Nanos::from_secs(1_000),
            magnitude: 10.0,
        }];
        let base = Cluster::new(quiet).run();
        let slow = Cluster::new(scripted).run();
        assert!(
            slow.summary().p99_ns > base.summary().p99_ns,
            "slowing a primary must raise the tail"
        );
    }
}
