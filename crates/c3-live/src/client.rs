//! The multiplexed C3 client: issue/complete split over per-replica
//! connection supervisors, with a correlation table matching out-of-order
//! responses back to requests and a reaper enforcing the request
//! lifecycle (deadlines, retries, hedging, replica eviction).
//!
//! Architecture (one process, thousands of requests in flight):
//!
//! - **Connections**: [`LiveConfig::connections`] TCP streams per
//!   replica, each owned by a *supervisor thread* that writes queued
//!   request frames (coalescing bursts into single writes), runs a scoped
//!   reader decoding response frames in whatever order the server
//!   finished them, and — when a fault window severs the stream — redials
//!   and replays whatever frames were still queued.
//! - **Issuers**: [`LiveConfig::threads`] threads drive the workload.
//!   Each acquires a permit from the global in-flight budget
//!   ([`LiveConfig::in_flight`]), selects a replica, registers the
//!   request in the correlation table, and hands the frame to the
//!   supervisor. Quasi-open-loop runs pace issues from Poisson intended
//!   arrivals and charge latency from the *intended* arrival — with a
//!   deep in-flight budget the client keeps issuing into a slow fleet
//!   instead of head-of-line blocking, which is exactly the
//!   coordinated-omission regime the old one-request-per-worker client
//!   could not reach.
//! - **Reaper**: when the [`LifecycleConfig`] deadline is set, one
//!   thread sweeps every correlation table each millisecond. An expired
//!   request is reaped — its selector slot abandoned, its id tombstoned
//!   so a late response is discarded rather than tripping the
//!   correlation check — and, budget permitting, re-issued to a
//!   *different* replica with exponential backoff and jitter. Reads
//!   still unanswered after `hedge_after` get a duplicate on a second
//!   replica; whichever response arrives first owns the sample. Who is
//!   suspected, which candidates selection is offered meanwhile and how
//!   long a retry backs off are `c3_core`'s one lifecycle policy
//!   ([`FailureDetector`], [`c3_core::LifecycleConfig::retry_backoff`]), shared
//!   with the cluster simulator; without a deadline none of it runs.
//! - **Selector state**: C3-family strategies run on
//!   [`SharedC3State`] — the packed EWMA tracker fields and outstanding
//!   counts are atomics, so issuers read scores and readers fold
//!   feedback without a global lock (per-server rate-limiter mutexes
//!   only). Non-C3 strategies are sharded one selector instance per
//!   replica group (keyed by the group's primary), the paper's
//!   independent-clients shape; completions route back to the shard
//!   that issued them. The DS recompute ticker walks every shard at the
//!   snitch's configured cadence.
//!
//! Permit accounting is per *operation*, not per wire attempt: retries
//! and hedges share the original's [`OpToken`], and whoever flips its
//! `done` flag first — a response, a park, a teardown sweep — owns the
//! op's single sample and single permit release. Every path a request
//! can leave a table without a response funnels through [`reap_send`];
//! `execute` asserts at teardown that the budget came back whole.
//!
//! On `Backpressure` an issuer sleeps until the returned token time and
//! retries, and the waiting time lands in the recorded latency. That is
//! *not* Algorithm 1's backlog: a sleeping issuer also delays every
//! arrival queued behind it (ROADMAP item 1). How often the limiters cut
//! and grew, how many sends they throttled and how long the issuers slept
//! come back in the report beside the wait count. A closed loop sends
//! hundreds of reads per δ window to each server; the limiter's dead band
//! scales with that volume (`c3_core::RateLimiter`), so load shifting
//! across a window boundary does not cut the limit to β, and a fresh
//! limiter slow-starts from its starting 50 per δ to the ≈ 1 000 a
//! loopback replica serves within a few windows instead of ≈ 450 ms. The
//! few issuer sleeps left in a closed-loop run (≈ 100–150 ms, summed over
//! the issuers, at 1.25 s and at 5 s alike) are those windows.

use std::collections::HashSet;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use c3_cluster::FaultKind;
use c3_core::{
    FailureDetector, LifecycleCounts, Nanos, RateStats, ResponseInfo, Selection, Selector,
    SharedC3State, SnitchConfig, WallClock,
};
use c3_engine::SeedSeq;
use c3_metrics::LogHistogram;
use c3_net::proto::{encode_request, Frame, Request};
use c3_telemetry::Recorder;
use c3_workload::{PoissonArrivals, ScrambledZipfian};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;

use crate::config::LiveConfig;
use crate::mux::{CorrelationTable, InFlightBudget};
use crate::server::{encode_key, LiveCluster, NoSlowdown};
use crate::wire::read_frame;

/// Where the replica fleet lives relative to the client.
///
/// The multiplexed client is transport-agnostic past the dial: the same
/// supervisors, correlation tables and lifecycle reaper drive an
/// in-process [`LiveCluster`] or a fleet of `c3-live-node` processes.
#[derive(Clone, Debug)]
pub enum Transport {
    /// Spawn the fleet inside this process (threads, loopback sockets) —
    /// the classic single-process live mode.
    InProcess,
    /// Attach to already-running node processes. `addrs` is in
    /// replica-id order; every connection must open with a hello frame
    /// carrying the matching replica id and this fleet-config digest,
    /// or the run aborts (mis-wired address file / stale node).
    Remote {
        /// Node addresses, indexed by replica id.
        addrs: Vec<SocketAddr>,
        /// Expected FNV-1a 64 digest of the canonical fleet-config text.
        config_digest: u64,
    },
}

/// What a remote connection must see in its opening hello frame.
#[derive(Clone, Copy, Debug)]
struct ExpectedHello {
    replica: u32,
    digest: u64,
}

/// One completed operation, as the metrics replay sees it. A run keeps
/// one of these per operation, so it is kept to 24 bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    pub completed_at: Nanos,
    pub latency: Nanos,
    pub replica: u32,
    /// `true` = GET (read channel), `false` = PUT (update channel).
    pub is_read: bool,
    /// Issued after the warm-up.
    pub measured: bool,
}

/// Samples per chunk of a [`SampleRun`]: 2 048 × 24 B = 48 KiB, under
/// glibc's 128 KiB mmap threshold. A run that grew one vector by doubling
/// would hand out multi-MB blocks, which raise the allocator's dynamic
/// threshold and leave the memory in per-thread arenas across runs, so
/// back-to-back runs in one process would ratchet peak RSS upward.
const SAMPLE_CHUNK: usize = 2_048;

/// One connection supervisor's completions, in completion order, held in
/// fixed-size chunks. Its reader is the only writer, and it stamps each
/// sample from the monotonic run clock, so `completed_at` never
/// decreases along a run.
#[derive(Default)]
pub(crate) struct SampleRun {
    chunks: Vec<Vec<Sample>>,
}

impl SampleRun {
    fn push(&mut self, sample: Sample) {
        debug_assert!(self
            .chunks
            .last()
            .and_then(|chunk| chunk.last())
            .is_none_or(|last| last.completed_at <= sample.completed_at));
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < SAMPLE_CHUNK => chunk.push(sample),
            _ => {
                let mut chunk = Vec::with_capacity(SAMPLE_CHUNK);
                chunk.push(sample);
                self.chunks.push(chunk);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.chunks.iter().flatten()
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// Every run's samples in completion order, the order the metrics'
/// first/last window needs from the replay: a k-way merge over runs that
/// are each already in completion order (ties go to the lower run index),
/// so the replay needs neither a merged copy nor a sort.
pub(crate) fn completion_order(runs: &[SampleRun]) -> impl Iterator<Item = &Sample> {
    let mut heads: Vec<_> = runs.iter().map(|r| r.iter().peekable()).collect();
    std::iter::from_fn(move || {
        let (_, next) = heads
            .iter_mut()
            .enumerate()
            .filter_map(|(i, head)| head.peek().map(|s| (s.completed_at, i)))
            .min()?;
        heads[next].next()
    })
}

/// One thread's share of a client-health channel. Every sample lands in
/// the fixed-size histogram the report's summary is read from; the series
/// bound for the flight recorder keeps the first sample of each
/// millisecond, so neither grows with the run's operation count.
#[derive(Default)]
pub(crate) struct HealthGauge {
    pub hist: LogHistogram,
    pub series: Vec<(Nanos, u64)>,
}

impl HealthGauge {
    fn record(&mut self, at: Nanos, value: u64) {
        const MILLI: u64 = 1_000_000;
        self.hist.record(value);
        let ms = at.as_nanos() / MILLI;
        if self
            .series
            .last()
            .is_none_or(|&(last, _)| last.as_nanos() / MILLI != ms)
        {
            self.series.push((at, value));
        }
    }

    fn merge(&mut self, mut other: HealthGauge) {
        self.hist.merge(&other.hist);
        self.series.append(&mut other.series);
    }
}

/// Everything a live run produces besides the uniform report.
pub(crate) struct ClientArtifacts {
    /// One completion-ordered run per connection supervisor; replay them
    /// through [`completion_order`].
    pub samples: Vec<SampleRun>,
    pub backpressure_waits: u64,
    /// Nanos the issuers spent asleep on backpressure, summed over them.
    pub backpressure_sleep_ns: u64,
    /// The C3 rate limiters' counters, summed over servers (zeros for
    /// strategies without rate control).
    pub rate_stats: RateStats,
    pub issued: u64,
    /// The lifecycle ledger (zeros when hardening was off).
    pub lifecycle: LifecycleCounts,
    /// Connections redialed after a mid-run death.
    pub reconnects: u64,
    /// In-flight count sampled at every issue (a budget pinned at its
    /// ceiling means the client, not the servers, was the bottleneck):
    /// every sample, merged over the issuers.
    pub inflight: LogHistogram,
    /// Nanos a reader spent folding one read completion into selector
    /// state: every sample, merged over the readers.
    pub feedback_lag: LogHistogram,
    /// The flight recorder the run's sampling paths drain into: the C3
    /// per-replica score trace, plus the two client-health channels above
    /// as gauge series thinned to one point per millisecond per thread.
    /// Threads keep their own buffers on the hot path and pour them in at
    /// teardown.
    pub recorder: Recorder,
}

/// The shared fate of one operation across all its wire attempts.
#[derive(Debug, Default)]
struct OpToken {
    /// Whoever swaps this to `true` owns the op's single sample and
    /// single permit release; everyone after is a late arrival.
    done: AtomicBool,
    /// At most one hedge per op; rolled back when the hedge could not be
    /// put on the wire (backpressure) so a later tick can try again.
    hedged: AtomicBool,
}

/// Per-request bookkeeping parked in the correlation table between issue
/// and completion. One entry per *wire attempt*: retries and hedges get
/// fresh entries under fresh wire ids, all pointing at the same op.
#[derive(Clone)]
struct Pending {
    /// Issued after the warm-up: its sample counts in the report.
    measured: bool,
    is_read: bool,
    /// Latency epoch: intended arrival under open loop, issue time
    /// closed-loop. Retries inherit it — a rescued op pays for every
    /// attempt it took.
    created: Nanos,
    /// When the frame was handed to its connection (deadline epoch, and
    /// the response-time epoch for selector feedback).
    sent_at: Nanos,
    replica: usize,
    /// Selector shard (replica-group primary) that issued this request —
    /// completions must route their feedback back to it.
    shard: usize,
    /// Workload key, kept so retries and hedges can re-derive the
    /// replica group and re-encode the request.
    key: u64,
    /// 0 = the original issue; each retry increments.
    attempt: u32,
    /// A hedge duplicate: never retried itself, never counted as the
    /// op's timeout — the original attempt owns the op's lifecycle.
    is_hedge: bool,
    /// The op this wire attempt belongs to.
    op: Arc<OpToken>,
}

/// A fresh wire attempt of the same op.
fn reissue(p: &Pending, target: usize, sent_at: Nanos, attempt: u32, is_hedge: bool) -> Pending {
    Pending {
        measured: p.measured,
        is_read: p.is_read,
        created: p.created,
        sent_at,
        replica: target,
        shard: p.shard,
        key: p.key,
        attempt,
        is_hedge,
        op: Arc::clone(&p.op),
    }
}

/// One connection's correlation table plus the tombstones of reaped ids.
/// A response for a tombstoned id is a late arrival to discard — the
/// request was already reaped, retried, or outraced by its hedge — not
/// the correlation bug the `UnknownId` check exists to catch.
struct TableState {
    live: CorrelationTable<Pending>,
    reaped: HashSet<u64>,
}

impl TableState {
    fn new() -> Self {
        Self {
            live: CorrelationTable::new(),
            reaped: HashSet::new(),
        }
    }
}

type Table = Mutex<TableState>;

/// "No score sampled yet" sentinel for the trace cadence cell.
const NEVER_SAMPLED: u64 = u64::MAX;

/// Concurrency-safe selector state shared by issuers and readers.
enum SelectorKind {
    /// C3-family: lock-free trackers + per-server limiter locks.
    SharedC3 {
        state: SharedC3State,
        replicas: usize,
        /// Monotonic nanos of the last score sample (CAS-gated cadence).
        last_sample: AtomicU64,
        sample_interval: u64,
        trace: Mutex<Vec<(Nanos, Vec<f64>)>>,
    },
    /// Baselines: one selector instance per replica group, the paper's
    /// independent-clients sharding (outstanding counts and reservoirs
    /// are per shard, so a shard behaves like a smaller client).
    Sharded { shards: Vec<Mutex<Selector>> },
}

struct LiveSelector {
    kind: SelectorKind,
    backpressure_waits: AtomicU64,
    backpressure_sleep_ns: AtomicU64,
}

/// What the selector hands back at teardown.
struct SelectorParts {
    score_trace: Vec<(Nanos, Vec<f64>)>,
    backpressure_waits: u64,
    backpressure_sleep_ns: u64,
    rate_stats: RateStats,
}

impl LiveSelector {
    /// One selection attempt: on `Server` the send is already accounted
    /// (`on_send`), so every chosen target must be put on the wire.
    fn try_select(&self, group: &[usize], shard: usize, now: Nanos) -> Selection {
        match &self.kind {
            SelectorKind::SharedC3 { state, .. } => match state.try_send(group, now) {
                c3_core::SendDecision::Send(s) => {
                    state.record_send(s);
                    Selection::Server(s)
                }
                c3_core::SendDecision::Backpressure { retry_at } => {
                    Selection::Backpressure { retry_at }
                }
            },
            SelectorKind::Sharded { shards } => {
                let mut sel = shards[shard].lock().expect("selector poisoned");
                let decision = sel.select(group, now);
                if let Selection::Server(s) = decision {
                    sel.on_send(s, now);
                }
                decision
            }
        }
    }

    /// Feed a read completion back (Algorithm 2), and — for C3 — sample
    /// the per-replica score trace at the configured cadence. The CAS on
    /// `last_sample` elects exactly one completing reader per interval;
    /// the scores it reads are per-replica atomic loads, not a frozen
    /// global snapshot, which is why the parity harness compares
    /// window-averaged rankings rather than single vectors.
    fn complete_read(&self, target: usize, shard: usize, info: &ResponseInfo, now: Nanos) {
        match &self.kind {
            SelectorKind::SharedC3 {
                state,
                replicas,
                last_sample,
                sample_interval,
                trace,
            } => {
                state.on_response(target, info.response_time, info.feedback.as_ref(), now);
                let last = last_sample.load(Ordering::Relaxed);
                let at = now.as_nanos();
                let due = last == NEVER_SAMPLED || at.saturating_sub(last) >= *sample_interval;
                if due
                    && last_sample
                        .compare_exchange(last, at, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    let scores: Vec<f64> = (0..*replicas).map(|r| state.score_of(r)).collect();
                    trace.lock().expect("trace poisoned").push((now, scores));
                }
            }
            SelectorKind::Sharded { shards } => {
                shards[shard]
                    .lock()
                    .expect("selector poisoned")
                    .on_response(target, info, now);
            }
        }
    }

    /// Release the outstanding slot of a request that will never complete
    /// (reaped, parked, or an end-of-run straggler).
    fn abandon_read(&self, target: usize, shard: usize, now: Nanos) {
        match &self.kind {
            SelectorKind::SharedC3 { state, .. } => state.on_abandoned(target),
            SelectorKind::Sharded { shards } => shards[shard]
                .lock()
                .expect("selector poisoned")
                .on_abandoned(target, now),
        }
    }

    /// Dynamic Snitching's periodic recompute, applied to every shard
    /// (each shard is an independent snitch client at the same cadence
    /// the sim delivers through gossip tick events).
    fn ds_tick(&self, now: Nanos) {
        if let SelectorKind::Sharded { shards } = &self.kind {
            for shard in shards {
                let mut sel = shard.lock().expect("selector poisoned");
                if let Some(snitch) = sel.as_snitch_mut() {
                    snitch.recompute_idle(now);
                }
            }
        }
    }

    /// Whether the shards are Dynamic Snitches, which need the ticker.
    fn is_ds(&self) -> bool {
        match &self.kind {
            SelectorKind::Sharded { shards } => shards
                .iter()
                .any(|s| matches!(*s.lock().expect("selector poisoned"), Selector::Ds(_))),
            SelectorKind::SharedC3 { .. } => false,
        }
    }

    fn into_artifact_parts(self) -> SelectorParts {
        let (score_trace, rate_stats) = match self.kind {
            SelectorKind::SharedC3 { state, trace, .. } => (
                trace.into_inner().expect("trace poisoned"),
                state.rate_stats(),
            ),
            SelectorKind::Sharded { .. } => (Vec::new(), RateStats::default()),
        };
        SelectorParts {
            score_trace,
            backpressure_waits: self.backpressure_waits.into_inner(),
            backpressure_sleep_ns: self.backpressure_sleep_ns.into_inner(),
            rate_stats,
        }
    }
}

/// Build the concurrency-safe selector for a run: C3-family strategies
/// get the lock-free [`SharedC3State`] (with whatever `C3Config` variant
/// the name resolved to — ablations included); everything else is
/// sharded per replica group.
///
/// # Panics
///
/// Panics when the strategy is unknown or is the Oracle.
fn build_selector(cfg: &LiveConfig) -> LiveSelector {
    let seeds = SeedSeq::new(cfg.seed);
    let mut c3 = cfg.c3;
    // One shared state sees every outstanding request of this client, so
    // its counts are already the client's global concurrency: w = 1.
    c3.concurrency_weight = 1.0;
    let shard = |g: usize| {
        cfg.strategy
            .build_client(cfg.replicas, c3, &seeds, g)
            .unwrap_or_else(|| {
                panic!(
                    "strategy {} needs global state this frontend does not provide",
                    cfg.strategy
                )
            })
    };
    let probe = shard(0);
    let kind = match probe.as_c3() {
        Some(c3_probe) => SelectorKind::SharedC3 {
            state: SharedC3State::new(cfg.replicas, *c3_probe.state().config(), Nanos::ZERO),
            replicas: cfg.replicas,
            last_sample: AtomicU64::new(NEVER_SAMPLED),
            sample_interval: Nanos::from(cfg.score_sample_every).as_nanos(),
            trace: Mutex::new(Vec::new()),
        },
        None => SelectorKind::Sharded {
            shards: (0..cfg.replicas).map(|g| Mutex::new(shard(g))).collect(),
        },
    };
    LiveSelector {
        kind,
        backpressure_waits: AtomicU64::new(0),
        backpressure_sleep_ns: AtomicU64::new(0),
    }
}

/// What one connection supervisor hands back at join.
#[derive(Default)]
struct ReaderOut {
    samples: SampleRun,
    feedback_lag: HealthGauge,
    /// Ops whose hedge answered before the original.
    hedge_wins: u64,
    /// Responses that lifted a standing eviction.
    reinstates: u64,
    /// Redials after a mid-run connection death.
    reconnects: u64,
}

/// THE reap path: every wire attempt that leaves a table without a
/// response funnels through here — deadline sweeps, dead-connection
/// reaps, failed re-sends, and the end-of-run straggler sweep alike.
/// Abandons the read's selector slot; unless the permit is being kept
/// (a retry inherits it), races the op token for the single release.
/// Returns whether this call became the op's owner.
fn reap_send(
    p: &Pending,
    selector: &LiveSelector,
    budget: &InFlightBudget,
    now: Nanos,
    keep_permit: bool,
) -> bool {
    if p.is_read {
        selector.abandon_read(p.replica, p.shard, now);
    }
    if keep_permit {
        return false;
    }
    let owner = !p.op.done.swap(true, Ordering::AcqRel);
    if owner {
        budget.release();
    }
    owner
}

/// Reap every still-pending entry of one connection's table through
/// [`reap_send`], tombstoning the ids so responses that straggle in
/// after a redial are discarded instead of failing correlation.
fn reap_connection(table: &Table, selector: &LiveSelector, budget: &InFlightBudget, now: Nanos) {
    let entries = {
        let mut t = table.lock().expect("table poisoned");
        let entries = t.live.drain_entries();
        for (id, _) in &entries {
            t.reaped.insert(*id);
        }
        entries
    };
    for (_, p) in entries {
        reap_send(&p, selector, budget, now, false);
    }
}

/// Run the multiplexed client against `transport` — an in-process fleet
/// spawned (and torn down) here, or remote node processes attached to
/// over the network — to the configured stop condition, drain, and hand
/// back the artifacts.
///
/// # Panics
///
/// Panics when the strategy is unknown or needs simulator-global state
/// this backend cannot provide (`ORA`) — mirroring the §5 cluster — and
/// when the in-flight budget comes back short at teardown (a permit or
/// correlation-entry leak; the invariant the randomized kill tests pin).
pub(crate) fn execute_on(cfg: &LiveConfig, transport: &Transport) -> io::Result<ClientArtifacts> {
    cfg.validate();
    let clock = WallClock::start();
    let (cluster, addrs) = match transport {
        Transport::InProcess => {
            let cluster = LiveCluster::spawn(cfg, Arc::new(NoSlowdown), clock)?;
            let addrs = cluster.addrs().to_vec();
            (Some(cluster), addrs)
        }
        Transport::Remote { addrs, .. } => {
            if addrs.len() != cfg.replicas {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "transport lists {} nodes but the config needs {} replicas",
                        addrs.len(),
                        cfg.replicas
                    ),
                ));
            }
            (None, addrs.clone())
        }
    };

    let selector = Arc::new(build_selector(cfg));
    let is_ds = selector.is_ds();
    // The detector exists only with a deadline; so does the reaper, the
    // one thread that can charge it a timeout.
    let detector = cfg.lifecycle.detector(cfg.replicas).map(Arc::new);
    // Slow windows only stretch service times: a plan of nothing else
    // expects every connection to hold, exactly like the empty plan.
    let faults_expected = cfg.faults.events.iter().any(|e| e.kind != FaultKind::Slow);

    let issued = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let budget = Arc::new(InFlightBudget::new(cfg.in_flight));
    let key_template = ScrambledZipfian::new(cfg.keys, cfg.keys, cfg.zipf_theta);

    // One correlation table + supervisor thread per connection,
    // `cfg.connections` connections per replica.
    let tables: Arc<Vec<Vec<Table>>> = Arc::new(
        (0..cfg.replicas)
            .map(|_| {
                (0..cfg.connections)
                    .map(|_| Mutex::new(TableState::new()))
                    .collect()
            })
            .collect(),
    );
    let mut senders: Vec<Vec<mpsc::Sender<Request>>> = Vec::with_capacity(cfg.replicas);
    let mut supervisors = Vec::new();
    for (replica, addr) in addrs.iter().enumerate() {
        let expect_hello = match transport {
            Transport::InProcess => None,
            Transport::Remote { config_digest, .. } => Some(ExpectedHello {
                replica: replica as u32,
                digest: *config_digest,
            }),
        };
        let mut replica_senders = Vec::with_capacity(cfg.connections);
        for conn in 0..cfg.connections {
            let addr = *addr;
            let (tx, rx) = mpsc::channel::<Request>();
            let tables = Arc::clone(&tables);
            let selector = Arc::clone(&selector);
            let budget = Arc::clone(&budget);
            let detector = detector.clone();
            let stop = Arc::clone(&stop);
            supervisors.push(std::thread::spawn(move || {
                connection_loop(
                    addr,
                    &rx,
                    &tables[replica][conn],
                    &selector,
                    &budget,
                    detector.as_deref(),
                    clock,
                    &stop,
                    faults_expected,
                    expect_hello,
                )
            }));
            replica_senders.push(tx);
        }
        senders.push(replica_senders);
    }

    // The reaper enforces the lifecycle: deadline sweep, retry queue,
    // hedging pass. It holds its own sender clones for re-issues; they
    // drop when it exits at teardown.
    let reaper = detector.clone().map(|detector| {
        let cfg = cfg.clone();
        let tables = Arc::clone(&tables);
        let senders = senders.clone();
        let selector = Arc::clone(&selector);
        let budget = Arc::clone(&budget);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            reaper_loop(
                &cfg, clock, &tables, &senders, &selector, &budget, &detector, &stop,
            )
        })
    });

    // Dynamic Snitching gets its periodic recompute from a ticker thread
    // (the cluster delivers the same through gossip/snitch tick events).
    let ticker = is_ds.then(|| {
        let selector = Arc::clone(&selector);
        let stop = Arc::clone(&stop);
        let interval = SnitchConfig::default().update_interval;
        std::thread::spawn(move || {
            // Sleep in short slices for stop responsiveness, but hold the
            // *recompute cadence* to the snitch's update interval — the
            // sim's SnitchTick fires exactly that often, and the parity
            // comparison assumes live DS is no better informed.
            let mut last_recompute = Nanos::ZERO;
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10).min(interval.into()));
                let now = clock.now();
                if now.saturating_sub(last_recompute) < interval {
                    continue;
                }
                last_recompute = now;
                selector.ds_tick(now);
            }
        })
    });

    let issuers: Vec<_> = (0..cfg.threads)
        .map(|w| {
            let cfg = cfg.clone();
            let selector = Arc::clone(&selector);
            let tables = Arc::clone(&tables);
            let senders = senders.clone();
            let issued = Arc::clone(&issued);
            let budget = Arc::clone(&budget);
            let detector = detector.clone();
            let keys = key_template.clone();
            std::thread::spawn(move || {
                issuer_loop(
                    w,
                    &cfg,
                    clock,
                    &selector,
                    &tables,
                    &senders,
                    &issued,
                    &budget,
                    detector.as_deref(),
                    keys,
                )
            })
        })
        .collect();

    let mut occupancy = HealthGauge::default();
    let mut issuer_err = None;
    for issuer in issuers {
        match issuer.join().expect("issuer panicked") {
            Ok(occ) => occupancy.merge(occ),
            Err(e) => issuer_err = issuer_err.or(Some(e)),
        }
    }

    // Teardown: close the issue side, wait for in-flight requests to
    // drain — the reaper keeps sweeping expiries meanwhile, so a crashed
    // replica's swallowed requests cannot stall the drain — then stop
    // everyone. The reaper goes first (flushing its retry queue as
    // parks); its sender clones drop with it, so the supervisors' write
    // loops see disconnect and finish their drain.
    drop(senders);
    let _ = budget.drained_within(Duration::from_secs(3));
    stop.store(true, Ordering::Release);
    let mut lifecycle = match reaper {
        Some(r) => r.join().expect("reaper panicked"),
        None => LifecycleCounts::default(),
    };
    let mut reconnects = 0;
    let mut samples = Vec::with_capacity(supervisors.len());
    let mut feedback_lag = HealthGauge::default();
    let mut supervisor_err = None;
    for handle in supervisors {
        match handle.join().expect("connection supervisor panicked") {
            Ok(out) => {
                samples.push(out.samples);
                feedback_lag.merge(out.feedback_lag);
                lifecycle.hedge_wins += out.hedge_wins;
                lifecycle.reinstates += out.reinstates;
                reconnects += out.reconnects;
            }
            Err(e) => supervisor_err = supervisor_err.or(Some(e)),
        }
    }
    // Supervisors reap their own tables on exit; what's left here are
    // entries registered in the race window after a supervisor was
    // already gone. Their permits come back like any other straggler's.
    for replica_tables in tables.iter() {
        for table in replica_tables {
            reap_connection(table, &selector, &budget, clock.now());
        }
    }
    if let Some(t) = ticker {
        let _ = t.join();
    }
    if let Some(cluster) = cluster {
        cluster.shutdown();
    }
    // A supervisor's hard error (dial refused, hello identity/digest
    // mismatch) is the root cause; an issuer's send-to-dead-channel is
    // its symptom. Surface the cause.
    if let Some(e) = supervisor_err.or(issuer_err) {
        return Err(e);
    }
    // The leak invariant: every permit funneled back through a response
    // or reap_send. A shortfall means a correlation entry or op token
    // got lost — fail loudly rather than ship corrupt accounting.
    assert_eq!(
        budget.in_flight(),
        0,
        "in-flight permits leaked at teardown"
    );

    occupancy.series.sort_unstable_by_key(|&(at, _)| at);
    feedback_lag.series.sort_unstable_by_key(|&(at, _)| at);
    let selector = Arc::try_unwrap(selector)
        .map_err(|_| "selector still shared")
        .expect("all workers joined");
    let parts = selector.into_artifact_parts();
    // One sampling/reporting path: the per-thread buffers pour into the
    // flight recorder (capacity 0 — live runs carry series, not lifecycle
    // events), where the score trace and health gauges come back out.
    let mut recorder = Recorder::new(0);
    for (at, scores) in parts.score_trace {
        recorder.push_scores(at, scores);
    }
    recorder.gauge_extend(crate::scenario::HEALTH_INFLIGHT, &occupancy.series);
    recorder.gauge_extend(crate::scenario::HEALTH_FEEDBACK_LAG, &feedback_lag.series);
    Ok(ClientArtifacts {
        samples,
        inflight: occupancy.hist,
        feedback_lag: feedback_lag.hist,
        backpressure_waits: parts.backpressure_waits,
        backpressure_sleep_ns: parts.backpressure_sleep_ns,
        rate_stats: parts.rate_stats,
        issued: issued.load(Ordering::Acquire),
        lifecycle,
        reconnects,
        recorder,
    })
}

/// One issuer: pace (Poisson intended arrivals under open loop), take an
/// in-flight permit, select (or wait out backpressure) among the
/// detector's candidates, register in the correlation table, hand the
/// frame to the connection's supervisor — never blocking on any
/// individual response.
#[allow(clippy::too_many_arguments)]
fn issuer_loop(
    w: usize,
    cfg: &LiveConfig,
    clock: WallClock,
    selector: &LiveSelector,
    tables: &[Vec<Table>],
    senders: &[Vec<mpsc::Sender<Request>>],
    issued: &AtomicU64,
    budget: &InFlightBudget,
    detector: Option<&FailureDetector>,
    keys: ScrambledZipfian,
) -> io::Result<HealthGauge> {
    let deadline: Nanos = Nanos::from(cfg.run_for);
    let wall_deadline = Instant::now() + cfg.run_for.saturating_sub(clock.now().into());
    let mut rng = SmallRng::seed_from_u64(SeedSeq::new(cfg.seed).thread_seed(w as u64));
    let value = Bytes::from(vec![0x5Au8; cfg.value_bytes as usize]);

    // Quasi-open loop: this issuer's own Poisson arrival schedule. The
    // intended arrival time is the latency epoch, so lag a slow fleet
    // inflicts on the issuer is charged to the strategy (no coordinated
    // omission).
    let mut arrivals = cfg
        .offered_rate
        .map(|rate| PoissonArrivals::new(rate / cfg.threads as f64));
    let mut next_arrival = Nanos::ZERO;

    let mut occupancy = HealthGauge::default();
    let mut scratch = Vec::new();
    let mut next_id = (w as u64) << 48;
    loop {
        let now = clock.now();
        if now >= deadline {
            break;
        }
        if let Some(arrivals) = arrivals.as_mut() {
            next_arrival += arrivals.next_gap(&mut rng);
            if next_arrival > now {
                std::thread::sleep((next_arrival - now).into());
            }
        }
        if !budget.acquire_until(wall_deadline) {
            break;
        }
        let issue_index = issued.fetch_add(1, Ordering::AcqRel);
        if issue_index >= cfg.ops_cap {
            budget.release();
            break;
        }
        occupancy.record(clock.now(), budget.in_flight() as u64);
        let key = keys.sample(&mut rng);
        let group = cfg.group_of(key);
        let shard = group[0];
        let is_read = rng.gen_bool(cfg.read_fraction);
        next_id += 1;
        let id = next_id;
        let created = if arrivals.is_some() {
            next_arrival
        } else {
            clock.now()
        };

        let target = if is_read {
            // Algorithm 1 over the candidates the detector trusts (the
            // whole group when hardening is off); park on backpressure.
            let candidates = match detector {
                Some(d) => d.candidates(&group, None, clock.now(), &mut scratch),
                None => &group,
            };
            match select_read_target(selector, candidates, shard, clock, deadline) {
                Some(t) => t,
                None => {
                    budget.release();
                    break;
                }
            }
        } else {
            // Writes go to the primary, outside the read selection path
            // (the paper's selection concerns reads).
            group[0]
        };

        let request = if is_read {
            Request::Get {
                id,
                key: encode_key(key),
            }
        } else {
            Request::Put {
                id,
                key: encode_key(key),
                value: value.clone(),
            }
        };
        let conn = (id as usize) % cfg.connections;
        let sent_at = clock.now();
        let pending = Pending {
            measured: issue_index >= cfg.warmup_ops,
            is_read,
            created,
            sent_at,
            replica: target,
            shard,
            key,
            attempt: 0,
            is_hedge: false,
            op: Arc::new(OpToken::default()),
        };
        tables[target][conn]
            .lock()
            .expect("table poisoned")
            .live
            .register(id, pending.clone())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if senders[target][conn].send(request).is_err() {
            // Reclaim our registration — but only if it is still ours. A
            // dying supervisor reaps its table as it exits; whoever
            // removes the entry first owns its reap.
            let reclaimed = tables[target][conn]
                .lock()
                .expect("table poisoned")
                .live
                .complete(id)
                .is_ok();
            if reclaimed {
                reap_send(&pending, selector, budget, clock.now(), false);
            }
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection supervisor gone mid-run",
            ));
        }
    }
    Ok(occupancy)
}

/// Run selection until a server is granted, sleeping out backpressure
/// windows. `None` means the run deadline passed while parked.
fn select_read_target(
    selector: &LiveSelector,
    group: &[usize],
    shard: usize,
    clock: WallClock,
    deadline: Nanos,
) -> Option<usize> {
    loop {
        let now = clock.now();
        if now >= deadline {
            return None;
        }
        match selector.try_select(group, shard, now) {
            Selection::Server(s) => return Some(s),
            Selection::Backpressure { retry_at } => {
                selector.backpressure_waits.fetch_add(1, Ordering::Relaxed);
                let wait = retry_at
                    .saturating_sub(now)
                    .max(Nanos::from_micros(100))
                    .min(Nanos::from_millis(20));
                std::thread::sleep(wait.into());
                let slept = clock.now().saturating_sub(now).as_nanos();
                selector
                    .backpressure_sleep_ns
                    .fetch_add(slept, Ordering::Relaxed);
            }
        }
    }
}

/// A reaped wire attempt waiting out its backoff before re-issue.
struct RetryItem {
    due: Nanos,
    pending: Pending,
}

/// The lifecycle reaper: every millisecond, sweep expired requests out
/// of the correlation tables (tombstoning their ids) and charge them to
/// the failure detector, queue retries behind their backoff, and issue
/// hedge duplicates for slow reads. Runs only when a deadline is
/// configured; returns its share of the lifecycle ledger.
#[allow(clippy::too_many_arguments)]
fn reaper_loop(
    cfg: &LiveConfig,
    clock: WallClock,
    tables: &[Vec<Table>],
    senders: &[Vec<mpsc::Sender<Request>>],
    selector: &LiveSelector,
    budget: &InFlightBudget,
    detector: &FailureDetector,
    stop: &AtomicBool,
) -> LifecycleCounts {
    let deadline: Nanos = cfg
        .lifecycle
        .deadline
        .expect("reaper runs only with a deadline");
    let hedge_after: Option<Nanos> = cfg.lifecycle.hedge_after;
    let value = Bytes::from(vec![0x5Au8; cfg.value_bytes as usize]);
    let mut rng = SmallRng::seed_from_u64(SeedSeq::new(cfg.seed).thread_seed(u64::from(u16::MAX)));
    let mut queue: Vec<RetryItem> = Vec::new();
    let mut counts = LifecycleCounts::default();
    let mut scratch = Vec::new();
    // Wire ids disjoint from every issuer's block (those start below
    // `threads << 48`).
    let mut next_id = (cfg.threads as u64) << 48;

    // Register and send one re-issued wire attempt; on a failed send
    // (its supervisor exited) the registration is reclaimed and the
    // attempt reaped (`Err(parked)`: whether that abandoned the op).
    let mut put_on_wire = |p: Pending, keep_permit_on_fail: bool, now: Nanos| {
        next_id += 1;
        let id = next_id;
        let request = if p.is_read {
            Request::Get {
                id,
                key: encode_key(p.key),
            }
        } else {
            Request::Put {
                id,
                key: encode_key(p.key),
                value: value.clone(),
            }
        };
        let conn = (id as usize) % cfg.connections;
        let table = &tables[p.replica][conn];
        table
            .lock()
            .expect("table poisoned")
            .live
            .register(id, p.clone())
            .expect("reaper ids are unique");
        if senders[p.replica][conn].send(request).is_err() {
            let reclaimed = table
                .lock()
                .expect("table poisoned")
                .live
                .complete(id)
                .is_ok();
            return Err(reclaimed && reap_send(&p, selector, budget, now, keep_permit_on_fail));
        }
        Ok(())
    };

    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
        let now = clock.now();

        // 1. Deadline sweep: reap everything sent longer than `deadline`
        // ago. A reaped original either retries (keeping the op's
        // permit) or parks; a reaped hedge twin just frees its selector
        // slot — the original owns the op's lifecycle.
        let cutoff = now.saturating_sub(deadline);
        for replica_tables in tables {
            for table in replica_tables {
                let expired = {
                    let mut t = table.lock().expect("table poisoned");
                    let expired = t.live.take_matching(|p| p.sent_at <= cutoff);
                    for (id, _) in &expired {
                        t.reaped.insert(*id);
                    }
                    expired
                };
                for (_, p) in expired {
                    if p.op.done.load(Ordering::Acquire) || p.is_hedge {
                        reap_send(&p, selector, budget, now, true);
                        continue;
                    }
                    counts.timeouts += 1;
                    counts.evictions += u64::from(detector.note_timeout(p.replica, now));
                    let backoff = cfg
                        .lifecycle
                        .retry_backoff(p.attempt, || rng.gen_range(0.5..1.5));
                    match backoff {
                        Some(wait) => {
                            reap_send(&p, selector, budget, now, true);
                            queue.push(RetryItem {
                                due: now + wait,
                                pending: p,
                            });
                        }
                        None => {
                            counts.parked += u64::from(reap_send(&p, selector, budget, now, false));
                        }
                    }
                }
            }
        }

        // 2. Due retries: re-select among the detector's candidates,
        // steering away from the replica that just timed out.
        let mut i = 0;
        while i < queue.len() {
            if queue[i].due > now {
                i += 1;
                continue;
            }
            let RetryItem { pending: p, .. } = queue.swap_remove(i);
            let target = if p.is_read {
                let group = cfg.group_of(p.key);
                let candidates = detector.candidates(&group, Some(p.replica), now, &mut scratch);
                match selector.try_select(candidates, p.shard, now) {
                    Selection::Server(s) => s,
                    Selection::Backpressure { .. } => {
                        // Everyone is full: try again next tick.
                        queue.push(RetryItem {
                            due: now + Nanos::from_millis(1),
                            pending: p,
                        });
                        continue;
                    }
                }
            } else {
                // Writes re-target their primary.
                p.shard
            };
            let np = reissue(&p, target, clock.now(), p.attempt + 1, false);
            // Counted when it goes out, as the simulator does: a retry
            // still queued at teardown is a park, not both.
            match put_on_wire(np, false, now) {
                Ok(()) => counts.retries += 1,
                Err(parked) => counts.parked += u64::from(parked),
            }
        }

        // 3. Hedging: reads past `hedge_after` with no response yet get
        // one duplicate on a different replica; the `hedged` flag swap
        // elects one hedge per op, rolled back when it cannot issue.
        if let Some(hedge_after) = hedge_after {
            let hedge_cutoff = now.saturating_sub(hedge_after);
            let mut to_hedge: Vec<Pending> = Vec::new();
            for replica_tables in tables {
                for table in replica_tables {
                    let t = table.lock().expect("table poisoned");
                    for (_, p) in t.live.iter() {
                        if p.is_read
                            && !p.is_hedge
                            && p.sent_at <= hedge_cutoff
                            && !p.op.done.load(Ordering::Acquire)
                            && !p.op.hedged.swap(true, Ordering::AcqRel)
                        {
                            to_hedge.push(p.clone());
                        }
                    }
                }
            }
            for p in to_hedge {
                let group = cfg.group_of(p.key);
                let candidates = detector.candidates(&group, Some(p.replica), now, &mut scratch);
                match selector.try_select(candidates, p.shard, now) {
                    Selection::Server(s) => {
                        let hp = reissue(&p, s, clock.now(), p.attempt, true);
                        match put_on_wire(hp, true, now) {
                            Ok(()) => counts.hedges += 1,
                            Err(parked) => counts.parked += u64::from(parked),
                        }
                    }
                    Selection::Backpressure { .. } => {
                        p.op.hedged.store(false, Ordering::Release);
                    }
                }
            }
        }
    }

    // Teardown: queued retries hold permits with no table entry left —
    // park them so the budget drains whole.
    let now = clock.now();
    for item in queue {
        counts.parked += u64::from(reap_send(&item.pending, selector, budget, now, false));
    }
    counts
}

/// One connection supervisor: dial, run the write/read halves until the
/// connection dies or the run ends, and — when fault windows are in play
/// — redial and carry on. Frames still queued at a death replay onto the
/// fresh connection; responses to attempts reaped meanwhile are
/// tombstone-discarded.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    addr: std::net::SocketAddr,
    rx: &mpsc::Receiver<Request>,
    table: &Table,
    selector: &LiveSelector,
    budget: &InFlightBudget,
    detector: Option<&FailureDetector>,
    clock: WallClock,
    stop: &AtomicBool,
    faults_expected: bool,
    expect_hello: Option<ExpectedHello>,
) -> io::Result<ReaderOut> {
    const WRITE_POLL: Duration = Duration::from_millis(20);
    const READ_POLL: Duration = Duration::from_millis(50);
    const COALESCE_LIMIT: usize = 64 * 1024;
    // A detector means a deadline, and a deadline means a reaper sweeping
    // this connection's table.
    let hardened = detector.is_some();
    let mut out = ReaderOut::default();
    let mut redial = Duration::from_millis(2);
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match std::net::TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                if !faults_expected {
                    reap_connection(table, selector, budget, clock.now());
                    return Err(e);
                }
                // The replica's fault window rejects dials: back off and
                // keep trying — it restarts on script.
                if !hardened {
                    reap_connection(table, selector, budget, clock.now());
                }
                std::thread::sleep(redial);
                redial = (redial * 2).min(Duration::from_millis(50));
                continue;
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        // Remote nodes announce themselves before anything else; verify
        // identity and config digest before a single request goes out.
        // Response bytes that followed the hello stay in `buf` for the
        // reader. A connection that dies before its hello is a severed
        // connection like any other; a *wrong* hello aborts the run.
        let mut buf = BytesMut::new();
        if let Some(expected) = expect_hello {
            match await_hello(&stream, &mut buf, expected, stop) {
                Ok(true) => {}
                Ok(false) => {
                    if !faults_expected {
                        reap_connection(table, selector, budget, clock.now());
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "node died before its hello",
                        ));
                    }
                    if !hardened {
                        reap_connection(table, selector, budget, clock.now());
                    }
                    std::thread::sleep(redial);
                    redial = (redial * 2).min(Duration::from_millis(50));
                    continue;
                }
                Err(e) => {
                    reap_connection(table, selector, budget, clock.now());
                    return Err(e);
                }
            }
        }
        redial = Duration::from_millis(2);
        let conn_dead = AtomicBool::new(false);
        let read_res = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                read_responses(
                    &stream, buf, table, selector, budget, detector, clock, stop, &conn_dead,
                    &mut out,
                )
            });
            loop {
                if stop.load(Ordering::Acquire) || conn_dead.load(Ordering::Acquire) {
                    break;
                }
                match rx.recv_timeout(WRITE_POLL) {
                    Ok(req) => {
                        let mut buf = BytesMut::new();
                        encode_request(&req, &mut buf);
                        while buf.len() < COALESCE_LIMIT {
                            match rx.try_recv() {
                                Ok(req) => encode_request(&req, &mut buf),
                                Err(_) => break,
                            }
                        }
                        if (&stream).write_all(&buf).is_err() {
                            conn_dead.store(true, Ordering::Release);
                            break;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // Issue side closed: the drain phase — the reader
                    // keeps collecting responses until stop flips.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            reader.join().expect("reader panicked")
        });
        if let Err(e) = read_res {
            // Protocol violation: correlation is broken, stop hard.
            reap_connection(table, selector, budget, clock.now());
            return Err(e);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        if conn_dead.load(Ordering::Acquire) {
            out.reconnects += 1;
            if !hardened {
                // No reaper to sweep a dead connection's entries: reap
                // them now through the same path deadlines use.
                reap_connection(table, selector, budget, clock.now());
            }
            if !faults_expected {
                // An unscripted death with nobody watching: release
                // everything and end this connection — the old
                // single-dial semantics.
                reap_connection(table, selector, budget, clock.now());
                break;
            }
            continue;
        }
        // Writer saw disconnect and the reader came home clean: teardown.
        break;
    }
    reap_connection(table, selector, budget, clock.now());
    Ok(out)
}

/// Wait for a remote node's opening hello and verify it. `Ok(true)` means
/// verified (response bytes that trailed the hello remain in `buf`);
/// `Ok(false)` means the connection died first (EOF, reset, or ~1 s of
/// silence — a healthy node writes its hello immediately after accept);
/// `Err` is an identity or protocol violation that must abort the run.
fn await_hello(
    mut stream: &std::net::TcpStream,
    buf: &mut BytesMut,
    expected: ExpectedHello,
    stop: &AtomicBool,
) -> io::Result<bool> {
    for _ in 0..20 {
        if stop.load(Ordering::Acquire) {
            return Ok(false);
        }
        match read_frame(&mut stream, buf) {
            Ok(Some(Frame::Hello(hello))) => {
                if hello.replica_id != expected.replica {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "node identity mismatch: dialed replica {} but the node says it is {}",
                            expected.replica, hello.replica_id
                        ),
                    ));
                }
                if hello.config_digest != expected.digest {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "fleet-config digest mismatch on replica {}: client {:#018x}, \
                             node {:#018x} (stale node or wrong fleet)",
                            expected.replica, expected.digest, hello.config_digest
                        ),
                    ));
                }
                return Ok(true);
            }
            Ok(Some(_)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected a hello as the first frame from a node",
                ));
            }
            Ok(None) => return Ok(false),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            Err(_) => return Ok(false),
        }
    }
    Ok(false)
}

/// The frame-decoding half of one connection: complete each response
/// through the correlation table — discarding late arrivals for reaped
/// (tombstoned) attempts — feed the selector, and let the op token
/// decide whether this response owns the sample and the permit.
///
/// Exits clean on stop or EOF (flagging the connection dead so the
/// writer half stops too); returns an error only for protocol
/// violations, which abort the run.
#[allow(clippy::too_many_arguments)]
fn read_responses(
    stream: &std::net::TcpStream,
    mut buf: BytesMut,
    table: &Table,
    selector: &LiveSelector,
    budget: &InFlightBudget,
    detector: Option<&FailureDetector>,
    clock: WallClock,
    stop: &AtomicBool,
    conn_dead: &AtomicBool,
    out: &mut ReaderOut,
) -> io::Result<()> {
    let mut reader = stream;
    loop {
        if stop.load(Ordering::Acquire) || conn_dead.load(Ordering::Acquire) {
            return Ok(());
        }
        let frame = match read_frame(&mut reader, &mut buf) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                // EOF: teardown if stopping, a severed connection
                // otherwise; either way this stream is done.
                conn_dead.store(true, Ordering::Release);
                return Ok(());
            }
            // The read poll timed out: partial-frame bytes stay in `buf`,
            // so looping back around is safe.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                conn_dead.store(true, Ordering::Release);
                return Err(e);
            }
            // Transport death (reset, mid-frame EOF): the supervisor
            // decides whether to redial.
            Err(_) => {
                conn_dead.store(true, Ordering::Release);
                return Ok(());
            }
        };
        let Frame::Response(resp) = frame else {
            conn_dead.store(true, Ordering::Release);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "client received a non-response frame",
            ));
        };
        let entry = {
            let mut t = table.lock().expect("table poisoned");
            match t.live.complete(resp.id) {
                Ok(entry) => entry,
                // A late response for a reaped attempt: consume the
                // tombstone and move on.
                Err(_) if t.reaped.remove(&resp.id) => continue,
                Err(e) => {
                    drop(t);
                    conn_dead.store(true, Ordering::Release);
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
        };
        let now = clock.now();
        // Any response proves the replica alive (hardened runs only).
        if detector.is_some_and(|d| d.note_success(entry.replica)) {
            out.reinstates += 1;
        }
        if entry.is_read {
            let info = ResponseInfo {
                response_time: now.saturating_sub(entry.sent_at),
                feedback: Some(resp.feedback),
            };
            selector.complete_read(entry.replica, entry.shard, &info, now);
            let updated = clock.now();
            out.feedback_lag
                .record(updated, updated.saturating_sub(now).as_nanos());
        }
        // The op token race: only the first responder (across the
        // original, its retries, and its hedge) samples and releases.
        // Losers still fed the selector above — their on_send slots need
        // the matching on_response either way.
        if !entry.op.done.swap(true, Ordering::AcqRel) {
            out.hedge_wins += u64::from(entry.is_hedge);
            out.samples.push(Sample {
                completed_at: now,
                latency: now.saturating_sub(entry.created),
                replica: entry.replica as u32,
                is_read: entry.is_read,
                measured: entry.measured,
            });
            budget.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_cluster::{FaultEvent, FaultKind, FaultPlan};
    use c3_core::LifecycleConfig;

    fn write_entry(clock: WallClock, issue_index: u64) -> Pending {
        Pending {
            measured: true,
            is_read: false,
            created: clock.now(),
            sent_at: clock.now(),
            replica: 0,
            shard: 0,
            key: issue_index,
            attempt: 0,
            is_hedge: false,
            op: Arc::new(OpToken::default()),
        }
    }

    /// The two per-operation costs a live run's memory is allowed: one
    /// 24-byte sample, and nothing for the health channels.
    #[test]
    fn per_op_state_is_one_small_sample() {
        assert!(std::mem::size_of::<Sample>() <= 24);
        // 100 000 samples over 50 ms of run time: every one is counted,
        // at most one per millisecond is kept for the recorder.
        let mut gauge = HealthGauge::default();
        for i in 0..100_000u64 {
            gauge.record(Nanos(i * 500), i % 512);
        }
        assert_eq!(gauge.hist.count(), 100_000);
        assert_eq!(gauge.hist.max(), 511);
        assert!(gauge.series.len() <= 50 + 1, "{}", gauge.series.len());
        assert_eq!(gauge.series[0], (Nanos::ZERO, 0));
    }

    /// The replay's k-way merge reads back exactly what the old
    /// concatenate-and-sort produced: the same samples, completion order.
    #[test]
    fn merged_runs_replay_in_completion_order() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut runs: Vec<SampleRun> = (0..6).map(|_| SampleRun::default()).collect();
        let mut flat = Vec::new();
        let mut id = 0u64;
        for (r, run) in runs.iter_mut().enumerate() {
            // Runs of different lengths, several spanning chunk
            // boundaries, with ties inside and across runs.
            let mut at = 0u64;
            for _ in 0..(r * 2_500) {
                at += rng.gen_range(0..4u64);
                id += 1;
                let sample = Sample {
                    completed_at: Nanos(at),
                    latency: Nanos(id),
                    replica: r as u32,
                    is_read: !id.is_multiple_of(3),
                    measured: !id.is_multiple_of(5),
                };
                run.push(sample);
                flat.push(sample);
            }
        }
        assert!(runs[5].chunks.len() > 1, "runs must cross chunk boundaries");
        let merged: Vec<Sample> = completion_order(&runs).copied().collect();
        assert_eq!(merged.len(), flat.len());
        assert!(merged
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        let key = |s: &Sample| (s.completed_at, s.latency, s.replica, s.is_read, s.measured);
        flat.sort_unstable_by_key(|s| s.completed_at);
        let by_time = |v: &[Sample]| v.iter().map(|s| s.completed_at).collect::<Vec<_>>();
        assert_eq!(by_time(&merged), by_time(&flat));
        let mut merged_keys: Vec<_> = merged.iter().map(key).collect();
        let mut flat_keys: Vec<_> = flat.iter().map(key).collect();
        merged_keys.sort_unstable();
        flat_keys.sort_unstable();
        assert_eq!(merged_keys, flat_keys);
    }

    /// Kill a connection with requests still in flight: the dying
    /// supervisor must hand every parked permit back, so `drained_within`
    /// succeeds instead of issuers hanging at the budget cap against a
    /// table that can no longer complete anything.
    #[test]
    fn a_dead_connection_releases_its_permits() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let cfg = LiveConfig::default();
        let selector = build_selector(&cfg);
        let budget = InFlightBudget::new(4);
        let table: Table = Mutex::new(TableState::new());
        let clock = WallClock::start();
        let stop = AtomicBool::new(false);
        let (_tx, rx) = mpsc::channel::<Request>();

        // Three writes in flight through this one connection. (Writes keep
        // the test independent of selector bookkeeping; reads take the
        // same reap path plus an `abandon_read`.)
        let deadline = Instant::now() + Duration::from_secs(1);
        for id in 0..3u64 {
            assert!(budget.acquire_until(deadline));
            table
                .lock()
                .unwrap()
                .live
                .register(id, write_entry(clock, id))
                .unwrap();
        }
        assert_eq!(budget.in_flight(), 3);
        assert!(
            !budget.drained_within(Duration::from_millis(20)),
            "permits must be parked before the kill"
        );

        std::thread::scope(|s| {
            let (table, selector, budget, stop) = (&table, &selector, &budget, &stop);
            let supervisor = s.spawn(move || {
                connection_loop(
                    addr, &rx, table, selector, budget, None, clock, stop, false, None,
                )
            });
            // Mid-run kill: the server side of the connection goes away.
            let (server_end, _) = listener.accept().unwrap();
            drop(server_end);
            let out = supervisor.join().unwrap().expect("EOF is a clean exit");
            assert!(out.samples.is_empty(), "nothing ever completed");
        });

        assert!(
            budget.drained_within(Duration::from_millis(500)),
            "a dead connection's permits must come back"
        );
        assert!(table.lock().unwrap().live.is_empty(), "stragglers reaped");
        assert_eq!(budget.in_flight(), 0);
    }

    /// The op token elects exactly one owner across the reap paths: a
    /// reap and a (simulated) completion race for the same op, and the
    /// permit comes back exactly once.
    #[test]
    fn reap_send_releases_each_op_once() {
        let cfg = LiveConfig::default();
        let selector = build_selector(&cfg);
        let budget = InFlightBudget::new(2);
        let clock = WallClock::start();
        assert!(budget.acquire_until(Instant::now() + Duration::from_secs(1)));
        let p = write_entry(clock, 0);
        let twin = p.clone();
        // A retry keeps the permit...
        assert!(!reap_send(&p, &selector, &budget, clock.now(), true));
        assert_eq!(budget.in_flight(), 1);
        // ...the park releases it...
        assert!(reap_send(&p, &selector, &budget, clock.now(), false));
        assert_eq!(budget.in_flight(), 0);
        // ...and the twin attempt finds the op already owned.
        assert!(!reap_send(&twin, &selector, &budget, clock.now(), false));
        assert_eq!(budget.in_flight(), 0);
    }

    /// The leak regression: full hardened runs with crash and reset
    /// windows at randomized (seed-varied) times. `execute` asserts at
    /// teardown that every permit funneled back — getting through the
    /// loop IS the pass; any correlation-entry or permit leak panics.
    #[test]
    fn randomized_kill_timing_leaks_nothing() {
        let mut reconnects = 0;
        for seed in 0..3u64 {
            let at = 20 + seed * 17;
            let mut cfg = LiveConfig {
                replicas: 3,
                replication_factor: 2,
                threads: 2,
                in_flight: 16,
                keys: 500,
                run_for: Duration::from_millis(300),
                warmup_ops: 0,
                lifecycle: LifecycleConfig::hardened(
                    Nanos::from_millis(40),
                    2,
                    Some(Nanos::from_millis(20)),
                ),
                seed,
                ..LiveConfig::default()
            };
            cfg.faults = FaultPlan {
                events: vec![
                    FaultEvent {
                        node: (seed % 3) as usize,
                        kind: FaultKind::ConnReset,
                        start: Nanos::from_millis(at),
                        end: Nanos::from_millis(at + 80),
                        magnitude: 0.0,
                    },
                    FaultEvent {
                        node: ((seed + 1) % 3) as usize,
                        kind: FaultKind::Crash,
                        start: Nanos::from_millis(at + 40),
                        end: Nanos::from_millis(at + 140),
                        magnitude: 0.0,
                    },
                ],
            };
            let artifacts =
                execute_on(&cfg, &Transport::InProcess).expect("hardened runs survive kills");
            assert!(artifacts.issued > 0, "seed {seed} issued nothing");
            assert!(
                !artifacts.samples.iter().all(SampleRun::is_empty),
                "seed {seed} completed nothing"
            );
            reconnects += artifacts.reconnects;
        }
        assert!(
            reconnects > 0,
            "reset windows must have severed at least one connection"
        );
    }
}
