//! The multiplexed C3 client: issue/complete split over per-replica
//! connection supervisors, with a correlation table matching out-of-order
//! responses back to requests and a timer thread enforcing the request
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
//! - **Timer**: with a [`LifecycleConfig`] deadline or Dynamic
//!   Snitching, one thread sleeps until its earliest due event. A send
//!   arms its deadline (and a primary read its hedge). An expired request
//!   is reaped — its selector slot abandoned, its id tombstoned so a late
//!   response is discarded — and, budget permitting, retried on a
//!   *different* replica after backoff and jitter, or at the limiter's
//!   `retry_at`. Reads unanswered after `hedge_after` get a duplicate on
//!   a second replica; the first response owns the sample. Each decision
//!   is the op's [`OpLife`] or the [`FailureDetector`]'s — `c3_core`'s one
//!   lifecycle policy, shared with the cluster simulator.
//! - **Selector state**: C3-family strategies run on
//!   [`SharedC3State`] — the packed EWMA tracker fields and outstanding
//!   counts are atomics, so issuers read scores and readers fold
//!   feedback without a global lock (per-server rate-limiter mutexes
//!   only). Non-C3 strategies are sharded one selector instance per
//!   replica group (keyed by the group's primary), the paper's
//!   independent-clients shape; completions route back to the shard
//!   that issued them. The DS recompute tick walks every shard at the
//!   snitch's configured cadence.
//!
//! Permit accounting is per *operation*, not per wire attempt: retries
//! and hedges share the original's `Mutex<OpLife>`, and whoever makes it
//! terminal — a response, an expiry that parks, a reap that wins
//! [`OpLife::park`] — owns the op's single sample or permit release.
//! Every path a request can leave a table without a response funnels
//! through [`reap_send`]; `execute` asserts at teardown that the budget
//! came back whole and the ledger balances ([`LifecycleCounts::check`]).
//!
//! A run keeps in-flight state, not run-length state: readers fold each
//! op's sample into the run's `RunMetrics`, which [`execute_on`]'s scoped
//! threads share behind a `Mutex`, a batch at a time.
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

use std::collections::{BTreeMap, HashSet};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use c3_cluster::FaultKind;
use c3_core::{
    Attempt, Expiry, FailureDetector, LifecycleConfig, LifecycleCounts, Nanos, OpLife, Outcome,
    RateStats, ResponseInfo, Selection, Selector, SharedC3State, SnitchConfig, WallClock,
};
use c3_engine::{ChannelId, RunMetrics, SeedSeq};
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
/// supervisors, correlation tables and lifecycle timer drive an
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

/// One completed operation, buffered by its reader until the next batch
/// folds it into the run's metrics.
#[derive(Clone, Copy, Debug)]
struct Sample {
    completed_at: Nanos,
    latency: Nanos,
    replica: u32,
    /// `true` = GET (read channel), `false` = PUT (update channel).
    is_read: bool,
    /// Issued after the warm-up.
    measured: bool,
}

/// Completions a reader buffers before folding them into the run's
/// metrics under one lock: 256 × 24 B.
const BATCH: usize = 256;

/// The run's metrics, shared by every connection reader.
type SharedMetrics<'m> = Mutex<&'m mut RunMetrics>;

/// One connection supervisor's completions not yet in the run's metrics.
/// Full, it folds them in under one lock; dropped — on every exit path of
/// its supervisor — it folds in the rest. Readers fold in whatever order
/// their batches fill, which `RunMetrics` does not depend on.
struct Batch<'a, 'm> {
    samples: Vec<Sample>,
    metrics: &'a SharedMetrics<'m>,
}

impl Batch<'_, '_> {
    fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
        if self.samples.len() == BATCH {
            self.flush();
        }
    }

    /// Fold the buffered samples in. The lock is poisoned only when
    /// another reader panicked while folding, which fails the run anyway.
    fn flush(&mut self) {
        let Ok(mut metrics) = self.metrics.lock() else {
            return;
        };
        for s in self.samples.drain(..) {
            // The §5 cluster's channels: `read`, then `update`.
            let channel = ChannelId::new(usize::from(!s.is_read));
            metrics.record_completion(channel, s.completed_at, s.latency, s.measured);
            if s.is_read {
                metrics.record_service(s.replica as usize, s.completed_at);
            }
        }
    }
}

impl Drop for Batch<'_, '_> {
    fn drop(&mut self) {
        self.flush();
    }
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

/// Everything a live run produces besides what its readers folded into
/// the run's metrics.
pub(crate) struct ClientArtifacts {
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
    /// The original or a retry, or the hedge — never retried, its expiry
    /// no timeout of the op: the primary owns the op's lifecycle.
    attempt: Attempt,
    /// The fate of the op, shared by all its wire attempts.
    op: Arc<Mutex<OpLife>>,
}

impl Pending {
    /// The op's machine, locked; no other lock is taken while it is held,
    /// and it is taken while holding none.
    fn life(&self) -> MutexGuard<'_, OpLife> {
        self.op.lock().expect("op poisoned")
    }
}

/// One connection's correlation table plus the tombstones of reaped ids.
/// A response for a tombstoned id is a late arrival to discard — the
/// request was already reaped, retried, or outraced by its hedge — not
/// the correlation bug the `UnknownId` check exists to catch.
#[derive(Default)]
struct TableState {
    live: CorrelationTable<Pending>,
    reaped: HashSet<u64>,
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

    /// Whether the shards are Dynamic Snitches, which need the timer.
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
    feedback_lag: HealthGauge,
    /// The readers' share of the lifecycle ledger: hedge wins, reinstates.
    life: LifecycleCounts,
    /// Redials after a mid-run connection death.
    reconnects: u64,
}

/// THE reap path: every wire attempt that leaves a table without a
/// response funnels through here — deadline expiries, dead-connection
/// reaps, failed re-sends, and the end-of-run straggler reap alike.
/// Abandons the read's selector slot; unless the permit is being kept
/// (a retry inherits it, or an expiry already decided the op's fate),
/// races for [`OpLife::park`] and the single release. Returns whether
/// this call became the op's owner.
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
    let owner = p.life().park();
    if owner {
        budget.release();
    }
    owner
}

/// Reap every still-pending entry of one connection's table through
/// [`reap_send`], tombstoning the ids so responses that straggle in
/// after a redial are discarded instead of failing correlation.
fn reap_connection(table: &Table, selector: &LiveSelector, budget: &InFlightBudget, now: Nanos) {
    let mut t = table.lock().expect("table poisoned");
    let entries = t.live.drain();
    t.reaped.extend(entries.iter().map(|&(id, _)| id));
    drop(t);
    for (_, p) in entries {
        reap_send(&p, selector, budget, now, false);
    }
}

/// The issue side's handle on the wire, cloned into every issuing thread
/// (the issuers and the timer): the correlation tables and supervisor
/// channels per replica and connection — each holder owns its sender
/// clones, so the supervisors see the issue side close once the last one
/// exits — the selector and budget a failed send hands back to, and the
/// timers a send arms `lifecycle`'s deadline and hedge on.
#[derive(Clone)]
struct Wire<'a> {
    tables: &'a [Vec<Table>],
    senders: Vec<Vec<mpsc::Sender<Request>>>,
    selector: &'a LiveSelector,
    budget: &'a InFlightBudget,
    timers: Option<&'a Timers>,
    lifecycle: &'a LifecycleConfig,
    /// The PUT payload.
    value: Bytes,
}

impl Wire<'_> {
    /// Register a wire attempt under `id` on connection `id % connections`
    /// of its replica, hand its frame to that supervisor and arm its
    /// timers. If the supervisor is gone, the registration is reclaimed —
    /// when still ours: a dying supervisor reaps its table, and whoever
    /// removes the entry owns its reap — and reaped; `Err` carries whether
    /// that made the op terminal.
    fn send(&self, id: u64, p: Pending, keep_permit: bool, now: Nanos) -> Result<(), bool> {
        let key = encode_key(p.key);
        let request = if p.is_read {
            Request::Get { id, key }
        } else {
            let value = self.value.clone();
            Request::Put { id, key, value }
        };
        let (replica, sent_at) = (p.replica, p.sent_at);
        let hedged = p.is_read && p.attempt == Attempt::Primary;
        let conn = id as usize % self.senders[replica].len();
        let (table, sender) = (&self.tables[replica][conn], &self.senders[replica][conn]);
        let mut t = table.lock().expect("table poisoned");
        t.live.register(id, p).expect("wire ids are unique");
        drop(t);
        if sender.send(request).is_ok() {
            if let (Some(timers), Some(deadline)) = (self.timers, self.lifecycle.deadline) {
                timers.arm(sent_at + deadline, Timer::Deadline(replica, id));
                if let Some(hedge_after) = self.lifecycle.hedge_after.filter(|_| hedged) {
                    timers.arm(sent_at + hedge_after, Timer::Hedge(replica, id));
                }
            }
            return Ok(());
        }
        let reclaimed = table.lock().expect("table poisoned").live.complete(id);
        Err(reclaimed.is_ok_and(|p| reap_send(&p, self.selector, self.budget, now, keep_permit)))
    }
}

/// A due-time event of the timer thread. Deadlines and hedges name their
/// wire attempt by `(replica, wire id)` — the id picks the connection, as
/// in [`Wire::send`]. One that has left its table was answered or reaped,
/// and fires as a no-op, so nothing is ever cancelled.
enum Timer {
    Deadline(usize, u64),
    Hedge(usize, u64),
    /// A reaped primary whose backoff (or the limiter's `retry_at`) ended.
    Retry(Pending),
    /// Dynamic Snitching's periodic recompute.
    SnitchTick,
}

/// The timer's events by `(due, arm order)`, earliest first.
#[derive(Default)]
struct TimerState {
    events: BTreeMap<(Nanos, u64), Timer>,
    armed: u64,
    /// The instant the thread sleeps toward; `Nanos::ZERO` while it is
    /// awake (it re-reads the events before it sleeps again).
    wake_at: Nanos,
    stop: bool,
}

/// The client's one timer service: events behind a mutex, and the condvar
/// its thread sleeps on until the earliest is due. Shrugs off poisoning,
/// as [`InFlightBudget`] does: teardown must stop it whatever panicked.
#[derive(Default)]
struct Timers {
    state: Mutex<TimerState>,
    wake: Condvar,
}

impl Timers {
    fn lock(&self) -> MutexGuard<'_, TimerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm `timer` at `due`, waking the thread only when that precedes
    /// the instant it sleeps toward (the replica service thread's rule).
    fn arm(&self, due: Nanos, timer: Timer) {
        let mut state = self.lock();
        state.armed += 1;
        let seq = state.armed;
        state.events.insert((due, seq), timer);
        let wake = due < state.wake_at;
        state.wake_at = state.wake_at.min(due);
        drop(state);
        if wake {
            self.wake.notify_one();
        }
    }

    /// End the thread's wait, wherever it sleeps.
    fn stop(&self) {
        self.lock().stop = true;
        self.wake.notify_one();
    }

    /// Sleep until the earliest event is due and take it; `None` once
    /// stopped.
    fn next(&self, clock: WallClock) -> Option<Timer> {
        let mut state = self.lock();
        while !state.stop {
            let now = clock.now();
            let first = state.events.keys().next();
            let due = first.map_or(Nanos::MAX, |&(due, _)| due);
            if due <= now {
                state.wake_at = Nanos::ZERO;
                return state.events.pop_first().map(|(_, timer)| timer);
            }
            state.wake_at = due;
            let woken = self.wake.wait_timeout(state, (due - now).into());
            state = woken.unwrap_or_else(PoisonError::into_inner).0;
        }
        None
    }
}

/// Raises the run's stop flag and stops the timer thread when dropped: at
/// teardown, or by a panic or error on the way out.
struct StopOnDrop<'a>(&'a AtomicBool, Option<&'a Timers>);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
        self.1.map(Timers::stop);
    }
}

/// Spawn one of the client's threads under a name (`c-<role>`) that
/// `/proc/<pid>/task/*/comm` shows.
fn spawn_named<'s, T: Send + 's>(
    s: &'s Scope<'s, '_>,
    name: String,
    body: impl FnOnce() -> T + Send + 's,
) -> ScopedJoinHandle<'s, T> {
    let builder = thread::Builder::new().name(name);
    builder
        .spawn_scoped(s, body)
        .expect("failed to spawn thread")
}

/// Run the multiplexed client against `transport` — an in-process fleet
/// spawned (and torn down) here, or remote node processes attached to
/// over the network — to the configured stop condition, drain, and hand
/// back the artifacts. Every completion lands in `metrics` as its reader
/// folds it in, a batch at a time; nothing is kept per operation.
///
/// # Panics
///
/// Panics when the strategy is unknown or needs simulator-global state
/// this backend cannot provide (`ORA`) — mirroring the §5 cluster — and
/// when the in-flight budget comes back short at teardown (a permit or
/// correlation-entry leak; the invariant the randomized kill tests pin).
pub(crate) fn execute_on(
    cfg: &LiveConfig,
    transport: &Transport,
    metrics: &mut RunMetrics,
) -> io::Result<ClientArtifacts> {
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

    let selector = build_selector(cfg);
    let budget = InFlightBudget::new(cfg.in_flight);
    // The detector exists only with a deadline; so do the expiries, the
    // one timer event that can charge it a timeout.
    let detector = cfg.lifecycle.detector(cfg.replicas);
    let ds = selector.is_ds();
    let timers = (detector.is_some() || ds).then(Timers::default);
    if let Some(timers) = timers.as_ref().filter(|_| ds) {
        timers.arm(SnitchConfig::default().update_interval, Timer::SnitchTick);
    }
    // Slow windows only stretch service times: a plan of nothing else
    // expects every connection to hold, exactly like the empty plan.
    let faults_expected = cfg.faults.events.iter().any(|e| e.kind != FaultKind::Slow);
    let issued = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let key_template = ScrambledZipfian::new(cfg.keys, cfg.keys, cfg.zipf_theta);
    let metrics: SharedMetrics = Mutex::new(metrics);
    // One correlation table + supervisor thread per connection,
    // `cfg.connections` connections per replica.
    let tables: Vec<Vec<Table>> = (0..cfg.replicas)
        .map(|_| (0..cfg.connections).map(|_| Mutex::default()).collect())
        .collect();

    let (mut occupancy, mut feedback_lag, lifecycle, reconnects, err) = std::thread::scope(|s| {
        let (selector, budget, detector) = (&selector, &budget, detector.as_ref());
        let (stop, issued, metrics, timers) = (&stop, &issued, &metrics, timers.as_ref());
        // A panic or error below must still stop every thread, the timer
        // too, or the scope, which joins them first, would wait forever.
        let stopper = StopOnDrop(stop, timers);
        let mut senders: Vec<Vec<mpsc::Sender<Request>>> = Vec::with_capacity(cfg.replicas);
        let mut supervisors = Vec::new();
        for (replica, &addr) in addrs.iter().enumerate() {
            let expect_hello = match transport {
                Transport::InProcess => None,
                Transport::Remote { config_digest, .. } => Some(ExpectedHello {
                    replica: replica as u32,
                    digest: *config_digest,
                }),
            };
            let mut replica_senders = Vec::with_capacity(cfg.connections);
            for (conn, table) in tables[replica].iter().enumerate() {
                let (tx, rx) = mpsc::channel::<Request>();
                let name = format!("c-conn-{replica}-{conn}");
                supervisors.push(spawn_named(s, name, move || {
                    connection_loop(
                        addr,
                        &rx,
                        table,
                        selector,
                        budget,
                        detector,
                        clock,
                        stop,
                        faults_expected,
                        expect_hello,
                        metrics,
                    )
                }));
                replica_senders.push(tx);
            }
            senders.push(replica_senders);
        }
        let mut wire = Wire {
            tables: &tables,
            senders,
            selector,
            budget,
            timers,
            lifecycle: &cfg.lifecycle,
            value: Bytes::from(vec![0x5Au8; cfg.value_bytes as usize]),
        };

        // The timer's sender clones drop when it exits at teardown.
        let timer = timers.map(|timers| {
            let wire = wire.clone();
            let body = move || timer_loop(cfg, clock, &wire, timers, detector);
            spawn_named(s, "c-timer".into(), body)
        });

        let issuers: Vec<_> = (0..cfg.threads)
            .map(|w| {
                let (wire, keys) = (wire.clone(), key_template.clone());
                let body = move || issuer_loop(w, cfg, clock, &wire, issued, detector, keys);
                spawn_named(s, format!("c-issuer-{w}"), body)
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
        // drain — the timer keeps firing expiries meanwhile, so a crashed
        // replica's swallowed requests cannot stall the drain — then stop
        // everyone. The timer thread goes first (parking the retries still
        // waiting out their backoff); its sender clones drop with it, so
        // the supervisors' write loops see disconnect and finish their
        // drain.
        wire.senders.clear();
        let _ = budget.drained_within(Duration::from_secs(3));
        drop(stopper);
        let mut lifecycle = match timer {
            Some(t) => t.join().expect("timer thread panicked"),
            None => LifecycleCounts::default(),
        };
        let mut reconnects = 0;
        let mut feedback_lag = HealthGauge::default();
        let mut supervisor_err = None;
        for handle in supervisors {
            match handle.join().expect("connection supervisor panicked") {
                Ok(out) => {
                    feedback_lag.merge(out.feedback_lag);
                    lifecycle.hedge_wins += out.life.hedge_wins;
                    lifecycle.reinstates += out.life.reinstates;
                    reconnects += out.reconnects;
                }
                Err(e) => supervisor_err = supervisor_err.or(Some(e)),
            }
        }
        // A supervisor's hard error (dial refused, hello identity/digest
        // mismatch) is the root cause; an issuer's send-to-dead-channel
        // is its symptom. Surface the cause.
        let err = supervisor_err.or(issuer_err);
        (occupancy, feedback_lag, lifecycle, reconnects, err)
    });
    // Supervisors reap their own tables on exit; what's left here are
    // entries registered in the race window after a supervisor was
    // already gone. Their permits come back like any other straggler's.
    for table in tables.iter().flatten() {
        reap_connection(table, &selector, &budget, clock.now());
    }
    if let Some(cluster) = cluster {
        cluster.shutdown();
    }
    if let Some(e) = err {
        return Err(e);
    }
    // The leak invariant: every permit funneled back through a response
    // or reap_send. A shortfall means a correlation entry or op got
    // lost — fail loudly rather than ship corrupt accounting.
    assert_eq!(
        budget.in_flight(),
        0,
        "in-flight permits leaked at teardown"
    );
    lifecycle.check();

    occupancy.series.sort_unstable_by_key(|&(at, _)| at);
    feedback_lag.series.sort_unstable_by_key(|&(at, _)| at);
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
        inflight: occupancy.hist,
        feedback_lag: feedback_lag.hist,
        backpressure_waits: parts.backpressure_waits,
        backpressure_sleep_ns: parts.backpressure_sleep_ns,
        rate_stats: parts.rate_stats,
        issued: issued.into_inner(),
        lifecycle,
        reconnects,
        recorder,
    })
}

/// One issuer: pace (Poisson intended arrivals under open loop), take an
/// in-flight permit, select (or wait out backpressure) among the
/// detector's candidates, put the request on the wire — never blocking
/// on any individual response.
fn issuer_loop(
    w: usize,
    cfg: &LiveConfig,
    clock: WallClock,
    wire: &Wire,
    issued: &AtomicU64,
    detector: Option<&FailureDetector>,
    keys: ScrambledZipfian,
) -> io::Result<HealthGauge> {
    let (selector, budget) = (wire.selector, wire.budget);
    let deadline: Nanos = Nanos::from(cfg.run_for);
    let wall_deadline = Instant::now() + cfg.run_for.saturating_sub(clock.now().into());
    let mut rng = SmallRng::seed_from_u64(SeedSeq::new(cfg.seed).thread_seed(w as u64));

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

        let pending = Pending {
            measured: issue_index >= cfg.warmup_ops,
            is_read,
            created,
            sent_at: clock.now(),
            replica: target,
            shard,
            key,
            attempt: Attempt::Primary,
            op: Arc::default(),
        };
        if wire.send(id, pending, false, clock.now()).is_err() {
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

/// The timer thread: fire each event as it falls due until stopped, then
/// park the retries still waiting — they hold permits with no table entry
/// left — so the budget drains whole. Returns its share of the ledger.
fn timer_loop(
    cfg: &LiveConfig,
    clock: WallClock,
    wire: &Wire,
    timers: &Timers,
    detector: Option<&FailureDetector>,
) -> LifecycleCounts {
    let seed = SeedSeq::new(cfg.seed).thread_seed(u64::from(u16::MAX));
    let mut fire = Fire {
        cfg,
        wire,
        detector,
        rng: SmallRng::seed_from_u64(seed),
        counts: LifecycleCounts::default(),
        scratch: Vec::new(),
        // Wire ids disjoint from every issuer's block (those start below
        // `threads << 48`).
        next_id: (cfg.threads as u64) << 48,
    };
    while let Some(timer) = timers.next(clock) {
        fire.fire(timer, clock.now());
    }
    let left = std::mem::take(&mut timers.lock().events);
    for timer in left.into_values() {
        if let Timer::Retry(p) = timer {
            let parked = reap_send(&p, wire.selector, wire.budget, clock.now(), false);
            fire.counts.parked += u64::from(parked);
        }
    }
    fire.counts
}

/// The timer thread's lifecycle state. Expiry, retry, hedge and park run
/// the same [`OpLife`] calls, [`reap_send`] and [`Wire::send`] as the rest
/// of the client.
struct Fire<'w, 'a> {
    cfg: &'w LiveConfig,
    wire: &'w Wire<'a>,
    detector: Option<&'w FailureDetector>,
    rng: SmallRng,
    counts: LifecycleCounts,
    scratch: Vec<usize>,
    next_id: u64,
}

impl Fire<'_, '_> {
    fn fire(&mut self, timer: Timer, now: Nanos) {
        let wire = self.wire;
        let timers = wire.timers.expect("the timer thread's wire arms timers");
        let table = |replica: usize, id: u64| {
            let conns = &wire.tables[replica];
            conns[id as usize % conns.len()]
                .lock()
                .expect("table poisoned")
        };
        match timer {
            // Reap the attempt, freeing its selector slot. A primary's
            // expiry retries (the op keeps its permit) or parks (this
            // expiry made it terminal, so it releases the permit); a hedge
            // twin's is no expiry of the op — the primary owns its fate.
            Timer::Deadline(replica, id) => {
                let mut t = table(replica, id);
                let Ok(p) = t.live.complete(id) else {
                    return;
                };
                t.reaped.insert(id);
                drop(t);
                reap_send(&p, wire.selector, wire.budget, now, true);
                if p.attempt == Attempt::Hedge {
                    return;
                }
                let (rng, lifecycle) = (&mut self.rng, &self.cfg.lifecycle);
                let jitter = || rng.gen_range(0.5..1.5);
                let expiry = p.life().expire(lifecycle, jitter, &mut self.counts);
                let timeout = |d: &FailureDetector| d.note_timeout(p.replica, now);
                let evicted = expiry != Expiry::Dead && self.detector.is_some_and(timeout);
                self.counts.evictions += u64::from(evicted);
                match expiry {
                    Expiry::Retry(wait) => timers.arm(now + wait, Timer::Retry(p)),
                    Expiry::Park => wire.budget.release(),
                    Expiry::Dead => {}
                }
            }
            // A retry of an op still open (a late response, or the hedge,
            // may have answered meanwhile), counted when it goes out, as
            // the simulator does: one still armed at teardown is a park.
            // Writes re-target their primary.
            Timer::Retry(mut p) if p.life().retry_due() => {
                let replica = if p.is_read {
                    match self.reselect(&p, now) {
                        Selection::Server(s) => s,
                        Selection::Backpressure { retry_at } => {
                            return timers.arm(retry_at, Timer::Retry(p));
                        }
                    }
                } else {
                    p.shard
                };
                (p.sent_at, p.replica) = (now, replica);
                match self.put_on_wire(p) {
                    Ok(()) => self.counts.retries += 1,
                    Err(parked) => self.counts.parked += u64::from(parked),
                }
            }
            Timer::Retry(_) => {}
            // One duplicate on a different replica per op, handed back and
            // re-armed at `retry_at` when the limiter refuses it. The entry
            // is copied out of its table before the op is locked.
            Timer::Hedge(replica, id) => {
                let entry = table(replica, id).live.get(id).cloned();
                let Some(mut p) = entry.filter(|p| p.life().elect_hedge()) else {
                    return;
                };
                match self.reselect(&p, now) {
                    Selection::Server(s) => {
                        (p.sent_at, p.replica, p.attempt) = (now, s, Attempt::Hedge);
                        self.counts.hedges += u64::from(self.put_on_wire(p).is_ok());
                    }
                    Selection::Backpressure { retry_at } => {
                        p.life().hedge_refused();
                        timers.arm(retry_at, Timer::Hedge(replica, id));
                    }
                }
            }
            // The sim's SnitchTick cadence: the parity comparison assumes
            // live DS is no better informed.
            Timer::SnitchTick => {
                wire.selector.ds_tick(now);
                let interval = SnitchConfig::default().update_interval;
                timers.arm(now + interval, Timer::SnitchTick);
            }
        }
    }

    /// Re-select among the detector's candidates, steering away from the
    /// replica `p` went to.
    fn reselect(&mut self, p: &Pending, now: Nanos) -> Selection {
        let group = self.cfg.group_of(p.key);
        let candidates = match self.detector {
            Some(d) => d.candidates(&group, Some(p.replica), now, &mut self.scratch),
            None => &group,
        };
        self.wire.selector.try_select(candidates, p.shard, now)
    }

    /// Send `p` under a fresh wire id. A hedge keeps the op's permit even
    /// when its send fails: the primary still holds the op.
    fn put_on_wire(&mut self, p: Pending) -> Result<(), bool> {
        self.next_id += 1;
        let (keep_permit, now) = (p.attempt == Attempt::Hedge, p.sent_at);
        self.wire.send(self.next_id, p, keep_permit, now)
    }
}

/// One connection supervisor: dial, run the write/read halves until the
/// connection dies or the run ends, and — when fault windows are in play
/// — redial and carry on. Frames still queued at a death replay onto the
/// fresh connection; responses to attempts reaped meanwhile are
/// tombstone-discarded. Completions fold into `metrics` a batch at a
/// time; the last batch on the way out, whichever way that is.
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
    metrics: &SharedMetrics,
) -> io::Result<ReaderOut> {
    const WRITE_POLL: Duration = Duration::from_millis(20);
    const READ_POLL: Duration = Duration::from_millis(50);
    const COALESCE_LIMIT: usize = 64 * 1024;
    // A detector means a deadline, and a deadline means every entry of
    // this connection's table has its expiry armed on the timer.
    let hardened = detector.is_some();
    let mut out = ReaderOut::default();
    let mut batch = Batch {
        samples: Vec::with_capacity(BATCH),
        metrics,
    };
    let mut redial = Duration::from_millis(2);
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Remote nodes announce themselves before anything else; verify
        // identity and config digest before a single request goes out.
        // Response bytes that followed the hello stay in `buf` for the
        // reader.
        let mut buf = BytesMut::new();
        let dialed = std::net::TcpStream::connect(addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_POLL))?;
            match expect_hello {
                Some(expected) if !await_hello(&stream, &mut buf, expected, stop)? => {
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "node died before its hello",
                    ))
                }
                _ => Ok(stream),
            }
        });
        let stream = match dialed {
            Ok(stream) => stream,
            // A dial the replica's fault window rejects, or a connection
            // that dies before its hello, is severed like any other: back
            // off and keep trying — the replica restarts on script. A
            // *wrong* hello (`InvalidData`) aborts the run, as does any
            // failure no fault window explains.
            Err(e) if faults_expected && e.kind() != io::ErrorKind::InvalidData => {
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
        };
        redial = Duration::from_millis(2);
        let conn_dead = AtomicBool::new(false);
        let read_res = std::thread::scope(|s| {
            let reader = spawn_named(s, "c-read".into(), || {
                read_responses(
                    &stream, buf, table, selector, budget, detector, clock, stop, &conn_dead,
                    &mut out, &mut batch,
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
        if stop.load(Ordering::Acquire) || !conn_dead.load(Ordering::Acquire) {
            // Stopping, or the writer saw disconnect and the reader came
            // home clean: teardown.
            break;
        }
        out.reconnects += 1;
        if !hardened {
            // No deadline will ever expire a dead connection's entries:
            // reap them now through the same path deadlines use.
            reap_connection(table, selector, budget, clock.now());
        }
        if !faults_expected {
            // An unscripted death with nobody watching: end this
            // connection, releasing everything below — the old
            // single-dial semantics.
            break;
        }
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
/// (tombstoned) attempts — feed the selector, and let the op's
/// [`OpLife`] decide whether this response owns the sample — pushed onto
/// `batch` — and the permit.
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
    batch: &mut Batch,
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
            out.life.reinstates += 1;
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
        // The op decides: only the first responder (across the original,
        // its retries, and its hedge) samples and releases. Losers still
        // fed the selector above — their on_send slots need the matching
        // on_response either way.
        let outcome = entry.life().respond(entry.attempt, &mut out.life);
        if let Outcome::Complete { .. } = outcome {
            batch.push(Sample {
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
            attempt: Attempt::Primary,
            op: Arc::default(),
        }
    }

    /// A run's metrics as `run_live` builds them.
    fn run_metrics(cfg: &LiveConfig) -> RunMetrics {
        let channels = c3_engine::ChannelSet::of(c3_cluster::CLUSTER_CHANNELS);
        RunMetrics::new(channels, cfg.replicas, Nanos::from_millis(100), 0)
    }

    /// What a live run keeps per operation: nothing. A reader buffers at
    /// most one batch of 24-byte samples, and the health channels keep a
    /// histogram and a per-millisecond series.
    #[test]
    fn batched_samples_and_health_channels_stay_small() {
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

    /// A batch folds into the metrics when it fills and when it drops,
    /// reads feeding the server-load series too.
    #[test]
    fn batches_fold_when_full_and_when_dropped() {
        let cfg = LiveConfig::default();
        let mut metrics = run_metrics(&cfg);
        let shared: SharedMetrics = Mutex::new(&mut metrics);
        let mut batch = Batch {
            samples: Vec::new(),
            metrics: &shared,
        };
        let sample = |i: u64| Sample {
            completed_at: Nanos(i),
            latency: Nanos(10 + i),
            replica: (i % 3) as u32,
            is_read: !i.is_multiple_of(4),
            measured: i >= 10,
        };
        for i in 0..BATCH as u64 {
            batch.push(sample(i));
        }
        assert!(batch.samples.is_empty(), "a full batch folds in");
        assert_eq!(shared.lock().unwrap().total_completions(), BATCH as u64);
        batch.push(sample(BATCH as u64));
        drop(batch);
        let n = BATCH as u64 + 1;
        assert_eq!(metrics.total_completions(), n);
        assert_eq!(metrics.completions(ChannelId::new(0)), n - n.div_ceil(4));
        let served: u64 = metrics.server_load().iter().map(|w| w.total()).sum();
        assert_eq!(served, metrics.completions(ChannelId::new(0)));
        assert_eq!(metrics.duration(), Nanos(n - 1 - 10));
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
        let table: Table = Mutex::default();
        let clock = WallClock::start();
        let stop = AtomicBool::new(false);
        let (_tx, rx) = mpsc::channel::<Request>();
        let mut metrics = run_metrics(&cfg);
        let shared: SharedMetrics = Mutex::new(&mut metrics);

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
            let shared = &shared;
            let supervisor = s.spawn(move || {
                connection_loop(
                    addr, &rx, table, selector, budget, None, clock, stop, false, None, shared,
                )
            });
            // Mid-run kill: the server side of the connection goes away.
            let (server_end, _) = listener.accept().unwrap();
            drop(server_end);
            supervisor.join().unwrap().expect("EOF is a clean exit");
        });
        assert_eq!(metrics.total_completions(), 0, "nothing ever completed");

        assert!(
            budget.drained_within(Duration::from_millis(500)),
            "a dead connection's permits must come back"
        );
        assert!(table.lock().unwrap().live.is_empty(), "stragglers reaped");
        assert_eq!(budget.in_flight(), 0);
    }

    /// The op's machine elects exactly one owner across the reap paths: a
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

    /// Run `cycle` on its own thread and fail — rather than hang — when
    /// it has not returned within two seconds.
    fn within_watchdog(what: &str, cycle: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = thread::spawn(move || {
            cycle();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(2)) {
            Ok(()) => worker.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
            // The cycle panicked: surface its message, not ours.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
        }
    }

    /// Spin until `ready` holds: the other thread has reached the state
    /// the test means to interleave against.
    fn await_state(ready: impl Fn() -> bool) {
        while !ready() {
            thread::yield_now();
        }
    }

    fn deadline_id(timer: Option<Timer>) -> u64 {
        match timer {
            Some(Timer::Deadline(_, id)) => id,
            _ => panic!("expected a deadline"),
        }
    }

    #[test]
    fn timer_fires_in_due_then_arm_order() {
        let timers = Timers::default();
        let clock = WallClock::start();
        for (due, id) in [(5, 1), (5, 2), (3, 3), (5, 4), (1, 5)] {
            timers.arm(Nanos(due), Timer::Deadline(0, id));
        }
        let order: Vec<u64> = (0..5).map(|_| deadline_id(timers.next(clock))).collect();
        assert_eq!(order, [5, 3, 1, 2, 4]);
    }

    /// The thread sleeps toward its earliest event, or idles with none:
    /// an earlier arm and a stop each end that sleep at once.
    #[test]
    fn timer_stop_and_earlier_arms_wake_its_sleep() {
        within_watchdog("the timer's wake-ups", || {
            let clock = WallClock::start();
            let far = Nanos::from_secs(3_600);
            let timers = Timers::default();
            timers.arm(far, Timer::SnitchTick);
            let asleep = || {
                let state = timers.lock();
                state.wake_at == far && state.events.len() == 1
            };
            thread::scope(|s| {
                let sleeper = s.spawn(|| (deadline_id(timers.next(clock)), timers.next(clock)));
                await_state(asleep);
                timers.arm(Nanos::ZERO, Timer::Deadline(0, 7));
                await_state(asleep);
                timers.stop();
                let (woken_for, after_stop) = sleeper.join().unwrap();
                assert_eq!(woken_for, 7);
                assert!(after_stop.is_none());
            });
            let idle = Timers::default();
            thread::scope(|s| {
                let sleeper = s.spawn(|| idle.next(clock).is_none());
                await_state(|| idle.lock().wake_at == Nanos::MAX);
                idle.stop();
                assert!(sleeper.join().unwrap());
            });
        });
    }

    /// A client's timer side without sockets: the wire's supervisor
    /// channels end in receivers the test reads.
    struct Rig {
        cfg: LiveConfig,
        tables: Vec<Vec<Table>>,
        selector: LiveSelector,
        budget: InFlightBudget,
        detector: FailureDetector,
        timers: Timers,
    }

    fn rig() -> Rig {
        let cfg = LiveConfig {
            replicas: 3,
            lifecycle: LifecycleConfig::hardened(
                Nanos::from_millis(40),
                2,
                Some(Nanos::from_millis(20)),
            ),
            ..LiveConfig::default()
        };
        Rig {
            tables: (0..cfg.replicas).map(|_| vec![Mutex::default()]).collect(),
            selector: build_selector(&cfg),
            budget: InFlightBudget::new(8),
            detector: cfg.lifecycle.detector(cfg.replicas).unwrap(),
            timers: Timers::default(),
            cfg,
        }
    }

    impl Rig {
        fn wire(&self) -> (Wire<'_>, Vec<mpsc::Receiver<Request>>) {
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..self.cfg.replicas).map(|_| mpsc::channel()).unzip();
            let wire = Wire {
                tables: &self.tables,
                senders: senders.into_iter().map(|tx| vec![tx]).collect(),
                selector: &self.selector,
                budget: &self.budget,
                timers: Some(&self.timers),
                lifecycle: &self.cfg.lifecycle,
                value: Bytes::from_static(b"v"),
            };
            (wire, receivers)
        }

        fn fire<'w, 'a>(&'w self, wire: &'w Wire<'a>) -> Fire<'w, 'a> {
            Fire {
                cfg: &self.cfg,
                wire,
                detector: Some(&self.detector),
                rng: SmallRng::seed_from_u64(1),
                counts: LifecycleCounts::default(),
                scratch: Vec::new(),
                next_id: 1 << 48,
            }
        }

        /// Put a primary read of key 0 (group `[0, 1, 2]`) on the wire
        /// under `id`, as an issuer does.
        fn send_read(&self, wire: &Wire, id: u64, now: Nanos) -> Pending {
            let Selection::Server(replica) = self.selector.try_select(&[0, 1, 2], 0, now) else {
                panic!("a fresh limiter grants the first send");
            };
            let p = read_entry(replica, now);
            wire.send(id, p.clone(), false, now).unwrap();
            p
        }

        fn armed(&self) -> Vec<(Nanos, &'static str)> {
            let state = self.timers.lock();
            let kind = |t: &Timer| match t {
                Timer::Deadline(..) => "deadline",
                Timer::Hedge(..) => "hedge",
                Timer::Retry(_) => "retry",
                Timer::SnitchTick => "snitch",
            };
            state
                .events
                .iter()
                .map(|(&(due, _), t)| (due, kind(t)))
                .collect()
        }
    }

    fn read_entry(replica: usize, now: Nanos) -> Pending {
        Pending {
            is_read: true,
            created: now,
            sent_at: now,
            replica,
            ..write_entry(WallClock::start(), 0)
        }
    }

    fn sent_frames(receivers: &[mpsc::Receiver<Request>]) -> Vec<(usize, u64)> {
        let mut sent = Vec::new();
        for (replica, rx) in receivers.iter().enumerate() {
            for req in rx.try_iter() {
                let (Request::Get { id, .. } | Request::Put { id, .. }) = req;
                sent.push((replica, id));
            }
        }
        sent
    }

    /// A deadline or hedge whose attempt already left its table (answered
    /// or reaped) does nothing: nothing counted, sent, armed, tombstoned
    /// or released.
    #[test]
    fn timer_ignores_attempts_that_left_their_table() {
        let rig = rig();
        let (wire, receivers) = rig.wire();
        assert!(rig
            .budget
            .acquire_until(Instant::now() + Duration::from_secs(1)));
        let mut fire = rig.fire(&wire);
        fire.fire(Timer::Deadline(1, 99), Nanos::from_millis(50));
        fire.fire(Timer::Hedge(1, 99), Nanos::from_millis(50));
        assert_eq!(fire.counts, LifecycleCounts::default());
        assert!(sent_frames(&receivers).is_empty());
        assert!(rig.armed().is_empty());
        assert!(rig.tables[1][0].lock().unwrap().reaped.is_empty());
        assert_eq!(rig.budget.in_flight(), 1);
    }

    /// A send arms its deadline and hedge; the hedge goes out once to
    /// another replica, and a second hedge event for the op is a no-op.
    #[test]
    fn timer_elects_one_hedge_per_op() {
        let rig = rig();
        let (wire, receivers) = rig.wire();
        let now = Nanos::from_millis(1);
        let p = rig.send_read(&wire, 7, now);
        let armed = rig.armed();
        assert_eq!(
            armed,
            [
                (now + Nanos::from_millis(20), "hedge"),
                (now + Nanos::from_millis(40), "deadline")
            ]
        );
        let mut fire = rig.fire(&wire);
        fire.fire(Timer::Hedge(p.replica, 7), armed[0].0);
        fire.fire(Timer::Hedge(p.replica, 7), armed[0].0 + Nanos(1));
        assert_eq!(fire.counts.hedges, 1);
        let sent = sent_frames(&receivers);
        assert_eq!(sent.len(), 2, "{sent:?}");
        assert!(sent.contains(&(p.replica, 7)));
        let hedge = sent.iter().find(|&&(_, id)| id != 7).unwrap();
        assert_ne!(hedge.0, p.replica, "a hedge goes to another replica");
        // The hedge twin got a deadline of its own and no hedge.
        assert_eq!(rig.armed().iter().filter(|a| a.1 == "hedge").count(), 1);
        assert_eq!(rig.armed().len(), 3);
    }

    /// A retry every candidate's limiter refuses waits for the limiter's
    /// `retry_at`, not for a fixed tick.
    #[test]
    fn timer_rearms_a_refused_retry_at_retry_at() {
        let rig = rig();
        let (wire, receivers) = rig.wire();
        let now = Nanos::from_millis(5);
        let candidates = [1, 2]; // the group minus the replica it left
        let retry_at = (0..100_000)
            .find_map(|_| match rig.selector.try_select(&candidates, 1, now) {
                Selection::Backpressure { retry_at } => Some(retry_at),
                Selection::Server(_) => None,
            })
            .expect("the limiters run dry");
        assert!(retry_at > now + Nanos::from_millis(1), "{retry_at:?}");
        let mut fire = rig.fire(&wire);
        fire.fire(Timer::Retry(read_entry(0, now)), now);
        assert_eq!(rig.armed(), [(retry_at, "retry")]);
        assert!(sent_frames(&receivers).is_empty());
        assert_eq!(fire.counts, LifecycleCounts::default());
    }

    /// `Pending::life`'s lock rule on the hedge path: the op is locked
    /// under no table lock. The test holds the op while a hedge fires; if
    /// the firing thread kept the table locked while it waits for the op,
    /// the test's own table lock would deadlock and the watchdog fail.
    #[test]
    fn timer_hedge_locks_the_op_under_no_table_lock() {
        within_watchdog("a hedge against a held op", || {
            let rig = rig();
            let (wire, _receivers) = rig.wire();
            let now = Nanos::from_millis(1);
            let p = rig.send_read(&wire, 7, now);
            let table = &rig.tables[p.replica][0];
            thread::scope(|s| {
                let op = p.life();
                let firer = s.spawn(|| {
                    let mut fire = rig.fire(&wire);
                    fire.fire(Timer::Hedge(p.replica, 7), now + Nanos::from_millis(20));
                    fire.counts.hedges
                });
                // The table's entry, `p` and the firer's copy.
                await_state(|| Arc::strong_count(&p.op) == 3);
                drop(table.lock().unwrap());
                drop(op);
                assert_eq!(firer.join().unwrap(), 1);
            });
        });
    }

    /// Stop wakes the timer thread: a run with a deadline, a hedge and DS
    /// whose every dial is refused returns its error, not a hung join.
    #[test]
    fn timer_run_with_refused_dials_errs_within_the_watchdog() {
        within_watchdog("a timed DS run against refused dials", || {
            // Addresses nobody listens on any more.
            let addrs: Vec<SocketAddr> = (0..3)
                .map(|_| {
                    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                    listener.local_addr().unwrap()
                })
                .collect();
            let cfg = LiveConfig {
                replicas: 3,
                replication_factor: 2,
                threads: 2,
                in_flight: 16,
                strategy: c3_engine::Strategy::dynamic_snitching(),
                lifecycle: LifecycleConfig::hardened(
                    Nanos::from_secs(10),
                    2,
                    Some(Nanos::from_secs(5)),
                ),
                run_for: Duration::from_secs(10),
                warmup_ops: 0,
                ..LiveConfig::default()
            };
            let mut metrics = run_metrics(&cfg);
            let transport = Transport::Remote {
                addrs,
                config_digest: 0,
            };
            assert!(execute_on(&cfg, &transport, &mut metrics).is_err());
        });
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
            let mut metrics = run_metrics(&cfg);
            let artifacts = execute_on(&cfg, &Transport::InProcess, &mut metrics)
                .expect("hardened runs survive kills");
            assert!(artifacts.issued > 0, "seed {seed} issued nothing");
            assert!(
                metrics.total_completions() > 0,
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
