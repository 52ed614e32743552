//! The direct-fleet event loop: clients talk straight to replica servers
//! (no coordinator hop), as in the paper's §6 simulator, with every
//! selector behind the engine's shared [`BackpressureFront`].
//!
//! One loop serves every scenario of this shape. A scenario is a
//! [`FleetSpec`]: how requests arrive ([`Arrivals`] — open-loop Poisson
//! sources per traffic class, or closed-loop clients that think between
//! response and next request), how clients map onto selector instances
//! (`client % selectors`: one each, or a pool of shards), and one latency
//! channel per traffic class. [`crate::MultiTenantConfig`] and
//! [`crate::MegaFleetConfig`] lower into it.
//!
//! Servers are FIFO with `server_concurrency` execution slots and
//! exponential service times; key `k` lives on replica group
//! `k % servers`, whose members are the next `replication_factor` servers
//! on the ring.
//!
//! Request records live in a recycling [`SlotTable`], released when the
//! response is received: memory follows the requests in flight (at most
//! one per closed-loop client), not the length of the run.

use std::collections::VecDeque;

use c3_core::{C3Config, Feedback, Nanos, ResponseInfo, Selection, Selector, SnitchConfig};
use c3_engine::{
    BackpressureFront, ChannelId, ChannelSet, EventQueue, RunMetrics, Scenario, ScenarioRunner,
    SeedSeq, SlotKey, SlotTable, Strategy,
};
use c3_telemetry::{Recorder, TracePoint};
use c3_workload::{exp_sample, PoissonArrivals, ScrambledZipfian};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::options::{RunOptions, RunOutput};
use crate::report::ScenarioReport;

/// One traffic class: a latency channel and the mean service time of its
/// requests.
pub(crate) struct TrafficClass {
    pub name: String,
    pub mean_service_ms: f64,
}

/// One open-loop Poisson source (a tenant) with its own key chooser and
/// RNG stream.
pub(crate) struct PoissonSource {
    pub keys: ScrambledZipfian,
    pub arrivals: PoissonArrivals,
    pub rng: SmallRng,
}

/// Where requests come from.
pub(crate) enum Arrivals {
    /// Source `i` issues class-`i` requests on its own Poisson clock, each
    /// through a uniformly drawn client, until `total_requests` have been
    /// generated.
    Open {
        clients: usize,
        sources: Vec<PoissonSource>,
    },
    /// Every client cycles think → request → response forever, holding
    /// exactly one pending event (think timer or in-flight request); the
    /// run ends on the completion count alone. All requests are class 0.
    Closed {
        clients: u32,
        mean_think_ms: f64,
        keys: ScrambledZipfian,
    },
}

/// A fully lowered direct-fleet run.
pub(crate) struct FleetSpec {
    /// Registry name the report is filed under.
    pub scenario: &'static str,
    pub servers: usize,
    pub replication_factor: usize,
    pub server_concurrency: usize,
    pub one_way_latency: Nanos,
    pub total_requests: u64,
    pub warmup_requests: u64,
    pub exact_latency: bool,
    /// Selector instances; client `c` selects through `c % selectors`.
    /// Also C3's concurrency weight (the number of rate-limited senders).
    pub selectors: usize,
    /// Salt of the service-time RNG stream (keeps old seeds on the
    /// streams they always produced).
    pub service_stream: u64,
    pub classes: Vec<TrafficClass>,
    pub arrivals: Arrivals,
    pub strategy: Strategy,
    pub c3: C3Config,
    pub load_window: Nanos,
    pub seed: u64,
}

/// The request record stores servers and classes as `u16` (with
/// `u16::MAX` as the not-yet-sent server) and clients as `u32`; reject
/// fleets that would not fit instead of truncating their ids.
///
/// # Panics
///
/// Panics when a population exceeds its id width.
pub(crate) fn validate_id_widths(servers: usize, clients: u64, classes: usize) {
    assert!(
        servers < usize::from(u16::MAX),
        "too many servers: request records hold server ids below {}",
        u16::MAX
    );
    assert!(
        classes <= usize::from(u16::MAX),
        "too many tenants: request records hold at most {} classes",
        u16::MAX
    );
    assert!(
        clients <= u64::from(u32::MAX),
        "too many clients: request records hold at most {} clients",
        u32::MAX
    );
}

/// The loop's event alphabet.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FleetEvent {
    /// An arrival source fires: Poisson source `source`, or closed-loop
    /// client `source` finishing its think time.
    Arrive { source: u32 },
    /// A request reaches its server.
    ServerArrive { req: ReqId },
    /// A request finishes executing at its server.
    ServiceDone {
        server: u32,
        req: ReqId,
        service_time: Nanos,
    },
    /// A response reaches its client.
    ClientReceive { req: ReqId },
    /// A selector retries the backlog of one replica group.
    RetryBacklog { selector: u32, group: u32 },
    /// Dynamic Snitching selectors recompute their scores.
    SnitchTick,
}

impl FleetEvent {
    fn retry_backlog(selector: usize, group: usize) -> Self {
        FleetEvent::RetryBacklog {
            selector: selector as u32,
            group: group as u32,
        }
    }
}

/// Sentinel `Request::server`: not sent yet.
const UNSENT: u16 = u16::MAX;

/// A request's name inside events, server queues and backlogs: the key of
/// its [`Request`] record while it is in flight.
type ReqId = SlotKey;

/// Lives from `Arrive` until its `ClientReceive`.
#[derive(Clone, Copy, Debug)]
struct Request {
    client: u32,
    class: u16,
    group: u16,
    server: u16,
    measured: bool,
    created: Nanos,
    sent_at: Nanos,
    /// Position in issue order: the request's name in the flight recorder
    /// (its table key is recycled, this is not).
    issue_index: u64,
    /// Feedback piggybacked on the response — inline, so the response
    /// path touches one cache line.
    feedback: Feedback,
}

struct Server {
    queue: VecDeque<ReqId>,
    inflight: usize,
}

impl Server {
    /// Ground-truth pending depth: executing plus queued.
    fn pending(&self) -> u32 {
        (self.inflight + self.queue.len()) as u32
    }
}

/// One selector instance plus the backpressure state it owns.
struct SelectorSlot {
    /// `None` for the Oracle, which reads global server state instead.
    selector: Option<Selector>,
    front: BackpressureFront<ReqId, FleetEvent>,
}

/// The direct-fleet scenario, driven by the engine's [`ScenarioRunner`].
pub(crate) struct DirectFleet {
    spec: FleetSpec,
    servers: Vec<Server>,
    slots: Vec<SelectorSlot>,
    groups: Vec<Vec<usize>>,
    requests: SlotTable<Request>,
    wl_rng: SmallRng,
    srv_rng: SmallRng,
    generated: u64,
    /// Flight recorder for the request lifecycle trace; purely
    /// observational — a run's fingerprint is identical with and without.
    recorder: Option<Recorder>,
}

impl DirectFleet {
    /// Build the scenario.
    ///
    /// # Panics
    ///
    /// Panics when the configured strategy is unknown.
    pub(crate) fn new(spec: FleetSpec) -> Self {
        let seeds = SeedSeq::new(spec.seed);
        let mut c3 = spec.c3;
        c3.concurrency_weight = spec.selectors as f64;

        let groups = (0..spec.servers)
            .map(|g| {
                (0..spec.replication_factor)
                    .map(|k| (g + k) % spec.servers)
                    .collect()
            })
            .collect();
        let servers = (0..spec.servers)
            .map(|_| Server {
                queue: VecDeque::new(),
                inflight: 0,
            })
            .collect();
        let slots = (0..spec.selectors)
            .map(|i| SelectorSlot {
                selector: spec.strategy.build_client(spec.servers, c3, &seeds, i),
                front: BackpressureFront::new(i, spec.servers, FleetEvent::retry_backlog),
            })
            .collect();

        Self {
            servers,
            slots,
            groups,
            requests: SlotTable::new(),
            wl_rng: seeds.workload_rng(),
            srv_rng: seeds.service_rng(spec.service_stream),
            generated: 0,
            recorder: None,
            spec,
        }
    }

    /// `RetryBacklog` events that fired against an already-drained
    /// backlog. Draining cancels the pending timer, so this stays zero —
    /// asserted regression-style across the scenario library.
    fn dead_events(&self) -> u64 {
        self.slots.iter().map(|s| s.front.dead_retries()).sum()
    }

    #[inline]
    fn slot_of(&self, client: u32) -> usize {
        client as usize % self.slots.len()
    }

    fn think_gap(wl_rng: &mut SmallRng, mean_think_ms: f64) -> Nanos {
        Nanos::from_millis_f64(exp_sample(wl_rng, mean_think_ms))
    }

    fn on_arrive(
        &mut self,
        source: u32,
        now: Nanos,
        engine: &mut EventQueue<FleetEvent>,
        metrics: &RunMetrics,
    ) {
        let (client, class, key) = match &mut self.spec.arrivals {
            Arrivals::Open { clients, sources } => {
                if self.generated >= self.spec.total_requests {
                    return;
                }
                let client = self.wl_rng.gen_range(0..*clients) as u32;
                let s = &mut sources[source as usize];
                (client, source as u16, s.keys.sample(&mut s.rng))
            }
            Arrivals::Closed { keys, .. } => (source, 0, keys.sample(&mut self.wl_rng)),
        };
        let issue_index = self.generated;
        self.generated += 1;
        let req = self.requests.insert(Request {
            client,
            class,
            group: (key % self.spec.servers as u64) as u16,
            server: UNSENT,
            measured: metrics.past_warmup(issue_index),
            created: now,
            sent_at: Nanos::ZERO,
            issue_index,
            feedback: Feedback::new(0, Nanos::ZERO),
        });
        if let Some(rec) = &mut self.recorder {
            rec.record(now, issue_index, TracePoint::Issue);
        }
        self.try_dispatch(req, now, engine);
        // Open loop: the source re-arms itself regardless of how the
        // request fares. (Closed-loop clients re-arm on receive.)
        if let Arrivals::Open { sources, .. } = &mut self.spec.arrivals {
            if self.generated < self.spec.total_requests {
                let s = &mut sources[source as usize];
                let gap = s.arrivals.next_gap(&mut s.rng);
                engine.schedule_in(gap, FleetEvent::Arrive { source });
            }
        }
    }

    /// Snapshot a selection decision into the flight recorder (see
    /// [`Recorder::record_decision`]); `chosen == None` is backpressure.
    #[inline]
    fn record_decision(
        &mut self,
        req: ReqId,
        slot: usize,
        chosen: Option<usize>,
        group: usize,
        now: Nanos,
    ) {
        if let Some(rec) = &mut self.recorder {
            let servers = &self.servers;
            let selector = self.slots[slot].selector.as_ref();
            let issue_index = self.requests[req].issue_index;
            rec.record_decision(now, issue_index, chosen, &self.groups[group], |s| {
                (
                    selector.and_then(|sel| sel.replica_view(s)),
                    servers[s].pending(),
                )
            });
        }
    }

    /// Algorithm 1 for a fresh request: rank the group and send, or park
    /// the request behind the group's backlog when the limiter refuses.
    fn try_dispatch(&mut self, req: ReqId, now: Nanos, engine: &mut EventQueue<FleetEvent>) {
        let r = &self.requests[req];
        let (slot, group) = (self.slot_of(r.client), r.group as usize);
        let selection = match self.slots[slot].selector.as_mut() {
            Some(sel) => sel.select(&self.groups[group], now),
            // Oracle: perfect knowledge of instantaneous queue depths.
            None => Selection::Server(
                *self.groups[group]
                    .iter()
                    .min_by_key(|&&s| self.servers[s].pending())
                    .expect("non-empty group"),
            ),
        };
        match selection {
            Selection::Server(server) => {
                self.record_decision(req, slot, Some(server), group, now);
                self.send(req, slot, server, now, engine);
            }
            Selection::Backpressure { retry_at } => {
                self.record_decision(req, slot, None, group, now);
                self.slots[slot]
                    .front
                    .park(group, req, retry_at, now, engine);
            }
        }
    }

    /// Drain `group`'s backlog at `slot` until it empties or the limiter
    /// refuses again.
    fn drain(
        &mut self,
        slot: usize,
        group: usize,
        now: Nanos,
        engine: &mut EventQueue<FleetEvent>,
        from_timer: bool,
    ) {
        if !self.slots[slot]
            .front
            .begin_drain(group, from_timer, engine)
        {
            return;
        }
        while let Some(req) = self.slots[slot].front.peek(group) {
            let sel = self.slots[slot]
                .selector
                .as_mut()
                .expect("backpressure implies a selector");
            match sel.select(&self.groups[group], now) {
                Selection::Server(server) => {
                    self.record_decision(req, slot, Some(server), group, now);
                    self.slots[slot].front.pop(group);
                    self.send(req, slot, server, now, engine);
                }
                Selection::Backpressure { retry_at } => {
                    self.slots[slot].front.stall(group, retry_at, now, engine);
                    return;
                }
            }
        }
    }

    fn send(
        &mut self,
        req: ReqId,
        slot: usize,
        server: usize,
        now: Nanos,
        engine: &mut EventQueue<FleetEvent>,
    ) {
        let r = &mut self.requests[req];
        r.server = server as u16;
        r.sent_at = now;
        if let Some(sel) = self.slots[slot].selector.as_mut() {
            sel.on_send(server, now);
        }
        // No Send record: every send here is implied by the `Decision`
        // event recorded at the same timestamp (attribution folds them).
        engine.schedule_in(self.spec.one_way_latency, FleetEvent::ServerArrive { req });
    }

    /// Occupy an execution slot at `server` with `req`.
    fn start_service(&mut self, server: usize, req: ReqId, engine: &mut EventQueue<FleetEvent>) {
        self.servers[server].inflight += 1;
        let class = self.requests[req].class as usize;
        let service_time = Nanos::from_millis_f64(exp_sample(
            &mut self.srv_rng,
            self.spec.classes[class].mean_service_ms,
        ));
        engine.schedule_in(
            service_time,
            FleetEvent::ServiceDone {
                server: server as u32,
                req,
                service_time,
            },
        );
    }

    fn on_server_arrive(&mut self, req: ReqId, engine: &mut EventQueue<FleetEvent>) {
        let server = self.requests[req].server as usize;
        if self.servers[server].inflight < self.spec.server_concurrency {
            self.start_service(server, req, engine);
        } else {
            self.servers[server].queue.push_back(req);
        }
    }

    fn on_service_done(
        &mut self,
        server: usize,
        req: ReqId,
        service_time: Nanos,
        now: Nanos,
        engine: &mut EventQueue<FleetEvent>,
        metrics: &mut RunMetrics,
    ) {
        metrics.record_service(server, now);
        self.servers[server].inflight -= 1;
        if let Some(next) = self.servers[server].queue.pop_front() {
            self.start_service(server, next, engine);
        }
        self.requests[req].feedback = Feedback::new(self.servers[server].pending(), service_time);
        engine.schedule_in(self.spec.one_way_latency, FleetEvent::ClientReceive { req });
    }

    fn on_client_receive(
        &mut self,
        req: ReqId,
        now: Nanos,
        engine: &mut EventQueue<FleetEvent>,
        metrics: &mut RunMetrics,
    ) {
        let r = self.requests.remove(req);
        let slot = self.slot_of(r.client);
        let server = r.server as usize;
        let feedback = r.feedback;
        if let Some(sel) = self.slots[slot].selector.as_mut() {
            sel.on_response(
                server,
                &ResponseInfo {
                    response_time: now.saturating_sub(r.sent_at),
                    feedback: Some(feedback),
                },
                now,
            );
        }
        let latency = now.saturating_sub(r.created);
        metrics.record_completion(ChannelId::new(r.class as usize), now, latency, r.measured);
        if let Some(rec) = &mut self.recorder {
            rec.record(
                now,
                r.issue_index,
                TracePoint::Feedback {
                    server: server as u32,
                    queue: feedback.queue_size,
                    service_ns: feedback.service_time.as_nanos(),
                },
            );
            // Warm-up requests get no Complete event, so they never join
            // into attribution rows — matching the latency channels.
            if r.measured {
                rec.record(
                    now,
                    r.issue_index,
                    TracePoint::Complete {
                        latency_ns: latency.as_nanos(),
                    },
                );
            }
        }
        // A response may free rate for the groups containing this server.
        if self.slots[slot].front.any_backlogged() {
            let n = self.spec.servers;
            for k in 0..self.spec.replication_factor {
                let group = (server + n - k) % n;
                if self.slots[slot].front.is_backlogged(group) {
                    self.drain(slot, group, now, engine, false);
                }
            }
        }
        if let Arrivals::Closed { mean_think_ms, .. } = self.spec.arrivals {
            let gap = Self::think_gap(&mut self.wl_rng, mean_think_ms);
            engine.schedule_in(gap, FleetEvent::Arrive { source: r.client });
        }
    }

    /// Feed Dynamic Snitching selectors their periodic recompute (the
    /// cluster does this through gossip; here every node idles at baseline
    /// iowait, so only the latency reservoir matters).
    fn on_snitch_tick(&mut self, now: Nanos, engine: &mut EventQueue<FleetEvent>) {
        for slot in &mut self.slots {
            if let Some(snitch) = slot.selector.as_mut().and_then(Selector::as_snitch_mut) {
                snitch.recompute_idle(now);
            }
        }
        engine.schedule_in(
            SnitchConfig::default().update_interval,
            FleetEvent::SnitchTick,
        );
    }
}

impl Scenario for DirectFleet {
    type Event = FleetEvent;

    fn channels(&self) -> ChannelSet {
        ChannelSet::of(self.spec.classes.iter().map(|c| c.name.clone()))
    }

    fn start(&mut self, engine: &mut EventQueue<FleetEvent>) {
        match &mut self.spec.arrivals {
            Arrivals::Open { sources, .. } => {
                for (source, s) in sources.iter_mut().enumerate() {
                    let jitter = s.arrivals.next_gap(&mut s.rng);
                    let source = source as u32;
                    engine.schedule(jitter, FleetEvent::Arrive { source });
                }
            }
            Arrivals::Closed {
                clients,
                mean_think_ms,
                ..
            } => {
                for source in 0..*clients {
                    let jitter = Self::think_gap(&mut self.wl_rng, *mean_think_ms);
                    engine.schedule(jitter, FleetEvent::Arrive { source });
                }
            }
        }
        engine.schedule(
            SnitchConfig::default().update_interval,
            FleetEvent::SnitchTick,
        );
    }

    fn handle(
        &mut self,
        event: FleetEvent,
        now: Nanos,
        engine: &mut EventQueue<FleetEvent>,
        metrics: &mut RunMetrics,
    ) {
        match event {
            FleetEvent::Arrive { source } => self.on_arrive(source, now, engine, metrics),
            FleetEvent::ServerArrive { req } => self.on_server_arrive(req, engine),
            FleetEvent::ServiceDone {
                server,
                req,
                service_time,
            } => self.on_service_done(server as usize, req, service_time, now, engine, metrics),
            FleetEvent::ClientReceive { req } => self.on_client_receive(req, now, engine, metrics),
            FleetEvent::RetryBacklog { selector, group } => {
                self.drain(selector as usize, group as usize, now, engine, true)
            }
            FleetEvent::SnitchTick => self.on_snitch_tick(now, engine),
        }
    }

    fn is_done(&self, metrics: &RunMetrics) -> bool {
        metrics.total_completions() >= self.spec.total_requests
    }
}

/// Run a lowered direct-fleet spec to completion and report one channel
/// per traffic class. A recorder in `options` captures the request
/// lifecycle trace and decision snapshots; the report is bit-identical
/// either way.
pub(crate) fn run(spec: FleetSpec, options: RunOptions) -> RunOutput {
    let runner = ScenarioRunner::new(spec.seed)
        .with_warmup(spec.warmup_requests)
        .with_exact_latency_if(spec.exact_latency);
    let (servers, load_window) = (spec.servers, spec.load_window);
    let mut fleet = DirectFleet::new(spec);
    fleet.recorder = options.recorder;
    let (metrics, stats) = runner.run(&mut fleet, servers, load_window);
    let spec = &fleet.spec;
    let report =
        ScenarioReport::from_metrics(spec.scenario, &spec.strategy, spec.seed, &metrics, &stats)
            .with_dead_events(fleet.dead_events());
    RunOutput {
        report,
        recorder: fleet.recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MegaFleetConfig, MultiTenantConfig};

    /// Run `spec` on a bare runner so the request table can be inspected
    /// afterwards.
    fn run_keeping_table(spec: FleetSpec, recorder: Option<Recorder>) -> (DirectFleet, RunMetrics) {
        let runner = ScenarioRunner::new(spec.seed).with_warmup(spec.warmup_requests);
        let (servers, load_window) = (spec.servers, spec.load_window);
        let mut fleet = DirectFleet::new(spec);
        fleet.recorder = recorder;
        let (metrics, _) = runner.run(&mut fleet, servers, load_window);
        (fleet, metrics)
    }

    /// Open arrivals, with C3 starved of sending rate so requests wait in
    /// the backlogs (holding their records) until the rate recovers.
    fn open_backlogging(total_requests: u64) -> FleetSpec {
        let mut cfg = MultiTenantConfig {
            total_requests,
            warmup_requests: total_requests / 20,
            ..MultiTenantConfig::default()
        };
        cfg.c3.initial_rate = 1.0;
        cfg.lower()
    }

    /// Closed arrivals: 2000 think → request → response loops.
    fn closed(total_requests: u64) -> FleetSpec {
        MegaFleetConfig {
            servers: 32,
            clients: 2_000,
            selector_shards: 16,
            total_requests,
            warmup_requests: total_requests / 20,
            ..MegaFleetConfig::default()
        }
        .lower()
    }

    #[test]
    fn request_table_holds_what_is_in_flight_not_what_was_issued() {
        let (open, _) = run_keeping_table(open_backlogging(50_000), None);
        let parked: u64 = open.slots.iter().map(|s| s.front.activations()).sum();
        assert!(parked > 0, "the open run must exercise the backlog");
        let (closed, _) = run_keeping_table(closed(50_000), None);
        for fleet in [open, closed] {
            assert!(fleet.generated >= 50_000);
            let slots = fleet.requests.slot_count();
            assert!(slots <= 2_000, "{slots} slots for 50k requests");
        }
    }

    #[test]
    fn trace_ids_are_issue_indices_not_recycled_keys() {
        for spec in [open_backlogging(8_000), closed(8_000)] {
            let (fleet, metrics) = run_keeping_table(spec, Some(Recorder::new(8 * 8_000)));
            assert!(fleet.requests.slot_count() < 2_000, "keys were recycled");
            let rec = fleet.recorder.expect("recorder rides along");
            assert_eq!(rec.dropped(), 0);
            let issued = rec
                .events()
                .filter(|e| matches!(e.point, TracePoint::Issue))
                .map(|e| e.request);
            // A closed loop issues past the completion target.
            assert!(issued.eq(0..fleet.generated), "one Issue each, in order");
            assert!(rec.events().all(|e| e.request < fleet.generated));
            let measured: u64 = (0..fleet.spec.classes.len())
                .map(|c| metrics.measured(ChannelId::new(c)))
                .sum();
            let attr = c3_telemetry::attribute_tail(rec.events(), "fleet", "C3", 0.99);
            assert_eq!(attr.joined as u64, measured);
        }
    }

    #[test]
    fn event_and_request_records_stay_compact() {
        // The kernel moves events by value, and the response path copies
        // the request record (issue index and feedback inline) out of its
        // table: one cache line.
        assert!(std::mem::size_of::<FleetEvent>() <= 24);
        assert!(std::mem::size_of::<Request>() <= 64);
    }
}
