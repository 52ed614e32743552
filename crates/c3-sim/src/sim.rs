//! The §6 simulator: wiring, clients, and the Oracle baseline, on the
//! shared `c3-engine` scenario runner.
//!
//! Topology and flow follow the paper's description: Poisson workload
//! generators create requests at clients; each request targets a uniformly
//! chosen replica group (keys are not modelled); the client's strategy
//! picks one replica (C3 may backpressure); the request crosses a 250 µs
//! one-way network, queues at the server, and the response returns with
//! piggybacked feedback. With probability 10% a request is a read-repair
//! and is sent to *all* replicas of its group; latency is still measured
//! on the strategy-selected primary.
//!
//! A server is a [`ServiceStage`] (FIFO, 4-way concurrency) under the
//! bimodal time-varying rate: exponential service times whose mean flips
//! between `1/μ` and `1/(μ·D)` at every fluctuation interval. A client
//! that a rate-limited strategy backpressures parks the request in its
//! [`BackpressureFront`], Algorithm 1's backlog shared with the other
//! simulated loops.
//!
//! Request and send records live in recycling [`SlotTable`]s: a send's
//! record is released when its response is received, a request's when its
//! last open send is, so a run's memory follows what is in flight
//! (offered rate × latency — hundreds of records), not its length.
//!
//! Every client-local strategy is a [`Selector`] built from its
//! [`Strategy`](c3_engine::Strategy) name; the `ORA` baseline reads global
//! server state and is wired here (its name builds no selector). Dynamic
//! Snitching is refused: this loop delivers no recompute tick.

use c3_core::{
    Feedback, Nanos, RateStats, ResponseInfo, Selection, Selector, ServerId, ServiceStage,
};
use c3_engine::{
    BackpressureFront, ChannelId, ChannelSet, EngineStats, EventQueue, RunMetrics, Scenario,
    ScenarioRunner, SeedSeq, SlotKey, SlotTable,
};
use c3_telemetry::{Recorder, TracePoint};
use c3_workload::{exp_sample, PoissonArrivals};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::config::SimConfig;
use crate::result::RunResult;

/// Identifier of one request: the key of its [`RequestState`] while any
/// of its sends is open or it waits in a backlog.
type ReqId = SlotKey;

/// Identifier of one send (one request may fan out into several sends via
/// read repair): the key of its [`SendState`] while the send is in flight.
type SendId = SlotKey;

/// The simulator's single latency channel (named `latency`).
const LATENCY: ChannelId = ChannelId::new(0);

/// The simulator's event alphabet (public because it is the scenario's
/// `Scenario::Event` type; construction stays internal).
#[derive(Clone, Copy, Debug)]
#[allow(missing_docs)]
pub enum Event {
    /// A generator fires: create a request and reschedule.
    Generate { generator: usize },
    /// A send reaches its server.
    ServerArrive { server: usize, send: SendId },
    /// A send finishes executing at its server.
    ServiceDone {
        server: usize,
        send: SendId,
        service_time: Nanos,
    },
    /// A response reaches its client.
    ClientReceive { send: SendId },
    /// All servers re-sample their speed states.
    Fluctuate,
    /// A client retries the backlog of one replica group.
    RetryBacklog { client: usize, group: usize },
}

/// Lives from `Generate` until the last of its sends is received, so
/// read-repair stragglers still find it after the primary completed.
#[derive(Clone, Copy, Debug)]
struct RequestState {
    client: u32,
    group: u32,
    created: Nanos,
    /// Position in issue order, `0..total_requests`: the request's name in
    /// the flight recorder (its table key is recycled, this is not).
    issue_index: u64,
    /// Sends dispatched and not yet received.
    open_sends: u32,
    /// Whether this request fans out to all replicas (read repair).
    read_repair: bool,
    /// Whether this request falls in the measured (post-warm-up) window.
    measured: bool,
}

/// Lives from dispatch until its `ClientReceive`.
#[derive(Clone, Copy, Debug)]
struct SendState {
    req: ReqId,
    server: u32,
    /// Whether this is the strategy-selected send, whose response defines
    /// the request's latency.
    primary: bool,
    sent_at: Nanos,
    /// Feedback piggybacked on this send's response — stored inline so the
    /// per-response path touches one cache line, not two parallel arrays.
    feedback: Feedback,
}

/// One §6 server: a FIFO stage in front of `server_concurrency` slots,
/// under the current speed state of the bimodal rate.
struct Server {
    stage: ServiceStage<SendId>,
    /// Mean service time under the current speed state, in ms: every
    /// service-time sample reads it.
    mean_ms: f64,
    /// `1 / mean_ms`, cached at each speed change so the Oracle's
    /// per-candidate scoring pays no division.
    rate_per_ms: f64,
}

impl Server {
    /// An idle server whose initial speed state is drawn from `rng`.
    fn new(cfg: &SimConfig, rng: &mut SmallRng) -> Self {
        let mut server = Self {
            stage: ServiceStage::new(cfg.server_concurrency),
            mean_ms: 0.0,
            rate_per_ms: 0.0,
        };
        server.fluctuate(cfg, rng);
        server
    }

    /// Re-sample the speed state: the base rate μ or the boosted μ·D,
    /// with probability ½ each.
    fn fluctuate(&mut self, cfg: &SimConfig, rng: &mut SmallRng) {
        self.set_speed(rng.gen::<bool>(), cfg);
    }

    fn set_speed(&mut self, fast: bool, cfg: &SimConfig) {
        self.mean_ms = if fast {
            cfg.mean_service_ms / cfg.range_d
        } else {
            cfg.mean_service_ms
        };
        self.rate_per_ms = 1.0 / self.mean_ms;
    }

    /// An exponential service time under the current speed state.
    fn sample_service(&self, rng: &mut SmallRng) -> Nanos {
        let ms = exp_sample(rng, self.mean_ms);
        Nanos::from_millis_f64(ms.max(0.000_001))
    }
}

struct SimClient {
    /// `None` for the Oracle, which reads global server state instead.
    selector: Option<Selector>,
    /// Per-replica-group backlogs of requests awaiting rate tokens.
    front: BackpressureFront<ReqId, Event>,
}

/// The §6 scenario: state plus event handlers, driven by the engine's
/// [`ScenarioRunner`]. Build one with [`SimScenario::new`], or use the
/// [`Simulation`] wrapper which owns the runner plumbing.
pub struct SimScenario {
    cfg: SimConfig,
    servers: Vec<Server>,
    clients: Vec<SimClient>,
    groups: Vec<Vec<ServerId>>,
    requests: SlotTable<RequestState>,
    sends: SlotTable<SendState>,
    arrivals: PoissonArrivals,
    /// Workload randomness (client/group/read-repair choices, arrivals).
    wl_rng: SmallRng,
    /// Service-time randomness.
    srv_rng: SmallRng,
    generated: u64,
    /// The flight recorder (lifecycle + decision snapshots). Purely
    /// observational — a run is bit-identical with and without it.
    recorder: Option<Recorder>,
}

impl SimScenario {
    /// Build the scenario.
    ///
    /// # Panics
    ///
    /// Panics when the configured strategy is unknown, or is Dynamic
    /// Snitching: its scores only move on a recompute tick, which this
    /// loop does not deliver, so it would rank on scores frozen at zero.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let seeds = SeedSeq::new(cfg.seed);
        let mut wl_rng = seeds.workload_rng();
        let srv_rng = seeds.service_rng(1);

        let mut c3 = cfg.c3;
        if !cfg.keep_c3_weight {
            c3.concurrency_weight = cfg.clients as f64;
        }

        // Replica groups: group g covers servers {g, g+1, ..., g+RF-1}.
        let groups: Vec<Vec<ServerId>> = (0..cfg.servers)
            .map(|g| {
                (0..cfg.replication_factor)
                    .map(|k| (g + k) % cfg.servers)
                    .collect()
            })
            .collect();

        let servers: Vec<Server> = (0..cfg.servers)
            .map(|_| Server::new(&cfg, &mut wl_rng))
            .collect();

        let clients: Vec<SimClient> = (0..cfg.clients)
            .map(|i| SimClient {
                selector: match cfg.strategy.build_client(cfg.servers, c3, &seeds, i) {
                    Some(Selector::Ds(_)) => panic!(
                        "strategy DS needs a recompute tick the §6 simulator does not deliver"
                    ),
                    selector => selector,
                },
                front: BackpressureFront::new(i, cfg.servers, |client, group| {
                    Event::RetryBacklog { client, group }
                }),
            })
            .collect();

        let arrivals = PoissonArrivals::new(cfg.total_arrival_rate() / cfg.generators as f64);

        Self {
            servers,
            clients,
            groups,
            requests: SlotTable::new(),
            sends: SlotTable::new(),
            arrivals,
            wl_rng,
            srv_rng,
            generated: 0,
            recorder: None,
            cfg,
        }
    }

    /// The config in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Attach a flight recorder: request lifecycles (issue → select →
    /// send → feedback → complete) and per-decision replica snapshots go
    /// into its ring buffer. Recording is purely observational; results
    /// are bit-identical with and without it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Assemble the public result from this scenario plus the runner's
    /// metrics and engine statistics.
    pub fn into_result(self, metrics: RunMetrics, stats: EngineStats) -> RunResult {
        let mut backpressure = 0;
        let mut rate_stats = RateStats::default();
        for c in &self.clients {
            backpressure += c.front.activations();
            if let Some(c3) = c.selector.as_ref().and_then(Selector::as_c3) {
                let s = c3.state().rate_stats();
                rate_stats.decreases += s.decreases;
                rate_stats.increases += s.increases;
                rate_stats.throttled += s.throttled;
            }
        }
        let (_channels, mut latency, server_load, completions, duration) = metrics.into_parts();
        RunResult {
            strategy: self.cfg.strategy.label().to_string(),
            seed: self.cfg.seed,
            latency: latency.remove(LATENCY.index()),
            server_load,
            completed: completions[LATENCY.index()],
            duration,
            backpressure_activations: backpressure,
            rate_stats,
            recorder: self.recorder,
            events_processed: stats.events_processed,
        }
    }

    fn on_generate(
        &mut self,
        generator: usize,
        now: Nanos,
        engine: &mut EventQueue<Event>,
        metrics: &RunMetrics,
    ) {
        if self.generated >= self.cfg.total_requests {
            return;
        }
        let issue_index = self.generated;
        self.generated += 1;
        let client = self.pick_client();
        let group = self.wl_rng.gen_range(0..self.groups.len());
        let read_repair = self.wl_rng.gen::<f64>() < self.cfg.read_repair_prob;
        let req_id = self.requests.insert(RequestState {
            client: client as u32,
            group: group as u32,
            created: now,
            issue_index,
            open_sends: 0,
            read_repair,
            measured: metrics.past_warmup(issue_index),
        });
        if let Some(rec) = &mut self.recorder {
            rec.record(now, issue_index, TracePoint::Issue);
        }
        self.try_dispatch(req_id, now, engine);
        if self.generated < self.cfg.total_requests {
            let gap = self.arrivals.next_gap(&mut self.wl_rng);
            engine.schedule_in(gap, Event::Generate { generator });
        }
    }

    fn pick_client(&mut self) -> usize {
        match self.cfg.demand_skew {
            None => self.wl_rng.gen_range(0..self.cfg.clients),
            Some(skew) => {
                let heavy = ((self.cfg.clients as f64 * skew.fraction_of_clients).ceil() as usize)
                    .clamp(1, self.cfg.clients - 1);
                if self.wl_rng.gen::<f64>() < skew.fraction_of_demand {
                    self.wl_rng.gen_range(0..heavy)
                } else {
                    self.wl_rng.gen_range(heavy..self.cfg.clients)
                }
            }
        }
    }

    /// Attempt to dispatch a request (first attempt). On backpressure the
    /// request is backlogged and retried later.
    fn try_dispatch(&mut self, req: ReqId, now: Nanos, engine: &mut EventQueue<Event>) {
        let (client_id, group_id) = {
            let r = &self.requests[req];
            (r.client as usize, r.group as usize)
        };

        // Oracle path: no selector object, reads server state directly.
        if self.clients[client_id].selector.is_none() {
            let group = &self.groups[group_id];
            let primary = oracle_pick(&self.servers, group);
            self.record_decision(req, client_id, Some(primary), group_id, now);
            self.fan_out(req, primary, now, engine);
            return;
        }

        let selection = {
            let group = &self.groups[group_id];
            let sel = self.clients[client_id].selector.as_mut().expect("selector");
            sel.select(group, now)
        };
        match selection {
            Selection::Server(primary) => {
                self.record_decision(req, client_id, Some(primary), group_id, now);
                self.fan_out(req, primary, now, engine)
            }
            Selection::Backpressure { retry_at } => {
                self.record_decision(req, client_id, None, group_id, now);
                self.clients[client_id]
                    .front
                    .park(group_id, req, retry_at, now, engine);
            }
        }
    }

    /// Snapshot a selection decision into the flight recorder (see
    /// [`Recorder::record_decision`]); `chosen == None` is backpressure.
    #[inline]
    fn record_decision(
        &mut self,
        req: ReqId,
        client_id: usize,
        chosen: Option<ServerId>,
        group_id: usize,
        now: Nanos,
    ) {
        if let Some(rec) = &mut self.recorder {
            let servers = &self.servers;
            let selector = self.clients[client_id].selector.as_ref();
            let issue_index = self.requests[req].issue_index;
            rec.record_decision(now, issue_index, chosen, &self.groups[group_id], |s| {
                (
                    selector.and_then(|sel| sel.replica_view(s)),
                    servers[s].stage.pending() as u32,
                )
            });
        }
    }

    /// Send the primary, plus read-repair duplicates to the rest of the
    /// group when the request carries the flag.
    fn fan_out(
        &mut self,
        req: ReqId,
        primary: ServerId,
        now: Nanos,
        engine: &mut EventQueue<Event>,
    ) {
        self.send_one(req, primary, now, true, engine);
        if self.requests[req].read_repair {
            // Walk the group table by index: re-borrowing per element
            // keeps the fan-out allocation-free (this used to clone the
            // group Vec per read-repair) without re-deriving the layout.
            let group_id = self.requests[req].group as usize;
            for k in 0..self.groups[group_id].len() {
                let s = self.groups[group_id][k];
                if s != primary {
                    self.send_one(req, s, now, false, engine);
                }
            }
        }
    }

    fn send_one(
        &mut self,
        req: ReqId,
        server: ServerId,
        now: Nanos,
        primary: bool,
        engine: &mut EventQueue<Event>,
    ) {
        let send_id = self.sends.insert(SendState {
            req,
            server: server as u32,
            primary,
            sent_at: now,
            feedback: Feedback::new(0, Nanos::ZERO),
        });
        let r = &mut self.requests[req];
        r.open_sends += 1;
        let client_id = r.client as usize;
        if let Some(sel) = self.clients[client_id].selector.as_mut() {
            sel.on_send(server, now);
        }
        // No Send record: every send here is implied by the `Decision`
        // event recorded at the same timestamp (attribution folds them).
        engine.schedule_in(
            self.cfg.one_way_latency,
            Event::ServerArrive {
                server,
                send: send_id,
            },
        );
    }

    fn on_server_arrive(&mut self, server: usize, send: SendId, engine: &mut EventQueue<Event>) {
        let s = &mut self.servers[server];
        if s.stage.arrive(send) {
            let service_time = s.sample_service(&mut self.srv_rng);
            engine.schedule_in(
                service_time,
                Event::ServiceDone {
                    server,
                    send,
                    service_time,
                },
            );
        }
    }

    fn on_service_done(
        &mut self,
        server: usize,
        send: SendId,
        service_time: Nanos,
        now: Nanos,
        engine: &mut EventQueue<Event>,
        metrics: &mut RunMetrics,
    ) {
        let s = &mut self.servers[server];
        let next = s
            .stage
            .finish()
            .map(|next| (next, s.sample_service(&mut self.srv_rng)));
        // Feedback follows the paper: what is still pending when the
        // response leaves, the request just promoted included.
        self.sends[send].feedback = Feedback::new(s.stage.pending() as u32, service_time);
        metrics.record_service(server, now);
        engine.schedule_in(self.cfg.one_way_latency, Event::ClientReceive { send });
        if let Some((next, st)) = next {
            engine.schedule_in(
                st,
                Event::ServiceDone {
                    server,
                    send: next,
                    service_time: st,
                },
            );
        }
    }

    fn on_client_receive(
        &mut self,
        send: SendId,
        now: Nanos,
        engine: &mut EventQueue<Event>,
        metrics: &mut RunMetrics,
    ) {
        let s = self.sends.remove(send);
        let client_id = self.requests[s.req].client as usize;
        let feedback = s.feedback;
        let response_time = now.saturating_sub(s.sent_at);

        if let Some(sel) = self.clients[client_id].selector.as_mut() {
            sel.on_response(
                s.server as usize,
                &ResponseInfo {
                    response_time,
                    feedback: Some(feedback),
                },
                now,
            );
        }
        if let Some(rec) = &mut self.recorder {
            rec.record(
                now,
                self.requests[s.req].issue_index,
                TracePoint::Feedback {
                    server: s.server,
                    queue: feedback.queue_size,
                    service_ns: feedback.service_time.as_nanos(),
                },
            );
        }

        let req = &mut self.requests[s.req];
        // Each send is received once (its record was just released), so
        // the primary's response completes the request exactly once.
        if s.primary {
            let latency = now.saturating_sub(req.created);
            metrics.record_completion(LATENCY, now, latency, req.measured);
            // Warm-up requests get no Complete event, so they never
            // join into attribution rows — matching the channel.
            if req.measured {
                if let Some(rec) = &mut self.recorder {
                    rec.record(
                        now,
                        req.issue_index,
                        TracePoint::Complete {
                            latency_ns: latency.as_nanos(),
                        },
                    );
                }
            }
        }
        req.open_sends -= 1;
        if req.open_sends == 0 {
            self.requests.remove(s.req);
        }

        // A response may free rate for the groups containing this server.
        self.drain_groups_of_server(client_id, s.server as usize, now, engine);
    }

    fn drain_groups_of_server(
        &mut self,
        client_id: usize,
        server: usize,
        now: Nanos,
        engine: &mut EventQueue<Event>,
    ) {
        if !self.clients[client_id].front.any_backlogged() {
            // Common case: nothing backlogged anywhere, skip the group walk.
            return;
        }
        let rf = self.cfg.replication_factor;
        let n = self.cfg.servers;
        for k in 0..rf {
            let group_id = (server + n - k) % n;
            if self.clients[client_id].front.is_backlogged(group_id) {
                self.on_retry(client_id, group_id, now, engine, false);
            }
        }
    }

    /// Drain `group_id`'s backlog at `client_id` until it empties or the
    /// limiter refuses again, either because its retry timer fired
    /// (`from_timer`) or because a response may have freed rate.
    fn on_retry(
        &mut self,
        client_id: usize,
        group_id: usize,
        now: Nanos,
        engine: &mut EventQueue<Event>,
        from_timer: bool,
    ) {
        if !self.clients[client_id]
            .front
            .begin_drain(group_id, from_timer, engine)
        {
            return;
        }
        while let Some(req) = self.clients[client_id].front.peek(group_id) {
            let selection = {
                let group = &self.groups[group_id];
                let sel = self.clients[client_id]
                    .selector
                    .as_mut()
                    .expect("backpressure implies a selector");
                sel.select(group, now)
            };
            match selection {
                Selection::Server(server) => {
                    self.record_decision(req, client_id, Some(server), group_id, now);
                    self.clients[client_id].front.pop(group_id);
                    self.fan_out(req, server, now, engine);
                }
                Selection::Backpressure { retry_at } => {
                    self.clients[client_id]
                        .front
                        .stall(group_id, retry_at, now, engine);
                    return;
                }
            }
        }
    }

    fn on_fluctuate(&mut self, engine: &mut EventQueue<Event>) {
        for s in &mut self.servers {
            s.fluctuate(&self.cfg, &mut self.srv_rng);
        }
        engine.schedule_in(self.cfg.fluctuation_interval, Event::Fluctuate);
    }
}

impl Scenario for SimScenario {
    type Event = Event;

    fn channels(&self) -> ChannelSet {
        ChannelSet::single("latency")
    }

    fn start(&mut self, engine: &mut EventQueue<Event>) {
        // Stagger generator start times over their first inter-arrival gap.
        for g in 0..self.cfg.generators {
            let jitter = self.arrivals.next_gap(&mut self.wl_rng);
            engine.schedule(jitter, Event::Generate { generator: g });
        }
        engine.schedule(self.cfg.fluctuation_interval, Event::Fluctuate);
    }

    fn handle(
        &mut self,
        event: Event,
        now: Nanos,
        engine: &mut EventQueue<Event>,
        metrics: &mut RunMetrics,
    ) {
        match event {
            Event::Generate { generator } => self.on_generate(generator, now, engine, metrics),
            Event::ServerArrive { server, send } => self.on_server_arrive(server, send, engine),
            Event::ServiceDone {
                server,
                send,
                service_time,
            } => self.on_service_done(server, send, service_time, now, engine, metrics),
            Event::ClientReceive { send } => self.on_client_receive(send, now, engine, metrics),
            Event::Fluctuate => self.on_fluctuate(engine),
            Event::RetryBacklog { client, group } => {
                self.on_retry(client, group, now, engine, true)
            }
        }
    }

    fn is_done(&self, metrics: &RunMetrics) -> bool {
        metrics.completions(LATENCY) == self.cfg.total_requests
    }
}

/// The assembled simulation: a [`SimScenario`] plus its runner plumbing.
/// Build with [`Simulation::new`], run with [`Simulation::run`].
pub struct Simulation {
    scenario: SimScenario,
}

impl Simulation {
    /// Build a simulation from a validated config.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            scenario: SimScenario::new(cfg),
        }
    }

    /// Attach a flight recorder (see [`SimScenario::set_recorder`]); it
    /// comes back in `RunResult::recorder`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.scenario.set_recorder(recorder);
        self
    }

    /// The config in force.
    pub fn config(&self) -> &SimConfig {
        self.scenario.config()
    }

    /// Run to completion and produce the result.
    pub fn run(self) -> RunResult {
        let cfg = self.scenario.config().clone();
        let runner = ScenarioRunner::new(cfg.seed).with_warmup(cfg.warmup_requests);
        let mut scenario = self.scenario;
        let (metrics, stats) = runner.run(&mut scenario, cfg.servers, cfg.load_window);
        scenario.into_result(metrics, stats)
    }
}

/// The ORA baseline: perfect knowledge of the instantaneous `q/μ` ratio of
/// every replica (§6), no feedback, no rate control.
fn oracle_pick(servers: &[Server], group: &[ServerId]) -> ServerId {
    *group
        .iter()
        .min_by(|&&a, &&b| {
            let qa = servers[a].stage.pending() as f64 / servers[a].rate_per_ms;
            let qb = servers[b].stage.pending() as f64 / servers[b].rate_per_ms;
            qa.partial_cmp(&qb).expect("no NaN")
        })
        .expect("non-empty group")
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_engine::Strategy;

    fn small_cfg(strategy: Strategy) -> SimConfig {
        SimConfig {
            servers: 10,
            clients: 20,
            generators: 20,
            total_requests: 5_000,
            strategy,
            seed: 7,
            ..SimConfig::default()
        }
    }

    #[test]
    fn c3_run_completes_all_requests() {
        let res = Simulation::new(small_cfg(Strategy::c3())).run();
        assert_eq!(res.completed, 5_000);
        assert_eq!(res.latency.count(), 5_000);
        assert!(res.throughput() > 0.0);
        assert!(res.events_processed > 5_000);
    }

    #[test]
    fn every_strategy_completes() {
        for strategy in [
            Strategy::c3(),
            Strategy::oracle(),
            Strategy::lor(),
            Strategy::round_robin(),
            Strategy::random(),
            Strategy::least_response_time(),
            Strategy::weighted_random(),
            Strategy::power_of_two(),
            Strategy::primary_only(),
            Strategy::nearest_node(),
            Strategy::c3_no_rate_control(),
            Strategy::c3_no_concurrency_comp(),
            Strategy::c3_exponent(2),
        ] {
            let mut cfg = small_cfg(strategy.clone());
            cfg.total_requests = 2_000;
            let res = Simulation::new(cfg).run();
            assert_eq!(res.completed, 2_000, "strategy {strategy}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Simulation::new(small_cfg(Strategy::c3())).run();
        let b = Simulation::new(small_cfg(Strategy::c3())).run();
        assert_eq!(a.latency.count(), b.latency.count());
        assert_eq!(
            a.latency.value_at_quantile(0.99),
            b.latency.value_at_quantile(0.99)
        );
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.backpressure_activations, b.backpressure_activations);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(small_cfg(Strategy::c3())).run();
        let mut cfg = small_cfg(Strategy::c3());
        cfg.seed = 8;
        let b = Simulation::new(cfg).run();
        assert_ne!(a.events_processed, b.events_processed);
    }

    #[test]
    fn warmup_requests_are_excluded_from_latency() {
        let mut cfg = small_cfg(Strategy::lor());
        cfg.warmup_requests = 1_000;
        let res = Simulation::new(cfg).run();
        assert_eq!(res.completed, 5_000);
        assert_eq!(res.latency.count(), 4_000);
    }

    #[test]
    fn read_repair_fans_out_extra_load() {
        let mut with_rr = small_cfg(Strategy::lor());
        with_rr.read_repair_prob = 0.5;
        let mut without_rr = small_cfg(Strategy::lor());
        without_rr.read_repair_prob = 0.0;
        let a = Simulation::new(with_rr).run();
        let b = Simulation::new(without_rr).run();
        let served_a: u64 = a.server_load.iter().map(|w| w.total()).sum();
        let served_b: u64 = b.server_load.iter().map(|w| w.total()).sum();
        assert!(
            served_a > served_b + 2_000,
            "fan-out should add server load: {served_a} vs {served_b}"
        );
    }

    #[test]
    fn demand_skew_loads_heavy_clients() {
        use crate::config::DemandSkew;
        let mut cfg = small_cfg(Strategy::c3());
        cfg.demand_skew = Some(DemandSkew {
            fraction_of_clients: 0.2,
            fraction_of_demand: 0.8,
        });
        // The run completing is the invariant here; per-client counters are
        // not exposed, but skew is covered by pick_client's distribution.
        let res = Simulation::new(cfg).run();
        assert_eq!(res.completed, 5_000);
    }

    #[test]
    fn oracle_beats_random_under_fluctuations() {
        let mut ora_cfg = small_cfg(Strategy::oracle());
        ora_cfg.total_requests = 20_000;
        let mut rnd_cfg = small_cfg(Strategy::random());
        rnd_cfg.total_requests = 20_000;
        let ora = Simulation::new(ora_cfg).run();
        let rnd = Simulation::new(rnd_cfg).run();
        assert!(
            ora.summary().p99_ns < rnd.summary().p99_ns,
            "oracle p99 {} should beat random p99 {}",
            ora.summary().p99_ns,
            rnd.summary().p99_ns
        );
    }

    #[test]
    fn recorder_captures_lifecycles_without_perturbing_the_run() {
        let plain = Simulation::new(small_cfg(Strategy::c3())).run();
        let recorded = Simulation::new(small_cfg(Strategy::c3()))
            .with_recorder(Recorder::with_default_capacity())
            .run();
        assert_eq!(plain.events_processed, recorded.events_processed);
        assert_eq!(
            plain.latency.value_at_quantile(0.99),
            recorded.latency.value_at_quantile(0.99)
        );
        let rec = recorded.recorder.expect("recorder rides along");
        let attr = c3_telemetry::attribute_tail(rec.events(), "sim", "C3", 0.99);
        assert!(attr.joined > 0);
        assert!(!attr.tail.is_empty());
        for row in &attr.tail {
            assert_eq!(
                row.wait_for_permit_ns + row.queueing_ns + row.service_ns,
                row.latency_ns
            );
            assert!(
                row.queue_regret.is_finite(),
                "sim drivers expose ground-truth pending"
            );
        }
    }

    #[test]
    fn oracle_decisions_carry_ground_truth_only() {
        let recorded = Simulation::new(small_cfg(Strategy::oracle()))
            .with_recorder(Recorder::with_default_capacity())
            .run();
        let rec = recorded.recorder.expect("recorder rides along");
        let attr = c3_telemetry::attribute_tail(rec.events(), "sim", "ORA", 0.99);
        assert!(attr.joined > 0);
        assert!(attr.mean_regret.is_nan(), "oracle exposes no score view");
        assert!(attr.mean_queue_regret.is_finite(), "but pending is known");
    }

    /// Run `cfg` on a bare runner so the record tables can be inspected
    /// afterwards: `(request slots, send slots, result)`.
    fn run_keeping_tables(cfg: SimConfig, recorder: Option<Recorder>) -> (usize, usize, RunResult) {
        let runner = ScenarioRunner::new(cfg.seed).with_warmup(cfg.warmup_requests);
        let mut scenario = SimScenario::new(cfg.clone());
        scenario.recorder = recorder;
        let (metrics, stats) = runner.run(&mut scenario, cfg.servers, cfg.load_window);
        let (requests, sends) = (scenario.requests.slot_count(), scenario.sends.slot_count());
        (requests, sends, scenario.into_result(metrics, stats))
    }

    /// C3 starved of sending rate: requests queue in the clients' backlogs
    /// (holding their records, with no send open) until the rate recovers.
    fn backlogging_cfg() -> SimConfig {
        let mut cfg = small_cfg(Strategy::c3());
        cfg.c3.initial_rate = 1.0;
        cfg
    }

    #[test]
    fn record_tables_hold_what_is_in_flight_not_what_was_issued() {
        // Read repair is on in both (10% of requests keep their record
        // alive past completion, until the straggler responses arrive).
        for (cfg, backlogs) in [
            (small_cfg(Strategy::lor()), false),
            (backlogging_cfg(), true),
        ] {
            let cfg = SimConfig {
                total_requests: 50_000,
                ..cfg
            };
            let (request_slots, send_slots, res) = run_keeping_tables(cfg, None);
            assert_eq!(res.completed, 50_000);
            assert_eq!(res.backpressure_activations > 0, backlogs);
            assert!(
                request_slots <= 2_000 && send_slots <= 2_000,
                "{request_slots} request / {send_slots} send slots for 50k requests"
            );
        }
    }

    #[test]
    fn trace_ids_are_issue_indices_not_recycled_keys() {
        let cfg = SimConfig {
            total_requests: 8_000,
            warmup_requests: 400,
            ..backlogging_cfg()
        };
        let (request_slots, _, res) = run_keeping_tables(cfg, Some(Recorder::new(8 * 8_000)));
        assert!(request_slots < 2_000, "keys must have been recycled");
        let rec = res.recorder.expect("recorder rides along");
        assert_eq!(rec.dropped(), 0);
        let issued = rec
            .events()
            .filter(|e| matches!(e.point, TracePoint::Issue))
            .map(|e| e.request);
        assert!(issued.eq(0..8_000), "one Issue per request, in issue order");
        assert!(rec.events().all(|e| e.request < 8_000));
        let attr = c3_telemetry::attribute_tail(rec.events(), "sim", "C3", 0.99);
        assert_eq!(attr.joined as u64, res.latency.count());
    }

    #[test]
    fn request_send_and_event_records_stay_compact() {
        // The response path copies the send record out of its table and
        // updates the request record in place: one cache line each.
        assert!(std::mem::size_of::<RequestState>() <= 64);
        assert!(std::mem::size_of::<SendState>() <= 64);
        // The kernel moves events by value. Pinned, not bounded: packing
        // the ids into 32 bits (and `service_time` into the send record)
        // measured slower, not faster (ROADMAP item 2a).
        assert_eq!(std::mem::size_of::<Event>(), 32);
    }

    /// A server of the default config (4 ms base mean), pinned to
    /// `fast` or not; `D` as given.
    fn server(range_d: f64, fast: bool) -> (Server, SimConfig) {
        let cfg = SimConfig {
            range_d,
            ..SimConfig::default()
        };
        let mut s = Server::new(&cfg, &mut SeedSeq::new(1).workload_rng());
        s.set_speed(fast, &cfg);
        (s, cfg)
    }

    #[test]
    fn speed_state_scales_mean_service_time() {
        let (slow, _) = server(3.0, false);
        assert_eq!(slow.mean_ms, 4.0);
        assert_eq!(slow.rate_per_ms, 0.25);
        let (fast, _) = server(3.0, true);
        assert!((fast.mean_ms - 4.0 / 3.0).abs() < 1e-12);
        assert!((fast.rate_per_ms - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fluctuation_hits_both_states() {
        let (mut s, cfg) = server(3.0, false);
        let mut rng = SeedSeq::new(42).service_rng(1);
        let (mut seen_fast, mut seen_slow) = (false, false);
        for _ in 0..100 {
            s.fluctuate(&cfg, &mut rng);
            if s.mean_ms == cfg.mean_service_ms {
                seen_slow = true;
            } else {
                assert_eq!(s.mean_ms, cfg.mean_service_ms / cfg.range_d);
                seen_fast = true;
            }
        }
        assert!(seen_fast && seen_slow);
    }

    #[test]
    fn service_times_follow_current_mean() {
        let mut rng = SeedSeq::new(42).service_rng(1);
        let n = 20_000;
        let mut avg = |s: &Server| -> f64 {
            (0..n)
                .map(|_| s.sample_service(&mut rng).as_millis_f64())
                .sum::<f64>()
                / n as f64
        };
        let slow_avg = avg(&server(4.0, false).0);
        let fast_avg = avg(&server(4.0, true).0);
        assert!((slow_avg - 4.0).abs() < 0.15, "slow {slow_avg}");
        assert!((fast_avg - 1.0).abs() < 0.05, "fast {fast_avg}");
    }

    #[test]
    fn retry_timers_never_fire_dead() {
        // Figure 15's backpressure-heavy cell: RR under 20%/80% demand
        // skew, 150 clients, 10 ms fluctuations. Responses drain backlogs
        // ahead of their retry timers all the time; each such drain must
        // cancel the timer it supersedes.
        let cfg = SimConfig {
            servers: 50,
            clients: 150,
            generators: 200,
            total_requests: 60_000,
            fluctuation_interval: Nanos::from_millis(10),
            demand_skew: Some(crate::config::DemandSkew {
                fraction_of_clients: 0.2,
                fraction_of_demand: 0.8,
            }),
            strategy: Strategy::round_robin(),
            seed: 51,
            ..SimConfig::default()
        };
        let runner = ScenarioRunner::new(cfg.seed);
        let mut scenario = SimScenario::new(cfg.clone());
        let (metrics, stats) = runner.run(&mut scenario, cfg.servers, cfg.load_window);
        let dead: u64 = scenario
            .clients
            .iter()
            .map(|c| c.front.dead_retries())
            .sum();
        let res = scenario.into_result(metrics, stats);
        assert_eq!(res.completed, 60_000);
        assert!(res.backpressure_activations > 0, "the cell must backlog");
        assert_eq!(dead, 0, "a retry timer fired on a drained backlog");
    }

    #[test]
    fn busiest_server_is_computed() {
        let res = Simulation::new(small_cfg(Strategy::c3())).run();
        let busiest = res.busiest_server();
        assert!(busiest < 10);
        let ecdf = res.busiest_server_load_ecdf();
        assert!(!ecdf.is_empty());
    }

    #[test]
    fn unknown_strategy_panics_with_name() {
        let cfg = small_cfg(Strategy::named("NoSuchStrategy"));
        let err = std::panic::catch_unwind(|| {
            let _ = Simulation::new(cfg);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("NoSuchStrategy"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "needs a recompute tick the §6 simulator does not deliver")]
    fn dynamic_snitching_is_refused() {
        let _ = Simulation::new(small_cfg(Strategy::dynamic_snitching()));
    }
}
