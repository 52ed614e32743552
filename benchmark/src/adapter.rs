//! The benchmark's only seam to the product: every call into a product
//! crate is made from this file, and nothing outside it names a product
//! type. Later simplicity PRs can read the `use` block below to see
//! exactly which public items the benchmark compiles against (all
//! non-deprecated).
//!
//! Two kinds of entry live here:
//!
//! * **runs** — one simulated cell or one live window through a backend's
//!   own public entry (`Simulation::run`, `ScenarioRegistry::run`,
//!   `run_live`, `run_node`), flattened into plain numbers;
//! * **probes** — a layer's public functions called in isolation in a
//!   timed loop, returning a unit cost. Spans inside the program are a
//!   later issue; until then this is how a layer is seen from outside.

use std::hint::black_box;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes, BytesMut};
use c3_cluster::{DiskKind, FaultPlan};
use c3_core::{
    C3Config, Feedback, Nanos, ResponseInfo, Selection, SendDecision, SharedC3State, WallClock,
};
use c3_engine::{BuiltSelector, EventQueue, SelectorCtx, Strategy, StrategyRegistry};
use c3_live::{
    encode_key, read_frame, run_live, CorrelationTable, InFlightBudget, LiveCluster, LiveConfig,
    LiveReport, NoSlowdown, ReplicaServer, ReplicaSpec,
};
use c3_live_node::{node_bin, run_node, FleetConfig, NodeFleet};
use c3_metrics::{LatencySummary, LogHistogram};
use c3_net::proto::{self, Frame, Request, Response, Status};
use c3_scenarios::{RunTuning, ScenarioParams, ScenarioRegistry, ScenarioReport};
use c3_sim::{SimConfig, Simulation};
use c3_telemetry::{attribute_tail, Recorder, TracePoint};
use c3_workload::{GeneratorSpec, WorkloadMix, Zipfian};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats;

// ---------------------------------------------------------------- sim runs

/// One simulated cell, flattened. Latencies are **simulated** time.
#[derive(Clone, Debug, Default)]
pub struct SimCell {
    /// Operations issued past warm-up — what the cell must account for.
    pub attempted: u64,
    /// Measured (post-warm-up) completions.
    pub completed: u64,
    /// Operations the simulated client abandoned (deadline + retries
    /// exhausted). A simulated outcome, exact for a seed.
    pub parked: u64,
    /// Simulated deadline expiries.
    pub timeouts: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Headline-channel median, ms of simulated time.
    pub p50_ms: f64,
    /// Headline-channel p99, ms of simulated time.
    pub p99_ms: f64,
    /// Samples behind the headline percentiles.
    pub samples: u64,
    /// Bit-exact digest of the run's report (0 where the backend has none).
    pub fingerprint: u64,
}

/// Width of the `LogHistogram` bucket whose midpoint is `mid`: unit
/// buckets below 2^7, then 2^6 sub-buckets per power of two — the layout
/// the histogram's documentation fixes (≈ 0.78% relative error).
fn log_bucket_width(mid: u64) -> u64 {
    if mid < 128 {
        1
    } else {
        1 << (63 - mid.leading_zeros() - 6)
    }
}

fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The §6 simulator at the `sim-steady` shape, built but not yet run, so
/// construction and the run can be timed apart.
pub struct SteadySim {
    sim: Simulation,
    requests: u64,
    warmup: u64,
}

impl SteadySim {
    /// 20 servers / 40 clients / 40 generators, 100 ms fluctuation, C3,
    /// no recorder.
    pub fn build(seed: u64, requests: u64) -> Self {
        let warmup = requests / 20;
        let cfg = SimConfig {
            servers: 20,
            clients: 40,
            generators: 40,
            total_requests: requests,
            warmup_requests: warmup,
            fluctuation_interval: Nanos::from_millis(100),
            strategy: Strategy::c3(),
            seed,
            ..SimConfig::default()
        };
        Self {
            sim: Simulation::new(cfg),
            requests,
            warmup,
        }
    }

    /// Run to completion.
    pub fn run(self) -> SimCell {
        let res = self.sim.run();
        let buckets: Vec<(u64, u64)> = res.latency.iter_buckets().collect();
        let q = |q| ns_to_ms(stats::bucketed_quantile(&buckets, q, log_bucket_width));
        SimCell {
            // The §6 simulator never abandons a request: everything past
            // warm-up must come back as a measured completion.
            attempted: self.requests - self.warmup,
            completed: res.latency.count(),
            parked: 0,
            timeouts: 0,
            events: res.events_processed,
            p50_ms: q(0.5),
            p99_ms: q(0.99),
            samples: res.latency.count(),
            fingerprint: 0,
        }
    }
}

/// The flight recorder a recorded cell hands back.
pub struct Flight(Recorder);

impl Flight {
    /// Events still held in the ring.
    pub fn held(&self) -> u64 {
        self.0.len() as u64
    }

    /// Events evicted (drop-oldest) — held + dropped = recorded.
    pub fn dropped(&self) -> u64 {
        self.0.dropped()
    }

    /// Build the p99 tail-attribution table; returns the rows joined.
    pub fn attribute_tail(&self, scenario: &str) -> usize {
        attribute_tail(self.0.events(), scenario, "C3", 0.99).joined
    }
}

/// The scenario library, by name.
pub struct Scenarios(ScenarioRegistry);

impl Scenarios {
    /// The stock registry.
    pub fn new() -> Self {
        Self(ScenarioRegistry::with_defaults())
    }

    /// One C3 cell of `scenario` with exact (every-sample) percentiles,
    /// optionally with a default-capacity flight recorder riding along.
    pub fn cell(
        &self,
        scenario: &str,
        seed: u64,
        ops: u64,
        recorded: bool,
    ) -> (SimCell, Option<Flight>) {
        let tuning = RunTuning {
            exact_latency: true,
            ..RunTuning::default()
        };
        let params = ScenarioParams::tuned(Strategy::c3(), seed, ops, tuning);
        let (report, flight) = if recorded {
            let (report, rec) = self
                .0
                .run_recorded(scenario, &params, Recorder::with_default_capacity())
                .expect("stock scenario supports C3");
            (report, Some(Flight(rec)))
        } else {
            let report = self
                .0
                .run(scenario, &params)
                .expect("stock scenario supports C3");
            (report, None)
        };
        (sim_cell_of(&report, &params), flight)
    }
}

fn sim_cell_of(report: &ScenarioReport, params: &ScenarioParams) -> SimCell {
    let head = report.headline();
    SimCell {
        attempted: params.ops - params.warmup,
        completed: report.total_completions(),
        parked: report.parked,
        timeouts: report.timeouts,
        events: report.events_processed,
        p50_ms: ns_to_ms(head.summary.p50_ns as f64),
        p99_ms: ns_to_ms(head.summary.p99_ns as f64),
        samples: head.summary.count,
        fingerprint: report.fingerprint(),
    }
}

// --------------------------------------------------------------- live runs

/// The shape of a live fleet and the load offered to it. Everything else
/// is the product's `LiveConfig` default (6 replicas, RF 3, SSD model,
/// 10k keys Zipf 0.99, 1 KiB values, one connection per replica).
#[derive(Clone, Copy, Debug)]
pub struct LiveShape {
    /// Executors (service slots) per replica.
    pub executors: usize,
    /// Client in-flight budget.
    pub in_flight: usize,
    /// Share of GETs; the rest are PUTs to the key's primary.
    pub read_fraction: f64,
    /// `Some(rate)` = open loop, Poisson, timed from intended arrival;
    /// `None` = closed loop on the in-flight budget.
    pub offered_rate: Option<f64>,
    /// Operations excluded from measurement, by issue index.
    pub warmup_ops: u64,
    /// Selection strategy by registry name.
    pub strategy: &'static str,
}

/// Issuer threads of every live workload — the core count of the
/// reference host, fixed so that load comes from one process the same way
/// on every commit.
pub const ISSUER_THREADS: usize = 2;

fn live_config(shape: &LiveShape, seed: u64, run_for: Duration) -> LiveConfig {
    LiveConfig {
        concurrency: shape.executors,
        in_flight: shape.in_flight,
        read_fraction: shape.read_fraction,
        offered_rate: shape.offered_rate,
        warmup_ops: shape.warmup_ops,
        strategy: Strategy::named(shape.strategy),
        threads: ISSUER_THREADS,
        connections: 1,
        exact_latency: true,
        run_for,
        seed,
        ..LiveConfig::default()
    }
}

/// Median / p99 of one operation type over one window, wall-clock ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Measured samples.
    pub count: u64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

impl Latency {
    fn of(s: &LatencySummary) -> Self {
        Self {
            count: s.count,
            p50_ms: ns_to_ms(s.p50_ns as f64),
            p99_ms: ns_to_ms(s.p99_ns as f64),
        }
    }
}

/// One live window (fresh fleet → warm-up → measured window → drain),
/// flattened.
#[derive(Clone, Debug, Default)]
pub struct LiveWindow {
    /// Operations issued, warm-up included.
    pub issued: u64,
    /// Measured (post-warm-up) completions, GET + PUT.
    pub completed: u64,
    /// First to last measured completion, seconds.
    pub measured_s: f64,
    /// GET latency, from intended arrival when open loop.
    pub get: Latency,
    /// PUT latency.
    pub put: Latency,
    /// Times an issuer parked on C3 backpressure.
    pub backpressure_waits: u64,
    /// In-flight occupancy sampled at every issue (counts).
    pub occupancy_p50: f64,
    /// In-flight occupancy p99.
    pub occupancy_p99: f64,
    /// Reader-thread time folding one response into selector state, ns.
    pub feedback_lag_ns_p50: f64,
    /// Feedback fold time p99, ns.
    pub feedback_lag_ns_p99: f64,
    /// Largest RSS any node process reached, kB (node fleets only).
    pub node_rss_kb_max: f64,
    /// CPU the node processes burned, summed, ms (node fleets only).
    pub node_cpu_ms: f64,
}

fn live_window_of(live: &LiveReport, replicas: usize) -> LiveWindow {
    let report = &live.report;
    let lat = |name| {
        report
            .channel(name)
            .map(|c| Latency::of(&c.summary))
            .unwrap_or_default()
    };
    let gauge_peak = |name: &str| {
        live.recorder
            .gauge_series(name)
            .and_then(|g| g.values.iter().map(|&(_, v)| v).max())
            .unwrap_or(0) as f64
    };
    let nodes = 0..replicas;
    LiveWindow {
        issued: live.ops_issued,
        completed: report.total_completions(),
        measured_s: report.duration.as_secs_f64(),
        get: lat("read"),
        put: lat("update"),
        backpressure_waits: live.backpressure_waits,
        occupancy_p50: live.health[0].summary.p50_ns as f64,
        occupancy_p99: live.health[0].summary.p99_ns as f64,
        feedback_lag_ns_p50: live.health[1].summary.p50_ns as f64,
        feedback_lag_ns_p99: live.health[1].summary.p99_ns as f64,
        node_rss_kb_max: nodes
            .clone()
            .map(|r| gauge_peak(&c3_telemetry::node_rss_gauge(r)))
            .fold(0.0, f64::max),
        // The CPU gauge is cumulative per process, so its peak is the
        // process's total.
        node_cpu_ms: nodes
            .map(|r| gauge_peak(&c3_telemetry::node_cpu_gauge(r)))
            .sum(),
    }
}

/// One window against an in-process fleet (`run_live`).
pub fn live_window(shape: &LiveShape, seed: u64, run_for: Duration) -> LiveWindow {
    let cfg = live_config(shape, seed, run_for);
    let replicas = cfg.replicas;
    live_window_of(&run_live("benchmark", cfg), replicas)
}

/// One window against a fleet of `c3-live-node` processes (`run_node`).
/// Panics (inside the product) when a child outlives the graceful drain.
pub fn node_window(shape: &LiveShape, seed: u64, run_for: Duration, bin: &Path) -> LiveWindow {
    let cfg = live_config(shape, seed, run_for);
    let replicas = cfg.replicas;
    live_window_of(&run_node("benchmark", cfg, bin), replicas)
}

/// Where the `c3-live-node` binary is (`C3_NODE_BIN`, else a sibling of
/// this executable).
pub fn node_binary() -> Option<PathBuf> {
    node_bin()
}

// ------------------------------------------------------------ probe timing

/// ns per iteration of `body`, timed around `iters` calls.
fn ns_per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        body(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Deterministic pseudo-random timer delays (the churn loop `bench_engine`
/// has always used, so kernel numbers stay comparable with its history).
fn next_delay(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) % 1_000_000 + 1
}

// ------------------------------------------------------------ engine probes

/// `EventQueue` churn: keep `pending` timers alive, pop one + push one per
/// step. Returns ns per event.
pub fn kernel_churn_ns(pending: usize, steps: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 0x1234_5678_9abc_def0u64;
    for i in 0..pending {
        q.schedule(Nanos(next_delay(&mut rng)), i as u64);
    }
    let ns = ns_per_iter(steps, |_| {
        let (t, e) = q.pop().expect("pending events");
        q.schedule(Nanos(t.as_nanos() + next_delay(&mut rng)), e);
    });
    black_box(q.processed());
    ns
}

/// `schedule_cancellable` + `cancel` over a queue holding 4096 other
/// timers — the deadline/hedge timer pattern of the hardened lifecycle.
pub fn cancel_cycle_ns(cycles: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 0x0fed_cba9_8765_4321u64;
    for i in 0..4096 {
        q.schedule(Nanos(next_delay(&mut rng)), i);
    }
    let ns = ns_per_iter(cycles, |i| {
        let id = q.schedule_cancellable(Nanos(next_delay(&mut rng)), i);
        black_box(q.cancel(id));
    });
    black_box(q.cancelled());
    ns
}

// -------------------------------------------------------------- core probes

/// A registry-built selector's select → on_send → on_response cycle over a
/// group of 3 out of 20 servers. Returns ns per cycle.
pub fn select_cycle_ns(strategy: &str, cycles: u64) -> f64 {
    let ctx = SelectorCtx {
        servers: 20,
        c3: C3Config::for_clients(40),
        seed: 7,
        now: Nanos::ZERO,
    };
    let strategy = Strategy::named(strategy);
    let built = StrategyRegistry::with_defaults()
        .build(&strategy, &ctx)
        .expect("registered strategy");
    let BuiltSelector::Selector(mut selector) = built else {
        panic!("{strategy} needs simulator-global state");
    };
    let group = [3usize, 4, 5];
    let info = ResponseInfo {
        response_time: Nanos::from_millis(2),
        feedback: None,
    };
    let mut picked = 0u64;
    let ns = ns_per_iter(cycles, |i| {
        let now = Nanos(i * 2_000);
        if let Selection::Server(s) = selector.select(&group, now) {
            selector.on_send(s, now);
            selector.on_response(s, &info, now);
            picked += s as u64;
        }
    });
    black_box(picked);
    ns
}

/// `SharedC3State` try_send → record_send → on_response from `threads`
/// threads at once over one 6-server state (the live client's shape).
/// Returns ns per cycle per thread.
pub fn shared_c3_cycle_ns(threads: usize, cycles: u64) -> f64 {
    let state = SharedC3State::new(6, C3Config::default(), Nanos::ZERO);
    let feedback = Feedback::new(2, Nanos::from_micros(300));
    let barrier = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (state, barrier, feedback) = (&state, &barrier, &feedback);
                scope.spawn(move || {
                    let group = [t % 6, (t + 1) % 6, (t + 2) % 6];
                    barrier.wait();
                    ns_per_iter(cycles, |i| {
                        let now = Nanos(i * 20_000);
                        if let SendDecision::Send(s) = state.try_send(&group, now) {
                            state.record_send(s);
                            state.on_response(s, Nanos::from_micros(600), Some(feedback), now);
                        }
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    stats::mean(&per_thread)
}

// ---------------------------------------------------------- workload probes

/// Milliseconds to build a Zipfian(0.99) table over `items` keys.
pub fn zipf_build_ms(items: u64) -> f64 {
    let start = Instant::now();
    black_box(Zipfian::new(items, 0.99));
    start.elapsed().as_secs_f64() * 1e3
}

/// ns per `Zipfian::sample` over `items` keys.
pub fn zipf_sample_ns(items: u64, samples: u64) -> f64 {
    let zipf = Zipfian::new(items, 0.99);
    let mut rng = SmallRng::seed_from_u64(11);
    let mut acc = 0u64;
    let ns = ns_per_iter(samples, |_| acc = acc.wrapping_add(zipf.sample(&mut rng)));
    black_box(acc);
    ns
}

/// ns per `RequestFactory::next_request` (scrambled-Zipf key + mix draw +
/// record size) over a 1M-key space.
pub fn next_request_ns(samples: u64) -> f64 {
    let spec = GeneratorSpec {
        keys: c3_workload::ScrambledZipfian::ycsb(1_000_000),
        ..GeneratorSpec::paper_default(1, WorkloadMix::read_heavy())
    };
    let mut factory = spec.build(5).pop().expect("one generator");
    let mut acc = 0u64;
    let ns = ns_per_iter(samples, |_| {
        acc = acc.wrapping_add(factory.next_request().key)
    });
    black_box(acc);
    ns
}

// ----------------------------------------------------------- metrics probes

/// ns per `LogHistogram::record`, and ms to summarize the filled
/// histogram at the paper's percentiles: `(record_ns, summarize_ms)`.
pub fn histogram_costs(records: u64) -> (f64, f64) {
    let mut h = LogHistogram::new();
    let mut state = 0x9e37_79b9u64;
    let record_ns = ns_per_iter(records, |_| {
        h.record(2_000_000 + next_delay(&mut state) * 8)
    });
    let start = Instant::now();
    black_box(LatencySummary::from_histogram(&h));
    (record_ns, start.elapsed().as_secs_f64() * 1e3)
}

// --------------------------------------------------------- telemetry probes

/// ns per `Recorder::record` into a default-capacity ring that is already
/// full (the steady state of a recorded run: every record evicts).
pub fn recorder_record_ns(records: u64) -> f64 {
    let mut rec = Recorder::with_default_capacity();
    for i in 0..rec.capacity() as u64 {
        rec.record(Nanos(i), i, TracePoint::Issue);
    }
    let ns = ns_per_iter(records, |i| {
        let point = if i % 2 == 0 {
            TracePoint::Issue
        } else {
            TracePoint::Complete { latency_ns: i }
        };
        rec.record(Nanos(i), i, point);
    });
    black_box(rec.dropped());
    ns
}

// --------------------------------------------------------------- net probes

/// Frame codec unit costs at a 1 KiB value, ns per frame.
#[derive(Clone, Copy, Debug)]
pub struct CodecCosts {
    /// Encode one GET request.
    pub encode_get_ns: f64,
    /// Encode one PUT request carrying 1 KiB.
    pub encode_put_ns: f64,
    /// Decode one PUT request carrying 1 KiB (the server's inbound path).
    pub decode_request_ns: f64,
    /// Decode one GET response carrying 1 KiB (the client's inbound path).
    pub decode_response_ns: f64,
}

/// Time `c3_net::proto` at 1 KiB values.
pub fn codec_costs(frames: u64) -> CodecCosts {
    let value = Bytes::from(vec![0x5Au8; 1024]);
    let get = Request::Get {
        id: 1,
        key: encode_key(42),
    };
    let put = Request::Put {
        id: 2,
        key: encode_key(42),
        value: value.clone(),
    };
    let response = Response {
        id: 3,
        status: Status::Ok,
        feedback: Feedback::new(3, Nanos::from_micros(300)),
        value,
    };
    let mut out = BytesMut::new();
    let mut encode = |req: &Request| {
        ns_per_iter(frames, |_| {
            proto::encode_request(black_box(req), &mut out);
            // Consume the frame as a socket write would.
            let written = out.len();
            out.advance(written);
        })
    };
    let encode_get_ns = encode(&get);
    let encode_put_ns = encode(&put);

    let decode = |frame: &BytesMut| {
        let mut buf = BytesMut::new();
        ns_per_iter(frames, |_| {
            buf.extend_from_slice(frame);
            black_box(proto::decode_frame(&mut buf).expect("well-formed frame"));
        })
    };
    let mut put_frame = BytesMut::new();
    proto::encode_request(&put, &mut put_frame);
    let mut response_frame = BytesMut::new();
    proto::encode_response(&response, &mut response_frame);
    CodecCosts {
        encode_get_ns,
        encode_put_ns,
        decode_request_ns: decode(&put_frame),
        decode_response_ns: decode(&response_frame),
    }
}

// -------------------------------------------------------------- live probes

/// `InFlightBudget` acquire + release from `threads` threads sharing one
/// 512-permit budget. Returns ns per cycle per thread.
pub fn permit_cycle_ns(threads: usize, cycles: u64) -> f64 {
    let budget = InFlightBudget::new(512);
    let barrier = Barrier::new(threads);
    let far = Instant::now() + Duration::from_secs(3600);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (budget, barrier) = (&budget, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    ns_per_iter(cycles, |_| {
                        assert!(budget.acquire_until(far));
                        budget.release();
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    stats::mean(&per_thread)
}

/// `CorrelationTable` register + complete with 256 requests resident.
pub fn correlate_cycle_ns(cycles: u64) -> f64 {
    let mut table: CorrelationTable<u64> = CorrelationTable::new();
    for id in 0..256 {
        table.register(id, id).expect("fresh id");
    }
    let ns = ns_per_iter(cycles, |i| {
        let id = 256 + i;
        table.register(id, i).expect("fresh id");
        black_box(table.complete(id - 256).expect("resident id"));
    });
    black_box(table.len());
    ns
}

/// One replica server on loopback plus one benchmark-owned connection.
struct Served {
    server: ReplicaServer,
    stream: TcpStream,
    inbound: BytesMut,
}

impl Served {
    fn start(executors: usize, seed: u64) -> Self {
        let spec = ReplicaSpec {
            id: 0,
            concurrency: executors,
            disk: DiskKind::Ssd,
            read_fraction: 0.9,
            value_bytes: 1024,
            seed,
            faults: FaultPlan::none(),
            hello: None,
        };
        let loopback: SocketAddr = (std::net::Ipv4Addr::LOCALHOST, 0).into();
        let server = ReplicaServer::bind(&spec, loopback, Arc::new(NoSlowdown), WallClock::start())
            .expect("bind a loopback replica");
        let stream = TcpStream::connect(server.addr()).expect("dial the replica");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Self {
            server,
            stream,
            inbound: BytesMut::new(),
        }
    }

    fn send(&mut self, req: &Request) {
        let mut out = BytesMut::new();
        proto::encode_request(req, &mut out);
        self.stream.write_all(&out).expect("request written");
    }

    fn recv(&mut self) -> Response {
        match read_frame(&mut self.stream, &mut self.inbound).expect("frame read") {
            Some(Frame::Response(resp)) => resp,
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    fn stop(self) {
        drop(self.stream);
        self.server.shutdown();
    }
}

/// Sequential GETs of one stored key over one connection to one
/// 4-executor replica. Returns per GET `(round trip ns, the service time
/// the response's feedback reports, ns)` and whether every GET returned
/// the stored value.
pub fn server_round_trips(seed: u64, gets: u64) -> (Vec<(f64, f64)>, bool) {
    let mut served = Served::start(4, seed);
    let key = encode_key(7);
    let value = Bytes::from(vec![0xC3u8; 1024]);
    served.send(&Request::Put {
        id: 0,
        key: key.clone(),
        value: value.clone(),
    });
    let mut intact = served.recv().status == Status::Ok;
    let mut trips = Vec::with_capacity(gets as usize);
    for id in 1..=gets {
        let start = Instant::now();
        served.send(&Request::Get {
            id,
            key: key.clone(),
        });
        let resp = served.recv();
        let rtt = start.elapsed().as_nanos() as f64;
        intact &= resp.id == id && resp.status == Status::Ok && resp.value == value;
        trips.push((rtt, resp.feedback.service_time.as_nanos() as f64));
    }
    served.stop();
    (trips, intact)
}

/// GETs per second through one connection to one 32-executor replica with
/// 64 requests kept in flight for `run_for`.
pub fn server_pipelined_ops_per_s(seed: u64, run_for: Duration) -> f64 {
    const DEPTH: u64 = 64;
    let mut served = Served::start(32, seed);
    let key = encode_key(7);
    let get = |id| Request::Get {
        id,
        key: key.clone(),
    };
    for id in 0..DEPTH {
        served.send(&get(id));
    }
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < run_for {
        black_box(served.recv());
        served.send(&get(DEPTH + done));
        done += 1;
    }
    let rate = done as f64 / start.elapsed().as_secs_f64();
    for _ in 0..DEPTH {
        black_box(served.recv());
    }
    served.stop();
    rate
}

/// Time `LiveCluster::spawn` and `shutdown` for a fleet of `shape`:
/// `(spawn_ms, shutdown_ms)`.
pub fn live_spawn_shutdown_ms(shape: &LiveShape) -> (f64, f64) {
    let cfg = live_config(shape, 1, Duration::from_secs(1));
    let start = Instant::now();
    let cluster = LiveCluster::spawn(&cfg, Arc::new(NoSlowdown), WallClock::start())
        .expect("spawn a loopback fleet");
    let spawn_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    cluster.shutdown();
    (spawn_ms, start.elapsed().as_secs_f64() * 1e3)
}

/// Time `NodeFleet::spawn` and `shutdown` for a process fleet of `shape`:
/// `(spawn_ms, drain_ms, children that needed SIGKILL)`.
pub fn node_spawn_drain_ms(shape: &LiveShape, bin: &Path) -> (f64, f64, usize) {
    let cfg = live_config(shape, 1, Duration::from_secs(1));
    let start = Instant::now();
    let fleet = NodeFleet::spawn(bin, &FleetConfig::from_live(&cfg)).expect("spawn a node fleet");
    let spawn_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let leaked = fleet.shutdown();
    (spawn_ms, start.elapsed().as_secs_f64() * 1e3, leaked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_widths_follow_the_histogram_layout() {
        assert_eq!(log_bucket_width(5), 1);
        assert_eq!(log_bucket_width(127), 1);
        // [128, 256) is split into 64 buckets of width 2.
        assert_eq!(log_bucket_width(129), 2);
        // [2^20, 2^21) into 64 buckets of width 2^14.
        assert_eq!(log_bucket_width((1 << 20) + (1 << 13)), 1 << 14);
    }

    #[test]
    fn interpolated_quantiles_stay_within_a_bucket_of_the_histograms() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        let buckets: Vec<(u64, u64)> = h.iter_buckets().collect();
        for q in [0.5, 0.99] {
            let ours = stats::bucketed_quantile(&buckets, q, log_bucket_width);
            let theirs = h.value_at_quantile(q) as f64;
            assert!(
                (ours - theirs).abs() / theirs < 0.01,
                "q={q}: {ours} vs {theirs}"
            );
        }
    }
}
