//! Mega-fleet workload: hundreds of replicas serving a six-figure
//! population of closed-loop clients — the million-user-scale regime the
//! roadmap's multi-process fleets push every simulation into.
//!
//! C3's evaluation (§6) scales to hundreds of clients per replica group;
//! this scenario takes the same shape two orders of magnitude further:
//! every simulated client is an independent think → request → response
//! cycle, so the kernel holds **one pending timer per client** (100k+
//! concurrent events) for the whole run. Think times (~200 ms) sit several
//! fine-ring spans (≈ 67 ms) past the kernel's horizon, so its coarse ring
//! (33.5 ms buckets, ≈ 4.3 s in all) — not just the fine ring — carries
//! the census, and none of it reaches the overflow heap. That makes this
//! scenario double as the kernel's scale proof: the repo benchmark runs it
//! as the `sim-mega-fleet` workload. The benchmark's churn probes
//! (`engine.kernel_ns_per_event_p*`) schedule at most 1 ms ahead, so they
//! exercise only the fine ring; this workload is where the coarse ring
//! shows.
//!
//! Selector state is pooled: clients map onto a fixed set of **selector
//! shards** (the live client shards its baseline selector state the same
//! way), so 100k clients cost 100k pending events but only
//! `selector_shards` selector instances. Backpressure backlogs and retry
//! timers live on the shard, matching the shared selector whose rate
//! limiter actually pushed back.

use c3_core::{C3Config, Nanos};
use c3_engine::Strategy;
use c3_workload::ScrambledZipfian;

use crate::fleet::{self, Arrivals, FleetSpec, TrafficClass};
use crate::options::{RunOptions, RunOutput};

/// Full configuration of one mega-fleet run.
#[derive(Clone, Debug)]
pub(crate) struct MegaFleetConfig {
    /// Replica servers in the fleet.
    pub servers: usize,
    /// Closed-loop simulated clients; each holds exactly one pending
    /// event (a think timer or an in-flight request) at all times, so
    /// this is also the kernel's sustained pending-event census.
    pub clients: u64,
    /// Selector instances shared by the clients (`client % shards`).
    pub selector_shards: usize,
    /// Replica-group size.
    pub replication_factor: usize,
    /// Requests a server executes in parallel.
    pub server_concurrency: usize,
    /// Mean service time in ms (exponential).
    pub mean_service_ms: f64,
    /// Mean per-client think time between response and next request, ms
    /// (exponential). With `clients` closed loops the offered rate is
    /// ≈ `clients / (think + response)`.
    pub mean_think_ms: f64,
    /// Absolute offered arrival rate in requests/second, overriding the
    /// think time with `clients / rate` when set (approximate closed-loop
    /// pacing — the axis the SLO controller searches).
    pub offered_rate: Option<f64>,
    /// Record measured latencies into exact (every-sample) reservoirs.
    pub exact_latency: bool,
    /// One-way client/server network latency.
    pub one_way_latency: Nanos,
    /// Distinct keys; a key's replica group is `key % servers`.
    pub keys: u64,
    /// Zipfian constant of the key distribution, in `(0, 1)` exclusive.
    pub zipf_theta: f64,
    /// Completions that end the run.
    pub total_requests: u64,
    /// Requests excluded from latency measurement while state warms up.
    pub warmup_requests: u64,
    /// Strategy under test, by name.
    pub strategy: Strategy,
    /// C3 parameters; `concurrency_weight` is set to the shard count.
    pub c3: C3Config,
    /// Window for the per-server load time series.
    pub load_window: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MegaFleetConfig {
    fn default() -> Self {
        Self {
            servers: 256,
            clients: 120_000,
            selector_shards: 128,
            replication_factor: 3,
            server_concurrency: 8,
            mean_service_ms: 2.0,
            mean_think_ms: 200.0,
            offered_rate: None,
            exact_latency: false,
            one_way_latency: Nanos::from_micros(250),
            keys: 100_000,
            zipf_theta: 0.9,
            total_requests: 40_000,
            warmup_requests: 2_000,
            strategy: Strategy::c3(),
            c3: C3Config::default(),
            load_window: Nanos::from_millis(100),
            seed: 1,
        }
    }
}

impl MegaFleetConfig {
    /// The mean think time actually used: the configured one, or the
    /// `offered_rate` pacing override.
    pub(crate) fn effective_think_ms(&self) -> f64 {
        match self.offered_rate {
            Some(rate) => self.clients as f64 / rate * 1000.0,
            None => self.mean_think_ms,
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub(crate) fn validate(&self) {
        fleet::validate_id_widths(self.servers, self.clients, 1);
        assert!(self.servers >= self.replication_factor, "too few servers");
        assert!(self.clients >= 1, "need clients");
        assert!(
            self.selector_shards >= 1 && self.selector_shards as u64 <= self.clients,
            "selector shards must be in [1, clients]"
        );
        assert!(self.server_concurrency >= 1, "need execution slots");
        assert!(self.mean_service_ms > 0.0, "service time must be positive");
        assert!(self.mean_think_ms > 0.0, "think time must be positive");
        if let Some(rate) = self.offered_rate {
            assert!(
                rate.is_finite() && rate > 0.0,
                "offered rate must be positive and finite"
            );
        }
        assert!(self.keys > 0, "need keys");
        assert!(
            self.zipf_theta > 0.0 && self.zipf_theta < 1.0,
            "zipf theta must be in (0,1) exclusive"
        );
        assert!(self.total_requests > 0, "need requests");
        assert!(
            self.warmup_requests < self.total_requests,
            "warm-up swallows the run"
        );
        self.c3.validate();
    }

    /// Lower into the direct-fleet loop: closed-loop clients pooled onto
    /// `selector_shards` selector instances, reporting into the single
    /// `fleet` channel.
    pub(crate) fn lower(self) -> FleetSpec {
        self.validate();
        FleetSpec {
            scenario: super::MEGA_FLEET,
            servers: self.servers,
            replication_factor: self.replication_factor,
            server_concurrency: self.server_concurrency,
            one_way_latency: self.one_way_latency,
            total_requests: self.total_requests,
            warmup_requests: self.warmup_requests,
            exact_latency: self.exact_latency,
            selectors: self.selector_shards,
            service_stream: 37,
            classes: vec![TrafficClass {
                name: "fleet".to_string(),
                mean_service_ms: self.mean_service_ms,
            }],
            arrivals: Arrivals::Closed {
                clients: u32::try_from(self.clients).expect("validated to fit"),
                mean_think_ms: self.effective_think_ms(),
                keys: ScrambledZipfian::new(self.keys, self.keys, self.zipf_theta),
            },
            strategy: self.strategy,
            c3: self.c3,
            load_window: self.load_window,
            seed: self.seed,
        }
    }
}

/// Run a mega-fleet config to completion and report the fleet channel.
/// Attach a recorder via [`RunOptions::recorded`] to capture the request
/// lifecycle trace and decision snapshots; the report is bit-identical
/// either way.
pub(crate) fn run(cfg: MegaFleetConfig, options: RunOptions) -> RunOutput {
    fleet::run(cfg.lower(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DirectFleet;
    use c3_engine::{EventQueue, Scenario};

    /// A scaled-down fleet for quick in-crate tests; the registry tests
    /// exercise the full 120k-client default shape.
    fn small(strategy: Strategy) -> MegaFleetConfig {
        MegaFleetConfig {
            servers: 32,
            clients: 2_000,
            selector_shards: 16,
            total_requests: 5_000,
            warmup_requests: 400,
            strategy,
            seed: 5,
            ..MegaFleetConfig::default()
        }
    }

    #[test]
    fn every_client_holds_one_pending_event_at_start() {
        let cfg = small(Strategy::c3());
        let clients = cfg.clients;
        let mut scenario = DirectFleet::new(cfg.lower());
        let mut engine = EventQueue::new();
        scenario.start(&mut engine);
        // One think timer per client, plus the snitch tick.
        assert_eq!(engine.len(), clients as usize + 1);
    }

    #[test]
    fn closed_loop_completes_and_reports_the_fleet_channel() {
        let report = run(small(Strategy::c3()), RunOptions::default()).report;
        assert_eq!(report.channels.len(), 1);
        assert_eq!(report.headline().name, "fleet");
        assert!(report.total_completions() > 0);
        assert_eq!(report.dead_events, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(small(Strategy::c3()), RunOptions::default()).report;
        let b = run(small(Strategy::c3()), RunOptions::default()).report;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn oracle_and_snitch_run_on_this_frontend() {
        for strategy in [Strategy::oracle(), Strategy::dynamic_snitching()] {
            let report = run(small(strategy.clone()), RunOptions::default()).report;
            assert!(
                report.total_completions() > 0,
                "strategy {strategy} must complete"
            );
        }
    }

    #[test]
    fn offered_rate_overrides_the_think_time() {
        let mut cfg = small(Strategy::c3());
        cfg.offered_rate = Some(1_000.0);
        // 2000 clients at 1000 req/s → 2 s mean think time.
        assert!((cfg.effective_think_ms() - 2_000.0).abs() < 1e-9);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "selector shards")]
    fn more_shards_than_clients_is_rejected() {
        let mut cfg = small(Strategy::c3());
        cfg.selector_shards = 4_000;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "too many servers")]
    fn servers_beyond_the_request_record_are_rejected() {
        let mut cfg = small(Strategy::c3());
        cfg.servers = usize::from(u16::MAX);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "too many clients")]
    fn clients_beyond_the_request_record_are_rejected() {
        let mut cfg = small(Strategy::c3());
        cfg.clients = u64::from(u32::MAX) + 1;
        cfg.validate();
    }
}
