//! Simulation configuration.
//!
//! Defaults reproduce the paper's §6 experimental setup: 50 servers with
//! 4-way request concurrency and exponential service times (mean 4 ms at
//! the base rate), bimodal time-varying service rates (μ vs μ·D, D = 3,
//! re-sampled every fluctuation interval), 200 Poisson workload generators
//! driving 150–300 clients, replication factor 3, 10% read repair, 250 µs
//! one-way network latency, and 600,000 requests per run.
//!
//! Strategies are referenced by [`Strategy`] name and built by
//! [`Strategy::build`]; the simulator itself provides the global state the
//! `ORA` baseline needs.

use c3_core::{C3Config, Nanos};
use c3_engine::Strategy;

/// Skewed client demand: `fraction_of_clients` of the clients receive
/// `fraction_of_demand` of all requests (Figure 15 uses 20%/80% and
/// 50%/80%).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DemandSkew {
    /// Fraction of clients in the "heavy" set, in `(0, 1)`.
    pub fraction_of_clients: f64,
    /// Fraction of total demand directed at the heavy set, in `(0, 1)`.
    pub fraction_of_demand: f64,
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of replica servers (paper: 50).
    pub servers: usize,
    /// Number of clients performing replica selection (paper: 150–300).
    pub clients: usize,
    /// Number of Poisson workload generators (paper: 200).
    pub generators: usize,
    /// Replication factor / replica-group size (paper: 3).
    pub replication_factor: usize,
    /// Requests a server executes in parallel (paper: 4).
    pub server_concurrency: usize,
    /// Mean service time at the base rate μ (paper: 4 ms).
    pub mean_service_ms: f64,
    /// Service-rate range parameter `D`: servers run at μ or μ·D (paper: 3).
    pub range_d: f64,
    /// Fluctuation interval `T`: every `T`, each server re-samples its rate
    /// uniformly from {μ, μ·D} (paper sweeps 10–500 ms).
    pub fluctuation_interval: Nanos,
    /// Offered load as a fraction of mean system capacity (paper: 0.7
    /// "high" and 0.45 "low"). Capacity counts each server as
    /// `concurrency × (μ + μD)/2`.
    pub utilization: f64,
    /// Absolute offered arrival rate in requests/second, overriding the
    /// `utilization`-derived rate when set. Unlike `utilization` it is
    /// not clamped below capacity, so direct §6 experiments (or an SLO
    /// search driving `Simulation` as its measurement function, the way
    /// `slo_sweep` drives the scenario registry) can deliberately cross
    /// the saturation point.
    pub offered_rate: Option<f64>,
    /// Probability a read is sent to all replicas (paper: 10%).
    pub read_repair_prob: f64,
    /// One-way network latency between any client and server (paper:
    /// 250 µs).
    pub one_way_latency: Nanos,
    /// Total requests generated per run (paper: 600,000).
    pub total_requests: u64,
    /// Requests to skip (per run) before recording latencies, letting EWMA
    /// and rate state warm up. The paper does not state a warm-up; 0
    /// records everything.
    pub warmup_requests: u64,
    /// Optional client demand skew (Figure 15).
    pub demand_skew: Option<DemandSkew>,
    /// The strategy under test, by name (Dynamic Snitching excepted).
    pub strategy: Strategy,
    /// C3 parameters (also supplies rate parameters to the RR baseline).
    /// `concurrency_weight` is overwritten with `clients` unless
    /// `keep_c3_weight` is set.
    pub c3: C3Config,
    /// Keep `c3.concurrency_weight` as given instead of setting it to the
    /// client count (used by the `w` sensitivity ablation).
    pub keep_c3_weight: bool,
    /// Window for per-server load time series (paper plots 100 ms).
    pub load_window: Nanos,
    /// RNG seed; every run with the same config and seed is identical.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            servers: 50,
            clients: 150,
            generators: 200,
            replication_factor: 3,
            server_concurrency: 4,
            mean_service_ms: 4.0,
            range_d: 3.0,
            fluctuation_interval: Nanos::from_millis(100),
            utilization: 0.7,
            offered_rate: None,
            read_repair_prob: 0.1,
            one_way_latency: Nanos::from_micros(250),
            total_requests: 600_000,
            warmup_requests: 0,
            demand_skew: None,
            strategy: Strategy::c3(),
            c3: C3Config::default(),
            keep_c3_weight: false,
            load_window: Nanos::from_millis(100),
            seed: 1,
        }
    }
}

impl SimConfig {
    /// The paper's §6 setup with the given strategy, client count,
    /// fluctuation interval and utilization.
    pub fn paper(
        strategy: Strategy,
        clients: usize,
        fluctuation_interval: Nanos,
        utilization: f64,
    ) -> Self {
        Self {
            clients,
            fluctuation_interval,
            utilization,
            strategy,
            ..Self::default()
        }
    }

    /// Mean per-server service rate in requests/sec, averaged over the
    /// bimodal fluctuation: `concurrency × (μ + μ·D)/2`.
    pub fn mean_server_rate(&self) -> f64 {
        let mu = 1000.0 / self.mean_service_ms; // req/s per execution slot
        self.server_concurrency as f64 * mu * (1.0 + self.range_d) / 2.0
    }

    /// Total offered arrival rate in requests/sec: the `offered_rate`
    /// override when set, else `utilization × servers × mean_server_rate`.
    pub fn total_arrival_rate(&self) -> f64 {
        if let Some(rate) = self.offered_rate {
            return rate;
        }
        self.utilization * self.servers as f64 * self.mean_server_rate()
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub fn validate(&self) {
        assert!(self.servers >= self.replication_factor, "too few servers");
        assert!(self.replication_factor >= 1, "RF must be >= 1");
        assert!(self.clients >= 1, "need at least one client");
        assert!(self.generators >= 1, "need at least one generator");
        assert!(self.server_concurrency >= 1, "need >= 1 execution slot");
        assert!(self.mean_service_ms > 0.0, "service time must be positive");
        assert!(self.range_d >= 1.0, "D must be >= 1");
        assert!(
            self.utilization > 0.0 && self.utilization < 1.0,
            "utilization must be in (0,1)"
        );
        if let Some(rate) = self.offered_rate {
            assert!(
                rate.is_finite() && rate > 0.0,
                "offered rate must be positive and finite"
            );
        }
        assert!(
            (0.0..=1.0).contains(&self.read_repair_prob),
            "read-repair probability out of range"
        );
        if let Some(sk) = self.demand_skew {
            assert!(
                sk.fraction_of_clients > 0.0 && sk.fraction_of_clients < 1.0,
                "skew client fraction out of range"
            );
            assert!(
                sk.fraction_of_demand > 0.0 && sk.fraction_of_demand < 1.0,
                "skew demand fraction out of range"
            );
        }
        self.c3.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section6() {
        let c = SimConfig::default();
        assert_eq!(c.servers, 50);
        assert_eq!(c.generators, 200);
        assert_eq!(c.replication_factor, 3);
        assert_eq!(c.server_concurrency, 4);
        assert_eq!(c.mean_service_ms, 4.0);
        assert_eq!(c.range_d, 3.0);
        assert_eq!(c.read_repair_prob, 0.1);
        assert_eq!(c.one_way_latency, Nanos::from_micros(250));
        assert_eq!(c.total_requests, 600_000);
        assert_eq!(c.strategy, Strategy::c3());
        c.validate();
    }

    #[test]
    fn capacity_math_matches_paper_formula() {
        let c = SimConfig::default();
        // μ = 250/s per slot; avg slot rate = 250·(1+3)/2 = 500/s;
        // per server = 4 slots × 500 = 2000/s; system = 50 × 2000 = 100k/s;
        // at 70% ⇒ 70k/s offered.
        assert!((c.mean_server_rate() - 2000.0).abs() < 1e-9);
        assert!((c.total_arrival_rate() - 70_000.0).abs() < 1e-6);
    }

    #[test]
    fn paper_constructor_plumbs_fields() {
        let c = SimConfig::paper(Strategy::lor(), 300, Nanos::from_millis(500), 0.45);
        assert_eq!(c.clients, 300);
        assert_eq!(c.strategy, Strategy::lor());
        assert_eq!(c.fluctuation_interval, Nanos::from_millis(500));
        assert!((c.utilization - 0.45).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn offered_rate_overrides_utilization_derived_rate() {
        let mut c = SimConfig::default();
        assert!((c.total_arrival_rate() - 70_000.0).abs() < 1e-6);
        c.offered_rate = Some(123_456.0);
        c.validate();
        assert_eq!(c.total_arrival_rate(), 123_456.0, "override wins");
    }

    #[test]
    #[should_panic(expected = "offered rate")]
    fn validate_rejects_nonpositive_offered_rate() {
        let c = SimConfig {
            offered_rate: Some(0.0),
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn validate_rejects_overload() {
        let c = SimConfig {
            utilization: 1.2,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "too few servers")]
    fn validate_rejects_rf_exceeding_servers() {
        let c = SimConfig {
            servers: 2,
            ..SimConfig::default()
        };
        c.validate();
    }
}
