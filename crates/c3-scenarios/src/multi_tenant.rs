//! Multi-tenant workload: several tenant classes with distinct key skew,
//! demand share and value sizes contending for one replicated fleet.
//!
//! §5 of the paper stresses C3 with *skewed demand*; production stores see
//! that skew arrive as tenants — an interactive app hammering a hot
//! keyset, an analytics job scanning colder keys with large values, a bulk
//! loader pushing big records at low rate. Each tenant here is an
//! independent open-loop Poisson source with its own Zipfian key chooser
//! and fixed value size (which scales service time), all sharing the same
//! servers, clients and replica groups. Latency is recorded into one
//! **named channel per tenant**, so a single run answers the question the
//! positional-channel era could not express: *who* pays the tail when the
//! fleet misbehaves.

use c3_core::{C3Config, Nanos};
use c3_engine::{SeedSeq, Strategy};
use c3_workload::{PoissonArrivals, ScrambledZipfian};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fleet::{self, Arrivals, FleetSpec, PoissonSource, TrafficClass};
use crate::options::{RunOptions, RunOutput};
use crate::report::ScenarioReport;

/// One tenant class sharing the fleet.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Channel name this tenant's latencies are recorded under.
    pub name: String,
    /// Zipfian constant of the tenant's key distribution, in `(0, 1)`
    /// exclusive — YCSB's 0.99 is heavily skewed, values near 0 approach
    /// uniform.
    pub zipf_theta: f64,
    /// The tenant's share of the total offered arrival rate, in `(0, 1]`.
    pub demand_fraction: f64,
    /// Value size in bytes; service time scales linearly with it
    /// (1024 B = the base mean service time).
    pub value_bytes: u32,
}

impl TenantSpec {
    /// A latency-sensitive interactive tenant: hot Zipfian keys, small
    /// values, the bulk of the demand.
    pub fn interactive() -> Self {
        Self {
            name: "interactive".into(),
            zipf_theta: 0.99,
            demand_fraction: 0.6,
            value_bytes: 1024,
        }
    }

    /// An analytics tenant: mild skew, 4 KB values, moderate demand.
    pub fn analytics() -> Self {
        Self {
            name: "analytics".into(),
            zipf_theta: 0.6,
            demand_fraction: 0.3,
            value_bytes: 4096,
        }
    }

    /// A bulk-load tenant: near-uniform keys, 8 KB values, low rate.
    pub fn bulk() -> Self {
        Self {
            name: "bulk".into(),
            zipf_theta: 0.2,
            demand_fraction: 0.1,
            value_bytes: 8192,
        }
    }
}

/// Full configuration of one multi-tenant run.
#[derive(Clone, Debug)]
pub struct MultiTenantConfig {
    /// Replica servers sharing the fleet.
    pub servers: usize,
    /// Clients performing replica selection.
    pub clients: usize,
    /// Replica-group size.
    pub replication_factor: usize,
    /// Requests a server executes in parallel.
    pub server_concurrency: usize,
    /// Mean service time for a 1 KB value, ms (exponential).
    pub mean_service_ms: f64,
    /// Offered load as a fraction of fleet capacity, accounting for each
    /// tenant's value-size service multiplier.
    pub utilization: f64,
    /// Absolute offered arrival rate in requests/second across all
    /// tenants, overriding the `utilization`-derived rate when set.
    /// Unlike `utilization` it is not clamped below capacity — the
    /// SLO-seeking controller's search bracket deliberately crosses the
    /// saturation point.
    pub offered_rate: Option<f64>,
    /// Record measured latencies into exact (every-sample) reservoirs so
    /// summaries report exact order statistics (claims/figure/SLO-probe
    /// tiers). Costs O(requests) memory.
    pub exact_latency: bool,
    /// One-way client/server network latency.
    pub one_way_latency: Nanos,
    /// Distinct keys; a key's replica group is `key % servers`.
    pub keys: u64,
    /// Total requests across all tenants.
    pub total_requests: u64,
    /// Requests excluded from latency measurement while state warms up.
    pub warmup_requests: u64,
    /// The tenant classes (channel names must be unique).
    pub tenants: Vec<TenantSpec>,
    /// Strategy under test, by name.
    pub strategy: Strategy,
    /// C3 parameters; `concurrency_weight` is set to the client count.
    pub c3: C3Config,
    /// Window for the per-server load time series.
    pub load_window: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultiTenantConfig {
    fn default() -> Self {
        Self {
            servers: 12,
            clients: 24,
            replication_factor: 3,
            server_concurrency: 4,
            mean_service_ms: 3.0,
            utilization: 0.65,
            offered_rate: None,
            exact_latency: false,
            one_way_latency: Nanos::from_micros(250),
            keys: 100_000,
            total_requests: 40_000,
            warmup_requests: 2_000,
            tenants: vec![
                TenantSpec::interactive(),
                TenantSpec::analytics(),
                TenantSpec::bulk(),
            ],
            strategy: Strategy::c3(),
            c3: C3Config::default(),
            load_window: Nanos::from_millis(100),
            seed: 1,
        }
    }
}

impl MultiTenantConfig {
    /// Mean service time in ms averaged over tenant demand (value sizes
    /// scale service linearly; 1 KB is the base).
    pub fn effective_service_ms(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.demand_fraction * self.mean_service_ms * f64::from(t.value_bytes) / 1024.0)
            .sum()
    }

    /// Fleet capacity in requests/second at the tenant-demand-weighted
    /// mean service time.
    pub fn capacity(&self) -> f64 {
        self.servers as f64 * self.server_concurrency as f64 * 1000.0 / self.effective_service_ms()
    }

    /// Total offered arrival rate in requests/second: the `offered_rate`
    /// override when set, else the configured utilization of
    /// [`MultiTenantConfig::capacity`].
    pub fn total_arrival_rate(&self) -> f64 {
        if let Some(rate) = self.offered_rate {
            return rate;
        }
        self.utilization * self.capacity()
    }

    /// The configuration of tenant `i` running *alone* on the same fleet
    /// at its own arrival rate: the isolation baseline for
    /// slowdown-vs-isolated fairness accounting. The single remaining
    /// tenant takes demand fraction 1, and the utilization is rescaled so
    /// the isolated arrival rate equals the shared run's rate for that
    /// tenant; request counts scale by the demand fraction so baselines
    /// cost proportionally.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn isolated(&self, i: usize) -> MultiTenantConfig {
        let tenant = self.tenants[i].clone();
        // rate_i = U·C/eff · f_i  must equal  U'·C/s_i, so U' = U·f_i·s_i/eff.
        let s_i = self.mean_service_ms * f64::from(tenant.value_bytes) / 1024.0;
        let utilization =
            self.utilization * tenant.demand_fraction * s_i / self.effective_service_ms();
        let total = ((self.total_requests as f64 * tenant.demand_fraction) as u64).max(1_000);
        let warmup = ((self.warmup_requests as f64 * tenant.demand_fraction) as u64)
            .min(total.saturating_sub(1));
        MultiTenantConfig {
            utilization,
            // An absolute-rate override scales directly: the tenant keeps
            // its shared-run arrival rate when running alone.
            offered_rate: self.offered_rate.map(|r| r * tenant.demand_fraction),
            total_requests: total,
            warmup_requests: warmup,
            tenants: vec![TenantSpec {
                demand_fraction: 1.0,
                ..tenant
            }],
            ..self.clone()
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub fn validate(&self) {
        fleet::validate_id_widths(self.servers, self.clients as u64, self.tenants.len());
        assert!(self.servers >= self.replication_factor, "too few servers");
        assert!(self.clients >= 1, "need clients");
        assert!(self.server_concurrency >= 1, "need execution slots");
        assert!(self.mean_service_ms > 0.0, "service time must be positive");
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
        assert!(self.keys > 0, "need keys");
        assert!(self.total_requests > 0, "need requests");
        assert!(
            self.warmup_requests < self.total_requests,
            "warm-up swallows the run"
        );
        assert!(!self.tenants.is_empty(), "need at least one tenant");
        for (i, t) in self.tenants.iter().enumerate() {
            assert!(
                !self.tenants[..i].iter().any(|u| u.name == t.name),
                "duplicate tenant name {:?} (channel names must be unique)",
                t.name
            );
        }
        let demand: f64 = self.tenants.iter().map(|t| t.demand_fraction).sum();
        assert!(
            (demand - 1.0).abs() < 1e-9,
            "tenant demand fractions must sum to 1 (got {demand})"
        );
        for t in &self.tenants {
            assert!(t.demand_fraction > 0.0, "tenant {} has no demand", t.name);
            assert!(t.value_bytes > 0, "tenant {} has empty values", t.name);
            assert!(
                t.zipf_theta > 0.0 && t.zipf_theta < 1.0,
                "tenant {} zipf theta must be in (0,1) exclusive",
                t.name
            );
        }
        self.c3.validate();
    }

    /// Lower into the direct-fleet loop: one selector per client, one
    /// open-loop Poisson source and one latency channel per tenant, and
    /// service time scaled by the tenant's value size.
    pub(crate) fn lower(self) -> FleetSpec {
        self.validate();
        let seeds = SeedSeq::new(self.seed);
        let total_rate = self.total_arrival_rate();
        let sources = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| PoissonSource {
                keys: ScrambledZipfian::new(self.keys, self.keys, t.zipf_theta),
                arrivals: PoissonArrivals::new(total_rate * t.demand_fraction),
                rng: SmallRng::seed_from_u64(seeds.tenant_seed(i as u64)),
            })
            .collect();
        let classes = self
            .tenants
            .iter()
            .map(|t| TrafficClass {
                name: t.name.clone(),
                mean_service_ms: self.mean_service_ms * (f64::from(t.value_bytes) / 1024.0),
            })
            .collect();
        FleetSpec {
            scenario: super::MULTI_TENANT,
            servers: self.servers,
            replication_factor: self.replication_factor,
            server_concurrency: self.server_concurrency,
            one_way_latency: self.one_way_latency,
            total_requests: self.total_requests,
            warmup_requests: self.warmup_requests,
            exact_latency: self.exact_latency,
            selectors: self.clients,
            service_stream: 21,
            classes,
            arrivals: Arrivals::Open {
                clients: self.clients,
                sources,
            },
            strategy: self.strategy,
            c3: self.c3,
            load_window: self.load_window,
            seed: self.seed,
        }
    }
}

/// Run each tenant's isolation baseline (see
/// [`MultiTenantConfig::isolated`]), in tenant order — the shape
/// [`ScenarioReport::slowdown_vs_isolated`] and
/// [`ScenarioReport::jain_fairness`] take.
pub fn run_isolated(cfg: &MultiTenantConfig) -> Vec<ScenarioReport> {
    (0..cfg.tenants.len())
        .map(|i| run(cfg.isolated(i), RunOptions::default()).report)
        .collect()
}

/// Run a multi-tenant config to completion and report per-tenant
/// channels. Attach a recorder via [`RunOptions::recorded`] to capture
/// the request lifecycle trace and decision snapshots; the report is
/// bit-identical either way.
pub fn run(cfg: MultiTenantConfig, options: RunOptions) -> RunOutput {
    fleet::run(cfg.lower(), options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(strategy: Strategy) -> MultiTenantConfig {
        MultiTenantConfig {
            total_requests: 6_000,
            warmup_requests: 500,
            strategy,
            seed: 3,
            ..MultiTenantConfig::default()
        }
    }

    #[test]
    fn tenants_get_their_own_channels() {
        let report = run(small(Strategy::c3()), RunOptions::default()).report;
        assert_eq!(report.channels.len(), 3);
        assert_eq!(report.headline().name, "interactive");
        assert!(report.channel("analytics").is_some());
        assert!(report.channel("bulk").is_some());
        assert_eq!(report.total_completions(), 6_000 - 500);
        for c in &report.channels {
            assert!(c.completions > 0, "tenant {} starved", c.name);
        }
    }

    #[test]
    fn heavier_values_cost_more_latency() {
        let report = run(small(Strategy::c3()), RunOptions::default()).report;
        let interactive = report.channel("interactive").unwrap().summary.p50_ns;
        let bulk = report.channel("bulk").unwrap().summary.p50_ns;
        assert!(
            bulk > interactive,
            "8 KB values must out-wait 1 KB values: {bulk} vs {interactive}"
        );
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
            assert_eq!(
                report.total_completions(),
                5_500,
                "strategy {strategy} must complete"
            );
        }
    }

    #[test]
    fn isolated_config_preserves_the_tenant_arrival_rate() {
        let cfg = small(Strategy::c3());
        let shared_rate = cfg.total_arrival_rate();
        for (i, tenant) in cfg.tenants.iter().enumerate() {
            let iso = cfg.isolated(i);
            iso.validate();
            assert_eq!(iso.tenants.len(), 1);
            assert_eq!(iso.tenants[0].name, tenant.name);
            let want = shared_rate * tenant.demand_fraction;
            let got = iso.total_arrival_rate();
            assert!(
                (got - want).abs() / want < 1e-9,
                "tenant {}: isolated rate {got} != shared share {want}",
                tenant.name
            );
        }
    }

    #[test]
    fn fairness_metrics_come_out_of_isolated_baselines() {
        let cfg = small(Strategy::c3());
        let shared = run(cfg.clone(), RunOptions::default()).report;
        let isolated = run_isolated(&cfg);
        let slowdowns = shared.slowdown_vs_isolated(&isolated);
        assert_eq!(slowdowns.len(), 3);
        for (name, factor) in &slowdowns {
            assert!(*factor > 0.0, "tenant {name} slowdown {factor}");
        }
        // Sharing a 65%-utilized fleet cannot be free for everyone: at
        // least one tenant's tail must pay something.
        assert!(
            slowdowns.iter().any(|(_, f)| *f > 1.0),
            "no tenant pays for interference? {slowdowns:?}"
        );
        let jain = shared.jain_fairness(&isolated);
        assert!(jain > 1.0 / 3.0 && jain <= 1.0, "Jain {jain} out of range");
    }

    #[test]
    #[should_panic(expected = "demand fractions")]
    fn demand_must_sum_to_one() {
        let mut cfg = small(Strategy::c3());
        cfg.tenants[0].demand_fraction = 0.9;
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
        cfg.clients = u32::MAX as usize + 1;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "too many tenants")]
    fn tenants_beyond_the_request_record_are_rejected() {
        let mut cfg = small(Strategy::c3());
        cfg.tenants = vec![TenantSpec::bulk(); usize::from(u16::MAX) + 1];
        cfg.validate();
    }
}
