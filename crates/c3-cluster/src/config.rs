//! Cluster experiment configuration.
//!
//! Defaults follow the paper's §5 EC2 deployment: a 15-node Cassandra
//! cluster with replication factor 3, spinning-disk storage, read repair on
//! 10% of reads, driven by 120 closed-loop YCSB generator threads issuing
//! Zipfian-keyed (ρ = 0.99) requests over 10 M keys.

use c3_core::{C3Config, LifecycleConfig, Nanos};
use c3_engine::Strategy;
use c3_workload::WorkloadMix;

use crate::fault::FaultPlan;
use crate::perturb::PerturbationSpec;
use crate::storage::{DiskKind, DiskModel};

/// A change in offered load at a point in time (Figure 11 adds 40
/// update-heavy generators at t = 640 s).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadPhase {
    /// When the extra generators enter the system.
    pub at: Nanos,
    /// How many generator threads join.
    pub extra_generators: usize,
    /// The mix those generators issue.
    pub mix: WorkloadMix,
}

/// Full configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of Cassandra nodes (paper: 15; Figure 13 uses 7).
    pub nodes: usize,
    /// Replication factor (paper: 3).
    pub replication_factor: usize,
    /// Storage hardware.
    pub disk: DiskKind,
    /// Base workload mix.
    pub mix: WorkloadMix,
    /// Closed-loop generator threads (paper: 120, later 210).
    pub generators: usize,
    /// Offered load in operations/second across all generator threads.
    /// `None` runs closed-loop (each thread issues its next operation as
    /// soon as the previous one completes, like the paper's YCSB
    /// generators); `Some(rate)` runs **open-loop**: each thread issues on
    /// its own Poisson schedule at `rate / generators` regardless of
    /// outstanding operations, so queueing delay counts against the
    /// strategy that caused it from the *intended* arrival time — the
    /// rate axis the SLO-seeking controller searches. A mid-run
    /// [`WorkloadPhase`] adds its joiners at the same per-thread rate on
    /// top of `rate`.
    pub offered_rate: Option<f64>,
    /// Record measured latencies into exact (every-sample) reservoirs so
    /// summaries report exact order statistics instead of histogram
    /// buckets — required when close percentile comparisons decide a
    /// result (claims, figures, SLO probes). Costs O(ops) memory.
    pub exact_latency: bool,
    /// Total client operations to run (paper: 10 M; scale down for CI).
    pub total_ops: u64,
    /// Operations to ignore in latency metrics while state warms up.
    pub warmup_ops: u64,
    /// Number of distinct keys (paper: 10 M).
    pub keys: u64,
    /// Zipfian constant (paper: 0.99).
    pub zipf_theta: f64,
    /// Read-repair probability (Cassandra default: 10%).
    pub read_repair_prob: f64,
    /// One-way network latency between any two machines.
    pub net_latency: Nanos,
    /// Use Zipfian-distributed record sizes capped at 2 KB instead of
    /// fixed 1 KB records (the skewed-record experiment).
    pub skewed_records: bool,
    /// Stochastic perturbation environment.
    pub perturbations: PerturbationSpec,
    /// Enable speculative retry at the coordinator's running p99 (the
    /// paper's negative result, §5).
    pub speculative_retry: bool,
    /// Deterministic adversity plan queried by the replicas (slow windows
    /// such as Figure 13's, replica crashes, connection resets, response
    /// drops/delays). Empty by default, which leaves the replica path
    /// untouched.
    pub faults: FaultPlan,
    /// Request-lifecycle hardening (deadline, retries, hedging, failure
    /// detector) — the [`LifecycleConfig`] shared with the live backends,
    /// defaulting to everything off (the seed behaviour).
    pub lifecycle: LifecycleConfig,
    /// Replica-selection strategy under test, by name.
    pub strategy: Strategy,
    /// C3 parameters; `concurrency_weight` is set to the number of
    /// coordinators (= nodes), matching "w = number of clients".
    pub c3: C3Config,
    /// Gossip dissemination period for iowait (Cassandra: 1 s averages).
    pub gossip_interval: Nanos,
    /// Additional workload entering mid-run (Figure 11).
    pub phase: Option<WorkloadPhase>,
    /// Window for per-node served-reads time series (paper: 100 ms).
    pub load_window: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 15,
            replication_factor: 3,
            disk: DiskKind::Spinning,
            mix: WorkloadMix::read_heavy(),
            generators: 120,
            offered_rate: None,
            exact_latency: false,
            total_ops: 500_000,
            warmup_ops: 20_000,
            keys: 10_000_000,
            zipf_theta: 0.99,
            read_repair_prob: 0.1,
            net_latency: Nanos::from_micros(300),
            skewed_records: false,
            perturbations: PerturbationSpec::default(),
            speculative_retry: false,
            faults: FaultPlan::none(),
            lifecycle: LifecycleConfig::default(),
            strategy: Strategy::c3(),
            c3: C3Config::default(),
            gossip_interval: Nanos::from_secs(1),
            phase: None,
            load_window: Nanos::from_millis(100),
            seed: 1,
        }
    }
}

impl ClusterConfig {
    /// The paper's §5 setup for a given strategy and mix.
    pub fn paper(strategy: Strategy, mix: WorkloadMix) -> Self {
        Self {
            strategy,
            mix,
            ..Self::default()
        }
    }

    /// The disk model for this config's hardware and mix.
    pub fn disk_model(&self) -> DiskModel {
        match self.disk {
            DiskKind::Spinning => DiskModel::spinning(self.mix.read_fraction()),
            DiskKind::Ssd => DiskModel::ssd(self.mix.read_fraction()),
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub fn validate(&self) {
        assert!(self.nodes >= self.replication_factor, "too few nodes");
        assert!(self.generators >= 1, "need generators");
        if let Some(rate) = self.offered_rate {
            assert!(
                rate.is_finite() && rate > 0.0,
                "offered rate must be positive and finite"
            );
        }
        assert!(self.total_ops > 0, "need operations");
        assert!(self.warmup_ops < self.total_ops, "warm-up swallows the run");
        assert!(self.keys > 0, "need keys");
        assert!(
            (0.0..=1.0).contains(&self.read_repair_prob),
            "read-repair probability out of range"
        );
        if let Some(p) = &self.phase {
            assert!(p.extra_generators > 0, "phase must add generators");
        }
        self.lifecycle.validate();
        if let Err(e) = self.faults.validate(self.nodes) {
            panic!("{e}");
        }
        self.c3.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section5() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 15);
        assert_eq!(c.replication_factor, 3);
        assert_eq!(c.generators, 120);
        assert_eq!(c.keys, 10_000_000);
        assert!((c.zipf_theta - 0.99).abs() < 1e-12);
        assert!((c.read_repair_prob - 0.1).abs() < 1e-12);
        assert_eq!(c.disk, DiskKind::Spinning);
        c.validate();
    }

    #[test]
    fn lifecycle_hardening_defaults_off() {
        let c = ClusterConfig::default();
        assert!(c.faults.is_empty());
        assert!(c.lifecycle.deadline.is_none());
        assert_eq!(c.lifecycle.retries, 0);
        assert!(c.lifecycle.hedge_after.is_none());
    }

    #[test]
    #[should_panic(expected = "retries need a deadline")]
    fn retries_without_deadline_are_rejected() {
        let c = ClusterConfig {
            lifecycle: LifecycleConfig {
                retries: 2,
                ..LifecycleConfig::default()
            },
            ..ClusterConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "fault episode 0 needs an end after its start")]
    fn reversed_fault_windows_are_rejected() {
        let mut c = ClusterConfig::default();
        c.faults.events.push(crate::fault::FaultEvent {
            node: 0,
            kind: crate::fault::FaultKind::Crash,
            start: Nanos::from_millis(200),
            end: Nanos::from_millis(100),
            magnitude: 0.0,
        });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "fault episode 0 needs a node below the fleet size")]
    fn slow_windows_past_the_fleet_are_rejected() {
        let mut c = ClusterConfig::default();
        c.faults.events.push(crate::fault::FaultEvent {
            node: 99,
            kind: crate::fault::FaultKind::Slow,
            start: Nanos::ZERO,
            end: Nanos::from_secs(1),
            magnitude: 8.0,
        });
        c.validate();
    }

    #[test]
    fn disk_model_follows_kind_and_mix() {
        let mut c = ClusterConfig::default();
        assert_eq!(c.disk_model().kind, DiskKind::Spinning);
        c.disk = DiskKind::Ssd;
        assert_eq!(c.disk_model().kind, DiskKind::Ssd);
    }

    #[test]
    fn labels_cover_table1() {
        assert_eq!(Strategy::dynamic_snitching().label(), "DS");
        assert_eq!(Strategy::primary_only().label(), "Primary");
        assert_eq!(Strategy::nearest_node().label(), "Nearest");
    }

    #[test]
    #[should_panic(expected = "warm-up")]
    fn warmup_cannot_cover_run() {
        let c = ClusterConfig {
            total_ops: 100,
            warmup_ops: 100,
            ..ClusterConfig::default()
        };
        c.validate();
    }
}
