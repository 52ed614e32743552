//! Heterogeneous fleet: per-node service-time multipliers layered on the
//! §5 cluster's ring.
//!
//! Real deployments mix hardware generations: a third of the fleet on
//! older disks or throttled instances serves every request a constant
//! factor slower. Unlike the stochastic perturbations of §2.1 this skew is
//! *permanent*, so a selection strategy cannot wait it out — it has to
//! learn the slow tier and keep load off it without starving it (the slow
//! nodes still hold a third of the replicas). The tiers are realized as
//! whole-run `Slow` windows of the cluster's fault plan
//! ([`FaultPlan::tiers`]), so GC/compaction noise still rides on top of
//! the tier skew.

use c3_cluster::{ClusterConfig, FaultPlan};

use crate::cluster_backed;
use crate::options::{RunOptions, RunOutput};

/// Configuration of a heterogeneous-fleet run.
#[derive(Clone, Debug)]
pub struct HeteroFleetConfig {
    /// The underlying cluster (nodes, mix, disk, perturbations, ...).
    pub cluster: ClusterConfig,
    /// Service-time multiplier of each hardware tier; node `i` lands in
    /// tier `i % tiers.len()`. `1.0` is the baseline tier.
    pub tier_multipliers: Vec<f64>,
}

impl Default for HeteroFleetConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            // Every third node runs 3x slower — an aged hardware tier
            // holding a full replica of a third of the key ranges.
            tier_multipliers: vec![1.0, 1.0, 3.0],
        }
    }
}

impl HeteroFleetConfig {
    /// The cluster config with the tier skew appended to its fault plan as
    /// whole-run `Slow` windows (the cluster's validation rejects a tier
    /// below 1).
    ///
    /// # Panics
    ///
    /// Panics when no tiers are configured.
    pub fn apply(&self) -> ClusterConfig {
        let mut cfg = self.cluster.clone();
        let tiers = FaultPlan::tiers(&self.tier_multipliers, cfg.nodes);
        cfg.faults.events.extend(tiers.events);
        cfg
    }
}

/// Run a heterogeneous-fleet config to completion. Attach a recorder via
/// [`RunOptions::recorded`] to capture the read lifecycle trace and
/// decision snapshots; the report is bit-identical either way.
///
/// # Panics
///
/// Panics when the configured strategy is unknown or needs
/// simulator-global state (`ORA`).
pub fn run(cfg: &HeteroFleetConfig, options: RunOptions) -> RunOutput {
    cluster_backed::run(super::HETERO_FLEET, cfg.apply(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_core::Nanos;
    use c3_engine::Strategy;

    fn small(strategy: Strategy) -> HeteroFleetConfig {
        let mut cfg = HeteroFleetConfig::default();
        cfg.cluster.nodes = 9;
        cfg.cluster.generators = 30;
        cfg.cluster.total_ops = 6_000;
        cfg.cluster.warmup_ops = 500;
        cfg.cluster.keys = 50_000;
        cfg.cluster.strategy = strategy;
        cfg.cluster.seed = 7;
        cfg
    }

    #[test]
    fn tiers_map_round_robin() {
        let applied = HeteroFleetConfig::default().apply();
        let tier_of = |node| applied.faults.for_node(node).at(Nanos::ZERO).slow;
        assert_eq!(tier_of(0), 1.0);
        assert_eq!(tier_of(2), 3.0);
        assert_eq!(tier_of(5), 3.0);
        assert_eq!(
            applied.faults.events.len(),
            5,
            "15 nodes / every third slow"
        );
    }

    #[test]
    fn slow_tier_raises_the_tail_for_naive_selection() {
        let hetero = small(Strategy::primary_only());
        let mut uniform = small(Strategy::primary_only());
        uniform.tier_multipliers = vec![1.0];
        let h = run(&hetero, RunOptions::default()).report;
        let u = run(&uniform, RunOptions::default()).report;
        assert!(
            h.headline().summary.p99_ns > u.headline().summary.p99_ns,
            "a slow tier must hurt a tier-blind strategy: {} vs {}",
            h.headline().summary.p99_ns,
            u.headline().summary.p99_ns
        );
    }

    #[test]
    fn reports_read_and_update_channels() {
        let report = run(&small(Strategy::c3()), RunOptions::default()).report;
        assert_eq!(report.headline().name, "read");
        assert!(report.channel("update").is_some());
        assert_eq!(report.total_completions(), 5_500);
    }
}
