//! Partition/flux: scripted and stochastic replica blackouts and
//! recoveries.
//!
//! The harshest condition §5 gestures at: a replica does not merely slow
//! down, it effectively *vanishes* — a network partition, a hung VM, an
//! operator restart — then comes back cold. Strategies with frozen
//! rankings (Dynamic Snitching) keep sending into the hole until the next
//! recompute; C3's rate control is supposed to collapse the sending rate
//! towards the dark node multiplicatively and then re-probe along the
//! cubic curve once it recovers. Blackouts come from two sources: a
//! stochastic on/off renewal process per node (the "flux", one of
//! [`c3_cluster`]'s perturbation episodes), plus optional scripted `Slow`
//! windows of the cluster's fault plan for deterministic experiments.

use c3_cluster::{ClusterConfig, EpisodeSpec, FaultEvent, FaultKind, PerturbationSpec};
use c3_core::Nanos;

use crate::cluster_backed;
use crate::options::{RunOptions, RunOutput};

/// Configuration of a partition/flux run.
#[derive(Clone, Debug)]
pub(crate) struct PartitionFluxConfig {
    /// The underlying cluster. [`PartitionFluxConfig::apply`] overwrites
    /// its `perturbations` and appends the scripted blackouts to its
    /// `faults`.
    pub cluster: ClusterConfig,
    /// Stochastic blackout process, per node: mean gap between blackouts,
    /// duration range, and the service-time multiplier while dark. The
    /// default (25x for 0.4–1.5 s every ~6 s somewhere in the fleet)
    /// makes a dark node time out nearly every request routed to it.
    pub blackout: EpisodeSpec,
    /// Deterministic blackout windows ([`FaultKind::Slow`] episodes)
    /// layered on top of the flux.
    pub scripted_blackouts: Vec<FaultEvent>,
}

impl Default for PartitionFluxConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            blackout: EpisodeSpec {
                mean_interval_ms: 6_000.0,
                min_duration_ms: 400.0,
                max_duration_ms: 1_500.0,
                multiplier: 25.0,
                iowait: 0.95,
            },
            // Two hard partitions early in the run: node 0 goes dark for a
            // second, then node 1 — exercising detect → avoid → recover
            // twice, deterministically, in every run length.
            scripted_blackouts: vec![
                FaultEvent {
                    node: 0,
                    kind: FaultKind::Slow,
                    start: Nanos::from_millis(500),
                    end: Nanos::from_millis(1_500),
                    magnitude: 40.0,
                },
                FaultEvent {
                    node: 1,
                    kind: FaultKind::Slow,
                    start: Nanos::from_millis(2_000),
                    end: Nanos::from_millis(2_800),
                    magnitude: 40.0,
                },
            ],
        }
    }
}

impl PartitionFluxConfig {
    /// The cluster config with blackout flux installed: GC/compaction
    /// noise is switched off so partitions are the only stressor, the
    /// stochastic blackout rides on the perturbation machinery's
    /// `slowdown` class, and the scripted windows are appended to the
    /// fault plan.
    pub(crate) fn apply(&self) -> ClusterConfig {
        assert!(self.blackout.multiplier > 1.0, "a blackout must slow reads");
        let mut cfg = self.cluster.clone();
        let off = PerturbationSpec::none();
        cfg.perturbations = PerturbationSpec {
            gc: off.gc,
            compaction: off.compaction,
            slowdown: self.blackout,
        };
        cfg.faults.events.extend(&self.scripted_blackouts);
        cfg
    }
}

/// Run a partition/flux config to completion. Attach a recorder via
/// [`RunOptions::recorded`] to capture the read lifecycle trace and
/// decision snapshots; the report is bit-identical either way.
///
/// # Panics
///
/// Panics when the configured strategy is unknown or needs
/// simulator-global state (`ORA`).
pub(crate) fn run(cfg: &PartitionFluxConfig, options: RunOptions) -> RunOutput {
    cluster_backed::run(super::PARTITION_FLUX, cfg.apply(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_engine::Strategy;

    fn small(strategy: Strategy) -> PartitionFluxConfig {
        let mut cfg = PartitionFluxConfig::default();
        cfg.cluster.nodes = 9;
        cfg.cluster.generators = 30;
        cfg.cluster.total_ops = 6_000;
        cfg.cluster.warmup_ops = 500;
        cfg.cluster.keys = 50_000;
        cfg.cluster.strategy = strategy;
        cfg.cluster.seed = 5;
        cfg
    }

    #[test]
    fn apply_disables_other_noise_and_installs_blackouts() {
        let cfg = PartitionFluxConfig::default();
        let applied = cfg.apply();
        assert!(!applied.perturbations.gc.mean_interval_ms.is_finite());
        assert!(!applied
            .perturbations
            .compaction
            .mean_interval_ms
            .is_finite());
        assert_eq!(applied.perturbations.slowdown.multiplier, 25.0);
        assert_eq!(applied.faults.events, cfg.scripted_blackouts);
    }

    #[test]
    fn blackouts_raise_the_tail_over_a_quiet_fleet() {
        let flux = small(Strategy::lor());
        let mut quiet = small(Strategy::lor());
        quiet.blackout.mean_interval_ms = f64::INFINITY;
        quiet.blackout.min_duration_ms = 0.0;
        quiet.blackout.max_duration_ms = 0.0;
        quiet.scripted_blackouts.clear();
        let dark = run(&flux, RunOptions::default()).report;
        let calm = run(&quiet, RunOptions::default()).report;
        assert!(
            dark.headline().summary.p999_ns > calm.headline().summary.p999_ns,
            "blackouts must show up in the tail: {} vs {}",
            dark.headline().summary.p999_ns,
            calm.headline().summary.p999_ns
        );
    }

    #[test]
    fn c3_completes_and_reports_under_flux() {
        let report = run(&small(Strategy::c3()), RunOptions::default()).report;
        assert_eq!(report.total_completions(), 5_500);
        assert_eq!(report.headline().name, "read");
    }
}
