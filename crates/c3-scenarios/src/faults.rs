//! Fault-injection scenarios: `crash-flux` and `flaky-net`.
//!
//! Where [`crate::PartitionFluxConfig`] makes replicas *slow* enough to be
//! useless, these scenarios make them *fail*: requests vanish into crashed
//! nodes, connections reset, responses get dropped or lag behind. Both
//! replay a deterministic [`FaultPlan`] — the same seeded timeline the
//! live backend replays against wall time — on top of a cluster whose
//! request lifecycle is hardened: per-read deadlines, bounded retry with
//! backoff to a different replica, and RepNet-style hedging. The contrast
//! under test is the paper's robustness story taken one step further than
//! §5 goes: a selection strategy alone cannot bound the tail when a
//! replica silently eats requests; deadlines + retries + hedging can, and
//! the reports carry the `timeouts`/`parked` tallies that prove it.

use c3_cluster::{ClusterConfig, FaultEvent, FaultPlan, PerturbationSpec};
use c3_core::{LifecycleConfig, Nanos};

use crate::cluster_backed;
use crate::options::{RunOptions, RunOutput};

/// Which fault timeline a [`FaultFluxConfig`] replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultFlavor {
    /// Whole-node crash/restart windows ([`FaultPlan::crash_flux`]): at
    /// most one node down at a time, so a hardened client can always
    /// finish on the surviving replicas.
    CrashFlux,
    /// Connection resets, dropped responses and delayed responses
    /// ([`FaultPlan::flaky_net`]): the node is up, the network lies.
    FlakyNet,
}

/// Configuration of a fault-injection run.
#[derive(Clone, Debug)]
pub struct FaultFluxConfig {
    /// The underlying cluster. Its `perturbations`, `faults` and
    /// `lifecycle` fields are overwritten by [`FaultFluxConfig::apply`].
    pub cluster: ClusterConfig,
    /// Which fault timeline to generate.
    pub flavor: FaultFlavor,
    /// Horizon the seeded plan is generated over. Episodes past the run's
    /// natural end are inert, so a generous span works at every sweep
    /// scale.
    pub span: Nanos,
    /// Deterministic early episodes layered under the seeded plan, so
    /// even the shortest smoke run meets a fault (the seeded generators
    /// keep a few hundred milliseconds of quiet lead-in). Episodes naming
    /// nodes outside the cluster are skipped.
    pub early: Vec<FaultEvent>,
    /// Lifecycle hardening installed on the cluster (deadline, retries,
    /// hedging, failure detector).
    pub lifecycle: LifecycleConfig,
}

impl FaultFluxConfig {
    /// The `crash-flux` scenario: nodes crash and restart one at a time,
    /// with the lifecycle hardening on (75 ms deadline, 3 retries, 30 ms
    /// hedge) so runs complete despite requests vanishing.
    pub fn crash_flux() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            flavor: FaultFlavor::CrashFlux,
            span: Nanos::from_secs(60),
            early: FaultPlan::CRASH_FLUX_EARLY.to_vec(),
            lifecycle: LifecycleConfig::hardened(
                Nanos::from_millis(75),
                3,
                Some(Nanos::from_millis(30)),
            ),
        }
    }

    /// The `flaky-net` scenario: resets, drops and delays with the
    /// lifecycle hardening on (100 ms deadline to ride out the injected
    /// 20–80 ms response lag, 3 retries, 50 ms hedge).
    pub fn flaky_net() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            flavor: FaultFlavor::FlakyNet,
            span: Nanos::from_secs(60),
            early: FaultPlan::FLAKY_NET_EARLY.to_vec(),
            lifecycle: LifecycleConfig::hardened(
                Nanos::from_millis(100),
                3,
                Some(Nanos::from_millis(50)),
            ),
        }
    }

    /// The cluster config with the fault plan and lifecycle hardening
    /// installed: perturbation noise is switched off so injected faults
    /// are the only stressor, the seeded plan is generated from the
    /// cluster's own `(seed, nodes)` — a `(scenario, strategy, seed)`
    /// cell fully determines the fault timeline — and the early episodes
    /// are layered in.
    pub fn apply(&self) -> ClusterConfig {
        let mut cfg = self.cluster.clone();
        cfg.perturbations = PerturbationSpec::none();
        let mut plan = match self.flavor {
            FaultFlavor::CrashFlux => FaultPlan::crash_flux(cfg.seed, cfg.nodes, self.span),
            FaultFlavor::FlakyNet => FaultPlan::flaky_net(cfg.seed, cfg.nodes, self.span),
        };
        plan.layer(&self.early, cfg.nodes);
        cfg.faults = plan;
        cfg.lifecycle = self.lifecycle;
        cfg
    }

    /// The registry name this config runs under.
    pub fn name(&self) -> &'static str {
        match self.flavor {
            FaultFlavor::CrashFlux => crate::CRASH_FLUX,
            FaultFlavor::FlakyNet => crate::FLAKY_NET,
        }
    }
}

/// Run a fault-injection config to completion. Attach a recorder via
/// [`RunOptions::recorded`] to capture the hardened lifecycle trace
/// (timeouts, retries, hedges, evictions); the report is bit-identical
/// either way.
///
/// # Panics
///
/// Panics when the configured strategy is unknown or needs
/// simulator-global state (`ORA`).
pub fn run(cfg: &FaultFluxConfig, options: RunOptions) -> RunOutput {
    cluster_backed::run(cfg.name(), cfg.apply(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_engine::Strategy;

    fn small(mut cfg: FaultFluxConfig, strategy: Strategy) -> FaultFluxConfig {
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
    fn apply_installs_plan_and_hardening() {
        let cfg = FaultFluxConfig::crash_flux();
        let applied = cfg.apply();
        assert!(!applied.faults.is_empty());
        assert_eq!(applied.lifecycle.deadline, Some(Nanos::from_millis(75)));
        assert_eq!(applied.lifecycle.retries, 3);
        assert!(applied.lifecycle.hedge_after.is_some());
        assert!(!applied.perturbations.gc.mean_interval_ms.is_finite());
        // The early crash rides under the seeded plan's quiet lead-in.
        assert!(applied
            .faults
            .events
            .iter()
            .any(|e| e.start < Nanos::from_millis(100)));
        applied.validate();
    }

    #[test]
    fn crash_flux_times_out_and_recovers() {
        // Hedging off: reads into the crash window must ride the
        // timeout → retry path instead of being rescued early.
        let mut cfg = small(FaultFluxConfig::crash_flux(), Strategy::c3());
        cfg.lifecycle.hedge_after = None;
        let report = run(&cfg, RunOptions::default()).report;
        assert_eq!(report.scenario, crate::CRASH_FLUX);
        assert!(report.timeouts > 0, "crashes must cause deadline expiries");
        assert!(report.total_completions() > 0);
        assert_eq!(report.dead_events, 0);

        // With the default hedge on, the hedge fires (30 ms) well before
        // the deadline (75 ms) and absorbs most expiries.
        let hedged = run(
            &small(FaultFluxConfig::crash_flux(), Strategy::c3()),
            RunOptions::default(),
        )
        .report;
        assert!(
            hedged.timeouts < report.timeouts,
            "hedging must absorb deadline expiries: {} vs {}",
            hedged.timeouts,
            report.timeouts
        );
    }

    #[test]
    fn flaky_net_times_out_and_recovers() {
        let cfg = small(FaultFluxConfig::flaky_net(), Strategy::dynamic_snitching());
        let report = run(&cfg, RunOptions::default()).report;
        assert_eq!(report.scenario, crate::FLAKY_NET);
        assert!(report.timeouts > 0, "drops must cause deadline expiries");
        assert!(report.total_completions() > 0);
        assert_eq!(report.dead_events, 0);
    }

    #[test]
    fn naked_deadline_parks_what_retries_rescue() {
        let mut naked = small(FaultFluxConfig::crash_flux(), Strategy::lor());
        naked.lifecycle.retries = 0;
        naked.lifecycle.hedge_after = None;
        let hardened = small(FaultFluxConfig::crash_flux(), Strategy::lor());
        let parked = run(&naked, RunOptions::default()).report.parked;
        let rescued = run(&hardened, RunOptions::default()).report.parked;
        assert!(parked > 0, "a crash window must park naked reads");
        assert!(
            rescued < parked,
            "retries + hedging must rescue parked reads: {rescued} vs {parked}"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let cfg = small(FaultFluxConfig::flaky_net(), Strategy::c3());
        let a = run(&cfg, RunOptions::default()).report;
        let b = run(&cfg, RunOptions::default()).report;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
