//! The run plumbing shared by every scenario that is a configuration of
//! the §5 coordinator cluster (`hetero-fleet`, `partition-flux`,
//! `crash-flux`, `flaky-net`): each lowers its own config to a
//! [`ClusterConfig`] and hands it here.

use c3_cluster::{ClusterConfig, ClusterScenario};
use c3_engine::ScenarioRunner;

use crate::options::{RunOptions, RunOutput};
use crate::report::ScenarioReport;

/// Run `cfg` to completion under the registry name `scenario`. A recorder
/// in `options` captures the read lifecycle trace and decision snapshots;
/// the report is bit-identical either way.
///
/// # Panics
///
/// Panics when the configured strategy is unknown or needs
/// simulator-global state (`ORA`).
pub(crate) fn run(scenario: &str, cfg: ClusterConfig, options: RunOptions) -> RunOutput {
    let runner = ScenarioRunner::new(cfg.seed)
        .with_warmup(cfg.warmup_ops)
        .with_exact_latency_if(cfg.exact_latency);
    let (strategy, seed) = (cfg.strategy.clone(), cfg.seed);
    let (nodes, load_window) = (cfg.nodes, cfg.load_window);
    let mut cluster = ClusterScenario::new(cfg);
    if let Some(rec) = options.recorder {
        cluster.set_recorder(rec);
    }
    let (metrics, stats) = runner.run(&mut cluster, nodes, load_window);
    let life = cluster.lifecycle_counts();
    let report = ScenarioReport::from_metrics(scenario, &strategy, seed, &metrics, &stats)
        .with_dead_events(cluster.dead_events())
        .with_lifecycle(life.timeouts, life.parked);
    RunOutput {
        report,
        recorder: cluster.take_recorder(),
    }
}
