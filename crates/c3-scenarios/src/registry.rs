//! The scenario registry: named workloads, runnable by `(strategy, seed)`,
//! with parallel sweeps.
//!
//! Mirrors the engine's `StrategyRegistry` on the workload axis: where
//! that table resolves *how to pick replicas*, this one resolves *what the
//! world does* — and the cross product of the two is the experiment matrix
//! the bench harness sweeps.

use std::collections::BTreeMap;
use std::fmt;

use c3_engine::{fan_out, Strategy, StrategyRegistry};
use c3_telemetry::Recorder;

use crate::options::{RunOptions, RunOutput, RunTuning};
use crate::report::ScenarioReport;
use crate::{faults, hetero, mega_fleet, multi_tenant, partition, scenario_registry};
use crate::{CRASH_FLUX, FLAKY_NET, HETERO_FLEET, MEGA_FLEET, MULTI_TENANT, PARTITION_FLUX};

/// Everything a scenario needs to produce one run.
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Strategy under test, by registry name.
    pub strategy: Strategy,
    /// RNG seed; a `(scenario, strategy, seed, ops)` tuple fully
    /// determines a run.
    pub seed: u64,
    /// Total operations/requests of the run.
    pub ops: u64,
    /// Operations excluded from latency measurement while state warms up.
    pub warmup: u64,
    /// Cap on the scenarios' keyspace (`None` keeps each scenario's
    /// configured default — the stock cluster uses 10 M keys, whose
    /// Zipf table dominates a short run's build time).
    pub keys: Option<u64>,
    /// Per-run tuning knobs (offered rate, exact percentiles); see
    /// [`RunTuning`].
    pub tuning: RunTuning,
}

impl ScenarioParams {
    /// Params at the scenario smoke scale (40k ops, 5% warm-up).
    pub fn new(strategy: Strategy, seed: u64) -> Self {
        Self::sized(strategy, seed, 40_000)
    }

    /// Params with an explicit operation count (warm-up = 5%) and the
    /// keyspace capped at 1 M keys so sweep cells stay cheap to build;
    /// set [`ScenarioParams::keys`] to `None` for full-keyspace runs.
    pub fn sized(strategy: Strategy, seed: u64, ops: u64) -> Self {
        Self {
            strategy,
            seed,
            ops,
            warmup: ops / 20,
            keys: Some(1_000_000),
            tuning: RunTuning::default(),
        }
    }

    /// Params with explicit tuning knobs attached.
    pub fn tuned(strategy: Strategy, seed: u64, ops: u64, tuning: RunTuning) -> Self {
        Self {
            tuning,
            ..Self::sized(strategy, seed, ops)
        }
    }
}

/// Why a scenario run could not be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The scenario name is not registered.
    UnknownScenario(String),
    /// The strategy name does not resolve in the strategy registry.
    UnknownStrategy(String),
    /// The strategy resolves, but this scenario's frontend cannot drive it
    /// (the `ORA` baseline needs simulator-global state only the
    /// multi-tenant frontend provides).
    UnsupportedStrategy {
        /// Scenario that rejected the strategy.
        scenario: String,
        /// The rejected strategy name.
        strategy: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownScenario(name) => write!(f, "unknown scenario {name:?}"),
            ScenarioError::UnknownStrategy(name) => write!(f, "unknown strategy {name:?}"),
            ScenarioError::UnsupportedStrategy { scenario, strategy } => {
                write!(
                    f,
                    "scenario {scenario:?} cannot drive strategy {strategy:?}"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

type ScenarioFn =
    Box<dyn Fn(&ScenarioParams, RunOptions) -> Result<RunOutput, ScenarioError> + Send + Sync>;

/// A stock scenario's entry: params, the resolved strategy table and the
/// run options in, the run's output back.
type StockFn =
    fn(&ScenarioParams, &StrategyRegistry, RunOptions) -> Result<RunOutput, ScenarioError>;

/// Name → runnable-workload table.
pub struct ScenarioRegistry {
    entries: BTreeMap<String, ScenarioFn>,
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The library's stock scenarios: [`MULTI_TENANT`], [`MEGA_FLEET`],
    /// [`HETERO_FLEET`], [`PARTITION_FLUX`], [`CRASH_FLUX`] and
    /// [`FLAKY_NET`], each at its default shape scaled by
    /// [`ScenarioParams::ops`].
    pub fn with_defaults() -> Self {
        let mut reg = Self::empty();
        reg.register_stock(MEGA_FLEET, |p, strategies, options| {
            Ok(mega_fleet::run(mega_fleet_cfg(p), strategies, options))
        });
        reg.register_stock(MULTI_TENANT, |p, strategies, options| {
            Ok(multi_tenant::run(multi_tenant_cfg(p), strategies, options))
        });
        reg.register_stock(HETERO_FLEET, |p, strategies, options| {
            let mut cfg = hetero::HeteroFleetConfig::default();
            apply_cluster_params(&mut cfg.cluster, p, HETERO_FLEET)?;
            Ok(hetero::run(&cfg, strategies, options))
        });
        reg.register_stock(PARTITION_FLUX, |p, strategies, options| {
            let mut cfg = partition::PartitionFluxConfig::default();
            apply_cluster_params(&mut cfg.cluster, p, PARTITION_FLUX)?;
            Ok(partition::run(&cfg, strategies, options))
        });
        reg.register_stock(CRASH_FLUX, |p, strategies, options| {
            let mut cfg = faults::FaultFluxConfig::crash_flux();
            apply_cluster_params(&mut cfg.cluster, p, CRASH_FLUX)?;
            Ok(faults::run(&cfg, strategies, options))
        });
        reg.register_stock(FLAKY_NET, |p, strategies, options| {
            let mut cfg = faults::FaultFluxConfig::flaky_net();
            apply_cluster_params(&mut cfg.cluster, p, FLAKY_NET)?;
            Ok(faults::run(&cfg, strategies, options))
        });
        reg
    }

    /// Register a stock scenario: resolve the strategy against
    /// [`scenario_registry`], then run with whatever options ride along.
    fn register_stock(&mut self, name: &str, run: StockFn) {
        self.entries.insert(
            name.to_string(),
            Box::new(move |p, options| {
                let strategies = scenario_registry();
                if !strategies.contains(&p.strategy) {
                    return Err(ScenarioError::UnknownStrategy(p.strategy.name().into()));
                }
                run(p, &strategies, options)
            }),
        );
    }

    /// Register (or replace) a named scenario. A plain registration knows
    /// nothing of [`RunOptions`]: under [`ScenarioRegistry::run_recorded`]
    /// it runs unrecorded and the recorder comes back untouched.
    pub fn register<F>(&mut self, name: impl Into<String>, run: F)
    where
        F: Fn(&ScenarioParams) -> Result<ScenarioReport, ScenarioError> + Send + Sync + 'static,
    {
        self.entries.insert(
            name.into(),
            Box::new(move |p, options| {
                Ok(RunOutput {
                    report: run(p)?,
                    recorder: options.recorder,
                })
            }),
        );
    }

    /// Whether a scenario name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    fn run_with(
        &self,
        name: &str,
        params: &ScenarioParams,
        options: RunOptions,
    ) -> Result<RunOutput, ScenarioError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| ScenarioError::UnknownScenario(name.to_string()))?;
        entry(params, options)
    }

    /// Run one scenario by name.
    pub fn run(
        &self,
        name: &str,
        params: &ScenarioParams,
    ) -> Result<ScenarioReport, ScenarioError> {
        Ok(self.run_with(name, params, RunOptions::default())?.report)
    }

    /// Run one scenario by name with a flight recorder attached; the
    /// lifecycle trace comes back in the returned recorder. Recording is
    /// observation, not perturbation: the report is bit-identical to
    /// [`ScenarioRegistry::run`]'s.
    pub fn run_recorded(
        &self,
        name: &str,
        params: &ScenarioParams,
        recorder: Recorder,
    ) -> Result<(ScenarioReport, Recorder), ScenarioError> {
        let out = self.run_with(name, params, RunOptions::recorded(recorder))?;
        let recorder = out.recorder.expect("every entry hands the recorder back");
        Ok((out.report, recorder))
    }

    /// Sweep the full `scenarios × strategies × seeds` matrix, fanning the
    /// independent runs out over up to `threads` worker threads.
    ///
    /// Results come back in matrix order (scenario-major, then strategy,
    /// then seed) and are bit-identical for any thread count — each run is
    /// a pure function of its `(scenario, strategy, seed, ops)` cell.
    /// Unsupported cells (e.g. `ORA` on a cluster-backed scenario) come
    /// back as errors rather than aborting the sweep.
    pub fn sweep(
        &self,
        scenarios: &[&str],
        strategies: &[Strategy],
        seeds: &[u64],
        ops: u64,
        threads: usize,
    ) -> Vec<Result<ScenarioReport, ScenarioError>> {
        let cells: Vec<(&str, &Strategy, u64)> = scenarios
            .iter()
            .flat_map(|&sc| {
                strategies
                    .iter()
                    .flat_map(move |st| seeds.iter().map(move |&seed| (sc, st, seed)))
            })
            .collect();
        fan_out(cells.len(), threads, |i| {
            let (scenario, strategy, seed) = cells[i];
            self.run(
                scenario,
                &ScenarioParams::sized(strategy.clone(), seed, ops),
            )
        })
    }
}

/// Plumb the shared params into a mega-fleet config.
fn mega_fleet_cfg(p: &ScenarioParams) -> mega_fleet::MegaFleetConfig {
    let mut cfg = mega_fleet::MegaFleetConfig {
        total_requests: p.ops,
        warmup_requests: p.warmup,
        strategy: p.strategy.clone(),
        seed: p.seed,
        offered_rate: p.tuning.offered_rate,
        exact_latency: p.tuning.exact_latency,
        ..mega_fleet::MegaFleetConfig::default()
    };
    if let Some(keys) = p.keys {
        cfg.keys = cfg.keys.min(keys);
    }
    cfg
}

/// Plumb the shared params into a multi-tenant config.
fn multi_tenant_cfg(p: &ScenarioParams) -> multi_tenant::MultiTenantConfig {
    let mut cfg = multi_tenant::MultiTenantConfig {
        total_requests: p.ops,
        warmup_requests: p.warmup,
        strategy: p.strategy.clone(),
        seed: p.seed,
        offered_rate: p.tuning.offered_rate,
        exact_latency: p.tuning.exact_latency,
        ..multi_tenant::MultiTenantConfig::default()
    };
    if let Some(keys) = p.keys {
        cfg.keys = cfg.keys.min(keys);
    }
    cfg
}

/// Plumb the shared params into a cluster-backed scenario's config,
/// rejecting strategies the cluster frontend cannot drive.
fn apply_cluster_params(
    cfg: &mut c3_cluster::ClusterConfig,
    p: &ScenarioParams,
    scenario: &str,
) -> Result<(), ScenarioError> {
    if p.strategy.is_oracle() {
        return Err(ScenarioError::UnsupportedStrategy {
            scenario: scenario.to_string(),
            strategy: p.strategy.name().to_string(),
        });
    }
    cfg.total_ops = p.ops;
    cfg.warmup_ops = p.warmup;
    cfg.strategy = p.strategy.clone();
    cfg.seed = p.seed;
    cfg.offered_rate = p.tuning.offered_rate;
    cfg.exact_latency = p.tuning.exact_latency;
    if let Some(keys) = p.keys {
        cfg.keys = cfg.keys.min(keys);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_lists_all_scenarios() {
        let reg = ScenarioRegistry::with_defaults();
        assert_eq!(
            reg.names(),
            vec![
                CRASH_FLUX,
                FLAKY_NET,
                HETERO_FLEET,
                MEGA_FLEET,
                MULTI_TENANT,
                PARTITION_FLUX
            ]
        );
        assert!(reg.contains(MULTI_TENANT));
        assert!(!reg.contains("nope"));
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let reg = ScenarioRegistry::with_defaults();
        let err = reg
            .run("nope", &ScenarioParams::new(Strategy::c3(), 1))
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownScenario("nope".into()));
        let err = reg
            .run(
                MULTI_TENANT,
                &ScenarioParams::new(Strategy::named("NoSuch"), 1),
            )
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownStrategy("NoSuch".into()));
    }

    #[test]
    fn oracle_is_unsupported_on_cluster_backed_scenarios_only() {
        let reg = ScenarioRegistry::with_defaults();
        let p = ScenarioParams::sized(Strategy::oracle(), 1, 4_000);
        for name in [HETERO_FLEET, PARTITION_FLUX, CRASH_FLUX, FLAKY_NET] {
            match reg.run(name, &p) {
                Err(ScenarioError::UnsupportedStrategy { scenario, strategy }) => {
                    assert_eq!(scenario, name);
                    assert_eq!(strategy, "ORA");
                }
                other => panic!("expected UnsupportedStrategy, got {other:?}"),
            }
        }
        let report = reg.run(MULTI_TENANT, &p).expect("MT provides global state");
        assert_eq!(report.strategy, "ORA");
    }

    #[test]
    fn every_scenario_runs_c3_by_name() {
        let reg = ScenarioRegistry::with_defaults();
        for name in reg.names() {
            let report = reg
                .run(name, &ScenarioParams::sized(Strategy::c3(), 2, 4_000))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.scenario, name);
            assert!(report.total_completions() > 0);
        }
    }

    #[test]
    fn no_dead_events_across_the_scenario_library() {
        // Every fire-and-filter timer source is gone: speculative checks
        // are cancelled on completion, backlog retries on drain. Sweep
        // the library with the two backpressure-capable strategies (the
        // only ones that schedule retry timers) and assert zero dead
        // events everywhere.
        let reg = ScenarioRegistry::with_defaults();
        for name in reg.names() {
            for strategy in [Strategy::c3(), Strategy::round_robin()] {
                let report = reg
                    .run(name, &ScenarioParams::sized(strategy.clone(), 3, 4_000))
                    .unwrap_or_else(|e| panic!("{name}/{strategy}: {e}"));
                assert_eq!(
                    report.dead_events, 0,
                    "{name}/{strategy}: dead events must stay zero"
                );
            }
        }

        // Default rates rarely bind at smoke scale, so force backpressure
        // with a severely under-provisioned cap to prove the retry
        // cancellation path actually runs — and still leaves no dead event.
        let mut tight = multi_tenant::MultiTenantConfig {
            total_requests: 4_000,
            warmup_requests: 200,
            clients: 4, // concentrate demand on few limiters
            seed: 3,
            ..Default::default()
        };
        // A sub-1.0 floor is usable since the limiter accumulates
        // fractional tokens across windows (it used to starve: a window
        // refilled *to* `srate` tokens and a send needs a whole one).
        tight.c3.initial_rate = 0.5;
        tight.c3.min_rate = 0.5;
        tight.c3.smax = 0.2;
        let report = multi_tenant::run(tight, &scenario_registry(), RunOptions::default()).report;
        assert!(
            report.events_cancelled > 0,
            "tight rate cap must exercise retry-timer cancellation"
        );
        assert_eq!(
            report.dead_events, 0,
            "cancellation must leave no dead retry"
        );
    }

    #[test]
    fn offered_rate_paces_cluster_backed_scenarios() {
        // The same cell, closed-loop vs open-loop at a binding rate: the
        // paced run's measured window must stretch to ~ops/rate.
        let reg = ScenarioRegistry::with_defaults();
        let closed = reg
            .run(
                HETERO_FLEET,
                &ScenarioParams::sized(Strategy::c3(), 2, 4_000),
            )
            .unwrap();
        let open = reg
            .run(
                HETERO_FLEET,
                &ScenarioParams::tuned(
                    Strategy::c3(),
                    2,
                    4_000,
                    RunTuning {
                        offered_rate: Some(2_000.0),
                        ..RunTuning::default()
                    },
                ),
            )
            .unwrap();
        assert_eq!(open.total_completions(), closed.total_completions());
        assert!(
            open.duration > closed.duration,
            "pacing at 2k/s must out-last the closed loop: {:?} vs {:?}",
            open.duration,
            closed.duration
        );
    }

    #[test]
    fn exact_latency_flag_reaches_every_backend() {
        // Exact percentiles change summaries (order statistics vs bucket
        // midpoints) without changing the run itself.
        let reg = ScenarioRegistry::with_defaults();
        for name in reg.names() {
            let plain = reg
                .run(name, &ScenarioParams::sized(Strategy::lor(), 4, 3_000))
                .unwrap();
            let exact = reg
                .run(
                    name,
                    &ScenarioParams::tuned(
                        Strategy::lor(),
                        4,
                        3_000,
                        RunTuning {
                            exact_latency: true,
                            ..RunTuning::default()
                        },
                    ),
                )
                .unwrap();
            assert_eq!(
                plain.events_processed, exact.events_processed,
                "{name}: the flag must not perturb the simulation"
            );
            assert_eq!(plain.total_completions(), exact.total_completions());
            // And the flag must actually do its job: some reported
            // percentile must move off its streaming-histogram bucket
            // midpoint onto the exact order statistic. A backend that
            // silently drops `with_exact_latency` fails here.
            let differs = plain.channels.iter().zip(&exact.channels).any(|(p, e)| {
                p.summary.p50_ns != e.summary.p50_ns
                    || p.summary.p95_ns != e.summary.p95_ns
                    || p.summary.p99_ns != e.summary.p99_ns
                    || p.summary.p999_ns != e.summary.p999_ns
                    || p.summary.max_ns != e.summary.max_ns
            });
            assert!(
                differs,
                "{name}: exact summaries must differ from bucketed ones"
            );
        }
    }

    #[test]
    fn recorded_runs_are_bit_identical_and_carry_a_trace() {
        // Every stock scenario records, and attaching a flight recorder
        // is pure observation: same fingerprint, same event count, plus a
        // non-empty lifecycle trace to attribute.
        let reg = ScenarioRegistry::with_defaults();
        for name in reg.names() {
            let p = ScenarioParams::sized(Strategy::c3(), 2, 4_000);
            let plain = reg.run(name, &p).unwrap();
            let (recorded, rec) = reg
                .run_recorded(name, &p, Recorder::with_default_capacity())
                .unwrap();
            assert_eq!(
                plain.fingerprint(),
                recorded.fingerprint(),
                "{name}: the recorder must not perturb the run"
            );
            assert_eq!(plain.events_processed, recorded.events_processed);
            assert!(!rec.is_empty(), "{name}: recorder captured no events");
        }
    }

    #[test]
    fn run_recorded_falls_back_to_plain_entries() {
        let mut reg = ScenarioRegistry::empty();
        reg.register(MULTI_TENANT, |p: &ScenarioParams| {
            let cfg = super::multi_tenant_cfg(p);
            Ok(multi_tenant::run(cfg, &scenario_registry(), RunOptions::default()).report)
        });
        let p = ScenarioParams::sized(Strategy::lor(), 1, 3_000);
        let (report, rec) = reg
            .run_recorded(MULTI_TENANT, &p, Recorder::with_default_capacity())
            .unwrap();
        assert!(report.total_completions() > 0);
        assert!(rec.is_empty(), "fallback must leave the recorder untouched");
    }

    #[test]
    fn sweep_is_matrix_ordered_and_thread_invariant() {
        let reg = ScenarioRegistry::with_defaults();
        let strategies = [Strategy::c3(), Strategy::lor()];
        let seeds = [1, 2];
        let serial = reg.sweep(&[MULTI_TENANT], &strategies, &seeds, 3_000, 1);
        let parallel = reg.sweep(&[MULTI_TENANT], &strategies, &seeds, 3_000, 4);
        assert_eq!(serial.len(), 4);
        let fp = |runs: &[Result<ScenarioReport, ScenarioError>]| -> Vec<u64> {
            runs.iter()
                .map(|r| r.as_ref().expect("run failed").fingerprint())
                .collect()
        };
        assert_eq!(fp(&serial), fp(&parallel));
        let order: Vec<(String, u64)> = serial
            .iter()
            .map(|r| {
                let r = r.as_ref().unwrap();
                (r.strategy.clone(), r.seed)
            })
            .collect();
        assert_eq!(
            order,
            vec![
                ("C3".into(), 1),
                ("C3".into(), 2),
                ("LOR".into(), 1),
                ("LOR".into(), 2)
            ]
        );
    }
}
