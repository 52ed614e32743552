//! The engine/registry face of the live backend.
//!
//! `LiveScenario` implements the engine's `Scenario` trait so a socket
//! run rides the exact same plumbing as the simulators: the
//! `ScenarioRunner` owns the metrics, and the run reports through the
//! same named channels (`read`/`update`) the §5 cluster declares. The
//! whole live run executes inside the scenario's single event — real
//! sockets cannot be event-stepped, but the connection readers can fold
//! their completions into the event's `RunMetrics` as they happen, a
//! batch at a time, which is all the uniform reporting needs.
//!
//! [`register_live_scenarios`] then mirrors the sim-backed scenario
//! library on the live axis: `live-hetero-fleet` and
//! `live-partition-flux` are the same adversity scripts, replayed against
//! wall time over loopback, selectable by name through the ordinary
//! `ScenarioRegistry` — `sweep` and every other caller work unchanged.

use std::time::Duration;

use c3_cluster::{FaultEvent, FaultKind, FaultPlan, CLUSTER_CHANNELS};
use c3_core::{LifecycleConfig, LifecycleCounts, Nanos, RateStats};
use c3_engine::{ChannelSet, EventQueue, RunMetrics, Scenario, ScenarioRunner};
use c3_metrics::{LatencySummary, LogHistogram};
use c3_scenarios::{
    ChannelReport, ScenarioError, ScenarioParams, ScenarioRegistry, ScenarioReport,
};
use c3_telemetry::Recorder;

use crate::client::{execute_on, ClientArtifacts, Transport};
use crate::config::LiveConfig;

/// Registry name of the live heterogeneous-fleet scenario.
pub const LIVE_HETERO_FLEET: &str = "live-hetero-fleet";
/// Registry name of the live partition/flux scenario.
pub const LIVE_PARTITION_FLUX: &str = "live-partition-flux";
/// Registry name of the live crash/restart fault scenario.
pub const LIVE_CRASH_FLUX: &str = "live-crash-flux";
/// Registry name of the live flaky-network fault scenario.
pub const LIVE_FLAKY_NET: &str = "live-flaky-net";

/// Gauge-series name of the in-flight occupancy health channel.
pub(crate) const HEALTH_INFLIGHT: &str = "inflight";
/// Gauge-series name of the feedback-update latency health channel.
pub(crate) const HEALTH_FEEDBACK_LAG: &str = "feedback-lag";

/// A live run as an engine scenario: one event, inside which the socket
/// cluster spins up and the workers run to the stop condition, every
/// completion landing in the runner's metrics.
struct LiveScenario {
    cfg: LiveConfig,
    transport: Transport,
    artifacts: Option<ClientArtifacts>,
}

impl Scenario for LiveScenario {
    type Event = ();

    fn channels(&self) -> ChannelSet {
        ChannelSet::of(CLUSTER_CHANNELS)
    }

    fn start(&mut self, engine: &mut EventQueue<()>) {
        engine.schedule(Nanos::ZERO, ());
    }

    fn handle(
        &mut self,
        _event: (),
        _now: Nanos,
        _engine: &mut EventQueue<()>,
        metrics: &mut RunMetrics,
    ) {
        let artifacts = execute_on(&self.cfg, &self.transport, metrics).expect("live run failed");
        self.artifacts = Some(artifacts);
    }

    fn is_done(&self, _metrics: &RunMetrics) -> bool {
        self.artifacts.is_some()
    }
}

/// Result of one live run: the uniform report plus the live-only
/// artifacts the parity harness compares.
#[derive(Debug)]
pub struct LiveReport {
    /// The same shape every sim scenario reports.
    pub report: ScenarioReport,
    /// `(elapsed, per-replica C3 scores)` sampled at response time
    /// (C3-family strategies only).
    pub score_trace: Vec<(Nanos, Vec<f64>)>,
    /// Times a worker parked on `Selection::Backpressure`.
    pub backpressure_waits: u64,
    /// Nanoseconds the issuers slept out backpressure, summed over them.
    pub backpressure_sleep_ns: u64,
    /// The C3 rate limiters' decreases, increases and throttled sends,
    /// summed over servers (zeros for strategies without rate control).
    pub rate_stats: RateStats,
    /// Operations issued (including unmeasured warm-up).
    pub ops_issued: u64,
    /// The lifecycle ledger (deadlines, retries, hedges, evictions) — the
    /// same one the cluster simulator reports; all zero when the
    /// hardening knobs are off. The `timeouts`/`parked` pair also lands
    /// in [`LiveReport::report`], where it is fingerprinted like the sim's.
    pub lifecycle: LifecycleCounts,
    /// Connections redialed after a mid-run death — what only a real
    /// transport can exhibit, so it rides beside the shared ledger.
    pub reconnects: u64,
    /// Client-health summaries, `ChannelReport`-shaped but deliberately
    /// *outside* [`LiveReport::report`]'s channels: the SLO machinery
    /// sums throughput and completions over all report channels, and
    /// these are diagnostics, not workload. Each is read from a
    /// [`LogHistogram`] that saw every sample of the run, so `completions`
    /// is the full sample count and the percentiles are histogram
    /// quantiles (within 0.78% of the true value, exact below 128).
    ///
    /// - `"inflight"`: in-flight occupancy sampled at every issue — the
    ///   `*_ns` fields hold raw **counts**, not times. An occupancy
    ///   percentile pinned at the in-flight budget means the client was
    ///   the bottleneck (client-bound); a fleet-bound run keeps headroom.
    /// - `"feedback-lag"`: nanoseconds a reader thread spent folding one
    ///   read completion into selector state — the latency cost of the
    ///   selector's concurrency story, per update.
    pub health: Vec<ChannelReport>,
    /// The flight recorder the run's sampling paths drained into. Its
    /// `inflight` / `feedback-lag` gauge series are the
    /// two channels above *thinned* to one point per millisecond per
    /// thread — enough to plot, not what the summaries are computed from.
    pub recorder: Recorder,
}

/// Summarize a client-health histogram into a `ChannelReport`
/// ("throughput" = samples per second of measured run time).
fn health_channel(name: &str, hist: &LogHistogram, duration: Nanos) -> ChannelReport {
    let secs = duration.as_secs_f64();
    ChannelReport {
        name: name.to_string(),
        completions: hist.count(),
        throughput: if secs > 0.0 {
            hist.count() as f64 / secs
        } else {
            0.0
        },
        summary: LatencySummary::from_histogram(hist),
    }
}

/// Run a live config under a scenario name, through the engine runner.
///
/// Live runs in one process serialize on a global gate: a socket run
/// measures *wall time*, so two live cells sleeping real service times
/// on the same machine would inflate each other's tails. This is what
/// lets `ScenarioRegistry::sweep` fan live scenarios out like any other
/// cell — the sim cells parallelize, the live cells take turns.
///
/// # Panics
///
/// Panics when the strategy is unknown/unsupported or the loopback
/// cluster cannot be spawned.
pub fn run_live(scenario_name: &str, cfg: LiveConfig) -> LiveReport {
    run_live_on(scenario_name, cfg, Transport::InProcess)
}

/// [`run_live`] over an explicit [`Transport`] — the entry the node
/// coordinator uses to drive a multi-process fleet through the same
/// engine-runner plumbing (and the same wall-time gate).
///
/// # Panics
///
/// As [`run_live`]; additionally when a remote node's hello fails
/// verification (identity or config-digest mismatch).
pub fn run_live_on(scenario_name: &str, cfg: LiveConfig, transport: Transport) -> LiveReport {
    static LIVE_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _exclusive = LIVE_GATE.lock().unwrap_or_else(|poisoned| {
        // A panicked sibling run cannot corrupt the gate (it guards no
        // data); keep serializing.
        poisoned.into_inner()
    });
    let strategy = cfg.strategy.clone();
    let seed = cfg.seed;
    let replicas = cfg.replicas;
    let runner = ScenarioRunner::new(seed)
        .with_warmup(cfg.warmup_ops)
        .with_exact_latency_if(cfg.exact_latency);
    let mut scenario = LiveScenario {
        cfg,
        transport,
        artifacts: None,
    };
    let (metrics, stats) = runner.run(&mut scenario, replicas, Nanos::from_millis(100));
    let mut artifacts = scenario.artifacts.take().expect("run completed");
    let report = ScenarioReport::from_metrics(scenario_name, &strategy, seed, &metrics, &stats)
        .with_lifecycle(artifacts.lifecycle.timeouts, artifacts.lifecycle.parked);
    let health = vec![
        health_channel(HEALTH_INFLIGHT, &artifacts.inflight, report.duration),
        health_channel(
            HEALTH_FEEDBACK_LAG,
            &artifacts.feedback_lag,
            report.duration,
        ),
    ];
    LiveReport {
        report,
        score_trace: artifacts.recorder.take_score_trace(),
        backpressure_waits: artifacts.backpressure_waits,
        backpressure_sleep_ns: artifacts.backpressure_sleep_ns,
        rate_stats: artifacts.rate_stats,
        ops_issued: artifacts.issued,
        lifecycle: artifacts.lifecycle,
        reconnects: artifacts.reconnects,
        health,
        recorder: artifacts.recorder,
    }
}

/// The live hetero-fleet script: every third replica a permanent 3x tier
/// on SSD-class service times, matching the sim scenario's default shape.
///
/// History: while the client was single-in-flight-per-worker, this config
/// overrode the fleet to spinning disks and 24 worker threads — SSD sleeps
/// were so short that 8 one-at-a-time workers saturated the *client*
/// before the slow tier ever queued, and every strategy degenerated to
/// "whatever the client can push". The multiplexed client holds an
/// in-flight budget far beyond thread count, so the fleet is the
/// bottleneck again at SSD speeds and the override is gone; the slow tier
/// is queueing-decided, not client-decided.
pub fn hetero_fleet_config(params: &ScenarioParams) -> Result<LiveConfig, ScenarioError> {
    let mut cfg = base_config(LIVE_HETERO_FLEET, params)?;
    cfg.faults = FaultPlan::tiers(&[1.0, 1.0, 3.0], cfg.replicas);
    Ok(cfg)
}

/// The live partition/flux script: two scripted blackouts (`Slow`
/// windows) early in the run (replica 0, then replica 1), the same
/// detect → avoid → recover shape the sim scenario scripts.
pub fn partition_flux_config(params: &ScenarioParams) -> Result<LiveConfig, ScenarioError> {
    let mut cfg = base_config(LIVE_PARTITION_FLUX, params)?;
    let dark = |node, start, end| FaultEvent {
        node,
        kind: FaultKind::Slow,
        start: Nanos::from_millis(start),
        end: Nanos::from_millis(end),
        magnitude: 30.0,
    };
    cfg.faults.events = vec![dark(0, 250, 650), dark(1, 900, 1_300)];
    Ok(cfg)
}

/// The live crash-flux script: the same seeded [`FaultPlan::crash_flux`]
/// timeline the sim scenario replays as engine events, replayed by the
/// replicas against wall time — crashed nodes sever their connections
/// and swallow requests — with the same lifecycle hardening on the
/// client (75 ms deadline, 3 retries, 30 ms hedge) plus the same early
/// crash window, so even smoke-scale runs meet a fault.
pub fn crash_flux_config(params: &ScenarioParams) -> Result<LiveConfig, ScenarioError> {
    let mut cfg = base_config(LIVE_CRASH_FLUX, params)?;
    let mut plan = FaultPlan::crash_flux(cfg.seed, cfg.replicas, Nanos::from_secs(60));
    plan.layer(&FaultPlan::CRASH_FLUX_EARLY, cfg.replicas);
    cfg.faults = plan;
    cfg.lifecycle =
        LifecycleConfig::hardened(Nanos::from_millis(75), 3, Some(Nanos::from_millis(30)));
    Ok(cfg)
}

/// The live flaky-net script: [`FaultPlan::flaky_net`]'s resets, dropped
/// responses and delayed responses against wall time, hardened like the
/// sim twin (100 ms deadline to ride out the injected response lag,
/// 3 retries, 50 ms hedge) with the same early episodes.
pub(crate) fn flaky_net_config(params: &ScenarioParams) -> Result<LiveConfig, ScenarioError> {
    let mut cfg = base_config(LIVE_FLAKY_NET, params)?;
    let mut plan = FaultPlan::flaky_net(cfg.seed, cfg.replicas, Nanos::from_secs(60));
    plan.layer(&FaultPlan::FLAKY_NET_EARLY, cfg.replicas);
    cfg.faults = plan;
    cfg.lifecycle =
        LifecycleConfig::hardened(Nanos::from_millis(100), 3, Some(Nanos::from_millis(50)));
    Ok(cfg)
}

fn base_config(scenario: &str, params: &ScenarioParams) -> Result<LiveConfig, ScenarioError> {
    let mut cfg = LiveConfig {
        strategy: params.strategy.clone(),
        seed: params.seed,
        warmup_ops: params.warmup,
        ops_cap: params.ops,
        offered_rate: params.tuning.offered_rate,
        exact_latency: params.tuning.exact_latency,
        run_for: Duration::from_millis(1_500),
        // Paper-scale concurrency for the registry twins: deep enough
        // that a strategy which parks requests on one dark replica (DS
        // between recomputes) cannot exhaust the whole permit budget and
        // stall the healthy replicas with it — that stall is a *client*
        // limit, and live SLO cells must be server-decided.
        in_flight: 256,
        ..LiveConfig::default()
    };
    if let Some(keys) = params.keys {
        cfg.keys = cfg.keys.min(keys);
    }
    if !cfg.strategy.is_known() {
        return Err(ScenarioError::UnknownStrategy(cfg.strategy.name().into()));
    }
    if cfg.strategy.is_oracle() {
        return Err(ScenarioError::UnsupportedStrategy {
            scenario: scenario.to_string(),
            strategy: cfg.strategy.name().to_string(),
        });
    }
    Ok(cfg)
}

/// Register the live scenarios into an existing registry, so
/// `ScenarioRegistry::sweep` (and `run`) drive real sockets by name with
/// no API change for callers.
pub(crate) fn register_live_scenarios(registry: &mut ScenarioRegistry) {
    registry.register(LIVE_HETERO_FLEET, |p: &ScenarioParams| {
        Ok(run_live(LIVE_HETERO_FLEET, hetero_fleet_config(p)?).report)
    });
    registry.register(LIVE_PARTITION_FLUX, |p: &ScenarioParams| {
        Ok(run_live(LIVE_PARTITION_FLUX, partition_flux_config(p)?).report)
    });
    registry.register(LIVE_CRASH_FLUX, |p: &ScenarioParams| {
        Ok(run_live(LIVE_CRASH_FLUX, crash_flux_config(p)?).report)
    });
    registry.register(LIVE_FLAKY_NET, |p: &ScenarioParams| {
        Ok(run_live(LIVE_FLAKY_NET, flaky_net_config(p)?).report)
    });
}

/// The full scenario registry: the sim-backed library plus the live
/// backends.
pub fn live_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::with_defaults();
    register_live_scenarios(&mut registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_engine::Strategy;

    fn smoke_cfg(strategy: Strategy) -> LiveConfig {
        LiveConfig {
            replicas: 3,
            threads: 4,
            strategy,
            run_for: Duration::from_millis(300),
            warmup_ops: 50,
            seed: 7,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn live_run_reports_cluster_channels() {
        let live = run_live("live-smoke", smoke_cfg(Strategy::c3()));
        let report = &live.report;
        assert_eq!(report.scenario, "live-smoke");
        assert_eq!(report.strategy, "C3");
        assert_eq!(report.channels.len(), 2);
        assert_eq!(report.headline().name, "read");
        assert!(report.channel("update").is_some());
        assert!(
            report.total_completions() > 100,
            "300 ms of closed loop must complete real work, got {}",
            report.total_completions()
        );
        assert!(report.p99_ms() > 0.0);
        assert!(report.duration > Nanos::ZERO);
        assert!(!live.score_trace.is_empty(), "C3 runs sample scores");
        for (_, scores) in &live.score_trace {
            assert_eq!(scores.len(), 3);
        }
        // Client-health series ride outside the report's channels (the
        // SLO anchor sums report-channel throughput; diagnostics must not
        // inflate it).
        let names: Vec<&str> = live.health.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["inflight", "feedback-lag"]);
        for h in &live.health {
            assert!(h.completions > 0, "{} series must have samples", h.name);
        }
    }

    #[test]
    fn multiplexed_client_holds_many_requests_in_flight() {
        // The tentpole claim in miniature: a handful of issuer threads
        // hold an in-flight budget far beyond their own count, so the
        // occupancy the client reaches is bounded by the budget, not by
        // threads — the old one-request-per-worker client could never
        // exceed `threads` in flight.
        let cfg = LiveConfig {
            in_flight: 256,
            threads: 4,
            run_for: Duration::from_millis(400),
            ..smoke_cfg(Strategy::c3())
        };
        let live = run_live("live-mux-smoke", cfg);
        assert!(live.report.total_completions() > 100);
        let inflight = &live.health[0];
        assert_eq!(inflight.name, "inflight");
        assert!(
            inflight.summary.max_ns >= 32,
            "closed loop must fill well past the 4 issuer threads, peaked at {}",
            inflight.summary.max_ns
        );
    }

    #[test]
    fn ops_cap_bounds_a_live_run() {
        let cfg = LiveConfig {
            ops_cap: 200,
            run_for: Duration::from_secs(10),
            warmup_ops: 20,
            ..smoke_cfg(Strategy::lor())
        };
        let live = run_live("live-capped", cfg);
        // Workers race the cap by a thread count at most.
        assert!(live.ops_issued >= 200 && live.ops_issued < 200 + 8);
        assert!(live.report.total_completions() <= 200 + 8);
    }

    #[test]
    fn registry_runs_live_scenarios_by_name() {
        let registry = live_registry();
        assert!(registry.contains(LIVE_PARTITION_FLUX));
        assert!(registry.contains(LIVE_HETERO_FLEET));
        // The sim library is still there untouched.
        assert!(registry.contains(c3_scenarios::PARTITION_FLUX));
        let report = registry
            .run(
                LIVE_HETERO_FLEET,
                &ScenarioParams::sized(Strategy::c3(), 1, 800),
            )
            .expect("live hetero runs by name");
        assert_eq!(report.scenario, LIVE_HETERO_FLEET);
        assert!(report.total_completions() > 0);
    }

    #[test]
    fn live_crash_flux_recovers_through_the_lifecycle() {
        let params = ScenarioParams::sized(Strategy::c3(), 3, 1_200);
        let cfg = crash_flux_config(&params).unwrap();
        assert!(!cfg.faults.is_empty());
        assert_eq!(cfg.lifecycle.deadline, Some(Nanos::from_millis(75)));
        let mut cfg = LiveConfig {
            replicas: 3,
            replication_factor: 2,
            run_for: Duration::from_millis(400),
            ..cfg
        };
        cfg.faults.events.retain(|e| e.node < 3);
        let live = run_live(LIVE_CRASH_FLUX, cfg);
        assert_eq!(live.report.scenario, LIVE_CRASH_FLUX);
        assert!(
            live.report.total_completions() > 0,
            "hardened runs finish despite the crash window"
        );
        assert!(
            live.reconnects > 0,
            "the crash window must sever at least one connection"
        );
        // The report's lifecycle pair mirrors the client's ledger, which
        // balances the way the simulator's does.
        let l = live.lifecycle;
        assert_eq!(live.report.timeouts, l.timeouts);
        assert_eq!(live.report.parked, l.parked);
        assert!(l.retries + l.parked <= l.timeouts, "{l:?}");
        assert!(l.hedge_wins <= l.hedges, "{l:?}");
        assert!(l.reinstates <= l.evictions, "{l:?}");
    }

    #[test]
    fn live_fault_scenarios_run_by_name() {
        let registry = live_registry();
        assert!(registry.contains(LIVE_CRASH_FLUX));
        assert!(registry.contains(LIVE_FLAKY_NET));
        let report = registry
            .run(
                LIVE_FLAKY_NET,
                &ScenarioParams::sized(Strategy::lor(), 2, 600),
            )
            .expect("live flaky-net runs by name");
        assert_eq!(report.scenario, LIVE_FLAKY_NET);
        assert!(report.total_completions() > 0);
    }

    #[test]
    fn oracle_is_unsupported_on_the_live_backend() {
        let registry = live_registry();
        let err = registry
            .run(
                LIVE_PARTITION_FLUX,
                &ScenarioParams::sized(Strategy::oracle(), 1, 500),
            )
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnsupportedStrategy {
                scenario: LIVE_PARTITION_FLUX.into(),
                strategy: "ORA".into(),
            }
        );
        let err = registry
            .run(
                LIVE_HETERO_FLEET,
                &ScenarioParams::sized(Strategy::named("NoSuch"), 1, 500),
            )
            .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownStrategy("NoSuch".into()));
    }
}
