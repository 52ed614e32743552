//! Scenario-library experiments: the full strategy × scenario matrix.
//!
//! Complements the per-figure reproductions: where those pin one workload
//! and vary a knob, this sweeps **every built-in strategy against
//! every scenario in the `c3-scenarios` library** (multi-tenant fleets,
//! heterogeneous hardware tiers, partition/flux blackouts) in one shot,
//! fanning the independent runs out across worker threads.

use c3_metrics::Table;
use c3_scenarios::{ScenarioError, ScenarioRegistry, ScenarioReport};

use crate::support::{banner, fan_out_threads, runs_from_env, Scale, SkipLog};

/// The strategy × scenario matrix. Every built-in strategy name is
/// swept against every scenario in the library; cells a frontend cannot
/// drive (the simulator-global `ORA` on cluster-backed scenarios) are
/// reported as unsupported rather than skipped silently.
pub(crate) fn scenario_matrix(scale: Scale) {
    banner("SC", "strategy × scenario sweep (c3-scenarios)");
    let scenarios = ScenarioRegistry::with_defaults();
    let scenario_names = scenarios.names();
    let strategies: Vec<c3_engine::Strategy> = c3_engine::Strategy::BUILTIN
        .into_iter()
        .map(c3_engine::Strategy::named)
        .collect();
    let runs = runs_from_env();
    let seeds: Vec<u64> = (1..=runs).collect();
    let ops = scale.scenario_ops();
    let threads = fan_out_threads();
    println!(
        "{} scenarios × {} strategies × {} seeds at {} ops/run, {} worker threads",
        scenario_names.len(),
        strategies.len(),
        seeds.len(),
        ops,
        threads,
    );

    let results = scenarios.sweep(&scenario_names, &strategies, &seeds, ops, threads);

    // Matrix order is scenario-major, then strategy, then seed. Cells a
    // frontend cannot drive are deduped into one notice per
    // (scenario, strategy, reason) instead of one per seeded run.
    let mut skips = SkipLog::new();
    let mut iter = results.into_iter();
    for scenario in &scenario_names {
        let mut table = Table::new(vec![
            "strategy",
            "median ms",
            "p99 ms",
            "p99.9 ms",
            "ops/s",
            "other channels (p99 ms)",
        ]);
        for strategy in &strategies {
            let cell_runs: Vec<Result<ScenarioReport, ScenarioError>> = (0..seeds.len())
                .map(|_| iter.next().expect("cell"))
                .collect();
            match summarize_cell(&cell_runs) {
                Some(row) => {
                    table.row(row);
                }
                None => {
                    for run in &cell_runs {
                        if let Err(e) = run {
                            skips.note(scenario, strategy.label(), &e.to_string());
                        }
                    }
                    table.row(vec![
                        strategy.label().to_string(),
                        "—".into(),
                        "—".into(),
                        "—".into(),
                        "—".into(),
                        "skipped".into(),
                    ]);
                }
            }
        }
        println!(
            "\nscenario {scenario} (seed-averaged over {} runs):\n{table}",
            seeds.len()
        );
    }
    skips.print_summary();
    println!(
        "Paper shape: C3 keeps the read tail ahead of DS and the static\n\
         Primary/Nearest baselines in every scenario — widest under\n\
         partition flux, where DS's frozen rankings keep routing into\n\
         dark nodes. Instantaneous-queue baselines (LOR, P2C) stay\n\
         competitive when stragglers are transient; the asserted\n\
         comparisons live in the claims tier (tests/claims.rs)."
    );
}

/// Multi-tenant fairness: who pays the tail for sharing the fleet?
///
/// For each strategy, runs the shared multi-tenant scenario plus one
/// isolation baseline per tenant (the tenant alone at its own arrival
/// rate) and reports each tenant's slowdown-vs-isolated p99 factor and
/// the Jain fairness index over those factors (1.0 = everyone pays the
/// same relative price; 1/n = one tenant absorbs all the interference).
pub(crate) fn multi_tenant_fairness(scale: Scale) {
    use c3_engine::Strategy;
    use c3_scenarios::{
        run_multi_tenant, run_multi_tenant_isolated, MultiTenantConfig, RunOptions,
    };

    banner(
        "SC-F",
        "multi-tenant fairness: slowdown vs isolated + Jain index",
    );
    let strategies = [
        Strategy::c3(),
        Strategy::dynamic_snitching(),
        Strategy::lor(),
    ];
    let ops = scale.scenario_ops();
    let base = MultiTenantConfig {
        total_requests: ops,
        warmup_requests: ops / 20,
        ..MultiTenantConfig::default()
    };
    let tenant_names: Vec<String> = base.tenants.iter().map(|t| t.name.clone()).collect();
    let mut header = vec!["strategy".to_string()];
    header.extend(tenant_names.iter().map(|n| format!("{n} slowdown")));
    header.push("Jain index".to_string());
    let mut table = Table::new(header);

    // One fan-out cell per strategy (each cell runs shared + isolated
    // baselines serially; the strategies are independent).
    let rows = c3_engine::fan_out(strategies.len(), fan_out_threads(), |i| {
        let cfg = MultiTenantConfig {
            strategy: strategies[i].clone(),
            ..base.clone()
        };
        let shared = run_multi_tenant(cfg.clone(), RunOptions::default()).report;
        let isolated = run_multi_tenant_isolated(&cfg);
        let slowdowns = shared.slowdown_vs_isolated(&isolated);
        let jain = shared.jain_fairness(&isolated);
        (slowdowns, jain)
    });
    for (strategy, (slowdowns, jain)) in strategies.iter().zip(rows) {
        let mut row = vec![strategy.label().to_string()];
        row.extend(slowdowns.iter().map(|(_, f)| format!("{f:.2}x")));
        row.push(format!("{jain:.3}"));
        table.row(row);
    }
    println!("{table}");
    println!(
        "Reading: factors near 1x mean sharing was nearly free for that\n\
         tenant; a high Jain index with low factors is the ideal. C3's\n\
         queue-aware ranking should spread the interference cost more\n\
         evenly than DS's interval-frozen scores."
    );
}

/// Live-client health: the multiplexed client's own diagnostics, per
/// live scenario, for the live strategy pair.
///
/// Two named series ride on every [`c3_live::LiveReport`] outside its
/// workload channels (so SLO anchors and completion counts stay pure):
///
/// - **inflight** — in-flight occupancy sampled at every issue. The
///   percentiles here are *counts*. A p99 pinned near the budget means
///   the budget (the client) was the binding constraint: the run was
///   client-bound and its throughput says nothing about the servers. A
///   p99 with headroom means issuing kept up and the fleet set the pace —
///   server-bound, the regime every live number should be measured in.
/// - **feedback-lag** — nanoseconds a reader thread spent folding one
///   completion into selector state; the per-update price of the
///   concurrency-safe selector (atomic folds for C3, one shard lock for
///   the baselines).
///
/// Cells run *open-loop* at a fixed offered rate: a closed loop keeps its
/// budget fully occupied by construction, which would make the occupancy
/// verdict trivially "client-bound" in every cell. Under a paced load the
/// verdict is diagnostic — occupancy rides up only when the fleet (or a
/// blackout) stops absorbing the offered rate.
pub(crate) fn live_client_health(_scale: Scale) {
    use c3_engine::Strategy;
    use c3_live::{hetero_fleet_config, partition_flux_config, run_live};
    use c3_scenarios::{RunTuning, ScenarioParams};

    banner(
        "SC-L",
        "live client health: in-flight occupancy + feedback lag",
    );
    let strategies = [Strategy::c3(), Strategy::dynamic_snitching()];
    for scenario in [c3_live::LIVE_HETERO_FLEET, c3_live::LIVE_PARTITION_FLUX] {
        let mut table = Table::new(vec![
            "strategy",
            "inflight p50/p99/max",
            "budget",
            "verdict",
            "fb-lag p50 µs",
            "fb-lag p99 µs",
            "updates/s",
        ]);
        for strategy in &strategies {
            // ~1/6 of the fleet's SSD plateau: heavy enough to queue on a
            // 3x tier or through a blackout, light enough that a healthy
            // client never exhausts its budget.
            let params = ScenarioParams::tuned(
                strategy.clone(),
                1,
                u64::MAX,
                RunTuning {
                    offered_rate: Some(6_000.0),
                    ..RunTuning::default()
                },
            );
            let cfg = match scenario {
                c3_live::LIVE_HETERO_FLEET => hetero_fleet_config(&params),
                _ => partition_flux_config(&params),
            }
            .expect("live strategies are supported");
            let budget = cfg.in_flight;
            let live = run_live(scenario, cfg);
            let inflight = &live.health[0];
            let lag = &live.health[1];
            // Client-bound when the occupancy tail sits at the budget
            // ceiling: issuers were blocked on permits, not on servers.
            let verdict = if inflight.summary.p99_ns as f64 >= 0.9 * budget as f64 {
                "client-bound"
            } else {
                "server-bound"
            };
            table.row(vec![
                strategy.label().to_string(),
                format!(
                    "{}/{}/{}",
                    inflight.summary.p50_ns, inflight.summary.p99_ns, inflight.summary.max_ns
                ),
                budget.to_string(),
                verdict.to_string(),
                format!("{:.1}", lag.summary.p50_ns as f64 / 1e3),
                format!("{:.1}", lag.summary.p99_ns as f64 / 1e3),
                format!("{:.0}", lag.throughput),
            ]);
        }
        println!("\nscenario {scenario}:\n{table}");
    }
    println!(
        "Reading: a healthy live cell is server-bound — occupancy p99 well\n\
         under the budget. client-bound cells measure the client, not the\n\
         strategy; raise `in_flight` (or add connections) before trusting\n\
         their latency numbers."
    );
}

/// Tail-latency attribution: where the p99+ bucket of each scenario spends
/// its time, per strategy, from the flight recorder.
///
/// Each cell re-runs the scenario with a [`c3_telemetry::Recorder`]
/// attached (recorded runs are fingerprint-identical to plain ones, so
/// these are the *same* runs the matrix reports) and decomposes every
/// tail-bucket request into wait-for-permit / queueing-at-replica /
/// service, plus two **selection regret** measures: score regret (chosen
/// replica vs best available under freshly recomputed scores) and
/// ground-truth queue regret (chosen pending depth minus the group's
/// shortest). Queue regret is the cross-strategy verdict — under a
/// blackout DS's fresh recompute reads the same starved reservoir its
/// frozen ranking does, so only the driver's ground truth can show the
/// Fig. 2 herd: DS's tail queue regret should sit well above C3's.
pub(crate) fn tail_attribution_matrix(scale: Scale) {
    use c3_engine::Strategy;
    use c3_scenarios::ScenarioParams;
    use c3_telemetry::{attribute_tail, Recorder};

    banner(
        "SC-T",
        "tail attribution: where the p99+ bucket spends its time",
    );
    let registry = ScenarioRegistry::with_defaults();
    let strategies = [
        Strategy::c3(),
        Strategy::dynamic_snitching(),
        Strategy::lor(),
    ];
    let ops = scale.scenario_ops();
    // Enough ring for a quick-scale run end to end; at full scale the ring
    // keeps the newest ~50k requests and attribution reports the join
    // count, so the drop is visible rather than silent.
    let capacity = ((ops as usize).saturating_mul(6)).min(1 << 18);
    let mut skips = SkipLog::new();
    for scenario in registry.names() {
        let mut table = Table::new(vec![
            "strategy",
            "joined",
            "tail n",
            "p99 ms",
            "wait ms",
            "queue ms",
            "service ms",
            "tail regret",
            "body regret",
            "queue regret",
        ]);
        for strategy in &strategies {
            let params = ScenarioParams::sized(strategy.clone(), 1, ops);
            let (_, rec) = match registry.run_recorded(scenario, &params, Recorder::new(capacity)) {
                Ok(out) => out,
                Err(e) => {
                    skips.note(scenario, strategy.label(), &e.to_string());
                    continue;
                }
            };
            let attr = attribute_tail(rec.events(), scenario, strategy.label(), 0.99);
            let fmt_rel = |v: f64| {
                if v.is_finite() {
                    format!("{v:.3}")
                } else {
                    "-".into()
                }
            };
            table.row(vec![
                strategy.label().to_string(),
                attr.joined.to_string(),
                attr.tail.len().to_string(),
                format!("{:.2}", attr.threshold_ns as f64 / 1e6),
                format!("{:.2}", attr.mean_wait_ns / 1e6),
                format!("{:.2}", attr.mean_queueing_ns / 1e6),
                format!("{:.2}", attr.mean_service_ns / 1e6),
                fmt_rel(attr.mean_regret_rel),
                fmt_rel(attr.body_mean_regret_rel),
                fmt_rel(attr.mean_queue_regret),
            ]);
        }
        println!("\nscenario {scenario} (p99+ bucket, seed 1, {ops} ops):\n{table}");
    }
    skips.print_summary();
    println!(
        "Reading: `tail/body regret` compare choices against the best\n\
         freshly-recomputed score (0 = picked the best); `queue regret` is\n\
         ground truth — chosen replica's pending depth minus the group's\n\
         shortest at decision time. Queue regret is the cross-strategy\n\
         verdict: a dark node starves DS's reservoirs, so DS's *fresh*\n\
         scores are as blind as its frozen ones, while the driver's queue\n\
         depths are not. DS's tail queue regret sitting above C3's is\n\
         Fig. 2's stale-ranking herd, attributed per request.\n\
         `trace_explain` prints the worst offenders row by row."
    );
}

/// Average a strategy's seed runs into one table row, or `None` when the
/// frontend does not support the strategy.
fn summarize_cell(runs: &[Result<ScenarioReport, ScenarioError>]) -> Option<Vec<String>> {
    let reports: Vec<&ScenarioReport> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    if reports.is_empty() {
        return None;
    }
    let n = reports.len() as f64;
    let avg = |f: &dyn Fn(&ScenarioReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() / n;
    let others: Vec<String> = reports[0]
        .channels
        .iter()
        .skip(1)
        .map(|c| {
            let p99 = reports
                .iter()
                .map(|r| {
                    r.channel(&c.name)
                        .expect("channel")
                        .summary
                        .metric_ms("p99")
                })
                .sum::<f64>()
                / n;
            format!("{}:{:.2}", c.name, p99)
        })
        .collect();
    Some(vec![
        reports[0].strategy.clone(),
        format!("{:.2}", avg(&|r| r.headline().summary.metric_ms("median"))),
        format!("{:.2}", avg(&|r| r.headline().summary.metric_ms("p99"))),
        format!("{:.2}", avg(&|r| r.headline().summary.metric_ms("p999"))),
        format!("{:.0}", avg(&|r| r.headline().throughput)),
        if others.is_empty() {
            "-".into()
        } else {
            others.join(" ")
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3_engine::Strategy;
    use c3_scenarios::MULTI_TENANT;

    #[test]
    fn summarize_averages_over_seeds() {
        let reg = ScenarioRegistry::with_defaults();
        let runs = reg.sweep(&[MULTI_TENANT], &[Strategy::lor()], &[1, 2], 3_000, 2);
        let row = summarize_cell(&runs).expect("LOR runs everywhere");
        assert_eq!(row[0], "LOR");
        assert!(row[5].contains("analytics:"));
    }

    #[test]
    fn unsupported_cells_collapse_to_none() {
        let reg = ScenarioRegistry::with_defaults();
        let runs = reg.sweep(&["hetero-fleet"], &[Strategy::oracle()], &[1], 3_000, 1);
        assert!(summarize_cell(&runs).is_none());
    }
}
