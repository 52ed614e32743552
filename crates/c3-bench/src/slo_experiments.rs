//! Throughput-at-SLO experiments: the paper's "C3 sustains a higher rate
//! before the tail crosses the limit" frame, produced by the engine's
//! SLO-seeking rate controller over both backends.
//!
//! For every `(scenario, strategy, seed)` cell the harness:
//!
//! 1. **calibrates** a rate bracket — cluster-backed and live scenarios
//!    run once closed-loop (their saturation throughput anchors the
//!    bracket's high end); multi-tenant uses its closed-form fleet
//!    capacity,
//! 2. **searches** the bracket by deterministic bisection
//!    ([`c3_engine::SloSearch`]) for the maximum offered rate whose
//!    exact-reservoir p99 still meets the scenario's SLO,
//! 3. reports the per-cell maximum, the full probe trace, and the
//!    monotone-in-rate check in a fingerprinted
//!    [`c3_engine::SloReport`], written to `BENCH_slo.json`.
//!
//! Sim cells are bit-deterministic (the determinism tier compares
//! 1-vs-4-thread sweep fingerprints); live cells measure wall time over
//! real sockets and are ranked, not fingerprint-pinned.

use c3_engine::{
    ProbeMeasurement, RateWindow, SloCell, SloPredicate, SloReport, SloSweep, Strategy,
};
use c3_live::live_registry;
use c3_metrics::Table;
use c3_scenarios::{
    RunTuning, ScenarioParams, ScenarioRegistry, CRASH_FLUX, FLAKY_NET, HETERO_FLEET, MULTI_TENANT,
    PARTITION_FLUX,
};

use crate::support::{banner, fan_out_threads, Scale, SkipLog};

/// One scenario's SLO sweep shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SloScenario {
    /// Scenario registry name.
    pub name: &'static str,
    /// The latency SLO cells must hold.
    pub slo: SloPredicate,
    /// Bisection grid intervals (resolution = bracket width / steps).
    pub steps: u32,
    /// Whether this runs over real sockets (serialized, wall-time-based).
    pub live: bool,
}

/// The sim-backed sweep tier: the three library scenarios, each with a
/// p99 SLO placed **above the scenario's adversity service-time floor and
/// below its saturation blow-up**, so pass/fail is decided by queueing —
/// which is monotone in rate — rather than by whether a handful of
/// blackout-struck requests straddle the 1% mark:
///
/// - `hetero-fleet`: the slow tier's miss path is `exp(24 ms)`, so even
///   an unloaded tail sits near ~100–250 ms for any strategy that ever
///   touches the tier. 350 ms clears that floor; open-loop saturation
///   queueing blows far past it.
/// - `partition-flux`: a blackout-struck read costs `~exp(200 ms)`, so
///   tails flicker in the 300–550 ms band at the 1% boundary. 600 ms sits
///   above the single-blackout band and below queue divergence.
/// - `multi-tenant`: no time-based adversity — the tail is pure queueing,
///   so a tight interactive-tenant bound works directly.
/// - `crash-flux` / `flaky-net`: the hardened lifecycle (75–100 ms
///   deadline, retries, hedging) caps what a fault episode can cost one
///   read at a few deadline multiples — and at overload it *parks* what
///   it cannot complete, which keeps the p99-of-completions flat instead
///   of blowing up. Pass/fail is therefore shed-decided: a probe that
///   parks >1% of its ops fails regardless of its metric value, and a
///   cell that sheds even at the bracket floor reports
///   `floor_reason: "timeout"` in the JSON. 400 ms clears the worst
///   permitted retry chain (75 ms × 4 + backoff).
fn sim_slo_scenarios() -> Vec<SloScenario> {
    vec![
        SloScenario {
            name: HETERO_FLEET,
            slo: SloPredicate::p99_under_ms(350.0),
            steps: 32,
            live: false,
        },
        SloScenario {
            name: PARTITION_FLUX,
            slo: SloPredicate::p99_under_ms(600.0),
            steps: 32,
            live: false,
        },
        SloScenario {
            name: MULTI_TENANT,
            slo: SloPredicate::p99_under_ms(20.0),
            steps: 32,
            live: false,
        },
        SloScenario {
            name: CRASH_FLUX,
            slo: SloPredicate::p99_under_ms(400.0),
            steps: 32,
            live: false,
        },
        SloScenario {
            name: FLAKY_NET,
            slo: SloPredicate::p99_under_ms(400.0),
            steps: 32,
            live: false,
        },
    ]
}

/// The live sweep tier: the same adversity scripts over loopback
/// sockets, with the same bound-placement rule as the sim tier (above
/// the adversity service floor, below saturation). Coarser grids —
/// every probe costs 1.5 s of wall time:
///
/// - `live-hetero-fleet` sleeps SSD service times with a permanent 3x
///   tier, so the slow tier's miss path is `exp(2.4 ms)` plus queueing;
/// - `live-partition-flux` blackouts multiply SSD misses 30x, so a
///   struck read sleeps `~exp(24 ms)` plus queueing.
///
/// With the multiplexed client these cells are server-decided, and DS
/// can score a legitimate **0** on `live-partition-flux`: even at the
/// bracket floor its interval-frozen rankings park more than 1% of the
/// run's ops on a blacked-out replica whose queue now actually builds
/// (the old serial client physically capped that queue at the worker
/// count, which is why pre-multiplex DS numbers looked sustainable).
fn live_slo_scenarios() -> Vec<SloScenario> {
    vec![
        SloScenario {
            name: c3_live::LIVE_HETERO_FLEET,
            slo: SloPredicate::p99_under_ms(120.0),
            steps: 12,
            live: true,
        },
        SloScenario {
            name: c3_live::LIVE_PARTITION_FLUX,
            slo: SloPredicate::p99_under_ms(150.0),
            steps: 12,
            live: true,
        },
        SloScenario {
            name: c3_live::LIVE_CRASH_FLUX,
            slo: SloPredicate::p99_under_ms(150.0),
            steps: 12,
            live: true,
        },
        SloScenario {
            name: c3_live::LIVE_FLAKY_NET,
            slo: SloPredicate::p99_under_ms(200.0),
            steps: 12,
            live: true,
        },
    ]
}

/// Strategies swept per tier. The sim tier includes the oracle — which
/// the cluster-backed scenarios skip through the shared cell-skip path —
/// and the static baselines; the live tier keeps the wall-clock budget on
/// the paper's headline pair.
fn slo_strategies(live: bool) -> Vec<Strategy> {
    if live {
        vec![Strategy::c3(), Strategy::dynamic_snitching()]
    } else {
        vec![
            Strategy::c3(),
            Strategy::dynamic_snitching(),
            Strategy::lor(),
            Strategy::power_of_two(),
            Strategy::primary_only(),
            Strategy::oracle(),
        ]
    }
}

/// Bracket shape around a calibrated capacity estimate: the SLO
/// threshold for a competitive strategy sits well below saturation, so
/// the bracket spans a quarter of the anchor to comfortably past it.
const WINDOW_LO_FRACTION: f64 = 0.25;
const WINDOW_HI_FRACTION: f64 = 1.25;

/// Run one scenario's sweep: `strategies × seeds` cells, each calibrated
/// and searched independently, fanned out over up to `threads` workers.
/// Live specs ignore `threads` and run their cells one at a time —
/// probes measure wall time over real sockets, and a parallel sibling
/// cell stealing CPU mid-probe would inflate its tail (the probes inside
/// a cell are sequential anyway).
fn sweep_scenario(
    spec: &SloScenario,
    registry: &ScenarioRegistry,
    seeds: &[u64],
    ops: u64,
    threads: usize,
) -> SloReport {
    let threads = if spec.live { 1 } else { threads };
    let strategies = slo_strategies(spec.live);
    let cells: Vec<SloCell> = strategies
        .iter()
        .flat_map(|st| {
            seeds
                .iter()
                .map(|&seed| SloCell::new(spec.name, st.name(), seed))
        })
        .collect();
    let steps = spec.steps;
    let sweep = SloSweep::new(spec.slo);
    let slo = spec.slo;
    sweep.run(
        &cells,
        threads,
        |cell| {
            let anchor = calibrate_anchor(registry, cell, ops)?;
            Ok(RateWindow::new(
                anchor * WINDOW_LO_FRACTION,
                anchor * WINDOW_HI_FRACTION,
                steps,
            ))
        },
        |cell, rate| {
            let params = ScenarioParams::tuned(
                Strategy::named(&cell.strategy),
                cell.seed,
                ops,
                RunTuning {
                    offered_rate: Some(rate),
                    exact_latency: true,
                },
            );
            let report = registry
                .run(&cell.scenario, &params)
                .map_err(|e| e.to_string())?;
            // A hardened lifecycle parks what it cannot complete, so at
            // overload the p99 *of the completions* stays flat — the
            // metric alone would call a collapsing rate sustained. A probe
            // that parks more than 1% of its ops is shed, which fails it
            // and names the cause (`floor_reason`: "timeout" vs
            // "slo-miss") when a cell collapses at the bracket floor.
            let ops = report.total_completions() + report.parked;
            Ok(ProbeMeasurement {
                value_ms: slo.metric.value_ms(&report.headline().summary),
                timed_out: report.parked as f64 > 0.01 * ops as f64,
            })
        },
    )
}

/// The rate anchor the cell's bracket is built around.
///
/// Multi-tenant has a closed-form capacity; everything else runs the cell
/// once in its native closed loop (the same ops/seed/strategy) and uses
/// the measured saturation throughput across all channels. Calibration is
/// also where unsupported cells surface: the registry error becomes the
/// skip reason, identically to `scenario_sweep`'s skip path.
fn calibrate_anchor(registry: &ScenarioRegistry, cell: &SloCell, ops: u64) -> Result<f64, String> {
    if cell.scenario == MULTI_TENANT {
        return Ok(c3_scenarios::MultiTenantConfig::default().capacity());
    }
    let params = ScenarioParams::sized(Strategy::named(&cell.strategy), cell.seed, ops);
    let report = registry
        .run(&cell.scenario, &params)
        .map_err(|e| e.to_string())?;
    let total: f64 = report.channels.iter().map(|c| c.throughput).sum();
    if !(total.is_finite() && total > 0.0) {
        return Err(format!("calibration measured no throughput ({total})"));
    }
    Ok(total)
}

/// Run the whole tier: every sim scenario (and, when `include_live`, the
/// live twins), printing per-scenario tables and a deduped skip summary.
/// Returns `(spec, report)` pairs in sweep order.
pub(crate) fn throughput_at_slo(
    scale: Scale,
    runs: u64,
    include_live: bool,
) -> Vec<(SloScenario, SloReport)> {
    banner(
        "SLO",
        "throughput at SLO: max sustainable rate by bisection",
    );
    let seeds: Vec<u64> = (1..=runs).collect();
    let ops = scale.scenario_ops();
    let registry = live_registry();
    let mut out = Vec::new();
    let mut skips = SkipLog::new();

    let mut specs = sim_slo_scenarios();
    if include_live {
        specs.extend(live_slo_scenarios());
    }
    // `C3_SLO_ONLY=name,name` restricts the tier (debugging / CI splits).
    if let Ok(only) = std::env::var("C3_SLO_ONLY") {
        let keep: Vec<&str> = only.split(',').map(str::trim).collect();
        for name in &keep {
            assert!(
                specs.iter().any(|s| s.name == *name),
                "C3_SLO_ONLY names unknown scenario {name:?} (available: {:?})",
                specs.iter().map(|s| s.name).collect::<Vec<_>>()
            );
        }
        specs.retain(|s| keep.contains(&s.name));
    }
    for spec in specs {
        println!(
            "\nscenario {} — SLO {}, {} strategies × {} seeds, {} ops/probe:",
            spec.name,
            spec.slo,
            slo_strategies(spec.live).len(),
            seeds.len(),
            ops,
        );
        let report = sweep_scenario(&spec, &registry, &seeds, ops, fan_out_threads());
        for s in report.skipped() {
            skips.note(&s.cell.scenario, &s.cell.strategy, &s.reason);
        }
        print_scenario_table(&spec, &report, &seeds);
        out.push((spec, report));
    }
    skips.print_summary();
    println!(
        "\nReading: higher max-sustainable-rate at the SLO is the paper's\n\
         throughput-at-SLO claim. '^' cells passed the SLO at the bracket\n\
         ceiling (range-limited); '*' cells failed at the bracket floor\n\
         itself (no rate in the window sustains the SLO — rendered as 0,\n\
         `fails_at_bracket_floor` in the JSON, with `floor_reason` naming\n\
         the cause: \"timeout\" when the floor probe shed ops to timeouts,\n\
         \"slo-miss\" when the completed tail crossed the limit); '!'\n\
         flags a non-monotone probe trace."
    );
    out
}

fn print_scenario_table(spec: &SloScenario, report: &SloReport, seeds: &[u64]) {
    let mut header = vec!["strategy".to_string()];
    header.extend(seeds.iter().map(|s| format!("seed {s} (ops/s)")));
    header.push("mean".into());
    header.push("probes".into());
    let mut table = Table::new(header);
    for strategy in slo_strategies(spec.live) {
        if !report.ran().any(|r| r.cell.strategy == strategy.name()) {
            continue; // every seed skipped (e.g. ORA on a cluster backend)
        }
        // Key columns by seed, not by ran-cell position: a cell skipped
        // for one seed only (failed calibration, transient live error)
        // must show as a hole in that seed's column, not shift the row.
        let mut row = vec![strategy.name().to_string()];
        let mut sum = 0.0;
        let mut ran = 0u32;
        let mut probes = 0;
        for &seed in seeds {
            match report.cell(spec.name, strategy.name(), seed) {
                Some(cell) => {
                    let rate = cell.outcome.max_rate.unwrap_or(0.0);
                    sum += rate;
                    ran += 1;
                    probes += cell.outcome.probes();
                    let mut mark = String::new();
                    if cell.outcome.fails_at_bracket_floor() {
                        mark.push('*');
                    }
                    if cell.outcome.saturated {
                        mark.push('^');
                    }
                    if !cell.outcome.monotone {
                        mark.push('!');
                    }
                    row.push(format!("{rate:.0}{mark}"));
                }
                None => row.push("—".into()),
            }
        }
        row.push(format!("{:.0}", sum / f64::from(ran.max(1))));
        row.push(probes.to_string());
        table.row(row);
    }
    println!("{table}");
}

/// Quote a string as a JSON string literal. Rust's `{:?}` is close but
/// not JSON (`\u{e9}`-style escapes), so backend error messages — which
/// can carry OS-localized text — get escaped here instead.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serialize the sweep tier to the `BENCH_slo.json` schema.
pub(crate) fn slo_json(results: &[(SloScenario, SloReport)]) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"schema\": 2,\n  \"scenarios\": [\n");
    for (i, (spec, report)) in results.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"scenario\": {},\n", json_str(spec.name)));
        json.push_str(&format!("      \"live\": {},\n", spec.live));
        json.push_str(&format!(
            "      \"slo\": {{\"metric\": {}, \"max_ms\": {}}},\n",
            json_str(spec.slo.metric.label()),
            spec.slo.max_ms
        ));
        json.push_str(&format!(
            "      \"fingerprint\": \"{:#018x}\",\n",
            report.fingerprint()
        ));
        json.push_str("      \"cells\": [\n");
        let ran: Vec<_> = report.ran().collect();
        for (j, cell) in ran.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"strategy\": {}, \"seed\": {}, \"max_rate\": {}, \
                 \"fails_at_bracket_floor\": {}, \"floor_reason\": {}, \
                 \"saturated\": {}, \"monotone\": {}, \"window\": [{}, {}], \"trace\": [",
                json_str(&cell.cell.strategy),
                cell.cell.seed,
                cell.outcome.max_rate.unwrap_or(0.0),
                cell.outcome.fails_at_bracket_floor(),
                match cell.outcome.floor_reason() {
                    Some(reason) => json_str(reason),
                    None => "null".to_string(),
                },
                cell.outcome.saturated,
                cell.outcome.monotone,
                cell.window.lo,
                cell.window.hi,
            ));
            for (k, p) in cell.outcome.trace.iter().enumerate() {
                json.push_str(&format!(
                    "[{:.3}, {:.4}, {}, {}]{}",
                    p.rate,
                    p.value_ms,
                    p.pass,
                    p.timed_out,
                    if k + 1 < cell.outcome.trace.len() {
                        ", "
                    } else {
                        ""
                    }
                ));
            }
            json.push_str(&format!(
                "]}}{}\n",
                if j + 1 < ran.len() { "," } else { "" }
            ));
        }
        json.push_str("      ],\n");
        json.push_str("      \"skipped\": [\n");
        let skipped: Vec<_> = report.skipped().collect();
        for (j, s) in skipped.iter().enumerate() {
            json.push_str(&format!(
                "        {{\"strategy\": {}, \"seed\": {}, \"reason\": {}}}{}\n",
                json_str(&s.cell.strategy),
                s.cell.seed,
                json_str(&s.reason),
                if j + 1 < skipped.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_name_library_scenarios() {
        let sim = sim_slo_scenarios();
        assert_eq!(sim.len(), 5);
        assert!(sim.iter().all(|s| !s.live));
        let live = live_slo_scenarios();
        assert_eq!(live.len(), 4);
        assert!(live.iter().all(|s| s.live));
        let reg = live_registry();
        for s in sim.iter().chain(live.iter()) {
            assert!(reg.contains(s.name), "{} must be registered", s.name);
        }
    }

    #[test]
    fn multi_tenant_anchor_is_the_formula_capacity() {
        let reg = live_registry();
        let cell = SloCell::new(MULTI_TENANT, "C3", 1);
        let anchor = calibrate_anchor(&reg, &cell, 2_000).unwrap();
        assert_eq!(
            anchor,
            c3_scenarios::MultiTenantConfig::default().capacity()
        );
    }

    #[test]
    fn unsupported_cells_skip_through_calibration() {
        let reg = live_registry();
        let cell = SloCell::new(HETERO_FLEET, "ORA", 1);
        let err = calibrate_anchor(&reg, &cell, 2_000).unwrap_err();
        assert!(err.contains("cannot drive"), "got {err}");
    }

    #[test]
    fn partial_seed_skips_render_as_holes_not_panics() {
        // One strategy loses exactly one seed to a calibration error: the
        // table must key columns by seed (a "—" hole) instead of shifting
        // ran cells under the wrong headers and tripping Table's width
        // assert after an hours-long sweep.
        let spec = SloScenario {
            name: "toy",
            slo: SloPredicate::p99_under_ms(20.0),
            steps: 4,
            live: false,
        };
        let seeds = [1u64, 2, 3];
        let cells: Vec<SloCell> = slo_strategies(false)
            .iter()
            .flat_map(|s| {
                seeds
                    .iter()
                    .map(|&seed| SloCell::new("toy", s.name(), seed))
            })
            .collect();
        let report = SloSweep::new(spec.slo).run(
            &cells,
            1,
            |cell| {
                if cell.strategy == "C3" && cell.seed == 2 {
                    Err("calibration measured no throughput".into())
                } else {
                    Ok(RateWindow::new(100.0, 2_000.0, 4))
                }
            },
            |_, rate| Ok(rate / 60.0),
        );
        assert_eq!(report.skipped().count(), 1);
        print_scenario_table(&spec, &report, &seeds); // must not panic
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("q\"b\\c"), "\"q\\\"b\\\\c\"");
        assert_eq!(json_str("a\nb\tc\u{1}"), "\"a\\nb\\tc\\u0001\"");
        assert_eq!(json_str("café"), "\"café\"", "non-ASCII passes through");
    }

    #[test]
    fn sweep_emits_valid_json_shape() {
        // A tiny real sweep: one scenario, pruned strategy set via a
        // direct sweep_scenario call at small ops.
        let spec = SloScenario {
            name: MULTI_TENANT,
            slo: SloPredicate::p99_under_ms(20.0),
            steps: 4,
            live: false,
        };
        let reg = ScenarioRegistry::with_defaults();
        let report = sweep_scenario(&spec, &reg, &[1], 2_000, 1);
        assert!(report.ran().count() > 0);
        let json = slo_json(&[(spec, report)]);
        assert!(json.contains("\"scenario\": \"multi-tenant\""));
        assert!(json.contains("\"max_rate\""));
        assert!(json.contains("\"fails_at_bracket_floor\""));
        assert!(json.contains("\"floor_reason\""));
        assert!(json.contains("\"fingerprint\""));
    }

    #[test]
    fn floor_failures_name_their_reason_in_the_json() {
        // Two toy cells, both collapsing at the bracket floor: one whose
        // probes shed ops to timeouts, one that merely misses the SLO.
        let spec = SloScenario {
            name: "toy",
            slo: SloPredicate::p99_under_ms(20.0),
            steps: 4,
            live: false,
        };
        let cells = [SloCell::new("toy", "C3", 1), SloCell::new("toy", "DS", 1)];
        let report = SloSweep::new(spec.slo).run(
            &cells,
            1,
            |_| Ok(RateWindow::new(100.0, 2_000.0, 4)),
            |cell, _rate| {
                Ok(ProbeMeasurement {
                    value_ms: 1_000.0, // over the SLO even at the floor
                    timed_out: cell.strategy == "C3",
                })
            },
        );
        for ran in report.ran() {
            assert!(ran.outcome.fails_at_bracket_floor());
        }
        let json = slo_json(&[(spec, report)]);
        assert!(
            json.contains("\"floor_reason\": \"timeout\""),
            "timeout-driven floor failure must be named: {json}"
        );
        assert!(
            json.contains("\"floor_reason\": \"slo-miss\""),
            "plain SLO miss at the floor must be named: {json}"
        );
        // Sustainable cells render the reason as null.
        let spec_ok = SloScenario {
            name: "toy-ok",
            slo: SloPredicate::p99_under_ms(20.0),
            steps: 4,
            live: false,
        };
        let ok = SloSweep::new(spec_ok.slo).run(
            &[SloCell::new("toy-ok", "C3", 1)],
            1,
            |_| Ok(RateWindow::new(100.0, 2_000.0, 4)),
            |_, rate| Ok(rate / 200.0),
        );
        let json_ok = slo_json(&[(spec_ok, ok)]);
        assert!(json_ok.contains("\"floor_reason\": null"), "{json_ok}");
    }
}
