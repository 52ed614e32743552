//! Tail forensics from the flight recorder: re-run a scenario with a
//! [`c3_telemetry::Recorder`] attached, join every request's lifecycle
//! (issue → select → send → feedback → complete), and print **the worst
//! requests and what the selector saw when it routed them** — the score it
//! ranked the chosen replica with, the freshly recomputed score it *would*
//! have seen, the best candidate it passed over, and the ground-truth
//! queue depths. The headline cells are `partition-flux` and
//! `hetero-fleet` under C3 vs DS: DS's interval-frozen rankings should
//! show tail selection regret well above C3's (the paper's Fig. 2
//! mechanism, attributed request by request), while C3's residual tail is
//! queueing and service it could not dodge.
//!
//! Two regret columns, on purpose. Score regret (`regret`) compares the
//! choice against the best *freshly recomputed* score — but under a
//! blackout DS's fresh recompute reads the same starved latency reservoir
//! its frozen ranking does (a dark node completes nothing, so no new
//! samples arrive), so DS scores its own blindness as near-zero regret;
//! and C3's nonzero score regret is largely its rate limiter deliberately
//! refusing the greedy best. The cross-strategy verdict therefore rests on
//! **queue regret**: chosen replica's ground-truth pending depth minus the
//! shortest in the group at decision time — units every strategy shares
//! and no strategy can grade for itself.
//!
//! Recorded runs are fingerprint-identical to plain runs (pinned by the
//! goldens), so these traces explain exactly the numbers the sweep tables
//! report.
//!
//! Output: per-cell tables on stdout plus `TRACE_explain.jsonl` (override
//! the path with `TRACE_EXPLAIN_OUT`) — one `tail_attribution` meta record
//! and one `tail_request` record per tail-bucket request, worst first,
//! ready for `jq`. `--quick` shrinks the runs for CI smoke use.

use c3_engine::Strategy;
use c3_metrics::Table;
use c3_scenarios::{
    ScenarioParams, ScenarioRegistry, CRASH_FLUX, FLAKY_NET, HETERO_FLEET, PARTITION_FLUX,
};
use c3_telemetry::{attribute_tail, Recorder, TailAttribution, NO_SERVER};

/// How many worst requests each cell prints (the JSONL carries the whole
/// tail bucket).
const WORST: usize = 20;

fn fmt_server(s: u32) -> String {
    if s == NO_SERVER {
        "-".into()
    } else {
        s.to_string()
    }
}

fn fmt_score(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "-".into()
    }
}

/// One cell: recorded run → tail attribution → worst-requests table.
fn explain_cell(
    registry: &ScenarioRegistry,
    scenario: &str,
    strategy: &Strategy,
    ops: u64,
) -> TailAttribution {
    let params = ScenarioParams::sized(strategy.clone(), 1, ops);
    let capacity = ((ops as usize).saturating_mul(6)).min(1 << 18);
    let (_, rec) = registry
        .run_recorded(scenario, &params, Recorder::new(capacity))
        .expect("stock scenarios support C3 and DS");
    let attr = attribute_tail(rec.events(), scenario, strategy.label(), 0.99);
    println!(
        "\n{} / {}: {} requests joined, p99 {:.2} ms, tail bucket {} requests",
        scenario,
        strategy.label(),
        attr.joined,
        attr.threshold_ns as f64 / 1e6,
        attr.tail.len(),
    );
    let mut table = Table::new(vec![
        "request",
        "latency ms",
        "wait ms",
        "queue ms",
        "service ms",
        "chose",
        "saw",
        "fresh",
        "best (srv)",
        "regret",
        "q-regret",
        "lifecycle",
    ]);
    for row in attr.tail.iter().take(WORST) {
        // The hardened-lifecycle story of this request: deadline
        // expiries, retry re-dispatches, and how its hedge race ended.
        let mut lifecycle = String::new();
        if row.timeouts > 0 {
            lifecycle.push_str(&format!("to×{} ", row.timeouts));
        }
        if row.retries > 0 {
            lifecycle.push_str(&format!("re×{} ", row.retries));
        }
        if row.hedged {
            lifecycle.push_str(if row.hedge_rescued {
                "hedge:rescue"
            } else if row.hedge_won {
                "hedge:won"
            } else {
                "hedge:lost"
            });
        }
        table.row(vec![
            row.request.to_string(),
            format!("{:.2}", row.latency_ns as f64 / 1e6),
            format!("{:.2}", row.wait_for_permit_ns as f64 / 1e6),
            format!("{:.2}", row.queueing_ns as f64 / 1e6),
            format!("{:.2}", row.service_ns as f64 / 1e6),
            fmt_server(row.chosen),
            fmt_score(row.chosen_score),
            fmt_score(row.chosen_fresh),
            format!(
                "{} ({})",
                fmt_score(row.best_fresh),
                fmt_server(row.best_server)
            ),
            fmt_score(row.regret_rel),
            fmt_score(row.queue_regret),
            if lifecycle.is_empty() {
                "-".into()
            } else {
                lifecycle.trim_end().to_string()
            },
        ]);
    }
    println!("{table}");
    if attr.hedges > 0 || attr.total_timeouts > 0 {
        println!(
            "lifecycle ledger: {} timeouts, {} retries; {} hedges issued, {} won \
             ({} rescues), mean saved {} per measurable win, mean duplicate burn {}",
            attr.total_timeouts,
            attr.total_retries,
            attr.hedges,
            attr.hedge_wins,
            attr.hedge_rescues,
            fmt_ms(attr.mean_hedge_saved_ns),
            fmt_ms(attr.mean_hedge_waste_ns),
        );
    }
    attr
}

fn fmt_ms(ns: f64) -> String {
    if ns.is_finite() {
        format!("{:.2} ms", ns / 1e6)
    } else {
        "-".into()
    }
}

/// The `trace_explain` command: every headline cell's worst requests on
/// stdout, the whole tail bucket to `TRACE_explain.jsonl`.
pub(crate) fn run(quick: bool) {
    let out_path =
        std::env::var("TRACE_EXPLAIN_OUT").unwrap_or_else(|_| "TRACE_explain.jsonl".into());
    let ops: u64 = if quick { 8_000 } else { 60_000 };
    let registry = ScenarioRegistry::with_defaults();
    let strategies = [Strategy::c3(), Strategy::dynamic_snitching()];
    println!(
        "trace explain: the {WORST} worst requests per cell and what the selector saw \
         ({ops} ops, seed 1, p99+ bucket)"
    );
    println!(
        "columns: `saw` = score the selector ranked the chosen replica with; `fresh` = that \
         replica's freshly recomputed score; `regret` = (fresh − best)/|best|, 0 = picked the \
         best; `q-regret` = chosen queue depth − shortest queue."
    );

    let mut jsonl = String::new();
    for scenario in [PARTITION_FLUX, HETERO_FLEET] {
        let mut cells = Vec::new();
        for strategy in &strategies {
            let attr = explain_cell(&registry, scenario, strategy, ops);
            jsonl.push_str(&attr.to_jsonl());
            cells.push(attr);
        }
        let (c3, ds) = (&cells[0], &cells[1]);
        println!(
            "{scenario}: mean tail queue-regret C3 {:.1} vs DS {:.1} pending requests \
             (score regret C3 {:.3} / DS {:.3}) — {}",
            c3.mean_queue_regret,
            ds.mean_queue_regret,
            c3.mean_regret_rel,
            ds.mean_regret_rel,
            if ds.mean_queue_regret > c3.mean_queue_regret {
                "DS's frozen rankings pay for the tail in queue depth; C3's residual tail is queueing it could not dodge"
            } else {
                "UNEXPECTED: DS tail queue-regret did not exceed C3's in this run"
            }
        );
    }

    // The fault-injection cells: here the tail is bought back (or burned)
    // by the hardened lifecycle, so the story is the lifecycle ledger —
    // how much hedging saved vs the duplicate service it cost — rather
    // than selection regret alone.
    for scenario in [CRASH_FLUX, FLAKY_NET] {
        let mut cells = Vec::new();
        for strategy in &strategies {
            let attr = explain_cell(&registry, scenario, strategy, ops);
            jsonl.push_str(&attr.to_jsonl());
            cells.push(attr);
        }
        let (c3, ds) = (&cells[0], &cells[1]);
        println!(
            "{scenario}: hedge wins C3 {}/{} vs DS {}/{} — the worst requests above \
             carry their timeout/retry/hedge history in the `lifecycle` column",
            c3.hedge_wins, c3.hedges, ds.hedge_wins, ds.hedges,
        );
    }
    std::fs::write(&out_path, jsonl).expect("write TRACE_explain.jsonl");
    println!("\nwrote {out_path}");
}
