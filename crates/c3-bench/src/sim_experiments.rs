//! Simulator-backed experiments: Figures 14 and 15 (paper §6), plus the
//! design ablations of C3's components and parameters.

use c3_core::{C3Config, Nanos};
use c3_metrics::Table;
use c3_sim::{DemandSkew, SimConfig, Simulation, Strategy};

use crate::support::{across_seeds, banner, runs_from_env, Scale};

const INTERVALS_MS: [u64; 6] = [10, 50, 100, 200, 300, 500];

fn sim_cfg(
    strategy: Strategy,
    clients: usize,
    interval_ms: u64,
    utilization: f64,
    scale: Scale,
    seed: u64,
) -> SimConfig {
    SimConfig {
        total_requests: scale.sim_requests(),
        ..SimConfig::paper(
            strategy,
            clients,
            Nanos::from_millis(interval_ms),
            utilization,
        )
    }
    .tap_seed(seed)
}

trait TapSeed {
    fn tap_seed(self, seed: u64) -> Self;
}

impl TapSeed for SimConfig {
    fn tap_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn p99_of(cfg: SimConfig) -> f64 {
    Simulation::new(cfg).run().summary().metric_ms("p99")
}

/// Figure 14: 99th-percentile latency across fluctuation intervals, client
/// counts and utilizations for ORA / C3 / LOR / RR.
pub(crate) fn fig14(scale: Scale) {
    banner(
        "F14",
        "p99 vs service-time fluctuation interval (Figure 14)",
    );
    let runs = runs_from_env();
    for (util, util_label) in [
        (0.7, "high utilization (70%)"),
        (0.45, "low utilization (45%)"),
    ] {
        for clients in [150usize, 300] {
            let mut table = Table::new(vec![
                "interval ms",
                "ORA p99",
                "C3 p99",
                "LOR p99",
                "RR p99",
            ]);
            for interval in INTERVALS_MS {
                let mut row = vec![format!("{interval}")];
                for strategy in [
                    Strategy::oracle(),
                    Strategy::c3(),
                    Strategy::lor(),
                    Strategy::round_robin(),
                ] {
                    let set = across_seeds(runs, |seed| {
                        p99_of(sim_cfg(
                            strategy.clone(),
                            clients,
                            interval,
                            util,
                            scale,
                            seed,
                        ))
                    });
                    row.push(format!("{:.1}", set.mean()));
                }
                table.row(row);
            }
            println!("{util_label}, {clients} clients:\n{table}");
        }
    }
    println!(
        "Paper shapes: all schemes are alike at T=10 ms (feedback is stale\n\
         within one RTT); as T grows LOR degrades faster than C3, RR (rate\n\
         control without ranking) is worst, and C3 stays closest to ORA. At\n\
         low utilization C3's curve plateaus while LOR/RR keep worsening."
    );
}

/// Figure 15: heavy client demand skews (20% / 50% of clients generate 80%
/// of the requests).
pub(crate) fn fig15(scale: Scale) {
    banner("F15", "p99 under client demand skew (Figure 15)");
    let runs = runs_from_env();
    for skew_clients in [0.2, 0.5] {
        for clients in [150usize, 300] {
            let mut table = Table::new(vec![
                "interval ms",
                "ORA p99",
                "C3 p99",
                "LOR p99",
                "RR p99",
            ]);
            for interval in INTERVALS_MS {
                let mut row = vec![format!("{interval}")];
                for strategy in [
                    Strategy::oracle(),
                    Strategy::c3(),
                    Strategy::lor(),
                    Strategy::round_robin(),
                ] {
                    let set = across_seeds(runs, |seed| {
                        let mut cfg =
                            sim_cfg(strategy.clone(), clients, interval, 0.7, scale, seed);
                        cfg.demand_skew = Some(DemandSkew {
                            fraction_of_clients: skew_clients,
                            fraction_of_demand: 0.8,
                        });
                        p99_of(cfg)
                    });
                    row.push(format!("{:.1}", set.mean()));
                }
                table.row(row);
            }
            println!(
                "demand skew: {:.0}% of clients generate 80% of requests, {clients} clients:\n{table}",
                skew_clients * 100.0
            );
        }
    }
    println!("Paper shape: regardless of skew, C3 outperforms LOR and RR.");
}

/// Ablation A1: C3's components — full C3 vs no-rate-control vs
/// no-concurrency-compensation vs queue exponents b ∈ {1, 2, 3, 4}.
pub(crate) fn ablation_components(scale: Scale) {
    banner(
        "A1",
        "component ablation: ranking, rate control, concurrency compensation, exponent b",
    );
    let runs = runs_from_env();
    let mut table = Table::new(vec!["variant", "p99 ms (mean over seeds)"]);
    for strategy in [
        Strategy::c3(),
        Strategy::c3_no_rate_control(),
        Strategy::c3_no_concurrency_comp(),
        Strategy::c3_exponent(1),
        Strategy::c3_exponent(2),
        Strategy::c3_exponent(4),
        Strategy::lor(),
    ] {
        let set = across_seeds(runs, |seed| {
            p99_of(sim_cfg(strategy.clone(), 150, 200, 0.7, scale, seed))
        });
        table.row(vec![
            strategy.label().to_string(),
            format!("{:.1}", set.mean()),
        ]);
    }
    println!("{table}");
    println!(
        "Reading: b=3 (C3) should sit at or near the minimum; b=1 (linear\n\
         scoring) builds long queues at fast servers; disabling concurrency\n\
         compensation re-admits herding."
    );
}

/// Ablation A2: parameter sensitivity — the concurrency weight w and the
/// multiplicative decrease β.
pub(crate) fn ablation_params(scale: Scale) {
    banner("A2", "parameter sensitivity: w and β");
    let runs = runs_from_env();
    let mut table = Table::new(vec!["parameter", "value", "p99 ms"]);
    for w in [1.0, 10.0, 150.0, 1000.0] {
        let set = across_seeds(runs, |seed| {
            let mut cfg = sim_cfg(Strategy::c3(), 150, 200, 0.7, scale, seed);
            cfg.keep_c3_weight = true;
            cfg.c3.concurrency_weight = w;
            p99_of(cfg)
        });
        table.row(vec![
            "w (concurrency weight)".to_string(),
            format!("{w}"),
            format!("{:.1}", set.mean()),
        ]);
    }
    for beta in [0.1, 0.2, 0.5, 0.8] {
        let set = across_seeds(runs, |seed| {
            let mut cfg = sim_cfg(Strategy::c3(), 150, 200, 0.7, scale, seed);
            cfg.c3 = C3Config { beta, ..cfg.c3 };
            p99_of(cfg)
        });
        table.row(vec![
            "β (multiplicative decrease)".to_string(),
            format!("{beta}"),
            format!("{:.1}", set.mean()),
        ]);
    }
    println!("{table}");
    println!(
        "The paper sets w = #clients and β = 0.2 without a sensitivity\n\
         analysis (left as future work); this table is our addition."
    );
}
