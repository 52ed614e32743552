//! # c3-figures — the reproduction harness
//!
//! One experiment function per figure/table of the paper (README
//! "Reproducing the paper's figures"), each run by name:
//! `c3-figures fig02_ds_oscillation`. Nothing here reads a host clock:
//! host-time performance is measured only by the repo benchmark
//! (`benchmark/run.sh`).
//!
//! All experiments honour `C3_SCALE` (`quick`/`full`) and `C3_RUNS`
//! (repetitions per configuration). Besides the figures in `FIGURES`:
//!
//! - `all` runs the whole suite in paper order;
//! - `scenario_sweep` runs the strategy × scenario sections and the live
//!   client-health check;
//! - `slo_sweep` runs the throughput-at-SLO tier and writes
//!   `BENCH_slo.json` (`C3_SLO_LIVE=0` skips the loopback tier,
//!   `BENCH_SLO_OUT` moves the file);
//! - `trace_explain [--quick]` prints the flight recorder's tail forensics
//!   and writes `TRACE_explain.jsonl` (`TRACE_EXPLAIN_OUT` moves it);
//! - `--list` prints the figure names, one a line (`tools/figures.sh`
//!   digests each one's stdout).

mod analytic;
mod cluster_experiments;
mod scenario_experiments;
mod sim_experiments;
mod slo_experiments;
mod support;
mod trace_explain;

use std::process::ExitCode;

use analytic as an;
use cluster_experiments as cl;
use scenario_experiments as sc;
use sim_experiments as sim;
use support::{runs_from_env, Scale};

/// One named experiment of the suite.
type Experiment = (&'static str, fn(Scale));

/// Every digest-fenced figure, table, ablation and extra, in paper order.
/// The names are the second column of `FIGURES.sha256`.
const FIGURES: &[Experiment] = &[
    ("fig01_lor_vs_ideal", |_| an::fig01()),
    ("fig04_scoring_functions", |_| an::fig04()),
    ("fig05_cubic_rate_curve", |_| an::fig05()),
    ("fig02_ds_oscillation", cl::fig02),
    ("table1_selection_landscape", cl::table1),
    ("fig06_latency_profiles", cl::fig06_fig07),
    ("fig08_load_conditioning", cl::fig08_fig09),
    ("fig10_higher_utilization", cl::fig10),
    ("fig11_dynamic_workload", cl::fig11),
    ("fig12_ssd", cl::fig12),
    ("fig13_rate_adaptation", cl::fig13),
    ("extra_skewed_records", cl::extra_skewed_records),
    ("extra_speculative_retry", cl::extra_speculative_retry),
    ("fig14_fluctuation_sweep", sim::fig14),
    ("fig15_demand_skew", sim::fig15),
    ("ablation_components", sim::ablation_components),
    ("ablation_params", sim::ablation_params),
];

/// The `all` command's sections in order: every figure, the
/// concurrency-compensation demo after the analytic figures, then the
/// scenario-library sections.
fn suite() -> Vec<Experiment> {
    let mut steps = FIGURES.to_vec();
    let after_analytic = 1 + steps
        .iter()
        .position(|(name, _)| *name == "fig05_cubic_rate_curve")
        .expect("fig05 is in the table");
    steps.insert(
        after_analytic,
        ("concurrency_compensation_demo", |_| {
            an::concurrency_compensation_demo()
        }),
    );
    steps.extend_from_slice(&[
        ("scenario_matrix", sc::scenario_matrix),
        ("tail_attribution_matrix", sc::tail_attribution_matrix),
        ("multi_tenant_fairness", sc::multi_tenant_fairness),
    ]);
    steps
}

fn all(scale: Scale) {
    println!("C3 reproduction suite — scale: {scale:?}");
    for (_, run) in suite() {
        run(scale);
    }
    println!("\nSuite complete.");
}

fn scenario_sweep(scale: Scale) {
    sc::scenario_matrix(scale);
    sc::tail_attribution_matrix(scale);
    sc::multi_tenant_fairness(scale);
    sc::live_client_health(scale);
}

fn slo_sweep(scale: Scale) {
    let include_live = std::env::var("C3_SLO_LIVE").as_deref() != Ok("0");
    let results = slo_experiments::throughput_at_slo(scale, runs_from_env(), include_live);
    let out = std::env::var("BENCH_SLO_OUT").unwrap_or_else(|_| "BENCH_slo.json".into());
    std::fs::write(&out, slo_experiments::slo_json(&results)).expect("write BENCH_slo.json");
    println!("\nwrote {out}");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: c3-figures <figure> | all | scenario_sweep | slo_sweep | \
         trace_explain [--quick] | --list"
    );
    eprintln!("figures:");
    for (name, _) in FIGURES {
        eprintln!("  {name}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["--list"] => FIGURES.iter().for_each(|(name, _)| println!("{name}")),
        ["trace_explain"] => trace_explain::run(false),
        ["trace_explain", "--quick"] => trace_explain::run(true),
        ["all"] => all(Scale::from_env()),
        ["scenario_sweep"] => scenario_sweep(Scale::from_env()),
        ["slo_sweep"] => slo_sweep(Scale::from_env()),
        [name] => match FIGURES.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(Scale::from_env()),
            None => return usage(),
        },
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_matches_the_committed_digests() {
        let committed: Vec<&str> = include_str!("../FIGURES.sha256")
            .lines()
            .map(|line| line.split_whitespace().nth(1).expect("`sha256  name` line"))
            .collect();
        // `tools/figures.sh` prints its digests sorted by name.
        let mut names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        assert_eq!(names, committed);
    }

    #[test]
    fn all_runs_every_figure_in_table_order() {
        let suite: Vec<&str> = suite().iter().map(|(name, _)| *name).collect();
        let in_suite: Vec<&str> = suite
            .iter()
            .copied()
            .filter(|name| FIGURES.iter().any(|(n, _)| n == name))
            .collect();
        let figures: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        assert_eq!(in_suite, figures);
    }
}
