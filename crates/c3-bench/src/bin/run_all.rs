//! Runs the entire reproduction suite in paper order (README
//! "Reproducing the paper's figures"). Honours `C3_SCALE` (quick/full)
//! and `C3_RUNS`.
use c3_bench::support::Scale;
use c3_bench::{
    analytic, cluster_experiments as cl, scenario_experiments as sc, sim_experiments as sim,
};

fn main() {
    let scale = Scale::from_env();
    println!("C3 reproduction suite — scale: {scale:?}");
    analytic::fig01();
    analytic::fig04();
    analytic::fig05();
    analytic::concurrency_compensation_demo();
    cl::fig02(scale);
    cl::table1(scale);
    cl::fig06_fig07(scale);
    cl::fig08_fig09(scale);
    cl::fig10(scale);
    cl::fig11(scale);
    cl::fig12(scale);
    cl::fig13(scale);
    cl::extra_skewed_records(scale);
    cl::extra_speculative_retry(scale);
    sim::fig14(scale);
    sim::fig15(scale);
    sim::ablation_components(scale);
    sim::ablation_params(scale);
    sc::scenario_matrix(scale);
    sc::tail_attribution_matrix(scale);
    sc::multi_tenant_fairness(scale);
    println!("\nSuite complete.");
}
