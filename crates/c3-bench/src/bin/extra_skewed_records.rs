//! Reproduces one artifact of the C3 paper (README "Reproducing the paper's figures").
use c3_bench::support::Scale;

fn main() {
    c3_bench::cluster_experiments::extra_skewed_records(Scale::from_env());
}
