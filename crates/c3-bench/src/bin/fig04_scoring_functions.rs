//! Reproduces one artifact of the C3 paper (README "Reproducing the paper's figures").
fn main() {
    c3_bench::analytic::fig04();
}
