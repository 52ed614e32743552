//! # c3-bench — the reproduction harness
//!
//! One experiment function per figure/table of the paper (README
//! "Reproducing the paper's figures"), each exposed as a binary under
//! `src/bin/`. Nothing here reads a host clock: host-time performance is
//! measured only by the repo benchmark (`benchmark/run.sh`).
//!
//! All experiments honour `C3_SCALE` (`quick`/`full`) and `C3_RUNS`
//! (repetitions per configuration); `run_all` executes the full suite.
//! The `slo_sweep` bin runs the throughput-at-SLO tier
//! (`slo_experiments`) and writes `BENCH_slo.json`.

pub mod analytic;
pub mod cluster_experiments;
pub mod scenario_experiments;
pub mod sim_experiments;
pub mod slo_experiments;
pub mod support;
