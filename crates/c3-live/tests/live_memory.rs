//! Regression guard for the live client's memory (`peak_rss_mb` on the
//! benchmark's live workloads): what a run keeps per completed operation
//! is one 24-byte sample — twice while the per-thread vectors are merged
//! — and nothing else. The in-flight and feedback-lag health channels are
//! fixed-size histograms plus a per-millisecond series, whatever the
//! operation count.
//!
//! The test runs the same closed loop to two operation counts and bounds
//! the *slope* of peak RSS over completions, which cancels everything a
//! run costs regardless of its length: thread stacks, correlation tables,
//! histograms, the fleet. With per-operation health vectors (copied into
//! the recorder and again into an exact reservoir) and 40-byte samples
//! the slope read 163–173 bytes per operation; it reads 67–77 now.
//! Peak RSS is a property of the process, so this file holds exactly one
//! test.
#![cfg(target_os = "linux")]

use std::time::Duration;

use c3_engine::Strategy;
use c3_live::{run_live, LiveConfig};

/// `VmHWM` of this process, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("no VmHWM in /proc/self/status")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("unparsable VmHWM");
    kb * 1024
}

/// One closed-loop run stopped by `ops_cap`: `(completed, peak RSS after)`.
fn run_to(ops_cap: u64) -> (u64, u64) {
    let cfg = LiveConfig {
        replicas: 3,
        concurrency: 32,
        // LOR never backpressures, so no issuer sleeps out a limiter
        // window and the cap is reached at CPU speed.
        strategy: Strategy::lor(),
        in_flight: 256,
        exact_latency: false,
        warmup_ops: 0,
        ops_cap,
        run_for: Duration::from_secs(60),
        ..LiveConfig::default()
    };
    let live = run_live("live-memory", cfg);
    let completed = live.report.total_completions();
    assert!(completed >= ops_cap, "{completed} of {ops_cap} completed");
    (completed, peak_rss_bytes())
}

#[test]
fn live_runs_keep_one_small_sample_per_operation() {
    let (short_ops, short_peak) = run_to(20_000);
    let (long_ops, long_peak) = run_to(120_000);
    let slope = long_peak.saturating_sub(short_peak) as f64 / (long_ops - short_ops) as f64;
    assert!(
        slope <= 110.0,
        "peak RSS grew {slope:.0} bytes per additional operation \
         ({short_ops} ops → {short_peak} B, {long_ops} ops → {long_peak} B)"
    );
}
