//! Regression guard for the live client's memory (`peak_rss_mb` on the
//! benchmark's live workloads): a run keeps in-flight state, not
//! run-length state — each connection reader folds its completions into
//! the run's metrics a batch at a time — and a process that runs many
//! windows back to back does not ratchet its peak upward. The in-flight
//! and feedback-lag health channels are fixed-size histograms plus a
//! per-millisecond series, whatever the operation count.
//!
//! - The *slope* test runs the same GET-only closed loop to two operation
//!   counts and bounds the growth of peak RSS over completions, which
//!   cancels everything a run costs regardless of its length: thread
//!   stacks, correlation tables, histograms, the fleet. GET-only, because
//!   a PUT of a key not yet stored grows the replica's store — data the
//!   run legitimately holds, capped at keys × value bytes — which a 10%
//!   PUT mix over 10k keys of 1 KiB counted as per-operation cost. With
//!   per-operation health vectors and 40-byte samples the slope read
//!   163–173 bytes per operation (that mix); with one 24-byte sample per
//!   operation kept to teardown, 32–35 (GET-only); with batches folded as
//!   they fill, 7–10.
//! - The *multi-window* test runs the benchmark's closed-loop shape
//!   several times in one process, the way a benchmark run holds eight
//!   windows, and bounds how far peak RSS climbs after the first window.
//!   When each reader grew one sample vector by doubling and the runs
//!   were copied into one vector for a sort, the multi-MB blocks stayed
//!   in per-thread allocator arenas and every window added to the peak
//!   (+7.6–8.7 MB over five more windows of 150k operations). The
//!   exact-latency reservoir the benchmark turns on records into one
//!   reused 64 KiB buffer and keeps its values in sorted chunks of 4 B
//!   per value for the same reason: as one vector grown by doubling it
//!   climbed ≈ 5 MB over these windows.
//!
//! Peak RSS is a property of the process, so each test re-runs this binary
//! filtered to itself and measures inside that child.
#![cfg(target_os = "linux")]

use std::process::Command;
use std::time::Duration;

use c3_engine::Strategy;
use c3_live::{run_live, LiveConfig};

/// Set in the child process to the name of the test it should measure.
const CHILD_ENV: &str = "C3_LIVE_MEMORY_CHILD";

/// Run `body` in a fresh process of this test binary, so its peak RSS
/// reading is its own.
fn in_own_process(name: &str, body: fn()) {
    if std::env::var(CHILD_ENV).as_deref() == Ok(name) {
        body();
        return;
    }
    let status = Command::new(std::env::current_exe().expect("test binary path"))
        .args([name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, name)
        .status()
        .expect("spawn the test binary");
    assert!(status.success(), "{name} failed in its own process");
}

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
fn run_to(cfg: LiveConfig) -> (u64, u64) {
    let ops_cap = cfg.ops_cap;
    let live = run_live("live-memory", cfg);
    let completed = live.report.total_completions();
    assert!(completed >= ops_cap, "{completed} of {ops_cap} completed");
    (completed, peak_rss_bytes())
}

/// A closed loop that reaches its cap at CPU speed: LOR never
/// backpressures, so no issuer sleeps out a limiter window.
fn capped(ops_cap: u64) -> LiveConfig {
    LiveConfig {
        replicas: 3,
        concurrency: 32,
        strategy: Strategy::lor(),
        in_flight: 256,
        exact_latency: false,
        warmup_ops: 0,
        ops_cap,
        run_for: Duration::from_secs(60),
        ..LiveConfig::default()
    }
}

#[test]
fn live_runs_keep_no_samples_per_operation() {
    in_own_process("live_runs_keep_no_samples_per_operation", || {
        let get_only = |ops_cap| LiveConfig {
            read_fraction: 1.0,
            ..capped(ops_cap)
        };
        let (short_ops, short_peak) = run_to(get_only(20_000));
        let (long_ops, long_peak) = run_to(get_only(120_000));
        let slope = long_peak.saturating_sub(short_peak) as f64 / (long_ops - short_ops) as f64;
        // Measured 6.8–10.0 (release), plus 25%; the per-op sample store
        // read 32–35.
        assert!(
            slope <= 12.5,
            "peak RSS grew {slope:.0} bytes per additional operation \
             ({short_ops} ops → {short_peak} B, {long_ops} ops → {long_peak} B)"
        );
    });
}

#[test]
fn back_to_back_windows_do_not_ratchet_peak_rss() {
    in_own_process("back_to_back_windows_do_not_ratchet_peak_rss", || {
        // The benchmark's closed-loop window (six replicas, two issuers,
        // 512 in flight, exact latency on).
        let window = || LiveConfig {
            replicas: 6,
            threads: 2,
            in_flight: 512,
            exact_latency: true,
            ..capped(150_000)
        };
        let (_, first) = run_to(window());
        let mut peaks = vec![first];
        for _ in 1..6 {
            peaks.push(run_to(window()).1);
        }
        let growth = peaks.last().unwrap() - first;
        assert!(
            growth <= 3 << 20,
            "peak RSS climbed {} KiB after the first window (peaks in KiB: {:?})",
            growth >> 10,
            peaks.iter().map(|p| p >> 10).collect::<Vec<_>>()
        );
    });
}
