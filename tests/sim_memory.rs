//! Regression guard for the simulated loops' memory (`peak_rss_mb` in the
//! repo benchmark): resident growth over a run must follow what is in
//! flight, not how many requests the run issues.
//!
//! The §6 simulator, the direct fleet and the §5 cluster keep their
//! request/send records in recycling `c3_engine::SlotTable`s. With
//! grow-only tables a 400k-request §6 run grew the process by 36 MB, a
//! 400k-op `mega-fleet` cell by 50 MB and a recorded 400k-op `crash-flux`
//! cell (the `cluster-faults-recorded` shape) by ≈ 76 MB; what is left is
//! each run's fixed footprint — kernel tiers, histograms and selectors
//! (≈ 6 MB), plus, for the mega-fleet, 120k pending think timers and 128
//! selector shards × 256 servers at 124 bytes per (shard, server) pair — a
//! 32-byte tracker, an 88-byte rate limiter and the backpressure front's
//! 4-byte group slot (≈ 4 MB; 272 bytes, ≈ 8.9 MB, while every pair
//! carried its own copy of the configuration, its limiter's counters and
//! an empty backlog with its timer slot) — and, for the exact-latency
//! cluster cell, the reservoir's 4 bytes per measured op (≈ 1.5 MB; at
//! 8 bytes the cell grew by 5.3–5.5 MB, now by 3.8–4.3).
//! Most think timers wait in the kernel's coarse ring. Both of the
//! kernel's rings draw node storage from one recycled chunk pool, so the
//! wheel holds what is pending, not each bucket's busiest epoch: before
//! the pool this cell grew by ≈ 22.4 MB, and coarse buckets that kept
//! their storage, each at its own peak, grew it to ≈ 32 MB.
//! Peak RSS is a property of the process, so this file holds exactly one
//! test, and CI also runs it in release — the profile the benchmark,
//! `scenario_sweep` and the figure bins run.
#![cfg(target_os = "linux")]

use c3::engine::Strategy;
use c3::scenarios::{RunTuning, ScenarioParams, ScenarioRegistry, CRASH_FLUX, MEGA_FLEET};
use c3::sim::{SimConfig, Simulation};
use c3::telemetry::Recorder;

const REQUESTS: u64 = 400_000;

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {field}{line}"))
}

/// How far `run` pushed the resident set past where it started, in MB:
/// `VmHWM` after minus `VmRSS` before.
fn resident_growth_mb(run: impl FnOnce()) -> f64 {
    // Reset the peak to the current RSS (Linux ≥ 4.0) so an earlier
    // measurement's peak cannot stand in for this one's. Where the write
    // is refused the bound below still holds, only less sharply.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let before = status_kb("VmRSS:");
    run();
    status_kb("VmHWM:").saturating_sub(before) as f64 / 1024.0
}

#[test]
fn simulated_runs_grow_by_what_is_in_flight() {
    // This cell runs first: heap an earlier cell freed but kept resident
    // (the mega-fleet's) absorbed all of its growth unseen.
    let cluster = resident_growth_mb(|| {
        let tuning = RunTuning {
            exact_latency: true,
            ..RunTuning::default()
        };
        let params = ScenarioParams::tuned(Strategy::c3(), 1, REQUESTS, tuning);
        let (report, _recorder) = ScenarioRegistry::with_defaults()
            .run_recorded(CRASH_FLUX, &params, Recorder::with_default_capacity())
            .expect("stock scenario, stock strategy");
        // Less the warm-up and the reads parked after deadline + retries.
        assert!(report.total_completions() >= REQUESTS * 9 / 10);
    });
    let sim = resident_growth_mb(|| {
        let cfg = SimConfig {
            total_requests: REQUESTS,
            ..SimConfig::default()
        };
        assert_eq!(Simulation::new(cfg).run().completed, REQUESTS);
    });
    let fleet = resident_growth_mb(|| {
        let report = ScenarioRegistry::with_defaults()
            .run(
                MEGA_FLEET,
                &ScenarioParams::sized(Strategy::c3(), 1, REQUESTS),
            )
            .expect("stock scenario, stock strategy");
        // Measured completions: the run less its 5% warm-up.
        assert!(report.total_completions() >= REQUESTS * 9 / 10);
    });
    assert!(
        sim < 16.0,
        "§6 run of {REQUESTS} requests grew RSS by {sim:.1} MB"
    );
    // Measured 7.4–7.5 MB (debug and release), plus 25%: tight enough to
    // reject per-(shard, server) state at 272 bytes a pair (11.5–12.0 MB)
    // and a wheel whose buckets keep their own storage (≈ 22.4 MB, ≈ 32 MB
    // if coarse buckets keep theirs too).
    assert!(
        fleet < 9.4,
        "mega-fleet cell of {REQUESTS} ops grew RSS by {fleet:.1} MB"
    );
    // Measured 4.25 MB (debug; 3.78 in release), plus 25%. Its smaller
    // footprint leaves less freed heap for the two cells after it, which
    // read ≈ 1.2 MB more than behind an 8-byte reservoir (and the same
    // when run alone).
    assert!(
        cluster < 5.3,
        "recorded crash-flux cell of {REQUESTS} ops grew RSS by {cluster:.1} MB"
    );
}
