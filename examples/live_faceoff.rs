//! Live face-off: C3 vs Dynamic Snitching over real loopback sockets.
//!
//! Spawns the std-only KV fleet, blacks out one replica mid-run with a
//! slow window of the fault plan, and drives both strategies with the same
//! quasi-open-loop offered load — the socket twin of the partition-flux
//! scenario. Prints the read-latency table and C3's per-replica score
//! ranking inside the blackout window (the live half of the sim-vs-live
//! parity trace).
//!
//! ```sh
//! cargo run --release --example live_faceoff            # ~2 s of wall time
//! C3_LIVE_MS=5000 cargo run --release --example live_faceoff
//! ```

use std::time::Duration;

use c3::cluster::{FaultEvent, FaultKind, FaultPlan};
use c3::core::Nanos;
use c3::engine::Strategy;
use c3::live::{run_live, LiveConfig};
use c3::metrics::Table;

fn main() {
    let run_ms: u64 = std::env::var("C3_LIVE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms >= 600)
        .unwrap_or(1_000);
    // One replica goes dark for the middle ~40% of the run.
    let window = FaultEvent {
        node: 0,
        kind: FaultKind::Slow,
        start: Nanos::from_millis(run_ms * 3 / 10),
        end: Nanos::from_millis(run_ms * 7 / 10),
        magnitude: 30.0,
    };

    println!(
        "live face-off on 127.0.0.1: 6 replicas, replica 0 dark {} → {}, {} ms/run",
        window.start, window.end, run_ms
    );
    let mut table = Table::new(vec![
        "strategy",
        "reads",
        "p50 ms",
        "p99 ms",
        "p99.9 ms",
        "reads/s",
        "backpressure",
        "bp sleep ms",
        "rate cuts/grows/throttled",
    ]);
    let mut c3_scores = Vec::new();
    for strategy in [Strategy::c3(), Strategy::dynamic_snitching()] {
        let cfg = LiveConfig {
            replicas: 6,
            threads: 12,
            concurrency: 2,
            keys: 10_000,
            strategy: strategy.clone(),
            offered_rate: Some(5_000.0),
            run_for: Duration::from_millis(run_ms),
            warmup_ops: 200,
            faults: FaultPlan {
                events: vec![window],
            },
            seed: 1,
            ..LiveConfig::default()
        };
        let live = run_live("live-faceoff", cfg);
        let read = live.report.headline();
        table.row(vec![
            strategy.label().to_string(),
            format!("{}", read.completions),
            format!("{:.2}", read.summary.metric_ms("median")),
            format!("{:.2}", read.summary.metric_ms("p99")),
            format!("{:.2}", read.summary.metric_ms("p999")),
            format!("{:.0}", read.throughput),
            format!("{}", live.backpressure_waits),
            format!("{:.1}", live.backpressure_sleep_ns as f64 / 1e6),
            format!(
                "{}/{}/{}",
                live.rate_stats.decreases, live.rate_stats.increases, live.rate_stats.throttled
            ),
        ]);
        if strategy.name() == "C3" {
            c3_scores = live.score_trace;
        }
    }
    println!("{table}");

    // C3's view of the fleet inside the blackout: mean score per replica
    // (higher = worse; the dark replica should dominate).
    let mut sums = [0.0f64; 6];
    let mut count = 0;
    for (at, scores) in &c3_scores {
        if *at >= window.start + Nanos::from_millis(50) && *at < window.end {
            for (s, v) in sums.iter_mut().zip(scores) {
                *s += v;
            }
            count += 1;
        }
    }
    if count > 0 {
        let means: Vec<String> = sums
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mark = if i == window.node { "*" } else { "" };
                format!("n{i}{mark}:{:.0}", s / count as f64)
            })
            .collect();
        println!(
            "C3 mean scores inside the blackout ({} samples): {}",
            count,
            means.join("  ")
        );
        println!("(* = the scripted victim — it must carry the worst score)");
    }
    println!(
        "Expected shape: DS's interval-frozen rankings keep feeding the dark\n\
         replica's queue, C3's rate control collapses into the hole — same\n\
         ordering the partition-flux sim produces, now over real bytes."
    );
}
