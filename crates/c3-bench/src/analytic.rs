//! Analytic/toy experiments: Figures 1, 4 and 5 are derived directly from
//! the mechanism, not from cluster measurements.

use c3_core::{cubic_rate, queue_size_estimate, score, C3Config, Nanos, TrackerSnapshot};
use c3_metrics::Table;

use crate::support::banner;

/// Figure 1: how LOR mis-allocates a synchronized burst across two servers
/// with service times 4 ms and 10 ms, versus the ideal allocation that
/// compensates service time with queue length.
///
/// Three clients each receive a burst of four requests. LOR balances
/// *counts* (6 requests each), so the slow server drains its share in
/// 6 × 10 ms = 60 ms. The ideal allocation balances *completion times*:
/// 8 requests on the fast server (32 ms) and 4 on the slow one (40 ms →
/// the paper quotes max latency 32 ms for its slightly different split;
/// we print the whole frontier).
pub(crate) fn fig01() {
    banner(
        "F1",
        "LOR vs ideal allocation of a 12-request burst (Figure 1)",
    );
    let total = 12u64;
    let fast_ms = 4.0;
    let slow_ms = 10.0;

    let mut table = Table::new(vec![
        "allocation (fast/slow)",
        "fast drain (ms)",
        "slow drain (ms)",
        "max latency (ms)",
    ]);
    let mut best = (0u64, f64::INFINITY);
    for fast_count in 0..=total {
        let slow_count = total - fast_count;
        let fast_drain = fast_count as f64 * fast_ms;
        let slow_drain = slow_count as f64 * slow_ms;
        let max = fast_drain.max(slow_drain);
        if max < best.1 {
            best = (fast_count, max);
        }
        if fast_count == total / 2 || fast_count == best.0 || fast_count % 3 == 0 {
            table.row(vec![
                format!("{fast_count}/{slow_count}"),
                format!("{fast_drain:.0}"),
                format!("{slow_drain:.0}"),
                format!("{max:.0}"),
            ]);
        }
    }
    println!("{table}");
    let lor_max = (total / 2) as f64 * slow_ms;
    println!(
        "LOR (equal split 6/6): max latency {lor_max:.0} ms — the paper's 60 ms.\n\
         Ideal ({}/{}): max latency {:.0} ms — the paper's ~32 ms.",
        best.0,
        total - best.0,
        best.1
    );
    assert!(best.1 < lor_max, "ideal must beat LOR");
}

/// Figure 4: linear vs cubic scoring functions. Prints score curves for
/// μ⁻¹ ∈ {4 ms, 20 ms} and the queue-size estimates at which the two
/// servers score equally.
pub(crate) fn fig04() {
    banner("F4", "linear vs cubic scoring functions (Figure 4)");
    let snap = |q: f64, st: f64| TrackerSnapshot {
        outstanding: 0,
        queue_size: Some(q - 1.0), // q̂ = 1 + q̄
        service_time_ms: Some(st),
        response_time_ms: Some(st),
    };
    for (label, b) in [("linear  (q̂)¹/μ̄", 1u32), ("cubic   (q̂)³/μ̄", 3u32)] {
        let cfg = C3Config::default().with_queue_exponent(b);
        let mut table = Table::new(vec!["q̂", "score 1/μ=4ms", "score 1/μ=20ms"]);
        for q in [1.0, 5.0, 10.0, 20.0, 34.0, 50.0, 100.0] {
            table.row(vec![
                format!("{q:.0}"),
                format!("{:.0}", score(&cfg, &snap(q, 4.0))),
                format!("{:.0}", score(&cfg, &snap(q, 20.0))),
            ]);
        }
        println!("{label}:\n{table}");
        // Equal-score crossover: q̂_fast^b · 4 = 20^b · 20 for q̂_slow = 20.
        let crossover = 20.0 * 5.0f64.powf(1.0 / b as f64);
        println!(
            "equal score with slow server at q̂=20 requires fast q̂ ≈ {crossover:.1} \
             ({}×)\n",
            crossover / 20.0
        );
    }
    println!(
        "The cubic exponent shrinks the queue advantage the fast server is\n\
         allowed to accumulate (∛5 ≈ 1.7× instead of 5×), which is exactly\n\
         the herd-damping the paper argues for."
    );
}

/// Figure 5: the cubic rate-growth curve and its three operating regions.
pub(crate) fn fig05() {
    banner("F5", "cubic sending-rate growth curve (Figure 5)");
    let r0 = 100.0;
    let beta = 0.2;
    let saddle_ms = 100.0;
    let mut table = Table::new(vec!["ΔT (ms)", "rate (req/δ)", "region"]);
    for dt in (0..=200).step_by(10) {
        let rate = cubic_rate(r0, beta, saddle_ms, dt as f64);
        let region = if (dt as f64) < 0.5 * saddle_ms {
            "low-rate (steep recovery)"
        } else if (dt as f64) <= 1.5 * saddle_ms {
            "saddle (stable)"
        } else {
            "optimistic probing"
        };
        table.row(vec![
            format!("{dt}"),
            format!("{rate:.1}"),
            region.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "R₀ = {r0}: the curve starts at R₀(1−β) = {:.0}, flattens through R₀ \
         around ΔT = {saddle_ms:.0} ms, then probes beyond.",
        r0 * (1.0 - beta)
    );
}

/// Supplementary: the concurrency-compensation example from §3.1 — a
/// heavier client projects a larger queue on the same server.
pub(crate) fn concurrency_compensation_demo() {
    banner("§3.1", "concurrency compensation: q̂ = 1 + os·w + q̄");
    let cfg = C3Config::for_clients(100);
    let mut table = Table::new(vec!["outstanding", "q̂ (w=100)", "score (μ̄⁻¹=4ms)"]);
    for os in [0u32, 1, 2, 4] {
        let snap = TrackerSnapshot {
            outstanding: os,
            queue_size: Some(3.0),
            service_time_ms: Some(4.0),
            response_time_ms: Some(6.0),
        };
        table.row(vec![
            format!("{os}"),
            format!("{:.0}", queue_size_estimate(&cfg, &snap)),
            format!("{:.2e}", score(&cfg, &snap)),
        ]);
    }
    println!("{table}");
    let _ = Nanos::ZERO;
}
