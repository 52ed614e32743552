//! The C3 replica scoring function (§3.1 of the paper).
//!
//! A client scores each replica server `s` as
//!
//! ```text
//! Ψ_s = R̄_s − μ̄_s⁻¹ + (q̂_s)^b · μ̄_s⁻¹
//! q̂_s = 1 + os_s·w + q̄_s
//! ```
//!
//! where `R̄_s` is the smoothed client-observed response time, `μ̄_s⁻¹` the
//! smoothed service-time feedback, `q̄_s` the smoothed queue-size feedback,
//! `os_s` the client's outstanding requests to `s`, `w` the
//! concurrency-compensation weight (set to the number of clients), and
//! `b = 3` the cubic queue penalty. Lower scores are better. The paper's
//! formulation divides by the service *rate* `μ̄_s`; multiplying by the
//! service *time* `μ̄_s⁻¹` is the same thing and avoids a reciprocal.
//!
//! When the queue-size estimate is exactly 1 (no outstanding requests and
//! zero queue feedback), the score reduces to `R̄_s`, matching the paper.

use crate::config::C3Config;
use crate::tracker::TrackerSnapshot;

/// Compute the queue-size estimate `q̂_s = 1 + os_s·w + q̄_s`.
///
/// With concurrency compensation disabled (ablation), the `os·w` term is
/// dropped and the raw outstanding count is used instead, modelling a client
/// that ignores the existence of other clients.
pub fn queue_size_estimate(cfg: &C3Config, snap: &TrackerSnapshot) -> f64 {
    q_hat_raw(cfg, snap.outstanding, snap.queue_size.unwrap_or(0.0))
}

/// The queue-size estimate over raw observations — the single definition
/// behind both [`queue_size_estimate`] and [`score_raw`].
#[inline]
fn q_hat_raw(cfg: &C3Config, outstanding: u32, q_bar: f64) -> f64 {
    let concurrency = if cfg.concurrency_compensation {
        outstanding as f64 * cfg.concurrency_weight
    } else {
        outstanding as f64
    };
    1.0 + concurrency + q_bar
}

/// Cold-start service-time assumption (milliseconds) used before the first
/// feedback arrives from a server. Without it, an unknown service time would
/// zero out the queue-penalty term and a client bursting before any response
/// returns would dogpile a single server.
pub(crate) const COLD_START_SERVICE_MS: f64 = 1.0;

/// Compute the C3 score `Ψ_s` for a server, in milliseconds of expected
/// latency-proxy. Lower is better.
///
/// Completely idle, never-contacted servers score 0 (below any server with
/// observed response times), so fresh servers are explored before loaded
/// ones; this mirrors the paper's Cassandra implementation where every node
/// is periodically touched via read repair. Before the first feedback
/// arrives the service time is assumed to be 1 ms, so outstanding requests
/// still push the score up during cold start.
pub fn score(cfg: &C3Config, snap: &TrackerSnapshot) -> f64 {
    score_raw(
        cfg,
        snap.outstanding,
        snap.queue_size.unwrap_or(0.0),
        snap.service_time_ms.unwrap_or(COLD_START_SERVICE_MS),
        snap.response_time_ms.unwrap_or(0.0),
    )
}

/// The scoring core over raw observations (defaults already applied):
/// the single definition both [`score`] and the hot-path
/// `ServerTracker::score` evaluate, so the formula cannot fork.
#[inline]
pub(crate) fn score_raw(
    cfg: &C3Config,
    outstanding: u32,
    q_bar: f64,
    service_time_ms: f64,
    response_time_ms: f64,
) -> f64 {
    let q_hat = q_hat_raw(cfg, outstanding, q_bar);
    // `powi` with a runtime exponent is a multiply loop the optimizer
    // cannot unroll; the paper's cubic (b = 3) gets a straight-line fast
    // path. `powi(3)` lowers to the identical (x·x)·x product chain, so
    // the result is bit-for-bit the same.
    let penalty = if cfg.queue_exponent == 3 {
        (q_hat * q_hat) * q_hat
    } else {
        q_hat.powi(cfg.queue_exponent as i32)
    };
    response_time_ms - service_time_ms + penalty * service_time_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(outstanding: u32, q: f64, st_ms: f64, rt_ms: f64) -> TrackerSnapshot {
        TrackerSnapshot {
            outstanding,
            queue_size: Some(q),
            service_time_ms: Some(st_ms),
            response_time_ms: Some(rt_ms),
        }
    }

    #[test]
    fn score_reduces_to_response_time_when_idle() {
        // q̂ = 1 (no outstanding, no queue) ⇒ Ψ = R̄ − μ̄⁻¹ + 1·μ̄⁻¹ = R̄.
        let cfg = C3Config::default();
        let s = snap(0, 0.0, 4.0, 9.0);
        assert!((score(&cfg, &s) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_server_scores_zero() {
        let cfg = C3Config::default();
        let s = TrackerSnapshot {
            outstanding: 0,
            queue_size: None,
            service_time_ms: None,
            response_time_ms: None,
        };
        assert_eq!(score(&cfg, &s), 0.0);
    }

    #[test]
    fn longer_queues_are_penalized_cubically() {
        let cfg = C3Config::default();
        // Same service time; queue feedback 2 vs 4 (q̂ = 3 vs 5).
        let a = score(&cfg, &snap(0, 2.0, 4.0, 4.0));
        let b = score(&cfg, &snap(0, 4.0, 4.0, 4.0));
        // Ψ = R − T + q̂³·T: a = 4 − 4 + 27·4 = 108; b = 4 − 4 + 125·4 = 500.
        assert!((a - 108.0).abs() < 1e-9);
        assert!((b - 500.0).abs() < 1e-9);
    }

    #[test]
    fn paper_figure4_crossover() {
        // Figure 4: with service times 4 ms and 20 ms, the cubic function
        // treats the servers as equal when the fast server's queue estimate
        // is ∛(20/4) ≈ 1.71× the slow server's; the linear function requires
        // a full 5×. We check both by solving for the equal-score queue.
        // Use R̄ = μ̄⁻¹ so Ψ = q̂^b · μ̄⁻¹ exactly.
        let q_slow: f64 = 20.0;
        let slow = snap(0, q_slow - 1.0, 20.0, 20.0);

        // Cubic: q̂_fast³·4 = q̂_slow³·20 ⇒ q̂_fast = q̂_slow·∛5 ≈ 1.71·q̂_slow.
        let cubic_cfg = C3Config::default().with_queue_exponent(3);
        let q_fast_cubic = q_slow * 5.0f64.cbrt();
        let fast_cubic = snap(0, q_fast_cubic - 1.0, 4.0, 4.0);
        let ratio = score(&cubic_cfg, &fast_cubic) / score(&cubic_cfg, &slow);
        assert!(
            (ratio - 1.0).abs() < 1e-9,
            "cubic scores should cross at ∛5× queue ratio, got ratio {ratio}"
        );

        // Linear: q̂_fast·4 = q̂_slow·20 ⇒ q̂_fast = 5·q̂_slow (paper: 100 vs 20).
        let linear_cfg = C3Config::default().with_queue_exponent(1);
        let fast_linear = snap(0, 5.0 * q_slow - 1.0, 4.0, 4.0);
        let ratio = score(&linear_cfg, &fast_linear) / score(&linear_cfg, &slow);
        assert!(
            (ratio - 1.0).abs() < 1e-9,
            "linear scores should cross at 5× queue ratio, got ratio {ratio}"
        );
    }

    #[test]
    fn concurrency_compensation_projects_higher_queues() {
        let cfg = C3Config::for_clients(100);
        let light = snap(0, 2.0, 4.0, 4.0);
        let heavy = snap(2, 2.0, 4.0, 4.0); // 2 outstanding × w=100
        assert!(score(&cfg, &heavy) > score(&cfg, &light) * 100.0);
    }

    #[test]
    fn disabling_concurrency_compensation_uses_raw_outstanding() {
        let cfg = C3Config::for_clients(100).without_concurrency_compensation();
        let s = snap(2, 2.0, 4.0, 4.0);
        // q̂ = 1 + 2 + 2 = 5.
        assert!((queue_size_estimate(&cfg, &s) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn higher_demand_client_ranks_server_worse() {
        // §3.1: "a client with a higher demand will be more likely to rank s
        // poorly compared to a client with a lighter demand".
        let cfg = C3Config::for_clients(10);
        let light_client = snap(1, 3.0, 4.0, 6.0);
        let heavy_client = snap(5, 3.0, 4.0, 6.0);
        assert!(score(&cfg, &heavy_client) > score(&cfg, &light_client));
    }
}
