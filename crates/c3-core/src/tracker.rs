//! Client-side per-server state.
//!
//! For every candidate server a C3 client keeps (§3.1):
//!
//! - `os_s`, the instantaneous count of outstanding requests to `s`,
//! - `q̄_s`, an EWMA of the queue-size feedback,
//! - `μ̄_s⁻¹`, an EWMA of the service-time feedback,
//! - `R̄_s`, an EWMA of the response time the client itself observed.
//!
//! [`ServerTracker`] owns that state; [`TrackerSnapshot`] is a cheap copy
//! handed to the scoring function.

use crate::config::C3Config;
use crate::feedback::Feedback;
use crate::time::Nanos;

/// Per-server client state feeding the C3 scoring function.
///
/// A tracker holds only what changes per server: the three EWMAs store
/// their averages as plain `f64`s with NaN standing for "no sample yet"
/// (EWMA inputs are finite times and queue sizes, so NaN is free to
/// repurpose), and their shared weight stays once in the owner's
/// [`C3Config::ewma_alpha`], lent to every fold. A client keeps one per
/// server, so this is per-(client, server) state: 32 bytes, two trackers
/// to a cache line, and `C3State` scores three per request.
#[derive(Clone, Debug)]
pub(crate) struct ServerTracker {
    outstanding: u32,
    queue_size: f64,
    service_time_ms: f64,
    response_time_ms: f64,
}

/// Fold a sample into a NaN-initialized EWMA cell: the first sample
/// initializes, later samples use `α·x + (1−α)·x̄` — bit-identical to the
/// standalone [`crate::Ewma`].
#[inline]
fn fold(alpha: f64, avg: &mut f64, sample: f64) {
    *avg = if avg.is_nan() {
        sample
    } else {
        alpha * sample + (1.0 - alpha) * *avg
    };
}

/// NaN-sentinel → `Option` view used by [`TrackerSnapshot`].
#[inline]
fn cell(avg: f64) -> Option<f64> {
    if avg.is_nan() {
        None
    } else {
        Some(avg)
    }
}

/// A read-only snapshot of a server tracker used for scoring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackerSnapshot {
    /// Outstanding requests from this client to the server.
    pub outstanding: u32,
    /// Smoothed queue-size feedback `q̄_s` (None before any feedback).
    pub queue_size: Option<f64>,
    /// Smoothed service time `μ̄_s⁻¹` in milliseconds.
    pub service_time_ms: Option<f64>,
    /// Smoothed client-observed response time `R̄_s` in milliseconds.
    pub response_time_ms: Option<f64>,
}

impl ServerTracker {
    /// A tracker with no outstanding requests and no samples.
    pub(crate) fn new() -> Self {
        Self {
            outstanding: 0,
            queue_size: f64::NAN,
            service_time_ms: f64::NAN,
            response_time_ms: f64::NAN,
        }
    }

    /// Record that a request was sent to this server.
    pub(crate) fn on_send(&mut self) {
        self.outstanding += 1;
    }

    /// Record a response: decrements the outstanding count and folds the
    /// piggybacked feedback and the observed response time into the EWMAs,
    /// weighted by `cfg.ewma_alpha`.
    ///
    /// Responses without feedback (e.g. errors or strategies that do not
    /// piggyback) still decrement the outstanding count and update `R̄_s`.
    pub(crate) fn on_response(
        &mut self,
        cfg: &C3Config,
        response_time: Nanos,
        feedback: Option<&Feedback>,
    ) {
        debug_assert!(self.outstanding > 0, "response without outstanding request");
        let alpha = cfg.ewma_alpha;
        self.outstanding = self.outstanding.saturating_sub(1);
        fold(
            alpha,
            &mut self.response_time_ms,
            response_time.as_millis_f64(),
        );
        if let Some(fb) = feedback {
            fold(alpha, &mut self.queue_size, fb.queue_size as f64);
            fold(
                alpha,
                &mut self.service_time_ms,
                fb.service_time.as_millis_f64(),
            );
        }
    }

    /// Record a response that never arrived (timeout / connection error):
    /// only releases the outstanding slot.
    pub(crate) fn on_abandoned(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Current outstanding request count `os_s`.
    pub(crate) fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Snapshot for scoring.
    pub(crate) fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            outstanding: self.outstanding,
            queue_size: cell(self.queue_size),
            service_time_ms: cell(self.service_time_ms),
            response_time_ms: cell(self.response_time_ms),
        }
    }

    /// The C3 score `Ψ_s` computed straight off the packed fields — the
    /// same arithmetic as [`crate::score`] over [`ServerTracker::snapshot`]
    /// (both call the one scoring core in `score.rs`) without
    /// materializing the `Option`-based snapshot struct. This is the
    /// per-candidate call on the selection hot path.
    #[inline]
    pub(crate) fn score(&self, cfg: &C3Config) -> f64 {
        let response_time = if self.response_time_ms.is_nan() {
            0.0
        } else {
            self.response_time_ms
        };
        let service_time = if self.service_time_ms.is_nan() {
            crate::score::COLD_START_SERVICE_MS
        } else {
            self.service_time_ms
        };
        let q_bar = if self.queue_size.is_nan() {
            0.0
        } else {
            self.queue_size
        };
        crate::score::score_raw(cfg, self.outstanding, q_bar, service_time, response_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(q: u32, ms: u64) -> Feedback {
        Feedback::new(q, Nanos::from_millis(ms))
    }

    /// The default configuration with EWMA weight `a`.
    fn alpha(a: f64) -> C3Config {
        C3Config {
            ewma_alpha: a,
            ..C3Config::default()
        }
    }

    #[test]
    fn outstanding_counts_sends_and_responses() {
        let c = alpha(0.5);
        let mut t = ServerTracker::new();
        t.on_send();
        t.on_send();
        assert_eq!(t.outstanding(), 2);
        t.on_response(&c, Nanos::from_millis(5), Some(&fb(1, 4)));
        assert_eq!(t.outstanding(), 1);
        t.on_abandoned();
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn feedback_updates_ewmas() {
        let c = alpha(1.0); // track exactly
        let mut t = ServerTracker::new();
        t.on_send();
        t.on_response(&c, Nanos::from_millis(10), Some(&fb(6, 4)));
        let s = t.snapshot();
        assert_eq!(s.queue_size, Some(6.0));
        assert_eq!(s.service_time_ms, Some(4.0));
        assert_eq!(s.response_time_ms, Some(10.0));
        assert_eq!(s.outstanding, 0);
    }

    #[test]
    fn response_without_feedback_updates_response_time_only() {
        let c = alpha(1.0);
        let mut t = ServerTracker::new();
        t.on_send();
        t.on_response(&c, Nanos::from_millis(8), None);
        let s = t.snapshot();
        assert_eq!(s.response_time_ms, Some(8.0));
        assert_eq!(s.queue_size, None);
        assert_eq!(s.service_time_ms, None);
    }

    #[test]
    fn ewma_smooths_feedback_sequence() {
        let c = alpha(0.5);
        let mut t = ServerTracker::new();
        for (q, st) in [(0u32, 2u64), (8, 6)] {
            t.on_send();
            t.on_response(&c, Nanos::from_millis(st), Some(&fb(q, st)));
        }
        let s = t.snapshot();
        assert_eq!(s.queue_size, Some(4.0)); // 0.5·8 + 0.5·0
        assert_eq!(s.service_time_ms, Some(4.0)); // 0.5·6 + 0.5·2
    }

    #[test]
    fn abandoned_never_underflows() {
        let mut t = ServerTracker::new();
        t.on_abandoned();
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn packed_score_matches_snapshot_score() {
        use crate::score::score;
        for cfg in [
            C3Config::for_clients(40),
            C3Config::default().without_concurrency_compensation(),
            C3Config::default().with_queue_exponent(2),
        ] {
            let mut t = ServerTracker::new();
            // Cold start, partial state, and fully-warmed state must all
            // agree with the snapshot-based scoring function bit-for-bit.
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
            t.on_send();
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
            t.on_response(&cfg, Nanos::from_millis(7), None);
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
            t.on_send();
            t.on_response(&cfg, Nanos::from_millis(9), Some(&fb(5, 3)));
            assert_eq!(
                t.score(&cfg).to_bits(),
                score(&cfg, &t.snapshot()).to_bits()
            );
        }
    }

    #[test]
    fn fresh_tracker_snapshot_is_empty() {
        let t = ServerTracker::new();
        let s = t.snapshot();
        assert_eq!(s.outstanding, 0);
        assert!(s.queue_size.is_none());
        assert!(s.service_time_ms.is_none());
        assert!(s.response_time_ms.is_none());
    }
}
