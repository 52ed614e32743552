//! The C3 replica-group scheduler (§3.3, Algorithm 1).
//!
//! [`C3State`] owns the per-server trackers and rate limiters for one
//! client. [`C3State::try_send`] implements Algorithm 1's inner loop: sort
//! the replica group by the cubic score, pick the first server within its
//! rate, consume a token and account the outstanding request. When every
//! replica is rate-saturated the caller must hold the request in a backlog
//! (the simulators' `c3_engine::BackpressureFront`).
//!
//! One `C3State` serves all replica groups of a client (rate limiters are
//! per *server* and shared across groups); backlogs are per *replica
//! group*, mirroring the paper's per-group Akka schedulers.

use crate::config::C3Config;
use crate::feedback::Feedback;
use crate::rate::{RateLimiter, RateStats};
use crate::time::Nanos;
use crate::tracker::ServerTracker;

/// Identifier of a server within a client's view (dense index).
pub type ServerId = usize;

/// Outcome of a send attempt through the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendDecision {
    /// Send to this server now (token consumed, outstanding incremented).
    Send(ServerId),
    /// All replicas are rate-limited; the request must be backlogged until
    /// `retry_at` (next token window) or until a response arrives.
    Backpressure {
        /// Earliest time a send token becomes available at any replica.
        retry_at: Nanos,
    },
}

/// Per-client C3 state: one tracker and one rate limiter per server.
#[derive(Clone, Debug)]
pub struct C3State {
    cfg: C3Config,
    trackers: Vec<ServerTracker>,
    limiters: Vec<RateLimiter>,
    /// Scratch scores aligned with the group passed to `try_send`,
    /// computed once per call and reused across calls — the selection hot
    /// path performs no allocation.
    scores: Vec<f64>,
}

impl C3State {
    /// Create state for a client that can talk to `num_servers` servers.
    pub fn new(num_servers: usize, cfg: C3Config, now: Nanos) -> Self {
        cfg.validate();
        Self {
            trackers: (0..num_servers)
                .map(|_| ServerTracker::new(cfg.ewma_alpha))
                .collect(),
            limiters: (0..num_servers)
                .map(|_| RateLimiter::new(&cfg, now))
                .collect(),
            cfg,
            scores: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &C3Config {
        &self.cfg
    }

    /// Current C3 score of a server (lower is better).
    pub fn score_of(&self, server: ServerId) -> f64 {
        self.trackers[server].score(&self.cfg)
    }

    /// Outstanding requests to a server.
    pub fn outstanding(&self, server: ServerId) -> u32 {
        self.trackers[server].outstanding()
    }

    /// The server's rate limiter (read-only), for introspection and the
    /// Figure 13 rate traces.
    pub fn limiter(&self, server: ServerId) -> &RateLimiter {
        &self.limiters[server]
    }

    /// Read-only tracker snapshot of a server (EWMAs, outstanding count)
    /// for decision-time telemetry.
    pub(crate) fn tracker_snapshot(&self, server: ServerId) -> crate::tracker::TrackerSnapshot {
        self.trackers[server].snapshot()
    }

    /// Algorithm 1: rank `group` by score and return the best server that is
    /// within its sending rate, consuming a token. With rate control
    /// disabled (ablation), the top-ranked server is returned
    /// unconditionally.
    ///
    /// The caller must follow every `Send(s)` with [`C3State::record_send`]
    /// when the request actually goes out (this split exists because
    /// read-repair fan-out sends bypass selection but still need outstanding
    /// accounting).
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty or contains an out-of-range server id.
    pub fn try_send(&mut self, group: &[ServerId], now: Nanos) -> SendDecision {
        assert!(!group.is_empty(), "replica group must not be empty");
        // Score every candidate exactly once into the scratch buffer (the
        // old ranking sort recomputed scores inside its comparator), then
        // visit candidates best-first with a lazy arg-min scan instead of a
        // full sort: in the common case the top-ranked server has a token
        // and only one scan happens. Ties visit in caller order, exactly as
        // the previous stable sort did.
        self.scores.clear();
        for &s in group {
            let score = self.trackers[s].score(&self.cfg);
            debug_assert!(!score.is_nan(), "C3 scores must not be NaN");
            self.scores.push(score);
        }

        let mut decision = None;
        if self.cfg.rate_control {
            loop {
                // Leftmost minimum among the not-yet-tried candidates
                // (tried entries are marked NaN, which never compares
                // less-than).
                let mut best: Option<(f64, usize)> = None;
                for (i, &sc) in self.scores.iter().enumerate() {
                    if !sc.is_nan() && best.is_none_or(|(b, _)| sc < b) {
                        best = Some((sc, i));
                    }
                }
                let Some((_, i)) = best else { break };
                self.scores[i] = f64::NAN;
                let s = group[i];
                if self.limiters[s].try_acquire(now) {
                    decision = Some(s);
                    break;
                }
            }
        } else {
            let mut best: Option<(f64, usize)> = None;
            for (i, &sc) in self.scores.iter().enumerate() {
                if !sc.is_nan() && best.is_none_or(|(b, _)| sc < b) {
                    best = Some((sc, i));
                }
            }
            decision = best.map(|(_, i)| group[i]);
        }

        match decision {
            Some(s) => SendDecision::Send(s),
            None => {
                let retry_at = group
                    .iter()
                    .map(|&s| self.limiters[s].next_window(now))
                    .min()
                    .expect("non-empty group");
                SendDecision::Backpressure { retry_at }
            }
        }
    }

    /// Account an actual send to `server` (increments the outstanding
    /// count). Must be called exactly once per request put on the wire —
    /// both for servers chosen by [`C3State::try_send`] and for mandatory
    /// fan-out sends (read repair) that bypass selection.
    pub fn record_send(&mut self, server: ServerId) {
        self.trackers[server].on_send();
    }

    /// Record a response from `server` (Algorithm 2 entry point): updates
    /// the tracker EWMAs, the outstanding count, and the rate controller.
    pub fn on_response(
        &mut self,
        server: ServerId,
        response_time: Nanos,
        feedback: Option<&Feedback>,
        now: Nanos,
    ) {
        self.trackers[server].on_response(response_time, feedback);
        self.limiters[server].on_response(now);
    }

    /// Record that a request to `server` was abandoned (timeout/error):
    /// releases the outstanding slot without touching the EWMAs or rates.
    pub fn on_abandoned(&mut self, server: ServerId) {
        self.trackers[server].on_abandoned();
    }

    /// Aggregate rate-limiter statistics across servers.
    pub fn rate_stats(&self) -> RateStats {
        let mut total = RateStats::default();
        for l in &self.limiters {
            let s = l.stats();
            total.decreases += s.decreases;
            total.increases += s.increases;
            total.throttled += s.throttled;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize, rate: f64) -> C3State {
        let cfg = C3Config {
            initial_rate: rate,
            ..C3Config::default()
        };
        C3State::new(n, cfg, Nanos::ZERO)
    }

    fn fb(q: u32, ms: u64) -> Feedback {
        Feedback::new(q, Nanos::from_millis(ms))
    }

    #[test]
    fn sends_to_best_scored_server() {
        let mut st = state(2, 100.0);
        let now = Nanos::from_millis(1);
        // Make server 0 look bad: deep queue, slow service.
        for _ in 0..3 {
            match st.try_send(&[0], now) {
                SendDecision::Send(0) => {
                    st.record_send(0);
                    st.on_response(0, Nanos::from_millis(30), Some(&fb(20, 25)), now)
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Server 1 looks good.
        match st.try_send(&[1], now) {
            SendDecision::Send(1) => {
                st.record_send(1);
                st.on_response(1, Nanos::from_millis(2), Some(&fb(0, 1)), now)
            }
            other => panic!("unexpected {other:?}"),
        }
        match st.try_send(&[0, 1], now) {
            SendDecision::Send(s) => assert_eq!(s, 1, "should prefer the fast idle server"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn outstanding_accounting_is_balanced() {
        let mut st = state(3, 100.0);
        let now = Nanos::from_millis(5);
        let mut sent = Vec::new();
        for _ in 0..30 {
            if let SendDecision::Send(s) = st.try_send(&[0, 1, 2], now) {
                st.record_send(s);
                sent.push(s);
            }
        }
        let total: u32 = (0..3).map(|s| st.outstanding(s)).sum();
        assert_eq!(total as usize, sent.len());
        for s in sent {
            st.on_response(s, Nanos::from_millis(1), None, now);
        }
        assert_eq!((0..3).map(|s| st.outstanding(s)).sum::<u32>(), 0);
    }

    #[test]
    fn backpressure_when_all_replicas_saturated() {
        let mut st = state(2, 2.0); // 2 requests per 20 ms window per server
        let now = Nanos::from_millis(0);
        let mut sends = 0;
        loop {
            match st.try_send(&[0, 1], now) {
                SendDecision::Send(_) => sends += 1,
                SendDecision::Backpressure { retry_at } => {
                    assert_eq!(sends, 4, "2 servers × 2 tokens");
                    assert_eq!(retry_at, Nanos::from_millis(20));
                    break;
                }
            }
            assert!(sends < 100, "must eventually backpressure");
        }
    }

    #[test]
    fn rate_control_disabled_never_backpressures() {
        let cfg = C3Config {
            initial_rate: 1.0,
            ..C3Config::default()
        }
        .without_rate_control();
        let mut st = C3State::new(2, cfg, Nanos::ZERO);
        for _ in 0..100 {
            match st.try_send(&[0, 1], Nanos::ZERO) {
                SendDecision::Send(_) => {}
                SendDecision::Backpressure { .. } => panic!("no backpressure expected"),
            }
        }
    }

    #[test]
    fn spreads_load_after_scores_equalize() {
        // Two identical servers: after symmetric feedback, outstanding
        // counts should keep the allocation roughly balanced because each
        // send raises the sender's own q̂ for that server.
        let mut st = state(2, 1000.0);
        let now = Nanos::from_millis(1);
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            if let SendDecision::Send(s) = st.try_send(&[0, 1], now) {
                st.record_send(s);
                counts[s] += 1;
            }
        }
        assert_eq!(counts[0] + counts[1], 100);
        assert!(
            counts[0] >= 40 && counts[1] >= 40,
            "allocation skewed: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_panics() {
        let mut st = state(1, 10.0);
        let _ = st.try_send(&[], Nanos::ZERO);
    }

    #[test]
    fn rate_stats_aggregate_over_servers() {
        let mut st = state(2, 1.0);
        let now = Nanos::ZERO;
        // Exhaust both servers to force throttled counts.
        let _ = st.try_send(&[0, 1], now);
        let _ = st.try_send(&[0, 1], now);
        let _ = st.try_send(&[0, 1], now);
        assert!(st.rate_stats().throttled > 0);
    }
}
