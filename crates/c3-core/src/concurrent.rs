//! Concurrency-safe C3 client state for multi-threaded drivers.
//!
//! The single-threaded [`C3State`](crate::C3State) is the right shape for
//! the deterministic simulators, where one actor owns the scheduler. A
//! threaded socket client is different: many issuing and completing
//! threads all need to read scores and fold feedback, and funnelling them
//! through one `Mutex<C3State>` serializes the hot path (and, worse,
//! head-of-line-blocks completions behind selections).
//!
//! [`SharedC3State`] is the `&self` twin of `C3State`:
//!
//! - the per-server tracker fields — the three EWMA cells plus the
//!   outstanding count, 32 bytes — live in [`AtomicTracker`]s. Feedback
//!   folds are compare-exchange loops over the f64 *bits* (NaN keeps
//!   standing for "no sample yet", exactly as in `ServerTracker`), so
//!   score reads and feedback updates never take a lock;
//! - the per-server [`RateLimiter`]s keep their token-bucket semantics
//!   behind one tiny mutex *each*, beside that server's [`RateStats`] —
//!   token acquisition is a few loads and stores, and the lock is per
//!   server, so two threads only contend when they race for the same
//!   replica's token in the same instant. As in `C3State`, the constants
//!   trackers and limiters read stay once in the shared `C3Config`.
//!
//! Interleaving semantics: an EWMA fold is atomic per cell, but a scorer
//! running concurrently with a responder may see one cell folded and the
//! next not yet — exactly the staleness real C3 clients live with (the
//! feedback itself is a snapshot of a moving server). Every cell converges
//! to the same fixed point as the serialized fold under quiescence, and
//! the serialized-use tests below pin bit-equality against `C3State`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::C3Config;
use crate::feedback::Feedback;
use crate::rate::{RateLimiter, RateStats};
use crate::scheduler::{SendDecision, ServerId};
use crate::time::Nanos;

/// Largest replica group [`SharedC3State::try_send`] accepts: candidate
/// scores live in a stack buffer so the lock-free selection path performs
/// no allocation. Real deployments replicate 3–5 ways; 16 is headroom.
pub const MAX_GROUP: usize = 16;

/// A [`ServerTracker`](crate::ServerTracker) whose fields are atomics.
///
/// All methods take `&self`; the EWMA cells store f64 bits in `AtomicU64`
/// with NaN as the "no sample yet" sentinel, folded by compare-exchange
/// with the owner's `ewma_alpha`.
#[derive(Debug)]
pub(crate) struct AtomicTracker {
    outstanding: AtomicU32,
    queue_size: AtomicU64,
    service_time_ms: AtomicU64,
    response_time_ms: AtomicU64,
}

/// Fold one sample into an EWMA cell stored as f64 bits: first sample
/// initializes, later samples use `α·x + (1−α)·x̄` — the same arithmetic
/// as the single-threaded tracker, retried on concurrent interference.
#[inline]
fn fold_cell(alpha: f64, cell: &AtomicU64, sample: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let avg = f64::from_bits(cur);
        let next = if avg.is_nan() {
            sample
        } else {
            alpha * sample + (1.0 - alpha) * avg
        };
        match cell.compare_exchange_weak(cur, next.to_bits(), Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl AtomicTracker {
    /// A tracker with no outstanding requests and no samples.
    pub(crate) fn new() -> Self {
        Self {
            outstanding: AtomicU32::new(0),
            queue_size: AtomicU64::new(f64::NAN.to_bits()),
            service_time_ms: AtomicU64::new(f64::NAN.to_bits()),
            response_time_ms: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// Record that a request was sent to this server.
    pub(crate) fn on_send(&self) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    /// Record a response: decrements the outstanding count and folds the
    /// piggybacked feedback and the observed response time into the EWMAs,
    /// weighted by `cfg.ewma_alpha`.
    pub(crate) fn on_response(
        &self,
        cfg: &C3Config,
        response_time: Nanos,
        feedback: Option<&Feedback>,
    ) {
        let alpha = cfg.ewma_alpha;
        // fetch_update instead of fetch_sub: concurrent completions must
        // saturate at zero like the single-threaded tracker, not wrap.
        let _ = self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |os| {
                Some(os.saturating_sub(1))
            });
        fold_cell(alpha, &self.response_time_ms, response_time.as_millis_f64());
        if let Some(fb) = feedback {
            fold_cell(alpha, &self.queue_size, fb.queue_size as f64);
            fold_cell(
                alpha,
                &self.service_time_ms,
                fb.service_time.as_millis_f64(),
            );
        }
    }

    /// Record a response that never arrived: only releases the slot.
    pub(crate) fn on_abandoned(&self) {
        let _ = self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |os| {
                Some(os.saturating_sub(1))
            });
    }

    /// Current outstanding request count `os_s`.
    pub(crate) fn outstanding(&self) -> u32 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// The C3 score `Ψ_s` off the current cells — the same arithmetic as
    /// `ServerTracker::score` (one scoring core in `score.rs`), over one
    /// coherent load of each cell.
    #[inline]
    pub(crate) fn score(&self, cfg: &C3Config) -> f64 {
        let outstanding = self.outstanding.load(Ordering::Acquire);
        let response_time = f64::from_bits(self.response_time_ms.load(Ordering::Acquire));
        let service_time = f64::from_bits(self.service_time_ms.load(Ordering::Acquire));
        let q_bar = f64::from_bits(self.queue_size.load(Ordering::Acquire));
        let response_time = if response_time.is_nan() {
            0.0
        } else {
            response_time
        };
        let service_time = if service_time.is_nan() {
            crate::score::COLD_START_SERVICE_MS
        } else {
            service_time
        };
        let q_bar = if q_bar.is_nan() { 0.0 } else { q_bar };
        crate::score::score_raw(cfg, outstanding, q_bar, service_time, response_time)
    }
}

/// Concurrency-safe C3 state: lock-free trackers plus per-server rate
/// limiters, mirroring [`C3State`](crate::C3State) with a `&self` API.
///
/// Workers call [`SharedC3State::try_send`] / [`SharedC3State::record_send`]
/// to issue and [`SharedC3State::on_response`] to complete — from any
/// thread, concurrently, without a global lock. Under serialized use the
/// decisions and scores are bit-identical to `C3State`'s.
#[derive(Debug)]
pub struct SharedC3State {
    cfg: C3Config,
    trackers: Vec<AtomicTracker>,
    limiters: Vec<Mutex<Limiter>>,
}

/// One server's limiter and the counters its return values feed, under
/// one lock.
#[derive(Debug)]
struct Limiter {
    limiter: RateLimiter,
    stats: RateStats,
}

impl Limiter {
    fn try_acquire(&mut self, cfg: &C3Config, now: Nanos) -> bool {
        let acquired = self.limiter.try_acquire(cfg, now);
        self.stats.acquire(acquired)
    }

    fn on_response(&mut self, cfg: &C3Config, now: Nanos) {
        let step = self.limiter.on_response(cfg, now);
        self.stats.step(step);
    }
}

impl SharedC3State {
    /// Create shared state for a client that can talk to `num_servers`.
    pub fn new(num_servers: usize, cfg: C3Config, now: Nanos) -> Self {
        cfg.validate();
        Self {
            trackers: (0..num_servers).map(|_| AtomicTracker::new()).collect(),
            limiters: (0..num_servers)
                .map(|_| {
                    Mutex::new(Limiter {
                        limiter: RateLimiter::new(&cfg, now),
                        stats: RateStats::default(),
                    })
                })
                .collect(),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &C3Config {
        &self.cfg
    }

    /// Current C3 score of a server (lower is better). Lock-free.
    pub fn score_of(&self, server: ServerId) -> f64 {
        self.trackers[server].score(&self.cfg)
    }

    /// Outstanding requests to a server. Lock-free.
    pub fn outstanding(&self, server: ServerId) -> u32 {
        self.trackers[server].outstanding()
    }

    /// Algorithm 1 over the shared state: rank `group` by score and return
    /// the best server within its sending rate, consuming a token. Scores
    /// are read lock-free; only the chosen candidates' limiter mutexes are
    /// touched, one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty, larger than [`MAX_GROUP`], or contains
    /// an out-of-range server id.
    pub fn try_send(&self, group: &[ServerId], now: Nanos) -> SendDecision {
        assert!(!group.is_empty(), "replica group must not be empty");
        assert!(
            group.len() <= MAX_GROUP,
            "replica group larger than MAX_GROUP ({})",
            MAX_GROUP
        );
        let mut scores = [f64::NAN; MAX_GROUP];
        for (slot, &s) in scores.iter_mut().zip(group) {
            let score = self.trackers[s].score(&self.cfg);
            debug_assert!(!score.is_nan(), "C3 scores must not be NaN");
            *slot = score;
        }
        let scores = &mut scores[..group.len()];

        if self.cfg.rate_control {
            // Lazy arg-min, best-first, marking tried entries NaN — the
            // same visit order as `C3State::try_send` (ties keep caller
            // order).
            loop {
                let mut best: Option<(f64, usize)> = None;
                for (i, &sc) in scores.iter().enumerate() {
                    if !sc.is_nan() && best.is_none_or(|(b, _)| sc < b) {
                        best = Some((sc, i));
                    }
                }
                let Some((_, i)) = best else { break };
                scores[i] = f64::NAN;
                let s = group[i];
                let acquired = self.limiters[s]
                    .lock()
                    .expect("limiter poisoned")
                    .try_acquire(&self.cfg, now);
                if acquired {
                    return SendDecision::Send(s);
                }
            }
            let retry_at = group
                .iter()
                .map(|&s| {
                    self.limiters[s]
                        .lock()
                        .expect("limiter poisoned")
                        .limiter
                        .next_window(&self.cfg, now)
                })
                .min()
                .expect("non-empty group");
            SendDecision::Backpressure { retry_at }
        } else {
            let mut best: Option<(f64, usize)> = None;
            for (i, &sc) in scores.iter().enumerate() {
                if !sc.is_nan() && best.is_none_or(|(b, _)| sc < b) {
                    best = Some((sc, i));
                }
            }
            let (_, i) = best.expect("non-empty group");
            SendDecision::Send(group[i])
        }
    }

    /// Account an actual send to `server`. Lock-free.
    pub fn record_send(&self, server: ServerId) {
        self.trackers[server].on_send();
    }

    /// Record a response from `server`: folds the tracker EWMAs lock-free
    /// and runs the rate-adaptation step under the server's limiter lock.
    pub fn on_response(
        &self,
        server: ServerId,
        response_time: Nanos,
        feedback: Option<&Feedback>,
        now: Nanos,
    ) {
        self.trackers[server].on_response(&self.cfg, response_time, feedback);
        self.limiters[server]
            .lock()
            .expect("limiter poisoned")
            .on_response(&self.cfg, now);
    }

    /// Record that a request to `server` was abandoned. Lock-free.
    pub fn on_abandoned(&self, server: ServerId) {
        self.trackers[server].on_abandoned();
    }

    /// Aggregate rate-limiter statistics across servers.
    pub fn rate_stats(&self) -> RateStats {
        let mut total = RateStats::default();
        for l in &self.limiters {
            total.add(l.lock().expect("limiter poisoned").stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::C3State;

    fn fb(q: u32, ms: u64) -> Feedback {
        Feedback::new(q, Nanos::from_millis(ms))
    }

    /// Serialized use must be bit-identical to `C3State`: same decisions,
    /// same scores, same backpressure times, over a mixed send/response
    /// schedule.
    #[test]
    fn serialized_use_matches_c3state_bit_for_bit() {
        let cfg = C3Config {
            initial_rate: 5.0,
            ..C3Config::default()
        };
        let mut reference = C3State::new(4, cfg, Nanos::ZERO);
        let shared = SharedC3State::new(4, cfg, Nanos::ZERO);
        let group = [0usize, 1, 2];
        let mut pending: Vec<usize> = Vec::new();
        for step in 0u64..400 {
            let now = Nanos::from_micros(step * 700);
            let a = reference.try_send(&group, now);
            let b = shared.try_send(&group, now);
            assert_eq!(a, b, "step {step} diverged");
            if let SendDecision::Send(s) = a {
                reference.record_send(s);
                shared.record_send(s);
                pending.push(s);
            }
            if step % 3 == 0 {
                if let Some(s) = pending.pop() {
                    let rt = Nanos::from_micros(300 + (step % 7) * 400);
                    let feedback = fb((step % 5) as u32, 1 + step % 4);
                    reference.on_response(s, rt, Some(&feedback), now);
                    shared.on_response(s, rt, Some(&feedback), now);
                }
            }
            for s in 0..4 {
                assert_eq!(
                    reference.score_of(s).to_bits(),
                    shared.score_of(s).to_bits(),
                    "server {s} score diverged at step {step}"
                );
                assert_eq!(reference.outstanding(s), shared.outstanding(s));
            }
        }
        assert_eq!(reference.rate_stats(), shared.rate_stats());
    }

    #[test]
    fn atomic_tracker_matches_server_tracker() {
        use crate::tracker::ServerTracker;
        let cfg = C3Config::default();
        let mut st = ServerTracker::new();
        let at = AtomicTracker::new();
        assert_eq!(st.score(&cfg).to_bits(), at.score(&cfg).to_bits());
        st.on_send();
        at.on_send();
        assert_eq!(st.score(&cfg).to_bits(), at.score(&cfg).to_bits());
        st.on_response(&cfg, Nanos::from_millis(7), None);
        at.on_response(&cfg, Nanos::from_millis(7), None);
        st.on_send();
        at.on_send();
        st.on_response(&cfg, Nanos::from_millis(9), Some(&fb(5, 3)));
        at.on_response(&cfg, Nanos::from_millis(9), Some(&fb(5, 3)));
        assert_eq!(st.score(&cfg).to_bits(), at.score(&cfg).to_bits());
        assert_eq!(st.outstanding(), at.outstanding());
    }

    #[test]
    fn abandoned_and_overshoot_saturate_at_zero() {
        let t = AtomicTracker::new();
        t.on_abandoned();
        assert_eq!(t.outstanding(), 0);
        t.on_response(&C3Config::default(), Nanos::from_millis(1), None);
        assert_eq!(t.outstanding(), 0);
    }

    /// Concurrent feedback folds must neither lose sends/responses nor
    /// corrupt the EWMA cells: outstanding balances to zero and every cell
    /// lands at a finite, plausible value.
    #[test]
    fn concurrent_updates_balance_and_stay_finite() {
        use std::sync::Arc;
        let shared = Arc::new(SharedC3State::new(3, C3Config::default(), Nanos::ZERO));
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0u64..2_000 {
                        let s = ((w + i) % 3) as usize;
                        shared.record_send(s);
                        let _ = shared.score_of(s);
                        shared.on_response(
                            s,
                            Nanos::from_micros(100 + i % 900),
                            Some(&Feedback::new(
                                (i % 9) as u32,
                                Nanos::from_micros(50 + i % 500),
                            )),
                            Nanos::from_micros(i),
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for s in 0..3 {
            assert_eq!(shared.outstanding(s), 0, "server {s} leaked outstanding");
            let score = shared.score_of(s);
            assert!(score.is_finite(), "server {s} score corrupted: {score}");
            // All samples were sub-millisecond with single-digit queues;
            // a torn fold would blow the score far outside this envelope.
            assert!(
                score > -10.0 && score < 10_000.0,
                "server {s} score implausible: {score}"
            );
        }
    }

    #[test]
    fn rate_control_disabled_is_lock_free_argmin() {
        let cfg = C3Config {
            initial_rate: 1.0,
            ..C3Config::default()
        }
        .without_rate_control();
        let shared = SharedC3State::new(2, cfg, Nanos::ZERO);
        for _ in 0..50 {
            match shared.try_send(&[0, 1], Nanos::ZERO) {
                SendDecision::Send(_) => {}
                SendDecision::Backpressure { .. } => panic!("no backpressure expected"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_panics() {
        let shared = SharedC3State::new(1, C3Config::default(), Nanos::ZERO);
        let _ = shared.try_send(&[], Nanos::ZERO);
    }
}
