//! Distributed rate control: token bucket + cubic adaptation (§3.2, Alg. 2).
//!
//! Every client keeps one [`RateLimiter`] per server. The limiter enforces a
//! sending-rate limit `srate` expressed in requests per δ window (δ = 20 ms
//! by default) via a window-refilled token bucket, measures the server's
//! receive rate `rrate` (responses per δ), and adapts `srate` with a
//! CUBIC-inspired controller:
//!
//! - if `srate > rrate` and a hysteresis period has elapsed since the last
//!   increase, the client records the saturation rate `R₀ ← srate` and
//!   decreases multiplicatively, `srate ← srate·β`;
//! - if `srate < rrate`, the client grows along the cubic curve
//!   `R(ΔT) = γ·(ΔT − ∛(β·R₀/γ))³ + R₀` where `ΔT` is the time since the
//!   last decrease, capping each step at `s_max` (before the first
//!   decrease, slow start: below).
//!
//! The scaling factor γ is derived from the configured saddle duration `K`
//! (γ = β·R₀/K³), so the curve's inflection point — the flat saddle where
//! the client sits near the last-known saturation rate — always spans the
//! configured duration regardless of R₀. Past the saddle the curve grows
//! steeply again: the *optimistic probing* region (Figure 5).
//!
//! Until its first decrease a limiter is in *slow start*: no saturation
//! rate has been observed, so there is no R₀ for the cubic to anchor on,
//! and every growth step is capped only by `s_max`. The first decrease
//! records R₀ and hands over to the cubic. Anchoring the cubic on the
//! starting limit instead (R₀ = 50 per δ, so γ = 1e-5 per ms³) takes
//! `50 + 1e-5·t³` ≈ 450 ms to reach the ≈ 1 000 reads per δ a loopback
//! replica serves a closed loop — a third of a 1.25 s window spent
//! asleep on a budget the server could have served. Slow start grows a
//! limit only where it binds, and at the default starting limit no
//! simulated client's does: the busiest cell (Figure 12's SSD cluster)
//! sends at most 35 requests per δ to one server.
//!
//! Both rate comparisons carry a dead band that scales with the window's
//! traffic: `band = max(1, (rrate − 20) / 10)` requests per δ. A server
//! that keeps pace returns, within one window, what was sent about one
//! response time `R` earlier, so one window's send and receive counts
//! differ by the traffic crossing its boundary — about `R / δ` of the
//! window's count (1.5 ms / 20 ms ≈ 7.5% on a loopback fleet). At the
//! hundreds of receives per window a live closed loop sends to each
//! server, a fixed one-request band reads every shift of load across a
//! window boundary as congestion; one tenth of the count absorbs it.
//! Below 40 receives per window the band stays under two requests, so on
//! whole-request counts it decides exactly as a one-request band. That is
//! every simulated cell's regime (the busiest, Figure 12's SSD cluster,
//! peaks at 35), where a two-request excess is still worth a decrease: a
//! band of one tenth there raises that cell's C3 p99.9 by 6%.

use crate::config::C3Config;
use crate::time::Nanos;

/// Per-server token-bucket rate limiter with cubic rate adaptation.
///
/// A limiter holds only what changes per server. A C3 client keeps one per
/// server, so this is per-(client, server) state (128 selector shards ×
/// 256 servers in the `mega-fleet` cell): the constants — δ, β, the saddle,
/// `s_max`, the hysteresis and the floor — stay once in the owner's
/// [`C3Config`], lent to every call, and the owner counts [`RateStats`]
/// from the return values. `try_acquire` runs once per selection for every
/// candidate, and its working set (tokens, window start, `srate`, the
/// meter) leads the struct; the adaptation anchors trail behind.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    /// Tokens remaining in the current δ window.
    tokens: f64,
    /// Start of the current token window.
    window_start: Nanos,
    /// Current sending-rate limit, requests per δ.
    srate: f64,
    /// Per-window traffic measurement (sends, receives, throttles).
    meter: WindowMeter,
    /// Saturation rate `R₀`: srate at the moment of the last decrease;
    /// NaN until the first one (slow start).
    r0: f64,
    /// Time of the last multiplicative decrease (construction time until
    /// the first one, which keeps the hysteresis rule for it).
    t_decrease: Nanos,
    /// Time of the last rate increase.
    t_increase: Nanos,
}

/// What one [`RateLimiter::on_response`] did to the limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RateStep {
    /// The limit stands.
    Hold,
    /// Multiplicative decrease.
    Decrease,
    /// Growth, by slow start or along the cubic.
    Increase,
}

/// Counters describing the limiter's behaviour over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RateStats {
    /// Number of multiplicative decreases performed.
    pub decreases: u64,
    /// Number of rate increases performed (slow start or cubic).
    pub increases: u64,
    /// Number of sends rejected because the window budget was exhausted.
    pub throttled: u64,
}

impl RateStats {
    /// Count one [`RateLimiter::try_acquire`] outcome; returns it.
    #[inline]
    pub(crate) fn acquire(&mut self, acquired: bool) -> bool {
        self.throttled += u64::from(!acquired);
        acquired
    }

    /// Count one [`RateLimiter::on_response`] outcome.
    #[inline]
    pub(crate) fn step(&mut self, step: RateStep) {
        match step {
            RateStep::Hold => {}
            RateStep::Decrease => self.decreases += 1,
            RateStep::Increase => self.increases += 1,
        }
    }

    /// Fold another owner's counters into these.
    pub(crate) fn add(&mut self, other: RateStats) {
        self.decreases += other.decreases;
        self.increases += other.increases;
        self.throttled += other.throttled;
    }
}

impl RateLimiter {
    /// Create a limiter from a C3 configuration, starting at
    /// `cfg.initial_rate` requests per δ in slow start. Every later call
    /// must pass the same configuration.
    pub fn new(cfg: &C3Config, now: Nanos) -> Self {
        cfg.validate();
        Self {
            srate: cfg.initial_rate,
            tokens: cfg.initial_rate,
            window_start: now,
            meter: WindowMeter::new(now),
            r0: f64::NAN,
            t_decrease: now,
            t_increase: now,
        }
    }

    /// Current sending-rate limit (requests per δ).
    pub fn srate(&self) -> f64 {
        self.srate
    }

    /// Roll the token window forward if `now` has crossed one or more
    /// window boundaries, refilling the budget.
    ///
    /// Refill accumulates `srate` per elapsed window, capped at
    /// `max(srate, 1.0)`. For rates of at least one request per window the
    /// cap makes this identical to the historical "reset to `srate`"
    /// refill (the accumulated value always clears the cap). For
    /// fractional rates the accumulation is what makes `min_rate < 1.0`
    /// usable at all: a whole token is needed to send, so a window that
    /// refilled *to* `0.5` tokens could never send — the limiter starved
    /// permanently instead of sending every other window.
    fn roll_window(&mut self, delta: u64, now: Nanos) {
        let elapsed = now.saturating_sub(self.window_start).as_nanos();
        if elapsed >= delta {
            let windows = elapsed / delta;
            self.window_start = Nanos(self.window_start.as_nanos() + windows * delta);
            self.tokens = (self.tokens + windows as f64 * self.srate).min(self.srate.max(1.0));
        }
    }

    /// Try to consume one send token. Returns `true` when the request may
    /// be sent to the server now; `false` means the server's rate is
    /// saturated for the remainder of the window (a throttle, for the
    /// owner's [`RateStats`]).
    pub fn try_acquire(&mut self, cfg: &C3Config, now: Nanos) -> bool {
        let delta = cfg.delta.as_nanos();
        self.roll_window(delta, now);
        self.meter.roll(now, delta);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.meter.sent += 1;
            true
        } else {
            self.meter.throttled += 1;
            false
        }
    }

    /// Earliest window boundary at which a whole send token could exist.
    /// Backpressured callers should retry then (a response arriving
    /// earlier may also raise the rate; callers retry on responses too).
    ///
    /// For rates of at least one token per window this is simply the next
    /// boundary. For fractional rates it is the boundary at which the
    /// accumulated fraction first reaches a whole token — otherwise a
    /// backlogged caller's retry timer would fire (and fail, and
    /// reschedule) up to `⌈1/srate⌉` times per actual send opportunity.
    pub(crate) fn next_window(&self, cfg: &C3Config, now: Nanos) -> Nanos {
        let delta = cfg.delta.as_nanos();
        let elapsed = now.saturating_sub(self.window_start).as_nanos();
        let base = elapsed / delta + 1;
        let windows_ahead = if self.srate >= 1.0 {
            base
        } else {
            let needed = ((1.0 - self.tokens) / self.srate).ceil() as u64;
            base.max(needed)
        };
        Nanos(self.window_start.as_nanos() + windows_ahead * delta)
    }

    /// Record a response from the server and run the adaptation step
    /// (Algorithm 2, lines 3–11); returns what the step did, for the
    /// owner's [`RateStats`].
    ///
    /// One deliberate deviation from the paper's pseudocode (§3.2,
    /// Algorithm 2): it compares the rate *limit* (`srate`) against
    /// the measured receive rate. Taken literally, a client whose demand is
    /// far below its limit always sees `srate > rrate` and decays the limit
    /// to the floor even though the server is perfectly healthy — at
    /// realistic per-(client, server) loads (~1 request per δ) this
    /// throttles the whole system. A rate limit is only falsifiable where
    /// it binds, so this implementation decreases when the **actual** send
    /// rate outruns the receive rate (the congestion signal the limit
    /// stands in for) and grows — by `s_max` in slow start, along the cubic
    /// curve after — when the budget was actually exhausted while the
    /// server kept pace.
    pub(crate) fn on_response(&mut self, cfg: &C3Config, now: Nanos) -> RateStep {
        self.meter.roll(now, cfg.delta.as_nanos());
        self.meter.recv += 1;
        let arate = self.meter.arate;
        let rrate = self.meter.rrate;
        let was_throttled = self.meter.was_throttled;
        let band = DEAD_BAND.max((rrate - BAND_KNEE) * DEAD_BAND_SHARE);

        if arate > rrate + band
            && now.saturating_sub(self.t_increase) > cfg.hysteresis
            && now.saturating_sub(self.t_decrease) > cfg.hysteresis
        {
            // The server fell behind what we actually sent: multiplicative
            // decrease, anchored at the observed saturation rate (which
            // ends slow start).
            self.r0 = self.srate;
            self.srate = (self.srate * cfg.beta).max(cfg.min_rate);
            self.t_decrease = now;
            RateStep::Decrease
        } else if was_throttled && rrate + band >= arate {
            // The budget was binding and the server kept pace: grow by at
            // most `smax` per step, along the cubic curve once a decrease
            // has anchored it.
            self.t_increase = now;
            let mut stepped = self.srate + cfg.smax;
            if !self.r0.is_nan() {
                let dt = now.saturating_sub(self.t_decrease);
                stepped = stepped.min(cubic_rate(
                    self.r0,
                    cfg.beta,
                    cfg.saddle.as_millis_f64(),
                    dt.as_millis_f64(),
                ));
            }
            if stepped > self.srate {
                self.srate = stepped;
                RateStep::Increase
            } else {
                RateStep::Hold
            }
        } else {
            RateStep::Hold
        }
    }
}

/// Smallest tolerance on per-window count comparisons: with only a
/// handful of requests per δ window, off-by-one phase effects between the
/// send and receive streams are noise, not congestion.
const DEAD_BAND: f64 = 1.0;

/// Share of the window's receive count tolerated as phase noise. The send
/// and receive counts of one window differ by the traffic in flight across
/// its boundary, about `R / δ` of the count for response time `R`; one
/// tenth bounds that while `R` stays under δ / 10 (2 ms at the default δ).
/// A twentieth does not: at live closed-loop volume it still cut the limit
/// 10–40 times per 1.25 s.
const DEAD_BAND_SHARE: f64 = 0.1;

/// Receives per window the share is not charged on: the band reaches two
/// requests only at `BAND_KNEE + 2 / DEAD_BAND_SHARE` = 40 receives, so
/// every window below that decides as under [`DEAD_BAND`] alone.
const BAND_KNEE: f64 = 20.0;

/// Per-δ-window measurement of actual traffic to one server.
///
/// Counts are `u32`: a δ window is 20 ms, so even at one event per
/// nanosecond a window cannot overflow 32 bits — and a C3 client keeps
/// one limiter per server, so the smaller meter is real cache relief on
/// the per-request path.
#[derive(Clone, Copy, Debug)]
struct WindowMeter {
    window_start: Nanos,
    sent: u32,
    recv: u32,
    throttled: u32,
    /// Whether any send was throttled in the last completed window; the
    /// current window's throttles are not read until it closes.
    was_throttled: bool,
    /// Send rate over the last completed window.
    arate: f64,
    /// Receive rate over the last completed window.
    rrate: f64,
}

impl WindowMeter {
    fn new(now: Nanos) -> Self {
        Self {
            window_start: now,
            sent: 0,
            recv: 0,
            throttled: 0,
            arate: 0.0,
            rrate: 0.0,
            was_throttled: false,
        }
    }

    /// Close out completed windows if `now` has moved past them. Counts
    /// from a window followed by idle windows are spread over the gap.
    fn roll(&mut self, now: Nanos, delta_ns: u64) {
        let elapsed = now.saturating_sub(self.window_start).as_nanos();
        if elapsed < delta_ns {
            return;
        }
        let windows = elapsed / delta_ns;
        let spread = windows as f64;
        self.arate = self.sent as f64 / spread;
        self.rrate = self.recv as f64 / spread;
        self.was_throttled = self.throttled > 0;
        self.window_start = Nanos(self.window_start.as_nanos() + windows * delta_ns);
        self.sent = 0;
        self.recv = 0;
        self.throttled = 0;
    }
}

/// The cubic growth function
/// `R(ΔT) = γ·(ΔT − K)³ + R₀` with `K = ∛(β·R₀/γ)` chosen so the inflection
/// (saddle midpoint) sits at `saddle_ms`: `γ = β·R₀ / K³`.
///
/// At `ΔT = 0` the curve starts at `R₀·(1−β)`; it flattens around
/// `ΔT = K = saddle_ms` where it crosses `R₀`; beyond the saddle it grows
/// cubically (optimistic probing).
pub fn cubic_rate(r0: f64, beta: f64, saddle_ms: f64, dt_ms: f64) -> f64 {
    let k = saddle_ms;
    let gamma = beta * r0 / k.powi(3);
    gamma * (dt_ms - k).powi(3) + r0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> C3Config {
        C3Config {
            initial_rate: 10.0,
            ..C3Config::default()
        }
    }

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// A limiter with what its owner keeps for it — the configuration it
    /// is lent and the counters its return values feed — as `C3State`
    /// keeps them, so the tests below read `srate`, the meter and the
    /// counters off one value.
    struct Owned {
        rl: RateLimiter,
        cfg: C3Config,
        stats: RateStats,
    }

    impl Owned {
        fn new(cfg: &C3Config, now: Nanos) -> Self {
            Self {
                rl: RateLimiter::new(cfg, now),
                cfg: *cfg,
                stats: RateStats::default(),
            }
        }

        fn try_acquire(&mut self, now: Nanos) -> bool {
            self.stats.acquire(self.rl.try_acquire(&self.cfg, now))
        }

        fn on_response(&mut self, now: Nanos) {
            self.stats.step(self.rl.on_response(&self.cfg, now));
        }

        fn next_window(&self, now: Nanos) -> Nanos {
            self.rl.next_window(&self.cfg, now)
        }

        fn stats(&self) -> RateStats {
            self.stats
        }

        /// `R₀`, `None` in slow start.
        fn r0(&self) -> Option<f64> {
            (!self.rl.r0.is_nan()).then_some(self.rl.r0)
        }
    }

    impl std::ops::Deref for Owned {
        type Target = RateLimiter;
        fn deref(&self) -> &RateLimiter {
            &self.rl
        }
    }

    impl std::ops::DerefMut for Owned {
        fn deref_mut(&mut self) -> &mut RateLimiter {
            &mut self.rl
        }
    }

    #[test]
    fn token_bucket_enforces_rate_per_window() {
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        let mut sent = 0;
        for _ in 0..50 {
            if rl.try_acquire(ms(1)) {
                sent += 1;
            }
        }
        assert_eq!(sent, 10, "exactly srate sends per window");
        assert_eq!(rl.stats().throttled, 40);
    }

    #[test]
    fn window_refills_budget() {
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        for _ in 0..10 {
            assert!(rl.try_acquire(ms(0)));
        }
        assert!(!rl.try_acquire(ms(19)));
        assert!(rl.try_acquire(ms(20)), "new window refills tokens");
    }

    #[test]
    fn next_window_is_boundary() {
        let rl = Owned::new(&cfg(), Nanos::ZERO);
        assert_eq!(rl.next_window(ms(0)), ms(20));
        assert_eq!(rl.next_window(ms(19)), ms(20));
        assert_eq!(rl.next_window(ms(20)), ms(40));
        assert_eq!(rl.next_window(ms(45)), ms(60));
    }

    #[test]
    fn next_window_skips_to_whole_token_for_fractional_rates() {
        // At 0.25 tokens/window a drained bucket needs four windows; the
        // retry hint must point there directly instead of at the next
        // boundary (where a retry would just fail and reschedule).
        let c = C3Config {
            initial_rate: 0.25,
            min_rate: 0.25,
            ..C3Config::default()
        };
        let mut rl = Owned::new(&c, Nanos::ZERO);
        assert!(!rl.try_acquire(ms(1)), "0.25 tokens cannot send");
        assert_eq!(rl.next_window(ms(1)), ms(60), "3 more windows to 1.0");
        // After the token is spent the full 1/srate wait applies.
        assert!(rl.try_acquire(ms(60)));
        assert!(!rl.try_acquire(ms(61)));
        assert_eq!(rl.next_window(ms(61)), ms(140), "4 windows from 60 ms");
    }

    #[test]
    fn cubic_curve_endpoints() {
        // At ΔT=0 the curve is R₀(1−β); at the saddle it crosses R₀.
        let r0 = 100.0;
        assert!((cubic_rate(r0, 0.2, 100.0, 0.0) - 80.0).abs() < 1e-9);
        assert!((cubic_rate(r0, 0.2, 100.0, 100.0) - 100.0).abs() < 1e-9);
        // Past the saddle the curve probes above R₀.
        assert!(cubic_rate(r0, 0.2, 100.0, 200.0) > r0 + 10.0);
    }

    #[test]
    fn cubic_curve_is_monotone_nondecreasing() {
        let mut prev = f64::NEG_INFINITY;
        for t in 0..300 {
            let v = cubic_rate(50.0, 0.2, 100.0, t as f64);
            assert!(v >= prev);
            prev = v;
        }
    }

    /// Drive `windows` consecutive δ windows: attempt `attempts` sends per
    /// window and let a server of the given per-window capacity respond to
    /// what actually went out.
    fn drive(
        rl: &mut Owned,
        start_ms: u64,
        windows: u64,
        attempts: u64,
        server_capacity: u64,
    ) -> Nanos {
        let mut t = ms(start_ms);
        for w in 0..windows {
            let base = start_ms + w * 20;
            let mut sent = 0;
            for i in 0..attempts {
                if rl.try_acquire(ms(base + 1) + Nanos(i)) {
                    sent += 1;
                }
            }
            let responses = sent.min(server_capacity);
            for i in 0..responses {
                t = ms(base + 2 + i * 17 / responses.max(1));
                rl.on_response(t);
            }
        }
        t
    }

    /// A limiter past slow start: ten sends the server never answered
    /// force its first decrease (exactly one) at 60 ms, from `rate` to
    /// `β·rate`, anchoring the cubic at R₀ = `rate`. Returns the limiter
    /// and the next window boundary in milliseconds.
    fn past_slow_start(rate: f64) -> (Owned, u64) {
        let c = C3Config {
            initial_rate: rate,
            ..C3Config::default()
        };
        let mut rl = Owned::new(&c, Nanos::ZERO);
        for i in 0..10 {
            assert!(rl.try_acquire(ms(1) + Nanos(i)));
        }
        rl.on_response(ms(60));
        assert_eq!(rl.stats().decreases, 1);
        assert_eq!(rl.r0(), Some(rate));
        (rl, 80)
    }

    #[test]
    fn overload_triggers_multiplicative_decrease() {
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        // Send 8 per window but only 2 responses come back: the server is
        // falling behind the actual send rate ⇒ multiplicative decrease.
        drive(&mut rl, 0, 10, 8, 2);
        assert!(rl.stats().decreases >= 1, "should have decreased");
        assert!(rl.srate() < 10.0);
        assert!(rl.r0().is_some_and(|r0| r0 >= rl.srate()));
    }

    #[test]
    fn idle_client_never_decreases() {
        // The pathology the implementation deliberately avoids (documented
        // deviation from the paper's pseudocode): a client sending far
        // below its limit must not decay the limit to the floor.
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        drive(&mut rl, 0, 50, 1, 10); // light traffic, healthy server
        assert_eq!(rl.stats().decreases, 0, "healthy idle traffic decreased");
        assert_eq!(rl.srate(), 10.0);
    }

    #[test]
    fn fractional_rate_accumulates_tokens_across_windows() {
        // A limiter pinned below one request per window must still send —
        // at the fractional rate, not never. With srate = 0.25 the bucket
        // needs four windows to accumulate a whole token.
        let c = C3Config {
            initial_rate: 0.25,
            min_rate: 0.25,
            ..C3Config::default()
        };
        let mut rl = Owned::new(&c, Nanos::ZERO);
        let mut sent = 0;
        for w in 0..40u64 {
            if rl.try_acquire(ms(w * 20)) {
                sent += 1;
            }
        }
        assert_eq!(
            sent, 10,
            "0.25 tokens/window over 40 windows must send 10 times"
        );
    }

    #[test]
    fn fractional_accumulation_caps_at_one_token() {
        // A long idle gap must not bank more than one whole token for a
        // sub-1.0 rate: the cap keeps fractional limiters from bursting.
        let c = C3Config {
            initial_rate: 0.5,
            min_rate: 0.5,
            ..C3Config::default()
        };
        let mut rl = Owned::new(&c, Nanos::ZERO);
        // 100 windows of idling bank at most 1.0 token.
        assert!(rl.try_acquire(ms(2_000)));
        assert!(!rl.try_acquire(ms(2_001)), "only one token banked");
        // The next whole token takes two more windows at 0.5/window.
        assert!(!rl.try_acquire(ms(2_020)));
        assert!(rl.try_acquire(ms(2_040)));
    }

    #[test]
    fn whole_rates_refill_exactly_as_before() {
        // For srate >= 1 the accumulate-with-cap refill is bit-identical
        // to the historical "reset to srate" refill: unspent tokens never
        // carry past the cap.
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        // Spend 3 of 10 tokens in window 0.
        for _ in 0..3 {
            assert!(rl.try_acquire(ms(1)));
        }
        // Window 5: budget is exactly srate again, not 7 + 5·10.
        let mut sent = 0;
        for _ in 0..50 {
            if rl.try_acquire(ms(100)) {
                sent += 1;
            }
        }
        assert_eq!(sent, 10, "refill must cap at srate");
    }

    #[test]
    fn decrease_respects_min_rate_floor() {
        let c = C3Config {
            initial_rate: 2.0,
            min_rate: 1.0,
            ..C3Config::default()
        };
        let mut rl = Owned::new(&c, Nanos::ZERO);
        let mut t = ms(0);
        for _ in 0..50 {
            t += ms(50);
            rl.on_response(t);
        }
        assert!(rl.srate() >= 1.0, "rate must never drop below the floor");
    }

    #[test]
    fn fast_server_triggers_cubic_growth() {
        // Past slow start at 2 per δ (R₀ = 10), saturate the budget every
        // window (12 attempts) while the server keeps pace with everything
        // that was sent: the limit is binding and falsified ⇒ cubic growth
        // back to R₀ and past it.
        let (mut rl, start) = past_slow_start(10.0);
        drive(&mut rl, start, 40, 12, u64::MAX);
        assert!(rl.stats().increases >= 1, "should have grown");
        assert!(rl.srate() > 10.0);
        assert_eq!(rl.stats().decreases, 1);
    }

    #[test]
    fn growth_steps_capped_by_smax() {
        let c = C3Config {
            initial_rate: 10.0,
            smax: 3.0,
            ..C3Config::default()
        };
        let mut rl = Owned::new(&c, Nanos::ZERO);
        let mut prev = rl.srate();
        for w in 0..60u64 {
            let base = w * 20;
            for i in 0..20 {
                let _ = rl.try_acquire(ms(base + 1) + Nanos(i));
            }
            for i in 0..15u64 {
                rl.on_response(ms(base + 2 + i));
                let cur = rl.srate();
                assert!(
                    cur - prev <= 3.0 + 1e-9,
                    "step {} exceeded smax",
                    cur - prev
                );
                prev = cur;
            }
        }
        assert!(rl.stats().increases > 0, "growth must have happened");
    }

    #[test]
    fn slow_start_reaches_a_fast_server_within_three_windows() {
        // The paper's defaults against the loopback closed loop's shape:
        // demand 1 200 per δ, a server that answers 1 000 (a cubic
        // anchored on the starting 50 would need ≈ 22 windows).
        let mut rl = Owned::new(&C3Config::default(), Nanos::ZERO);
        assert_eq!(rl.r0(), None, "in slow start");
        drive(&mut rl, 0, 3, 1_200, 1_000);
        assert!(rl.srate() >= 1_000.0, "srate {}", rl.srate());
        assert_eq!(rl.stats().decreases, 0);
        assert_eq!(rl.r0(), None, "still in slow start");
    }

    #[test]
    fn slow_start_overshoot_is_bounded_by_demand() {
        // Growth needs the last *completed* window to have been throttled,
        // so the responses of the first window the budget covers still grow
        // it: at most `s_max` per response for two windows of at most D
        // responses each, on top of a limit still under D.
        let c = C3Config::default();
        for demand in [60, 200, 1_200, 5_000] {
            let mut rl = Owned::new(&c, Nanos::ZERO);
            drive(&mut rl, 0, 10, demand, u64::MAX);
            let settled = rl.srate();
            assert!(
                settled <= (1.0 + 2.0 * c.smax) * demand as f64,
                "demand {demand}: srate {settled}"
            );
            assert!(settled >= demand as f64, "demand {demand}: {settled}");
            // Once the budget stops binding, slow start stops growing.
            drive(&mut rl, 200, 10, demand, u64::MAX);
            assert_eq!(rl.srate(), settled, "demand {demand}");
            assert_eq!(rl.stats().decreases, 0);
        }
    }

    /// The growth and decrease rules as they stood before slow start, with
    /// the cubic anchored at the last decrease.
    struct CubicReference {
        srate: f64,
        r0: f64,
        t_decrease: Nanos,
        t_increase: Nanos,
    }

    impl CubicReference {
        fn on_response(&mut self, c: &C3Config, now: Nanos, meter: &WindowMeter) {
            let band = DEAD_BAND.max((meter.rrate - BAND_KNEE) * DEAD_BAND_SHARE);
            if meter.arate > meter.rrate + band
                && now.saturating_sub(self.t_increase) > c.hysteresis
                && now.saturating_sub(self.t_decrease) > c.hysteresis
            {
                self.r0 = self.srate;
                self.srate = (self.srate * c.beta).max(c.min_rate);
                self.t_decrease = now;
            } else if meter.was_throttled && meter.rrate + band >= meter.arate {
                let dt = now.saturating_sub(self.t_decrease);
                self.t_increase = now;
                let target = cubic_rate(
                    self.r0,
                    c.beta,
                    c.saddle.as_millis_f64(),
                    dt.as_millis_f64(),
                );
                let stepped = (self.srate + c.smax).min(target);
                if stepped > self.srate {
                    self.srate = stepped;
                }
            }
        }
    }

    #[test]
    fn first_decrease_hands_over_to_the_cubic_step_for_step() {
        // Demand 1 200 per δ against a server of 1 000: slow start
        // overshoots, the first decrease anchors R₀ where it stood, and
        // from then on every response moves `srate` exactly as the cubic
        // does — through further decreases and regrowth.
        let c = C3Config::default();
        let mut rl = Owned::new(&c, Nanos::ZERO);
        let mut reference: Option<CubicReference> = None;
        let mut cubic_growth = 0;
        for w in 0..100u64 {
            let base = w * 20;
            let mut sent = 0u64;
            for i in 0..1_200 {
                if rl.try_acquire(ms(base + 1) + Nanos(i)) {
                    sent += 1;
                }
            }
            let responses = sent.min(1_000);
            for i in 0..responses {
                let now = ms(base + 2) + Nanos(i * 17_000_000 / responses);
                let before = rl.srate();
                rl.on_response(now);
                match reference.as_mut() {
                    None if rl.stats().decreases == 0 => {
                        assert_eq!(rl.r0(), None, "in slow start");
                    }
                    None => {
                        assert_eq!(rl.r0(), Some(before), "R₀ is srate at the decrease");
                        assert_eq!(rl.srate(), before * c.beta);
                        reference = Some(CubicReference {
                            srate: rl.srate(),
                            r0: before,
                            t_decrease: now,
                            t_increase: rl.t_increase,
                        });
                    }
                    Some(cubic) => {
                        cubic.on_response(&c, now, &rl.meter);
                        assert_eq!(rl.srate().to_bits(), cubic.srate.to_bits(), "at {now:?}");
                        assert_eq!(rl.r0(), Some(cubic.r0));
                        cubic_growth += usize::from(rl.srate() > before);
                    }
                }
            }
        }
        assert!(reference.is_some(), "slow start never ended");
        assert!(rl.stats().decreases >= 3, "{:?}", rl.stats());
        assert!(cubic_growth > 100, "{cubic_growth} cubic steps");
    }

    #[test]
    fn hysteresis_blocks_immediate_decrease_after_increase() {
        // Keep the budget saturated with a healthy server so increases keep
        // happening right up to the end of the phase: past slow start the
        // cubic anchored at R₀ = 10 is still under 1 000 per δ after 40
        // windows.
        let (mut rl, start) = past_slow_start(10.0);
        let t = drive(&mut rl, start, 40, 1_000, u64::MAX);
        assert!(rl.srate() < 1_000.0, "precondition: the budget still binds");
        assert!(rl.srate() > 10.0, "precondition: growth happened");
        let decreases_before = rl.stats().decreases;
        // One bad window right after the last increase: a decrease must be
        // suppressed inside the hysteresis period (2δ = 40 ms).
        let next_ms = t.as_millis_f64() as u64 / 20 * 20 + 20;
        for i in 0..10 {
            let _ = rl.try_acquire(ms(next_ms + 1) + Nanos(i));
        }
        rl.on_response(ms(next_ms + 21)); // closes the bad window
        assert_eq!(rl.stats().decreases, decreases_before);
    }

    #[test]
    fn receive_rate_measured_per_window() {
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        // 5 responses in window 0, then one at the start of window 1.
        for i in 0..5 {
            rl.on_response(Nanos(i * 1_000_000));
        }
        rl.on_response(ms(20));
        assert_eq!(rl.meter.rrate, 5.0);
    }

    #[test]
    fn send_rate_measured_per_window() {
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        for i in 0..4 {
            assert!(rl.try_acquire(Nanos(i * 1_000_000)));
        }
        // Crossing the window boundary closes it out.
        assert!(rl.try_acquire(ms(20)));
        assert_eq!(rl.meter.arate, 4.0);
    }

    /// What one adaptation step did, read off the limiter's counters.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Step {
        Decrease,
        Grow,
        Hold,
    }

    /// Run one adaptation step against a closed window of `sent` sends,
    /// `recv` receives and `throttled` throttles, with both hysteresis
    /// clocks long expired.
    fn step_after_window(sent: u32, recv: u32, throttled: u32) -> Step {
        let now = ms(1_000);
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        rl.t_increase = Nanos::ZERO;
        rl.t_decrease = Nanos::ZERO;
        rl.meter.window_start = now;
        rl.meter.arate = f64::from(sent);
        rl.meter.rrate = f64::from(recv);
        rl.meter.was_throttled = throttled > 0;
        let before = rl.stats();
        rl.on_response(now);
        if rl.stats().decreases > before.decreases {
            Step::Decrease
        } else if rl.t_increase == now {
            Step::Grow
        } else {
            Step::Hold
        }
    }

    #[test]
    fn small_windows_decide_exactly_as_the_one_request_band() {
        // Every simulated cell runs below 40 receives per window, where
        // the scaled band must decide as the historical one request.
        for recv in 0..40u32 {
            for sent in 0..=60u32 {
                for throttled in 0..=2u32 {
                    let (a, r) = (f64::from(sent), f64::from(recv));
                    let expected = if a > r + 1.0 {
                        Step::Decrease
                    } else if throttled > 0 && r + 1.0 >= a {
                        Step::Grow
                    } else {
                        Step::Hold
                    };
                    assert_eq!(
                        step_after_window(sent, recv, throttled),
                        expected,
                        "sent {sent}, recv {recv}, throttled {throttled}"
                    );
                }
            }
        }
    }

    /// Drive `windows` δ windows from `start_ms` with the budget binding
    /// (twice `srate` attempted): the server returns `recv_share(w)` of
    /// window `w`'s sends inside the same window. Demand that follows
    /// `srate` never stops growing in slow start, so callers start past it.
    fn drive_shares(rl: &mut Owned, start_ms: u64, windows: u64, recv_share: impl Fn(u64) -> f64) {
        for w in 0..windows {
            let base = start_ms + w * 20;
            let attempts = (2.0 * rl.srate()) as u64 + 2;
            let mut sent = 0u64;
            for i in 0..attempts {
                if rl.try_acquire(ms(base + 1) + Nanos(i)) {
                    sent += 1;
                }
            }
            let responses = (sent as f64 * recv_share(w)).round() as u64;
            for i in 0..responses {
                rl.on_response(ms(base + 2) + Nanos(i * 17_000_000 / responses.max(1)));
            }
        }
    }

    #[test]
    fn phase_wobble_at_volume_is_not_congestion() {
        // 500 receives per window with ±5% send/receive wobble: a sine
        // over eight windows, so three windows in a row return less than
        // was sent — long enough to outlast the hysteresis, and shortfalls
        // of 18–25 requests, far past a one-request band. Past slow start
        // (R₀ = 500), so the cubic bounds the demand that follows `srate`.
        let (mut rl, start) = past_slow_start(500.0);
        drive_shares(&mut rl, start, 100, |w| {
            1.0 + 0.05 * (w as f64 * std::f64::consts::TAU / 8.0).sin()
        });
        assert_eq!(rl.stats().decreases, 1, "{:?}", rl.stats());
        assert!(rl.srate() >= 500.0, "srate fell to {}", rl.srate());
        assert!(rl.stats().throttled > 0, "the budget must have bound");
    }

    #[test]
    fn a_real_shortfall_at_volume_still_decreases() {
        // Past slow start (R₀ = 500), healthy for ten windows, then three
        // windows in which the server returns 60% of what was sent; one
        // more window closes the last.
        let (mut rl, start) = past_slow_start(500.0);
        drive_shares(&mut rl, start, 14, |w| {
            if (10..13).contains(&w) {
                0.6
            } else {
                1.0
            }
        });
        assert!(rl.stats().decreases >= 2, "{:?}", rl.stats());
        assert!(rl.srate() < 500.0, "srate {}", rl.srate());
    }

    #[test]
    fn idle_gap_dilutes_receive_rate() {
        let mut rl = Owned::new(&cfg(), Nanos::ZERO);
        for i in 0..8 {
            rl.on_response(Nanos(i * 1_000_000));
        }
        // Next response 10 windows later: rate should be spread thin.
        rl.on_response(ms(200));
        assert!(
            rl.meter.rrate < 1.0,
            "rrate {} should be diluted",
            rl.meter.rrate
        );
    }

    /// FNV-1a over little-endian 64-bit words: the trace digest below.
    fn fnv(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn fnv_stats(h: &mut u64, s: RateStats) {
        for word in [s.decreases, s.increases, s.throttled] {
            fnv(h, word);
        }
    }

    #[test]
    fn limiter_trace_matches_its_pinned_digest() {
        // One lone limiter and one 6-server `C3State` under a seeded mix of
        // every entry point at random times: steps inside a window, onto
        // exact window and hysteresis edges, idle gaps of several δ and the
        // odd stale `now`. A fractional floor lets decreases push `srate`
        // below one token per window. Every decision, `retry_at`, `srate`
        // bit pattern and counter is folded into one digest, pinned on the
        // limiter as it stood before its constants moved to the owner: an
        // arithmetic or call-order drift fails here, by name, before any
        // simulator golden reports it as a moved digest.
        use crate::feedback::Feedback;
        use crate::scheduler::{C3State, SendDecision};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let c = C3Config {
            initial_rate: 4.0,
            min_rate: 0.3,
            ..C3Config::default()
        };
        let delta = c.delta.as_nanos();
        let mut rng = SmallRng::seed_from_u64(51);
        let mut rl = Owned::new(&c, Nanos::ZERO);
        let mut st = C3State::new(6, c, Nanos::ZERO);
        let mut pending: Vec<usize> = Vec::new();
        let mut now = Nanos::ZERO;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fractional = 0u32;
        for _ in 0..20_000 {
            now += Nanos(match rng.gen_range(0..10u32) {
                0..=3 => rng.gen_range(0..delta / 8),
                4 => 0,
                5 => delta - now.as_nanos() % delta,
                6 | 7 => {
                    // Onto the lone limiter's hysteresis edge, or just past.
                    let anchor = if rng.gen_range(0..2u32) == 0 {
                        rl.t_increase
                    } else {
                        rl.t_decrease
                    };
                    let edge = anchor + c.hysteresis + Nanos(rng.gen_range(0..2u64));
                    edge.saturating_sub(now).as_nanos()
                }
                8 => rng.gen_range(2..6u64) * delta,
                _ => rng.gen_range(0..delta),
            });
            let at = if rng.gen_range(0..20u32) == 0 {
                now.saturating_sub(Nanos(rng.gen_range(0..delta)))
            } else {
                now
            };
            match rng.gen_range(0..6u32) {
                0..=2 => fnv(&mut h, u64::from(rl.try_acquire(at))),
                3 | 4 => rl.on_response(at),
                _ => fnv(&mut h, rl.next_window(at).as_nanos()),
            }
            fnv(&mut h, rl.srate().to_bits());
            fnv_stats(&mut h, rl.stats());
            fractional += u32::from(rl.srate() < 1.0);

            match rng.gen_range(0..6u32) {
                0..=2 => {
                    let mut servers = [0usize, 1, 2, 3, 4, 5];
                    let len = rng.gen_range(1..=3usize);
                    for i in 0..len {
                        let j = rng.gen_range(i..6usize);
                        servers.swap(i, j);
                    }
                    match st.try_send(&servers[..len], at) {
                        SendDecision::Send(s) => {
                            fnv(&mut h, s as u64);
                            st.record_send(s);
                            pending.push(s);
                        }
                        SendDecision::Backpressure { retry_at } => {
                            fnv(&mut h, retry_at.as_nanos() | 1 << 63);
                        }
                    }
                }
                3 | 4 if !pending.is_empty() => {
                    let s = pending.swap_remove(rng.gen_range(0..pending.len()));
                    let rt = Nanos(rng.gen_range(100_000..30_000_000u64));
                    let feedback = Feedback::new(
                        rng.gen_range(0..12u32),
                        Nanos(rng.gen_range(50_000..10_000_000u64)),
                    );
                    let feedback = (rng.gen_range(0..4u32) > 0).then_some(feedback);
                    st.on_response(s, rt, feedback.as_ref(), at);
                }
                5 if !pending.is_empty() => {
                    st.on_abandoned(pending.swap_remove(rng.gen_range(0..pending.len())));
                }
                _ => {}
            }
            for s in 0..6 {
                fnv(&mut h, st.limiter(s).srate().to_bits());
                fnv(&mut h, st.score_of(s).to_bits());
            }
            fnv_stats(&mut h, st.rate_stats());
        }
        // The trace reaches every branch it is meant to pin.
        let (lone, fleet) = (rl.stats(), st.rate_stats());
        assert!(lone.decreases > 0 && lone.increases > 0 && lone.throttled > 0);
        assert!(fleet.decreases > 0 && fleet.increases > 0 && fleet.throttled > 0);
        assert!(fractional > 0, "srate never fell below one per window");
        assert_eq!(h, 0x8387_128f_f875_33f8, "trace digest {h:#018x}");
    }
}
