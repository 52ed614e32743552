//! Fixed-point time for simulation and wall-clock use.
//!
//! The C3 algorithm is driven by timestamps (rate windows, hysteresis
//! periods, cubic growth since the last rate decrease). To keep the core
//! usable both from the deterministic discrete-event simulators and from the
//! real socket implementation, every algorithm entry point takes the current
//! time as an explicit [`Nanos`] argument instead of reading a clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::time::Duration;

/// A point in time or a duration, in integer nanoseconds.
///
/// `Nanos` is deliberately a single type for both instants and durations:
/// the simulators deal in "nanoseconds since run start" and the arithmetic
/// never mixes epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time (run start).
    pub const ZERO: Nanos = Nanos(0);
    /// Largest representable time.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// From fractional milliseconds (rounds to the nearest nanosecond;
    /// negative values clamp to zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        Nanos((ms.max(0.0) * 1e6).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction (useful for "elapsed since" computations that
    /// must not underflow when events race).
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Multiply a duration by an integer factor.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, k: u64) -> Nanos {
        Nanos(self.0 * k)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl From<Duration> for Nanos {
    fn from(d: Duration) -> Self {
        Nanos(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl From<Nanos> for Duration {
    fn from(n: Nanos) -> Self {
        Duration::from_nanos(n.0)
    }
}

/// Monotonic wall-clock time since construction: the live backend's
/// source of "now".
///
/// The algorithm itself stays clock-free — every `c3-core` entry point
/// takes `Nanos` — but a *driver* has to produce those values from
/// somewhere: the simulators read their event-queue clock, the live socket
/// backend (`c3-live`) reads one of these anchored at run start. Both
/// yield "nanoseconds since run start", so fault-plan timelines (slow
/// windows included) and score trajectories line up between sim and live
/// runs.
///
/// Thread-safe and cheap: every reader shares the same `Instant` origin,
/// so timestamps from different threads are mutually ordered the same way
/// the simulators' single event clock orders them.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock whose zero is "now". Copies share the origin, which is
    /// how the live backend keeps many threads on one timeline.
    pub fn start() -> Self {
        Self {
            origin: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since this clock's origin.
    pub fn now(&self) -> Nanos {
        self.origin.elapsed().into()
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::start()
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_millis(20).as_nanos(), 20_000_000);
        assert_eq!(Nanos::from_micros(250).as_nanos(), 250_000);
        assert_eq!(Nanos::from_secs(2).as_millis_f64(), 2000.0);
        assert_eq!(Nanos::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(Nanos::from_millis_f64(-3.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos::from_millis(10);
        let b = Nanos::from_millis(4);
        assert_eq!(a + b, Nanos::from_millis(14));
        assert_eq!(a - b, Nanos::from_millis(6));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.mul(3), Nanos::from_millis(30));
        let mut c = a;
        c += b;
        c -= Nanos::from_millis(2);
        assert_eq!(c, Nanos::from_millis(12));
    }

    #[test]
    fn duration_interop() {
        let d = Duration::from_millis(7);
        let n: Nanos = d.into();
        assert_eq!(n, Nanos::from_millis(7));
        let back: Duration = n.into();
        assert_eq!(back, d);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(5)), "5ns");
        assert_eq!(format!("{}", Nanos::from_micros(2)), "2.000µs");
        assert_eq!(format!("{}", Nanos::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(1)), "1.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Nanos::from_millis(1) < Nanos::from_millis(2));
        assert!(Nanos::MAX > Nanos::from_secs(1_000_000));
    }

    #[test]
    fn wall_clock_is_monotonic_from_zero() {
        let clock = WallClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert!(a < Nanos::from_secs(60), "origin anchors at construction");
    }

    #[test]
    fn wall_clock_copies_share_the_origin() {
        let clock = WallClock::start();
        let copy = clock;
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a = clock.now();
        let b = copy.now();
        // Same origin: the two readings differ only by the time between
        // the calls, never by a fresh anchor.
        assert!(b >= a && b.saturating_sub(a) < Nanos::from_secs(1));
    }
}
