//! Arrival processes and exponential sampling.
//!
//! The paper's §6 simulator generates requests "according to a Poisson
//! arrival process, to mimic arrival of user requests at web servers", and
//! draws service times from an exponential distribution. Both need
//! exponential sampling, implemented here by inversion.

use c3_core::Nanos;
use rand::Rng;

/// Sample an exponential random variable with the given mean, by inversion.
///
/// # Panics
///
/// Panics if `mean` is not positive and finite.
pub fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential mean must be positive, got {mean}"
    );
    // 1 - U ∈ (0, 1] avoids ln(0).
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// An open-loop Poisson arrival process with a fixed rate.
#[derive(Clone, Copy, Debug)]
pub struct PoissonArrivals {
    mean_interarrival: Nanos,
}

impl PoissonArrivals {
    /// Create a process generating `rate_per_sec` arrivals per second on
    /// average.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        Self {
            mean_interarrival: Nanos((1e9 / rate_per_sec) as u64),
        }
    }

    /// Sample the gap until the next arrival.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> Nanos {
        let gap = exp_sample(rng, self.mean_interarrival.as_nanos() as f64);
        Nanos(gap.max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exp_sample_matches_mean() {
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn exp_sample_is_nonnegative() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(exp_sample(&mut rng, 0.001) >= 0.0);
        }
    }

    #[test]
    fn exp_sample_memoryless_shape() {
        // ~63.2% of samples fall below the mean for an exponential.
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 100_000;
        let below = (0..n).filter(|_| exp_sample(&mut rng, 10.0) < 10.0).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.632).abs() < 0.01, "got {frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exp_sample_rejects_zero_mean() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = exp_sample(&mut rng, 0.0);
    }

    #[test]
    fn poisson_rate_round_trips() {
        let p = PoissonArrivals::new(2000.0);
        assert_eq!(p.mean_interarrival, Nanos(500_000));
    }

    #[test]
    fn poisson_gaps_average_to_rate() {
        let p = PoissonArrivals::new(10_000.0); // 0.1 ms mean gap
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut rng).as_nanos()).sum();
        let mean_us = total as f64 / n as f64 / 1000.0;
        assert!((mean_us - 100.0).abs() < 3.0, "mean gap {mean_us}µs");
    }

    #[test]
    fn poisson_gaps_are_positive() {
        let p = PoissonArrivals::new(1e9); // pathological 1 ns mean
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(p.next_gap(&mut rng) >= Nanos(1));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_rate() {
        let _ = PoissonArrivals::new(0.0);
    }
}
