//! Exponentially weighted moving averages.
//!
//! C3 clients smooth three per-server signals with EWMAs (§3.1 of the
//! paper): the queue-size feedback `q̄_s`, the service-time feedback
//! `μ̄_s⁻¹`, and the client-observed response time `R̄_s`.

/// An exponentially weighted moving average.
///
/// `alpha` is the weight given to each **new** sample:
/// `x̄ ← α·x + (1−α)·x̄`. The first sample initializes the average.
///
/// # Examples
///
/// ```
/// use c3_core::Ewma;
///
/// let mut e = Ewma::new(0.5);
/// assert!(e.value().is_none());
/// e.update(10.0);
/// e.update(20.0);
/// assert_eq!(e.value(), Some(15.0));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with new-sample weight `alpha` ∈ (0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Incorporate a new sample.
    pub fn update(&mut self, sample: f64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
        });
    }

    /// Current smoothed value, if any sample has been recorded.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current smoothed value, or `default` before the first sample.
    pub(crate) fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// The configured new-sample weight.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Discard all state (used by tests and by strategies that reset
    /// periodically, like Dynamic Snitching's 10-minute reset).
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        e.update(42.0);
        assert_eq!(e.value(), Some(42.0));
    }

    #[test]
    fn smooths_towards_new_samples() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        e.update(100.0);
        assert_eq!(e.value(), Some(50.0));
        e.update(100.0);
        assert_eq!(e.value(), Some(75.0));
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.update(3.0);
        e.update(9.0);
        assert_eq!(e.value(), Some(9.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        e.update(0.0);
        for _ in 0..200 {
            e.update(7.0);
        }
        assert!((e.value().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn stays_within_sample_bounds() {
        // An EWMA of samples in [lo, hi] must remain in [lo, hi].
        let mut e = Ewma::new(0.3);
        let samples = [5.0, 9.0, 6.5, 8.0, 5.5, 9.0];
        for &s in &samples {
            e.update(s);
            let v = e.value().unwrap();
            assert!((5.0..=9.0).contains(&v), "escaped bounds: {v}");
        }
    }

    #[test]
    fn value_or_and_reset() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value_or(1.5), 1.5);
        e.update(4.0);
        assert_eq!(e.value_or(1.5), 4.0);
        e.reset();
        assert_eq!(e.value_or(1.5), 1.5);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn oversized_alpha_rejected() {
        let _ = Ewma::new(1.5);
    }
}
