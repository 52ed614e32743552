//! C3 configuration.
//!
//! Default values follow §4 of the paper: multiplicative decrease β = 0.2, a
//! 100 ms saddle region, a δ = 20 ms rate interval, hysteresis of two rate
//! intervals, and a cubic-rate step cap `s_max` = 10. The queue exponent is
//! b = 3 (cubic replica selection) and the concurrency-compensation weight
//! `w` is set to the number of clients in the system.

use crate::time::Nanos;

/// Configuration for a C3 client (selector + rate control).
#[derive(Clone, Copy, Debug)]
pub struct C3Config {
    /// New-sample weight for the q̄, μ̄⁻¹ and R̄ EWMAs.
    pub ewma_alpha: f64,
    /// Concurrency-compensation weight `w` in `q̂ = 1 + os·w + q̄`; the
    /// paper sets this to the number of clients in the system.
    pub concurrency_weight: f64,
    /// Queue-size penalty exponent `b` in `(q̂)^b / μ̄`; the paper chooses 3.
    pub queue_exponent: u32,
    /// Multiplicative decrease factor β applied to the sending rate.
    pub beta: f64,
    /// Rate interval δ: rates are expressed in requests per δ.
    pub delta: Nanos,
    /// Desired saddle-region duration of the cubic growth curve.
    pub saddle: Nanos,
    /// Cap on a single rate-increase step (requests per δ).
    pub smax: f64,
    /// Minimum time between a rate increase and a subsequent decrease.
    pub hysteresis: Nanos,
    /// The starting sending-rate limit per δ window; slow start grows it
    /// by up to `smax` per response until the first decrease.
    pub initial_rate: f64,
    /// Floor on the sending rate so a server is never locked out entirely.
    pub min_rate: f64,
    /// Enable the rate-control / backpressure component (ablation switch;
    /// the full C3 always enables it).
    pub rate_control: bool,
    /// Enable concurrency compensation (`os·w` term) in the queue-size
    /// estimate (ablation switch; the full C3 always enables it).
    pub concurrency_compensation: bool,
}

impl Default for C3Config {
    fn default() -> Self {
        Self {
            // Fast-reacting smoothing: the scheme must track sub-second
            // service-time fluctuations (§2.1), and the simulator shows a
            // slow EWMA erases most of C3's tail advantage over LOR.
            ewma_alpha: 0.9,
            concurrency_weight: 1.0,
            queue_exponent: 3,
            beta: 0.2,
            delta: Nanos::from_millis(20),
            saddle: Nanos::from_millis(100),
            smax: 10.0,
            hysteresis: Nanos::from_millis(40),
            initial_rate: 50.0,
            min_rate: 1.0,
            rate_control: true,
            concurrency_compensation: true,
        }
    }
}

impl C3Config {
    /// Paper defaults with the concurrency weight set to the number of
    /// clients in the system (§3.1: "we set w to the number of clients").
    pub fn for_clients(num_clients: usize) -> Self {
        Self {
            concurrency_weight: num_clients as f64,
            ..Self::default()
        }
    }

    /// Disable rate control (ranking-only C3) — used by the component
    /// ablation experiments.
    pub fn without_rate_control(mut self) -> Self {
        self.rate_control = false;
        self
    }

    /// Disable the `os·w` concurrency-compensation term — used by the
    /// component ablation experiments.
    pub fn without_concurrency_compensation(mut self) -> Self {
        self.concurrency_compensation = false;
        self
    }

    /// Override the queue exponent `b` (the paper compares linear and cubic;
    /// the ablations sweep b ∈ {1, 2, 3, 4}).
    pub fn with_queue_exponent(mut self, b: u32) -> Self {
        self.queue_exponent = b;
        self
    }

    /// Validate invariants. Called by constructors that accept a config.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    pub fn validate(&self) {
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "ewma_alpha must be in (0,1]"
        );
        assert!(self.concurrency_weight >= 0.0, "w must be non-negative");
        assert!(self.queue_exponent >= 1, "queue exponent must be >= 1");
        assert!(self.beta > 0.0 && self.beta < 1.0, "beta must be in (0,1)");
        assert!(self.delta > Nanos::ZERO, "delta must be positive");
        assert!(self.saddle > Nanos::ZERO, "saddle must be positive");
        assert!(self.smax > 0.0, "smax must be positive");
        assert!(
            self.initial_rate >= self.min_rate,
            "initial rate below floor"
        );
        assert!(self.min_rate > 0.0, "min rate must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section4() {
        let c = C3Config::default();
        assert_eq!(c.beta, 0.2);
        assert_eq!(c.delta, Nanos::from_millis(20));
        assert_eq!(c.saddle, Nanos::from_millis(100));
        assert_eq!(c.smax, 10.0);
        assert_eq!(c.hysteresis, Nanos::from_millis(40)); // 2 × δ
        assert_eq!(c.queue_exponent, 3);
        assert!(c.rate_control);
        assert!(c.concurrency_compensation);
        c.validate();
    }

    #[test]
    fn for_clients_sets_w() {
        let c = C3Config::for_clients(120);
        assert_eq!(c.concurrency_weight, 120.0);
        c.validate();
    }

    #[test]
    fn ablation_builders() {
        let c = C3Config::default()
            .without_rate_control()
            .without_concurrency_compensation()
            .with_queue_exponent(1);
        assert!(!c.rate_control);
        assert!(!c.concurrency_compensation);
        assert_eq!(c.queue_exponent, 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn validate_rejects_bad_beta() {
        let c = C3Config {
            beta: 1.0,
            ..C3Config::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "queue exponent")]
    fn validate_rejects_zero_exponent() {
        let c = C3Config {
            queue_exponent: 0,
            ..C3Config::default()
        };
        c.validate();
    }
}
