//! Per-run latency summaries and multi-run aggregation.
//!
//! The paper reports every latency experiment as mean / median / 95th / 99th
//! / 99.9th percentiles, averaged over five repetitions with 95% confidence
//! intervals. [`LatencySummary`] captures one run; [`RunSet`] aggregates a
//! metric across runs.

use crate::{ns_to_ms, LogHistogram};

/// The latency percentiles the paper reports, for one run, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded requests.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (50th percentile).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum observed value.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarize a histogram of nanosecond latencies.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        Self {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.value_at_quantile(0.50),
            p95_ns: h.value_at_quantile(0.95),
            p99_ns: h.value_at_quantile(0.99),
            p999_ns: h.value_at_quantile(0.999),
            max_ns: h.max(),
        }
    }

    /// Mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }

    /// Fetch a percentile by a human label used in the harness tables
    /// ("mean", "median", "p95", "p99", "p999"), in milliseconds.
    pub fn metric_ms(&self, label: &str) -> f64 {
        match label {
            "mean" => self.mean_ms(),
            "median" | "p50" => ns_to_ms(self.p50_ns),
            "p95" => ns_to_ms(self.p95_ns),
            "p99" => ns_to_ms(self.p99_ns),
            "p999" | "p99.9" => ns_to_ms(self.p999_ns),
            "max" => ns_to_ms(self.max_ns),
            other => panic!("unknown metric label {other:?}"),
        }
    }
}

/// Jain's fairness index over a set of non-negative allocations:
/// `(Σx)² / (n·Σx²)`. 1.0 means perfectly equal shares; `1/n` means one
/// party holds everything. Degenerate inputs (empty, or all zero) are
/// trivially fair and return 1.0.
///
/// The scenario library applies it to per-tenant *slowdown factors*
/// (shared-run tail over isolated-run tail), the standard multi-tenant
/// fairness formulation: equal slowdowns are fair even when absolute
/// latencies differ by tenant.
pub fn jain_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    assert!(
        values.iter().all(|v| v.is_finite() && *v >= 0.0),
        "Jain index needs finite non-negative values, got {values:?}"
    );
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// A mean with a symmetric confidence half-width.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% interval (`1.96 · s/√n`, normal approximation).
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.half_width)
    }
}

/// A set of per-run scalar observations of one metric, aggregated across
/// repeated runs (the paper repeats each measurement five times).
#[derive(Clone, Debug, Default)]
pub struct RunSet {
    values: Vec<f64>,
}

impl RunSet {
    /// Create an empty run set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one run's value.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of runs recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no runs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Unbiased sample standard deviation (0.0 for fewer than two runs).
    pub(crate) fn stddev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// 95% confidence interval on the mean (normal approximation, as used
    /// for the paper's bar-plot error bars).
    pub fn ci95(&self) -> ConfidenceInterval {
        let n = self.values.len();
        let half_width = if n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (n as f64).sqrt()
        };
        ConfidenceInterval {
            mean: self.mean(),
            half_width,
        }
    }

    /// Raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Minimum value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_histogram() -> LogHistogram {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000_000); // 1..=1000 ms
        }
        h
    }

    #[test]
    fn summary_extracts_paper_percentiles() {
        let s = LatencySummary::from_histogram(&filled_histogram());
        assert_eq!(s.count, 1000);
        let p50_ms = ns_to_ms(s.p50_ns);
        let p99_ms = ns_to_ms(s.p99_ns);
        assert!((p50_ms - 500.0).abs() / 500.0 < 0.02, "p50 {p50_ms}");
        assert!((p99_ms - 990.0).abs() / 990.0 < 0.02, "p99 {p99_ms}");
        assert!(s.p999_ns >= s.p99_ns);
        assert!(s.p99_ns >= s.p95_ns);
        assert!(s.p95_ns >= s.p50_ns);
    }

    #[test]
    fn tail_minus_median_is_positive_for_skewed_data() {
        let s = LatencySummary::from_histogram(&filled_histogram());
        assert!(s.p999_ns > s.p50_ns);
    }

    #[test]
    fn metric_ms_labels() {
        let s = LatencySummary::from_histogram(&filled_histogram());
        assert_eq!(s.metric_ms("median"), ns_to_ms(s.p50_ns));
        assert_eq!(s.metric_ms("p999"), ns_to_ms(s.p999_ns));
        assert_eq!(s.metric_ms("mean"), s.mean_ms());
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn metric_ms_rejects_unknown_labels() {
        let s = LatencySummary::from_histogram(&filled_histogram());
        let _ = s.metric_ms("p42");
    }

    #[test]
    fn jain_index_bounds_and_degenerate_cases() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One party holds everything: index collapses to 1/n.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Monotone: more skew, lower index.
        assert!(jain_index(&[1.0, 2.0]) > jain_index(&[1.0, 10.0]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn jain_index_rejects_negative_values() {
        let _ = jain_index(&[1.0, -2.0]);
    }

    #[test]
    fn runset_mean_and_ci() {
        let mut rs = RunSet::new();
        for v in [10.0, 12.0, 8.0, 11.0, 9.0] {
            rs.push(v);
        }
        assert_eq!(rs.len(), 5);
        assert!((rs.mean() - 10.0).abs() < 1e-9);
        let ci = rs.ci95();
        assert!(ci.half_width > 0.0);
        assert!(ci.lo() < 10.0 && ci.hi() > 10.0);
    }

    #[test]
    fn runset_single_value_has_zero_width() {
        let mut rs = RunSet::new();
        rs.push(42.0);
        let ci = rs.ci95();
        assert_eq!(ci.mean, 42.0);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(rs.stddev(), 0.0);
    }

    #[test]
    fn runset_min_max() {
        let mut rs = RunSet::new();
        assert_eq!(rs.min(), 0.0);
        assert_eq!(rs.max(), 0.0);
        rs.push(3.0);
        rs.push(-1.0);
        assert_eq!(rs.min(), -1.0);
        assert_eq!(rs.max(), 3.0);
    }

    #[test]
    fn ci_display_formats() {
        let ci = ConfidenceInterval {
            mean: 1.234,
            half_width: 0.5,
        };
        assert_eq!(format!("{ci}"), "1.23 ± 0.50");
    }
}
