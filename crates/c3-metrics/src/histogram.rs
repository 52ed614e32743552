//! Log-linear bucketed histogram for latency values.
//!
//! The layout follows the classic HdrHistogram idea: values below
//! `2^SUB_BITS` get exact unit-width buckets; above that, each power-of-two
//! range is split into `2^(SUB_BITS-1)` equal sub-buckets, bounding the
//! relative quantization error to `2^-(SUB_BITS-1)` (≈ 0.78% here). This is
//! ample for reproducing latency percentiles that the paper reports with two
//! or three significant digits.

/// Number of mantissa bits kept per power-of-two range.
const SUB_BITS: u32 = 7;
/// Number of unit-width buckets at the bottom of the range (`2^SUB_BITS`).
const SUB: u64 = 1 << SUB_BITS;
/// Sub-buckets per power-of-two range above the linear region.
const HALF_SUB: u64 = SUB / 2;
/// Total number of buckets needed to cover the full `u64` range.
const NUM_BUCKETS: usize = (SUB + (64 - SUB_BITS) as u64 * HALF_SUB) as usize;

/// A log-linear histogram of `u64` values (nanoseconds, by convention).
///
/// Recording is O(1); quantile queries walk the bucket array (O(#buckets)).
/// Relative quantization error is bounded by ~0.78%; values up to `u64::MAX`
/// are representable. Bucket midpoints are used as representative values.
///
/// # Examples
///
/// ```
/// use c3_metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.value_at_quantile(0.5);
/// assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.02, "p50 = {p50}");
/// ```
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value.
    #[inline]
    fn index_of(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let bucket = (msb - SUB_BITS + 1) as u64;
        let shift = msb - SUB_BITS + 1;
        let offset = (value >> shift) - HALF_SUB;
        (SUB + (bucket - 1) * HALF_SUB + offset) as usize
    }

    /// Lowest value mapping to bucket `index`.
    fn low_of(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let bucket = (index - SUB) / HALF_SUB + 1;
        let offset = (index - SUB) % HALF_SUB;
        (HALF_SUB + offset) << bucket
    }

    /// Representative (midpoint) value for bucket `index`.
    fn mid_of(index: usize) -> u64 {
        let low = Self::low_of(index);
        if (index as u64) < SUB {
            return low;
        }
        let bucket = (index as u64 - SUB) / HALF_SUB + 1;
        let width = 1u64 << bucket;
        low + width / 2
    }

    /// Record one occurrence of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    #[inline]
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index_of(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the histogram has no recorded values.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (bucket midpoint; 0 when empty).
    ///
    /// `q = 0.5` is the median, `q = 0.999` the 99.9th percentile. Values of
    /// `q` outside `[0, 1]` are clamped.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target value, 1-based; q=0 maps to the first value.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                // Clamp to the observed range so tiny histograms report
                // exact min/max rather than bucket midpoints.
                return Self::mid_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Iterate over `(bucket_midpoint, count)` pairs for non-empty buckets,
    /// in increasing value order.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::mid_of(i), c))
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .field("p50", &self.value_at_quantile(0.5))
            .field("p99", &self.value_at_quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
    }

    #[test]
    fn indexes_are_contiguous_and_monotone() {
        // Walk the edges of every power-of-two range, in value order.
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..63u32 {
            probes.extend([1u64 << shift, (1u64 << shift) + 1, (2u64 << shift) - 1]);
        }
        probes.sort_unstable();
        probes.dedup();
        let mut prev = 0usize;
        for base in probes {
            let idx = LogHistogram::index_of(base);
            assert!(idx >= prev, "index must be monotone at {base}");
            assert!(idx < NUM_BUCKETS);
            prev = idx;
        }
    }

    #[test]
    fn low_of_inverts_index_of() {
        for &v in &[
            0u64,
            1,
            63,
            127,
            128,
            129,
            255,
            256,
            1000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let idx = LogHistogram::index_of(v);
            let low = LogHistogram::low_of(idx);
            assert!(low <= v, "low {low} must be <= value {v}");
            assert_eq!(
                LogHistogram::index_of(low),
                idx,
                "low must land in same bucket"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        let exact: Vec<(u64, u64)> = (0..SUB).map(|v| (v, 1)).collect();
        assert_eq!(h.iter_buckets().collect::<Vec<_>>(), exact);
    }

    #[test]
    fn quantiles_track_uniform_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let got = h.value_at_quantile(q) as f64;
            let want = q * 100_000.0;
            assert!(
                (got - want).abs() / want < 0.02,
                "q={q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn min_max_mean_are_exact() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        h.record(90);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 90);
        assert!((h.mean() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_quantiles_clamp_to_observed_range() {
        let mut h = LogHistogram::new();
        h.record(1_000_000);
        h.record(2_000_000);
        assert_eq!(h.value_at_quantile(0.0), h.value_at_quantile(0.0));
        assert!(h.value_at_quantile(0.0) >= h.min());
        assert!(h.value_at_quantile(1.0) <= h.max());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for _ in 0..7 {
            a.record(12345);
        }
        b.record_n(12345, 7);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.value_at_quantile(0.5), b.value_at_quantile(0.5));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 10_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(42);
        let before = (a.count(), a.min(), a.max());
        a.merge(&LogHistogram::new());
        assert_eq!((a.count(), a.min(), a.max()), before);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert!(h.value_at_quantile(1.0) >= h.value_at_quantile(0.999));
    }

    #[test]
    fn relative_error_is_bounded() {
        // Every value must land in a bucket whose midpoint is within ~0.79%.
        for &v in &[200u64, 1_000, 65_537, 1_000_000, 123_456_789] {
            let idx = LogHistogram::index_of(v);
            let mid = LogHistogram::mid_of(idx) as f64;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err < 0.008, "value {v} midpoint {mid} err {err}");
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = LogHistogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i) % 10_000_000 + 1;
            h.record(x);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let v = h.value_at_quantile(i as f64 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }
}
