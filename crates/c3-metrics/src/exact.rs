//! Exact latency reservoir.
//!
//! The streaming [`LogHistogram`](crate::LogHistogram) bounds relative
//! quantization error to one log-linear bucket (~0.8% at the midpoint) in
//! O(1) memory — the right trade for the hot path, where millions of
//! operations are recorded per run. The claims and figure tiers, however,
//! state numeric percentile comparisons between strategies whose gaps can
//! be a few percent; for those an [`ExactReservoir`] keeps every sample
//! and reports *exact* order statistics. It costs O(n) memory (4 B per
//! value, mostly) and an O(n log n) sort, which is why it sits behind a
//! flag (`ScenarioRunner::with_exact_latency` in `c3-engine`) instead of
//! being the default recorder.
//!
//! Percentile convention matches the histogram's: the value at 1-based
//! rank `ceil(q·n)` (clamped to at least 1), so the two recorders differ
//! only by bucket quantization — a property the parity tests pin down.
//!
//! Values are recorded into one reused 64 KiB buffer, never into one
//! vector grown by doubling: a process that fills a reservoir per run
//! window would otherwise free multi-MB blocks, which raises glibc's
//! dynamic mmap threshold so later blocks that size come from the heap
//! and stay resident — peak RSS ratcheting up window after window. A full
//! buffer is sorted and retired as `u32` offsets from its minimum when
//! its range fits (4 B per value), else as its `u64` values. The rank-r
//! order statistic is the least value `v` whose count of values `≤ v`
//! reaches r, found by binary search over the value range: no merged
//! copy is ever built, and every percentile equals a sort of all values.

use crate::LatencySummary;

/// Values per chunk: 64 KiB, under glibc's default 128 KiB mmap threshold.
const CHUNK: usize = 8_192;

/// Every recorded value, with exact order-statistic summaries.
#[derive(Clone, Debug, Default)]
pub struct ExactReservoir {
    /// The buffer taking records, held inline so a record touches no more
    /// memory than a push onto one vector would. Unsorted between
    /// queries; a query sorts it in place.
    current: Vec<u64>,
    /// Retired chunks whose range fits in a `u32`: their minimum and
    /// their values' sorted offsets from it.
    narrow: Vec<(u64, Vec<u32>)>,
    /// Retired chunks whose range does not, sorted.
    wide: Vec<Vec<u64>>,
    sum: u128,
}

impl ExactReservoir {
    /// An empty reservoir.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value (nanoseconds, by convention).
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.current.len() == self.current.capacity() {
            self.next_chunk();
        }
        self.current.push(value);
        self.sum += value as u128;
    }

    /// `current` has no room left: retire it, sorted (unless nothing was
    /// recorded yet), and make room for a chunk. A clone's `current` keeps
    /// no spare capacity, so chunks retired after a clone may be partial.
    #[cold]
    fn next_chunk(&mut self) {
        let values = &mut self.current;
        values.sort_unstable();
        if let (Some(&base), Some(&top)) = (values.first(), values.last()) {
            if top - base <= u64::from(u32::MAX) {
                let offsets = values.iter().map(|&v| (v - base) as u32).collect();
                self.narrow.push((base, offsets));
                values.clear();
            } else {
                self.wide.push(std::mem::take(values));
            }
        }
        self.current.reserve_exact(CHUNK);
    }

    /// The sorted `u64` runs: every wide chunk, and `current` once a
    /// query has sorted it.
    fn wide_runs(&self) -> impl Iterator<Item = &[u64]> {
        let runs = self.wide.iter().map(Vec::as_slice);
        runs.chain([self.current.as_slice()])
            .filter(|run| !run.is_empty())
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        let narrow: usize = self.narrow.iter().map(|(_, o)| o.len()).sum();
        (narrow + self.wide_runs().map(<[u64]>::len).sum::<usize>()) as u64
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.sum as f64 / self.count() as f64
    }

    /// The 1-based `rank`-th smallest value; `current` sorted, `rank` in
    /// `1..=count`.
    fn order_statistic(&self, rank: u64) -> u64 {
        let count_le = |v: u64| -> u64 {
            let narrow = self
                .narrow
                .iter()
                .map(|(base, offsets)| offsets.partition_point(|&o| base + u64::from(o) <= v));
            let wide = self.wide_runs().map(|run| run.partition_point(|&x| x <= v));
            narrow.chain(wide).sum::<usize>() as u64
        };
        let narrow_min = self.narrow.iter().map(|&(base, _)| base);
        let wide_min = self.wide_runs().map(|run| run[0]);
        let mut lo = narrow_min.chain(wide_min).min().unwrap_or(0);
        let mut hi = self.max();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if count_le(mid) >= rank {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Largest value; `current` sorted.
    fn max(&self) -> u64 {
        let narrow = self
            .narrow
            .iter()
            .map(|(base, o)| base + u64::from(o[o.len() - 1]));
        let wide = self.wide_runs().map(|run| run[run.len() - 1]);
        narrow.chain(wide).max().unwrap_or(0)
    }

    /// Exact value at quantile `q` ∈ [0, 1] (0 when empty), using the
    /// same rank convention as `LogHistogram::value_at_quantile`.
    pub fn value_at_quantile(&mut self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        self.current.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let n = self.count();
        let rank = ((q * n as f64).ceil() as u64).max(1).min(n);
        self.order_statistic(rank)
    }

    /// Exact latency summary at the paper's percentiles.
    pub fn summary(&mut self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            mean_ns: self.mean(),
            p50_ns: self.value_at_quantile(0.50),
            p95_ns: self.value_at_quantile(0.95),
            p99_ns: self.value_at_quantile(0.99),
            p999_ns: self.value_at_quantile(0.999),
            max_ns: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogHistogram;

    #[test]
    fn empty_reservoir_reports_zeros() {
        let mut r = ExactReservoir::new();
        assert!(r.is_empty());
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.value_at_quantile(0.5), 0);
        let s = r.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn exact_order_statistics() {
        let mut r = ExactReservoir::new();
        for v in [30u64, 10, 20, 40, 50] {
            r.record(v);
        }
        assert_eq!(r.value_at_quantile(0.0), 10);
        assert_eq!(r.value_at_quantile(0.5), 30, "ceil(0.5·5)=3rd value");
        assert_eq!(r.value_at_quantile(1.0), 50);
        assert!((r.mean() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn records_after_query_keep_working() {
        let mut r = ExactReservoir::new();
        r.record(5);
        assert_eq!(r.value_at_quantile(1.0), 5);
        r.record(1);
        assert_eq!(r.value_at_quantile(0.0), 1);
        assert_eq!(r.count(), 2);
    }

    /// The summary of one sorted vector of every value: the reservoir's
    /// arithmetic before it held chunks.
    fn sorted_summary(values: &[u64]) -> LatencySummary {
        let mut v = values.to_vec();
        v.sort_unstable();
        let n = v.len();
        let at = |q: f64| v[((q * n as f64).ceil() as usize).max(1).min(n) - 1];
        LatencySummary {
            count: n as u64,
            mean_ns: v.iter().map(|&x| x as u128).sum::<u128>() as f64 / n as f64,
            p50_ns: at(0.50),
            p95_ns: at(0.95),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            max_ns: v[n - 1],
        }
    }

    fn assert_same(a: LatencySummary, b: LatencySummary, what: &str) {
        assert_eq!(a.count, b.count, "{what}");
        assert_eq!(a.mean_ns.to_bits(), b.mean_ns.to_bits(), "{what}");
        assert_eq!(
            (a.p50_ns, a.p95_ns, a.p99_ns, a.p999_ns, a.max_ns),
            (b.p50_ns, b.p95_ns, b.p99_ns, b.p999_ns, b.max_ns),
            "{what}"
        );
    }

    #[test]
    fn chunked_summaries_equal_one_sorted_vector() {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut random = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let inputs: Vec<(&str, Vec<u64>)> = vec![
            ("single value", vec![7]),
            ("all equal", vec![42; 3 * CHUNK + 5]),
            (
                "one short of a chunk",
                (0..CHUNK as u64 - 1).rev().collect(),
            ),
            (
                "one chunk",
                (0..CHUNK as u64).map(|i| i * 7 % 1_001).collect(),
            ),
            ("one past a chunk", (0..CHUNK as u64 + 1).collect()),
            ("random", (0..50_000).map(|_| random() >> 20).collect()),
            ("full range", (0..20_000).map(|_| random()).collect()),
        ];
        for (what, values) in inputs {
            let mut r = ExactReservoir::new();
            values.iter().for_each(|&v| r.record(v));
            assert_same(r.summary(), sorted_summary(&values), what);
        }
    }

    /// A chunk whose range is exactly `u32::MAX` retires as offsets, one
    /// whose range is one more as `u64` values; either way every order
    /// statistic is the sorted vector's, alone or beside the other kind.
    #[test]
    fn chunks_narrow_up_to_a_u32_range() {
        let base = 3_000_000_000u64;
        // Evenly spaced from `base` to `base + range`, in reverse order.
        let chunk_of = |range: u64| -> Vec<u64> {
            let last = CHUNK as u128 - 1;
            (0..=last)
                .rev()
                .map(|i| base + (u128::from(range) * i / last) as u64)
                .collect()
        };
        let at_limit = chunk_of(u64::from(u32::MAX));
        let past_limit = chunk_of(u64::from(u32::MAX) + 1);
        let mut both = Vec::new();
        for (values, narrow) in [(&at_limit, true), (&past_limit, false)] {
            let mut r = ExactReservoir::new();
            values.iter().for_each(|&v| r.record(v));
            // One more record retires the full buffer.
            r.record(base + 1);
            assert_eq!(
                (r.narrow.len(), r.wide.len()),
                (usize::from(narrow), usize::from(!narrow))
            );
            let mut all = values.clone();
            all.push(base + 1);
            assert_same(r.summary(), sorted_summary(&all), "one chunk");
            for rank in [1, 2, CHUNK / 2, CHUNK - 1, CHUNK, CHUNK + 1] {
                let q = rank as f64 / all.len() as f64;
                let mut sorted = all.clone();
                sorted.sort_unstable();
                assert_eq!(r.value_at_quantile(q), sorted[rank - 1], "rank {rank}");
            }
            both.extend_from_slice(values);
        }
        let mut r = ExactReservoir::new();
        both.iter().for_each(|&v| r.record(v));
        r.record(0);
        both.push(0);
        assert_same(
            r.summary(),
            sorted_summary(&both),
            "a narrow and a wide chunk",
        );
    }

    #[test]
    fn records_after_a_summary_are_counted() {
        // Queries sort the chunks in place; records landing after one (in
        // the partial chunk, then in new ones) must still be seen — also
        // by a clone, whose partial chunk keeps no spare capacity.
        let mut r = ExactReservoir::new();
        let mut values = Vec::new();
        for round in 0..4u64 {
            for i in 0..(CHUNK as u64 / 2 + 3) {
                let v = (i * 2_654_435_761 + round) % 100_003;
                r.record(v);
                values.push(v);
            }
            assert_same(r.summary(), sorted_summary(&values), "round");
            r = r.clone();
        }
    }

    #[test]
    fn streaming_histogram_stays_within_one_bucket_of_exact() {
        // The satellite parity bound: p50/p95/p99/p99.9 from the streaming
        // recorder within one log-linear bucket width of the exact value.
        let mut exact = ExactReservoir::new();
        let mut stream = LogHistogram::new();
        // Heavy-tailed deterministic stream spanning several decades.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..200_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let base = 100_000 + (x >> 40); // ~0.1–16 ms
            let v = if x % 100 < 2 { base * 50 } else { base }; // 2% tail
            exact.record(v);
            stream.record(v);
        }
        for q in [0.5, 0.95, 0.99, 0.999] {
            let e = exact.value_at_quantile(q) as f64;
            let s = stream.value_at_quantile(q) as f64;
            // One bucket width at value v is at most v / 64 (2^-(SUB_BITS-1)).
            assert!(
                (s - e).abs() <= e / 64.0 + 1.0,
                "q={q}: stream {s} vs exact {e} exceeds one bucket width"
            );
        }
        assert_eq!(exact.count(), stream.count());
    }
}
