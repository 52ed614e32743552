//! Fixed-window time series.
//!
//! The paper's load-conditioning analysis (Figures 2, 8 and 9) records the
//! number of read requests each node serves per 100 ms window and then looks
//! at the distribution and time evolution of those counts. [`WindowedCounts`]
//! implements exactly that: an event counter bucketed by fixed time windows.
//! [`GaugeSeries`] records sampled values (e.g. sending rates for Figure 13)
//! with their timestamps.

/// Counts events into fixed, contiguous time windows.
///
/// Times are `u64` nanoseconds since the start of the run. Windows are
/// `[0, w)`, `[w, 2w)`, ... where `w` is the window length.
#[derive(Clone, Debug)]
pub struct WindowedCounts {
    window_ns: u64,
    counts: Vec<u64>,
}

impl WindowedCounts {
    /// Create a counter with the given window length in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "window length must be positive");
        Self {
            window_ns,
            counts: Vec::new(),
        }
    }

    /// Record one event at time `t_ns`.
    pub fn record(&mut self, t_ns: u64) {
        let idx = (t_ns / self.window_ns) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Per-window counts, in time order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest per-window count.
    pub fn max(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Counts restricted to windows whose start time lies in
    /// `[from_ns, to_ns)`.
    pub fn slice(&self, from_ns: u64, to_ns: u64) -> &[u64] {
        let start = (from_ns / self.window_ns) as usize;
        let end = ((to_ns / self.window_ns) as usize).min(self.counts.len());
        if start >= end {
            &[]
        } else {
            &self.counts[start..end]
        }
    }

    /// `(window_start_ns, count)` pairs for every recorded window.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * self.window_ns, c))
    }
}

/// A series of `(time_ns, value)` samples of a gauge-like quantity
/// (sending rates, queue sizes, scores).
#[derive(Clone, Debug, Default)]
pub struct GaugeSeries {
    samples: Vec<(u64, f64)>,
}

impl GaugeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Samples should be appended in non-decreasing time
    /// order; this is asserted in debug builds.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|&(t, _)| t <= t_ns),
            "gauge samples must be time-ordered"
        );
        self.samples.push((t_ns, value));
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Values only, discarding timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// Samples whose time lies in `[from_ns, to_ns)`.
    pub fn range(&self, from_ns: u64, to_ns: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.samples
            .iter()
            .copied()
            .filter(move |&(t, _)| t >= from_ns && t < to_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_windows() {
        let mut w = WindowedCounts::new(100);
        w.record(0);
        w.record(99);
        w.record(100);
        w.record(250);
        assert_eq!(w.counts(), &[2, 1, 1]);
        assert_eq!(w.total(), 4);
        assert_eq!(w.max(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = WindowedCounts::new(0);
    }

    #[test]
    fn interior_gaps_are_zero_filled() {
        let mut w = WindowedCounts::new(10);
        w.record(5);
        w.record(45);
        assert_eq!(w.counts(), &[1, 0, 0, 0, 1]);
    }

    #[test]
    fn slice_selects_window_range() {
        let mut w = WindowedCounts::new(10);
        for t in [5, 15, 25, 35, 45] {
            w.record(t);
        }
        assert_eq!(w.slice(10, 40), &[1, 1, 1]);
        assert_eq!(w.slice(0, 10), &[1]);
        assert_eq!(w.slice(40, 40), &[] as &[u64]);
        assert_eq!(w.slice(100, 200), &[] as &[u64]);
    }

    #[test]
    fn iter_yields_window_starts() {
        let mut w = WindowedCounts::new(10);
        w.record(0);
        w.record(25);
        let v: Vec<_> = w.iter().collect();
        assert_eq!(v, vec![(0, 1), (10, 0), (20, 1)]);
    }

    #[test]
    fn gauge_series_basics() {
        let mut g = GaugeSeries::new();
        assert!(g.is_empty());
        g.push(10, 1.5);
        g.push(20, 2.5);
        g.push(30, 0.5);
        assert_eq!(g.len(), 3);
        assert_eq!(g.values(), vec![1.5, 2.5, 0.5]);
        let in_range: Vec<_> = g.range(15, 30).collect();
        assert_eq!(in_range, vec![(20, 2.5)]);
    }
}
