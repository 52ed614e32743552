//! The benchmark's own arithmetic over samples: order statistics with the
//! "at least ten samples beyond" rule, medians, and the per-run seed
//! derivation. Nothing here touches the product.

/// Samples that must lie beyond a percentile before it is reported: a
/// tail estimate resting on fewer is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based rank `ceil(q * n)` order statistic of a sorted slice — the
/// convention the product's exact reservoirs use, so the benchmark's
/// percentiles and the product's agree on the same samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether `n` samples support quantile `q`: at least [`MIN_BEYOND`]
/// samples lie strictly beyond its rank.
pub fn supports(n: usize, q: f64) -> bool {
    if n == 0 {
        return false;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank >= MIN_BEYOND
}

/// The quantile of `samples`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supported_quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if !supports(samples.len(), q) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(quantile_sorted(samples, q))
}

/// Median of a sample set (mean of the two middle values for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `Σ cost / Σ work` over the half of the `(cost, work)` units with the
/// lowest cost per work (the larger half of an odd count). Pooling keeps a
/// coarsely quantised cost — CPU ticks — from deciding the result, which
/// the single cheapest unit would let it.
pub fn cheaper_half_pooled(units: &[(f64, f64)]) -> f64 {
    let mut units = units.to_vec();
    units.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    let half = &units[..units.len().div_ceil(2)];
    let (cost, work) = half
        .iter()
        .fold((0.0, 0.0), |acc, u| (acc.0 + u.0, acc.1 + u.1));
    if work == 0.0 {
        0.0
    } else {
        cost / work
    }
}

/// Largest sample; 0 for no samples.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Smallest sample; 0 for no samples.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Quantile of a bucketed histogram given as `(midpoint, count)` pairs in
/// increasing order, interpolated linearly inside the bucket the rank
/// falls in. `width_of(midpoint)` is the bucket's width. Interpolating
/// keeps a quantile that sits inside one bucket for every seed from
/// reading as the same midpoint on every run.
pub fn bucketed_quantile(buckets: &[(u64, u64)], q: f64, width_of: impl Fn(u64) -> u64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for &(mid, count) in buckets {
        if seen + count >= target {
            let width = width_of(mid) as f64;
            let low = mid as f64 - width / 2.0;
            let into = (target - seen) as f64 / count as f64;
            return low + width * into;
        }
        seen += count;
    }
    buckets.last().map_or(0.0, |&(mid, _)| mid as f64)
}

/// Seed of cell (or window) `index` of a run started with `--seed seed`.
/// Distinct runs get disjoint cell seeds as long as a run has fewer than
/// 1000 cells, which every workload size guarantees.
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_uses_ceil_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond rank 990.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // The median of 21 samples has 10 beyond rank 11; of 20, only 10
        // beyond rank 10.
        assert!(supports(21, 0.5));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn unsupported_quantiles_are_refused() {
        let mut few: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(supported_quantile(&mut few, 0.99), None);
        assert_eq!(supported_quantile(&mut few, 0.5), Some(249.0));
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(supported_quantile(&mut enough, 0.99), Some(989.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cheaper_half_pools_the_least_disturbed_units() {
        // Costs per work 1, 2, 3, 10: the cheaper half is the first two.
        let units = [(30.0, 10.0), (10.0, 10.0), (100.0, 10.0), (40.0, 20.0)];
        assert_eq!(cheaper_half_pooled(&units), 50.0 / 30.0);
        // An odd count keeps the larger half.
        assert_eq!(cheaper_half_pooled(&units[..3]), 40.0 / 20.0);
        assert_eq!(cheaper_half_pooled(&[]), 0.0);
        assert_eq!(max(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn bucketed_quantile_interpolates_inside_the_bucket() {
        // One bucket [90, 110) holding 100 samples: the median sits at
        // its middle, the p99 near its top.
        let buckets = [(100u64, 100u64)];
        let w = |_| 20u64;
        assert!((bucketed_quantile(&buckets, 0.5, w) - 100.0).abs() < 1e-9);
        assert!((bucketed_quantile(&buckets, 0.99, w) - 109.8).abs() < 1e-9);
        // Two buckets: rank 150 of 200 is halfway into the second.
        let two = [(100u64, 100u64), (200, 100)];
        assert!((bucketed_quantile(&two, 0.75, w) - 200.0).abs() < 1e-9);
        assert_eq!(bucketed_quantile(&[], 0.5, w), 0.0);
    }

    #[test]
    fn cell_seeds_are_disjoint_across_run_seeds() {
        assert_eq!(cell_seed(1, 0), 1000);
        assert_eq!(cell_seed(1, 23), 1023);
        assert_eq!(cell_seed(2, 0), 2000);
        assert_ne!(cell_seed(1, 999), cell_seed(2, 0));
    }
}
