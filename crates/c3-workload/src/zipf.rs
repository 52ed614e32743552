//! Zipfian key choosers.
//!
//! Implements the rejection-free Zipfian sampler used by YCSB (after Gray
//! et al., "Quickly Generating Billion-Record Synthetic Databases"): ranks
//! follow P(rank = i) ∝ 1/i^θ with θ = 0.99 by default, and the scrambled
//! variant hashes ranks across the keyspace so the hot keys are not
//! clustered at the low end — exactly what YCSB does when driving the
//! paper's Cassandra clusters.

use rand::Rng;

/// Default Zipfian constant; YCSB's and the paper's ρ.
pub(crate) const DEFAULT_THETA: f64 = 0.99;

/// A Zipfian distribution over `0..n` (rank 0 is the hottest item).
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Create a Zipfian distribution over `0..items` with constant `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `theta` is not in `(0, 1)`.
    pub fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "need at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zetan = zeta(items, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Standard YCSB parameters: θ = 0.99.
    pub fn ycsb(items: u64) -> Self {
        Self::new(items, DEFAULT_THETA)
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The Zipfian constant θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Sample a rank in `0..items` (0 is most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Theoretical probability of rank `i` (for tests and analyses).
    pub fn probability(&self, rank: u64) -> f64 {
        assert!(rank < self.items);
        1.0 / ((rank + 1) as f64).powf(self.theta) / self.zetan
    }
}

/// `zeta(n, θ) = Σ_{i=1..n} 1/i^θ`.
fn zeta(n: u64, theta: f64) -> f64 {
    // For the item counts used here (≤ tens of millions) the direct sum is
    // fine and exact; YCSB does the same.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// FNV-1a 64-bit hash, used to scatter Zipfian ranks over the keyspace.
pub(crate) fn fnv1a(mut x: u64) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(PRIME);
        x >>= 8;
    }
    h
}

/// Scrambled Zipfian: Zipfian-popular ranks hashed uniformly across the
/// keyspace, matching YCSB's `ScrambledZipfianGenerator`.
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    zipf: Zipfian,
    keyspace: u64,
}

impl ScrambledZipfian {
    /// Popularity ranks over `0..items`, scattered onto `0..keyspace` keys.
    pub fn new(items: u64, keyspace: u64, theta: f64) -> Self {
        assert!(keyspace > 0, "keyspace must be non-empty");
        Self {
            zipf: Zipfian::new(items, theta),
            keyspace,
        }
    }

    /// YCSB defaults: θ = 0.99, keyspace = items.
    pub fn ycsb(items: u64) -> Self {
        Self::new(items, items, DEFAULT_THETA)
    }

    /// Sample a key in `0..keyspace`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        fnv1a(self.zipf.sample(rng)) % self.keyspace
    }

    /// Size of the keyspace.
    pub fn keyspace(&self) -> u64 {
        self.keyspace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipfian::new(1000, 0.99);
        let total: f64 = (0..1000).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipfian::new(100, 0.99);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(50));
    }

    #[test]
    fn samples_match_theory_for_head_ranks() {
        let z = Zipfian::ycsb(10_000);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 200_000;
        let mut counts = vec![0u64; 10];
        for _ in 0..n {
            let r = z.sample(&mut rng);
            if r < 10 {
                counts[r as usize] += 1;
            }
        }
        // Ranks 0 and 1 are produced exactly by the sampler; check tightly.
        for (i, &count) in counts.iter().enumerate().take(2) {
            let got = count as f64 / n as f64;
            let want = z.probability(i as u64);
            assert!(
                (got - want).abs() / want < 0.10,
                "rank {i}: got {got:.4}, want {want:.4}"
            );
        }
        // Ranks ≥ 2 come from the continuous approximation (known small
        // bias); check the aggregate head mass and monotonicity instead.
        let got_head: f64 = counts.iter().sum::<u64>() as f64 / n as f64;
        let want_head: f64 = (0..10).map(|i| z.probability(i)).sum();
        assert!(
            (got_head - want_head).abs() / want_head < 0.10,
            "head mass: got {got_head:.4}, want {want_head:.4}"
        );
        for i in 1..10 {
            assert!(
                counts[i - 1] >= counts[i] * 9 / 10,
                "popularity should be non-increasing: {counts:?}"
            );
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(50, 0.5);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mild = Zipfian::new(1000, 0.2);
        let hot = Zipfian::new(1000, 0.99);
        assert!(hot.probability(0) > mild.probability(0));
    }

    #[test]
    fn scrambled_spreads_hot_key() {
        let s = ScrambledZipfian::ycsb(1_000_000);
        // The hottest key should land somewhere other than 0 with
        // overwhelming probability (it is a hash).
        let hottest = fnv1a(0) % s.keyspace();
        assert_ne!(hottest, 0);
    }

    #[test]
    fn scrambled_preserves_skew() {
        let s = ScrambledZipfian::new(10_000, 10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let hot = fnv1a(0) % s.keyspace();
        let mut hot_count = 0u64;
        for _ in 0..n {
            if s.sample(&mut rng) == hot {
                hot_count += 1;
            }
        }
        // Rank 0 carries ~1/zeta(10000, .99) ≈ 10% of the mass.
        let frac = hot_count as f64 / n as f64;
        assert!(frac > 0.05, "hot key should be hot, got {frac}");
    }

    #[test]
    fn scrambled_samples_in_keyspace() {
        let s = ScrambledZipfian::new(100, 37, 0.9);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng) < 37);
        }
    }

    #[test]
    fn fnv_is_deterministic_and_scattering() {
        assert_eq!(fnv1a(42), fnv1a(42));
        assert_ne!(fnv1a(1), fnv1a(2));
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipfian::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        let _ = Zipfian::new(10, 1.0);
    }
}
