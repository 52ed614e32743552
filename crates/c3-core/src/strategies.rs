//! Baseline replica-selection strategies from the paper.
//!
//! §2.2 and §6 of the paper compare C3 against a landscape of client-local
//! strategies: least-outstanding-requests (LOR, the Nginx/ELB default),
//! rate-limited round-robin (RR, isolating C3's rate-control component),
//! uniform random, least-response-time, weighted random, and the
//! power-of-two-choices scheme. All of them are implemented here behind the
//! [`ReplicaSelector`] trait. The Oracle (ORA) baseline needs global
//! simulator state and lives in `c3-sim`; Dynamic Snitching needs gossip and
//! lives in `c3-cluster`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::C3Config;
use crate::ewma::Ewma;
use crate::rate::RateLimiter;
use crate::scheduler::ServerId;
use crate::selector::{ReplicaSelector, ResponseInfo, Selection};
use crate::time::Nanos;

/// Least-outstanding-requests: pick the replica with the fewest requests in
/// flight *from this client* (ties broken uniformly at random).
///
/// This is the strategy used by Nginx `least_conn` and Amazon ELB, and the
/// primary baseline in the paper's Figure 1 discussion.
#[derive(Debug)]
pub struct LeastOutstanding {
    outstanding: Vec<u32>,
    rng: SmallRng,
}

impl LeastOutstanding {
    /// Create for `num_servers` servers with a deterministic RNG seed.
    pub fn new(num_servers: usize, seed: u64) -> Self {
        Self {
            outstanding: vec![0; num_servers],
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Outstanding count for a server (test/diagnostic hook).
    pub fn outstanding(&self, server: ServerId) -> u32 {
        self.outstanding[server]
    }
}

impl ReplicaSelector for LeastOutstanding {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        // Count the ties instead of collecting them: one RNG draw over the
        // tie count, then a second scan picks the drawn tie. Same RNG
        // stream and same pick as the old `Vec`-collecting version, with
        // zero allocation on the per-request path.
        let min = group
            .iter()
            .map(|&s| self.outstanding[s])
            .min()
            .expect("non-empty group");
        let ties = group
            .iter()
            .filter(|&&s| self.outstanding[s] == min)
            .count();
        let k = self.rng.gen_range(0..ties);
        let pick = group
            .iter()
            .copied()
            .filter(|&s| self.outstanding[s] == min)
            .nth(k)
            .expect("tie index in range");
        Selection::Server(pick)
    }

    fn on_send(&mut self, server: ServerId, _now: Nanos) {
        self.outstanding[server] += 1;
    }

    fn on_response(&mut self, server: ServerId, _info: &ResponseInfo, _now: Nanos) {
        self.outstanding[server] = self.outstanding[server].saturating_sub(1);
    }

    fn on_abandoned(&mut self, server: ServerId, _now: Nanos) {
        self.outstanding[server] = self.outstanding[server].saturating_sub(1);
    }

    fn name(&self) -> &'static str {
        "LOR"
    }
}

/// Uniform random selection.
#[derive(Debug)]
pub struct UniformRandom {
    rng: SmallRng,
}

impl UniformRandom {
    /// Create with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl ReplicaSelector for UniformRandom {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        Selection::Server(group[self.rng.gen_range(0..group.len())])
    }

    fn on_send(&mut self, _server: ServerId, _now: Nanos) {}

    fn on_response(&mut self, _server: ServerId, _info: &ResponseInfo, _now: Nanos) {}

    fn on_abandoned(&mut self, _server: ServerId, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "Random"
    }
}

/// The paper's RR baseline (§6): C3's per-server rate limiters and
/// backpressure, but replicas are taken in round-robin order instead of
/// being ranked. Isolates the contribution of rate control alone.
#[derive(Debug)]
pub struct RoundRobinRate {
    limiters: Vec<RateLimiter>,
    next: usize,
    /// The limiters' constants (and the rate-control switch), kept once.
    cfg: C3Config,
}

impl RoundRobinRate {
    /// Create for `num_servers` servers using C3's rate parameters.
    pub fn new(num_servers: usize, cfg: &C3Config, now: Nanos) -> Self {
        Self {
            limiters: (0..num_servers)
                .map(|_| RateLimiter::new(cfg, now))
                .collect(),
            next: 0,
            cfg: *cfg,
        }
    }
}

impl ReplicaSelector for RoundRobinRate {
    fn select(&mut self, group: &[ServerId], now: Nanos) -> Selection {
        assert!(!group.is_empty());
        let start = self.next;
        self.next = self.next.wrapping_add(1);
        if !self.cfg.rate_control {
            return Selection::Server(group[start % group.len()]);
        }
        for i in 0..group.len() {
            let s = group[(start + i) % group.len()];
            if self.limiters[s].try_acquire(&self.cfg, now) {
                return Selection::Server(s);
            }
        }
        let retry_at = group
            .iter()
            .map(|&s| self.limiters[s].next_window(&self.cfg, now))
            .min()
            .expect("non-empty group");
        Selection::Backpressure { retry_at }
    }

    fn on_send(&mut self, _server: ServerId, _now: Nanos) {}

    fn on_response(&mut self, server: ServerId, _info: &ResponseInfo, now: Nanos) {
        self.limiters[server].on_response(&self.cfg, now);
    }

    fn on_abandoned(&mut self, _server: ServerId, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "RR"
    }
}

/// Least (EWMA-smoothed) response time: pick the replica whose recent
/// responses were fastest, ignoring load (§6 mentions it as a weak baseline).
#[derive(Debug)]
pub struct LeastResponseTime {
    response_ms: Vec<Ewma>,
    rng: SmallRng,
}

impl LeastResponseTime {
    /// Create for `num_servers` servers.
    pub fn new(num_servers: usize, ewma_alpha: f64, seed: u64) -> Self {
        Self {
            response_ms: (0..num_servers).map(|_| Ewma::new(ewma_alpha)).collect(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl ReplicaSelector for LeastResponseTime {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        // Unknown servers score 0 so they get explored first. Ties are
        // counted rather than collected (see `LeastOutstanding`): one RNG
        // draw, no per-request allocation.
        let best = group
            .iter()
            .map(|&s| self.response_ms[s].value_or(0.0))
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN"))
            .expect("non-empty group");
        let ties = group
            .iter()
            .filter(|&&s| self.response_ms[s].value_or(0.0) == best)
            .count();
        let k = self.rng.gen_range(0..ties);
        let pick = group
            .iter()
            .copied()
            .filter(|&s| self.response_ms[s].value_or(0.0) == best)
            .nth(k)
            .expect("tie index in range");
        Selection::Server(pick)
    }

    fn on_send(&mut self, _server: ServerId, _now: Nanos) {}

    fn on_response(&mut self, server: ServerId, info: &ResponseInfo, _now: Nanos) {
        self.response_ms[server].update(info.response_time.as_millis_f64());
    }

    fn on_abandoned(&mut self, _server: ServerId, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "LRT"
    }
}

/// Weighted random: pick with probability inversely proportional to the
/// smoothed response time (one of the "different variations of weighted
/// random strategies" the paper tested and found wanting).
#[derive(Debug)]
pub struct WeightedRandom {
    response_ms: Vec<Ewma>,
    rng: SmallRng,
    /// Per-selector scratch for the group's weights, reused across calls.
    weights: Vec<f64>,
}

impl WeightedRandom {
    /// Create for `num_servers` servers.
    pub fn new(num_servers: usize, ewma_alpha: f64, seed: u64) -> Self {
        Self {
            response_ms: (0..num_servers).map(|_| Ewma::new(ewma_alpha)).collect(),
            rng: SmallRng::seed_from_u64(seed),
            weights: Vec::new(),
        }
    }
}

impl ReplicaSelector for WeightedRandom {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        // Weight = 1 / (response_time + ε); unknown servers get the weight
        // of a 1 ms server so they are explored.
        self.weights.clear();
        self.weights.extend(
            group
                .iter()
                .map(|&s| 1.0 / (self.response_ms[s].value_or(1.0).max(0.001))),
        );
        let total: f64 = self.weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total);
        for (i, &w) in self.weights.iter().enumerate() {
            if x < w {
                return Selection::Server(group[i]);
            }
            x -= w;
        }
        Selection::Server(*group.last().expect("non-empty group"))
    }

    fn on_send(&mut self, _server: ServerId, _now: Nanos) {}

    fn on_response(&mut self, server: ServerId, info: &ResponseInfo, _now: Nanos) {
        self.response_ms[server].update(info.response_time.as_millis_f64());
    }

    fn on_abandoned(&mut self, _server: ServerId, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "WRand"
    }
}

/// Power-of-two-choices (Mitzenmacher): sample two distinct replicas
/// uniformly, send to the one with fewer outstanding requests.
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    outstanding: Vec<u32>,
    rng: SmallRng,
}

impl PowerOfTwoChoices {
    /// Create for `num_servers` servers.
    pub fn new(num_servers: usize, seed: u64) -> Self {
        Self {
            outstanding: vec![0; num_servers],
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl ReplicaSelector for PowerOfTwoChoices {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        let pick = if group.len() == 1 {
            group[0]
        } else {
            let a = group[self.rng.gen_range(0..group.len())];
            let b = loop {
                let c = group[self.rng.gen_range(0..group.len())];
                if c != a {
                    break c;
                }
            };
            if self.outstanding[a] <= self.outstanding[b] {
                a
            } else {
                b
            }
        };
        Selection::Server(pick)
    }

    fn on_send(&mut self, server: ServerId, _now: Nanos) {
        self.outstanding[server] += 1;
    }

    fn on_response(&mut self, server: ServerId, _info: &ResponseInfo, _now: Nanos) {
        self.outstanding[server] = self.outstanding[server].saturating_sub(1);
    }

    fn on_abandoned(&mut self, server: ServerId, _now: Nanos) {
        self.outstanding[server] = self.outstanding[server].saturating_sub(1);
    }

    fn name(&self) -> &'static str {
        "P2C"
    }
}

/// Always read from the first replica of the group — OpenStack Swift's
/// read-one policy (Table 1's "Primary" row). Load-oblivious by design.
#[derive(Debug, Default)]
pub struct PrimaryFirst;

impl PrimaryFirst {
    /// Create the (stateless) primary-only selector.
    pub fn new() -> Self {
        Self
    }
}

impl ReplicaSelector for PrimaryFirst {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        Selection::Server(group[0])
    }

    fn on_send(&mut self, _server: ServerId, _now: Nanos) {}

    fn on_response(&mut self, _server: ServerId, _info: &ResponseInfo, _now: Nanos) {}

    fn on_abandoned(&mut self, _server: ServerId, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "Primary"
    }
}

/// Statically nearest replica by a fixed per-client "network distance"
/// preference — MongoDB's nearest-member read preference (Table 1's
/// "Nearest" row). The distance order is a seed-derived random permutation
/// fixed for the client's lifetime; it never reacts to load.
#[derive(Debug)]
pub struct NearestRank {
    rank: Vec<usize>,
}

impl NearestRank {
    /// Create for `num_servers` servers with a deterministic preference
    /// permutation derived from `seed`.
    pub fn new(num_servers: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rank: Vec<usize> = (0..num_servers).collect();
        for k in (1..rank.len()).rev() {
            let j = rng.gen_range(0..=k);
            rank.swap(k, j);
        }
        Self { rank }
    }
}

impl ReplicaSelector for NearestRank {
    fn select(&mut self, group: &[ServerId], _now: Nanos) -> Selection {
        assert!(!group.is_empty());
        Selection::Server(
            *group
                .iter()
                .min_by_key(|&&s| self.rank[s])
                .expect("non-empty group"),
        )
    }

    fn on_send(&mut self, _server: ServerId, _now: Nanos) {}

    fn on_response(&mut self, _server: ServerId, _info: &ResponseInfo, _now: Nanos) {}

    fn on_abandoned(&mut self, _server: ServerId, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "Nearest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(ms: u64) -> ResponseInfo {
        ResponseInfo {
            response_time: Nanos::from_millis(ms),
            feedback: None,
        }
    }

    #[test]
    fn lor_prefers_fewest_outstanding() {
        let mut lor = LeastOutstanding::new(3, 7);
        // Each select is followed by on_send, so the outstanding counts
        // force a burst of three to spread across all three servers.
        let a = lor.select(&[0, 1, 2], Nanos::ZERO).server().unwrap();
        lor.on_send(a, Nanos::ZERO);
        let b = lor.select(&[0, 1, 2], Nanos::ZERO).server().unwrap();
        lor.on_send(b, Nanos::ZERO);
        let c = lor.select(&[0, 1, 2], Nanos::ZERO).server().unwrap();
        lor.on_send(c, Nanos::ZERO);
        // After three sends, all three servers have exactly one outstanding.
        assert_eq!(
            {
                let mut v = vec![a, b, c];
                v.sort();
                v
            },
            vec![0, 1, 2],
            "LOR must spread a burst evenly"
        );
        lor.on_response(a, &resp(1), Nanos::ZERO);
        // Now `a` has the fewest outstanding again.
        assert_eq!(lor.select(&[0, 1, 2], Nanos::ZERO).server().unwrap(), a);
    }

    #[test]
    fn lor_outstanding_never_negative() {
        let mut lor = LeastOutstanding::new(1, 1);
        lor.on_response(0, &resp(1), Nanos::ZERO);
        assert_eq!(lor.outstanding(0), 0);
    }

    #[test]
    fn uniform_random_covers_group() {
        let mut r = UniformRandom::new(42);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let s = r.select(&[0, 1, 2], Nanos::ZERO).server().unwrap();
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b), "all servers should be picked");
    }

    #[test]
    fn round_robin_cycles_without_rate_pressure() {
        let cfg = C3Config {
            initial_rate: 1000.0,
            ..C3Config::default()
        };
        let mut rr = RoundRobinRate::new(3, &cfg, Nanos::ZERO);
        let picks: Vec<_> = (0..6)
            .map(|_| rr.select(&[0, 1, 2], Nanos::ZERO).server().unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_saturated_servers() {
        let cfg = C3Config {
            initial_rate: 1.0,
            ..C3Config::default()
        };
        let mut rr = RoundRobinRate::new(2, &cfg, Nanos::ZERO);
        assert_eq!(rr.select(&[0, 1], Nanos::ZERO).server(), Some(0));
        assert_eq!(rr.select(&[0, 1], Nanos::ZERO).server(), Some(1));
        // Both exhausted now.
        match rr.select(&[0, 1], Nanos::ZERO) {
            Selection::Backpressure { retry_at } => {
                assert_eq!(retry_at, Nanos::from_millis(20));
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn lrt_prefers_faster_server() {
        let mut lrt = LeastResponseTime::new(2, 0.5, 3);
        // Teach it: server 0 slow, server 1 fast.
        lrt.on_response(0, &resp(50), Nanos::ZERO);
        lrt.on_response(1, &resp(2), Nanos::ZERO);
        for _ in 0..10 {
            assert_eq!(lrt.select(&[0, 1], Nanos::ZERO).server(), Some(1));
        }
    }

    #[test]
    fn weighted_random_skews_towards_fast_server() {
        let mut wr = WeightedRandom::new(2, 0.5, 9);
        wr.on_response(0, &resp(100), Nanos::ZERO);
        wr.on_response(1, &resp(1), Nanos::ZERO);
        let mut counts = [0u32; 2];
        for _ in 0..1000 {
            counts[wr.select(&[0, 1], Nanos::ZERO).server().unwrap()] += 1;
        }
        assert!(
            counts[1] > counts[0] * 10,
            "fast server should dominate: {counts:?}"
        );
    }

    #[test]
    fn p2c_balances_load() {
        let mut p = PowerOfTwoChoices::new(4, 5);
        let mut counts = [0u32; 4];
        for _ in 0..400 {
            let s = p.select(&[0, 1, 2, 3], Nanos::ZERO).server().unwrap();
            p.on_send(s, Nanos::ZERO);
            counts[s] += 1;
            // Respond immediately half the time to create variance.
            if counts[s] % 2 == 0 {
                p.on_response(s, &resp(1), Nanos::ZERO);
            }
        }
        assert!(counts.iter().all(|&c| c > 50), "P2C too skewed: {counts:?}");
    }

    #[test]
    fn p2c_single_server_group() {
        let mut p = PowerOfTwoChoices::new(1, 5);
        assert_eq!(p.select(&[0], Nanos::ZERO).server(), Some(0));
    }

    #[test]
    fn strategy_names() {
        let cfg = C3Config::default();
        assert_eq!(LeastOutstanding::new(1, 0).name(), "LOR");
        assert_eq!(UniformRandom::new(0).name(), "Random");
        assert_eq!(RoundRobinRate::new(1, &cfg, Nanos::ZERO).name(), "RR");
        assert_eq!(LeastResponseTime::new(1, 0.5, 0).name(), "LRT");
        assert_eq!(WeightedRandom::new(1, 0.5, 0).name(), "WRand");
        assert_eq!(PowerOfTwoChoices::new(1, 0).name(), "P2C");
        assert_eq!(PrimaryFirst::new().name(), "Primary");
        assert_eq!(NearestRank::new(1, 0).name(), "Nearest");
    }

    #[test]
    fn primary_always_picks_group_head() {
        let mut p = PrimaryFirst::new();
        assert_eq!(p.select(&[4, 1, 2], Nanos::ZERO).server(), Some(4));
        assert_eq!(p.select(&[0, 9], Nanos::ZERO).server(), Some(0));
    }

    #[test]
    fn nearest_is_stable_and_seed_dependent() {
        let mut a = NearestRank::new(6, 3);
        let mut b = NearestRank::new(6, 3);
        let group = [0usize, 2, 5];
        let pick = a.select(&group, Nanos::ZERO).server();
        for _ in 0..10 {
            assert_eq!(a.select(&group, Nanos::ZERO).server(), pick);
            assert_eq!(b.select(&group, Nanos::ZERO).server(), pick);
        }
        // Different seeds should produce a different permutation sometimes;
        // check the permutation itself rather than one group's pick.
        let c = NearestRank::new(6, 4);
        assert_ne!(a.rank, c.rank);
    }
}
