//! Dynamic Snitching — Cassandra's replica ranking, reimplemented.
//!
//! §2.3 of the paper dissects why Cassandra's Dynamic Snitching is prone to
//! load oscillations. The mechanism this module reproduces:
//!
//! - every coordinator keeps, per peer, a bounded reservoir of read-latency
//!   samples (exponentially biased towards recent values in Cassandra; a
//!   recency-bounded ring here) whose **median** feeds the score;
//! - each node's `iowait` (one-second average) is disseminated via gossip
//!   and enters the score with a weight up to **two orders of magnitude**
//!   larger than the latency term;
//! - scores are recomputed at a fixed interval (100 ms default) and the
//!   ranking is **frozen between recomputations** — the root cause of the
//!   synchronized herding in Figure 2;
//! - the reservoir is reset every 10 minutes.
//!
//! Lower scores rank better.

use c3_core::Nanos;

/// A bounded ring of the most recent latency samples (ms).
#[derive(Clone, Debug)]
struct SampleRing {
    buf: Vec<f64>,
    next: usize,
    filled: bool,
}

impl SampleRing {
    fn new(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
            next: 0,
            filled: false,
        }
    }

    fn push(&mut self, v: f64) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.buf.len();
            self.filled = true;
        }
    }

    fn median(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut v = self.buf.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        Some(v[v.len() / 2])
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.filled = false;
    }
}

/// Configuration of the snitch.
#[derive(Clone, Copy, Debug)]
pub struct SnitchConfig {
    /// Score recomputation interval (Cassandra default: 100 ms).
    pub update_interval: Nanos,
    /// Reservoir reset interval (Cassandra default: 10 min).
    pub reset_interval: Nanos,
    /// Latency samples kept per peer.
    pub window: usize,
    /// Weight of the gossiped iowait ("severity") term relative to the
    /// median latency in ms — the paper observed up to two orders of
    /// magnitude more influence than the latency term.
    pub iowait_weight: f64,
}

impl Default for SnitchConfig {
    fn default() -> Self {
        Self {
            update_interval: Nanos::from_millis(100),
            reset_interval: Nanos::from_secs(600),
            window: 100,
            iowait_weight: 100.0,
        }
    }
}

/// One coordinator's Dynamic Snitch state over its peers.
#[derive(Clone, Debug)]
pub struct DynamicSnitch {
    cfg: SnitchConfig,
    samples: Vec<SampleRing>,
    /// Latest gossiped iowait per peer.
    iowait: Vec<f64>,
    /// Frozen scores from the last recomputation.
    scores: Vec<f64>,
    last_update: Nanos,
    last_reset: Nanos,
    updates: u64,
}

impl DynamicSnitch {
    /// Snitch over `peers` nodes (including self — local reads score too).
    pub fn new(peers: usize, cfg: SnitchConfig) -> Self {
        Self {
            samples: (0..peers).map(|_| SampleRing::new(cfg.window)).collect(),
            iowait: vec![0.0; peers],
            scores: vec![0.0; peers],
            last_update: Nanos::ZERO,
            last_reset: Nanos::ZERO,
            updates: 0,
            cfg,
        }
    }

    /// Record an observed read latency for a peer.
    pub fn record_latency(&mut self, peer: usize, latency: Nanos) {
        self.samples[peer].push(latency.as_millis_f64());
    }

    /// Update a peer's gossiped iowait.
    pub fn record_iowait(&mut self, peer: usize, iowait: f64) {
        self.iowait[peer] = iowait;
    }

    /// Called on the recompute tick: recompute all scores (and reset
    /// reservoirs every `reset_interval`).
    pub fn recompute(&mut self, now: Nanos) {
        if now.saturating_sub(self.last_reset) >= self.cfg.reset_interval {
            for s in &mut self.samples {
                s.clear();
            }
            self.last_reset = now;
        }
        for (i, ring) in self.samples.iter().enumerate() {
            let latency = ring.median().unwrap_or(0.0);
            self.scores[i] = latency + self.cfg.iowait_weight * self.iowait[i];
        }
        self.last_update = now;
        self.updates += 1;
    }

    /// The recompute tick of a fleet without gossip: every peer idles at
    /// baseline iowait, so only the latency reservoirs carry signal.
    pub fn recompute_idle(&mut self, now: Nanos) {
        self.iowait.fill(0.02);
        self.recompute(now);
    }

    /// The frozen score of a peer (lower ranks better).
    pub fn score(&self, peer: usize) -> f64 {
        self.scores[peer]
    }

    /// What the score *would be* if recomputed right now, from the current
    /// reservoir and gossiped iowait. Read-only: rankings stay frozen. The
    /// telemetry layer compares selections against this to measure how much
    /// regret the freeze (§2.3, Fig. 2) costs.
    pub fn fresh_score(&self, peer: usize) -> f64 {
        self.samples[peer].median().unwrap_or(0.0) + self.cfg.iowait_weight * self.iowait[peer]
    }

    /// Pick the best replica from `group` under the frozen scores.
    /// Deterministic: ties resolve to the earliest group member, exactly
    /// the property that synchronizes coordinators between recomputes.
    pub fn select(&self, group: &[usize]) -> usize {
        *group
            .iter()
            .min_by(|&&a, &&b| {
                self.scores[a]
                    .partial_cmp(&self.scores[b])
                    .expect("no NaN scores")
            })
            .expect("non-empty group")
    }

    /// Number of recomputations performed (diagnostics).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The configured update interval.
    pub fn update_interval(&self) -> Nanos {
        self.cfg.update_interval
    }
}

/// [`DynamicSnitch`] behind the shared [`c3_core::ReplicaSelector`] trait, so the
/// cluster drives DS through the same registry-built selector path as every
/// other strategy. Read responses feed the latency reservoirs; the gossip
/// and recompute ticks reach the wrapped snitch through the trait's
/// `as_any_mut` downcast hook ([`Cluster`](crate::Cluster) owns those
/// cluster-wide processes — they are not per-request selector concerns).
#[derive(Debug)]
pub struct SnitchSelector {
    snitch: DynamicSnitch,
}

impl SnitchSelector {
    /// Create a selector over a fresh snitch for `peers` nodes.
    pub fn new(peers: usize, cfg: SnitchConfig) -> Self {
        Self {
            snitch: DynamicSnitch::new(peers, cfg),
        }
    }

    /// The DS selector behind a registry-built selector, if that is what
    /// it is: how gossip and recompute ticks reach the wrapped snitch.
    pub fn of(selector: &mut dyn c3_core::ReplicaSelector) -> Option<&mut Self> {
        selector.as_any_mut()?.downcast_mut::<SnitchSelector>()
    }

    /// The wrapped snitch (gossip feed, recompute ticks, diagnostics).
    pub fn snitch_mut(&mut self) -> &mut DynamicSnitch {
        &mut self.snitch
    }

    /// Read-only view of the wrapped snitch.
    pub fn snitch(&self) -> &DynamicSnitch {
        &self.snitch
    }
}

impl c3_core::ReplicaSelector for SnitchSelector {
    fn select(&mut self, group: &[usize], _now: Nanos) -> c3_core::Selection {
        c3_core::Selection::Server(self.snitch.select(group))
    }

    fn on_send(&mut self, _server: usize, _now: Nanos) {}

    fn on_response(&mut self, server: usize, info: &c3_core::ResponseInfo, _now: Nanos) {
        self.snitch.record_latency(server, info.response_time);
    }

    fn on_abandoned(&mut self, _server: usize, _now: Nanos) {}

    fn name(&self) -> &'static str {
        "DS"
    }

    fn replica_view(&self, server: usize) -> Option<c3_core::ReplicaView> {
        Some(c3_core::ReplicaView {
            score: self.snitch.score(server),
            fresh_score: self.snitch.fresh_score(server),
            ewma_latency_ms: self.snitch.samples[server].median().unwrap_or(f64::NAN),
            ewma_queue: f64::NAN,
            outstanding: 0,
            srate: f64::NAN,
        })
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snitch(n: usize) -> DynamicSnitch {
        DynamicSnitch::new(n, SnitchConfig::default())
    }

    #[test]
    fn prefers_lower_latency_peer_after_recompute() {
        let mut s = snitch(3);
        for _ in 0..10 {
            s.record_latency(0, Nanos::from_millis(30));
            s.record_latency(1, Nanos::from_millis(2));
            s.record_latency(2, Nanos::from_millis(10));
        }
        s.recompute(Nanos::from_millis(100));
        assert_eq!(s.select(&[0, 1, 2]), 1);
        assert!(s.score(0) > s.score(2));
    }

    #[test]
    fn scores_are_frozen_between_recomputes() {
        let mut s = snitch(2);
        for _ in 0..10 {
            s.record_latency(0, Nanos::from_millis(1));
            s.record_latency(1, Nanos::from_millis(50));
        }
        s.recompute(Nanos::from_millis(100));
        assert_eq!(s.select(&[0, 1]), 0);
        // New evidence arrives but no recompute happens: choice unchanged.
        for _ in 0..50 {
            s.record_latency(0, Nanos::from_millis(500));
            s.record_latency(1, Nanos::from_millis(1));
        }
        assert_eq!(s.select(&[0, 1]), 0, "ranking must stay frozen");
        s.recompute(Nanos::from_millis(200));
        assert_eq!(s.select(&[0, 1]), 1, "recompute flips the ranking");
    }

    #[test]
    fn iowait_dominates_latency() {
        // A peer with modest latency but compaction-level iowait must rank
        // far below a slower peer with clean disks (the paper's complaint).
        let mut s = snitch(2);
        for _ in 0..10 {
            s.record_latency(0, Nanos::from_millis(2)); // fast but compacting
            s.record_latency(1, Nanos::from_millis(40)); // slow, clean
        }
        s.record_iowait(0, 0.8);
        s.recompute(Nanos::from_millis(100));
        assert_eq!(s.select(&[0, 1]), 1);
        assert!(s.score(0) > 2.0 * s.score(1));
    }

    #[test]
    fn reservoir_resets_after_interval() {
        let cfg = SnitchConfig {
            reset_interval: Nanos::from_millis(500),
            ..SnitchConfig::default()
        };
        let mut s = DynamicSnitch::new(2, cfg);
        for _ in 0..10 {
            s.record_latency(0, Nanos::from_millis(100));
        }
        s.recompute(Nanos::from_millis(100));
        assert!(s.score(0) > 50.0);
        // Past the reset interval the stale history is dropped.
        s.recompute(Nanos::from_millis(700));
        assert_eq!(s.score(0), 0.0);
    }

    #[test]
    fn unknown_peers_score_zero() {
        let mut s = snitch(2);
        s.recompute(Nanos::from_millis(100));
        assert_eq!(s.score(0), 0.0);
        assert_eq!(s.score(1), 0.0);
        assert_eq!(s.select(&[0, 1]), 0, "ties resolve deterministically");
    }

    #[test]
    fn sample_ring_is_bounded_and_recent() {
        let mut r = SampleRing::new(4);
        for v in 1..=8 {
            r.push(v as f64);
        }
        // Only the last 4 samples remain: {5,6,7,8}, median index 2 → 7.
        assert_eq!(r.buf.len(), 4);
        let m = r.median().unwrap();
        assert!(m >= 5.0, "median {m} should reflect recent values");
    }

    #[test]
    fn update_counter_increments() {
        let mut s = snitch(1);
        assert_eq!(s.updates(), 0);
        s.recompute(Nanos::from_millis(100));
        s.recompute(Nanos::from_millis(200));
        assert_eq!(s.updates(), 2);
        assert_eq!(s.update_interval(), Nanos::from_millis(100));
    }
}
