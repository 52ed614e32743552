//! Configuration of one live loopback run.

use std::time::Duration;

use c3_cluster::{DiskKind, FaultPlan};
use c3_core::{C3Config, LifecycleConfig};
use c3_engine::Strategy;

/// Full configuration of one live run: the server fleet, the client, the
/// workload, and the adverse-condition script.
///
/// Live runs measure wall time over real sockets, so unlike the
/// simulators they are *not* bit-deterministic — the seed pins the
/// workload (keys, mix draws, service-time samples) but thread and
/// network scheduling stay the OS's business. The stop condition is
/// therefore twofold: the run ends at [`LiveConfig::run_for`] of wall
/// time or after [`LiveConfig::ops_cap`] operations, whichever comes
/// first.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Replica servers to spawn, each a `TcpListener` on loopback.
    pub replicas: usize,
    /// Replica-group size: a key's group is its primary (`key % replicas`)
    /// plus the next `replication_factor - 1` successors.
    pub replication_factor: usize,
    /// Client *issuer* threads. Issuers only select, register, and hand
    /// frames to the multiplexed connections — they never block on a
    /// response — so a handful saturate the fleet; concurrency comes from
    /// [`LiveConfig::in_flight`], not from here.
    pub threads: usize,
    /// The client's in-flight budget: total requests outstanding across
    /// all replicas at once. Closed-loop runs are bounded by exactly this
    /// concurrency; quasi-open-loop runs use it as a safety valve against
    /// unbounded queue growth when the fleet falls behind the offered
    /// rate.
    pub in_flight: usize,
    /// Multiplexed TCP connections per replica, each with its own
    /// writer/reader thread pair and correlation table. One is enough on
    /// loopback; more spread framing work across reader threads.
    pub connections: usize,
    /// Distinct keys (Zipfian-chosen).
    pub keys: u64,
    /// Zipfian constant of the key distribution.
    pub zipf_theta: f64,
    /// Fraction of operations that are GETs; the rest are PUTs to the
    /// key's primary.
    pub read_fraction: f64,
    /// Value size in bytes (PUT payloads; also the transfer size charged
    /// by the service-time model).
    pub value_bytes: u32,
    /// Storage model the replicas emulate (service times are sampled from
    /// the same `DiskModel` the §5 cluster uses, then waited out for real).
    pub disk: DiskKind,
    /// Requests a replica executes concurrently; arrivals beyond this
    /// queue, and the queue depth rides back on every response as C3
    /// feedback.
    pub concurrency: usize,
    /// Replica-selection strategy under test, by name.
    pub strategy: Strategy,
    /// C3 parameters. `concurrency_weight` is set to 1 internally: all
    /// workers share one selector, so its outstanding counts are already
    /// global.
    pub c3: C3Config,
    /// Offered load in requests/second across all workers. `None` runs
    /// closed-loop (each worker issues as fast as responses return, like
    /// the §5 YCSB generators); `Some(rate)` runs quasi-open-loop: each
    /// worker issues on its own Poisson schedule and latency is measured
    /// from the *intended* arrival time, so a stalled worker's lag counts
    /// against the strategy that stalled it (the standard
    /// coordinated-omission correction). Open loop is what makes two
    /// strategies' tails comparable — closed loop lets a faster strategy
    /// raise its own utilization and pay for it at the tail.
    pub offered_rate: Option<f64>,
    /// Record measured latencies into exact (every-sample) reservoirs so
    /// summaries report exact order statistics — the SLO controller's
    /// probes use this so a pass/fail at the bound is not decided by
    /// histogram bucket quantization. It is the one thing a run keeps per
    /// measured operation: 4 B, 8 B in a chunk whose range exceeds a `u32`
    /// (`c3_metrics::ExactReservoir`).
    pub exact_latency: bool,
    /// Wall-clock run length.
    pub run_for: Duration,
    /// Operations excluded from latency measurement while state warms up
    /// (by issue index, like the simulators).
    pub warmup_ops: u64,
    /// Hard cap on issued operations (`u64::MAX` = run purely on time).
    pub ops_cap: u64,
    /// Deterministic adversity episodes replayed by the replicas against
    /// wall time since run start (`node` indexes replicas) — the same
    /// [`FaultPlan`] the sim cluster queries, so sim and live timelines
    /// line up for parity checks. `Slow` windows scale service times;
    /// crashed/resetting replicas sever their connections and swallow
    /// requests; `RespDrop`/`RespDelay` windows lose or lag responses
    /// after service.
    pub faults: FaultPlan,
    /// Request-lifecycle hardening: the shared [`LifecycleConfig`]
    /// (deadline, retries, hedging, failure-detector knobs). A `None`
    /// deadline disables the whole client-side lifecycle machinery;
    /// retries go to a *different* replica with exponential backoff and
    /// jitter, hedged reads race a duplicate, first response wins.
    pub lifecycle: LifecycleConfig,
    /// Minimum spacing between per-replica score samples of the shared
    /// C3 selector (the live side of the parity trace).
    pub score_sample_every: Duration,
    /// RNG seed for the workload streams.
    pub seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            replicas: 6,
            replication_factor: 3,
            threads: 8,
            in_flight: 64,
            connections: 1,
            keys: 10_000,
            zipf_theta: 0.99,
            read_fraction: 0.9,
            value_bytes: 1024,
            disk: DiskKind::Ssd,
            concurrency: 4,
            strategy: Strategy::c3(),
            c3: C3Config::default(),
            offered_rate: None,
            exact_latency: false,
            run_for: Duration::from_millis(1_500),
            warmup_ops: 500,
            ops_cap: u64::MAX,
            faults: FaultPlan::none(),
            lifecycle: LifecycleConfig::default(),
            score_sample_every: Duration::from_millis(50),
            seed: 1,
        }
    }
}

impl LiveConfig {
    /// Validate invariants.
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range.
    pub fn validate(&self) {
        assert!(self.replicas >= self.replication_factor, "too few replicas");
        assert!(self.replication_factor >= 1, "need a replica group");
        assert!(
            self.replication_factor <= c3_core::MAX_GROUP,
            "replication factor {} exceeds c3_core::MAX_GROUP ({}), the widest group \
             the shared C3 selector ranks",
            self.replication_factor,
            c3_core::MAX_GROUP
        );
        assert!(self.threads >= 1, "need client workers");
        assert!(self.in_flight >= 1, "need an in-flight budget");
        assert!(self.connections >= 1, "need connections per replica");
        assert!(self.keys > 0, "need keys");
        assert!(
            self.zipf_theta > 0.0 && self.zipf_theta < 1.0,
            "zipf theta must be in (0,1) exclusive"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read fraction out of range"
        );
        assert!(self.value_bytes > 0, "need a value size");
        assert!(self.concurrency >= 1, "need execution slots");
        assert!(self.run_for > Duration::ZERO, "need a run length");
        if let Some(rate) = self.offered_rate {
            assert!(rate > 0.0, "offered rate must be positive");
        }
        assert!(self.ops_cap > self.warmup_ops, "warm-up swallows the run");
        if let Err(e) = self.faults.validate(self.replicas) {
            panic!("{e}");
        }
        self.lifecycle.validate();
        if let (Some(h), Some(d)) = (self.lifecycle.hedge_after, self.lifecycle.deadline) {
            assert!(h < d, "a hedge after the deadline can never fire");
        }
        self.c3.validate();
    }

    /// The replica group of `key`: primary plus successors.
    pub(crate) fn group_of(&self, key: u64) -> Vec<usize> {
        let primary = (key % self.replicas as u64) as usize;
        (0..self.replication_factor)
            .map(|k| (primary + k) % self.replicas)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        LiveConfig::default().validate();
    }

    #[test]
    fn groups_wrap_the_ring() {
        let cfg = LiveConfig::default();
        assert_eq!(cfg.group_of(0), vec![0, 1, 2]);
        assert_eq!(cfg.group_of(5), vec![5, 0, 1]);
        assert_eq!(cfg.group_of(17), vec![5, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "set a deadline")]
    fn retries_without_deadline_are_rejected() {
        let cfg = LiveConfig {
            lifecycle: LifecycleConfig {
                retries: 2,
                ..LifecycleConfig::default()
            },
            ..LiveConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "never fire")]
    fn hedge_after_the_deadline_is_rejected() {
        let cfg = LiveConfig {
            lifecycle: LifecycleConfig::hardened(
                c3_core::Nanos::from_millis(50),
                0,
                Some(c3_core::Nanos::from_millis(80)),
            ),
            ..LiveConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fault episode 0 needs a node below the fleet size")]
    fn fault_nodes_must_exist() {
        let cfg = LiveConfig {
            faults: FaultPlan {
                events: vec![c3_cluster::FaultEvent {
                    node: 99,
                    kind: c3_cluster::FaultKind::Crash,
                    start: c3_core::Nanos::ZERO,
                    end: c3_core::Nanos::from_secs(1),
                    magnitude: 0.0,
                }],
            },
            ..LiveConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn hardened_config_validates() {
        let cfg = LiveConfig {
            lifecycle: LifecycleConfig::hardened(
                c3_core::Nanos::from_millis(75),
                3,
                Some(c3_core::Nanos::from_millis(30)),
            ),
            faults: FaultPlan::crash_flux(1, 6, c3_core::Nanos::from_secs(2)),
            ..LiveConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds c3_core::MAX_GROUP (16)")]
    fn groups_wider_than_the_selector_ranks_are_rejected() {
        let cfg = LiveConfig {
            replicas: 17,
            replication_factor: 17,
            ..LiveConfig::default()
        };
        cfg.validate();
    }
}
