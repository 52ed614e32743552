//! Deterministic adversity plans.
//!
//! This module models replicas that get *slow* for a scripted window
//! (hardware tiers, partitions, Figure 13's `tc`-degraded node) or that
//! *fail*: crash/restart windows, connection resets mid-stream, silently
//! dropped responses, and delayed responses. A [`FaultPlan`] is a fully
//! materialized, seeded schedule of such episodes — the same plan is read
//! against simulated time on the §5 cluster and against wall time on the
//! live backend, so a `(scenario, seed)` cell means the same adversity
//! timeline on both. (The stochastic §2.1 renewal processes — GC,
//! compaction, noisy neighbours — live in [`crate::perturb`].)
//!
//! The plan is pure data queried by time. A backend splits it by node
//! once, when it builds its replicas ([`FaultPlan::for_node`]), and each
//! replica then asks its own [`NodeFaults::at`] for the whole
//! [`FaultState`] — down, drop probability, extra delay, slowdown — in one
//! pass over its own windows at each request/response boundary.
//! Overlapping [`FaultKind::Slow`] windows compound as one product in plan
//! order. No hidden state, no RNG at replay time — which is what keeps
//! fingerprints stable and the live replay honest.

use std::fmt;

use c3_core::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What a fault episode does to its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The replica process is down: requests vanish, responses in flight
    /// are lost, connections to it are dead for the whole window.
    Crash,
    /// Established connections are reset. The live backend shuts the
    /// socket (possibly mid-frame); the simulation treats it as a brief
    /// total outage of the node's transport.
    ConnReset,
    /// Responses are dropped with probability `magnitude` (the request
    /// still burns service time at the replica).
    RespDrop,
    /// Responses are delayed by an extra `magnitude` milliseconds.
    RespDelay,
    /// Every service time is `magnitude` times longer (the node is up,
    /// just slow).
    Slow,
}

/// One scheduled fault window on one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Node the fault applies to.
    pub node: usize,
    /// What happens during the window.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub start: Nanos,
    /// Window end (exclusive).
    pub end: Nanos,
    /// Kind-specific magnitude: drop probability for [`FaultKind::RespDrop`],
    /// extra delay in milliseconds for [`FaultKind::RespDelay`], the
    /// service-time multiplier for [`FaultKind::Slow`], unused (0.0)
    /// otherwise.
    pub magnitude: f64,
}

impl FaultEvent {
    /// Whether the window covers `now`.
    pub fn active(&self, now: Nanos) -> bool {
        self.start <= now && now < self.end
    }
}

/// A deterministic schedule of fault episodes.
///
/// The default plan is empty: every node's [`NodeFaults::at`] answers the
/// no-fault [`FaultState`], which keeps unfaulted runs bit-identical to
/// builds that predate fault injection.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled episodes, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `crash-flux` plan: one node at a time crashes and restarts.
    ///
    /// Windows are sequential and non-overlapping with recovery gaps
    /// between them, so at most one node is down at any instant — with
    /// replication factor ≥ 2 every key keeps a live replica and a
    /// hardened client can always finish. Crash windows run 200–800 ms
    /// with 300–900 ms gaps, starting after a 400 ms quiet lead-in.
    pub fn crash_flux(seed: u64, nodes: usize, span: Nanos) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut events = Vec::new();
        let mut at = Nanos::from_millis(400);
        while at < span && nodes > 0 {
            let node = rng.gen_range(0..nodes);
            let dur = Nanos::from_millis_f64(rng.gen_range(200.0..800.0));
            events.push(FaultEvent {
                node,
                kind: FaultKind::Crash,
                start: at,
                end: at + dur,
                magnitude: 0.0,
            });
            let gap = Nanos::from_millis_f64(rng.gen_range(300.0..900.0));
            at = at + dur + gap;
        }
        Self { events }
    }

    /// The `flaky-net` plan: connections reset, responses vanish or lag.
    ///
    /// Three independent sequential tracks share one seeded stream:
    /// short 50–150 ms [`FaultKind::ConnReset`] windows, 200–600 ms
    /// [`FaultKind::RespDrop`] windows at 30–70% drop probability, and
    /// 200–600 ms [`FaultKind::RespDelay`] windows adding 20–80 ms.
    /// Tracks may overlap each other but never themselves, so no node is
    /// ever doubly dropped.
    pub fn flaky_net(seed: u64, nodes: usize, span: Nanos) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc2b2_ae3d_27d4_eb4f);
        let mut events = Vec::new();
        if nodes == 0 {
            return Self { events };
        }
        // Connection resets: frequent, brief.
        let mut at = Nanos::from_millis(300);
        while at < span {
            let node = rng.gen_range(0..nodes);
            let dur = Nanos::from_millis_f64(rng.gen_range(50.0..150.0));
            events.push(FaultEvent {
                node,
                kind: FaultKind::ConnReset,
                start: at,
                end: at + dur,
                magnitude: 0.0,
            });
            at = at + dur + Nanos::from_millis_f64(rng.gen_range(400.0..1_000.0));
        }
        // Response drops: lossy windows.
        let mut at = Nanos::from_millis(500);
        while at < span {
            let node = rng.gen_range(0..nodes);
            let dur = Nanos::from_millis_f64(rng.gen_range(200.0..600.0));
            events.push(FaultEvent {
                node,
                kind: FaultKind::RespDrop,
                start: at,
                end: at + dur,
                magnitude: rng.gen_range(0.3..0.7),
            });
            at = at + dur + Nanos::from_millis_f64(rng.gen_range(500.0..1_200.0));
        }
        // Response delays: laggy windows.
        let mut at = Nanos::from_millis(700);
        while at < span {
            let node = rng.gen_range(0..nodes);
            let dur = Nanos::from_millis_f64(rng.gen_range(200.0..600.0));
            events.push(FaultEvent {
                node,
                kind: FaultKind::RespDelay,
                start: at,
                end: at + dur,
                magnitude: rng.gen_range(20.0..80.0),
            });
            at = at + dur + Nanos::from_millis_f64(rng.gen_range(500.0..1_200.0));
        }
        Self { events }
    }

    /// Whole-run hardware tiers: node `i` of `nodes` runs
    /// `multipliers[i % multipliers.len()]` times slower for the entire
    /// run. Every multiplier other than exactly 1.0 becomes a
    /// [`FaultKind::Slow`] window, so [`FaultPlan::validate`] judges the
    /// tiers too.
    ///
    /// # Panics
    ///
    /// Panics when `multipliers` is empty.
    pub fn tiers(multipliers: &[f64], nodes: usize) -> Self {
        assert!(!multipliers.is_empty(), "need at least one hardware tier");
        let events = (0..nodes)
            .map(|node| (node, multipliers[node % multipliers.len()]))
            .filter(|&(_, m)| m != 1.0)
            .map(|(node, magnitude)| FaultEvent {
                node,
                kind: FaultKind::Slow,
                start: Nanos::ZERO,
                end: Nanos::MAX,
                magnitude,
            })
            .collect();
        Self { events }
    }

    /// The deterministic early episode layered under the seeded
    /// `crash-flux` plan (node 0 dark for 60–260 ms), so even the
    /// shortest smoke run meets a crash inside the plan's quiet lead-in.
    pub const CRASH_FLUX_EARLY: [FaultEvent; 1] = [FaultEvent {
        node: 0,
        kind: FaultKind::Crash,
        start: Nanos::from_millis(60),
        end: Nanos::from_millis(260),
        magnitude: 0.0,
    }];

    /// The deterministic early episodes layered under the seeded
    /// `flaky-net` plan: one reset, one 40 ms lag and one 50% drop window
    /// on nodes 1–3, all inside the plan's quiet lead-in.
    pub const FLAKY_NET_EARLY: [FaultEvent; 3] = [
        FaultEvent {
            node: 1,
            kind: FaultKind::ConnReset,
            start: Nanos::from_millis(50),
            end: Nanos::from_millis(140),
            magnitude: 0.0,
        },
        FaultEvent {
            node: 2,
            kind: FaultKind::RespDelay,
            start: Nanos::from_millis(60),
            end: Nanos::from_millis(300),
            magnitude: 40.0,
        },
        FaultEvent {
            node: 3,
            kind: FaultKind::RespDrop,
            start: Nanos::from_millis(80),
            end: Nanos::from_millis(320),
            magnitude: 0.5,
        },
    ];

    /// Append the `early` episodes that name one of `nodes` nodes, after
    /// the episodes already planned (the stock scenarios layer
    /// [`FaultPlan::CRASH_FLUX_EARLY`] / [`FaultPlan::FLAKY_NET_EARLY`]
    /// under their seeded plans this way).
    pub fn layer(&mut self, early: &[FaultEvent], nodes: usize) {
        self.events
            .extend(early.iter().copied().filter(|e| e.node < nodes));
    }

    /// Check the plan against a fleet of `nodes` nodes: every episode
    /// names a node of the fleet, ends after it starts, and carries a
    /// magnitude its kind can apply (a drop probability in [0, 1], a
    /// finite, non-negative delay, a finite multiplier of at least 1).
    /// Reports the first episode that does not.
    pub fn validate(&self, nodes: usize) -> Result<(), InvalidFault> {
        for (index, e) in self.events.iter().enumerate() {
            let needs = if e.node >= nodes {
                "a node below the fleet size"
            } else if e.end <= e.start {
                "an end after its start"
            } else if e.kind == FaultKind::RespDrop && !(0.0..=1.0).contains(&e.magnitude) {
                "a drop probability in [0, 1]"
            } else if e.kind == FaultKind::RespDelay
                && !(e.magnitude.is_finite() && e.magnitude >= 0.0)
            {
                "a finite, non-negative delay"
            } else if e.kind == FaultKind::Slow && !(e.magnitude.is_finite() && e.magnitude >= 1.0)
            {
                "a finite multiplier of at least 1"
            } else {
                continue;
            };
            return Err(InvalidFault { index, needs });
        }
        Ok(())
    }

    /// `node`'s own windows, in plan order — what a replica queries
    /// instead of scanning the whole plan.
    pub fn for_node(&self, node: usize) -> NodeFaults {
        NodeFaults {
            windows: self
                .events
                .iter()
                .copied()
                .filter(|e| e.node == node)
                .collect(),
        }
    }
}

/// Why [`FaultPlan::validate`] refused a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidFault {
    /// Index of the offending episode in [`FaultPlan::events`].
    pub index: usize,
    /// What the episode lacks, phrased as the requirement.
    pub needs: &'static str,
}

impl fmt::Display for InvalidFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault episode {} needs {}", self.index, self.needs)
    }
}

impl std::error::Error for InvalidFault {}

/// What the fault plan does to one node at one instant. The default is
/// the no-fault state (up, no drops, no delay, `slow` 1.0).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultState {
    /// The node is unreachable: an active [`FaultKind::Crash`] or
    /// [`FaultKind::ConnReset`] window.
    pub down: bool,
    /// Probability that a response is dropped: the largest active
    /// [`FaultKind::RespDrop`] magnitude (0.0 outside such windows).
    pub drop_prob: f64,
    /// Extra delay on a response: the active [`FaultKind::RespDelay`]
    /// magnitudes summed in plan order ([`Nanos::ZERO`] outside such
    /// windows).
    pub extra_delay: Nanos,
    /// Service-time multiplier: the active [`FaultKind::Slow`] magnitudes
    /// multiplied in plan order (1.0 outside such windows).
    pub slow: f64,
}

impl Default for FaultState {
    fn default() -> Self {
        Self {
            down: false,
            drop_prob: 0.0,
            extra_delay: Nanos::ZERO,
            slow: 1.0,
        }
    }
}

/// One node's slice of a [`FaultPlan`] ([`FaultPlan::for_node`]), built
/// once per replica and asked at every request/response boundary.
#[derive(Clone, Debug, Default)]
pub struct NodeFaults {
    /// The node's windows, in plan order. Not sorted by start: overlapping
    /// delays sum (and slowdowns multiply) in plan order, and a
    /// floating-point sum or product of three or more terms depends on the
    /// order it combines them in.
    windows: Vec<FaultEvent>,
}

impl NodeFaults {
    /// The node's fault state at `now`, in one pass over its windows.
    pub fn at(&self, now: Nanos) -> FaultState {
        let mut down = false;
        let mut drop_prob = 0.0;
        let mut delay_ms = 0.0;
        let mut slow = 1.0;
        for w in self.windows.iter().filter(|w| w.active(now)) {
            match w.kind {
                FaultKind::Crash | FaultKind::ConnReset => down = true,
                FaultKind::RespDrop => drop_prob = f64::max(drop_prob, w.magnitude),
                FaultKind::RespDelay => delay_ms += w.magnitude,
                FaultKind::Slow => slow *= w.magnitude,
            }
        }
        FaultState {
            down,
            drop_prob,
            extra_delay: if delay_ms > 0.0 {
                Nanos::from_millis_f64(delay_ms)
            } else {
                Nanos::ZERO
            },
            slow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The whole-plan scans every backend used before plans were split
    /// per node: the oracle [`NodeFaults::at`] must match bit for bit.
    fn oracle(plan: &FaultPlan, node: usize, now: Nanos) -> FaultState {
        let down = plan.events.iter().any(|e| {
            e.node == node
                && matches!(e.kind, FaultKind::Crash | FaultKind::ConnReset)
                && e.active(now)
        });
        let drop_prob = plan
            .events
            .iter()
            .filter(|e| e.node == node && e.kind == FaultKind::RespDrop && e.active(now))
            .map(|e| e.magnitude)
            .fold(0.0, f64::max);
        let ms = plan
            .events
            .iter()
            .filter(|e| e.node == node && e.kind == FaultKind::RespDelay && e.active(now))
            .map(|e| e.magnitude)
            .sum::<f64>();
        let extra_delay = if ms > 0.0 {
            Nanos::from_millis_f64(ms)
        } else {
            Nanos::ZERO
        };
        let slow = plan
            .events
            .iter()
            .filter(|e| e.node == node && e.kind == FaultKind::Slow && e.active(now))
            .fold(1.0, |m, e| m * e.magnitude);
        FaultState {
            down,
            drop_prob,
            extra_delay,
            slow,
        }
    }

    /// `at` equals the oracle: `down` and the delay exactly, the drop
    /// probability and the slowdown by their bits.
    fn same(got: FaultState, want: FaultState) -> bool {
        got.down == want.down
            && got.drop_prob.to_bits() == want.drop_prob.to_bits()
            && got.extra_delay == want.extra_delay
            && got.slow.to_bits() == want.slow.to_bits()
    }

    fn event(node: usize, kind: FaultKind, start: u64, end: u64, magnitude: f64) -> FaultEvent {
        FaultEvent {
            node,
            kind,
            start: Nanos(start),
            end: Nanos(end),
            magnitude,
        }
    }

    #[test]
    fn empty_plan_answers_no_fault() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        let state = p.for_node(0).at(Nanos::from_millis(100));
        assert_eq!(state, FaultState::default());
        assert!(!state.down);
        assert_eq!(state.drop_prob, 0.0);
        assert_eq!(state.extra_delay, Nanos::ZERO);
        assert_eq!(state.slow, 1.0, "an unfaulted service time is unscaled");
    }

    #[test]
    fn slow_window_applies_only_in_range_and_on_its_node() {
        let plan = FaultPlan {
            events: vec![event(1, FaultKind::Slow, 100, 200, 8.0)],
        };
        let node = plan.for_node(1);
        assert_eq!(node.at(Nanos(99)).slow, 1.0);
        assert_eq!(node.at(Nanos(100)).slow, 8.0);
        assert_eq!(node.at(Nanos(199)).slow, 8.0);
        assert_eq!(node.at(Nanos(200)).slow, 1.0);
        assert_eq!(plan.for_node(0).at(Nanos(150)).slow, 1.0);
        let inside = node.at(Nanos(150));
        assert!(!inside.down && inside.drop_prob == 0.0 && inside.extra_delay == Nanos::ZERO);
    }

    #[test]
    fn overlapping_slow_windows_compound_in_plan_order() {
        let plan = FaultPlan {
            events: vec![
                event(0, FaultKind::Slow, 0, 300, 2.0),
                event(0, FaultKind::Slow, 100, 200, 3.0),
            ],
        };
        let node = plan.for_node(0);
        assert_eq!(node.at(Nanos(50)).slow, 2.0);
        assert_eq!(node.at(Nanos(150)).slow, 6.0);
        // Plan order is the reverse of start order, and the two products
        // round differently: (a · b) · c ≠ (c · b) · a.
        let (a, b, c) = (1.1, 1.3, 1.01);
        assert_ne!((a * b) * c, (c * b) * a);
        let plan = FaultPlan {
            events: vec![
                event(2, FaultKind::Slow, 30, 100, a),
                event(2, FaultKind::Slow, 20, 100, b),
                event(2, FaultKind::Slow, 10, 100, c),
            ],
        };
        let state = plan.for_node(2).at(Nanos(50));
        assert_eq!(state.slow.to_bits(), ((a * b) * c).to_bits());
        assert!(same(state, oracle(&plan, 2, Nanos(50))));
    }

    #[test]
    fn tiers_are_round_robin_and_skip_the_baseline() {
        let plan = FaultPlan::tiers(&[1.0, 1.0, 3.0], 6);
        assert_eq!(plan.events.len(), 2, "two slow nodes out of six");
        assert_eq!(plan.validate(6), Ok(()));
        for t in [
            Nanos::ZERO,
            Nanos::from_secs(1),
            Nanos::from_secs(1_000_000),
        ] {
            assert_eq!(plan.for_node(2).at(t).slow, 3.0);
            assert_eq!(plan.for_node(5).at(t).slow, 3.0);
            assert_eq!(plan.for_node(0).at(t).slow, 1.0);
        }
        assert!(FaultPlan::tiers(&[1.0], 15).is_empty());
        // A bad tier becomes a window, so validation sees it.
        let bad = FaultPlan::tiers(&[1.0, 0.5], 4);
        assert_eq!(bad.validate(4).unwrap_err().index, 0);
    }

    #[test]
    fn crash_flux_is_deterministic_and_non_overlapping() {
        let span = Nanos::from_secs(10);
        let a = FaultPlan::crash_flux(7, 15, span);
        let b = FaultPlan::crash_flux(7, 15, span);
        assert!(!a.is_empty());
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.start, y.start);
            assert_eq!(x.end, y.end);
        }
        // Sequential generation: each window ends before the next starts,
        // so at most one node is ever down.
        for w in a.events.windows(2) {
            assert!(w[0].end < w[1].start);
        }
        for e in &a.events {
            assert_eq!(e.kind, FaultKind::Crash);
            assert!(e.node < 15);
            assert!(e.start < e.end);
        }
    }

    #[test]
    fn crash_window_reports_down_only_inside() {
        let p = FaultPlan::crash_flux(3, 9, Nanos::from_secs(5));
        let e = p.events[0];
        let node = p.for_node(e.node);
        assert!(node.at(e.start).down);
        assert!(!node.at(e.end).down);
        let before = Nanos::from_millis(1);
        assert!(!node.at(before).down);
    }

    #[test]
    fn flaky_net_schedules_all_three_kinds() {
        let p = FaultPlan::flaky_net(11, 15, Nanos::from_secs(10));
        for kind in [
            FaultKind::ConnReset,
            FaultKind::RespDrop,
            FaultKind::RespDelay,
        ] {
            assert!(
                p.events.iter().any(|e| e.kind == kind),
                "missing {kind:?} windows"
            );
        }
        let drop = p
            .events
            .iter()
            .find(|e| e.kind == FaultKind::RespDrop)
            .unwrap();
        assert!((0.3..0.7).contains(&drop.magnitude));
        let mid = Nanos((drop.start.0 + drop.end.0) / 2);
        assert!(p.for_node(drop.node).at(mid).drop_prob >= 0.3);
        let delay = p
            .events
            .iter()
            .find(|e| e.kind == FaultKind::RespDelay)
            .unwrap();
        let mid = Nanos((delay.start.0 + delay.end.0) / 2);
        assert!(p.for_node(delay.node).at(mid).extra_delay >= Nanos::from_millis(20));
    }

    #[test]
    fn node_faults_keep_plan_order() {
        // Plan order is the reverse of start order, and the two sums
        // round to different nanoseconds: (a + b) + c ≠ (c + b) + a.
        let (a, b, c) = (10.000_000_5, 10.100_000_5, 17.400_000_5);
        let plan = FaultPlan {
            events: vec![
                event(4, FaultKind::RespDelay, 30, 100, a),
                event(1, FaultKind::Crash, 0, 100, 0.0),
                event(4, FaultKind::RespDelay, 20, 100, b),
                event(4, FaultKind::RespDelay, 10, 100, c),
            ],
        };
        let plan_order = Nanos::from_millis_f64((a + b) + c);
        assert_ne!(plan_order, Nanos::from_millis_f64((c + b) + a));
        let state = plan.for_node(4).at(Nanos(50));
        assert_eq!(state.extra_delay, plan_order);
        assert!(same(state, oracle(&plan, 4, Nanos(50))));
        assert!(!state.down, "node 1's crash is not node 4's");
    }

    #[test]
    fn stock_plans_and_early_episodes_validate() {
        let span = Nanos::from_secs(60);
        for seed in 1..=10 {
            for nodes in [3, 6, 9, 15] {
                let mut crash = FaultPlan::crash_flux(seed, nodes, span);
                crash.layer(&FaultPlan::CRASH_FLUX_EARLY, nodes);
                assert_eq!(crash.validate(nodes), Ok(()));
                let mut flaky = FaultPlan::flaky_net(seed, nodes, span);
                flaky.layer(&FaultPlan::FLAKY_NET_EARLY, nodes);
                assert_eq!(flaky.validate(nodes), Ok(()));
            }
        }
    }

    #[test]
    fn layer_skips_episodes_past_the_fleet() {
        let mut plan = FaultPlan::crash_flux(1, 3, Nanos::from_secs(5));
        let seeded = plan.events.len();
        plan.layer(&FaultPlan::FLAKY_NET_EARLY, 3);
        assert_eq!(
            plan.events.len(),
            seeded + 2,
            "node 3 is past a 3-node fleet"
        );
        assert_eq!(plan.events[seeded..], FaultPlan::FLAKY_NET_EARLY[..2]);
    }

    /// The first episode of a one-episode plan fails validation with
    /// `needs`.
    fn rejects(e: FaultEvent, needs: &str) {
        let plan = FaultPlan { events: vec![e] };
        let err = plan.validate(4).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.needs, needs);
    }

    #[test]
    fn validate_rejects_nodes_past_the_fleet() {
        rejects(
            event(4, FaultKind::Crash, 0, 10, 0.0),
            "a node below the fleet size",
        );
    }

    #[test]
    fn validate_rejects_empty_and_reversed_windows() {
        rejects(
            event(0, FaultKind::ConnReset, 10, 10, 0.0),
            "an end after its start",
        );
        rejects(
            event(0, FaultKind::Crash, 10, 5, 0.0),
            "an end after its start",
        );
    }

    #[test]
    fn validate_rejects_drop_probabilities_outside_unit() {
        for p in [-0.1, 1.5, f64::NAN] {
            rejects(
                event(0, FaultKind::RespDrop, 0, 10, p),
                "a drop probability in [0, 1]",
            );
        }
        let edges = FaultPlan {
            events: vec![
                event(0, FaultKind::RespDrop, 0, 10, 0.0),
                event(0, FaultKind::RespDrop, 0, 10, 1.0),
            ],
        };
        assert_eq!(edges.validate(1), Ok(()));
    }

    #[test]
    fn validate_rejects_negative_or_non_finite_delays() {
        for ms in [-1.0, f64::INFINITY, f64::NAN] {
            rejects(
                event(0, FaultKind::RespDelay, 0, 10, ms),
                "a finite, non-negative delay",
            );
        }
    }

    #[test]
    fn validate_rejects_slow_multipliers_below_one_or_non_finite() {
        for m in [0.5, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            rejects(
                event(0, FaultKind::Slow, 0, 10, m),
                "a finite multiplier of at least 1",
            );
        }
        let unit = FaultPlan {
            events: vec![event(0, FaultKind::Slow, 0, 10, 1.0)],
        };
        assert_eq!(unit.validate(1), Ok(()));
    }

    #[test]
    fn validate_reports_the_first_bad_episode() {
        let plan = FaultPlan {
            events: vec![
                event(0, FaultKind::Crash, 0, 10, 0.0),
                event(1, FaultKind::RespDelay, 0, 10, -2.0),
                event(9, FaultKind::Crash, 0, 10, 0.0),
            ],
        };
        let err = plan.validate(2).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(
            err.to_string(),
            "fault episode 1 needs a finite, non-negative delay"
        );
    }

    fn kind_of(k: u8) -> FaultKind {
        match k % 5 {
            0 => FaultKind::Crash,
            1 => FaultKind::ConnReset,
            2 => FaultKind::RespDrop,
            3 => FaultKind::RespDelay,
            _ => FaultKind::Slow,
        }
    }

    proptest! {
        #[test]
        fn node_faults_match_the_whole_plan_scan(
            nodes in 1usize..21,
            windows in prop::collection::vec(
                (0usize..24, 0u8..5, 0u64..20_000, 1u64..4_000, 0.0f64..1.0),
                0..201,
            ),
            stack in (0usize..20, 0u64..20_000, 0.0f64..80.0, 0.0f64..80.0, 0.0f64..80.0),
            probes in prop::collection::vec(0u64..26_000, 0..64),
        ) {
            // Drawn windows overlap freely (starts in 20 µs, spans up to
            // 4 µs) and may name nodes past the fleet; delays are in
            // fractional milliseconds so sums carry rounding, and slow
            // multipliers in [1, 41) so products do.
            let mut events: Vec<FaultEvent> = windows
                .into_iter()
                .map(|(node, k, start, span, mag)| {
                    let kind = kind_of(k);
                    let magnitude = match kind {
                        FaultKind::RespDelay => mag * 80.0,
                        FaultKind::RespDrop => mag,
                        FaultKind::Slow => 1.0 + mag * 40.0,
                        _ => 0.0,
                    };
                    event(node, kind, start, start + span, magnitude)
                })
                .collect();
            // Three delays active at once on one node, interleaved with
            // the drawn windows so start order differs from plan order.
            let (node, start, m1, m2, m3) = stack;
            let node = node % nodes;
            for (i, m) in [m1, m2, m3].into_iter().enumerate() {
                let at = (events.len() * (i + 1)) / 4;
                let s = start + 300 * (3 - i as u64);
                events.insert(at, event(node, FaultKind::RespDelay, s, start + 2_000, m));
            }
            let plan = FaultPlan { events };
            let mut instants = probes;
            for e in &plan.events {
                for t in [e.start, e.end] {
                    instants.extend([t.0.saturating_sub(1), t.0, t.0 + 1]);
                }
            }
            for n in 0..nodes + 4 {
                let faults = plan.for_node(n);
                for &t in &instants {
                    let got = faults.at(Nanos(t));
                    let want = oracle(&plan, n, Nanos(t));
                    prop_assert!(
                        same(got, want),
                        "node {} at {} ns: {:?} != {:?}", n, t, got, want
                    );
                }
            }
            let stacked = plan.for_node(node).at(Nanos(start + 1_000));
            prop_assert!(stacked.extra_delay >= Nanos::from_millis_f64(m1.max(m2).max(m3)));
        }
    }
}
