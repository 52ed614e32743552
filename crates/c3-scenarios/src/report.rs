//! The uniform result of one scenario run.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use c3_core::Nanos;
use c3_engine::{EngineStats, RunMetrics, Strategy};
use c3_metrics::LatencySummary;

/// One named latency channel of a finished run.
#[derive(Clone, Debug)]
pub struct ChannelReport {
    /// Channel name as declared by the scenario ("read", "tenant name", ...).
    pub name: String,
    /// Measured (post-warm-up) completions on this channel.
    pub completions: u64,
    /// Measured completions per second over the run's measured window.
    pub throughput: f64,
    /// Latency summary at the paper's percentiles.
    pub summary: LatencySummary,
}

/// Uniform result of one `(scenario, strategy, seed)` run, built straight
/// from the engine's [`RunMetrics`] so every scenario reports the same
/// shape regardless of which frontend it runs on.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario registry name.
    pub scenario: String,
    /// Strategy name.
    pub strategy: String,
    /// Seed of the run.
    pub seed: u64,
    /// Measured duration (first to last measured completion).
    pub duration: Nanos,
    /// Per-channel results, in the scenario's channel-declaration order.
    pub channels: Vec<ChannelReport>,
    /// Events processed by the kernel.
    pub events_processed: u64,
    /// Timers cancelled before firing.
    pub events_cancelled: u64,
    /// Events that fired with nothing left to do (a completed operation's
    /// speculative check, a drained backlog's retry). Every such source is
    /// cancelled at its trigger, so this is zero for every scenario — the
    /// dead-event regression test asserts it across the whole library.
    pub dead_events: u64,
    /// Per-request deadline expiries (request-lifecycle hardening). Zero
    /// unless the scenario configures a deadline.
    pub timeouts: u64,
    /// Operations abandoned after exhausting deadline + retry budget.
    /// Parked operations are *not* completions; a scenario that parks
    /// reports fewer completions than it issued.
    pub parked: u64,
}

impl ScenarioReport {
    /// Assemble a report from a finished run's metrics and engine stats.
    pub fn from_metrics(
        scenario: &str,
        strategy: &Strategy,
        seed: u64,
        metrics: &RunMetrics,
        stats: &EngineStats,
    ) -> Self {
        let channels = metrics
            .channels()
            .iter()
            .map(|(id, name)| ChannelReport {
                name: name.to_string(),
                completions: metrics.measured(id),
                throughput: metrics.throughput(id),
                summary: metrics.summary(id),
            })
            .collect();
        Self {
            scenario: scenario.to_string(),
            strategy: strategy.label().to_string(),
            seed,
            duration: metrics.duration(),
            channels,
            events_processed: stats.events_processed,
            events_cancelled: stats.events_cancelled,
            dead_events: 0,
            timeouts: 0,
            parked: 0,
        }
    }

    /// Attach the scenario's dead-event count (see
    /// [`ScenarioReport::dead_events`]).
    pub(crate) fn with_dead_events(mut self, dead_events: u64) -> Self {
        self.dead_events = dead_events;
        self
    }

    /// Attach the scenario's lifecycle-hardening tallies (see
    /// [`ScenarioReport::timeouts`] and [`ScenarioReport::parked`]).
    pub fn with_lifecycle(mut self, timeouts: u64, parked: u64) -> Self {
        self.timeouts = timeouts;
        self.parked = parked;
        self
    }

    /// The report of a channel, by name.
    pub fn channel(&self, name: &str) -> Option<&ChannelReport> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// The scenario's first-declared (headline) channel — the one its
    /// primary latency claim is stated over.
    pub fn headline(&self) -> &ChannelReport {
        &self.channels[0]
    }

    /// Headline-channel p99 in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.headline().summary.metric_ms("p99")
    }

    /// Measured completions across all channels.
    pub fn total_completions(&self) -> u64 {
        self.channels.iter().map(|c| c.completions).sum()
    }

    /// Per-channel slowdown factors against isolation: channel `i`'s p99
    /// divided by the headline p99 of `isolated[i]` (the same tenant run
    /// alone at its own arrival rate). A factor of 1 means sharing the
    /// fleet cost that tenant nothing at the tail; large factors mean it
    /// pays for its neighbours.
    ///
    /// # Panics
    ///
    /// Panics when `isolated` does not have one report per channel, or an
    /// isolated baseline recorded a zero p99.
    pub fn slowdown_vs_isolated(&self, isolated: &[ScenarioReport]) -> Vec<(String, f64)> {
        assert_eq!(
            isolated.len(),
            self.channels.len(),
            "need one isolated baseline per channel"
        );
        self.channels
            .iter()
            .zip(isolated)
            .map(|(c, iso)| {
                let base = iso.headline().summary.p99_ns;
                assert!(
                    base > 0,
                    "isolated baseline for {:?} has empty tail",
                    c.name
                );
                (c.name.clone(), c.summary.p99_ns as f64 / base as f64)
            })
            .collect()
    }

    /// Jain fairness index over the per-channel slowdown factors of
    /// [`ScenarioReport::slowdown_vs_isolated`]: 1.0 when every tenant
    /// pays the same relative price for sharing, `1/n` when one tenant
    /// absorbs the entire interference cost.
    pub fn jain_fairness(&self, isolated: &[ScenarioReport]) -> f64 {
        let slowdowns: Vec<f64> = self
            .slowdown_vs_isolated(isolated)
            .into_iter()
            .map(|(_, f)| f)
            .collect();
        c3_metrics::jain_index(&slowdowns)
    }

    /// A deterministic digest of everything measurable in this report:
    /// per-channel counts, every reported percentile, the f64 mean and
    /// throughput *by bits*, the duration, and the kernel event counts.
    /// Two runs are bit-identical iff their fingerprints match, which is
    /// what the determinism golden tests compare across repeated runs and
    /// across `run_all` thread counts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.scenario.hash(&mut h);
        self.strategy.hash(&mut h);
        self.seed.hash(&mut h);
        self.duration.as_nanos().hash(&mut h);
        self.events_processed.hash(&mut h);
        self.events_cancelled.hash(&mut h);
        self.dead_events.hash(&mut h);
        // Lifecycle tallies joined the report after the goldens were
        // pinned; hashing them only when set keeps every hardening-off
        // fingerprint bit-identical to its pre-hardening value.
        if self.timeouts != 0 || self.parked != 0 {
            self.timeouts.hash(&mut h);
            self.parked.hash(&mut h);
        }
        for c in &self.channels {
            c.name.hash(&mut h);
            c.completions.hash(&mut h);
            c.throughput.to_bits().hash(&mut h);
            c.summary.count.hash(&mut h);
            c.summary.mean_ns.to_bits().hash(&mut h);
            c.summary.p50_ns.hash(&mut h);
            c.summary.p95_ns.hash(&mut h);
            c.summary.p99_ns.hash(&mut h);
            c.summary.p999_ns.hash(&mut h);
            c.summary.max_ns.hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report(p99: u64) -> ScenarioReport {
        ScenarioReport {
            scenario: "toy".into(),
            strategy: "C3".into(),
            seed: 1,
            duration: Nanos::from_millis(10),
            channels: vec![ChannelReport {
                name: "latency".into(),
                completions: 100,
                throughput: 10_000.0,
                summary: LatencySummary {
                    count: 100,
                    mean_ns: 1.5e6,
                    p50_ns: 1_000_000,
                    p95_ns: 2_000_000,
                    p99_ns: p99,
                    p999_ns: 4_000_000,
                    max_ns: 5_000_000,
                },
            }],
            events_processed: 500,
            events_cancelled: 0,
            dead_events: 0,
            timeouts: 0,
            parked: 0,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = toy_report(3_000_000);
        let b = toy_report(3_000_000);
        let c = toy_report(3_000_001);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_sees_dead_events() {
        let clean = toy_report(3_000_000);
        let dirty = toy_report(3_000_000).with_dead_events(1);
        assert_eq!(dirty.dead_events, 1);
        assert_ne!(clean.fingerprint(), dirty.fingerprint());
    }

    #[test]
    fn fingerprint_sees_lifecycle_tallies_only_when_set() {
        // Hardening-off runs must keep their pre-hardening fingerprints;
        // runs that time out or park must be distinguishable.
        let base = toy_report(3_000_000);
        let zeroed = toy_report(3_000_000).with_lifecycle(0, 0);
        assert_eq!(base.fingerprint(), zeroed.fingerprint());
        let timed_out = toy_report(3_000_000).with_lifecycle(3, 0);
        let parked = toy_report(3_000_000).with_lifecycle(3, 1);
        assert_ne!(base.fingerprint(), timed_out.fingerprint());
        assert_ne!(timed_out.fingerprint(), parked.fingerprint());
    }

    #[test]
    fn slowdown_and_fairness_against_isolated_baselines() {
        // Shared run with p99 = 6 ms on its one channel, isolated = 3 ms:
        // slowdown 2x, and with a single channel Jain is trivially 1.
        let shared = toy_report(6_000_000);
        let isolated = vec![toy_report(3_000_000)];
        let slow = shared.slowdown_vs_isolated(&isolated);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].0, "latency");
        assert!((slow[0].1 - 2.0).abs() < 1e-12);
        assert!((shared.jain_fairness(&isolated) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one isolated baseline per channel")]
    fn slowdown_needs_matching_baselines() {
        let _ = toy_report(1).slowdown_vs_isolated(&[]);
    }

    #[test]
    fn channel_lookup_and_headline() {
        let r = toy_report(3_000_000);
        assert!(r.channel("latency").is_some());
        assert!(r.channel("nope").is_none());
        assert_eq!(r.headline().name, "latency");
        assert!((r.p99_ms() - 3.0).abs() < 1e-9);
        assert_eq!(r.total_completions(), 100);
    }
}
