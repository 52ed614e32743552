//! Per-node stochastic performance perturbations.
//!
//! §2.1 of the paper lists the sources of time-varying performance the
//! scheme must survive: garbage collection pauses, SSTable compactions
//! (heavy I/O), and contention from neighbouring tenants. This module
//! models each as an independent on/off renewal process per node, drawn
//! lazily from the cluster's service rng:
//!
//! - **GC pauses**: frequent, short, severe (service nearly stops),
//! - **compactions**: rarer, multi-second, moderate multiplier, and the
//!   only source that drives the `iowait` metric Dynamic Snitching gossips,
//! - **slowdowns** (noisy neighbours / virtualization): occasional,
//!   long-ish, mild multiplier.
//!
//! The combined effect on a node is the product of the active episodes'
//! service-time multipliers. Scripted slow windows (hardware tiers,
//! partitions, the Figure 13 rate-adaptation trace) are
//! [`crate::FaultKind::Slow`] episodes of the fault plan instead; the
//! cluster multiplies the two.

use c3_core::Nanos;
use c3_workload::exp_sample;
use rand::rngs::SmallRng;
use rand::Rng;

/// One class of episodic perturbation.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeSpec {
    /// Mean gap between episode starts (exponential), ms.
    pub mean_interval_ms: f64,
    /// Minimum episode duration, ms.
    pub min_duration_ms: f64,
    /// Maximum episode duration, ms.
    pub max_duration_ms: f64,
    /// Service-time multiplier while active.
    pub multiplier: f64,
    /// Contribution to the node's iowait metric while active.
    pub iowait: f64,
}

/// The three perturbation classes with EC2-flavoured defaults.
#[derive(Clone, Copy, Debug)]
pub struct PerturbationSpec {
    /// Stop-the-world garbage collection.
    pub gc: EpisodeSpec,
    /// SSTable compaction.
    pub compaction: EpisodeSpec,
    /// Noisy-neighbour / virtualization slowdowns.
    pub slowdown: EpisodeSpec,
}

impl Default for PerturbationSpec {
    fn default() -> Self {
        Self {
            gc: EpisodeSpec {
                mean_interval_ms: 5_000.0,
                min_duration_ms: 50.0,
                max_duration_ms: 300.0,
                multiplier: 10.0,
                iowait: 0.0,
            },
            compaction: EpisodeSpec {
                mean_interval_ms: 15_000.0,
                min_duration_ms: 2_000.0,
                max_duration_ms: 5_000.0,
                multiplier: 3.0,
                iowait: 0.8,
            },
            slowdown: EpisodeSpec {
                mean_interval_ms: 20_000.0,
                min_duration_ms: 2_000.0,
                max_duration_ms: 8_000.0,
                multiplier: 2.0,
                iowait: 0.15,
            },
        }
    }
}

impl PerturbationSpec {
    /// A quiet environment (no stochastic perturbations) — used by tests
    /// and by the scenarios whose only stressor is a scripted plan.
    pub fn none() -> Self {
        let off = EpisodeSpec {
            mean_interval_ms: f64::INFINITY,
            min_duration_ms: 0.0,
            max_duration_ms: 0.0,
            multiplier: 1.0,
            iowait: 0.0,
        };
        Self {
            gc: off,
            compaction: off,
            slowdown: off,
        }
    }
}

/// The classes, used as indices into per-node episode state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpisodeKind {
    /// Garbage collection.
    Gc,
    /// Compaction.
    Compaction,
    /// Noisy neighbour.
    Slowdown,
}

const KINDS: [EpisodeKind; 3] = [
    EpisodeKind::Gc,
    EpisodeKind::Compaction,
    EpisodeKind::Slowdown,
];

/// Per-node perturbation state.
#[derive(Clone, Debug)]
pub(crate) struct NodePerturbation {
    spec: PerturbationSpec,
    /// Episode end time per kind; `None` when idle.
    active_until: [Option<Nanos>; 3],
}

impl NodePerturbation {
    /// Create idle state.
    pub(crate) fn new(spec: PerturbationSpec) -> Self {
        Self {
            spec,
            active_until: [None; 3],
        }
    }

    fn spec_of(&self, kind: EpisodeKind) -> &EpisodeSpec {
        match kind {
            EpisodeKind::Gc => &self.spec.gc,
            EpisodeKind::Compaction => &self.spec.compaction,
            EpisodeKind::Slowdown => &self.spec.slowdown,
        }
    }

    /// Sample the delay until the next episode of `kind` starts, or `None`
    /// if that class is disabled.
    pub(crate) fn next_start_gap(&self, kind: EpisodeKind, rng: &mut SmallRng) -> Option<Nanos> {
        let spec = self.spec_of(kind);
        if !spec.mean_interval_ms.is_finite() {
            return None;
        }
        Some(Nanos::from_millis_f64(exp_sample(
            rng,
            spec.mean_interval_ms,
        )))
    }

    /// Begin an episode of `kind` at `now`; returns its end time.
    pub(crate) fn begin(&mut self, kind: EpisodeKind, now: Nanos, rng: &mut SmallRng) -> Nanos {
        let spec = *self.spec_of(kind);
        let dur_ms = if spec.max_duration_ms > spec.min_duration_ms {
            rng.gen_range(spec.min_duration_ms..spec.max_duration_ms)
        } else {
            spec.min_duration_ms
        };
        let end = now + Nanos::from_millis_f64(dur_ms);
        let idx = KINDS.iter().position(|&k| k == kind).expect("known kind");
        self.active_until[idx] = Some(end);
        end
    }

    /// End any expired episodes.
    pub(crate) fn expire(&mut self, now: Nanos) {
        for slot in &mut self.active_until {
            if let Some(end) = *slot {
                if end <= now {
                    *slot = None;
                }
            }
        }
    }

    /// Current combined service-time multiplier of the stochastic
    /// episodes.
    pub(crate) fn multiplier(&self, now: Nanos) -> f64 {
        let mut m = 1.0;
        for (i, kind) in KINDS.iter().enumerate() {
            if matches!(self.active_until[i], Some(end) if end > now) {
                m *= self.spec_of(*kind).multiplier;
            }
        }
        m
    }

    /// Current iowait metric (what the node gossips).
    pub(crate) fn iowait(&self, now: Nanos) -> f64 {
        let mut io: f64 = 0.02; // baseline
        for (i, kind) in KINDS.iter().enumerate() {
            if matches!(self.active_until[i], Some(end) if end > now) {
                io += self.spec_of(*kind).iowait;
            }
        }
        io.min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn idle_node_has_unit_multiplier() {
        let p = NodePerturbation::new(PerturbationSpec::default());
        assert_eq!(p.multiplier(Nanos::from_millis(10)), 1.0);
        assert!(p.iowait(Nanos::from_millis(10)) < 0.1);
    }

    #[test]
    fn gc_episode_multiplies_and_expires() {
        let mut p = NodePerturbation::new(PerturbationSpec::default());
        let mut r = rng();
        let end = p.begin(EpisodeKind::Gc, Nanos::from_millis(100), &mut r);
        assert!(end > Nanos::from_millis(100));
        assert_eq!(p.multiplier(Nanos::from_millis(120)), 10.0);
        p.expire(end);
        assert_eq!(p.multiplier(end), 1.0);
    }

    #[test]
    fn compaction_raises_iowait() {
        let mut p = NodePerturbation::new(PerturbationSpec::default());
        let mut r = rng();
        p.begin(EpisodeKind::Compaction, Nanos::ZERO, &mut r);
        assert!(p.iowait(Nanos::from_millis(10)) > 0.5);
        assert_eq!(p.multiplier(Nanos::from_millis(10)), 3.0);
    }

    #[test]
    fn episodes_compound() {
        let mut p = NodePerturbation::new(PerturbationSpec::default());
        let mut r = rng();
        p.begin(EpisodeKind::Gc, Nanos::ZERO, &mut r);
        p.begin(EpisodeKind::Slowdown, Nanos::ZERO, &mut r);
        assert_eq!(p.multiplier(Nanos::from_millis(1)), 20.0);
    }

    #[test]
    fn disabled_spec_never_schedules() {
        let p = NodePerturbation::new(PerturbationSpec::none());
        let mut r = rng();
        assert!(p.next_start_gap(EpisodeKind::Gc, &mut r).is_none());
        assert!(p.next_start_gap(EpisodeKind::Compaction, &mut r).is_none());
    }

    #[test]
    fn enabled_spec_schedules_positive_gaps() {
        let p = NodePerturbation::new(PerturbationSpec::default());
        let mut r = rng();
        let gap = p.next_start_gap(EpisodeKind::Gc, &mut r).unwrap();
        assert!(gap > Nanos::ZERO);
    }
}
