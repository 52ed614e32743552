//! Shared harness support: experiment scale, repetition, aggregation.
//!
//! Every experiment honours two environment variables:
//!
//! - `C3_SCALE`: `quick` (default), `full` — `full` uses paper-scale
//!   operation counts (slower by ~20×),
//! - `C3_RUNS`: repetitions per configuration (default 3; the paper uses 5).
//!
//! Unset means the default; a set value the harness does not understand
//! aborts the run rather than silently producing default-scale output
//! under the wrong label.

use std::collections::BTreeSet;

use c3_engine::fan_out;
use c3_metrics::RunSet;

/// Operation-count scale for the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scale {
    /// CI-friendly: hundreds of thousands of simulated operations.
    Quick,
    /// Paper-scale operation counts.
    Full,
}

impl Scale {
    /// Read the scale from `C3_SCALE` (default quick); panics on a value
    /// that is neither `quick` nor `full`.
    pub(crate) fn from_env() -> Scale {
        parse_scale(env_value("C3_SCALE").as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Cluster operations per run.
    pub(crate) fn cluster_ops(self) -> u64 {
        match self {
            Scale::Quick => 150_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Simulator requests per run (the paper generates 600k).
    pub(crate) fn sim_requests(self) -> u64 {
        match self {
            Scale::Quick => 150_000,
            Scale::Full => 600_000,
        }
    }

    /// Operations per scenario-library run (the sweep covers the whole
    /// strategy × scenario matrix, so each cell stays smaller than a
    /// figure reproduction).
    pub(crate) fn scenario_ops(self) -> u64 {
        match self {
            Scale::Quick => 30_000,
            Scale::Full => 300_000,
        }
    }
}

/// Repetitions per configuration, from `C3_RUNS` (default 3); panics on
/// a value that is not a positive integer.
pub(crate) fn runs_from_env() -> u64 {
    parse_runs(env_value("C3_RUNS").as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// A variable's value, `None` when unset. Non-UTF-8 bytes come back as
/// U+FFFD, which no parser below accepts.
fn env_value(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        None => Ok(Scale::Quick),
        Some(v) if v.eq_ignore_ascii_case("quick") => Ok(Scale::Quick),
        Some(v) if v.eq_ignore_ascii_case("full") => Ok(Scale::Full),
        Some(v) => Err(format!("C3_SCALE={v:?}: expected `quick` or `full`")),
    }
}

fn parse_runs(value: Option<&str>) -> Result<u64, String> {
    let Some(v) = value else { return Ok(3) };
    match v.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("C3_RUNS={v:?}: expected a positive integer")),
    }
}

/// Worker threads for seed fan-outs: the machine's parallelism, capped so
/// CI runners are not oversubscribed. Results do not depend on this.
pub(crate) fn fan_out_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Run `f` once per seed (seeds `1..=runs`, fanned out over worker
/// threads via the engine's `fan_out`) and aggregate a scalar metric
/// across runs. Each per-seed run is a pure function of its seed, so the
/// aggregate is bit-identical to the old serial loop for any thread
/// count — `fan_out` returns results in seed order.
pub(crate) fn across_seeds(runs: u64, f: impl Fn(u64) -> f64 + Sync) -> RunSet {
    let mut set = RunSet::new();
    for value in fan_out(runs as usize, fan_out_threads(), |i| f(i as u64 + 1)) {
        set.push(value);
    }
    set
}

/// Print an experiment banner.
pub(crate) fn banner(id: &str, title: &str) {
    println!();
    println!("== {id}: {title} ==");
}

/// Deduplicating collector for skipped sweep cells.
///
/// Sweeps run each `(scenario, strategy)` cell once per seed, so a cell a
/// backend cannot drive (the `ORA` oracle on cluster-backed scenarios,
/// unknown strategies) used to surface one notice *per run*. Every sweep
/// command (`scenario_sweep`, `slo_sweep`, `all`) now funnels its skips
/// through this log instead: identical `(scenario, strategy, reason)`
/// triples collapse to a single line, printed once at the end of the
/// sweep.
#[derive(Debug, Default)]
pub(crate) struct SkipLog {
    seen: BTreeSet<(String, String, String)>,
}

impl SkipLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Note one skipped cell; duplicates (across seeds or repeated
    /// sweeps) collapse.
    pub(crate) fn note(&mut self, scenario: &str, strategy: &str, reason: &str) {
        self.seen
            .insert((scenario.into(), strategy.into(), reason.into()));
    }

    /// Whether anything was skipped.
    pub(crate) fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Distinct skipped cells, in `(scenario, strategy)` order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.seen
            .iter()
            .map(|(sc, st, r)| (sc.as_str(), st.as_str(), r.as_str()))
    }

    /// Print the deduped summary (nothing when the log is empty).
    pub(crate) fn print_summary(&self) {
        if self.is_empty() {
            return;
        }
        println!("\nskipped cells (deduped across seeds):");
        for (scenario, strategy, reason) in self.entries() {
            println!("  {scenario}/{strategy}: {reason}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_known_forms_and_rejects_the_rest() {
        assert_eq!(parse_scale(None), Ok(Scale::Quick));
        assert_eq!(parse_scale(Some("quick")), Ok(Scale::Quick));
        for full in ["full", "FULL", "Full"] {
            assert_eq!(parse_scale(Some(full)), Ok(Scale::Full));
        }
        for bad in ["ful", "0", "", " full"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains("C3_SCALE") && err.contains(&format!("{bad:?}")));
            assert!(err.contains("`quick` or `full`"), "{err}");
        }
    }

    #[test]
    fn runs_parse_positive_integers_and_reject_the_rest() {
        assert_eq!(parse_runs(None), Ok(3));
        assert_eq!(parse_runs(Some("1")), Ok(1));
        assert_eq!(parse_runs(Some("5")), Ok(5));
        for bad in ["0", "three", "-1", "2.5", ""] {
            let err = parse_runs(Some(bad)).unwrap_err();
            assert!(err.contains("C3_RUNS") && err.contains(&format!("{bad:?}")));
            assert!(err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn scales_order_sensibly() {
        assert!(Scale::Full.cluster_ops() > Scale::Quick.cluster_ops());
        assert!(Scale::Full.sim_requests() > Scale::Quick.sim_requests());
    }

    #[test]
    fn across_seeds_aggregates() {
        let set = across_seeds(4, |seed| seed as f64);
        assert_eq!(set.len(), 4);
        assert_eq!(set.mean(), 2.5);
    }
}
