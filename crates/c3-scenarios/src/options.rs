//! Per-run knobs shared by every scenario module's `run` entry point.
//!
//! Every scenario has one `run(cfg, strategies, RunOptions)` entry:
//! options default to the plain run, and whether a [`Recorder`] rides
//! along is an option, not a second entry point.

use c3_core::kv::{encode_kv, KvError, KvMap};
use c3_telemetry::Recorder;

use crate::report::ScenarioReport;

/// Options for one scenario run. `Default` is the plain, unrecorded run.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Attach a flight recorder: the request-lifecycle trace and decision
    /// snapshots land in it, and it comes back in [`RunOutput::recorder`].
    /// Recording is observation-only — the report is bit-identical either
    /// way (golden-pinned).
    pub recorder: Option<Recorder>,
}

impl RunOptions {
    /// Options with a recorder attached.
    pub fn recorded(recorder: Recorder) -> Self {
        Self {
            recorder: Some(recorder),
        }
    }
}

/// Per-run tuning knobs shared by every scenario frontend. `Default` keeps every scenario's native drive; set fields directly:
///
/// ```
/// use c3_scenarios::RunTuning;
///
/// let tuning = RunTuning {
///     offered_rate: Some(2_000.0),
///     exact_latency: true,
///     ..RunTuning::default()
/// };
/// assert_eq!(RunTuning::from_kv(&tuning.to_kv()).unwrap(), tuning);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunTuning {
    /// Offered load in operations/second. `None` keeps each scenario's
    /// native drive (closed loops, configured utilization); `Some(rate)`
    /// runs open-loop at that rate on every backend — the axis the
    /// SLO-seeking controller searches.
    pub offered_rate: Option<f64>,
    /// Use exact (every-sample) percentile reservoirs instead of the
    /// streaming histogram — required when close percentile comparisons
    /// decide a result (claims, figures, SLO probes).
    pub exact_latency: bool,
    /// Live backends only: the client's total in-flight request budget
    /// (`None` keeps the live config's default). Sim backends ignore it —
    /// their concurrency is the modeled client population.
    pub in_flight: Option<usize>,
    /// Live backends only: multiplexed connections per replica (`None`
    /// keeps the default of one).
    pub connections: Option<usize>,
}

#[allow(clippy::derivable_impls)]
impl Default for RunTuning {
    fn default() -> Self {
        Self {
            offered_rate: None,
            exact_latency: false,
            in_flight: None,
            connections: None,
        }
    }
}

impl RunTuning {
    /// Encode as the same plain-text `key=value` lines the node handshake
    /// and `LifecycleConfig` use. `none` marks an unset knob.
    pub fn to_kv(&self) -> String {
        encode_kv([
            (
                "offered_rate",
                self.offered_rate
                    .map_or_else(|| "none".to_string(), |r| format!("{r}")),
            ),
            ("exact_latency", self.exact_latency.to_string()),
            (
                "in_flight",
                self.in_flight
                    .map_or_else(|| "none".to_string(), |v| v.to_string()),
            ),
            (
                "connections",
                self.connections
                    .map_or_else(|| "none".to_string(), |v| v.to_string()),
            ),
        ])
    }

    /// Decode from `key=value` text produced by [`RunTuning::to_kv`].
    /// Every key is required and unknown keys are rejected.
    pub fn from_kv(text: &str) -> Result<Self, KvError> {
        let mut map = KvMap::parse(text)?;
        let tuning = Self::from_kv_map(&mut map)?;
        map.finish()?;
        Ok(tuning)
    }

    /// Decode from an already-parsed [`KvMap`], consuming this struct's
    /// keys and leaving the rest for the caller (composes into larger
    /// configs, e.g. the node handshake).
    pub fn from_kv_map(map: &mut KvMap) -> Result<Self, KvError> {
        fn opt<T: std::str::FromStr>(
            map: &mut KvMap,
            key: &'static str,
            expected: &'static str,
        ) -> Result<Option<T>, KvError> {
            let v: String = map.take_required(key, expected)?;
            if v == "none" {
                return Ok(None);
            }
            v.parse().map(Some).map_err(|_| KvError::Invalid {
                key: key.to_string(),
                value: v,
                expected,
            })
        }
        Ok(Self {
            offered_rate: opt(map, "offered_rate", "a rate or \"none\"")?,
            exact_latency: map.take_required("exact_latency", "true or false")?,
            in_flight: opt(map, "in_flight", "a request budget or \"none\"")?,
            connections: opt(map, "connections", "a connection count or \"none\"")?,
        })
    }
}

/// What one scenario run hands back.
#[derive(Debug)]
pub struct RunOutput {
    /// The uniform scenario report (fingerprintable, sweepable).
    pub report: ScenarioReport,
    /// The recorder, when [`RunOptions::recorder`] attached one.
    pub recorder: Option<Recorder>,
}
