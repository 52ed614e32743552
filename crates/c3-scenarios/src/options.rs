//! Per-run knobs shared by every scenario module's `run` entry point.
//!
//! Every scenario has one `run(cfg, strategies, RunOptions)` entry:
//! options default to the plain run, and whether a [`Recorder`] rides
//! along is an option, not a second entry point.

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
///     ..RunTuning::default()
/// };
/// assert!(!tuning.exact_latency);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
}

/// What one scenario run hands back.
#[derive(Debug)]
pub struct RunOutput {
    /// The uniform scenario report (fingerprintable, sweepable).
    pub report: ScenarioReport,
    /// The recorder, when [`RunOptions::recorder`] attached one.
    pub recorder: Option<Recorder>,
}
