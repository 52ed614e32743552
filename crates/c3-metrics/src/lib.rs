//! Measurement substrate for the C3 reproduction.
//!
//! The C3 paper's evaluation reports a small set of recurring artifacts:
//!
//! - latency distributions summarized at the mean, median, 95th, 99th and
//!   99.9th percentiles (Figures 6, 10, 12, and the §5/§6 text),
//! - empirical CDFs of latencies and of per-window load (Figures 6 and 8),
//! - "requests served per 100 ms" time series used to expose load
//!   oscillations (Figures 2 and 9),
//! - moving medians over high-variance time series (Figures 11 and 13),
//! - cross-run averages with confidence intervals (all bar plots).
//!
//! This crate implements each of those from scratch:
//!
//! - [`LogHistogram`]: a log-linear bucketed histogram (HdrHistogram-style)
//!   for nanosecond-scale latency values with bounded relative error,
//! - [`ExactReservoir`]: an every-sample reservoir with exact order
//!   statistics, for the claims/figure tiers where bucket quantization
//!   would blur close percentile comparisons (flag-gated; the streaming
//!   histogram is the hot-path default),
//! - [`Ecdf`]: exact empirical CDFs built from raw samples,
//! - [`WindowedCounts`]: fixed-window event counters (e.g. reads per 100 ms),
//! - [`moving_median`] / [`MovingMedian`]: sliding-window medians,
//! - [`LatencySummary`] and [`RunSet`]: per-run summaries and multi-run
//!   aggregation with normal-approximation confidence intervals,
//! - [`Table`]: plain-text aligned tables used by the benchmark harness to
//!   print paper-style rows,
//! - [`ChannelSet`] / [`ChannelId`]: named measurement channels, so
//!   scenarios can declare per-op-type or per-tenant latency histograms
//!   without coordinating positional indices out of band.
//!
//! Everything here is deterministic and allocation-light; the histogram is
//! the only structure on the hot path of the simulators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channels;
mod ecdf;
mod exact;
mod histogram;
mod moving;
mod slo;
mod summary;
mod table;
mod timeseries;

pub use channels::{ChannelId, ChannelSet};
pub use ecdf::Ecdf;
pub use exact::ExactReservoir;
pub use histogram::LogHistogram;
pub use moving::{moving_median, MovingMedian};
pub use slo::{SloMetric, SloPredicate};
pub use summary::{jain_index, ConfidenceInterval, LatencySummary, RunSet};
pub use table::{f2, Table};
pub use timeseries::{GaugeSeries, WindowedCounts};

/// Nanoseconds per millisecond, used throughout the harness when converting
/// histogram values (recorded in nanoseconds) to the milliseconds the paper
/// reports.
pub(crate) const NANOS_PER_MILLI: u64 = 1_000_000;

/// Convert a nanosecond value to fractional milliseconds for reporting.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / NANOS_PER_MILLI as f64
}
