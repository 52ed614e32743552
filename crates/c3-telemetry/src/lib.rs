//! # c3-telemetry — flight recorder + tail-latency attribution
//!
//! C3's argument is explanatory: the paper wins by showing *why* tails
//! form (Dynamic Snitching's herd oscillation, queue buildup on stale
//! feedback), not just that p99 moved. This crate is the shared
//! observability layer that lets every backend land with an explanation:
//!
//! - [`Recorder`] — a fixed-capacity, drop-oldest ring buffer of compact
//!   [`TraceEvent`]s covering the request lifecycle (issue → select →
//!   send → feedback → complete) plus per-decision replica snapshots
//!   ([`ReplicaSnap`]: score, EWMA latency/queue, outstanding count,
//!   rate-limiter srate, ground-truth pending depth). It also carries the
//!   throttled per-replica **score trace** (the old `with_score_probe`
//!   path) and named **gauge series** (the live client's `inflight` /
//!   `feedback-lag` health channels), so the repo has exactly one
//!   sampling/reporting path.
//! - [`attribute_tail`] — joins lifecycle events per request and
//!   decomposes each tail-bucket latency into wait-for-permit /
//!   queueing-at-replica / service / **selection regret** (chosen replica
//!   vs best available, measured against *freshly computed* scores so an
//!   interval-frozen strategy cannot grade its own homework), emitted as
//!   a [`TailAttribution`] table per `(scenario, strategy)` cell.
//! - JSONL export for the `trace_explain` bench bin and nightly
//!   artifacts.
//!
//! Determinism contract: recording is purely observational. A recorder
//! never draws randomness, never schedules events and only reads selector
//! state through read-only snapshots, so a run's `ScenarioReport`
//! fingerprint is bit-identical with and without a recorder attached —
//! pinned by the fingerprint-neutrality goldens. The disabled path is an
//! `Option<&mut Recorder>` branch, not a feature flag. Time is whatever
//! the driver passes in: sim time in `c3-sim` / `c3-cluster` /
//! `c3-scenarios`, wall-clock-since-start in `c3-live`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod export;
mod process;
mod recorder;

pub use attribution::{attribute_tail, Attribution, TailAttribution};
pub use process::{node_cpu_gauge, node_rss_gauge, sample_process, ProcessSample};
pub use recorder::{
    summarize_gauge, GaugeSeries, GaugeSummary, Recorder, ReplicaSnap, TraceEvent, TracePoint,
    NO_SERVER,
};
