//! # c3-scenarios — a library of named workload scenarios
//!
//! The C3 paper's headline claims are about robustness under *adverse
//! conditions*: skewed demand, heterogeneous service times, and replicas
//! whose performance fluctuates or vanishes outright. This crate turns the
//! engine's `Scenario` trait into a library of such conditions, each
//! selectable by name through a [`ScenarioRegistry`] exactly as strategies
//! are selectable by `Strategy` name — the cross product of the scenario
//! table and the strategy names is the experiment matrix:
//!
//! - [`MULTI_TENANT`] ([`MultiTenantConfig`]): several tenant classes with
//!   distinct Zipf skew, arrival rates and value sizes sharing one fleet,
//!   reporting latency into one **named channel per tenant**;
//! - [`MEGA_FLEET`]: hundreds of replicas serving 100k+ closed-loop
//!   clients through a pool of shared selector shards — the kernel's
//!   sustained 100k-pending-event regime;
//! - [`HETERO_FLEET`]: permanent fast/slow hardware tiers layered on the
//!   §5 cluster's ring as whole-run slow windows of its fault plan;
//! - [`PARTITION_FLUX`]: replica blackouts and recoveries — stochastic
//!   ones from the cluster's perturbation episodes, scripted ones as slow
//!   windows of its fault plan — exercising C3's rate-control recovery path;
//! - [`CRASH_FLUX`] and [`FLAKY_NET`] ([`FaultFluxConfig`]): deterministic
//!   fault-injection timelines (node crashes; connection resets, dropped
//!   and delayed responses) replayed against the hardened request
//!   lifecycle — deadlines, bounded retry with backoff, hedged requests
//!   and a failure detector.
//!
//! The first two are configurations of one direct-fleet event loop
//! (clients talk straight to servers); the other four are configurations
//! of `c3-cluster`'s coordinator loop.
//!
//! Every run produces the same [`ScenarioReport`] (per-channel summaries,
//! throughput, a bit-exact [`ScenarioReport::fingerprint`]), and
//! [`ScenarioRegistry::sweep`] fans the full scenario × strategy × seed
//! matrix out over worker threads with results bit-identical for any
//! thread count.
//!
//! ```
//! use c3_engine::Strategy;
//! use c3_scenarios::{ScenarioParams, ScenarioRegistry, MULTI_TENANT};
//!
//! let registry = ScenarioRegistry::with_defaults();
//! let report = registry
//!     .run(MULTI_TENANT, &ScenarioParams::sized(Strategy::c3(), 1, 3_000))
//!     .unwrap();
//! // One latency channel per tenant, by name.
//! assert_eq!(report.channels.len(), 3);
//! assert!(report.channel("interactive").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_backed;
mod faults;
mod fleet;
mod hetero;
mod mega_fleet;
mod multi_tenant;
mod options;
mod partition;
mod registry;
mod report;

pub use faults::{run as run_fault_flux, FaultFlavor, FaultFluxConfig};
pub use multi_tenant::{
    run as run_multi_tenant, run_isolated as run_multi_tenant_isolated, MultiTenantConfig,
    TenantSpec,
};
pub use options::{RunOptions, RunOutput, RunTuning};
pub use registry::{ScenarioError, ScenarioParams, ScenarioRegistry};
pub use report::{ChannelReport, ScenarioReport};

/// Registry name of the multi-tenant scenario.
pub const MULTI_TENANT: &str = "multi-tenant";
/// Registry name of the mega-fleet scenario.
pub const MEGA_FLEET: &str = "mega-fleet";
/// Registry name of the heterogeneous-fleet scenario.
pub const HETERO_FLEET: &str = "hetero-fleet";
/// Registry name of the partition/flux scenario.
pub const PARTITION_FLUX: &str = "partition-flux";
/// Registry name of the crash/restart fault-injection scenario.
pub const CRASH_FLUX: &str = "crash-flux";
/// Registry name of the flaky-network fault-injection scenario.
pub const FLAKY_NET: &str = "flaky-net";
