//! Umbrella crate for the C3 reproduction workspace.
//!
//! This crate re-exports every workspace crate under one roof so that the
//! examples under `examples/` and the integration tests under `tests/` can
//! use the entire system through a single dependency:
//!
//! - [`core`] — the C3 algorithm itself (replica ranking, cubic rate
//!   control, backpressure) plus the baseline client-local strategies.
//! - [`engine`] — the shared deterministic event engine: slab-backed
//!   event queue with cancellable timers, the name → selector
//!   `StrategyRegistry`, and the `ScenarioRunner` (seeds, warm-up,
//!   uniform run metrics) both simulators run on.
//! - [`metrics`] — histograms, ECDFs, windowed time series and summaries.
//! - [`workload`] — YCSB-like workload generation (Zipfian keys, workload
//!   mixes, arrival processes, record sizes).
//! - [`sim`] — the paper's §6 discrete-event simulator.
//! - [`cluster`] — the Cassandra-like replicated data store substrate with
//!   Dynamic Snitching, used by the paper's §5 system evaluation.
//! - [`scenarios`] — the named workload scenario library (multi-tenant,
//!   heterogeneous fleets, partition/flux) with registry-driven parallel
//!   sweeps.
//! - [`telemetry`] — the flight recorder (ring-buffered lifecycle trace,
//!   score trace, gauge series) and tail-latency attribution shared by
//!   the simulators and the live backend.
//! - [`net`] — the C3 wire protocol the live backends speak.
//! - [`live`] — C3 over real loopback sockets with std-only threading: a
//!   replicated KV fleet, a threaded client driving the same selector
//!   state as the simulators, and live twins of the scenario library
//!   (`live-hetero-fleet`, `live-partition-flux`).
//! - [`live_node`] — the cross-process tier: one replica per OS process
//!   (`c3-live-node` binary), fleet spawning/supervision and address-file
//!   discovery, the hello config-digest handshake, and node scenarios
//!   where a crash is a real `SIGKILL`.
//!
//! See `README.md` for the crate map and quickstart.

pub use c3_cluster as cluster;
pub use c3_core as core;
pub use c3_engine as engine;
pub use c3_live as live;
pub use c3_live_node as live_node;
pub use c3_metrics as metrics;
pub use c3_net as net;
pub use c3_scenarios as scenarios;
pub use c3_sim as sim;
pub use c3_telemetry as telemetry;
pub use c3_workload as workload;
