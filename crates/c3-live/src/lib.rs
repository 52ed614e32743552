//! # c3-live — C3 over real loopback sockets, std-only
//!
//! The paper's claim is about a *real* data store: C3's replica ranking
//! and rate control cut the tail on actual servers, not just in a
//! discrete-event kernel. This crate is the first end-to-end path from
//! the workspace's algorithm to real bytes on a wire, with **no runtime
//! dependencies beyond `std::net` + `std::thread`**:
//!
//! - [`LiveCluster`]: N replica servers on loopback TCP — per-connection
//!   handler threads, a sharded in-memory store, bounded execution slots
//!   whose queue depth rides back as piggybacked feedback
//!   (`queue_size`, `service_time`) on every `c3-net` response frame,
//!   and service times sampled from the §5 cluster's `DiskModel` then
//!   *actually waited out* on the replica's one service thread;
//! - adversity from [`LiveConfig::faults`]: the same `c3_cluster`
//!   `FaultPlan` the sim scenarios use — slow windows, crashes, resets,
//!   dropped and delayed responses — replayed by each replica against
//!   wall time, so `hetero-fleet`, `partition-flux` and the fault
//!   scenarios run unchanged over real sockets;
//! - the multiplexed client: per-replica connections each split into a
//!   writer and a reader thread, a [`CorrelationTable`] matching
//!   out-of-order responses back to requests by the wire id, and a global
//!   [`InFlightBudget`] so one client holds hundreds-to-thousands of
//!   requests in flight. Issuer threads drive the **same `c3-core`
//!   selection machinery the simulators run** — C3-family strategies on
//!   the lock-free `SharedC3State`, baselines sharded per replica group —
//!   built by the same `Strategy` name (incl. `DS`, ticked by a recompute
//!   thread);
//! - [`run_live`] drives a run through the engine's `ScenarioRunner`, so
//!   results land in the same named `read`/`update` channels and the
//!   same [`c3_scenarios::ScenarioReport`]; [`register_live_scenarios`]
//!   makes [`LIVE_HETERO_FLEET`] and [`LIVE_PARTITION_FLUX`] ordinary
//!   registry names that `ScenarioRegistry::sweep` fans out like any sim
//!   cell.
//!
//! The parity harness (`tests/sim_vs_live.rs`, plus the `live_faceoff`
//! example) runs the same scripted blackouts through the kernel and the
//! sockets and checks that per-replica score rankings agree at matched
//! sample points and that C3's p99 win over DS survives the move to real
//! I/O. Live runs measure wall time, so they are statistical rather than
//! bit-deterministic — the seed pins the workload, the OS keeps the
//! scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod mux;
mod scenario;
mod server;
mod wire;

pub use client::Transport;
pub use config::LiveConfig;
pub use mux::{CorrelationTable, InFlightBudget, MuxError};
pub use scenario::{
    crash_flux_config, flaky_net_config, hetero_fleet_config, live_registry, partition_flux_config,
    register_live_scenarios, run_live, run_live_on, LiveReport, HEALTH_FEEDBACK_LAG,
    HEALTH_INFLIGHT, LIVE_CRASH_FLUX, LIVE_FLAKY_NET, LIVE_HETERO_FLEET, LIVE_PARTITION_FLUX,
};
pub use server::{encode_key, LiveCluster, NoSlowdown, ReplicaServer, ReplicaSpec};
pub use wire::read_frame;
