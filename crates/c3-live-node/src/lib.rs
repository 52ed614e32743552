//! # c3-live-node — cross-process scale-out for the live backend
//!
//! The in-process [`c3_live`] cluster proves C3 over real sockets, but
//! every replica still shares one address space, one allocator and one
//! scheduler with the client. This crate breaks that boundary: **one
//! replica per OS process**, so the client's view of the fleet is the
//! view a real deployment has — separate heaps, separate run queues,
//! crashes that are actual process deaths.
//!
//! - the `c3-live-node` **binary** runs exactly one
//!   [`ReplicaServer`](c3_live::ReplicaServer) from a kv config file
//!   ([`NodeConfig`]), announces `<id>=<addr>` on stdout, and serves
//!   until stdin closes;
//! - [`NodeFleet`] spawns and supervises a fleet of those processes —
//!   including real SIGKILL crashes and learned-port respawns;
//! - discovery ([`parse_addresses`] / [`NODES_ENV`]) lets a coordinator
//!   attach to an already-running fleet from an address file or
//!   environment variable instead of spawning one;
//! - [`FleetConfig::digest`] (FNV-1a over the canonical fleet kv text)
//!   rides in every node's hello frame, so a client refuses to blend a
//!   stale or misconfigured node into an experiment;
//! - [`run_node`] + [`node_registry`] surface all of it as
//!   ordinary registry scenarios (`node-hetero-fleet`,
//!   `node-partition-flux`, `node-crash-flux`), with per-process
//!   RSS/CPU sampled into recorder gauge channels — `scenario_sweep`
//!   and the SLO harness run multi-process experiments with zero
//!   changes;
//! - the `c3-node-coordinator` **binary** is the operator face: spawn a
//!   fleet and run a smoke scenario, emit node config files, or attach
//!   to a hand-started fleet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod discovery;
mod fleet;
mod scenario;

pub use config::{FleetConfig, NodeConfig};
pub use discovery::{encode_addresses, parse_addresses, parse_env, DiscoveryError, NODES_ENV};
pub use fleet::{node_bin, NodeFleet};
pub use scenario::{node_config, node_registry, run_node, NODE_CRASH_FLUX, NODE_HETERO_FLEET};
