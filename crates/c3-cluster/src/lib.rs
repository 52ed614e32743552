//! # c3-cluster — a Cassandra-like replicated data store substrate
//!
//! The C3 paper's §5 evaluation runs a patched Cassandra 2.0 on a 15-node
//! EC2 cluster. This crate rebuilds that system at request granularity on
//! the deterministic event engine and scenario runner from [`c3_engine`]:
//!
//! - [`Ring`]: equal-range token ring with successor replication (RF = 3),
//! - [`DiskModel`]: spinning-disk (m1.xlarge RAID0) and SSD (m3.xlarge)
//!   storage models with memtable-hit behaviour tied to the workload mix,
//! - [`PerturbationSpec`]: per-node GC pauses, compactions (which drive
//!   `iowait`) and noisy-neighbour slowdowns — the §2.1 fluctuation
//!   sources,
//! - [`Cluster`]: coordinators running any strategy (C3, Dynamic
//!   Snitching, or a Table-1 baseline) over the full read/write path,
//!   feeding Dynamic Snitching its gossiped iowait and recompute ticks
//!   (the snitch itself is `c3_core::DynamicSnitch`), driven by
//!   closed-loop YCSB-style generator threads; with optional speculative
//!   retry and latency traces (Figure 11),
//! - [`FaultPlan`]: the one scripted adversity timeline — slow windows
//!   (Figure 13, hardware tiers, partitions), crashes, connection resets,
//!   dropped and delayed responses — that the cluster and the live
//!   backend both replay.
//!
//! ```
//! use c3_cluster::{Cluster, ClusterConfig};
//! use c3_engine::Strategy;
//! use c3_workload::WorkloadMix;
//!
//! let mut cfg = ClusterConfig::paper(Strategy::c3(), WorkloadMix::read_heavy());
//! cfg.total_ops = 5_000; // scaled down for the doctest
//! cfg.warmup_ops = 100;
//! cfg.generators = 24;
//! let result = Cluster::new(cfg).run();
//! println!("p99.9 = {:.1} ms", result.summary().metric_ms("p999"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod fault;
mod perturb;
mod ring;
mod storage;

pub use c3_engine::Strategy;
pub use cluster::{Cluster, ClusterResult, ClusterScenario, CLUSTER_CHANNELS};
pub use config::{ClusterConfig, WorkloadPhase};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultState, InvalidFault, NodeFaults};
pub use perturb::{EpisodeKind, EpisodeSpec, PerturbationSpec};
pub use ring::Ring;
pub use storage::{DiskKind, DiskModel};
