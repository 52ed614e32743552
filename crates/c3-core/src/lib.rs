//! # c3-core — adaptive replica selection
//!
//! A from-scratch Rust implementation of **C3** (Suresh, Canini, Schmid,
//! Feldmann — *C3: Cutting Tail Latency in Cloud Data Stores via Adaptive
//! Replica Selection*, NSDI 2015): a client-side mechanism that cuts the
//! tail of the latency distribution in replicated data stores by combining
//!
//! 1. **Replica ranking** — each client scores every candidate server
//!    `s` as `Ψ_s = R̄_s − μ̄_s⁻¹ + (q̂_s)³·μ̄_s⁻¹`, where the queue-size
//!    estimate `q̂_s = 1 + os_s·w + q̄_s` compensates for the concurrency of
//!    other clients, and prefers the lowest score ([`score`]).
//! 2. **Distributed rate control and backpressure** — each client limits
//!    its sending rate to every server with a token bucket whose budget
//!    adapts along a CUBIC-style growth curve, and holds requests in a
//!    backlog queue when all replicas of a group are saturated
//!    ([`RateLimiter`], [`C3State`], [`BacklogQueue`]).
//!
//! The crate is deliberately runtime-agnostic: every entry point takes the
//! current time as a [`Nanos`] argument, so the same code drives the
//! deterministic discrete-event simulators (`c3-sim`, `c3-cluster`) and the
//! real socket implementation (`c3-live`).
//!
//! ## Quick start
//!
//! ```
//! use c3_core::{C3Config, C3Selector, Feedback, Nanos, ReplicaSelector, ResponseInfo, Selection};
//!
//! // A client that can reach 5 servers, with paper-default parameters and
//! // the concurrency weight set to the number of clients in the system.
//! let mut sel = C3Selector::new(5, C3Config::for_clients(10), Nanos::ZERO);
//!
//! // A request whose replica group (RF = 3) is servers {0, 2, 4}:
//! let now = Nanos::from_millis(1);
//! match sel.select(&[0, 2, 4], now) {
//!     Selection::Server(s) => {
//!         sel.on_send(s, now); // the request goes on the wire
//!         // ... when its response arrives:
//!         sel.on_response(
//!             s,
//!             &ResponseInfo {
//!                 response_time: Nanos::from_millis(4),
//!                 feedback: Some(Feedback::new(2, Nanos::from_millis(3))),
//!             },
//!             now + Nanos::from_millis(4),
//!         );
//!     }
//!     Selection::Backpressure { retry_at } => {
//!         // all replicas rate-saturated: park the request until `retry_at`
//!         let _ = retry_at;
//!     }
//! }
//! ```
//!
//! ## Baselines
//!
//! The [`strategies`] module implements the client-local baselines the paper
//! compares against (least-outstanding-requests, rate-limited round-robin,
//! uniform random, least-response-time, weighted random, power-of-two
//! choices, primary-only, nearest) and [`SnitchSelector`] is Cassandra's
//! Dynamic Snitching, each behind the common [`ReplicaSelector`] contract.
//! The closed [`Selector`] enum holds any one of them and is what every
//! simulator and the live client drive: a `match` per call, no vtable. The
//! Oracle baseline is not a selector at all (it reads simulator-global
//! state), so each simulator wires it itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod config;
mod ewma;
mod feedback;
pub mod kv;
mod lifecycle;
mod rate;
mod scheduler;
mod score;
mod selector;
mod snitch;
pub mod strategies;
mod time;
mod tracker;

pub use concurrent::{AtomicTracker, SharedC3State, MAX_GROUP};
pub use config::C3Config;
pub use ewma::Ewma;
pub use feedback::Feedback;
pub use lifecycle::{FailureDetector, LifecycleConfig, LifecycleCounts};
pub use rate::{cubic_rate, RateLimiter, RatePhase, RateStats};
pub use scheduler::{BacklogQueue, C3State, SendDecision, ServerId};
pub use score::{queue_size_estimate, score};
pub use selector::{C3Selector, ReplicaSelector, ReplicaView, ResponseInfo, Selection, Selector};
pub use snitch::{DynamicSnitch, SnitchConfig, SnitchSelector};
pub use time::{Nanos, WallClock};
pub use tracker::{ServerTracker, TrackerSnapshot};
