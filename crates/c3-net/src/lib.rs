//! # c3-net — the C3 wire protocol
//!
//! The frames `c3-live` and `c3-live-node` put on real sockets, playing
//! the role the Akka messages of the Cassandra patch play in §4 of the
//! paper: [`proto`] defines length-delimited key-value requests and
//! responses whose every response piggybacks the server feedback
//! (`queue_size`, `service_time`) that C3 clients smooth into `q̄_s` and
//! `μ̄_s⁻¹`, plus the hello frame that opens a node connection.
//!
//! The crate is runtime-agnostic and dependency-light: frames are
//! hand-encoded with `bytes`, decoding is incremental over a caller-owned
//! buffer, and no socket is ever opened here — `c3-live`'s blocking
//! framing helpers pump these frames over `std::net` streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod proto;

pub use error::NetError;
