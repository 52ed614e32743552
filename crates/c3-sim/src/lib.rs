//! # c3-sim — the C3 paper's §6 discrete-event simulator
//!
//! A deterministic reimplementation of the simulator the paper uses to
//! evaluate C3 "independently of the intricacies of Cassandra": Poisson
//! workload generators feed requests to strategy-driven clients, which
//! route them to replica servers with FIFO queues, 4-way concurrency,
//! exponential service times, and bimodal time-varying service rates
//! (μ vs μ·D re-sampled every fluctuation interval).
//!
//! The event loop, strategy resolution and run metrics all come from the
//! shared [`c3_engine`] crate: this crate contributes the §6 scenario
//! ([`SimScenario`], driven by `c3_engine::ScenarioRunner`) and the
//! global-knowledge `ORA` baseline. Every other strategy — full **C3**,
//! **LOR**, rate-limited **RR**, uniform random, least-response-time,
//! weighted random, power-of-two-choices, and the C3 ablations — is
//! built by name with `Strategy::build`.
//!
//! ```
//! use c3_sim::{SimConfig, Simulation, Strategy};
//! use c3_core::Nanos;
//!
//! let cfg = SimConfig {
//!     servers: 10,
//!     clients: 20,
//!     generators: 20,
//!     total_requests: 2_000,
//!     fluctuation_interval: Nanos::from_millis(200),
//!     strategy: Strategy::c3(),
//!     ..SimConfig::default()
//! };
//! let result = Simulation::new(cfg).run();
//! assert_eq!(result.completed, 2_000);
//! println!("p99 = {} ms", result.summary().metric_ms("p99"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod result;
mod server;
mod sim;

pub use c3_engine::Strategy;
pub use config::{DemandSkew, SimConfig};
pub use result::RunResult;
pub use server::{ReqId, ServerAction, SimServer, SpeedState};
pub use sim::{Event, SimScenario, Simulation};
