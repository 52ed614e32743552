//! # c3-engine — one deterministic engine behind both simulators
//!
//! The C3 paper evaluates its mechanism twice: in an abstract §6
//! discrete-event simulator and in a Cassandra-like §5 cluster. This crate
//! is the machinery both of those frontends (and any future workload)
//! share, so that adding a scenario is a registration and adding a strategy
//! is one `c3_core::Selector` variant, not a parallel reimplementation:
//!
//! - [`EventQueue`]: a deterministic discrete-event kernel with typed
//!   events, `(time, insertion-seq)` ordering, **cancellable timers**
//!   ([`TimerId`]/[`EventQueue::cancel`]) and a slab-backed event store
//!   with an intrusive free list — no auxiliary free vector and no
//!   per-event `Option` slots on the hot path.
//! - [`Strategy`]: a strategy name, resolved by [`Strategy::build`] with
//!   one `match` into the `c3_core::Selector` variant for C3, its
//!   ablations, every `c3_core::strategies` baseline and Dynamic
//!   Snitching, so simulators, benches and examples all select strategies
//!   by name.
//! - [`BackpressureFront`]: Algorithm 1's backlog/retry protocol (per-group
//!   FIFO backlog, one cancellable retry timer per group, cancelled when a
//!   response drains the backlog first), shared by every simulated loop
//!   that drives a backpressure-capable selector: the §6 simulator, the
//!   direct fleet and the §5 cluster.
//! - [`SlotTable`]: the request/send record table of the direct-send
//!   loops — slots recycled on release and named by [`SlotKey`], so a
//!   run's memory is O(requests in flight), not O(requests issued).
//! - [`ScenarioRunner`]: owns RNG seed derivation ([`SeedSeq`]), the
//!   warm-up/measure window, and the uniform [`RunMetrics`] (named latency
//!   channels, throughput, per-server load time series) for any
//!   [`Scenario`] implementation. Independent runs fan out across worker
//!   threads via [`ScenarioRunner::run_all`] / [`fan_out`], bit-identical
//!   for any thread count.
//! - [`SloSearch`] / [`SloSweep`]: the SLO-seeking rate controller — a
//!   deterministic integer-grid bisection for the maximum offered rate a
//!   `(scenario, strategy, seed)` cell sustains under a latency
//!   [`SloPredicate`], producing a fingerprinted [`SloReport`] (the
//!   paper's throughput-at-SLO frame, over any backend that can run at a
//!   requested rate).
//!
//! ```
//! use c3_core::Nanos;
//! use c3_engine::{ChannelId, ChannelSet, EventQueue, RunMetrics, Scenario, ScenarioRunner};
//!
//! /// A toy scenario: 100 ticks, 1 ms apart, each "completing" instantly.
//! struct Ticks(u64);
//!
//! /// The first (and only) declared channel.
//! const TICK: ChannelId = ChannelId::new(0);
//!
//! impl Scenario for Ticks {
//!     type Event = ();
//!
//!     fn channels(&self) -> ChannelSet {
//!         ChannelSet::single("tick")
//!     }
//!
//!     fn start(&mut self, engine: &mut EventQueue<()>) {
//!         engine.schedule(Nanos::from_millis(1), ());
//!     }
//!
//!     fn handle(
//!         &mut self,
//!         _ev: (),
//!         now: Nanos,
//!         engine: &mut EventQueue<()>,
//!         metrics: &mut RunMetrics,
//!     ) {
//!         metrics.record_completion(TICK, now, Nanos::from_micros(100), true);
//!         self.0 += 1;
//!         if self.0 < 100 {
//!             engine.schedule_in(Nanos::from_millis(1), ());
//!         }
//!     }
//!
//!     fn is_done(&self, _metrics: &RunMetrics) -> bool {
//!         self.0 >= 100
//!     }
//! }
//!
//! let runner = ScenarioRunner::new(1);
//! let mut scenario = Ticks(0);
//! let (metrics, stats) = runner.run(&mut scenario, 1, Nanos::from_millis(100));
//! assert_eq!(metrics.completions(TICK), 100);
//! assert_eq!(metrics.channel("tick"), Some(TICK));
//! assert_eq!(stats.events_processed, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backpressure;
mod kernel;
mod registry;
mod runner;
mod slo;
mod slot_table;

pub use backpressure::BackpressureFront;
pub use c3_metrics::{ChannelId, ChannelSet, SloMetric, SloPredicate};
pub use kernel::{EventQueue, TimerId};
pub use registry::{BuiltSelector, SelectorCtx, Strategy, StrategyRegistry, UnknownStrategy};
pub use runner::{fan_out, EngineStats, RunMetrics, Scenario, ScenarioRunner, SeedSeq};
pub use slo::{
    ProbeMeasurement, RateProbe, RateWindow, SkippedCell, SloCell, SloCellReport, SloOutcome,
    SloReport, SloSearch, SloSweep,
};
pub use slot_table::{SlotKey, SlotTable};
