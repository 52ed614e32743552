//! The [`ReplicaSelector`] contract and the closed [`Selector`] enum shared
//! by the simulators, the Cassandra-like cluster, and the live socket
//! client.
//!
//! A selector is the client-side decision logic: given a replica group for
//! a request, pick the server to send to (or signal backpressure). Every
//! strategy the paper compares (§2.2, §5, §6) implements the trait, and
//! [`Selector`] holds exactly one of them, so C3 and every baseline can be
//! swapped for one another without a trait object on the per-request path.

use crate::feedback::Feedback;
use crate::scheduler::{C3State, SendDecision, ServerId};
use crate::snitch::{DynamicSnitch, SnitchSelector};
use crate::strategies::{
    LeastOutstanding, LeastResponseTime, NearestRank, PowerOfTwoChoices, PrimaryFirst,
    RoundRobinRate, UniformRandom, WeightedRandom,
};
use crate::time::Nanos;

/// Information available to a selector when a response arrives.
#[derive(Clone, Copy, Debug)]
pub struct ResponseInfo {
    /// End-to-end response time observed by the client.
    pub response_time: Nanos,
    /// Piggybacked server feedback, when the protocol carries it.
    pub feedback: Option<Feedback>,
}

/// Read-only view of one replica's state as the selector sees it *right
/// now* — the decision-time snapshot the telemetry layer records next to
/// every selection. Fields a strategy does not track are `NaN`.
///
/// `score` is the number the strategy actually ranked on for its most
/// recent decision (Dynamic Snitching's interval-frozen severity, C3's
/// live cubic score), while `fresh_score` is the same scoring function
/// recomputed from the strategy's *current* evidence. For always-fresh
/// strategies the two coincide; for interval-frozen ones the gap is the
/// staleness the paper's Fig. 2 oscillation grows from, and the
/// tail-attribution pass measures selection regret against `fresh_score`
/// so a frozen strategy cannot grade its own homework.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaView {
    /// Ranking score the selector used (lower is better).
    pub score: f64,
    /// The score recomputed from current evidence at observation time.
    pub fresh_score: f64,
    /// Smoothed client-observed latency in milliseconds (`NaN` before any
    /// sample or when the strategy does not track latency).
    pub ewma_latency_ms: f64,
    /// Smoothed queue-size feedback (`NaN` when untracked).
    pub ewma_queue: f64,
    /// Outstanding requests from this selector to the replica (0 when
    /// untracked).
    pub outstanding: u32,
    /// Rate-limiter send rate in requests per δ window (`NaN` for
    /// strategies without rate control).
    pub srate: f64,
}

/// Client-side replica selection strategy.
///
/// Contract: for every request, the driver calls [`ReplicaSelector::select`]
/// with the request's replica group. `select` makes the decision (and, for
/// rate-controlled strategies, consumes a send token) but does **not**
/// account the send. For every request actually put on the wire — whether
/// chosen by `select` or a mandatory fan-out send such as read repair — the
/// driver calls [`ReplicaSelector::on_send`] once, and later exactly one of
/// [`ReplicaSelector::on_response`] / [`ReplicaSelector::on_abandoned`].
/// On `Selection::Backpressure` the driver must hold the request and retry
/// at `retry_at` or when any response arrives.
///
/// Selectors are `Send` but not required to be `Sync`: every
/// implementation is plain data (trackers, limiters, small RNGs) that a
/// concurrent driver must shard or lock. The live socket client runs
/// non-C3 strategies as one selector instance per replica group behind
/// per-group mutexes (feedback routed back to the group that issued the
/// request); C3 itself bypasses this trait's `&mut self` API entirely in
/// that client and drives [`crate::SharedC3State`], whose trackers are
/// atomics, so selections and completions never serialize globally.
pub trait ReplicaSelector: Send {
    /// Choose a server from `group` for the next request.
    fn select(&mut self, group: &[ServerId], now: Nanos) -> Selection;

    /// A request was put on the wire to `server`.
    fn on_send(&mut self, server: ServerId, now: Nanos);

    /// A response from `server` arrived.
    fn on_response(&mut self, server: ServerId, info: &ResponseInfo, now: Nanos);

    /// The request sent to `server` will never get a response.
    fn on_abandoned(&mut self, server: ServerId, now: Nanos);

    /// Short name for tables and traces ("C3", "LOR", ...).
    fn name(&self) -> &'static str;

    /// Decision-time snapshot of one replica's state for the flight
    /// recorder. Must be purely observational — no RNG draws, no state
    /// mutation — so attaching a recorder cannot perturb a run. Strategies
    /// without introspectable per-replica state keep the default `None`.
    fn replica_view(&self, server: ServerId) -> Option<ReplicaView> {
        let _ = server;
        None
    }
}

/// Result of a selection attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Send to this server.
    Server(ServerId),
    /// Every candidate is rate-saturated (only C3-style selectors emit
    /// this); retry at the given time or on the next response.
    Backpressure {
        /// Earliest time a token will be available again.
        retry_at: Nanos,
    },
}

impl Selection {
    /// The chosen server, if any.
    pub fn server(self) -> Option<ServerId> {
        match self {
            Selection::Server(s) => Some(s),
            Selection::Backpressure { .. } => None,
        }
    }
}

/// The full C3 selector: cubic ranking + rate control + backpressure,
/// wrapping [`C3State`].
#[derive(Debug)]
pub struct C3Selector {
    state: C3State,
}

impl C3Selector {
    /// Create a C3 selector for `num_servers` servers.
    pub fn new(num_servers: usize, cfg: crate::config::C3Config, now: Nanos) -> Self {
        Self {
            state: C3State::new(num_servers, cfg, now),
        }
    }

    /// Access the underlying state (scores, limiters) for introspection.
    pub fn state(&self) -> &C3State {
        &self.state
    }
}

impl ReplicaSelector for C3Selector {
    fn select(&mut self, group: &[ServerId], now: Nanos) -> Selection {
        match self.state.try_send(group, now) {
            SendDecision::Send(s) => Selection::Server(s),
            SendDecision::Backpressure { retry_at } => Selection::Backpressure { retry_at },
        }
    }

    fn on_send(&mut self, server: ServerId, _now: Nanos) {
        self.state.record_send(server);
    }

    fn on_response(&mut self, server: ServerId, info: &ResponseInfo, now: Nanos) {
        self.state
            .on_response(server, info.response_time, info.feedback.as_ref(), now);
    }

    fn on_abandoned(&mut self, server: ServerId, _now: Nanos) {
        self.state.on_abandoned(server);
    }

    fn name(&self) -> &'static str {
        "C3"
    }

    fn replica_view(&self, server: ServerId) -> Option<ReplicaView> {
        let snap = self.state.tracker_snapshot(server);
        let score = self.state.score_of(server);
        Some(ReplicaView {
            score,
            // C3 recomputes its cubic score on every selection, so the
            // decision score *is* the fresh score.
            fresh_score: score,
            ewma_latency_ms: snap.response_time_ms.unwrap_or(f64::NAN),
            ewma_queue: snap.queue_size.unwrap_or(f64::NAN),
            outstanding: snap.outstanding,
            srate: self.state.limiter(server).srate(),
        })
    }
}

/// Every built-in strategy, one variant each. The C3 ablations (`C3-noRC`,
/// `C3-noCC`, `C3-b{n}`) are the [`Selector::C3`] variant under a different
/// [`C3Config`](crate::C3Config).
///
/// The methods mirror [`ReplicaSelector`] (same contract, same call order)
/// but are inherent: each is a `match` that calls its variant directly, so
/// a driver's per-request path never goes through a vtable. `Selector`
/// deliberately does not implement the trait — the trait is the contract
/// each variant's type implements.
#[derive(Debug)]
pub enum Selector {
    /// C3 and its ablations.
    C3(C3Selector),
    /// Least outstanding requests.
    Lor(LeastOutstanding),
    /// Rate-limited round-robin.
    Rr(RoundRobinRate),
    /// Uniform random.
    Random(UniformRandom),
    /// Least EWMA response time.
    Lrt(LeastResponseTime),
    /// Response-time-weighted random.
    WRand(WeightedRandom),
    /// Power of two choices.
    P2c(PowerOfTwoChoices),
    /// Always the group's primary.
    Primary(PrimaryFirst),
    /// Statically nearest replica.
    Nearest(NearestRank),
    /// Cassandra's Dynamic Snitching.
    Ds(SnitchSelector),
}

/// Run `$body` with `$s` bound to the variant's selector, whatever the
/// variant: the one place the variant list is spelled out for dispatch.
macro_rules! each_variant {
    ($sel:expr, $s:ident => $body:expr) => {
        match $sel {
            Selector::C3($s) => $body,
            Selector::Lor($s) => $body,
            Selector::Rr($s) => $body,
            Selector::Random($s) => $body,
            Selector::Lrt($s) => $body,
            Selector::WRand($s) => $body,
            Selector::P2c($s) => $body,
            Selector::Primary($s) => $body,
            Selector::Nearest($s) => $body,
            Selector::Ds($s) => $body,
        }
    };
}

impl Selector {
    /// See [`ReplicaSelector::select`].
    pub fn select(&mut self, group: &[ServerId], now: Nanos) -> Selection {
        each_variant!(self, s => s.select(group, now))
    }

    /// See [`ReplicaSelector::on_send`].
    pub fn on_send(&mut self, server: ServerId, now: Nanos) {
        each_variant!(self, s => s.on_send(server, now))
    }

    /// See [`ReplicaSelector::on_response`].
    pub fn on_response(&mut self, server: ServerId, info: &ResponseInfo, now: Nanos) {
        each_variant!(self, s => s.on_response(server, info, now))
    }

    /// See [`ReplicaSelector::on_abandoned`].
    pub fn on_abandoned(&mut self, server: ServerId, now: Nanos) {
        each_variant!(self, s => s.on_abandoned(server, now))
    }

    /// See [`ReplicaSelector::name`].
    pub fn name(&self) -> &'static str {
        each_variant!(self, s => s.name())
    }

    /// See [`ReplicaSelector::replica_view`].
    pub fn replica_view(&self, server: ServerId) -> Option<ReplicaView> {
        each_variant!(self, s => s.replica_view(server))
    }

    /// The C3 selector, for drivers that introspect scores, rate limiters
    /// and backpressure statistics.
    pub fn as_c3(&self) -> Option<&C3Selector> {
        match self {
            Selector::C3(c3) => Some(c3),
            _ => None,
        }
    }

    /// The Dynamic Snitch, for the loop that delivers its gossip and
    /// recompute ticks.
    pub fn as_snitch_mut(&mut self) -> Option<&mut DynamicSnitch> {
        match self {
            Selector::Ds(ds) => Some(ds.snitch_mut()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::C3Config;

    #[test]
    fn c3_selector_round_trip() {
        let mut sel = C3Selector::new(3, C3Config::default(), Nanos::ZERO);
        let now = Nanos::from_millis(1);
        let sel1 = sel.select(&[0, 1, 2], now);
        let s = sel1.server().expect("should send");
        sel.on_send(s, now);
        sel.on_response(
            s,
            &ResponseInfo {
                response_time: Nanos::from_millis(3),
                feedback: Some(Feedback::new(1, Nanos::from_millis(2))),
            },
            now,
        );
        assert_eq!(sel.state().outstanding(s), 0);
        assert_eq!(sel.name(), "C3");
    }

    #[test]
    fn backpressure_surfaces_through_trait() {
        let cfg = C3Config {
            initial_rate: 1.0,
            ..C3Config::default()
        };
        let mut sel = C3Selector::new(1, cfg, Nanos::ZERO);
        assert!(matches!(
            sel.select(&[0], Nanos::ZERO),
            Selection::Server(0)
        ));
        match sel.select(&[0], Nanos::ZERO) {
            Selection::Backpressure { retry_at } => {
                assert_eq!(retry_at, Nanos::from_millis(20))
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn selection_server_accessor() {
        assert_eq!(Selection::Server(4).server(), Some(4));
        assert_eq!(
            Selection::Backpressure {
                retry_at: Nanos::ZERO
            }
            .server(),
            None
        );
    }
}
